"""The ring and matrix loops on logs against their term-by-term oracles.

SkewPoly's product, times_linear and one reduction loop (right division,
grcd and llcm), field.rref, FieldCtx.coords and the rlnc oracle's
vector relays accumulate through one kernel, field.add_scaled, the one
reader of the Zech table besides FieldCtx.add and SkewPoly.evaluate; the
element simulator's draw adds through FieldCtx.add.  tests/oracles.py holds
the kernel, the loops, the evaluation and right Euclid written through the
context's add, sub, mul and frobenius.
"""

import ast
import pathlib
import random

import pytest

import skewmatroid
from oracles import (
    add_scaled_by_terms,
    evaluate_by_terms,
    grcd_by_terms,
    llcm_by_terms,
    mat_vec_by_terms,
    mul_by_terms,
    right_divmod_by_terms,
    rref_by_terms,
)
from skewmatroid import ONE, ZERO, FieldCtx, SkewPoly, ZeroInput, get_field, grcd, llcm
from skewmatroid.field import add_scaled, rref

SPECS = [
    "2,1,1,1", "3,1,1,1", "2,2,1,1", "2,3,1,1", "2,4,2,1", "2,4,4,1", "2,5,1,2",
    "2,6,1,5", "2,6,2,1", "2,8,2,3", "2,9,3,2", "2,10,5,1", "2,16,4,1", "3,2,1,1",
    "3,3,1,2", "3,4,2,1", "3,10,2,1", "5,2,1,1", "5,3,1,1", "7,2,1,1", "11,2,2,1",
    "101,1,1,1",
]


def _ctx(spec: str) -> FieldCtx:
    return get_field(*(int(t) for t in spec.split(",")))


def _element(ctx, rng, zero_share=0.4):
    return ZERO if rng.random() < zero_share else rng.randrange(ctx.order - 1)


def _poly(ctx, rng, degree):
    """A polynomial of exactly this degree whose lower coefficients are
    often zero."""
    return SkewPoly(ctx, [_element(ctx, rng) for _ in range(degree)] + [rng.randrange(ctx.order - 1)])


def _polys(ctx, rng):
    fixed = [SkewPoly(ctx), SkewPoly(ctx, [ONE]), SkewPoly(ctx, [rng.randrange(ctx.order - 1)])]
    return fixed + [_poly(ctx, rng, rng.randint(1, 3 * ctx.m + 3)) for _ in range(12)]


@pytest.mark.parametrize("spec", SPECS)
def test_ring_loops_match_the_term_oracles(spec):
    ctx = _ctx(spec)
    rng = random.Random(spec)
    polys = _polys(ctx, rng)
    points = [ZERO, ONE] + [rng.randrange(ctx.order - 1) for _ in range(4)]
    for f in polys:
        for a in points:
            assert f.evaluate(a) == evaluate_by_terms(f, a)
        for g in polys:
            assert f * g == mul_by_terms(f, g)
            if not g.is_zero():
                assert f.right_divmod(g) == right_divmod_by_terms(f, g)
    # a dividend of lower degree than the divisor is its own remainder
    f, g = _poly(ctx, rng, 2), _poly(ctx, rng, 5)
    assert f.right_divmod(g) == right_divmod_by_terms(f, g) == (SkewPoly(ctx), f)


def _euclid_pairs(ctx, rng):
    """Zero operands, equal operands, a left multiple, pairs sharing a
    random right factor, unrelated pairs, and one pair of degrees past
    M = m(q - 1), beyond which zeros folds exponents."""
    M = ctx.m * (ctx.q - 1)
    f = _poly(ctx, rng, rng.randint(1, 4))
    pairs = [(SkewPoly(ctx), f), (f, SkewPoly(ctx)), (f, f), (f, _poly(ctx, rng, 2) * f)]
    for _ in range(4):
        c = _poly(ctx, rng, rng.randint(1, 3))
        pairs.append(tuple(_poly(ctx, rng, rng.randint(0, 5)) * c for _ in "fg"))
    pairs += [tuple(_poly(ctx, rng, rng.randint(1, 7)) for _ in "fg") for _ in range(4)]
    pairs.append((_poly(ctx, rng, M + 3), _poly(ctx, rng, M + 1)))
    return pairs


@pytest.mark.parametrize("spec", SPECS)
def test_euclid_matches_the_term_oracles(spec):
    ctx = _ctx(spec)
    rng = random.Random(f"euclid {spec}")
    for f, g in _euclid_pairs(ctx, rng):
        for a, b in ((f, g), (g, f)):
            if not b.is_zero():
                assert a.right_divmod(b) == right_divmod_by_terms(a, b)
        assert grcd(f, g) == grcd_by_terms(f, g)
        if f.is_zero() or g.is_zero():
            with pytest.raises(ZeroInput):
                llcm(f, g)
        else:
            assert llcm(f, g) == llcm_by_terms(f, g)


def _matrices(ctx, rng):
    m = ctx.m
    moore = [[ctx.frobenius(b, i) for b in ctx.basis] for i in range(m)]
    augmented = [row + [ONE if r == c else ZERO for c in range(m)] for r, row in enumerate(moore)]
    out = [[], [[ZERO] * 3], moore, augmented, [[ONE] * 4 for _ in range(3)]]
    for _ in range(8):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[_element(ctx, rng) for _ in range(ncols)] for _ in range(nrows)]
        rows[rng.randrange(nrows)] = [ZERO] * ncols  # an all-zero row
        zero_col = rng.randrange(ncols)
        for row in rows:
            row[zero_col] = ZERO  # and an all-zero column
        out.append(rows)
    return out


@pytest.mark.parametrize("spec", SPECS)
def test_kernel_matches_the_term_oracle(spec):
    ctx = _ctx(spec)
    rng = random.Random(spec)
    N = ctx.order - 1
    # k as the loops pass it: a log, -1's log, and an unreduced sum of logs
    ks = [ONE, ctx.minus_one, rng.randrange(N), rng.randrange(N) + ctx.minus_one]
    for _ in range(30):
        coeffs = [_element(ctx, rng) for _ in range(rng.randint(0, 6))]
        off = rng.randint(0, 3)
        out = [_element(ctx, rng) for _ in range(off + len(coeffs) + rng.randint(0, 3))]
        for k in ks:
            for j in range(ctx.m):  # f = 1 at j = 0, a twist otherwise
                got = list(out)
                assert add_scaled(ctx, got, coeffs, k, ctx._frob[j], off) is None
                assert got == add_scaled_by_terms(ctx, out, coeffs, k, j, off)


@pytest.mark.parametrize("spec", ["2,2,1,1", "2,4,2,1", "3,10,2,1"])
def test_zech_reads_wrap_like_the_modulus(spec):
    # add, add_scaled and evaluate index the built table by a raw difference
    # of logs; a log given as x + N, whose difference may then lie outside
    # -N..N-1, gets the answer of the normalized call
    ctx = _ctx(spec)
    ctx.zech()
    rng = random.Random(spec)
    N = ctx.order - 1
    for _ in range(200):
        a, b = rng.randrange(N), rng.randrange(N)
        assert ctx.add(a + N, b) == ctx.add(a, b + N) == ctx.add(a, b)
        coeffs = [rng.randrange(N) for _ in range(4)]
        out = [rng.randrange(N) for _ in coeffs]
        k = rng.randrange(N)
        got, want = [y + N for y in out], list(out)
        add_scaled(ctx, got, coeffs, k)
        add_scaled(ctx, want, coeffs, k)
        assert got == want
    for f in _polys(ctx, rng):
        a = rng.randrange(N)
        assert f.evaluate(a + N) == f.evaluate(a)


@pytest.mark.parametrize("spec", SPECS)
def test_matrix_loops_match_the_term_oracles(spec):
    ctx = _ctx(spec)
    rng = random.Random(spec)
    for rows in _matrices(ctx, rng):
        assert rref(ctx, rows) == rref_by_terms(ctx, rows)
    # coords is sigma^i(a) through the Moore inverse, summed column by column
    m = ctx.m
    moore = [[ctx.frobenius(b, i) for b in ctx.basis] for i in range(m)]
    augmented = [row + [ONE if r == c else ZERO for c in range(m)] for r, row in enumerate(moore)]
    inverse = [row[m:] for row in rref_by_terms(ctx, augmented)[0]]
    if ctx.order <= 1024:
        points = list(ctx.elements())
    else:
        points = [ZERO, ONE] + rng.sample(range(ctx.order - 1), 64)
    for a in points:
        coords = ctx.coords(a)
        assert coords == mat_vec_by_terms(ctx, inverse, [ctx.frobenius(a, i) for i in range(m)])
        assert ctx.uncoords(coords) == a


def _zech_readers(node, scope=()):
    """The scope, as a dotted name, of each .zech or ._zech under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _zech_readers(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Attribute) and child.attr in ("zech", "_zech"):
            yield ".".join(scope)
        yield from _zech_readers(child, scope)


def test_only_the_kernel_and_evaluate_read_the_zech_table():
    # the table is read in field (add, add_scaled and its build) and by
    # SkewPoly.evaluate; any other loop accumulates through add_scaled
    readers = {
        (path.name, name)
        for path in pathlib.Path(skewmatroid.__file__).parent.glob("*.py")
        for name in _zech_readers(ast.parse(path.read_text()))
    }
    assert {r for r in readers if r[0] != "field.py"} <= {("skewpoly.py", "SkewPoly.evaluate")}
