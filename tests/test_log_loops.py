"""The ring and matrix loops on logs against their term-by-term oracles.

SkewPoly's product and one reduction loop (right division, grcd and llcm),
field.rref, FieldCtx.coords and the rlnc oracle's vector relays accumulate
through one kernel, field.add_scaled.  The Zech table is read only in
field: by add_scaled, FieldCtx.add, field.value_at (the one-point
evaluation that SkewPoly.evaluate reads), field.grow_minimal (the greedy
minimal polynomial, which reads value_at at each point) and
field.vanishing_points, the scan for zeros over a range of logs that the
preload and zeros on m = 1 read; the element simulator's draw adds through
FieldCtx.add.  tests/oracles.py holds the kernel, the loops, the evaluation
and right Euclid written through the context's add, neg, mul and frobenius.
"""

import ast
import pathlib
import random

import pytest

import skewmatroid
from oracles import (
    add_scaled_by_terms,
    evaluate_by_running_exponent,
    evaluate_by_terms,
    grcd_by_terms,
    llcm_by_terms,
    mat_vec_by_terms,
    mul_by_terms,
    right_divmod_by_terms,
    rref_by_terms,
)
from skewmatroid import (
    ONE,
    ZERO,
    FieldCtx,
    SkewPoly,
    ZeroInput,
    get_field,
    grcd,
    llcm,
    minimal_poly,
    rank_of,
)
from skewmatroid.conjugacy import class_elements
from skewmatroid.field import add_scaled, rref, value_at, vanishing_points

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


def _vanishing_polys(ctx, rng):
    """The zero polynomial, a constant, monomials, a binomial, sparse and
    dense polynomials of degrees past m(q - 1), and some with zeros: the
    minimal polynomial of class points, and products with x - a."""
    N, M = ctx.order - 1, ctx.m * (ctx.q - 1)
    polys = _polys(ctx, rng)
    polys += [SkewPoly(ctx, [ZERO] * i + [rng.randrange(N)]) for i in (1, ctx.m, M + 2)]
    polys.append(SkewPoly(ctx, [rng.randrange(N)] + [ZERO] * (M + 1) + [ONE]))
    polys += [_poly(ctx, rng, M + rng.randint(1, 4)) for _ in range(2)]
    for _ in range(3):
        ell = rng.randrange(ctx.q - 1)
        k = rng.randint(1, ctx.m)
        pts = [(ell + (ctx.q - 1) * rng.randrange(ctx.class_size)) % N for _ in range(k)]
        polys.append(minimal_poly(ctx, pts))
        polys.append(_poly(ctx, rng, 2) * SkewPoly(ctx, (ctx.neg(rng.randrange(N)), ONE)))
    return polys


@pytest.mark.parametrize("spec", SPECS)
def test_vanishing_points_match_the_evaluation_oracle(spec):
    # three classes' progressions of logs, the whole range and a tail of it,
    # or a window of 2,000 points of each on the larger fields, declared in
    # blocks of the default, of 1, of 7, and all at once
    ctx = _ctx(spec)
    rng = random.Random(f"vanishing {spec}")
    N, step = ctx.order - 1, ctx.q - 1
    ells = sorted({0, step - 1, rng.randrange(step)})
    ranges = [range(ell, N, step) for ell in ells] + [range(N), range(N)[rng.randrange(N) :]]
    for points in ranges:
        lo = rng.randrange(max(len(points) - 2000, 1))
        points = points[lo : lo + 2000]
        for f in _vanishing_polys(ctx, rng):
            want = [b for b in points if evaluate_by_running_exponent(f, b) == ZERO]
            assert list(vanishing_points(ctx, f.coeffs, points)) == want
            for block in (1, 7, max(len(points), 1)):
                assert list(vanishing_points(ctx, f.coeffs, points, block)) == want


@pytest.mark.parametrize("spec", SPECS)
def test_value_at_matches_the_evaluation_oracles(spec):
    # the one evaluation loop, on the zero polynomial, constants, monomials
    # and degrees past m(q - 1), at zero, one, -1 and random points, given a
    # tuple as SkewPoly.evaluate passes it or a list as grow_minimal does
    ctx = _ctx(spec)
    rng = random.Random(f"value_at {spec}")
    N = ctx.order - 1
    points = [ZERO, ONE, ctx.minus_one] + rng.sample(range(N), min(N, 6))
    for f in _vanishing_polys(ctx, rng):
        for a in points:
            want = evaluate_by_terms(f, a)
            assert evaluate_by_running_exponent(f, a) == want
            assert value_at(ctx, f.coeffs, a) == value_at(ctx, list(f.coeffs), a) == want


# (lookups, declarations, reads declared) of each call below: those of the
# loop that grow_minimal replaced, an evaluate and a times_linear pass a
# point, as the kernel declares and reads where and as much as they did
GREEDY_READS = {rank_of: (66, 38, 104), minimal_poly: (1054, 68, 1213)}


@pytest.mark.parametrize("call", GREEDY_READS, ids=lambda f: f.__name__)
def test_the_greedy_reads_and_declares_as_the_loop_it_replaced(call):
    # a cold 2^20 context whose K is raised past the order, so that every
    # read is a lookup; 40 points: 9 of one class (m = 5, so rank_of stops
    # that part at 5), zero, 28 others and two repeats
    ctx = FieldCtx(2, 20, 4, 1)
    ctx.zech(0).break_even = ctx.order
    declared = []
    zech = ctx.zech
    ctx.zech = lambda reads=1: declared.append(reads) or zech(reads)
    rng = random.Random("lookups 2,20,4,1")
    pts = rng.sample(class_elements(ctx, 3), 9) + [ZERO]
    pts += [rng.randrange(ctx.order - 1) for _ in range(28)]
    result = call(ctx, pts + pts[:2])
    assert (result if call is rank_of else result.degree) == 33
    assert (ctx._logs.reads, len(declared), sum(declared)) == GREEDY_READS[call]
    assert ctx._zech == []


class _CountedReads:
    """A Zech table that counts the reads made of it."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.table[i]


@pytest.mark.parametrize("spec", SPECS)
def test_vanishing_points_declare_the_reads_they_make(spec):
    # a point reads zech at most once for each nonzero term but the first
    # and the lead, and a scan declares exactly that a point, a block at a
    # time: none on a binomial, which decides a point by one multiply-mod.
    # The scan runs on a fresh context, which calls zech() at every block,
    # and reads the cached context's table, whose logs are the same
    ctx = _ctx(spec)
    counted, declared = _CountedReads(ctx.zech(ctx.order)), []
    cold = FieldCtx(*(int(t) for t in spec.split(",")))
    cold.zech = lambda reads=1: declared.append(reads) or counted
    rng = random.Random(f"declared {spec}")
    N, step = ctx.order - 1, ctx.q - 1
    points = range(rng.randrange(step), N, step)[:200]  # three blocks, and part of one
    for f in _vanishing_polys(ctx, rng):
        declared.clear()
        reads = counted.reads
        got = list(vanishing_points(cold, f.coeffs, points))
        assert got == [b for b in points if evaluate_by_running_exponent(f, b) == ZERO]
        terms = sum(c != ZERO for c in f.coeffs)
        assert sum(declared) == len(points) * max(terms - 2, 0)
        assert len(declared) == (-(-len(points) // 64) if terms > 2 else 0)
        assert counted.reads - reads <= sum(declared)


def test_vanishing_points_declare_their_reads_a_block_at_a_time():
    # on a cold 2^20 context (K = 4,587) a scan that stops early makes its
    # reads by lookup, where one that declares its whole range builds the
    # table before its first read
    ctx = FieldCtx(2, 20, 4, 1)
    points = range(0, ctx.order - 1, ctx.q - 1)
    f = minimal_poly(ctx, [points[3], points[40], points[700]])
    scan = vanishing_points(ctx, f.coeffs, points)
    first = [next(scan) for _ in range(3)]
    assert points[3] in first and all(f.evaluate(b) == ZERO for b in first)
    assert ctx._zech == [] and 0 < ctx._logs.reads <= ctx._logs.break_even
    cold = FieldCtx(2, 20, 4, 1)
    logs = cold.zech(0)
    assert next(vanishing_points(cold, f.coeffs, points, len(points))) == first[0]
    assert len(cold._zech) == cold.order - 1 and logs.reads == 0


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
    # add, add_scaled and evaluate index zech by a raw difference of logs; a
    # log given as x + N, whose difference may then lie outside -N..N-1,
    # gets the answer of the normalized call.  A fresh context reads by
    # lookup until its reads pass K (362 on 3,10,2,1), the table after
    ctx = FieldCtx(*(int(t) for t in spec.split(",")))
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
    # the table is read in field alone (add, add_scaled, the evaluation and
    # vanishing loops, the greedy and its build); any other loop accumulates
    # through add_scaled or evaluates through value_at
    readers = {
        (path.name, name)
        for path in pathlib.Path(skewmatroid.__file__).parent.glob("*.py")
        for name in _zech_readers(ast.parse(path.read_text()))
    }
    assert {path for path, _ in readers} == {"field.py"}
