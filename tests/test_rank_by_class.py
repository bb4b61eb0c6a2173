"""Rank summed class by class, and the minimal polynomial grown one linear
factor at a time, against the whole-set routes in tests/oracles.py.

rank_of adds, per conjugacy class, the degree of that class part's minimal
polynomial; rank_by_minpoly takes the degree of the whole set's.
SkewPoly.times_linear forms (x + c) * f in one pass on logs, which
minimal_poly_by_products forms as a full product.
"""

import random
import re

import pytest

from oracles import (
    add_by_terms,
    closure_definitional,
    minimal_poly_by_products,
    mul_by_terms,
    rank_by_minpoly,
    sub_by_terms,
)
from skewmatroid import (
    ONE,
    ZERO,
    MixedClasses,
    SkewPoly,
    canonical_points,
    class_elements,
    class_of,
    closure,
    get_field,
    is_p_independent,
    lift,
    rank_of,
    unwarp_method1,
)
from skewmatroid.conjugacy import class_labels
from skewmatroid.minimal import minimal_poly_and_basis
from test_log_loops import SPECS, _ctx, _element, _polys


def _point_sets(ctx, rng):
    """Single-class and many-class sets, some holding zero, some with
    duplicates, and one in descending order with zero last, the reverse of
    canonical order."""
    nonzero = ctx.order - 1
    out = [[], [ZERO], [ZERO, ZERO]]
    for _ in range(4):
        ell = rng.randrange(ctx.q - 1)
        cls = class_elements(ctx, ell)
        out.append(rng.choices(cls, k=rng.randint(1, ctx.m + 2)))
        out.append([ZERO] + rng.sample(cls, min(len(cls), rng.randint(1, ctx.m + 1))))
    for _ in range(6):
        pts = [rng.randrange(nonzero) for _ in range(rng.randint(2, 3 * ctx.m + 4))]
        if rng.random() < 0.5:
            pts.append(ZERO)
        out.append(pts + rng.choices(pts, k=rng.randint(0, 3)))
    out.append(sorted(out[-1] + out[-1][:2], reverse=True) + [ZERO, ZERO])
    return out


@pytest.mark.parametrize("spec", SPECS)
def test_rank_and_independence_match_the_whole_set_rank(spec):
    ctx = _ctx(spec)
    rng = random.Random(spec)
    for pts in _point_sets(ctx, rng):
        r = rank_by_minpoly(ctx, pts)
        assert rank_of(ctx, pts) == r
        assert is_p_independent(ctx, pts) == (r == len(canonical_points(pts)))


# the fields closure_definitional scans whole: order p^N at most 1,024
SMALL_SPECS = [s for s in SPECS if int(s.split(",")[0]) ** int(s.split(",")[1]) <= 1024]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_closure_and_lift_match_the_oracles_in_any_order(spec):
    # the class split keeps each part in the order given: closure and lift
    # answer as on the canonical set, whatever order the points arrive in
    ctx = _ctx(spec)
    rng = random.Random(spec)
    for pts in _point_sets(ctx, rng):
        assert closure(ctx, pts) == closure_definitional(ctx, pts)
        parts = {}
        for b in pts:
            parts.setdefault(class_of(ctx, b), []).append(b)
        if len(parts) > 1 or None in parts:
            names = re.escape(f"span classes {class_labels(ctx, parts)}")
            with pytest.raises(MixedClasses, match=names + "$"):
                lift(ctx, pts)
        for ell, part in parts.items():
            if ell is not None:
                want = [ctx.coords(unwarp_method1(ctx, b, ell)) for b in canonical_points(part)]
                assert lift(ctx, part[::-1]) == want


@pytest.mark.parametrize("spec", SPECS)
def test_times_linear_matches_the_product(spec):
    ctx = _ctx(spec)
    rng = random.Random(spec)
    polys = _polys(ctx, rng) + [SkewPoly(ctx, (ONE, ZERO, ZERO, rng.randrange(ctx.order - 1)))]
    constants = [ZERO, ONE, ctx.minus_one] + [rng.randrange(ctx.order - 1) for _ in range(3)]
    for f in polys:
        for c in constants:
            assert f.times_linear(c) == mul_by_terms(SkewPoly(ctx, (c, ONE)), f)


@pytest.mark.parametrize("spec", SPECS)
def test_add_and_sub_match_the_coefficient_sums(spec):
    # the one sum of two polynomials the program takes is the parser's: the
    # terms of a repeated exponent add, so f's text followed by g's (or by
    # -g's) parses as the coefficient-wise sum (or difference)
    ctx = _ctx(spec)
    rng = random.Random(spec)
    polys = _polys(ctx, rng)
    for f in polys:
        for g in polys:
            assert SkewPoly.parse(ctx, f"{f} + {g}") == add_by_terms(f, g)
            minus_g = g.scale_left(ctx.minus_one)
            assert SkewPoly.parse(ctx, f"{f} + {minus_g}") == sub_by_terms(f, g)


@pytest.mark.parametrize("spec", SPECS)
def test_minimal_poly_and_basis_matches_the_product_loop(spec):
    ctx = _ctx(spec)
    rng = random.Random(spec)
    for pts in _point_sets(ctx, rng) + [[_element(ctx, rng) for _ in range(8)]]:
        want = minimal_poly_by_products(ctx, pts)
        assert minimal_poly_and_basis(ctx, pts) == want
        canon = canonical_points(pts)
        # the greedy walks the order given: a shuffled copy with repeats has
        # the same polynomial, and its basis spans the same flat
        shuffled = pts + rng.choices(pts, k=min(len(pts), 3))
        rng.shuffle(shuffled)
        poly, basis = minimal_poly_and_basis(ctx, canon)
        got_poly, got_basis = minimal_poly_and_basis(ctx, shuffled)
        assert got_poly == poly
        assert closure(ctx, got_basis) == closure(ctx, basis)
        for r in {len(want[1]), rng.randint(1, max(len(want[1]), 1))}:
            got = minimal_poly_and_basis(ctx, canon, rank=r)
            assert got == minimal_poly_by_products(ctx, canon, rank=r)


def test_rank_passes_single_class_parts_only(monkeypatch):
    import skewmatroid.minimal

    ctx = get_field(3, 10, 2, 1)
    rng = random.Random("spy")
    pts = [b for ell in range(ctx.q - 1) for b in rng.sample(class_elements(ctx, ell), 5)]
    assert len(pts) == 40
    want = rank_by_minpoly(ctx, pts)
    seen = []

    def spy(ctx, points, **kw):
        points = list(points)
        seen.append({class_of(ctx, b) for b in points})
        return minimal_poly_and_basis(ctx, points, **kw)

    monkeypatch.setattr(skewmatroid.minimal, "minimal_poly_and_basis", spy)
    assert rank_of(ctx, pts) == want
    assert is_p_independent(ctx, pts) == (want == len(pts))
    assert len(seen) == 2 * (ctx.q - 1)
    assert all(len(classes) == 1 for classes in seen)
