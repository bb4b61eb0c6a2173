"""Rank summed class by class, and the minimal polynomial grown one linear
factor at a time, against the whole-set routes in tests/oracles.py.

rank_of adds, per conjugacy class, the degree of that class part's minimal
polynomial; rank_by_minpoly takes the degree of the whole set's.
SkewPoly.times_linear forms (x + c) * f in one pass on logs, which
minimal_poly_by_products forms as a full product.
"""

import random

import pytest

from oracles import minimal_poly_by_products, mul_by_terms, rank_by_minpoly
from skewmatroid import (
    ONE,
    ZERO,
    SkewPoly,
    canonical_points,
    class_elements,
    class_of,
    get_field,
    is_p_independent,
    rank_of,
)
from skewmatroid.minimal import minimal_poly_and_basis
from test_log_loops import SPECS, _ctx, _element, _polys


def _point_sets(ctx, rng):
    """Single-class and many-class sets, some holding zero, some with
    duplicates."""
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
    return out


@pytest.mark.parametrize("spec", SPECS)
def test_rank_and_independence_match_the_whole_set_rank(spec):
    ctx = _ctx(spec)
    rng = random.Random(spec)
    for pts in _point_sets(ctx, rng):
        r = rank_by_minpoly(ctx, pts)
        assert rank_of(ctx, pts) == r
        assert is_p_independent(ctx, pts) == (r == len(canonical_points(pts)))


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
    ctx = _ctx(spec)
    rng = random.Random(spec)
    polys = _polys(ctx, rng)
    for f in polys:
        for g in polys:
            width = range(max(len(f.coeffs), len(g.coeffs)))
            assert f + g == SkewPoly(ctx, [ctx.add(f.coeff(i), g.coeff(i)) for i in width])
            assert f - g == SkewPoly(ctx, [ctx.sub(f.coeff(i), g.coeff(i)) for i in width])
        assert (f - f).is_zero()


@pytest.mark.parametrize("spec", SPECS)
def test_minimal_poly_and_basis_matches_the_product_loop(spec):
    ctx = _ctx(spec)
    rng = random.Random(spec)
    for pts in _point_sets(ctx, rng) + [[_element(ctx, rng) for _ in range(8)]]:
        want = minimal_poly_by_products(ctx, pts)
        assert minimal_poly_and_basis(ctx, pts) == want
        canon = canonical_points(pts)
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
