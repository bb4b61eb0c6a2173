import functools
import itertools
import random

import pytest

from skewmatroid import (
    Flat,
    InapplicableField,
    NotC1Flat,
    ONE,
    Subspace,
    TooLargeToEnumerate,
    ZERO,
    all_subspaces,
    canonical_points,
    class_elements,
    class_flat,
    closure,
    dist,
    flats,
    get_field,
    is_p_independent,
    matroid_closure,
    phi,
    phi_inverse,
    rank_of,
    representation,
    subspace_dist,
    subspace_sum,
    verify_isometry,
)
from skewmatroid import matroid
from skewmatroid.field import mat_rank
from skewmatroid.matroid import subspace_count

from oracles import closure_definitional, columns_independent, dist_by_classes, dist_definitional
from test_log_loops import SPECS, _ctx


# ------------------------------------------------------- generic axiom checks


def _check_independence_axioms(ground, indep):
    """(I1)-(I3) over every subset of the ground set."""
    subsets = [frozenset(c) for r in range(len(ground) + 1)
               for c in itertools.combinations(ground, r)]
    ind = {s for s in subsets if indep(s)}
    assert frozenset() in ind, "(I1) empty set must be independent"
    for s in ind:
        for a in s:
            assert s - {a} in ind, "(I2) hereditary property failed"
    for a, b in itertools.product(ind, repeat=2):
        if len(a) < len(b):
            assert any(a | {x} in ind for x in b - a), "(I3) exchange failed"
    return ind


def _check_rank_axioms(ground, rank_fn):
    """(R1)-(R3) over every subset pair of the ground set."""
    subsets = [frozenset(c) for r in range(len(ground) + 1)
               for c in itertools.combinations(ground, r)]
    rk = {s: rank_fn(s) for s in subsets}
    for s, r in rk.items():
        assert 0 <= r <= len(s), "(R1) range failed"
    for x, y in itertools.product(subsets, repeat=2):
        if x <= y:
            assert rk[x] <= rk[y], "(R2) monotonicity failed"
        assert rk[x | y] + rk[x & y] <= rk[x] + rk[y], "(R3) submodularity failed"


def test_checkers_reject_non_matroids():
    # rank that skips a value violates the unit-increase consequence of
    # (R1)-(R3); the graph {a,b} with "independent iff size != 1" breaks (I2)
    with pytest.raises(AssertionError):
        _check_independence_axioms((0, 1), lambda s: len(s) != 1)
    with pytest.raises(AssertionError):
        _check_rank_axioms((0, 1, 2), lambda s: 2 * len(s))
    with pytest.raises(AssertionError):
        _check_rank_axioms((0, 1, 2), lambda s: -len(s))


def test_uniform_matroid_sanity():
    for n, m in ((4, 2), (5, 3), (3, 3)):
        ground = tuple(range(n))
        _check_independence_axioms(ground, lambda s: len(s) <= m)
        _check_rank_axioms(ground, lambda s: min(len(s), m))


def test_axioms_exhaustive_f4(f4):
    ground = tuple(f4.elements())
    assert len(ground) == 4
    _check_independence_axioms(ground, lambda s: is_p_independent(f4, s))
    _check_rank_axioms(ground, lambda s: rank_of(f4, s))


def test_axioms_exhaustive_f16_class0(f16):
    ground = class_elements(f16, 0)
    assert len(ground) == 5
    _check_independence_axioms(ground, lambda s: is_p_independent(f16, s))
    _check_rank_axioms(ground, lambda s: rank_of(f16, s))


# -------------------------------------------------------------------- flats


def test_flats_f4_match_definitional_fixed_points(f4):
    ground = list(f4.elements())
    fixed = set()
    for r in range(len(ground) + 1):
        for pts in itertools.combinations(ground, r):
            cl = closure_definitional(f4, pts)
            if cl == pts:
                fixed.add(pts)
    enumerated = {f.points for f in flats(f4)}
    assert enumerated == fixed
    assert len(enumerated) == 10


def test_flat_counts(f4, f8, f16):
    assert len(list(flats(f16, class_index=0))) == 7
    assert len(list(flats(f16))) == 7**3 * 2 == 686
    assert len(list(flats(f8, class_index=0))) == 16
    assert len(list(flats(f4))) == 10


def test_flats_max_rank_filter(f16):
    only_small = list(flats(f16, class_index=0, max_rank=1))
    assert sorted(f.rank for f in only_small) == [0, 1, 1, 1, 1, 1]
    whole_small = list(flats(f16, max_rank=1))
    assert all(f.rank <= 1 for f in whole_small)
    # empty, zero, and one rank-1 flat per class and point-line choice
    assert {f.rank for f in whole_small} == {0, 1}


def test_flats_guard_large_field():
    big = get_field(2, 13, 1, 1)
    with pytest.raises(TooLargeToEnumerate):
        list(flats(big))
    with pytest.raises(TooLargeToEnumerate):
        verify_isometry(big)


def test_flat_equality_and_str(f16):
    x = matroid_closure(f16, (ONE, 3))
    y = matroid_closure(f16, (3, 9))
    assert str(x) == "{1, g3, g6, g9, g12}"
    assert x == y and hash(x) == hash(y)
    assert x.basis != y.basis  # compared by the minimal polynomial alone
    z = Flat(f16, x.minpoly, (6, 12))
    assert z == x and hash(z) == hash(x)
    # never equal to another type, whatever it holds
    assert x != phi_inverse(f16, x) and x != x.basis and x != x.points
    assert x != matroid_closure(f16, (ONE,))
    assert x.rank == 2 and x.minpoly.degree == 2
    empty = matroid_closure(f16, ())
    assert empty.points == () and empty.rank == 0
    zero = matroid_closure(f16, (ZERO,))
    assert zero.points == (ZERO,) and zero.rank == 1


def _check_identity_is_point_set(found):
    for x, y in itertools.product(found, repeat=2):
        assert (x == y) == (x.points == y.points)
        assert x != y or hash(x) == hash(y)


def test_flat_identity_is_its_point_set(f4, f8, f16):
    # equality and hash read the minimal polynomial; the enumerated points
    # are the independent identity they must agree with
    _check_identity_is_point_set(list(flats(f4)))
    for ctx in (f8, f16):
        per_class = [f for ell in range(ctx.q - 1) for f in flats(ctx, ell)]
        _check_identity_is_point_set(per_class)


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,3,1,1"])
def test_whole_matroid_flats_are_closed_direct_sums(spec):
    # flats(ctx) spans each combination from its parts' bases; its points
    # must be the union of the parts' points (plus zero), closure-fixed by
    # the rank-based scan, and its basis a P-basis of the flat
    ctx = get_field(*map(int, spec.split(",")))
    per_class = [list(flats(ctx, ell)) for ell in range(ctx.q - 1)]
    unions = [
        canonical_points(zero_part + tuple(a for f in combo for a in f.points))
        for zero_part in ((), (ZERO,))
        for combo in itertools.product(*per_class)
    ]
    whole = list(flats(ctx))
    assert len(whole) == len(unions)
    for flat, points in zip(whole, unions):
        assert flat.points == points
        assert flat.points == closure_definitional(ctx, flat.points)
        assert len(flat.basis) == rank_of(ctx, flat.basis) == flat.rank
        assert closure(ctx, flat.basis) == flat.points


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,3,1,1"])
def test_whole_matroid_flats_read_no_class_flat_points(spec, monkeypatch):
    # each combination is spanned by its parts' own bases, so no class
    # flat's points are enumerated: Flat.points is the one reader of closure
    ctx = get_field(*map(int, spec.split(",")))
    calls = []

    def counted(ctx, points):
        calls.append(points)
        return closure(ctx, points)

    monkeypatch.setattr(matroid, "closure", counted)
    assert list(flats(ctx))
    assert calls == []


def test_class_flats_are_definitional_fixed_points(f8, f16):
    # flats(ctx, 0) is onto the closure-fixed subsets of the class of 1,
    # found by the rank-based scan rather than through class_flat or closure
    for ctx in (f8, f16):
        c1 = class_elements(ctx, 0)
        fixed = {
            pts
            for r in range(len(c1) + 1)
            for pts in itertools.combinations(c1, r)
            if closure_definitional(ctx, pts) == pts
        }
        assert {f.points for f in flats(ctx, 0)} == fixed


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,3,1,1", "2,6,2,1"])
def test_class_flat_reduces_its_class_index(spec):
    # class_flat takes its index mod q - 1, as class_elements and unwarp do;
    # ell - (q - 1) is negative, and -1 must not read as the zero sentinel
    ctx = get_field(*map(int, spec.split(",")))
    for v in all_subspaces(ctx):
        if v.dim == 0:
            continue
        for ell in range(ctx.q - 1):
            flat = class_flat(ctx, v, ell)
            assert flat.points == class_flat(ctx, v, ell + (ctx.q - 1)).points
            assert flat.points == class_flat(ctx, v, ell - (ctx.q - 1)).points


# ---------------------------------------------------------------- subspaces


def _gaussian_total(q, m):
    """Total number of subspaces of F_q^m (sum of Gaussian binomials)."""
    def gauss(m, k):
        num = den = 1
        for i in range(k):
            num *= q ** (m - i) - 1
            den *= q ** (i + 1) - 1
        return num // den
    return sum(gauss(m, k) for k in range(m + 1))


def test_subspace_counts(f4, f8, f16):
    assert len(list(all_subspaces(f4))) == _gaussian_total(2, 2) == 5
    assert len(list(all_subspaces(f8))) == _gaussian_total(2, 3) == 16
    assert len(list(all_subspaces(f16))) == _gaussian_total(4, 2) == 7
    # by dimension: 7 lines and 7 planes in F_2^3
    assert [v.dim for v in all_subspaces(f8)] == [0] + [1] * 7 + [2] * 7 + [3]


def test_subspace_count_is_closed_form():
    # the guards size enumerations from the Gaussian binomials, never by
    # enumerating, so the count also exists where enumeration is refused
    for spec in ("2,2,1,1", "2,3,1,1", "2,4,2,1", "3,2,1,1", "5,2,2,1", "2,5,1,2"):
        ctx = get_field(*[int(t) for t in spec.split(",")])
        assert subspace_count(ctx) == len(list(all_subspaces(ctx))) == _gaussian_total(ctx.q, ctx.m)
    assert subspace_count(get_field(2, 12, 1, 1)) == _gaussian_total(2, 12)


def test_subspace_canonical_and_roundtrip(f16):
    rng = random.Random(1)
    for _ in range(40):
        els = rng.sample(range(f16.order - 1), rng.randint(1, 3))
        v = Subspace.from_elements(f16, els)
        # canonical: rebuilding from any spanning set gives identical rows
        rows = [f16.uncoords(r) for r in v.rows]
        members = {
            functools.reduce(f16.add, map(f16.mul, cs, rows), ZERO)
            for cs in itertools.product(f16.subfield_elements, repeat=v.dim)
        } - {ZERO}
        w = Subspace.from_elements(f16, members)
        assert v == w and hash(v) == hash(w)
        assert v != v.rows
    zero = Subspace.from_vectors(f16, [])
    assert zero.dim == 0 and zero.rows == ()


def test_subspace_sum_and_dist(f8):
    subs = list(all_subspaces(f8))
    for v, w in itertools.product(subs, repeat=2):
        s = subspace_sum(v, w)
        assert s.dim >= max(v.dim, w.dim)
        assert subspace_dist(v, w) == subspace_dist(w, v)
        assert subspace_dist(v, w) >= 0
        assert (subspace_dist(v, w) == 0) == (v == w)
    for u, v, w in itertools.product(subs, repeat=3):
        assert subspace_dist(u, w) <= subspace_dist(u, v) + subspace_dist(v, w)


def test_equal_row_spaces_are_at_distance_zero_without_a_reduction(f16, monkeypatch):
    reductions = []
    rref = matroid.rref
    monkeypatch.setattr(matroid, "rref", lambda *a: reductions.append(a) or rref(*a))
    rng = random.Random(3)
    for _ in range(20):
        els = rng.sample(range(f16.order - 1), rng.randint(1, 2))
        v = Subspace.from_elements(f16, els)
        w = Subspace.from_elements(f16, els[::-1])  # equal, built apart
        assert subspace_dist(v, v) == subspace_dist(v, w) == 0
    other = Subspace.from_elements(f16, [ONE])
    assert other != v
    assert subspace_dist(v, other) > 0
    assert reductions  # unequal spaces are still reduced


# ------------------------------------------------------------ representation


def test_representation_golden_f16(f16):
    rep = representation(f16)
    g5, g10 = 5, 10
    assert rep.a_rows == (
        (ONE, ZERO, g5, g5, ONE),
        (ZERO, ONE, ONE, g10, ONE),
    )
    assert (len(rep.a_rows), len(rep.a_rows[0])) == (2, 5)
    assert rep.script_shape == (7, 16)
    assert mat_rank(f16, [list(r) for r in rep.script_rows]) == 7
    assert rep.column_labels[:5] == class_elements(f16, 0)
    assert rep.column_labels[-1] == ZERO
    assert len(set(rep.column_labels)) == 16
    assert repr(rep) == (
        f"RepMatrix(ctx={f16!r}, a_rows={rep.a_rows!r}, "
        f"script_rows={rep.script_rows!r}, column_labels={rep.column_labels!r})"
    )


def test_representation_requires_untwisted_ring(f32s2, f27s2):
    for ctx in (f32s2, f27s2):
        with pytest.raises(InapplicableField):
            representation(ctx)


@pytest.mark.parametrize("spec", ["2,4,2,3", "3,4,2,3", "2,3,3,2", "2,6,2,4", "2,2,1,3"])
def test_representation_reads_sigma_not_s(spec):
    # s = 1 mod m, or m = 1, is the s = 1 automorphism: the same matrices
    p, n, k, s = (int(t) for t in spec.split(","))
    rep = representation(get_field(p, n, k, s))
    base = representation(get_field(p, n, k, 1))
    assert rep.a_rows == base.a_rows
    assert rep.script_rows == base.script_rows
    assert rep.column_labels == base.column_labels


def test_columns_independent_matches_p_independence(f16, f8):
    for ctx in (f16, f8):
        rep = representation(ctx)
        ground = list(ctx.elements())
        rng = random.Random(ctx.order)
        seen_dependent = 0
        for _ in range(300):
            pts = tuple(rng.sample(ground, rng.randint(1, 4)))
            want = is_p_independent(ctx, pts)
            assert columns_independent(rep, pts) == want
            seen_dependent += not want
        assert seen_dependent  # the sample exercised both verdicts


# ------------------------------------------------------------------- metric


def test_dist_matches_definitional_and_axioms(f4, f16):
    pairs = [
        (f4, list(flats(f4))),
        (f16, list(flats(f16, class_index=0))),
    ]
    for ctx, all_flats in pairs:
        for x, y in itertools.product(all_flats, repeat=2):
            d = dist(x, y)
            assert d == dist_definitional(ctx, x, y)
            assert d == dist(y, x) >= 0
            assert (d == 0) == (x == y)
        for x, y, z in itertools.product(all_flats, repeat=3):
            assert dist(x, z) <= dist(x, y) + dist(y, z)


def _mixed_flat(ctx, rng):
    """The closure of up to m + 1 points from each of a few random classes,
    and of zero half the time."""
    classes = rng.sample(range(ctx.q - 1), rng.randint(1, min(ctx.q - 1, 3)))
    pts = [rng.choice(class_elements(ctx, ell)) for ell in classes for _ in range(rng.randint(1, ctx.m + 1))]
    return matroid_closure(ctx, pts + [ZERO] * rng.randint(0, 1))


@pytest.mark.parametrize("spec", SPECS)
def test_dist_is_the_sum_over_classes(spec):
    # the matroid is the direct sum of its classes and the zero point, so the
    # distance adds the class parts' subspace distances and the zero part's;
    # half the pairs share points, so some class parts meet
    ctx = _ctx(spec)
    rng = random.Random(spec)
    for _ in range(12):
        x = _mixed_flat(ctx, rng)
        y = _mixed_flat(ctx, rng)
        if rng.random() < 0.5:
            y = matroid_closure(ctx, rng.sample(x.basis, rng.randint(0, x.rank)) + list(y.basis))
        assert dist(x, y) == dist_by_classes(ctx, x, y)
        assert dist(x, x) == dist_by_classes(ctx, x, x) == 0


# ----------------------------------------------------------------- isometry


def test_phi_round_trips(f8, f16):
    for ctx in (f8, f16):
        for v in all_subspaces(ctx):
            x = phi(ctx, v)
            assert x.rank == v.dim
            assert phi_inverse(ctx, x) == v
    # zero subspace maps to the empty flat, not to {0}
    zero = Subspace.from_vectors(f16, [])
    assert phi(f16, zero).points == ()


def test_phi_inverse_rejects_other_classes(f16):
    wrong = matroid_closure(f16, (class_elements(f16, 1)[0],))
    with pytest.raises(NotC1Flat):
        phi_inverse(f16, wrong)
    with_zero = matroid_closure(f16, (ZERO,))
    with pytest.raises(NotC1Flat):
        phi_inverse(f16, with_zero)


def test_verify_isometry(f4, f8, f16):
    for ctx, count in ((f4, 5), (f8, 16), (f16, 7)):
        report = verify_isometry(ctx)
        assert report["ok"] and report["bijective"] and report["isometric"]
        assert report["subspaces"] == report["flats"] == count


# ----------------------------------------------------------- rank shortcuts


def test_rank_agrees_with_minimal_poly_degree(f16):
    rng = random.Random(23)
    ground = list(f16.elements())
    for _ in range(50):
        pts = tuple(rng.sample(ground, rng.randint(0, 6)))
        x = matroid_closure(f16, pts)
        assert x.rank == rank_of(f16, pts) == x.minpoly.degree
        # closure never raises rank
        assert rank_of(f16, x.points) == x.rank
