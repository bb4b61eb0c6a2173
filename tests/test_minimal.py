import ast
import functools
import itertools
import random
from pathlib import Path

import pytest

from skewmatroid import (
    FieldCtx,
    MixedClasses,
    ONE,
    SkewPoly,
    ZERO,
    canonical_points,
    class_elements,
    class_of,
    closure,
    get_field,
    is_p_independent,
    lift,
    minimal_poly,
    p_basis,
    rank_of,
    unwarp,
    warp,
)
from skewmatroid.field import mat_rank
from skewmatroid.minimal import minimal_poly_and_basis

from oracles import (
    NotClosed,
    closure_definitional,
    decompose_check,
    linearized_associate,
    minimal_poly_by_products,
    scan_zeros,
)


def _dbracket(ctx, i: int) -> int:
    qs = ctx.q**ctx.s
    return (qs**i - 1) // (qs - 1)


# ------------------------------------------------------------------- goldens


def test_minimal_poly_goldens(f16):
    assert str(minimal_poly(f16, (ONE,))) == "x + 1"
    # (x+1)(x+1): evaluation a^5 + 1 vanishes on the 5th roots of unity
    assert str(minimal_poly(f16, (ONE, 3))) == "x^2 + 1"
    assert minimal_poly(f16, ()).is_zero() is False
    assert minimal_poly(f16, ()) == SkewPoly(f16, (ONE,))
    assert minimal_poly(f16, (ZERO,)) == SkewPoly(f16, (ZERO, ONE))


def test_closure_goldens(f16):
    assert closure(f16, (ONE,)) == (ONE,)
    assert closure(f16, (ONE, 3)) == (0, 3, 6, 9, 12)
    assert closure(f16, ()) == ()
    assert closure(f16, (ZERO,)) == (ZERO,)
    # adding a closure point changes nothing
    assert closure(f16, (ONE, 3, 6)) == (0, 3, 6, 9, 12)


def test_rank_and_independence_goldens(f16):
    assert rank_of(f16, ()) == 0
    assert rank_of(f16, (ZERO,)) == 1
    assert rank_of(f16, (ONE, 3)) == 2
    assert rank_of(f16, (ONE, 3, 6)) == 2
    assert is_p_independent(f16, (ONE, 3))
    assert not is_p_independent(f16, (ONE, 3, 6))
    assert p_basis(f16, (ONE, 3, 6)) == (0, 3)


def test_canonical_points_orders_and_dedupes():
    assert canonical_points((6, ONE, 3, 3, ZERO)) == (ZERO, 0, 3, 6)
    assert canonical_points(()) == ()


# -------------------------------------------------- minimality (brute force)


def _vanishes_on(f, pts) -> bool:
    return all(f.evaluate(a) == ZERO for a in pts)


def _least_vanishing_degree(ctx, pts, upto: int) -> int:
    """Smallest degree of a monic polynomial vanishing on pts (brute force)."""
    els = [ZERO] + list(range(ctx.order - 1))
    for deg in range(upto + 1):
        for lower in itertools.product(els, repeat=deg):
            cand = SkewPoly(ctx, (*lower, ONE))
            if _vanishes_on(cand, pts):
                return deg
    return upto + 1


def test_minimality_oracle_exhaustive_f4(f4):
    els = list(f4.elements())
    for size in range(0, 4):
        for pts in itertools.combinations(els, size):
            f = minimal_poly(f4, pts)
            assert f.lead() == ONE
            assert _vanishes_on(f, pts)
            assert _least_vanishing_degree(f4, pts, f.degree) == f.degree


def test_minimality_oracle_sampled_f16(f16):
    rng = random.Random(16)
    els = list(f16.elements())
    for _ in range(25):
        pts = tuple(rng.sample(els, rng.randint(1, 2)))
        f = minimal_poly(f16, pts)
        assert _vanishes_on(f, pts)
        # no monic polynomial of lower degree vanishes on pts
        assert _least_vanishing_degree(f16, pts, f.degree) == f.degree


def test_right_divisor_property(f16):
    rng = random.Random(7)
    els = list(f16.elements())
    for _ in range(60):
        omega = tuple(rng.sample(els, rng.randint(1, 4)))
        f_omega = minimal_poly(f16, omega)
        for size in range(len(omega) + 1):
            for sub in itertools.combinations(omega, size):
                f_sub = minimal_poly(f16, sub)
                assert f_omega.right_divmod(f_sub)[1].is_zero()


def test_insertion_order_irrelevant(f16):
    rng = random.Random(5)
    els = list(f16.elements())
    for _ in range(40):
        pts = rng.sample(els, rng.randint(2, 5))
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert minimal_poly(f16, pts) == minimal_poly(f16, shuffled)
        assert closure(f16, pts) == closure(f16, shuffled)


# ----------------------------------------- independence via lifted vectors


def test_independence_matches_lift_exhaustive_f16_class0(f16):
    members = class_elements(f16, 0)
    for size in range(len(members) + 1):
        for pts in itertools.combinations(members, size):
            vecs = lift(f16, pts)
            vec_indep = mat_rank(f16, vecs) == len(pts) if pts else True
            assert is_p_independent(f16, pts) == vec_indep
            assert (minimal_poly(f16, pts).degree == len(pts)) == vec_indep


def test_independence_matches_lift_random_f64(f64):
    rng = random.Random(64)
    for ell in range(f64.q - 1):
        members = class_elements(f64, ell)
        for _ in range(200):
            pts = tuple(rng.sample(members, rng.randint(1, 5)))
            vec_indep = mat_rank(f64, lift(f64, pts)) == len(pts)
            assert is_p_independent(f64, pts) == vec_indep


def test_lift_rejects_mixed_classes(f16):
    a = class_elements(f16, 0)[0]
    b = class_elements(f16, 1)[0]
    with pytest.raises(MixedClasses):
        lift(f16, (a, b))
    with pytest.raises(MixedClasses):
        lift(f16, (a, ZERO))
    # classes are named as classof prints them, the class of zero first
    with pytest.raises(MixedClasses, match=r"span classes C\(0\), C\(1\), C\(g1\)$"):
        lift(f16, (b, ZERO, a))


# ------------------------------------------------------ the direct-sum split


def test_closure_and_lift_check_each_class_once(monkeypatch):
    # the split reads each point's class once; closure then unwarps each
    # class part in one pooled pass, and lift checks no class a second time
    import skewmatroid.conjugacy
    import skewmatroid.minimal

    ctx = get_field(3, 4, 2, 1)
    class_calls, pooled = [], []

    def counting_class_of(ctx, a):
        class_calls.append(a)
        return class_of(ctx, a)

    unwarp_all = skewmatroid.conjugacy.unwarp_all

    def counting_unwarp_all(ctx, alphas, ell):
        pooled.append(ell)
        return unwarp_all(ctx, alphas, ell)

    monkeypatch.setattr(skewmatroid.minimal, "class_of", counting_class_of)
    # both bindings: closure's pooled call, and the one unwarp makes per point
    monkeypatch.setattr(skewmatroid.minimal, "unwarp_all", counting_unwarp_all, raising=False)
    monkeypatch.setattr(skewmatroid.conjugacy, "unwarp_all", counting_unwarp_all)
    c0, c1 = class_elements(ctx, 0), class_elements(ctx, 1)
    pts = (c1[7], ZERO, c0[3], c1[2], c0[3], ZERO, c1[7], c0[9], c1[0])
    assert closure(ctx, pts) == closure_definitional(ctx, pts)
    assert len(class_calls) == len(pts)
    assert sorted(pooled) == [0, 1]
    part = (c1[7], c1[2], c1[7], c1[0])
    class_calls.clear()
    assert lift(ctx, part) == [ctx.coords(unwarp(ctx, b, 1)) for b in sorted(set(part))]
    assert len(class_calls) == len(set(part))


def _minimal_readers(name):
    """The scope, as a dotted name, of each load of name in minimal."""
    import skewmatroid.minimal

    def readers(node, scope=()):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from readers(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id == name:
                    yield ".".join(scope)
            yield from readers(child, scope)

    tree = ast.parse(Path(skewmatroid.minimal.__file__).read_text(encoding="utf-8"))
    return set(readers(tree))


def test_only_the_split_reads_class_of():
    # minimal reads a point's class in one place, the direct-sum split
    assert _minimal_readers("class_of") == {"_class_parts"}


def test_only_p_basis_closure_and_lift_sort():
    # the greedy core walks its points as given; canonical order is taken
    # only for the canonical basis and for the orders closure and lift promise
    assert _minimal_readers("canonical_points") == {"p_basis", "closure", "lift"}


# ------------------------------------------------------------------ closures


@pytest.mark.parametrize("fixture", ["f16", "f9", "f64", "f32s2", "f27s2", "f16m1"])
def test_closure_matches_definitional(fixture, request):
    ctx = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    for ell in range(ctx.q - 1):
        members = class_elements(ctx, ell)
        for _ in range(30):
            pts = tuple(rng.sample(members, rng.randint(1, min(4, len(members)))))
            cl, mp = closure(ctx, pts), minimal_poly(ctx, pts)
            assert cl == mp.zeros()
            assert cl == scan_zeros(mp)
    # sets drawn from all units mix classes; each is checked with and without zero
    units = list(ctx.nonzero_elements())
    for _ in range(30):
        drawn = tuple(rng.sample(units, rng.randint(2, 5)))
        for pts in (drawn, drawn + (ZERO,)):
            cl, mp = closure(ctx, pts), minimal_poly(ctx, pts)
            assert cl == mp.zeros()
            assert cl == scan_zeros(mp)
            assert cl == closure_definitional(ctx, pts)


def test_closure_size_is_bracket_of_rank(f16, f9):
    rng = random.Random(11)
    for ctx in (f16, f9):
        for ell in range(ctx.q - 1):
            members = class_elements(ctx, ell)
            for _ in range(25):
                pts = tuple(rng.sample(members, rng.randint(1, 3)))
                cl = closure(ctx, pts)
                assert len(cl) == _dbracket(ctx, rank_of(ctx, pts))
                assert set(pts) <= set(cl)
                # closure is idempotent
                assert closure(ctx, cl) == cl


def _vector_span_closure(ctx, pts):
    """Closure by the vector span, the independent route: zero if the set
    holds it, and g^l * warp(sum c_i u_i) over every nonzero coefficient
    vector c, u_i the unwarped points of class l."""
    out = {ZERO} & set(pts)
    for ell in {class_of(ctx, b) for b in pts} - {None}:
        us = [unwarp(ctx, b, ell) for b in set(pts) if class_of(ctx, b) == ell]
        for cs in itertools.product(ctx.subfield_elements, repeat=len(us)):
            a = functools.reduce(ctx.add, map(ctx.mul, cs, us), ZERO)
            if a != ZERO:
                out.add(ctx.mul(ell, warp(ctx, a)))
    return canonical_points(out)


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,4,2,1", "2,6,2,2", "2,5,1,2", "5,2,1,1", "2,4,4,1"])
def test_closure_is_warp_image_of_vector_span(spec):
    ctx = get_field(*map(int, spec.split(",")))
    rng = random.Random(spec)
    assert closure(ctx, ()) == _vector_span_closure(ctx, ()) == ()
    for _ in range(12):
        ell = rng.randrange(ctx.q - 1)
        members = class_elements(ctx, ell)
        pts = tuple(rng.sample(members, rng.randint(1, min(3, len(members)))))
        # a point of the span: g^l * warp of a combination of two lifts
        u, v = (unwarp(ctx, b, ell) for b in rng.choices(pts, k=2))
        c = rng.choice(ctx.subfield_elements[1:])
        spanned = ctx.add(u, ctx.mul(c, v))
        dependent = () if spanned == ZERO else (ctx.mul(ell, warp(ctx, spanned)),)
        other = (ell + 1) % (ctx.q - 1)
        mixed = pts + tuple(rng.sample(class_elements(ctx, other), 2 if ctx.m > 1 else 1))
        base = closure(ctx, pts)
        assert base == _vector_span_closure(ctx, pts)
        # a repeated or spanned point adds nothing
        assert closure(ctx, pts + pts[:1] + dependent) == base
        for extra in (pts + (ZERO,), (ZERO,) + pts + pts, mixed, mixed + (ZERO,)):
            assert closure(ctx, extra) == _vector_span_closure(ctx, extra)


@pytest.mark.parametrize("spec", ["2,16,4,1", "3,4,2,1"])
def test_closure_warps_once_per_line(spec, monkeypatch):
    # warp is constant on a line of the span, so closure warps one element
    # per point it returns: (q^r - 1)/(q - 1) of them, not q^r - 1
    import skewmatroid.minimal

    ctx = get_field(*map(int, spec.split(",")))
    calls = []

    def counting_warp(ctx, a):
        calls.append(a)
        return warp(ctx, a)

    monkeypatch.setattr(skewmatroid.minimal, "warp", counting_warp)
    q, ell = ctx.q, ctx.q - 2
    for r in range(1, min(3, ctx.m) + 1):
        # 1, g, ..., g^(r-1) are F_q-independent, so their images are P-independent
        pts = tuple(ctx.mul(ell, warp(ctx, i)) for i in range(r))
        calls.clear()
        cl = closure(ctx, pts)
        assert len(calls) == len(cl) == (q**r - 1) // (q - 1)


def test_closure_first_line_of_a_class_costs_no_multiples(monkeypatch):
    # on m = 1 each class is one point, so every point opens its class's
    # span: closure of k points from k classes multiplies once per point,
    # placing it in its class, not q - 1 times more for an empty span
    ctx = get_field(2, 16, 16, 1)
    calls = []
    mul = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul", lambda self, a, b: calls.append(a) or mul(self, a, b))
    for k in (1, 10, 100):
        pts = tuple(random.Random(k).sample(range(ctx.order - 1), k))
        calls.clear()
        assert closure(ctx, pts) == canonical_points(pts)
        assert len(calls) <= k


def test_warp_root_correspondence_class0(f16):
    # for a class-0 set, the linearized associate's nonzero roots warp
    # exactly onto the closure
    rng = random.Random(2)
    members = class_elements(f16, 0)
    for _ in range(20):
        pts = tuple(rng.sample(members, rng.randint(1, 3)))
        lin = linearized_associate(minimal_poly(f16, pts))
        warped = {warp(f16, r) for r in scan_zeros(lin) if r != ZERO}
        assert canonical_points(warped) == closure(f16, pts)


def test_disjoint_class_union(f16, f9):
    # ranks add across different conjugacy classes
    rng = random.Random(13)
    for ctx in (f16, f9):
        for _ in range(30):
            la, lb = rng.sample(range(ctx.q - 1), 2)
            pa = tuple(rng.sample(class_elements(ctx, la), rng.randint(1, 2)))
            pb = tuple(rng.sample(class_elements(ctx, lb), rng.randint(1, 2)))
            assert rank_of(ctx, pa + pb) == rank_of(ctx, pa) + rank_of(ctx, pb)
            cu = set(closure(ctx, pa + pb))
            assert cu == set(closure(ctx, pa)) | set(closure(ctx, pb))


# ------------------------------------------------------------- decomposition


def test_decompose_check_golden(f16):
    x = closure(f16, (ONE, 3))
    y = closure(f16, (ONE, 6))
    lc, gc = decompose_check(f16, x, y)
    assert lc == minimal_poly(f16, set(x) | set(y))
    assert gc == minimal_poly(f16, set(x) & set(y))
    # same closure: llcm == grcd == the common minimal polynomial
    lc2, gc2 = decompose_check(f16, x, x)
    assert lc2 == gc2 == minimal_poly(f16, x)


def test_decompose_check_all_class0_flat_pairs(f16):
    members = class_elements(f16, 0)
    closed = {closure(f16, pts) for r in range(3) for pts in itertools.combinations(members, r)}
    closed.add(closure(f16, members))
    for x, y in itertools.product(sorted(closed), repeat=2):
        decompose_check(f16, x, y)


def test_decompose_check_rejects_open_sets(f16):
    with pytest.raises(NotClosed):
        decompose_check(f16, (ONE, 3), (ONE,))  # {1, g3} is not closed
    with pytest.raises(NotClosed):
        decompose_check(f16, (ONE,), (ONE, 3))


# --------------------------------------------------------------------- basis


def test_p_basis_greedy_and_spanning(f16, f64):
    rng = random.Random(17)
    for ctx in (f16, f64):
        els = list(ctx.elements())
        for _ in range(40):
            pts = tuple(rng.sample(els, rng.randint(1, 6)))
            basis = p_basis(ctx, pts)
            assert is_p_independent(ctx, basis)
            assert len(basis) == rank_of(ctx, pts)
            assert closure(ctx, basis) == closure(ctx, pts)
            # greedy: basis is the canonical-order prefix scan
            canon = canonical_points(pts)
            picked = []
            for a in canon:
                if rank_of(ctx, picked + [a]) > len(picked):
                    picked.append(a)
            assert basis == tuple(picked)


def test_p_basis_stopped_at_the_rank(f16, f64):
    # with rank, the greedy walks a canonical stream as given and reads no
    # point past its last pick; over a flat it picks the unstopped basis
    rng = random.Random(18)
    for ctx in (f16, f64):
        els = list(ctx.elements())
        for _ in range(40):
            flat = closure(ctx, rng.sample(els, rng.randint(1, 3)))
            stream = iter(flat)
            basis = p_basis(ctx, stream, rank=rank_of(ctx, flat))
            assert basis == p_basis(ctx, flat)
            assert tuple(stream) == flat[flat.index(basis[-1]) + 1 :]


def test_rank_zero_reads_no_point(f16):
    # a greedy stopped at rank 0 holds no point, so it reads none: the
    # polynomial is 1 and the stream is left whole
    for route in (minimal_poly_and_basis, minimal_poly_by_products):
        stream = iter((0, 3, 1))
        assert route(f16, stream, rank=0) == (SkewPoly(f16, (ONE,)), ())
        assert tuple(stream) == (0, 3, 1)
    stream = iter((0, 3, 1))
    assert p_basis(f16, stream, rank=0) == ()
    assert next(stream) == 0
