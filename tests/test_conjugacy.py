import ast
import math
import pathlib
import random

import pytest

import skewmatroid

from skewmatroid import (
    InapplicableField,
    ONE,
    SkewPoly,
    WrongClass,
    ZERO,
    ZeroArgument,
    ZeroConjugator,
    class_elements,
    class_invariance_holds,
    class_label,
    class_of,
    closure,
    conjugate,
    eval_product,
    get_field,
    unwarp,
    unwarp_method2,
    warp,
)
from skewmatroid.conjugacy import unwarp_all
from skewmatroid.field import kernel

from oracles import kernel_line, sub, unwarp_method1
from test_log_loops import SPECS, _ctx


# ---------------------------------------------------------------- partition


@pytest.mark.parametrize("fixture", ["f16", "f9", "f64", "f32s2"])
def test_classes_partition_nonzero(fixture, request):
    ctx = request.getfixturevalue(fixture)
    seen = []
    for ell in range(ctx.q - 1):
        members = class_elements(ctx, ell)
        assert len(members) == ctx.class_size
        for a in members:
            assert class_of(ctx, a) == ell
            # the definition: a^(class size) = g^(l * class size)
            assert ctx.pow(a, ctx.class_size) == ctx.pow(ell, ctx.class_size)
        seen.extend(members)
    assert sorted(seen) == sorted(ctx.nonzero_elements())
    assert class_of(ctx, ZERO) is None


def test_warp_fiber_is_scalar_line(f16, f9):
    for ctx in (f16, f9):
        scalars = set(ctx.subfield_elements) - {ZERO}
        for a in ctx.nonzero_elements():
            wa = warp(ctx, a)
            fiber = {b for b in ctx.nonzero_elements() if warp(ctx, b) == wa}
            assert fiber == {ctx.mul(a, c) for c in scalars}
            assert len(fiber) == ctx.q - 1


def test_warp_zero_rejected(f16):
    with pytest.raises(ZeroArgument):
        warp(f16, ZERO)


# --------------------------------------------------------------- conjugates


def test_conjugate_basics(f16):
    for a in f16.elements():
        assert conjugate(f16, a, ONE) == a
    assert conjugate(f16, ZERO, 3) == ZERO
    with pytest.raises(ZeroConjugator):
        conjugate(f16, ONE, ZERO)


def test_conjugate_orbit_is_class(f16, f9):
    for ctx in (f16, f9):
        for a in ctx.nonzero_elements():
            orbit = {conjugate(ctx, a, c) for c in ctx.nonzero_elements()}
            assert orbit == set(class_elements(ctx, class_of(ctx, a)))


@pytest.mark.parametrize("fixture", ["f32s2", "f27s2"])
def test_class_invariance_under_twist(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for a in ctx.elements():
        assert class_invariance_holds(ctx, a)


# ------------------------------------------------------------------- unwarp


def _gamma_pow(ctx, ell: int):
    """gamma^ell as a field element (its discrete log is just ell)."""
    return ell % (ctx.order - 1)


@pytest.mark.parametrize("fixture", ["f16", "f9", "f32s2", "f27s2"])
def test_unwarp_method1_validity(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for ell in range(ctx.q - 1):
        for alpha in class_elements(ctx, ell):
            res = unwarp_method1(ctx, alpha, ell)
            assert ctx.mul(_gamma_pow(ctx, ell), warp(ctx, res)) == alpha


def test_unwarp_methods_agree_up_to_scalar(f16):
    scalars = set(f16.subfield_elements) - {ZERO}
    for ell in range(f16.q - 1):
        for alpha in class_elements(f16, ell):
            r1 = unwarp_method1(f16, alpha, ell)
            r2 = unwarp_method2(f16, alpha, ell)
            ratio = f16.div(r1, r2)
            assert ratio in scalars
            assert f16.mul(_gamma_pow(f16, ell), warp(f16, r2)) == alpha


def test_unwarp_method2_inapplicable_on_f9(f9):
    # gcd(q^s - 1, class size) = gcd(2, 4) != 1, so no exponent inverse exists
    assert math.gcd(f9.q**f9.s - 1, f9.class_size) != 1
    with pytest.raises(InapplicableField):
        unwarp_method2(f9, ONE, 0)


def test_unwarp_wrong_class(f16):
    alpha = class_elements(f16, 1)[0]
    with pytest.raises(WrongClass):
        unwarp(f16, alpha, 0)
    with pytest.raises(WrongClass):
        unwarp_method2(f16, alpha, 0)
    # zero sits in no nonzero class, so it is always the wrong class
    with pytest.raises(WrongClass):
        unwarp(f16, ZERO, 0)


def _least_log_on_kernel_line(ctx, alpha, ell):
    # the definitional representative: the minimum over the F_q* multiples
    # of the kernel line that method 1 solves for
    (a0,) = kernel_line(ctx, alpha, ell)
    return min(ctx.mul(c, a0) for c in ctx.subfield_elements[1:])


def test_unwarp_closed_form_matches_method1(f16, f9, f27s2, f32s2):
    for ctx in (f16, f9, f27s2, f32s2):
        for ell in range(ctx.q - 1):
            for alpha in class_elements(ctx, ell):
                want = _least_log_on_kernel_line(ctx, alpha, ell)
                assert unwarp(ctx, alpha, ell) == unwarp_method1(ctx, alpha, ell) == want
    # m = 1: each class is one point and F_q* is the whole unit group
    ctx = get_field(2, 16, 16, 1)
    for alpha in random.Random(1616).sample(range(ctx.order - 1), 8):
        ell = class_of(ctx, alpha)
        want = _least_log_on_kernel_line(ctx, alpha, ell)
        assert unwarp(ctx, alpha, ell) == unwarp_method1(ctx, alpha, ell) == want


@pytest.mark.parametrize("spec", SPECS)
def test_unwarp_factor_matches_method1_on_every_spec(spec):
    # the context's unwarp factor against the kernel route, on m = 1 (class
    # size 1, factor 0), N = 1, odd p and s != 1; a sample above order 1024
    ctx = _ctx(spec)
    s_bracket = (ctx.twist - 1) // (ctx.q - 1)
    assert ctx.unwarp_factor * s_bracket % ctx.class_size == 1 % ctx.class_size
    alphas = list(ctx.nonzero_elements())
    if ctx.order > 1024:
        alphas = random.Random(spec).sample(alphas, 256)
    for alpha in alphas:
        ell = class_of(ctx, alpha)
        assert unwarp(ctx, alpha, ell) == unwarp_method1(ctx, alpha, ell)
    # the pooled pass is unwarp element by element, and refuses what it refuses
    ell = class_of(ctx, alphas[-1])
    members = [a for a in alphas if class_of(ctx, a) == ell]
    assert unwarp_all(ctx, members, ell) == [unwarp(ctx, a, ell) for a in members]
    with pytest.raises(WrongClass, match=f"^element is not in class {ell}$"):
        unwarp_all(ctx, members + [ZERO], ell)


def _modular_inverse_sites(node, scope=()):
    """The scope, as a dotted name, of each pow(x, -1, n) under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _modular_inverse_sites(child, scope + (child.name,))
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "pow"
            and len(child.args) == 3
            and ast.unparse(child.args[1]) == "-1"
        ):
            yield ".".join(scope)
        yield from _modular_inverse_sites(child, scope)


def test_only_the_context_and_method2_take_a_modular_inverse():
    # the canonical unwarp's factor is a constant of the context, so no
    # per-element path inverts [s]_q again; the Zech lookup's CRT
    # coefficients are made once, with its baby steps
    sites = {
        (path.name, name)
        for path in pathlib.Path(skewmatroid.__file__).parent.glob("*.py")
        for name in _modular_inverse_sites(ast.parse(path.read_text()))
    }
    assert sites == {
        ("field.py", "FieldCtx.__init__"),
        ("field.py", "_ZechLogs.__init__"),
        ("conjugacy.py", "unwarp_method2"),
    }


def test_unwarp_picks_minimal_log(f16):
    # representative choice: smallest discrete log on the kernel line
    scalars = sorted(set(f16.subfield_elements) - {ZERO})
    for ell in range(f16.q - 1):
        for alpha in class_elements(f16, ell):
            res = unwarp(f16, alpha, ell)
            line = sorted(f16.mul(res, c) for c in scalars)
            assert res == line[0]


def test_kernel_dimension_via_independent_matrix(f16, f9, f32s2):
    # re-derive the kernel of v -> sigma(v) - beta*v = v^{q^s} - beta*v with
    # plain linear algebra: one line, the one unwarp picks a point of
    for ctx in (f16, f9, f32s2):
        for ell in range(ctx.q - 1):
            for alpha in class_elements(ctx, ell):
                beta = ctx.div(alpha, _gamma_pow(ctx, ell))
                cols = []
                for b in ctx.basis:
                    image = sub(ctx, ctx.frobenius(b), ctx.mul(beta, b))
                    cols.append(ctx.coords(image))
                rows = [
                    [cols[j][i] for j in range(ctx.m)] for i in range(ctx.m)
                ]
                null_basis = kernel(ctx, rows)
                assert len(null_basis) == 1
                line = ctx.uncoords(null_basis[0])
                assert ctx.div(line, unwarp(ctx, alpha, ell)) in ctx.subfield_units


# -------------------------------------------------------------------- twist


def _poly_values(ctx, f, g, a):
    f, g = SkewPoly(ctx, f), SkewPoly(ctx, g)
    return f.evaluate(a), g.evaluate(a), eval_product(f, g, a)


@pytest.mark.parametrize(
    "p,n,k,s",
    [(2, 1, 1, 1), (3, 1, 1, 1), (2, 4, 2, 1), (3, 2, 1, 1), (3, 3, 1, 2), (2, 6, 1, 5)],
)
def test_twist_depends_on_s_mod_m(p, n, k, s):
    # sigma^(s + t m) = sigma^s on F_(q^m), so every twist-dependent result
    # must match (the CLI tests take s near 10^12, in a child process)
    ctx = get_field(p, n, k, s)
    m = ctx.m
    rng = random.Random(f"{p},{n},{k},{s}")
    nonzero = list(ctx.nonzero_elements())
    els = [ZERO] + nonzero
    for t in (1, 1000):
        big = get_field(p, n, k, s + t * m)
        assert big.modpoly == ctx.modpoly and big.twist == ctx.twist
        for a in nonzero:
            assert warp(big, a) == warp(ctx, a)
            ell = class_of(ctx, a)
            assert unwarp(big, a, ell) == unwarp(ctx, a, ell)
            assert big.coords(a) == ctx.coords(a)
        for _ in range(20):
            f, g = ([rng.choice(els) for _ in range(rng.randint(1, 2 * m + 2))] for _ in "fg")
            a = rng.choice(els)
            assert _poly_values(big, f, g, a) == _poly_values(ctx, f, g, a)
            pts = rng.sample(nonzero, min(3, len(nonzero)))
            assert closure(big, pts) == closure(ctx, pts)


# ------------------------------------------------------------------- labels


def test_class_labels(f16):
    assert class_label(f16, None) == "C(0)"
    assert class_label(f16, 0) == "C(1)"
    assert class_label(f16, 1) == "C(g1)"
    assert class_label(f16, 2) == "C(g2)"
