"""Named golden checks over the pinned F4 and F16 contexts.

These are the worked examples the whole package is calibrated against; the
`selftest` CLI verb runs them, and the acceptance suite asserts they all
pass.  Every check is exact — no tolerances.
"""

from __future__ import annotations

import random
from typing import Callable

from .conjugacy import (
    class_elements,
    class_invariance_holds,
    class_of,
    warp,
)
from .errors import NonPrimitiveModpoly
from .field import ONE, ZERO, get_field, mat_rank
from .matroid import Subspace, matroid_closure, phi, representation
from .minimal import closure, is_p_independent, lift, minimal_poly, p_basis, rank_of
from .netsim import encode_message, relay_forward
from .skewpoly import SkewPoly, eval_product, grcd, llcm


def _f4():
    return get_field(2, 2, 1, 1)


def _f16():
    return get_field(2, 4, 2, 1, 19)


_CHECKS: list[tuple[str, Callable[[], None]]] = []


def _check(name: str):
    def register(fn: Callable[[], None]):
        _CHECKS.append((name, fn))
        return fn

    return register


def _assert_eq(got, want, what: str) -> None:
    if got != want:
        raise AssertionError(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------- fields


@_check("F4: generator g satisfies g^2 = 1 + g")
def _f4_generator() -> None:
    ctx = _f4()
    _assert_eq(ctx.order, 4, "order")
    _assert_eq(ctx.mul(1, 1), ctx.add(ONE, 1), "g*g vs 1+g")
    _assert_eq(sorted(ctx.elements()), [ZERO, 0, 1, 2], "element roster")


@_check("F16 over F4: subfield units are 1, g5, g10")
def _f16_subfield() -> None:
    ctx = _f16()
    _assert_eq(ctx.m, 2, "extension degree over F4")
    _assert_eq(tuple(ctx.subfield_units), (0, 5, 10), "subfield units")
    _assert_eq(ctx.modpoly, 19, "modulus")


@_check("F16 coordinates: g2 = (g5, 1) and g3 = (g5, g10) in basis {1, g}")
def _f16_coords() -> None:
    ctx = _f16()
    _assert_eq(ctx.coords(2), [5, ONE], "coords of g2")
    _assert_eq(ctx.coords(3), [5, 10], "coords of g3")
    # the defining identities behind those columns
    _assert_eq(ctx.pow(1, 2), ctx.add(5, 1), "g^2 = g5 + g")
    _assert_eq(ctx.pow(1, 3), ctx.add(5, ctx.mul(10, 1)), "g^3 = g5 + g10*g")


@_check("Frobenius twist: squaring on F4, fourth powers on F16")
def _frobenius() -> None:
    f4, f16 = _f4(), _f16()
    _assert_eq(f4.frobenius(1), f4.pow(1, 2), "F4 twist")
    _assert_eq(f16.frobenius(1), f16.pow(1, 4), "F16 twist")


@_check("bracket identity at q=4: 1 + 4*1 = 5")
def _brackets() -> None:
    ctx = _f16()
    _assert_eq(ctx.dbracket(1) + ctx.bracket(1) * ctx.dbracket(1), ctx.dbracket(2), "recursion")
    _assert_eq(ctx.dbracket(2), 5, "value")


# --------------------------------------------------------- skew arithmetic


@_check("skew product: (x+1)(g1*x+1) = g2*x^2 + g2*x + 1 over F4")
def _skew_product() -> None:
    ctx = _f4()
    f = SkewPoly.parse(ctx, "x+1")
    g = SkewPoly.parse(ctx, "g1*x+1")
    _assert_eq(str(f * g), "g2*x^2 + g2*x + 1", "product")


@_check("x^4+x^2+1 factors as (x^2+x+1)^2 and (x^2+g2)(x^2+g1) over F4")
def _two_factorizations() -> None:
    ctx = _f4()
    target = SkewPoly.parse(ctx, "x^4+x^2+1")
    h = SkewPoly.parse(ctx, "x^2+x+1")
    _assert_eq(h * h, target, "square factorization")
    a = SkewPoly.parse(ctx, "x^2+g2")
    b = SkewPoly.parse(ctx, "x^2+g1")
    _assert_eq(a * b, target, "split factorization")


@_check("right division: x^4+x^2+1 by x^2+g1 gives x^2+g2 exactly")
def _right_division() -> None:
    ctx = _f4()
    f = SkewPoly.parse(ctx, "x^4+x^2+1")
    quo, rem = f.right_divmod(SkewPoly.parse(ctx, "x^2+g1"))
    _assert_eq(str(quo), "x^2 + g2", "quotient")
    if not rem.is_zero():
        raise AssertionError(f"remainder {rem} is not zero")


@_check("right remainder by x - a equals the evaluation")
def _remainder_is_eval() -> None:
    ctx = _f4()
    f = SkewPoly.parse(ctx, "x^2+1")
    for a in ctx.nonzero_elements():
        divisor = SkewPoly(ctx, (ctx.neg(a), ONE))
        _, rem = f.right_divmod(divisor)
        _assert_eq(rem.coeff(0), f.evaluate(a), f"remainder at {ctx.format_element(a)}")
        _assert_eq(f.evaluate(a), ZERO, "x^2+1 vanishes on units")


@_check("llcm degree law on 1000 random pairs over F4 and F16")
def _llcm_degree_law() -> None:
    rng = random.Random("llcm degree law")
    for ctx in (_f4(), _f16()):
        units = tuple(ctx.elements())
        for _ in range(1000):
            f = SkewPoly(ctx, tuple(rng.choice(units) for _ in range(rng.randint(1, 5))))
            g = SkewPoly(ctx, tuple(rng.choice(units) for _ in range(rng.randint(1, 5))))
            if f.is_zero() or g.is_zero():
                continue
            got, want = llcm(f, g).degree, f.degree + g.degree - grcd(f, g).degree
            if got != want:  # the message is formatted only for a failure
                _assert_eq(got, want, f"deg law for {f}, {g}")


@_check("regular associate of x^2+1 over F4 has support {0, 3}")
def _regular_associate() -> None:
    ctx = _f4()
    assoc = SkewPoly.parse(ctx, "x^2+1").regular_associate()
    _assert_eq(assoc.terms, ((0, ONE), (3, ONE)), "terms")
    for a in ctx.elements():
        want = ctx.add(ctx.pow(a, 3), ONE)
        _assert_eq(assoc.evaluate(a), want, "associate evaluation")


@_check("evaluation: f(g1) = 1 for f = x^4+x^2+1 over F4")
def _eval_golden() -> None:
    ctx = _f4()
    _assert_eq(SkewPoly.parse(ctx, "x^4+x^2+1").evaluate(1), ONE, "f(g1)")


@_check("zeros of x^2+1 over F4 are all three units")
def _zeros_golden() -> None:
    ctx = _f4()
    _assert_eq(SkewPoly.parse(ctx, "x^2+1").zeros(), (0, 1, 2), "zero set")


@_check("product rule: (gh)(g1) = g2 * g1 = 1 over F4")
def _product_rule() -> None:
    ctx = _f4()
    g = SkewPoly.parse(ctx, "x^2+x+1")
    _assert_eq(g.evaluate(1), 1, "h(g1) = g1")
    _assert_eq(eval_product(g, g, 1), ONE, "chained value")
    _assert_eq((g * g).evaluate(1), ONE, "direct value")


@_check("product rule collapses when the inner factor vanishes")
def _product_rule_zero() -> None:
    ctx = _f4()
    g = SkewPoly.parse(ctx, "x^2+1")  # vanishes on units
    f = SkewPoly.parse(ctx, "x^3+g1*x+g2")
    for a in ctx.nonzero_elements():
        _assert_eq(eval_product(f, g, a), ZERO, "outer times vanishing inner")
        _assert_eq((f * g).evaluate(a), ZERO, "direct product evaluation")


# --------------------------------------------------------------- conjugacy


@_check("warp is 1 on subfield units and multiplicative")
def _warp_properties() -> None:
    ctx = _f16()
    for c in ctx.subfield_units:
        _assert_eq(warp(ctx, c), ONE, f"warp({ctx.format_element(c)})")
    for a in ctx.nonzero_elements():
        for b in ctx.nonzero_elements():
            _assert_eq(
                warp(ctx, ctx.mul(a, b)),
                ctx.mul(warp(ctx, a), warp(ctx, b)),
                "multiplicativity",
            )


@_check("F16 classes: zero stands alone; g7 sits in class 1, g12 in class 0")
def _class_membership() -> None:
    ctx = _f16()
    _assert_eq(class_of(ctx, ZERO), None, "class of zero")
    _assert_eq(class_of(ctx, 7), 1, "class of g7")
    _assert_eq(class_of(ctx, 12), 0, "class of g12")


@_check("class listings over F16: strides of 3 starting at 1 and g2; size 5")
def _class_listings() -> None:
    ctx = _f16()
    _assert_eq(class_elements(ctx, 0), (0, 3, 6, 9, 12), "class of 1")
    _assert_eq(class_elements(ctx, 2), (2, 5, 8, 11, 14), "class of g2")
    _assert_eq(ctx.class_size, ctx.dbracket(ctx.m), "size is the m-bracket")
    _assert_eq(class_of(ctx, 4), class_of(ctx, 1), "g4 conjugate to g")


@_check("class partition is twist-independent on F32")
def _class_twist_independence() -> None:
    ctx = get_field(2, 5, 1, 2)
    for a in ctx.elements():
        if not class_invariance_holds(ctx, a):
            raise AssertionError(f"class of {ctx.format_element(a)} depends on the twist")


# ----------------------------------------------------- minimal polynomials


@_check("minimal polynomial of {1, g1} over F4 is x^2 + 1")
def _minpoly_pair() -> None:
    ctx = _f4()
    _assert_eq(str(minimal_poly(ctx, (ONE, 1))), "x^2 + 1", "minimal polynomial")


@_check("minimal polynomial of a singleton is x - a")
def _minpoly_singleton() -> None:
    ctx = _f16()
    for a in ctx.nonzero_elements():
        _assert_eq(
            minimal_poly(ctx, (a,)),
            SkewPoly(ctx, (ctx.neg(a), ONE)),
            f"minpoly of {ctx.format_element(a)}",
        )


@_check("closure of {1, g1} over F4 is the whole unit group")
def _closure_f4() -> None:
    ctx = _f4()
    _assert_eq(closure(ctx, (ONE, 1)), (0, 1, 2), "closure")


@_check("closure of {1, g3} over F16 is the class of 1")
def _closure_f16() -> None:
    ctx = _f16()
    _assert_eq(closure(ctx, (ONE, 3)), class_elements(ctx, 0), "closure")


@_check("independence verdicts: {1,g3} yes, {1,g3,g6} no, {1,g3,g1,g4} yes")
def _independence_verdicts() -> None:
    ctx = _f16()
    _assert_eq(is_p_independent(ctx, (0, 3)), True, "{1,g3}")
    _assert_eq(is_p_independent(ctx, (0, 3, 6)), False, "{1,g3,g6}")
    _assert_eq(is_p_independent(ctx, (0, 3, 1, 4)), True, "{1,g3,g1,g4}")


@_check("greedy basis of the class of 1 over F16 is {1, g3}")
def _greedy_basis() -> None:
    ctx = _f16()
    _assert_eq(p_basis(ctx, class_elements(ctx, 0)), (0, 3), "basis")


@_check("lift vectors of {1, g3} are linearly independent over F4")
def _lift_independence() -> None:
    ctx = _f16()
    vectors = lift(ctx, (0, 3))
    _assert_eq(mat_rank(ctx, vectors), 2, "lift rank")


@_check("closure sizes follow the rank bracket: 5 points at rank 2")
def _closure_sizes() -> None:
    ctx = _f16()
    for pts in ((0, 3), (0, 3, 6)):
        cl = closure(ctx, pts)
        _assert_eq(len(cl), ctx.dbracket(rank_of(ctx, pts)), f"size for {pts}")
        _assert_eq(cl, class_elements(ctx, 0), f"closure of {pts}")


@_check("rank: {1,g3,g6} has rank 2 and {1,g3,g1,g4} has rank 4")
def _rank_goldens() -> None:
    ctx = _f16()
    _assert_eq(rank_of(ctx, (0, 3, 6)), 2, "dependent triple")
    _assert_eq(rank_of(ctx, (0, 3, 1, 4)), 4, "cross-class quadruple")
    _assert_eq(matroid_closure(ctx, (0, 3)).rank, 2, "flat rank")


# ------------------------------------------------------------ representation


@_check("class block A matches [[1,0,g5,g5,1],[0,1,1,g10,1]] and has rank 2")
def _a_matrix() -> None:
    ctx = _f16()
    rep = representation(ctx)
    _assert_eq(rep.a_rows, ((ONE, ZERO, 5, 5, ONE), (ZERO, ONE, ONE, 10, ONE)), "A")
    _assert_eq(mat_rank(ctx, [list(r) for r in rep.a_rows]), 2, "rank of A")


@_check("full representation is 7 x 16 with the largest independent set = 7")
def _script_matrix() -> None:
    ctx = _f16()
    rep = representation(ctx)
    _assert_eq(rep.script_shape, (7, 16), "shape")
    _assert_eq(mat_rank(ctx, [list(r) for r in rep.script_rows]), 7, "row rank")


@_check("warping the full plane gives the class of 1")
def _phi_full_plane() -> None:
    ctx = _f16()
    full = Subspace.from_elements(ctx, ctx.nonzero_elements())
    _assert_eq(phi(ctx, full).points, class_elements(ctx, 0), "image")


# ----------------------------------------------------------------- network


@_check("encoding at full rank yields the whole class")
def _encode_full_rank() -> None:
    ctx = _f16()
    flat = encode_message(ctx, 0, 2, random.Random("encode"))
    _assert_eq(flat.points, class_elements(ctx, 0), "rank-2 flat of C(1)")


@_check("relay output is always a root of the incoming minimal polynomial")
def _relay_root() -> None:
    ctx = _f16()
    rng = random.Random("relay")
    f = minimal_poly(ctx, (ONE, 3))
    for _ in range(200):
        out = relay_forward(ctx, [ONE, 3], rng)
        _assert_eq(f.evaluate(out), ZERO, f"root check for {ctx.format_element(out)}")


# ------------------------------------------------------------------- misc


@_check("non-primitive modulus is rejected")
def _bad_modpoly() -> None:
    try:
        get_field(2, 4, 2, 1, 31)  # x^4+x^3+x^2+x+1 has order 5
    except NonPrimitiveModpoly:
        return
    raise AssertionError("x^4+x^3+x^2+x+1 was accepted as primitive")


@_check("documented output strings reproduce exactly")
def _cli_strings() -> None:
    f4, f16 = _f4(), _f16()
    product = SkewPoly.parse(f4, "x+1") * SkewPoly.parse(f4, "g1*x+1")
    _assert_eq(str(product), "g2*x^2 + g2*x + 1", "product string")
    cl = closure(f16, (f16.parse_element("1"), f16.parse_element("g3")))
    _assert_eq(", ".join(f16.format_element(a) for a in cl), "1, g3, g6, g9, g12", "closure string")
    _assert_eq(is_p_independent(f16, (0, 3, 6)), False, "pindep prints false")


def run_all() -> dict:
    """Run every registered check and return the `selftest` report; never raises."""
    checks = []
    for name, fn in _CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, don't abort the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        else:
            ok, detail = True, ""
        checks.append({"name": name, "ok": ok, "detail": detail})
    failed = sum(not c["ok"] for c in checks)
    return {"passed": len(checks) - failed, "failed": failed, "checks": checks}
