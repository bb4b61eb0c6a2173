import itertools
import random

import pytest

from skewmatroid import (
    DivisionByZeroPoly,
    MixedContexts,
    ONE,
    ParseError,
    SkewPoly,
    ZERO,
    ZeroInput,
    eval_product,
    get_field,
    grcd,
    llcm,
    warp,
)
from skewmatroid.field import MAX_ORDER


def _random_poly(ctx, rng, max_deg=4, nonzero=False):
    els = [ZERO] + list(range(ctx.order - 1))
    while True:
        coeffs = tuple(rng.choice(els) for _ in range(rng.randint(1, max_deg + 1)))
        f = SkewPoly(ctx, coeffs)
        if not (nonzero and f.is_zero()):
            return f


def _all_polys(ctx, max_deg):
    """Every polynomial of degree <= max_deg (including zero)."""
    els = [ZERO] + list(range(ctx.order - 1))
    for coeffs in itertools.product(els, repeat=max_deg + 1):
        yield SkewPoly(ctx, coeffs)


# ------------------------------------------------------------ construction


def test_basic_shape(f4):
    f = SkewPoly(f4, (ONE, ZERO, 1, ZERO))  # trailing zeros stripped
    assert f.coeffs == (ONE, ZERO, 1)
    assert f.degree == 2 and f.lead() == 1 and f.coeff(0) == ONE
    assert f.coeff(17) == ZERO
    z = SkewPoly.zero(f4)
    assert z.is_zero() and z.degree == -1
    with pytest.raises(ZeroInput):
        z.lead()
    with pytest.raises(ZeroInput):
        z.monic()
    assert SkewPoly.x(f4) == SkewPoly(f4, (ZERO, ONE))
    assert SkewPoly.monomial(f4, 2, 3) == SkewPoly(f4, (ZERO, ZERO, ZERO, 2))
    assert SkewPoly.constant(f4, ZERO).is_zero()


def test_mixed_contexts_rejected(f4, f16):
    with pytest.raises(MixedContexts):
        SkewPoly.x(f4) + SkewPoly.x(f16)
    with pytest.raises(MixedContexts):
        SkewPoly.x(f4) * SkewPoly.one(f16)
    # equal parameters but a different modulus is still a different ring
    other = get_field(2, 4, 2, 1, 25)
    with pytest.raises(MixedContexts):
        SkewPoly.x(other) + SkewPoly.x(get_field(2, 4, 2, 1))


# ------------------------------------------------------------------ parsing


def test_parse_goldens(f4):
    assert SkewPoly.parse(f4, "x+1") == SkewPoly(f4, (ONE, ONE))
    assert SkewPoly.parse(f4, "g1*x+1") == SkewPoly(f4, (ONE, 1))
    assert SkewPoly.parse(f4, "x^4+x^2+1") == SkewPoly(f4, (ONE, ZERO, ONE, ZERO, ONE))
    assert SkewPoly.parse(f4, " x^2 + g2 ") == SkewPoly(f4, (2, ZERO, ONE))
    assert SkewPoly.parse(f4, "0") == SkewPoly.zero(f4)
    assert SkewPoly.parse(f4, "1") == SkewPoly.one(f4)
    assert SkewPoly.parse(f4, "x") == SkewPoly.x(f4)
    assert SkewPoly.parse(f4, "g2") == SkewPoly.constant(f4, 2)
    # repeated exponents are summed (char 2: they cancel)
    assert SkewPoly.parse(f4, "x+x") == SkewPoly.zero(f4)
    assert SkewPoly.parse(f4, "x+x+x") == SkewPoly.x(f4)


def test_parse_errors(f4):
    for bad in ("y", "g*x", "x^", "2*x", "x**2", "", "x^2^3", "g1x"):
        with pytest.raises(ParseError):
            SkewPoly.parse(f4, bad)


def test_parse_caps_exponent(f4):
    # rejected before the dense coefficient list is allocated
    for big in (str(MAX_ORDER + 1), "1000000000", "9" * 5000):
        with pytest.raises(ParseError):
            SkewPoly.parse(f4, "x^" + big)
    with pytest.raises(ParseError):
        SkewPoly.parse(f4, f"g1*x^{10**9} + 1")
    assert SkewPoly.parse(f4, f"x^{MAX_ORDER}").degree == MAX_ORDER
    assert SkewPoly.parse(f4, "x^0002") == SkewPoly.parse(f4, "x^2")
    assert SkewPoly.parse(f4, "x^00") == SkewPoly.one(f4)


def test_str_parse_roundtrip(f4, f16, f9):
    assert str(SkewPoly(f4, (ONE, 2, 2))) == "g2*x^2 + g2*x + 1"
    assert str(SkewPoly.zero(f4)) == "0"
    assert str(SkewPoly.one(f4)) == "1"
    assert str(SkewPoly(f4, (ZERO, ZERO, ONE))) == "x^2"
    for ctx in (f4, f16, f9):
        rng = random.Random(ctx.order)
        for _ in range(200):
            f = _random_poly(ctx, rng)
            assert SkewPoly.parse(ctx, str(f)) == f


# ---------------------------------------------------------------- ring laws


def test_product_goldens(f4):
    f = SkewPoly.parse(f4, "x+1")
    g = SkewPoly.parse(f4, "g1*x+1")
    assert str(f * g) == "g2*x^2 + g2*x + 1"
    assert f * g != g * f  # the twist breaks commutativity
    h = SkewPoly.parse(f4, "x^2+x+1")
    target = SkewPoly.parse(f4, "x^4+x^2+1")
    assert h * h == target
    assert SkewPoly.parse(f4, "x^2+g2") * SkewPoly.parse(f4, "x^2+g1") == target


def test_commuting_rule():
    for spec in ("2,2,1,1", "2,4,2,1", "3,2,1,1", "2,5,1,2"):
        ctx = get_field(*[int(t) for t in spec.split(",")])
        x = SkewPoly.x(ctx)
        for c in ctx.elements():
            lhs = x * SkewPoly.constant(ctx, c)
            rhs = SkewPoly(ctx, (ZERO, ctx.frobenius(c)))
            assert lhs == rhs


def test_ring_axioms_exhaustive_f4_degree2(f4):
    polys = list(_all_polys(f4, 2))
    assert len(polys) == 4**3
    for f, g in itertools.product(polys, repeat=2):
        assert f + g == g + f
        assert f - g == f + (-g)
    rng = random.Random(0)
    one = SkewPoly.one(f4)
    for f in polys:
        assert f * one == f and one * f == f
        assert (f + (-f)).is_zero()
    for _ in range(20000):
        f, g, h = (rng.choice(polys) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_left_scale_and_monic(f16):
    rng = random.Random(3)
    f = _random_poly(f16, rng, nonzero=True)
    assert f.scale_left(ONE) == f
    assert f.scale_left(ZERO).is_zero()
    m = f.monic()
    assert m.lead() == ONE and m.degree == f.degree
    assert m.scale_left(f.lead()) == f


# ----------------------------------------------------------------- division


def test_division_golden(f4):
    f = SkewPoly.parse(f4, "x^4+x^2+1")
    quo, rem = f.right_divmod(SkewPoly.parse(f4, "x^2+g1"))
    assert str(quo) == "x^2 + g2" and rem.is_zero()


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1", "2,5,1,2"])
def test_division_contract_random(spec):
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    for _ in range(500):
        f = _random_poly(ctx, rng, max_deg=5)
        g = _random_poly(ctx, rng, max_deg=4, nonzero=True)
        quo, rem = f.right_divmod(g)
        assert quo * g + rem == f
        assert rem.is_zero() or rem.degree < g.degree
        # uniqueness: dividing the exact part reproduces the quotient
        quo2, rem2 = (f - rem).right_divmod(g)
        assert quo2 == quo and rem2.is_zero()


def test_division_by_zero(f4):
    with pytest.raises(DivisionByZeroPoly):
        SkewPoly.x(f4).right_divmod(SkewPoly.zero(f4))


# --------------------------------------------------------------- evaluation


def test_evaluation_goldens(f4):
    assert SkewPoly.parse(f4, "x^4+x^2+1").evaluate(1) == ONE
    f = SkewPoly.parse(f4, "x^2+1")
    assert f.zeros() == (0, 1, 2)
    for a in f4.nonzero_elements():
        assert f.evaluate(a) == ZERO
    assert f.evaluate(ZERO) == ONE  # constant term


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1", "2,5,1,2", "2,4,1,1"])
def test_evaluation_coherence(spec):
    # degrees past m reach dbracket(i) = 0 mod (order - 1), e.g. i = 4 on 2,4,1,1
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    for _ in range(40):
        f = _random_poly(ctx, rng, max_deg=2 * ctx.m + 1)
        assoc = f.regular_associate()
        for a in ctx.elements():
            value = f.evaluate(a)
            assert value == assoc.evaluate(a)
            if a != ZERO or not f.is_zero():
                divisor = SkewPoly(ctx, (ctx.neg(a), ONE))
                _, rem = f.right_divmod(divisor)
                assert rem.coeff(0) == value


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1"])
def test_product_rule(spec):
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    for _ in range(40):
        f = _random_poly(ctx, rng)
        g = _random_poly(ctx, rng)
        fg = f * g
        for a in ctx.elements():
            assert eval_product(f, g, a) == fg.evaluate(a)


def test_product_rule_golden(f4):
    g = SkewPoly.parse(f4, "x^2+x+1")
    assert g.evaluate(1) == 1
    assert eval_product(g, g, 1) == ONE
    vanishing = SkewPoly.parse(f4, "x^2+1")
    outer = SkewPoly.parse(f4, "x^3+g1*x+g2")
    for a in f4.nonzero_elements():
        assert eval_product(outer, vanishing, a) == ZERO


# ---------------------------------------------------------------- associates


def test_regular_associate_golden(f4):
    assoc = SkewPoly.parse(f4, "x^2+1").regular_associate()
    assert assoc.terms == ((0, ONE), (3, ONE))
    assert str(assoc) == "x^3 + 1"
    assert assoc.zeros() == (0, 1, 2)


def test_linearized_associate_constant_term(f4):
    # a constant coefficient contributes at exponent 1, not 0
    assoc = SkewPoly.parse(f4, "x^2+1").linearized_associate()
    assert assoc.terms == ((1, ONE), (4, ONE))


@pytest.mark.parametrize("s", [-1, 3, 10**12 + 1])
def test_associates_read_s_mod_m(s):
    # sigma depends on s mod m only, so both associates print as at s = 1,
    # exactly and at once however large or negative s is
    base = SkewPoly.parse(get_field(2, 4, 2, 1), "x^2+g1*x+1")
    f = SkewPoly.parse(get_field(2, 4, 2, s), "x^2+g1*x+1")
    assert str(f.regular_associate()) == str(base.regular_associate()) == "x^5 + g1*x + 1"
    assert str(f.linearized_associate()) == str(base.linearized_associate())


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1", "2,5,1,2"])
def test_linearized_correspondence(spec):
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    for _ in range(40):
        f = _random_poly(ctx, rng)
        lin = f.linearized_associate()
        for a in ctx.nonzero_elements():
            assert ctx.mul(a, f.evaluate(warp(ctx, a))) == lin.evaluate(a)
        assert lin.evaluate(ZERO) == ZERO  # linearized maps fix zero


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1"])
def test_linearized_root_bound(spec):
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    for _ in range(60):
        f = _random_poly(ctx, rng, nonzero=True)
        roots = f.linearized_associate().zeros()
        assert len(roots) <= ctx.q ** f.degree


# --------------------------------------------------------------- grcd / llcm


def test_grcd_llcm_golden(f4):
    f = SkewPoly.parse(f4, "x^2+x+1")
    g = SkewPoly.parse(f4, "x^2+g1")
    assert grcd(f, g) == SkewPoly.one(f4)
    assert llcm(f, g) == SkewPoly.parse(f4, "x^4+x^2+1")


def test_llcm_brute_force_oracle(f4):
    # the least common left multiple of x^2+x+1 and x^2+g1 is the unique
    # monic degree-4 polynomial right-divisible by both
    f = SkewPoly.parse(f4, "x^2+x+1")
    g = SkewPoly.parse(f4, "x^2+g1")
    found = []
    els = [ZERO] + list(range(f4.order - 1))
    for lower in itertools.product(els, repeat=4):
        cand = SkewPoly(f4, (*lower, ONE))
        if cand.right_divmod(f)[1].is_zero() and cand.right_divmod(g)[1].is_zero():
            found.append(cand)
    assert found == [SkewPoly.parse(f4, "x^4+x^2+1")]
    # nothing smaller works either
    for deg in (2, 3):
        for lower in itertools.product(els, repeat=deg):
            cand = SkewPoly(f4, (*lower, ONE))
            assert not (
                cand.right_divmod(f)[1].is_zero()
                and cand.right_divmod(g)[1].is_zero()
            )


def _bezout(f, g):
    """Right Euclid tracking both cofactors: monic d with u*f + v*g = d.
    An oracle written apart from the library's grcd, which tracks none."""
    ctx = f.ctx
    r0, r1 = f, g
    u0, u1 = SkewPoly.one(ctx), SkewPoly.zero(ctx)
    v0, v1 = SkewPoly.zero(ctx), SkewPoly.one(ctx)
    while not r1.is_zero():
        quo, rem = r0.right_divmod(r1)
        r0, r1 = r1, rem
        u0, u1 = u1, u0 - quo * u1
        v0, v1 = v1, v0 - quo * v1
    c = ctx.inv(r0.lead())
    return r0.scale_left(c), u0.scale_left(c), v0.scale_left(c)


@pytest.mark.parametrize("spec", ["2,2,1,1", "2,4,2,1", "3,2,1,1"])
def test_grcd_llcm_properties_random(spec):
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    for _ in range(300):
        f = _random_poly(ctx, rng, nonzero=True)
        g = _random_poly(ctx, rng, nonzero=True)
        d, u, v = _bezout(f, g)
        assert grcd(f, g) == d
        assert d.lead() == ONE
        assert u * f + v * g == d
        assert f.right_divmod(d)[1].is_zero()
        assert g.right_divmod(d)[1].is_zero()
        m = llcm(f, g)
        assert m.lead() == ONE
        assert m.right_divmod(f)[1].is_zero()
        assert m.right_divmod(g)[1].is_zero()
        assert m.degree == f.degree + g.degree - d.degree


def test_grcd_llcm_zero_cases(f4):
    f = SkewPoly.parse(f4, "x^2+g1")
    z = SkewPoly.zero(f4)
    assert grcd(f, z) == f.monic()
    assert grcd(z, f) == f.monic()
    with pytest.raises(ZeroInput):
        grcd(z, z)
    with pytest.raises(ZeroInput):
        llcm(f, z)
    with pytest.raises(ZeroInput):
        llcm(z, f)
