import itertools
import random
import time

import pytest

from skewmatroid import (
    DivisionByZeroPoly,
    MixedContexts,
    ONE,
    ParseError,
    SkewPoly,
    ZERO,
    ZeroInput,
    class_elements,
    eval_product,
    get_field,
    grcd,
    llcm,
    minimal_poly,
    warp,
)
from skewmatroid.field import MAX_ORDER

from oracles import (
    add_by_terms,
    linearized_associate,
    right_divmod_by_terms,
    scan_zeros,
    sub_by_terms,
)


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


def test_mixed_contexts_rejected(f4, f16):
    with pytest.raises(MixedContexts):
        SkewPoly(f4, (ZERO, ONE)).right_divmod(SkewPoly(f16, (ZERO, ONE)))
    with pytest.raises(MixedContexts):
        SkewPoly(f4, (ZERO, ONE)) * SkewPoly.one(f16)
    # equal parameters but a different modulus is still a different ring
    other = get_field(2, 4, 2, 1, 25)
    with pytest.raises(MixedContexts):
        SkewPoly(other, (ZERO, ONE)) * SkewPoly(get_field(2, 4, 2, 1), (ZERO, ONE))


# ------------------------------------------------------------------ parsing


def test_parse_goldens(f4):
    assert SkewPoly.parse(f4, "x+1") == SkewPoly(f4, (ONE, ONE))
    assert SkewPoly.parse(f4, "g1*x+1") == SkewPoly(f4, (ONE, 1))
    assert SkewPoly.parse(f4, "x^4+x^2+1") == SkewPoly(f4, (ONE, ZERO, ONE, ZERO, ONE))
    assert SkewPoly.parse(f4, " x^2 + g2 ") == SkewPoly(f4, (2, ZERO, ONE))
    assert SkewPoly.parse(f4, "0") == SkewPoly.zero(f4)
    assert SkewPoly.parse(f4, "1") == SkewPoly.one(f4)
    assert SkewPoly.parse(f4, "x") == SkewPoly(f4, (ZERO, ONE))
    assert SkewPoly.parse(f4, "g2") == SkewPoly(f4, (2,))
    # repeated exponents are summed (char 2: they cancel)
    assert SkewPoly.parse(f4, "x+x") == SkewPoly.zero(f4)
    assert SkewPoly.parse(f4, "x+x+x") == SkewPoly(f4, (ZERO, ONE))


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
        x = SkewPoly(ctx, (ZERO, ONE))
        for c in ctx.elements():
            lhs = x * SkewPoly(ctx, (c,))
            rhs = SkewPoly(ctx, (ZERO, ctx.frobenius(c)))
            assert lhs == rhs


def test_ring_axioms_exhaustive_f4_degree2(f4):
    polys = list(_all_polys(f4, 2))
    assert len(polys) == 4**3
    rng = random.Random(0)
    one = SkewPoly.one(f4)
    for f in polys:
        assert f * one == f and one * f == f
    for _ in range(20000):
        f, g, h = (rng.choice(polys) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * add_by_terms(g, h) == add_by_terms(f * g, f * h)
        assert add_by_terms(f, g) * h == add_by_terms(f * h, g * h)


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
        assert add_by_terms(quo * g, rem) == f
        assert rem.is_zero() or rem.degree < g.degree
        # uniqueness: dividing the exact part reproduces the quotient
        quo2, rem2 = sub_by_terms(f, rem).right_divmod(g)
        assert quo2 == quo and rem2.is_zero()


def test_division_by_zero(f4):
    with pytest.raises(DivisionByZeroPoly):
        SkewPoly(f4, (ZERO, ONE)).right_divmod(SkewPoly.zero(f4))


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


@pytest.mark.parametrize(
    "spec",
    [
        "2,2,1,1", "2,3,1,1", "2,4,1,1", "2,4,2,1", "2,4,4,1", "2,5,1,2", "2,6,2,2",
        "3,2,1,1", "3,2,2,1", "3,3,1,2", "5,1,1,1", "5,2,1,1", "7,1,1,1",
        "2,4,1,3", "2,6,1,5", "2,8,2,3", "3,3,1,1", "3,4,1,3", "5,3,1,1",
        "2,6,3,1", "2,9,3,2",
    ],
)
def test_zeros_folds_exponents(spec):
    # x^(M+1) - x, M = m(q - 1), vanishes on the whole field, so zeros may
    # fold each exponent i >= 1 to (i - 1) mod M + 1; the scan of the
    # unfolded polynomial is the oracle, and a right factor x - a makes
    # half the samples vanish somewhere
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    big = 4 * ctx.m * (ctx.q - 1) + 3
    samples = [SkewPoly.zero(ctx), SkewPoly(ctx, (rng.randrange(ctx.order - 1),))]
    for i in range(30):
        f = _random_poly(ctx, rng, max_deg=big - 1)
        if i % 2:
            a = rng.choice(list(ctx.elements()))
            f = f * SkewPoly(ctx, (ctx.neg(a), ONE))
        samples.append(f)
    # m + 1 linear right factors, the last two the minimal polynomial of two
    # points of class l: on m > 1 its kernel there has dimension >= 2
    ell = rng.randrange(ctx.q - 1)
    product = minimal_poly(ctx, rng.sample(class_elements(ctx, ell), min(2, ctx.class_size)))
    while product.degree <= ctx.m:
        product = SkewPoly(ctx, (ctx.neg(rng.choice(list(ctx.elements()))), ONE)) * product
    samples.append(product)
    for f in samples:
        assert f.zeros() == scan_zeros(f)
    in_class = [a for a in product.zeros() if a != ZERO and a % (ctx.q - 1) == ell]
    assert len(in_class) >= (ctx.q + 1 if ctx.m > 1 else 1)


def test_zeros_of_a_cubic_on_a_large_field():
    # the kernel route evaluates the cubic m = 20 times and solves one
    # 20 x 20 system; the scan evaluated it at all 2^20 elements (about 1.2 s)
    ctx = get_field(2, 20, 1, 1)
    ctx.add(ONE, ONE)  # builds the Zech table outside the timed call
    f = SkewPoly.parse(ctx, "x^3+g5*x^2+x+g7")
    start = time.process_time()
    roots = f.zeros()
    assert time.process_time() - start < 0.05
    assert all(f.evaluate(a) == ZERO for a in roots)


def test_zeros_on_m1_is_no_slower_than_the_scan():
    # on m = 1 every class is one point, so zeros evaluates every element
    ctx = get_field(2, 16, 16, 1)
    f = SkewPoly.parse(ctx, "x^3+g5*x^2+x+g7")
    ctx.zech()  # built before the clock starts, so no round pays for it

    def timed(run):
        start = time.process_time()
        return run(f), time.process_time() - start

    # best of 7, the two routes taking turns so that both see the same load
    rounds = [(timed(SkewPoly.zeros), timed(scan_zeros)) for _ in range(7)]
    assert all(roots == scanned for (roots, _), (scanned, _) in rounds)
    assert min(z for (_, z), _ in rounds) <= 1.25 * min(s for _, (_, s) in rounds)


@pytest.mark.parametrize("spec", ["2,10,10,1", "5,4,4,1", "3,4,4,3", "2,1,1,1"])
def test_zeros_on_m1_of_sparse_polynomials_match_the_scan(spec):
    # a few terms at degrees up to three times the field order, so the fold
    # merges some; a right factor x - a makes half the samples vanish somewhere
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    N = ctx.order - 1
    for i in range(12):
        coeffs = [ZERO] * rng.randrange(1, 3 * N)
        for _ in range(rng.randint(1, 5)):
            coeffs[rng.randrange(len(coeffs))] = rng.randrange(N)
        f = SkewPoly(ctx, coeffs)
        if i % 2:
            f = f * SkewPoly(ctx, (ctx.neg(rng.choice(list(ctx.elements()))), ONE))
        assert f.zeros() == scan_zeros(f)


def test_zeros_on_m1_of_a_sparse_polynomial_of_high_degree():
    # three terms cost three passes over the field, where evaluating all
    # 65,536 coefficients at each element takes 2^32 steps.  a^65535 = 1 on
    # nonzero a, so the one root is the square root of 1 + g
    ctx = get_field(2, 16, 16, 1)
    ctx.zech()
    f = SkewPoly.parse(ctx, "x^65535+x^2+g1")
    start = time.process_time()
    roots = f.zeros()
    assert time.process_time() - start < 2.0
    root = ctx.add(ONE, 1) * (ctx.order // 2) % (ctx.order - 1)  # halve the log of 1 + g
    assert ctx.mul(root, root) == ctx.add(ONE, 1)
    assert roots == (root,)
    assert f.evaluate(root) == ZERO


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
    assert repr(assoc) == "AssocPoly(ctx=FieldCtx(2,2,1,1,modpoly=7), terms=((0, 0), (3, 0)))"
    assert scan_zeros(assoc) == (0, 1, 2)


def test_linearized_associate_constant_term(f4):
    # a constant coefficient contributes at exponent 1, not 0
    assoc = linearized_associate(SkewPoly.parse(f4, "x^2+1"))
    assert assoc.terms == ((1, ONE), (4, ONE))


@pytest.mark.parametrize("s", [-1, 3, 10**12 + 1])
def test_associates_read_s_mod_m(s):
    # sigma depends on s mod m only, so both associates print as at s = 1,
    # exactly and at once however large or negative s is
    base = SkewPoly.parse(get_field(2, 4, 2, 1), "x^2+g1*x+1")
    f = SkewPoly.parse(get_field(2, 4, 2, s), "x^2+g1*x+1")
    assert str(f.regular_associate()) == str(base.regular_associate()) == "x^5 + g1*x + 1"
    assert str(linearized_associate(f)) == str(linearized_associate(base))


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1", "2,5,1,2"])
def test_linearized_correspondence(spec):
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    for _ in range(40):
        f = _random_poly(ctx, rng)
        lin = linearized_associate(f)
        for a in ctx.nonzero_elements():
            assert ctx.mul(a, f.evaluate(warp(ctx, a))) == lin.evaluate(a)
        assert lin.evaluate(ZERO) == ZERO  # linearized maps fix zero


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1"])
def test_linearized_root_bound(spec):
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(spec)
    for _ in range(60):
        f = _random_poly(ctx, rng, nonzero=True)
        roots = scan_zeros(linearized_associate(f))
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
    An oracle written apart from the library's grcd, which tracks none, and
    dividing term by term, not through the library's reduction loop."""
    ctx = f.ctx
    r0, r1 = f, g
    u0, u1 = SkewPoly.one(ctx), SkewPoly.zero(ctx)
    v0, v1 = SkewPoly.zero(ctx), SkewPoly.one(ctx)
    while not r1.is_zero():
        quo, rem = right_divmod_by_terms(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, sub_by_terms(u0, quo * u1)
        v0, v1 = v1, sub_by_terms(v0, quo * v1)
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
        assert add_by_terms(u * f, v * g) == d
        assert f.right_divmod(d)[1].is_zero()
        assert g.right_divmod(d)[1].is_zero()
        m = llcm(f, g)
        assert m.lead() == ONE
        assert m.right_divmod(f)[1].is_zero()
        assert m.right_divmod(g)[1].is_zero()
        assert m.degree == f.degree + g.degree - d.degree


def test_euclid_builds_a_constant_number_of_polynomials(monkeypatch):
    # the remainder sequence and llcm's cofactor live in coefficient lists,
    # so the only polynomials built are the few that form the result,
    # however many steps Euclid takes
    ctx = get_field(3, 10, 2, 1)
    rng = random.Random("euclid allocations")

    def dense(d):
        return SkewPoly(ctx, [rng.randrange(ctx.order - 1) for _ in range(d + 1)])

    pairs = {d: (dense(d), dense(d - 1)) for d in (30, 60)}
    built = []
    init = SkewPoly.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(SkewPoly, "__init__", counting_init)
    counts = {}
    for d, (f, g) in pairs.items():
        for op in (grcd, llcm):
            built.clear()
            op(f, g)
            counts[op.__name__, d] = len(built)
    assert counts["grcd", 30] == counts["grcd", 60] <= 2
    assert counts["llcm", 30] == counts["llcm", 60] <= 3


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
