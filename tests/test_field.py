import itertools
import random
import sys
import time

import pytest

from oracles import add_by_terms, is_primitive_by_digits, mat_vec_by_terms
from test_golden_highrank import _spec as _high_rank_spec
from skewmatroid import (
    BadDegreeDivisibility,
    DivisionByZero,
    FieldCtx,
    FieldTooLarge,
    GcdViolation,
    NonPrimeP,
    NonPrimitiveModpoly,
    ONE,
    ParseError,
    SkewPoly,
    ZERO,
    field_from_spec,
    get_field,
    simulate,
)
from skewmatroid import field
from skewmatroid.field import (
    _ZechLogs,
    _default_modpoly,
    _is_prime,
    _is_primitive,
    _prime_factors,
    _zech_table,
    add_scaled,
    grow_minimal,
    kernel,
    mat_rank,
    rref,
)


# ---------------------------------------------------------------- oracle
#
# Independent route to the default modulus: plain digit arithmetic, no
# discrete-log tables.  A candidate encodes a monic polynomial in base p;
# it is the default iff it is the smallest one under which x has
# multiplicative order exactly p^n - 1.

def _digits_of(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _naive_default_modpoly(p: int, n: int) -> int:
    base = p**n
    for cand in range(base + 1, 2 * base):
        if cand % p == 0:
            continue
        mod = _digits_of(cand, p, n + 1)
        if n == 1:
            # x is the integer a = -c0 mod p: step its powers by multiplication
            a = v = (-mod[0]) % p
            seen = 1
            while v not in (0, 1) and seen <= base:
                v = v * a % p
                seen += 1
            if v == 1 and seen == base - 1:
                return cand
            continue
        cur = [0] * n
        cur[1] = 1
        seen = 1
        ok = True
        while cur != [1] + [0] * (n - 1):
            # multiply by x, reduce by the monic modulus
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for j in range(n):
                    cur[j] = (cur[j] - lead * mod[j]) % p
            seen += 1
            if all(c == 0 for c in cur) or seen > base:
                ok = False
                break
        if ok and seen == base - 1:
            return cand
    raise AssertionError("no primitive polynomial found")


@pytest.mark.parametrize(
    "p,n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2)]
)
def test_default_modpoly_matches_ascending_scan(p, n):
    ctx = get_field(p, n, 1, 1)
    assert ctx.modpoly == _naive_default_modpoly(p, n)


def test_pinned_default_moduli():
    # frozen from the ascending-scan oracle above
    assert get_field(2, 2, 1, 1).modpoly == 7
    assert get_field(2, 3, 1, 1).modpoly == 11
    assert get_field(2, 4, 2, 1).modpoly == 19
    assert get_field(2, 5, 1, 1).modpoly == 37
    assert get_field(2, 6, 1, 1).modpoly == 67
    assert get_field(3, 2, 1, 1).modpoly == 14
    # from the parent's exhaustive table walk over every candidate
    assert _default_modpoly(2, 16) == 65581
    assert _default_modpoly(3, 10) == 59081  # x^10 + x^3 + x + 2
    assert _default_modpoly(2, 20) == 1048585
    assert _default_modpoly(3, 12) == 531656
    assert _default_modpoly(1021, 2) == 1043472


def test_order_test_matches_ascending_scan_up_to_4096():
    pairs = [(p, n) for p in range(2, 4097) if _is_prime(p) for n in range(1, 13) if p**n <= 4096]
    assert len(pairs) == 604
    for p, n in pairs:
        assert _default_modpoly(p, n) == _naive_default_modpoly(p, n), (p, n)


def test_order_test_matches_the_digit_oracle_on_every_candidate():
    # Explicit moduli take the same test as the default search, so it must
    # agree on every candidate, not only up to the defaults.  Every (p, n)
    # with p^n <= 256, n = 1 and odd p included, in full: the packed test
    # against the digit-list oracle where c % p != 0, and the constructor on
    # every c, which raises NonPrimitiveModpoly exactly where it rejects.
    pairs = [(p, n) for p in range(2, 257) if _is_prime(p) for n in range(1, 9) if p**n <= 256]
    assert len(pairs) == 70
    for p, n in pairs:
        primes = list(_prime_factors(p**n - 1))
        for c in range(p**n, 2 * p**n):
            want = c % p != 0 and is_primitive_by_digits(p, n, c, primes)
            if c % p:
                assert _is_primitive(p, n, c, primes) == want, (p, n, c)
            if want:
                assert FieldCtx(p, n, n, 1, c).modpoly == c
            else:
                with pytest.raises(NonPrimitiveModpoly):
                    FieldCtx(p, n, n, 1, c)
    # 2,000 candidates sampled across larger fields, whose products take
    # other slot widths
    fields = [(2, 16), (3, 10), (3, 12), (5, 8), (7, 7), (1021, 2)]
    factors = {pn: list(_prime_factors(pn[0] ** pn[1] - 1)) for pn in fields}
    rng = random.Random(37)
    accepted = dict.fromkeys(fields, 0)
    for i in range(2000):
        p, n = fields[i % len(fields)]
        c = p**n + rng.randrange(1, p**n)
        while c % p == 0:
            c = p**n + rng.randrange(1, p**n)
        want = is_primitive_by_digits(p, n, c, factors[p, n])
        assert _is_primitive(p, n, c, factors[p, n]) == want, (p, n, c)
        accepted[p, n] += want
    assert all(accepted.values()), accepted


# ------------------------------------------------------------ construction


def test_construction_errors():
    with pytest.raises(NonPrimeP):
        get_field(4, 2, 1, 1)
    with pytest.raises(NonPrimeP):
        get_field(1, 2, 1, 1)
    with pytest.raises(BadDegreeDivisibility):
        get_field(2, 4, 3, 1)
    with pytest.raises(GcdViolation):
        get_field(2, 4, 1, 2)  # gcd(s, m) = 2
    with pytest.raises(FieldTooLarge):
        get_field(2, 21, 1, 1)
    with pytest.raises(FieldTooLarge):
        get_field(4, 21, 1, 1)  # the size bound comes first
    with pytest.raises(NonPrimitiveModpoly):
        get_field(2, 4, 2, 1, 31)  # irreducible but of order 5
    with pytest.raises(NonPrimitiveModpoly):
        get_field(2, 4, 2, 1, 20)  # divisible by x
    with pytest.raises(NonPrimitiveModpoly):
        get_field(2, 4, 2, 1, 3)  # not monic of degree n
    with pytest.raises(NonPrimitiveModpoly):
        get_field(2, 4, 2, 1, 21)  # (x^2+x+1)^2: reducible, x of order 6
    with pytest.raises(NonPrimitiveModpoly):
        get_field(3, 2, 1, 1, 10)  # x^2+1: irreducible, x of order 4
    with pytest.raises(NonPrimitiveModpoly):
        get_field(3, 2, 1, 1, 12)  # x^2+x: divisible by x, odd p


def _spec_string(ctx: FieldCtx) -> str:
    """The spec that names ctx, its modulus included."""
    return f"{ctx.p},{ctx.n},{ctx.k},{ctx.s},{ctx.modpoly}"


def test_context_attributes(f16):
    assert (f16.p, f16.n, f16.k, f16.s) == (2, 4, 2, 1)
    assert (f16.q, f16.m, f16.order) == (4, 2, 16)
    assert f16.class_size == 5
    assert f16.subfield_elements == (ZERO, 0, 5, 10)
    assert f16.basis == (0, 1)
    assert _spec_string(f16) == "2,4,2,1,19"
    assert f16.modpoly_string() == "x^4 + x + 1"


def _modpoly_by_digits(p: int, modpoly: int) -> str:
    """The modulus written from its base-p digits, highest power first: a
    nonzero digit d at power j as d*x^j, with x^1 written x, and d = 1 left
    out before a power of x."""
    digits = []
    while modpoly:
        modpoly, d = divmod(modpoly, p)
        digits.append(d)
    terms = []
    for j, d in enumerate(digits):
        if d:
            power = "" if j == 0 else "x" if j == 1 else f"x^{j}"
            coeff = "" if d == 1 and j else str(d)
            terms.append(f"{coeff}*{power}".strip("*"))
    return " + ".join(reversed(terms))


def test_modpoly_string_reads_the_base_p_digits():
    # every default modulus with n >= 2 up to order 2^12, odd p and digits
    # above 1 among them, and an explicit modulus that is not the default
    pairs = [(p, n) for p in range(2, 65) if _is_prime(p) for n in range(2, 13) if p**n <= 4096]
    ctxs = [get_field(p, n, n, 1) for p, n in pairs] + [get_field(2, 4, 2, 1, 25)]
    for ctx in ctxs:
        assert ctx.modpoly_string() == _modpoly_by_digits(ctx.p, ctx.modpoly), ctx
    assert get_field(3, 2, 1, 1).modpoly_string() == "x^2 + x + 2"
    assert get_field(2, 4, 2, 1, 25).modpoly_string() == "x^4 + x^3 + 1"


def test_cache_normalizes_default_modpoly():
    assert get_field(2, 4, 2, 1) is get_field(2, 4, 2, 1, 19)
    assert get_field(2, 2, 1, 1) is get_field(2, 2, 1, 1, 7)
    other = get_field(2, 4, 2, 1, 25)
    assert other is not get_field(2, 4, 2, 1) and other.modpoly == 25


# ------------------------------------------------- arithmetic vs digit oracle
#
# Rebuild the log <-> digit-vector correspondence by naive multiplication,
# then check every operation against componentwise digit arithmetic.

def _digit_tables(ctx):
    mod = _digits_of(ctx.modpoly, ctx.p, ctx.n + 1)
    value = [0] * ctx.n
    value[0] = 1
    table = []
    for _ in range(ctx.order - 1):
        table.append(tuple(value))
        lead = value[-1]
        value = [0] + value[:-1]
        if lead:
            for j in range(ctx.n):
                value[j] = (value[j] - lead * mod[j]) % ctx.p
    return table


# the last three have two nonzero low terms and a coefficient above 1:
# x^3+3x+2, x^2+x+3 and x^5+2x+1
@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1", "5,3,1,1", "7,2,1,1", "3,5,1,1"])
def test_arithmetic_against_digit_oracle(spec):
    ctx = field_from_spec(spec)
    table = _digit_tables(ctx)
    zero_vec = tuple([0] * ctx.n)
    index = {vec: i for i, vec in enumerate(table)}
    assert len(index) == len(table) and zero_vec not in index

    def vec_of(a):
        return zero_vec if a == ZERO else table[a]

    def log_of(vec):
        return ZERO if vec == zero_vec else index[vec]

    els = list(ctx.elements())
    for a in els:
        for b in els:
            want = tuple((x + y) % ctx.p for x, y in zip(vec_of(a), vec_of(b)))
            assert ctx.add(a, b) == log_of(want)
            if a == ZERO or b == ZERO:
                assert ctx.mul(a, b) == ZERO
            else:
                assert ctx.mul(a, b) == (a + b) % (ctx.order - 1)
        want = tuple((-x) % ctx.p for x in vec_of(a))
        assert ctx.neg(a) == log_of(want)
        if a != ZERO:
            assert ctx.mul(a, ctx.inv(a)) == ONE
            assert ctx.pow(a, ctx.order - 1) == ONE


def _x_power(mod, p, n, e):
    """x^e reduced by the monic modulus with digit list `mod`."""

    def mul(a, b):
        prod = [0] * (2 * n)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for d in range(2 * n - 1, n - 1, -1):
            lead = prod[d] % p
            for j in range(n + 1):
                prod[d - n + j] -= lead * mod[j]
        return tuple(c % p for c in prod[:n])

    # x itself, reduced: for n = 1 the modulus is x + mod[0]
    base = (0, 1) + (0,) * (n - 2) if n > 1 else (-mod[0] % p,)
    out = (1,) + (0,) * (n - 1)
    while e:
        if e & 1:
            out = mul(out, base)
        base, e = mul(base, base), e >> 1
    return out


def _check_sampled_adds(ctx, rng, count):
    """`count` sums a + b against digit-vector addition, a tenth of them a - a."""
    mod = _digits_of(ctx.modpoly, ctx.p, ctx.n + 1)
    zero_vec = (0,) * ctx.n

    def vec_of(a):
        return zero_vec if a == ZERO else _x_power(mod, ctx.p, ctx.n, a)

    for _ in range(count):
        a = rng.randrange(ctx.order - 1)
        b = ctx.neg(a) if rng.random() < 0.1 else rng.randrange(ctx.order - 1)
        want = tuple((x + y) % ctx.p for x, y in zip(vec_of(a), vec_of(b)))
        assert vec_of(ctx.add(a, b)) == want


def test_bounded_build_3_12():
    # 531,441 elements; the table walk over 144 rejected candidates took ~50 s.
    # The context defers its Zech table, so the timed work runs through a
    # call about to read every entry, which builds it.
    start = time.process_time()
    ctx = FieldCtx(3, 12, 1, 1)
    ctx.zech(ctx.order)
    elapsed = time.process_time() - start
    assert elapsed < 5.0, f"3,12,1,1 built in {elapsed:.2f}s of CPU (> 5s)"
    assert ctx.modpoly == 531656
    _check_sampled_adds(ctx, random.Random(312), 300)


@pytest.mark.parametrize("p, n", [(997, 2), (1021, 2), (3, 12)])
def test_bounded_default_search(p, n):
    # Among the slowest default searches of legal (p, n >= 2): about 1,000
    # candidates on 997,2 and 1021,2, and 143 on 3,12.  With digit lists
    # they took 108-117 ms and 44-65 ms of CPU, now about 15 and 2 ms
    # (tests/scan_default_moduli.py times every pair).
    start = time.process_time()
    FieldCtx(p, n, 1, 1)
    elapsed = time.process_time() - start
    assert elapsed < 0.1, f"{p},{n},1,1 built in {elapsed * 1e3:.0f} ms of CPU (> 100 ms)"


# odd p, n = 1, m = 1 (k = n), s != 1 and the 2^20 cap, each with the read
# that builds its table: K + 1, K the build's cost over a lookup's, 0 on the
# smallest fields.  The last context reads coords first, whose Moore inverse
# and coordinates read by lookup without reaching K
BUILDS_AT = {
    "2,2,1,1": 1, "2,3,1,1": 1, "2,4,2,1": 1, "2,4,4,1": 1, "2,5,1,2": 2,
    "2,6,1,5": 2, "2,8,2,3": 4, "2,10,5,1": 12, "2,16,4,1": 425, "2,20,4,1": 4588,
    "3,1,1,1": 1, "3,2,1,1": 1, "3,3,1,2": 1, "3,4,2,1": 2, "3,5,5,1": 4,
    "3,10,2,1": 363, "5,2,1,1": 1, "5,3,1,1": 3, "7,1,1,1": 1, "7,2,1,1": 1,
    "11,2,2,1": 2, "101,1,1,1": 2,
}


@pytest.mark.parametrize(
    "spec, first_read",
    [(spec, "add") for spec in BUILDS_AT] + [("2,16,4,1", "coords")],
)
def test_tables_built_on_first_read(spec, first_read):
    # the first read past K builds the table: each add of two nonzero
    # elements is one read, the reads before BUILDS_AT are lookups by
    # discrete log, and that one builds
    ctx = FieldCtx(*(int(t) for t in spec.split(",")))
    assert ctx._zech == [] and ctx._logs is None and ctx._coords_inv is None
    builds_at = BUILDS_AT[spec]
    logs = ctx.zech(0)  # a call about to read nothing gets the lookup
    assert logs.break_even + 1 == builds_at
    rng = random.Random(spec)
    if first_read == "coords":
        a = rng.randrange(ctx.order - 1)
        coords = ctx.coords(a)
        assert type(ctx._coords_inv) is list and ctx._zech == []
        assert ctx.uncoords(coords) == a
    # 200 sums against the digit oracle, up to 100 of them by lookup
    lookups = builds_at - 1 - logs.reads
    checked = min(100, lookups)
    _check_sampled_adds(ctx, rng, checked)
    for _ in range(lookups - checked):
        ctx.add(ONE, rng.randrange(ctx.order - 1))
    assert ctx._zech == [] and logs.reads == builds_at - 1
    ctx.add(ONE, ONE)
    assert len(ctx._zech) == ctx.order - 1 and ctx._logs is None
    _check_sampled_adds(ctx, rng, 200 - checked)


def test_zech_table_is_four_bytes_an_entry():
    # 2^20 - 1 logs; a list of ints held 40 MiB.  A call about to make
    # 4,588 reads, one past K, builds the table at its first read
    ctx = FieldCtx(2, 20, 4, 1)
    add_scaled(ctx, [ONE] * 4588, [ONE] * 4588, 5)
    assert len(ctx._zech) == ctx.order - 1 and ctx._logs is None
    assert sys.getsizeof(ctx._zech) < 5 * 2**20


# every (p, n >= 2) of order up to 2^12, and the fields of test_log_loops.SPECS
# up to that order (2,16,4,1 and 3,10,2,1 take about 5 s each, so the every-i
# check on them is in tests/scan_zech_lookups.py)
SMALL_PN = sorted(
    {(p, n) for p in range(2, 65) if _is_prime(p) for n in range(2, 13) if p**n <= 4096}
    | {(2, 1), (3, 1), (101, 1)}
)


@pytest.mark.parametrize("p, n", SMALL_PN)
def test_zech_lookup_matches_the_table_on_every_entry(p, n):
    modpoly = _default_modpoly(p, n)
    logs = _ZechLogs(p, n, modpoly)
    assert [logs[i] for i in range(p**n - 1)] == list(_zech_table(p, n, modpoly))


# orders 2^16 to 2^20: n = 1 (65,543 - 1 = 2 * 32,771), odd p, N = 2^19 - 1
# prime, and the cap; 400 sampled entries each, 2,000 in all
@pytest.mark.parametrize("spec", ["2,16,4,1", "17,4,1,1", "2,19,1,1", "2,20,4,1", "65543,1,1,1"])
def test_zech_lookup_matches_the_table_on_sampled_entries(spec):
    ctx = get_field(*(int(t) for t in spec.split(",")))
    logs = _ZechLogs(ctx.p, ctx.n, ctx.modpoly)
    table = ctx.zech(ctx.order)
    for i in random.Random(spec).sample(range(ctx.order - 1), 400):
        assert logs[i] == table[i], i
    assert logs.reads == 400


# (field, call, builds): zeros on m = 20 passes K inside its kernel's
# elimination, zeros on m = 1 declares a chunk of reads at its first but a
# binomial's, which reads none, declares none, and of the high-rank
# simulations of tests/test_golden_highrank.py on 2^20 fields only the
# oracle's on m = 20 passes K; the rest stay under it
BUILD_COUNTS = [
    ("2,20,1,1", "zeros x^3+g5*x^2+x+g7", 1),
    ("2,20,20,1", "zeros x^3+g7", 0),
    ("2,20,4,1", "zeros x^3+g5*x^2+x+g7", 0),
    ("2,20,1,1", "simulate 4 rlnc", 1),
    ("2,20,1,1", "simulate 4", 0),
    ("2,20,4,1", "simulate 3 rlnc", 0),
    ("2,20,4,1", "simulate 4", 0),
]


@pytest.mark.parametrize("spec, call, builds", BUILD_COUNTS)
def test_each_call_builds_the_table_at_most_once(monkeypatch, spec, call, builds):
    made = []
    build = field._zech_table
    monkeypatch.setattr(field, "_zech_table", lambda *args: made.append(args) or build(*args))
    monkeypatch.setattr(field, "_FIELD_CACHE", {})
    ctx = field_from_spec(spec)
    verb, arg, *oracle = call.split(" ")
    if verb == "zeros":
        f = SkewPoly.parse(ctx, arg)
        assert all(f.evaluate(a) == ZERO for a in f.zeros())
    else:
        simulate(_high_rank_spec(spec, int(arg)), oracle=(oracle or [None])[0])
    assert len(made) == builds
    if builds:
        assert ctx._logs is None and len(ctx._zech) == ctx.order - 1
    else:  # lookups under K, if any: the binomial's zeros make none
        assert ctx._zech == [] and (ctx._logs is None or ctx._logs.reads <= ctx._logs.break_even)


def test_calls_that_add_nothing_build_no_table():
    ctx = FieldCtx(2, 20, 4, 1)
    assert rref(ctx, []) == ([], 0, [])
    f = SkewPoly.parse(ctx, "g3*x^2 + x + g9")
    assert f.evaluate(ZERO) == 9
    # a constant, or a side of a product with one term, meets no second term
    assert SkewPoly.parse(ctx, "g7").evaluate(5) == 7
    assert SkewPoly.parse(ctx, "g7") * f == f.scale_left(7)
    assert (f * SkewPoly.parse(ctx, "x")).coeffs == (ZERO, 9, 0, 3)
    assert f.right_divmod(SkewPoly.parse(ctx, "x^3 + g2*x")) == (SkewPoly(ctx), f)
    # ctx.add and the kernel read the table only where two terms meet
    assert add_by_terms(f, SkewPoly.parse(ctx, "g4*x^3 + g5*x^4")).coeffs == (9, ONE, 3, 4, 5)
    # the greedy's extension at zero is the product by x, with no meeting
    coeffs = list(f.coeffs)
    assert grow_minimal(ctx, coeffs, [ZERO]) == [ZERO]
    assert coeffs == list((SkewPoly.parse(ctx, "x") * f).coeffs)
    out = [ZERO] * 4
    add_scaled(ctx, out, [7, ZERO, 3], 5, 2, off=1)
    assert out == [ZERO, 19, ZERO, 11]
    assert ctx._zech == []


def test_division_and_pow_edge_cases(f16):
    with pytest.raises(DivisionByZero):
        f16.inv(ZERO)
    with pytest.raises(DivisionByZero):
        f16.div(ONE, ZERO)
    with pytest.raises(DivisionByZero):
        f16.pow(ZERO, -1)
    assert f16.pow(ZERO, 0) == ONE
    assert f16.pow(ZERO, 5) == ZERO
    assert f16.pow(7, 0) == ONE
    assert f16.pow(7, -1) == f16.inv(7)


# ------------------------------------------------------------- field axioms


@pytest.mark.parametrize("spec", ["2,2,1,1", "2,3,1,1", "3,2,1,1", "2,4,2,1"])
def test_field_axioms_exhaustive_small(spec):
    ctx = field_from_spec(spec)
    els = list(ctx.elements())
    for a, b, c in itertools.product(els, repeat=3):
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    for a in els:
        assert ctx.add(a, ZERO) == a
        assert ctx.mul(a, ONE) == a
        assert ctx.add(a, ctx.neg(a)) == ZERO
        for b in els:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)


@pytest.mark.parametrize(
    "spec", ["2,6,1,1", "2,8,2,1", "3,4,2,1", "5,2,1,1", "2,8,4,1", "7,2,1,1"]
)
def test_field_axioms_larger(spec):
    ctx = field_from_spec(spec)
    els = list(ctx.elements())
    rng = random.Random(spec)
    for a in els:
        assert ctx.add(a, ZERO) == a and ctx.mul(a, ONE) == a
        assert ctx.add(a, ctx.neg(a)) == ZERO
        if a != ZERO:
            assert ctx.mul(a, ctx.inv(a)) == ONE
    for _ in range(4000):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, b) == ctx.add(b, a)


# --------------------------------------------------------- frobenius, brackets


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1", "2,5,1,2"])
def test_frobenius_is_subfield_linear(spec):
    ctx = field_from_spec(spec)
    els = list(ctx.elements())
    for j in range(2 * ctx.m):
        for a in els:
            for b in els:
                assert ctx.frobenius(ctx.add(a, b), j) == ctx.add(
                    ctx.frobenius(a, j), ctx.frobenius(b, j)
                )
        for c in ctx.subfield_elements:
            for a in els:
                assert ctx.frobenius(ctx.mul(c, a), j) == ctx.mul(c, ctx.frobenius(a, j))
    for a in els:
        assert ctx.frobenius(a, ctx.m) == a  # full twist is the identity


@pytest.mark.parametrize(
    "spec", ["2,4,2,1", "3,2,1,1", "2,5,1,2", "2,4,2,3", "3,3,1,5", "2,4,2,-1", "2,5,1,-3"]
)
def test_bracket_identities(spec):
    ctx = field_from_spec(spec)
    for i in range(2 * ctx.m + 1):
        for j in range(2 * ctx.m + 1):
            assert ctx.bracket(i) * ctx.bracket(j) == ctx.bracket(i + j)
            assert ctx.dbracket(i) + ctx.bracket(i) * ctx.dbracket(j) == ctx.dbracket(i + j)
        assert ctx.dbracket(i) + ctx.bracket(i) == ctx.dbracket(i + 1)
    assert ctx.bracket(0) == 1 and ctx.dbracket(0) == 0
    for a in ctx.elements():
        assert ctx.pow(a, ctx.bracket(0)) == a
        for i in range(2 * ctx.m + 1):
            assert ctx.pow(a, ctx.bracket(i)) == ctx.pow(a, ctx.bracket(i % ctx.m))
            assert ctx.pow(a, ctx.bracket(i)) == ctx.frobenius(a, i)


def test_bracket_exactness_large():
    # values too big for floats must still be exact integers
    ctx = get_field(2, 20, 1, 1)
    assert ctx.bracket(60) == 2**60
    assert ctx.dbracket(60) == 2**60 - 1


# ----------------------------------------------------------- coords, parsing


@pytest.mark.parametrize(
    "spec",
    [
        "2,4,2,1", "3,2,1,1", "2,6,1,1", "2,5,1,2", "3,3,1,2", "2,1,1,1", "3,1,1,1",
        "2,6,3,1", "2,8,2,3", "3,4,2,1", "1021,2,1,1", "2,16,4,1", "2,20,1,1",
    ],
)
def test_coords_roundtrip(spec):
    ctx = field_from_spec(spec)
    els = list(ctx.elements())
    if ctx.order > 1 << 12:  # sampled
        els = [ZERO] + random.Random(spec).sample(els[1:], 300)
    subfield = set(ctx.subfield_elements)
    for a in els:
        v = ctx.coords(a)
        assert len(v) == ctx.m
        assert all(x in subfield for x in v)
        assert ctx.uncoords(v) == a
    # uncoords is the basis expansion
    for a in els:
        v = ctx.coords(a)
        acc = ZERO
        for j, c in enumerate(v):
            acc = ctx.add(acc, ctx.mul(c, ctx.basis[j]))
        assert acc == a


def test_coords_subfield_linear(f16):
    els = list(f16.elements())
    for c in f16.subfield_elements:
        for a in els:
            want = [f16.mul(c, x) for x in f16.coords(a)]
            assert f16.coords(f16.mul(c, a)) == want


def test_parse_format_roundtrip(f16):
    for a in f16.elements():
        assert f16.parse_element(f16.format_element(a)) == a
    assert f16.parse_element("g20") == 20 % 15
    assert f16.parse_element(" g3 ") == 3  # surrounding whitespace tolerated
    for bad in ("", "g", "gg3", "2", "x", "g-1"):
        with pytest.raises(ParseError):
            f16.parse_element(bad)


def test_field_from_spec_errors():
    for bad in ("2,4", "2,4,2", "a,b,c,d", "2,4,2,1,19,3", "", "2;4;2;1"):
        with pytest.raises(ParseError):
            field_from_spec(bad)
    assert field_from_spec(" 2, 4, 2, 1 ") is get_field(2, 4, 2, 1)


def test_canonical_element_order(f16):
    els = list(f16.elements())
    assert els[0] == ZERO and els[1] == ONE
    assert els == sorted(els)


# ------------------------------------------------------------ linear algebra


@pytest.mark.parametrize("spec", ["2,4,2,1", "3,2,1,1"])
def test_rref_kernel_properties(spec):
    ctx = field_from_spec(spec)
    rng = random.Random(spec)
    els = list(ctx.subfield_elements)
    for trial in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[rng.choice(els) for _ in range(nc)] for _ in range(nr)]
        red, rank, pivots = rref(ctx, mat)
        again, rank2, pivots2 = rref(ctx, red)
        assert again == red and rank2 == rank and pivots2 == pivots
        assert rank == mat_rank(ctx, mat) and len(pivots) == rank
        ker = kernel(ctx, mat)
        assert len(ker) == nc - rank
        for vec in ker:
            assert mat_vec_by_terms(ctx, mat, vec) == [ZERO] * nr
