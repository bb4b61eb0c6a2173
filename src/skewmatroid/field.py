"""Finite field contexts with table-driven arithmetic over a distinguished subfield.

A :class:`FieldCtx` describes F = F_{p^n} together with the subfield F_q,
q = p^k (so F = F_{q^m}, m = n/k), and the automorphism sigma(a) = a^{q^s}.
Nonzero elements are stored as the discrete log of a fixed generator g (a
root of the modulus polynomial), so multiplication, inversion and powering
are integer arithmetic mod p^n - 1; addition is one read of zech[i], the
log of g^i + 1.  The ring and matrix loops accumulate through one kernel,
add_scaled, which reads zech like add, only where two terms meet.  Three
more loops evaluate skew polynomials on logs and read zech the same way:
value_at, the value at one point; grow_minimal, the greedy minimal
polynomial, which evaluates by value_at and multiplies in place by one
linear factor a point it keeps; and vanishing_points, which the
simulator's class scan and zeros on m = 1 read, the points of a range of
logs at which a skew polynomial vanishes.  The context owns the twist:
sigma multiplies logs by q^s mod p^n - 1, so q^s is never expanded; the
exact bracket and dbracket read s only through its representative in 1..m.

The default modulus is the smallest monic primitive one.  Candidates are
accepted by an order test on x (square-and-multiply on residues packed into
ints, one integer product a step), so no table is built for a rejected one.
A context builds no table up front.  Its first reads of zech are lookups
by discrete logarithm on packed residues (Pohlig-Hellman, with a
baby-step giant-step per prime factor of p^n - 1), counted by the context;
the Zech table (an array of p^n - 1 4-byte logs) is built once a call
about to read would take the reads past K, the table's build cost over one
lookup's, in one pass that works for every p, from antilog and log arrays
that are dropped afterwards.  K is 0 on the smallest fields, which build
on their first read.  Class indices, warps and the canonical unwarp
are closed forms on the log, so a caller that never adds two elements
reads nothing, and the subfield is a range of logs.

F_q-coordinates w.r.t. the basis 1, g, ..., g^(m-1) solve the sigma-Moore
system sum_j c_j sigma^i(b_j) = sigma^i(a), i < m, whose matrix is inverted
by the first coordinate read, once per context.  The module also provides
Gaussian elimination over the field, operating on plain lists of elements,
which is all the linear algebra the rest of the package needs.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadDegreeDivisibility,
    DivisionByZero,
    FieldTooLarge,
    GcdViolation,
    NonPrimeP,
    NonPrimitiveModpoly,
    ParseError,
)

# A field element is an int: ZERO, or the discrete log (0 .. order-2) of the
# generator.  Sorting ints therefore gives the canonical element order used
# throughout: zero first, then ascending log.
Fe = int
ZERO: Fe = -1
ONE: Fe = 0

MAX_ORDER = 1 << 20
_ZECH_CHUNK = 1 << 14  # Zech entries converted per step of the build
_SCAN_BLOCK = 1 << 6  # points per declaration of vanishing_points' reads


def _prime_factors(v: int) -> Iterator[int]:
    """Distinct prime factors of v >= 1 in ascending order, by trial division."""
    d = 2
    while d * d <= v:
        if v % d == 0:
            yield d
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        yield v


def _is_prime(v: int) -> bool:
    return v >= 2 and next(_prime_factors(v)) == v


def _digits(value: int, p: int, width: int) -> list[int]:
    # base-p digits, least significant (x^0 coefficient) first
    out = []
    for _ in range(width):
        value, r = divmod(value, p)
        out.append(r)
    return out


class _Residues:
    """F_p[x]/(modpoly), modpoly monic of degree n given by its digits, with
    residues packed into ints: coefficient j in the w-bit slot j, so a
    product is one integer product (Kronecker substitution).  reduce takes a
    product of two reduced residues, or one shifted a slot up (times x), to
    its remainder by Barrett's quotient t = (c // x^n) * mu // x^(n-1), where
    mu = x^(2n-1) // modpoly: the remainder is c + t * (x^n mod modpoly) in
    its low n slots.  Slots stay below n^2 (p-1)^3 < 2^sb, and every slot is
    taken mod p at once by a multiply-shift quotient, exact below 2^sb; with
    w = 2sb + 2 bits the slots never carry into each other.  A reduced
    residue has every slot in 0..p-1, so equal residues are equal ints."""

    def __init__(self, p: int, n: int, digits: list[int]):
        sb = (n * n * (p - 1) ** 3).bit_length()
        w, sh = 2 * sb + 2, sb + p.bit_length()
        M = -(-(1 << sh) // p)  # c // p = c * M >> sh for every c < 2^sb
        low = (1 << w * n) - 1
        qmask = low // ((1 << w) - 1) * ((1 << w - sh) - 1)
        wn, wt = w * n, w * (n - 1)
        L = sum(-d % p << w * j for j, d in enumerate(digits))  # x^n mod modpoly
        # mu's digits are the top digits of x^(n-1), ..., x^(2n-2) mod modpoly
        mu, r = 0, 1 << wt
        for _ in range(n):
            t = r >> wt
            mu = mu << w | t
            r = (r << w & low) + t * L
            r -= p * (r * M >> sh & qmask)
        self.p, self.w, self.x = p, w, 1 << w
        self._reducer = (p, M, sh, qmask, low, wn, wt, mu, L)

    def reduce(self, c: int) -> int:
        p, M, sh, qmask, low, wn, wt, mu, L = self._reducer
        t = (c >> wn) * mu >> wt
        t -= p * (t * M >> sh & qmask)
        v = (c & low) + (t * L & low)
        return v - p * (v * M >> sh & qmask)

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply, for e >= 0 if a = x, which multiplies
        by a shift, so a step is one reduction; any other a is a reduced
        residue and e >= 1, and a step is one or two reductions."""
        reduce = self.reduce
        if a == self.x:
            v = 1
            for bit in bin(e)[2:]:
                v = reduce(v * v << self.w if bit == "1" else v * v)
        else:
            v = a
            for bit in bin(e)[3:]:
                v = reduce(v * v)
                if bit == "1":
                    v = reduce(v * a)
        return v


def _is_primitive(p: int, n: int, modpoly: int, primes: list[int]) -> bool:
    """Whether x has multiplicative order N = p^n - 1 modulo the monic modpoly
    of degree n, given the primes dividing N: x^N = 1 and x^(N/r) != 1 for
    every such r (Lidl & Niederreiter, Finite Fields).  This is exact for a
    reducible modpoly too: x of order N makes every nonzero residue a unit,
    so the quotient ring is a field and modpoly is primitive.  Two exact
    rejections come first: the norm of x, (-1)^n * modpoly(0), must generate
    F_p* (for n = 1 that is the whole test), and for n >= 2, 1 is no root.
    Powers of x are taken on packed residues (_Residues)."""
    digits = _digits(modpoly, p, n)
    norm = (-1) ** n * digits[0] % p
    if not norm or any(pow(norm, (p - 1) // r, p) == 1 for r in primes if (p - 1) % r == 0):
        return False
    if n == 1 or (1 + sum(digits)) % p == 0:  # x is the norm, or 1 is a root
        return n == 1
    ring = _Residues(p, n, digits)
    N = p**n - 1
    # for odd p, x of order N makes x^(N/2) the field's one element of order
    # 2, which is -1, and x^(N/2) = -1 gives x^N = 1 and x^(N/2) != 1
    first = ring.pow(ring.x, N // 2) == p - 1 if p > 2 else ring.pow(ring.x, N) == 1
    return first and all(ring.pow(ring.x, N // r) != 1 for r in primes if r > 2)


def _default_modpoly(p: int, n: int) -> int:
    # the smallest integer encoding, i.e. the lexicographically smallest
    # coefficient vector (degree n downwards), among monic primitive moduli;
    # candidates are order-tested, so no tables are built for the rejected
    primes = list(_prime_factors(p**n - 1))
    for c in range(p**n + 1, 2 * p**n):
        if c % p and _is_primitive(p, n, c, primes):
            return c
    raise NonPrimitiveModpoly("no primitive polynomial found")  # pragma: no cover


def _zech_table(p: int, n: int, modpoly: int) -> array:
    """zech[i] = log(g^i + 1) in F_p[x]/(modpoly), g = x, for a primitive
    modpoly.  It reads an antilog array (x^i packed as base-p digits) and
    its inverse, the log array with log[0] = ZERO, both dropped on return."""
    order = p**n
    # multiplying by x shifts the digits up; a nonzero top digit `lead` comes
    # back as lead * (x^n mod modpoly), which touches only the nonzero low
    # terms of the modulus
    terms = [(p**j, -d % p) for j, d in enumerate(_digits(modpoly, p, n)) if d]
    antilog = array("i", [0]) * (order - 1)
    log = array("i", [ZERO]) * order
    x = 1
    for i in range(order - 1):
        antilog[i] = x
        log[x] = i
        x *= p
        lead = x // order
        if lead:
            x -= lead * order
            for pj, c in terms:
                d = x // pj % p
                x += ((d + lead * c) % p - d) * pj
    # adding 1 changes only the constant digit, and log[0] = ZERO covers
    # g^i = -1; the table is a 4-byte array (4 MiB at 2^20, where a list
    # of ints held 40 MiB), filled a chunk at a time so that no full-length
    # list of ints exists during the build
    zech = array("i")
    for lo in range(0, order - 1, _ZECH_CHUNK):
        zech.extend([log[v - v % p + (v + 1) % p] for v in antilog[lo : lo + _ZECH_CHUNK]])
    return zech


class _ZechLogs:
    """zech[i] = log(g^i + 1) without the table, for a primitive modpoly.
    g^i = x^i is a power of x on packed residues (_Residues), and adding 1
    changes the constant slot.  The log of h = g^i + 1 is by Pohlig and
    Hellman ("An improved algorithm for computing logarithms over GF(p) and
    its cryptographic significance", IEEE Trans. IT 24(1), 1978): for each
    prime power q = r^e dividing N = p^n - 1, h^(N/q) is g^(N/q) to the
    power log mod q, read one base-r digit at a time by Shanks's baby-step
    giant-step in the subgroup of order r, at most ceil(sqrt(r)) giant steps
    a digit; the CRT joins the residues.  The powers h^(N/q) share their
    exponentiations down a product tree over the factors.  The
    factorisation, the baby steps and every per-factor power of g are made
    once, by the constructor; reads counts the lookups made."""

    def __init__(self, p: int, n: int, modpoly: int):
        self.N = N = p**n - 1
        self.ring = ring = _Residues(p, n, _digits(modpoly, p, n))
        self.reads = 0
        self.qs: list[int] = []
        self.factors = []
        lookup = 0  # the reductions a lookup takes, on average
        for r in _prime_factors(N):
            e = 1
            while N % r ** (e + 1) == 0:
                e += 1
            q = r**e
            m = math.isqrt(r - 1) + 1  # every digit is a * m + b, a, b < m
            gamma = ring.pow(ring.x, N // r)  # of order r
            baby, z = {}, 1
            for b in range(m):
                baby[z] = b
                z = ring.reduce(z * gamma)
            # (g^(N/q))^(-r^j) clears digit j before digit j + 1 is read
            clear = [ring.pow(ring.x, -(N // q) * r**j % N) for j in range(e - 1)]
            crt = N // q * pow(N // q, -1, q)
            self.qs.append(q)
            giant = ring.pow(ring.x, N // r * (r - m))  # gamma^-m
            self.factors.append((r, e, m, baby, giant, clear, crt))
            # a digit: half its giant steps, about 1.5 reductions each with
            # the probe, then its power and its clearing step, about 1.5
            # reductions a bit of r each
            lookup += e * (3 * m // 4 + 1) + 3 * e * (e + 1) * (r.bit_length() - 1) // 4
        # x^i, one reduction a bit of N; the product tree, about 1.5 a bit
        # of N on each of its levels
        L = N.bit_length()
        lookup += L + 3 * L * (len(self.qs) - 1).bit_length() // 2
        # K, the one place it is stated: the lookups a table's build costs,
        # an entry of the build costing about 7/10 of a reduction (0.4-1.3
        # measured on fields of order 2^4 to 2^20)
        self.break_even = N * 7 // (10 * lookup)

    def __getitem__(self, i: int) -> int:
        self.reads += 1
        ring = self.ring
        h = ring.pow(ring.x, i % self.N) + 1
        if h & ring.x - 1 == ring.p:  # the constant slot wrapped
            h -= ring.p
        if not h:
            return ZERO
        out = 0
        for (r, e, m, baby, giant, clear, crt), y in zip(
            self.factors, self._cofactor_powers(h, 0, len(self.qs))
        ):
            log = 0  # of y = h^(N/q) to the base g^(N/q), mod q
            for j in range(e):
                z = ring.pow(y, r ** (e - 1 - j))  # gamma^(digit j)
                for a in range(m):
                    b = baby.get(z)
                    if b is not None:
                        break
                    z = ring.reduce(z * giant)
                d = a * m + b
                log += d * r**j
                if d and j < e - 1:
                    y = ring.reduce(y * ring.pow(clear[j], d))
            out += log * crt
        return out % self.N

    def _cofactor_powers(self, h: int, lo: int, hi: int) -> list[int]:
        # h^(N/q) for each q in qs[lo:hi], given h already raised to the
        # product of the qs outside lo:hi
        if hi - lo < 2:
            return [h] * (hi - lo)
        mid, qs, ring = (lo + hi) // 2, self.qs, self.ring
        return self._cofactor_powers(ring.pow(h, math.prod(qs[mid:hi])), lo, mid) + (
            self._cofactor_powers(ring.pow(h, math.prod(qs[lo:mid])), mid, hi)
        )


class FieldCtx:
    """Immutable context for F_{q^m} over F_q with twist sigma(a) = a^{q^s}."""

    def __init__(self, p: int, n: int, k: int, s: int, modpoly: int | None = None):
        # the size cap comes first, as trial division of p and the integer p^n
        # cost time and memory that grow with p and n; p > 1 and n >= 21
        # already exceed it, so p^n is only built for p, n small
        if p > MAX_ORDER or (p > 1 and (n >= MAX_ORDER.bit_length() or p**n > MAX_ORDER)):
            raise FieldTooLarge(f"p^n exceeds the cap of {MAX_ORDER}")
        if not _is_prime(p):
            raise NonPrimeP(f"p must be prime, got {p}")
        if n < 1 or k < 1 or n % k != 0:
            raise BadDegreeDivisibility(f"need 1 <= k | n, got n={n}, k={k}")
        m = n // k
        if math.gcd(s, m) != 1:
            raise GcdViolation(f"gcd(s, m) must be 1, got s={s}, m={m}")

        self.p = p
        self.n = n
        self.k = k
        self.s = s
        self.q = p**k
        self.m = m
        self.order = p**n

        if modpoly is None:
            modpoly = _default_modpoly(p, n)
        elif not p**n <= modpoly < 2 * p**n:
            raise NonPrimitiveModpoly(
                f"modpoly {modpoly} is not monic of degree {n} over F_{p}"
            )
        elif not _is_primitive(p, n, modpoly, list(_prime_factors(p**n - 1))):
            raise NonPrimitiveModpoly(f"modpoly {modpoly} is not primitive")
        self.modpoly = modpoly
        # the Zech table is built by zech() once it has paid for itself, the
        # columns of the Moore inverse by coords; both stay in plain instance
        # attributes, as a descriptor on the class (functools.cached_property)
        # stops the interpreter specializing the read in add.  Until the
        # build, _zech is an empty list, and _logs answers reads from the
        # first; then _zech is an array of N 4-byte logs and _logs is dropped
        self._zech: array | list = []
        self._logs: _ZechLogs | None = None
        self._coords_inv: list[tuple[Fe, ...]] | None = None

        N = self.order - 1
        # number of F_q*-cosets in F*, also the size of every nonzero
        # conjugacy class and the log stride of the subfield
        self.class_size = N // (self.q - 1)
        # F_q* is the logs j * class_size, j < q - 1, held as a range: with
        # k = n, F_q is the whole field
        self.subfield_units = range(0, N, self.class_size)
        self.basis: tuple[Fe, ...] = tuple(range(m))
        # sigma^j multiplies logs by q^(js) mod N, which is q^(js mod m) mod N
        # since q^m = 1 mod N; twist is the j = 1 entry, sigma's action on logs
        self._frob = tuple(pow(self.q, j * s % m, N) for j in range(m))
        self.twist = self._frob[1 % m]
        # unwarp_factor inverts [s]_q = (q^s - 1)/(q - 1) mod class_size, as
        # gcd(s, m) = 1 allows: the canonical unwarp multiplies by it.  Modulo
        # the class size [s]_q = [s mod m]_q, read from the twist, which is
        # q^(s mod m) for m > 1; for m = 1 the class size is 1, the factor 0
        self.unwarp_factor = pow((self.twist - 1) // (self.q - 1), -1, self.class_size)
        self.minus_one: Fe = N // 2 if p != 2 else ONE  # -1 = g^(N/2) for odd p
        self._s_rep = (s - 1) % m + 1  # s in 1..m: the same sigma, bounded brackets

    @property
    def subfield_elements(self) -> tuple[Fe, ...]:
        """F_q: ZERO, then subfield_units, as a q-entry tuple built per read."""
        return (ZERO, *self.subfield_units)

    # -- element arithmetic ----------------------------------------------------

    def zech(self, reads: int = 1) -> array | _ZechLogs:
        """zech[i] = log(g^i + 1) for a caller about to make `reads` reads:
        the Zech table, or until it is built the lookup by discrete log
        (_ZechLogs), which counts its reads.  The table is built, once,
        when the reads so far plus `reads` would pass K, the build's cost
        over a lookup's (_ZechLogs.break_even).  K is 0 on the smallest
        fields, which build on the first read, and below the order on
        every field, so a caller about to read every entry builds.
        add calls it on a miss with one read, add_scaled and each linear
        factor of grow_minimal the first time two terms meet with one a
        coefficient, value_at once per call at a nonzero point with one a
        coefficient, rref once per elimination and vanishing_points once per
        block of points with the reads it makes there."""
        if not self._zech:
            if self._logs is None:
                self._logs = _ZechLogs(self.p, self.n, self.modpoly)
            if self._logs.reads + reads <= self._logs.break_even:
                return self._logs
            self._zech = _zech_table(self.p, self.n, self.modpoly)
            self._logs = None
        return self._zech

    def add(self, a: Fe, b: Fe) -> Fe:
        """a + b: one read of zech, from the table once it is built, and
        until then a lookup that counts towards K (zech())."""
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        N = self.order - 1
        try:
            z = self._zech[b - a]  # logs in 0..N-1: a negative index wraps as % N does
        except IndexError:  # the table is unbuilt, or b - a lies outside -N..N-1
            z = self.zech(1)[(b - a) % N]
        return ZERO if z == ZERO else (a + z) % N

    def neg(self, a: Fe) -> Fe:
        if a == ZERO:
            return a
        return (a + self.minus_one) % (self.order - 1)

    def mul(self, a: Fe, b: Fe) -> Fe:
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % (self.order - 1)

    def inv(self, a: Fe) -> Fe:
        if a == ZERO:
            raise DivisionByZero("inverse of zero")
        return (-a) % (self.order - 1)

    def div(self, a: Fe, b: Fe) -> Fe:
        return self.mul(a, self.inv(b))

    def pow(self, a: Fe, e: int) -> Fe:
        """a**e with the convention 0**0 = 1; e may be any integer (and is
        taken mod p^n - 1 for nonzero a)."""
        if a == ZERO:
            if e == 0:
                return ONE
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return ZERO
        return (a * e) % (self.order - 1)

    def frobenius(self, a: Fe, j: int = 1) -> Fe:
        """sigma^j(a) = a^(q^(js))."""
        if a == ZERO:
            return ZERO
        return (a * self._frob[j % self.m]) % (self.order - 1)

    def bracket(self, i: int) -> int:
        """q^(i*s'), s' = (s - 1) mod m + 1: sigma^i's exponent, exact."""
        if i < 0:
            raise ValueError("bracket index must be >= 0")
        return self.q ** (i * self._s_rep)

    def dbracket(self, i: int) -> int:
        """(q^(i*s') - 1) / (q^s' - 1): geometric-series exponent, exact."""
        if i < 0:
            raise ValueError("dbracket index must be >= 0")
        return (self.q ** (i * self._s_rep) - 1) // (self.q**self._s_rep - 1)

    # -- coordinates -----------------------------------------------------------

    def _moore_inverse(self) -> list[tuple[Fe, ...]]:
        # the Moore matrix of the basis, rows sigma^i(b_0..b_(m-1)), is
        # invertible as gcd(s, m) = 1; its inverse maps sigma^i(a) to coords,
        # and is kept as columns, column i being what sigma^i(a) scales
        m = self.m
        moore = [[self.frobenius(b, i) for b in self.basis] for i in range(m)]
        aug = [row + [ONE if r == c else ZERO for c in range(m)] for r, row in enumerate(moore)]
        return list(zip(*(row[m:] for row in rref(self, aug)[0])))

    def coords(self, a: Fe) -> list[Fe]:
        """F_q-coordinates of a with respect to self.basis: the sum of
        sigma^i(a) times column i of the Moore inverse."""
        if self._coords_inv is None:
            self._coords_inv = self._moore_inverse()
        out = [ZERO] * self.m
        if a != ZERO:
            for i, col in enumerate(self._coords_inv):
                add_scaled(self, out, col, self.frobenius(a, i))
        return out

    def uncoords(self, v: Iterable[Fe]) -> Fe:
        """sum c_j g^j: basis element j is g^j, so each term's log is c_j + j."""
        N = self.order - 1
        acc = ZERO
        for j, c in enumerate(v):
            if c != ZERO:
                acc = self.add(acc, (c + j) % N)
        return acc

    # -- iteration, parsing, printing -------------------------------------------

    def elements(self) -> Iterator[Fe]:
        yield ZERO
        yield from range(self.order - 1)

    def nonzero_elements(self) -> Iterator[Fe]:
        yield from range(self.order - 1)

    def parse_element(self, text: str) -> Fe:
        t = text.strip()
        if t == "0":
            return ZERO
        if t == "1":
            return ONE
        if t.startswith("g") and t[1:].isascii() and t[1:].isdigit():
            try:
                return int(t[1:]) % (self.order - 1)
            except ValueError:  # more digits than int() converts
                pass
        raise ParseError(f"bad element token {text!r}")

    def format_element(self, a: Fe) -> str:
        if a == ZERO:
            return "0"
        if a == ONE:
            return "1"
        return f"g{a}"

    def modpoly_string(self) -> str:
        """The modulus as a polynomial in x over F_p."""
        terms = []
        for j in range(self.n, -1, -1):
            c = (self.modpoly // self.p**j) % self.p
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                xp = "x" if j == 1 else f"x^{j}"
                terms.append(xp if c == 1 else f"{c}*{xp}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"FieldCtx({self.p},{self.n},{self.k},{self.s},modpoly={self.modpoly})"


_FIELD_CACHE: dict[tuple[int, int, int, int, int | None], FieldCtx] = {}


def get_field(p: int, n: int, k: int, s: int, modpoly: int | None = None) -> FieldCtx:
    """Cached context lookup.  Omitting the modulus and naming the default one
    explicitly yield the same object, so values from either interoperate."""
    key = (p, n, k, s, modpoly)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, n, k, s, modpoly)
        ctx = _FIELD_CACHE.setdefault((p, n, k, s, ctx.modpoly), ctx)
        _FIELD_CACHE[key] = ctx
    return ctx


def field_from_spec(text: str) -> FieldCtx:
    """Parse "p,n,k,s[,modpoly]" into a (cached) field context."""
    parts = [t.strip() for t in text.split(",")]
    bad = ParseError(f"bad field spec {text!r}; expected p,n,k,s[,modpoly]")
    # ASCII digits only: str.isdigit() also admits digits such as "²"
    if len(parts) not in (4, 5) or not all(
        t.isascii() and t.removeprefix("-").isdigit() for t in parts
    ):
        raise bad
    try:
        nums = [int(t) for t in parts]
    except ValueError:  # more digits than int() converts
        raise bad from None
    return get_field(*nums)


# -- linear algebra ------------------------------------------------------
#
# Matrices are lists of rows of Fe values, eliminated over the whole field F.
# Callers pass F_q-matrices, whose rank and kernel over F_q are those over F,
# except the Moore system of FieldCtx's coordinates, whose entries lie outside
# F_q.

def add_scaled(
    ctx: FieldCtx, out: list[Fe], coeffs: Sequence[Fe], k: int, f: int = 1, off: int = 0
) -> None:
    """out[off + j] += g^k * sigma-power of coeffs[j] on logs, in place: a
    nonzero b adds the log k + b*f, f a frob entry or an exponent, and a
    ZERO entry adds nothing.  This is the accumulation step of every ring
    and matrix loop, and the one place besides add that reads zech, only
    where two terms meet; until the table is built, the first meeting
    declares one read a coefficient to zech()."""
    N, zech = ctx.order - 1, ctx._zech
    for j, b in enumerate(coeffs, off):
        if b != ZERO:
            t = (k + b * f) % N
            y = out[j]
            if y == ZERO:
                out[j] = t
            else:
                try:
                    z = zech[t - y]
                except IndexError:  # as in add: unbuilt, or t - y outside -N..N-1
                    zech = ctx.zech(len(coeffs))
                    z = zech[(t - y) % N]
                out[j] = ZERO if z == ZERO else (y + z) % N


def value_at(ctx: FieldCtx, coeffs: Sequence[Fe], a: Fe) -> Fe:
    """The value at a of the skew polynomial with these coefficients (degree
    ascending), sum c_i a^dbracket(i), with dbracket(i) mod N kept as a
    running exponent: dbracket(i+1) = dbracket(i) q^s + 1.  0^dbracket(i) is
    1 at i = 0 only, and a constant is its own value.  Otherwise it declares
    to zech() one read a coefficient, and reads only where two terms meet."""
    if a == ZERO or len(coeffs) < 2:
        return coeffs[0] if coeffs else ZERO
    N, qs, zech = ctx.order - 1, ctx.twist, ctx._zech or ctx.zech(len(coeffs))
    acc, e = ZERO, 0
    for c in coeffs:
        if c != ZERO:
            t = (c + a * e) % N
            if acc == ZERO:
                acc = t
            else:
                z = zech[t - acc]  # both in 0..N-1, so the index wraps as % N does
                acc = ZERO if z == ZERO else (acc + z) % N
        e = (e * qs + 1) % N
    return acc


def grow_minimal(
    ctx: FieldCtx, coeffs: list[Fe], points: Iterable[Fe], rank: int | None = None
) -> list[Fe]:
    """Grow the skew polynomial f with these coefficients (degree ascending,
    lead nonzero), in place, into the least left multiple of f that also
    vanishes on the points, and return the points that raised its degree,
    taken greedily in the order given, up to rank of them; a point is read
    from the iterable only while fewer than rank are held.  A point b with
    v = f(b) nonzero (value_at) multiplies f on the left by x + a, where
    -a = b warp(v) is the point conjugated by f's value: on logs,
    b + v (q^s - 1) plus the log of -1, and a = 0 for b = 0.  Coefficient j
    of (x + a) f is sigma(f_(j-1)) + a f_j, formed from the top down, so
    that each f_j is read before it is overwritten.  As in add_scaled, zech
    is read only where two terms meet, and until the table is built the
    first meeting of a pass declares one read a coefficient of f."""
    picks: list[Fe] = []
    if rank == 0:
        return picks
    N, qs, w, neg = ctx.order - 1, ctx.twist, ctx.twist - 1, ctx.minus_one
    for b in points:
        v = value_at(ctx, coeffs, b)
        if v == ZERO:
            continue
        d, f = len(coeffs), coeffs[-1]
        coeffs.append(f * qs % N)
        a, zech = ZERO if b == ZERO else (b + v * w + neg) % N, ctx._zech
        for j in range(d - 1, 0, -1):  # f is f_j, g is f_(j-1)
            g = coeffs[j - 1]
            y = ZERO if g == ZERO else g * qs % N
            if f != ZERO and a != ZERO:
                t = (a + f) % N
                if y == ZERO:
                    y = t
                else:
                    try:
                        z = zech[t - y]
                    except IndexError:  # as in add_scaled
                        zech = ctx.zech(d)
                        z = zech[(t - y) % N]
                    y = ZERO if z == ZERO else (y + z) % N
            coeffs[j] = y
            f = g
        coeffs[0] = ZERO if f == ZERO or a == ZERO else (a + f) % N
        picks.append(b)
        if len(picks) == rank:
            break
    return picks


def vanishing_points(
    ctx: FieldCtx, coeffs: Sequence[Fe], points: range, block: int = _SCAN_BLOCK
) -> Iterator[Fe]:
    """The points b of a range of logs, in order, at which the skew
    polynomial with these coefficients (degree ascending) vanishes: sum
    g^c_i b^e_i = 0 over its nonzero terms, e_i = dbracket(i) mod N, the
    value value_at takes.  The pairs (c_i, e_i) are formed in one pass,
    relative to the first term's: divided by that term the sum is 1 plus
    the other terms, 1 + g^t is g^zech[t], and b is a zero where that and
    the middle terms sum to the lead term's negation.  So a point costs one
    multiply-mod per term but the first, and at most one Zech read for each
    term but the first and the lead; a binomial, where 1 alone must be the
    lead's negation, reads none.  Until the table is built, each block of
    `block` points declares to zech() those reads: a scan that stops after a
    few blocks makes its reads by lookup, and one block over every point
    builds the table before the first read."""
    N, qs = ctx.order - 1, ctx.twist
    rel, e, first = [], 0, None  # e = dbracket(i) mod N, as in value_at
    for c in coeffs:
        if c != ZERO:
            if first is None:
                first = c0, e0 = c, e
            else:
                rel.append(((c - c0) % N, (e - e0) % N))
        e = (e * qs + 1) % N
    if not rel:  # zero vanishes everywhere, one term nowhere
        if first is None:
            yield from points
        return
    cl, el = rel.pop()
    cl += ctx.minus_one  # a zero: 1 and the middle terms sum to g^(cl + b el)
    if not rel:
        yield from (b for b in points if (cl + b * el) % N == ONE)
        return
    (c1, e1), *rest = rel
    for lo in range(0, len(points), block):
        chunk = points[lo : lo + block]
        zech = ctx._zech or ctx.zech(len(chunk) * len(rel))
        for b in chunk:
            acc = zech[(c1 + b * e1) % N]
            for c, e in rest:
                t = (c + b * e) % N
                if acc == ZERO:
                    acc = t
                else:
                    z = zech[t - acc]  # both in 0..N-1, so the index wraps as % N does
                    acc = ZERO if z == ZERO else (acc + z) % N
            if acc == (cl + b * el) % N:
                yield b


def rref(ctx: FieldCtx, rows: list[list[Fe]]) -> tuple[list[list[Fe]], int, list[int]]:
    """Reduced row echelon form; returns (matrix, rank, pivot columns).
    Entries are logs: the pivot row is scaled by adding a log, and each
    elimination adds -f times the pivot row through add_scaled.  Until the
    table is built, the elimination first declares to zech() the reads it
    may make, ncols for each other row at each pivot, so one that would
    take the reads past K builds the table before its first lookup."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    N = ctx.order - 1
    if nrows > 1 and not ctx._zech:
        ctx.zech(min(nrows, ncols) * (nrows - 1) * ncols)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != ZERO), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = -m[r][c]
        m[r] = [ZERO if x == ZERO else (x + inv) % N for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != ZERO:
                add_scaled(ctx, m[i], m[r], m[i][c] + ctx.minus_one)  # the log of -f
        pivots.append(c)
        r += 1
    return m, len(pivots), pivots


def mat_rank(ctx: FieldCtx, rows: list[list[Fe]]) -> int:
    return rref(ctx, rows)[1]


def kernel(ctx: FieldCtx, rows: list[list[Fe]]) -> list[list[Fe]]:
    """Basis vectors v with M v = 0 (one per free column of the rref)."""
    ncols = len(rows[0]) if rows else 0
    R, _, pivots = rref(ctx, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = ctx.neg(R[i][fc])
        basis.append(v)
    return basis
