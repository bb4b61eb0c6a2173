"""Skew polynomial arithmetic: twisted products, right division, gcd/lcm.

Polynomials live in F_{q^m}[x; sigma] where coefficients sit on the left and
x moves past a coefficient by twisting it: x * a = sigma(a) * x.  Division
happens on the right (f = p*g + r), which keeps remainders unique, and
evaluation at a point is the remainder of right division by (x - a),
computed directly as sum c_i * a^dbracket(i), the value at a of the
regular associate.  By the paper's link, f(g^l warp(b)) b =
sum f_i g^(l dbracket(i)) sigma^i(b) is F_q-linear in b, so zeros takes a
class's roots from the kernel of one m x m matrix over F_q.  Right division,
the greatest common right divisor and the least common left multiple share
one reduction loop, _reduce, that reduces a coefficient list in place and
either stores each quotient term or applies it at once to the one cofactor
llcm tracks.

Products and right division accumulate on logs through the one kernel
field.add_scaled.  Evaluation at one point, a dot product with a running
exponent rather than an accumulation of a scaled row, is field.value_at,
which the greedy minimal polynomial (field.grow_minimal) reads too, and
zeros on m = 1 reads field.vanishing_points, the loop over a range of
points that the simulator's preload reads too.  So every read of the Zech
table is made in field.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .conjugacy import conjugate, warp
from .errors import DivisionByZeroPoly, MixedContexts, ParseError, ZeroInput
from .field import (
    MAX_ORDER, Fe, FieldCtx, ONE, ZERO, add_scaled, format_terms, kernel, value_at,
    vanishing_points,
)


class SkewPoly:
    """Coefficient list (degree ascending), highest entry nonzero; () is zero."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == ZERO:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "SkewPoly":
        return cls(ctx)

    # -- basic structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 stands in for the degree of the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> Fe:
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fe:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def _check(self, other: "SkewPoly") -> None:
        if self.ctx is not other.ctx:
            raise MixedContexts("operands come from different field contexts")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    # -- ring operations -----------------------------------------------------------

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        # (a x^i)(b x^j) = a sigma^i(b) x^(i+j): on logs, a + b q^(is) mod N
        self._check(other)
        ctx = self.ctx
        if self.is_zero() or other.is_zero():
            return SkewPoly.zero(ctx)
        frob, m = ctx._frob, ctx.m
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a != ZERO:
                add_scaled(ctx, out, other.coeffs, a, frob[i % m], i)
        return SkewPoly(ctx, out)

    def scale_left(self, c: Fe) -> "SkewPoly":
        return SkewPoly(self.ctx, [self.ctx.mul(c, a) for a in self.coeffs])

    def monic(self) -> "SkewPoly":
        if self.is_zero():
            raise ZeroInput("cannot normalize the zero polynomial")
        if self.lead() == ONE:
            return self
        return self.scale_left(self.ctx.inv(self.lead()))

    def right_divmod(self, g: "SkewPoly") -> tuple["SkewPoly", "SkewPoly"]:
        """Unique (p, r) with self = p*g + r and r zero or deg r < deg g."""
        self._check(g)
        if g.is_zero():
            raise DivisionByZeroPoly("right division by the zero polynomial")
        r = list(self.coeffs)
        quot = [ZERO] * max(len(r) - g.degree, 0)
        _reduce(self.ctx, r, g.coeffs, quot)
        return SkewPoly(self.ctx, quot), SkewPoly(self.ctx, r)

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, a: Fe) -> Fe:
        """Remainder of right division by (x - a), as sum c_i a^dbracket(i)
        (field.value_at)."""
        return value_at(self.ctx, self.coeffs, a)

    def zeros(self) -> tuple[Fe, ...]:
        """All field elements the polynomial evaluates to zero on, in
        canonical order.  x^(M+1) - x, M = m(q - 1), vanishes on the whole
        field, so each exponent i >= 1 is first folded to (i - 1) mod M + 1.
        Zero is a root when the constant term is; class l adds the closure of
        g^l warp(t) over a basis t of the kernel of b -> f(g^l warp(b)) b,
        whose matrix's column j is the image of basis element b_j.  On m = 1,
        where sigma is the identity and each class one point, the nonzero
        zeros are field.vanishing_points over every log, with its reads
        declared at once."""
        from .minimal import closure
        ctx = self.ctx
        M = ctx.m * (ctx.q - 1)
        folded = list(self.coeffs[: M + 1])
        for i in range(M + 1, len(self.coeffs)):
            j = (i - 1) % M + 1
            folded[j] = ctx.add(folded[j], self.coeffs[i])
        f = SkewPoly(ctx, folded)
        pts = [ZERO] if f.coeff(0) == ZERO else []
        if ctx.m == 1:
            N = ctx.order - 1
            return (*pts, *vanishing_points(ctx, f.coeffs, range(N), N))
        for ell in range(ctx.q - 1):
            cols = [ctx.coords(ctx.mul(f.evaluate(ctx.mul(ell, warp(ctx, b))), b)) for b in ctx.basis]
            pts += [ctx.mul(ell, warp(ctx, ctx.uncoords(t))) for t in kernel(ctx, list(zip(*cols)))]
        return closure(ctx, pts)

    def regular_associate(self) -> "AssocPoly":
        """Ordinary polynomial with x^i replaced by x^dbracket(i); evaluating
        it agrees with skew evaluation everywhere."""
        ctx = self.ctx
        return AssocPoly(
            ctx,
            tuple((ctx.dbracket(i), c) for i, c in enumerate(self.coeffs) if c != ZERO),
        )

    # -- text form --------------------------------------------------------------------

    _XPART = re.compile(r"^x(?:\^0*([0-9]+))?$")  # ASCII digits: \d admits others

    @classmethod
    def parse(cls, ctx: FieldCtx, text: str) -> "SkewPoly":
        """Grammar: poly := term ('+' term)*, term := coeff | [coeff '*'] 'x' ['^' uint],
        coeff := '0' | '1' | 'g' uint.  Repeated exponents are summed; an
        exponent above MAX_ORDER is a ParseError, raised before any allocation."""
        coeffs: dict[int, Fe] = {}
        for raw in text.split("+"):
            t = raw.replace(" ", "").replace("\t", "")
            if not t:
                raise ParseError(f"empty term in {text!r}")
            if "*" in t:
                ctext, xtext = t.split("*", 1)
                coeff = ctx.parse_element(ctext)
            elif t.startswith("x"):
                coeff, xtext = ONE, t
            else:
                coeff, xtext = ctx.parse_element(t), None
            if xtext is None:
                e = 0
            else:
                m = cls._XPART.match(xtext)
                if not m:
                    raise ParseError(f"bad term {raw.strip()!r}")
                digits = m.group(1) or "1"
                if len(digits) > len(str(MAX_ORDER)) or int(digits) > MAX_ORDER:
                    raise ParseError(f"exponent in {raw.strip()!r} exceeds the cap of {MAX_ORDER}")
                e = int(digits)
            coeffs[e] = ctx.add(coeffs.get(e, ZERO), coeff)
        width = max(coeffs) + 1 if coeffs else 0
        out = [ZERO] * width
        for e, c in coeffs.items():
            out[e] = c
        return cls(ctx, out)

    def __str__(self) -> str:
        terms = [(i, c) for i, c in enumerate(self.coeffs) if c != ZERO]
        return format_terms(reversed(terms), self.ctx.format_element, ONE)

    def __repr__(self) -> str:
        return f"SkewPoly({self!s})"


class AssocPoly(NamedTuple):
    """Sparse ordinary polynomial: (exponent, coefficient) terms, exponents
    strictly increasing.  Produced by SkewPoly.regular_associate."""

    ctx: FieldCtx
    terms: tuple[tuple[int, Fe], ...]

    def evaluate(self, a: Fe) -> Fe:
        ctx = self.ctx
        acc = ZERO
        for e, c in self.terms:
            acc = ctx.add(acc, ctx.mul(c, ctx.pow(a, e)))
        return acc

    def __str__(self) -> str:
        return format_terms(reversed(self.terms), self.ctx.format_element, ONE)


def _reduce(ctx: FieldCtx, r: list[Fe], g: Sequence[Fe], quot=None, u=None, v=()) -> None:
    """Right Euclid's one loop: r becomes r mod g on the right, in place and
    trimmed, by one add_scaled pass per quotient term c x^s, which cancels
    r_i against c sigma^s(lead g); sigma^s of lead g and of every g_j
    multiply logs by one frob entry.  The term is stored as quot[s] or, when
    quot is None and u is given, applied at once as u -= c x^s v."""
    N, frob, m, neg, d = ctx.order - 1, ctx._frob, ctx.m, ctx.minus_one, len(g) - 1
    if u is not None:
        u.extend([ZERO] * (len(r) - d + len(v) - 1 - len(u)))
    *low, lead_g = g  # the lead is left out: it cancels r_i, not read again
    for i in range(len(r) - 1, d - 1, -1):
        if r[i] != ZERO:
            shift = i - d
            fs = frob[shift % m]
            c = (r[i] - lead_g * fs) % N
            add_scaled(ctx, r, low, c + neg, fs, shift)  # r -= c sigma^shift(g_j)
            if quot is not None:
                quot[shift] = c
            elif u is not None:
                add_scaled(ctx, u, v, c + neg, fs, shift)
    del r[d:]
    for t in (r, u or ()):
        while t and t[-1] == ZERO:
            t.pop()


def grcd(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic greatest common right divisor: the last nonzero remainder of the
    right Euclidean remainder sequence, which _reduce runs on two coefficient
    lists in place, building no polynomial per step; no product is formed."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise ZeroInput("grcd(0, 0) is undefined")
    r0, r1 = list(f.coeffs), list(g.coeffs)
    while r1:
        _reduce(f.ctx, r0, r1)
        r0, r1 = r1, r0
    return SkewPoly(f.ctx, r0).monic()


def llcm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple.  Right Euclid on (f, g) tracks only
    the cofactor u_i of f in r_i = u_i*f + v_i*g, updated in _reduce's pass
    term by term; at a zero remainder u*f = -v*g is the least common left
    multiple, with no left division, and u is scaled first by the inverse of
    lead(u) sigma^(deg u)(lead f), so the one product u*f is monic."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        raise ZeroInput("llcm requires both polynomials nonzero")
    ctx = f.ctx
    r0, r1, u0, u1 = list(f.coeffs), list(g.coeffs), [ONE], []
    while r1:
        _reduce(ctx, r0, r1, u=u0, v=u1)
        r0, r1, u0, u1 = r1, r0, u1, u0
    u = SkewPoly(ctx, u1)
    return u.scale_left(ctx.inv(ctx.mul(u.lead(), ctx.frobenius(f.lead(), u.degree)))) * f


def eval_product(f: SkewPoly, g: SkewPoly, a: Fe) -> Fe:
    """(f*g)(a) without forming the product: zero when g(a) = 0, otherwise
    f(a conjugated by g(a)) * g(a)."""
    f._check(g)
    ctx = f.ctx
    gv = g.evaluate(a)
    if gv == ZERO:
        return ZERO
    return ctx.mul(f.evaluate(conjugate(ctx, a, gv)), gv)
