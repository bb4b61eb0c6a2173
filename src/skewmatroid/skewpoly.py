"""Skew polynomial arithmetic: twisted products, right division, gcd/lcm.

Polynomials live in F_{q^m}[x; sigma] where coefficients sit on the left and
x moves past a coefficient by twisting it: x * a = sigma(a) * x.  Division
happens on the right (f = p*g + r), which keeps remainders unique, and
evaluation at a point is the remainder of right division by (x - a),
computed directly as sum c_i * a^dbracket(i).  The greatest common right
divisor is the bare right Euclidean remainder sequence; the least common
left multiple also tracks the one cofactor it multiplies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .conjugacy import conjugate
from .errors import DivisionByZeroPoly, MixedContexts, ParseError, ZeroInput
from .field import MAX_ORDER, Fe, FieldCtx, ONE, ZERO


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

    @classmethod
    def one(cls, ctx: FieldCtx) -> "SkewPoly":
        return cls(ctx, (ONE,))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "SkewPoly":
        return cls(ctx, (ZERO, ONE))

    @classmethod
    def constant(cls, ctx: FieldCtx, c: Fe) -> "SkewPoly":
        return cls(ctx, (c,))

    @classmethod
    def monomial(cls, ctx: FieldCtx, c: Fe, e: int) -> "SkewPoly":
        return cls(ctx, (ZERO,) * e + (c,))

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

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.coeffs))

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return SkewPoly(ctx, out)

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.ctx, [self.ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        # (a x^i)(b x^j) = a sigma^i(b) x^(i+j)
        self._check(other)
        ctx = self.ctx
        if self.is_zero() or other.is_zero():
            return SkewPoly(ctx)
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == ZERO:
                continue
            for j, b in enumerate(other.coeffs):
                if b == ZERO:
                    continue
                out[i + j] = ctx.add(out[i + j], ctx.mul(a, ctx.frobenius(b, i)))
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
        ctx = self.ctx
        if g.is_zero():
            raise DivisionByZeroPoly("right division by the zero polynomial")
        d = g.degree
        r = list(self.coeffs)
        quot = [ZERO] * max(len(r) - d, 0)
        lead_g = g.lead()
        for i in range(len(r) - 1, d - 1, -1):
            if r[i] == ZERO:
                continue
            shift = i - d
            c = ctx.div(r[i], ctx.frobenius(lead_g, shift))
            quot[shift] = c
            for j, gj in enumerate(g.coeffs):
                r[shift + j] = ctx.sub(r[shift + j], ctx.mul(c, ctx.frobenius(gj, shift)))
        return SkewPoly(ctx, quot), SkewPoly(ctx, r[:d])

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, a: Fe) -> Fe:
        """Remainder of right division by (x - a), as sum c_i a^dbracket(i)."""
        ctx = self.ctx
        if a == ZERO:  # 0^dbracket(i) is 1 at i = 0 only
            return self.coeff(0)
        N, qs = ctx.order - 1, ctx.twist
        acc, e = ZERO, 0  # e = dbracket(i) mod N; dbracket(i+1) = dbracket(i) q^s + 1
        for c in self.coeffs:
            if c != ZERO:
                acc = ctx.add(acc, ctx.mul(c, (a * e) % N))
            e = (e * qs + 1) % N
        return acc

    def zeros(self) -> tuple[Fe, ...]:
        """All field elements the polynomial evaluates to zero on, in
        canonical order.  (Exhaustive scan; contexts are capped in size.)"""
        return tuple(a for a in self.ctx.elements() if self.evaluate(a) == ZERO)

    def regular_associate(self) -> "AssocPoly":
        """Ordinary polynomial with x^i replaced by x^dbracket(i); evaluating
        it agrees with skew evaluation everywhere."""
        ctx = self.ctx
        return AssocPoly(
            ctx,
            tuple((ctx.dbracket(i), c) for i, c in enumerate(self.coeffs) if c != ZERO),
        )

    def linearized_associate(self) -> "AssocPoly":
        """Additive polynomial with x^i replaced by x^bracket(i)."""
        ctx = self.ctx
        return AssocPoly(
            ctx,
            tuple((ctx.bracket(i), c) for i, c in enumerate(self.coeffs) if c != ZERO),
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
        return _format_terms(self.ctx, reversed(terms))

    def __repr__(self) -> str:
        return f"SkewPoly({self!s})"


@dataclass(frozen=True)
class AssocPoly:
    """Sparse ordinary polynomial: (exponent, coefficient) terms, exponents
    strictly increasing.  Produced by the associate maps of SkewPoly."""

    ctx: FieldCtx
    terms: tuple[tuple[int, Fe], ...]

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else -1

    def evaluate(self, a: Fe) -> Fe:
        ctx = self.ctx
        acc = ZERO
        for e, c in self.terms:
            acc = ctx.add(acc, ctx.mul(c, ctx.pow(a, e)))
        return acc

    def zeros(self) -> tuple[Fe, ...]:
        return tuple(a for a in self.ctx.elements() if self.evaluate(a) == ZERO)

    def __str__(self) -> str:
        return _format_terms(self.ctx, reversed(self.terms))


def _format_terms(ctx: FieldCtx, terms: Iterable[tuple[int, Fe]]) -> str:
    """'c*x^e + ...' from (exponent, coefficient) terms in the order given;
    "0" when there are none."""
    out = []
    for e, c in terms:
        if e == 0:
            out.append(ctx.format_element(c))
        else:
            xp = "x" if e == 1 else f"x^{e}"
            out.append(xp if c == ONE else f"{ctx.format_element(c)}*{xp}")
    return " + ".join(out) or "0"


def grcd(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic greatest common right divisor: the last nonzero remainder of the
    right Euclidean remainder sequence, normalised; no product is formed."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise ZeroInput("grcd(0, 0) is undefined")
    r0, r1 = f, g
    while not r1.is_zero():
        r0, r1 = r1, r0.right_divmod(r1)[1]
    return r0.monic()


def llcm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple.  Right Euclid on (f, g) tracks only
    the cofactor u_i of f in each remainder r_i = u_i*f + v_i*g; when the
    remainder reaches zero, u*f = -v*g is the least common left multiple,
    so no left division is ever needed."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        raise ZeroInput("llcm requires both polynomials nonzero")
    r0, r1 = f, g
    u0, u1 = SkewPoly.one(f.ctx), SkewPoly.zero(f.ctx)
    while not r1.is_zero():
        q, r2 = r0.right_divmod(r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - q * u1
    return (u1 * f).monic()


def eval_product(f: SkewPoly, g: SkewPoly, a: Fe) -> Fe:
    """(f*g)(a) without forming the product: zero when g(a) = 0, otherwise
    f(a conjugated by g(a)) * g(a)."""
    f._check(g)
    ctx = f.ctx
    gv = g.evaluate(a)
    if gv == ZERO:
        return ZERO
    return ctx.mul(f.evaluate(conjugate(ctx, a, gv)), gv)
