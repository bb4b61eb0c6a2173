"""Conjugacy classes of the twist and the warp map that indexes them.

warp(a) = sigma(a)/a, which is a^(q^s - 1), is multiplicative, kills F_q*,
and its image is the class of 1; conjugating a by c multiplies a by warp(c).
The nonzero elements split into q-1 classes C(g^l), l = 0..q-2, each of size
(q^m - 1)/(q - 1), and the class does not depend on which power of the
Frobenius is used as the twist.  Elements are discrete logs, so both the
class index and the canonical warp inverse are integer arithmetic mod
q^m - 1: the class of g^a is a mod (q - 1), and warp multiplies logs by
q^s - 1.  Every use of q^s here reads the context's twist, q^s mod q^m - 1,
so q^s is never expanded, and the canonical unwarp multiplies by the
context's unwarp_factor, the inverse of [s]_q modulo the class size, which
the context computes once.  The canonical unwarp is the paper's first route,
the least-log point of a kernel line, in closed form; its second route is
one exponentiation when the class size is coprime to q^s - 1.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import InapplicableField, WrongClass, ZeroArgument, ZeroConjugator
from .field import Fe, FieldCtx, ZERO

# A class id is None for the class of zero, else l in 0..q-2 (the class of g^l).
ClassId = int | None


def warp(ctx: FieldCtx, a: Fe) -> Fe:
    """sigma(a)/a = a^(q^s - 1); undefined at zero.  As sigma(a) is a^twist,
    its log is a's times twist - 1: closure and relay forwarding warp every
    element they emit."""
    if a == ZERO:
        raise ZeroArgument("warp is undefined at zero")
    return a * (ctx.twist - 1) % (ctx.order - 1)


def conjugate(ctx: FieldCtx, a: Fe, c: Fe) -> Fe:
    """a conjugated by c: a * warp(c), whose log is a's plus warp(c)'s.
    Zero is fixed by conjugation."""
    if c == ZERO:
        raise ZeroConjugator("conjugation by zero is undefined")
    if a == ZERO:
        return ZERO
    return (a + c * (ctx.twist - 1)) % (ctx.order - 1)


def class_of(ctx: FieldCtx, a: Fe) -> ClassId:
    """The class index of a: None for zero, else l with a in C(g^l).

    Warp factors have logs divisible by q - 1, so the log of a modulo q - 1
    is what conjugation leaves fixed.
    """
    if a == ZERO:
        return None
    return a % (ctx.q - 1)


def class_elements(ctx: FieldCtx, ell: int) -> tuple[Fe, ...]:
    """C(g^l) in canonical order: logs l, l+(q-1), l+2(q-1), ..."""
    ell = ell % (ctx.q - 1)
    return tuple(ell + j * (ctx.q - 1) for j in range(ctx.class_size))


def class_invariance_holds(ctx: FieldCtx, a: Fe) -> bool:
    """Check by enumeration that conjugating by every nonzero c yields the
    same set whether the twist uses the context's s or s = 1."""
    if a == ZERO:
        return True
    with_s = {conjugate(ctx, a, c) for c in ctx.nonzero_elements()}
    with_1 = {ctx.mul(a, ctx.pow(c, ctx.q - 1)) for c in ctx.nonzero_elements()}
    return with_s == with_1


def unwarp_method2(ctx: FieldCtx, alpha: Fe, ell: int) -> Fe:
    """Solve g^l * warp(a) = alpha by one exponentiation: a = beta^t with
    (q^s - 1) t = 1 mod class size.  Needs those to be coprime; q^s is taken
    mod q^m - 1, which the class size divides."""
    e = ctx.twist - 1
    if math.gcd(e, ctx.class_size) != 1:
        raise InapplicableField(
            f"gcd({ctx.class_size}, {e}) != 1; exponentiation cannot invert warp"
        )
    ell = ell % (ctx.q - 1)
    if class_of(ctx, alpha) != ell:
        raise WrongClass(f"element is not in class {ell}")
    t = pow(e, -1, ctx.class_size)
    return ctx.pow(ctx.div(alpha, ell), t)


def unwarp_all(ctx: FieldCtx, alphas: Iterable[Fe], ell: int) -> list[Fe]:
    """unwarp of each element of alphas, all in class ell: one pass checks
    each element's class and solves for its preimage, so a caller holding a
    pool of one class (a relay) pays one class check per element."""
    q1, cs, factor = ctx.q - 1, ctx.class_size, ctx.unwarp_factor
    ell %= q1
    out = []
    for alpha in alphas:
        if alpha == ZERO or alpha % q1 != ell:
            raise WrongClass(f"element is not in class {ell}")
        out.append((alpha - ell) // q1 * factor % cs)
    return out


def unwarp(ctx: FieldCtx, alpha: Fe, ell: int) -> Fe:
    """The least-log warp preimage within a class: the least-log point of
    the kernel line of b -> g^l sigma(b) - alpha b, the paper's first route.
    For alpha = g^(l + j(q-1)) its log t solves t [s]_q = j mod class size,
    [s]_q = (q^s - 1)/(q - 1), which gcd(s, m) = 1 makes invertible; the
    fiber is t plus multiples of the class size.  The inverse of [s]_q is
    the context's unwarp_factor, a constant of the context (see FieldCtx)."""
    return unwarp_all(ctx, (alpha,), ell)[0]


def class_label(ctx: FieldCtx, cid: ClassId) -> str:
    """Class name for display: C(0), C(1), C(g1), ..."""
    if cid is None:
        return "C(0)"
    return f"C({ctx.format_element(cid % (ctx.q - 1))})"


def class_labels(ctx: FieldCtx, cids: Iterable[ClassId]) -> str:
    """The labels of a set of classes, comma-separated: C(0) first, then by index."""
    ordered = sorted(set(cids), key=lambda cid: (cid is not None, cid))
    return ", ".join(class_label(ctx, cid) for cid in ordered)
