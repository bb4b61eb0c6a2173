"""Minimal vanishing polynomials of point sets and the structure they induce.

The minimal polynomial of a finite set is the monic skew polynomial of least
degree that evaluates to zero on every point.  It is built one point at a
time: a point the current polynomial already kills is skipped, otherwise the
polynomial is extended by the linear factor whose root is the point
conjugated by the current value.  Degree growth therefore counts exactly the
"independent" points, which is what bases below rest on.  That greedy is one
field kernel, field.grow_minimal, which grows a coefficient list in place and
returns the points it kept: a SkewPoly is built once, at the end, and rank
counts the points kept, building none.

The matroid is the direct sum of {0} and one submatroid per conjugacy class
(Lam & Leroy, "Vandermonde and Wronskian matrices over division rings",
J. Algebra 1988), and warping carries each class's flats one-to-one onto the
F_q-subspaces of the field.  Rank, closure and lift read one split of a
point set into those summands, _class_parts.  Rank adds [0 in the set] to
each class part's minimal-polynomial degree, at most m, the number of points
the greedy keeps.  Warp kills F_q*, so each class's flats are projective
geometries: a closure is the warp image of the lines of the span of each
part's unwarped points, one point per line, with no scan of the field.
"""

from __future__ import annotations

from typing import Iterable

from .conjugacy import ClassId, class_labels, class_of, unwarp, unwarp_all, warp
from .errors import MixedClasses
from .field import Fe, FieldCtx, ONE, grow_minimal
from .skewpoly import SkewPoly


def canonical_points(points: Iterable[Fe]) -> tuple[Fe, ...]:
    """Deduplicated canonical order: zero first, then ascending log."""
    return tuple(sorted(set(points)))


def minimal_poly_and_basis(
    ctx: FieldCtx, points: Iterable[Fe], *, rank: int | None = None
) -> tuple[SkewPoly, tuple[Fe, ...]]:
    """The minimal polynomial and the points that raised its degree, taken
    greedily in the order given (field.grow_minimal): the polynomial does
    not depend on that order, the basis does.  With rank, the greedy stops
    once it holds rank of them: when they span a flat of that rank, every
    later point is a zero of the polynomial by then, so the polynomial is
    the same."""
    coeffs = [ONE]
    picks = grow_minimal(ctx, coeffs, points, rank)
    return SkewPoly(ctx, coeffs), tuple(picks)


def minimal_poly(ctx: FieldCtx, points: Iterable[Fe]) -> SkewPoly:
    """Monic least-degree skew polynomial vanishing on the set (1 for the
    empty set), grown over the points in the order given; the result does
    not depend on that order."""
    return minimal_poly_and_basis(ctx, points)[0]


def _class_parts(ctx: FieldCtx, points: Iterable[Fe]) -> dict[ClassId, list[Fe]]:
    """The points by class, each part in the order given, zero under None."""
    parts: dict[ClassId, list[Fe]] = {}
    for b in points:
        parts.setdefault(class_of(ctx, b), []).append(b)
    return parts


def rank_of(ctx: FieldCtx, points: Iterable[Fe]) -> int:
    """Rank in the direct sum, over _class_parts: 1 for zero, plus each class
    part's minimal-polynomial degree, at most m, where its greedy stops."""
    parts = _class_parts(ctx, points)
    return (parts.pop(None, None) is not None) + sum(
        len(grow_minimal(ctx, [ONE], part, ctx.m)) for part in parts.values()
    )


def is_p_independent(ctx: FieldCtx, points: Iterable[Fe]) -> bool:
    """True when the rank equals the set size."""
    pts = set(points)
    return rank_of(ctx, pts) == len(pts)


def p_basis(ctx: FieldCtx, points: Iterable[Fe], *, rank: int | None = None) -> tuple[Fe, ...]:
    """The canonical P-basis: the greedy independent subset, with the same
    closure, over the points in canonical order.  With rank, the points are
    walked as given, so they must arrive in canonical order, and the greedy
    stops once it holds rank of them, as in minimal_poly_and_basis."""
    walk = canonical_points(points) if rank is None else points
    return minimal_poly_and_basis(ctx, walk, rank=rank)[1]


def lift(ctx: FieldCtx, points: Iterable[Fe]) -> list[list[Fe]]:
    """Coordinates of canonical warp preimages of a set of one class part;
    it is P-independent exactly when these vectors are F_q-independent."""
    parts = _class_parts(ctx, canonical_points(points))
    if len(parts) > 1 or None in parts:
        raise MixedClasses(f"points span classes {class_labels(ctx, parts)}")
    return [ctx.coords(unwarp(ctx, b, ell)) for ell, part in parts.items() for b in part]


def closure(ctx: FieldCtx, points: Iterable[Fe]) -> tuple[Fe, ...]:
    """All zeros of the minimal polynomial, the warp image of the lines of
    the span, per part of _class_parts: zero if the set holds it, and for
    each class l present, one point g^l * warp(t) per line of the F_q-span
    of the part's unwarped points, unwarped in one pass.  A line is held as
    its least-log element t; F_q* is the logs j * class_size, so t is x mod
    class_size for any x on the line, and warp is constant on it."""
    parts = _class_parts(ctx, points)
    out = set(parts.pop(None, ()))
    for ell, part in parts.items():
        lines: set[Fe] = set()
        for t in unwarp_all(ctx, part, ell):
            if t not in lines:
                # t's line joins, and the line of x + c*t for each held x and c in F_q*
                if lines:
                    multiples = [ctx.mul(c, t) for c in ctx.subfield_units]
                    lines |= {ctx.add(x, ct) % ctx.class_size for x in lines for ct in multiples}
                lines.add(t)
        out.update(ctx.mul(ell, warp(ctx, t)) for t in lines)
    return canonical_points(out)
