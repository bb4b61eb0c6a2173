"""The matroid induced on the field by minimal-polynomial degree.

Ground set: all of F_{q^m}.  A set is independent when its minimal
polynomial has degree equal to its size; rank, closure and flats follow.  A
flat is the zero set of its monic minimal polynomial, which is unique, so a
flat is known by that polynomial: rank is its degree, equality compares it,
and the points are enumerated only when read.  When sigma is the s = 1
automorphism (s = 1 mod m), the matroid is representable over F_q: lifting
each nonzero class through unwarp produces one m x class_size block per
class, assembled with a single extra column for the zero element.  Flats of
the class-of-1 submatroid correspond to F_q-subspaces of F_{q^m} through the
warp map, and that correspondence is an isometry between the subspace metric
and the flat metric d(X, Y) = rank(X) + rank(Y) - 2 * rank-of-common-part
computed via the greatest common right divisor.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple

from .conjugacy import class_elements, class_of, warp
from .errors import InapplicableField, NotC1Flat, TooLargeToEnumerate
from .field import Fe, FieldCtx, ONE, ZERO, rref
from .minimal import closure, lift, minimal_poly_and_basis
from .skewpoly import SkewPoly, grcd

# Exhaustive enumeration is offered only while what it builds, counted in
# closed form, stays small: a class's subspaces, the whole matroid's flat
# combinations, an isometry check's subspace pairs, a representation's entries.
_MAX_CLASS_FLATS = 1 << 12
_MAX_FLAT_COMBINATIONS = 1 << 15
_MAX_ISOMETRY_PAIRS = 1 << 17
_MAX_REP_ENTRIES = 1 << 20


class Flat:
    """A flat: its monic minimal polynomial, whose zero set it is and by
    which it is compared and hashed, and a P-basis that its route picked."""

    def __init__(self, ctx: FieldCtx, minpoly: SkewPoly, basis: tuple[Fe, ...]):
        self.ctx = ctx
        self.minpoly = minpoly
        self.basis = basis

    @property
    def rank(self) -> int:
        return self.minpoly.degree

    @functools.cached_property
    def points(self) -> tuple[Fe, ...]:
        """Every point of the flat in canonical order, enumerated on first read."""
        return closure(self.ctx, self.basis)

    def __eq__(self, other) -> bool:
        return isinstance(other, Flat) and self.minpoly == other.minpoly

    def __hash__(self) -> int:
        return hash(self.minpoly.coeffs)  # equal minimal polynomials share a ctx

    def __str__(self) -> str:
        inner = ", ".join(self.ctx.format_element(a) for a in self.points)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"Flat(rank={self.rank}, points={self!s})"


def matroid_closure(ctx: FieldCtx, points: Iterable[Fe]) -> Flat:
    """The flat spanned by a point set: its minimal polynomial and P-basis."""
    return Flat(ctx, *minimal_poly_and_basis(ctx, points))


class Subspace:
    """F_q-subspace of F_{q^m}, stored as reduced-echelon basis rows; equal
    to a Subspace of the same context with the same rows, hashed by them."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: FieldCtx, rows: tuple[tuple[Fe, ...], ...]):
        self.ctx = ctx
        self.rows = rows

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, vectors: Iterable[Iterable[Fe]]) -> "Subspace":
        R, rk, _ = rref(ctx, [list(v) for v in vectors])
        return cls(ctx, tuple(tuple(r) for r in R[:rk]))

    @classmethod
    def from_elements(cls, ctx: FieldCtx, elements: Iterable[Fe]) -> "Subspace":
        return cls.from_vectors(ctx, (ctx.coords(a) for a in elements))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ctx is other.ctx
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim})"


def subspace_sum(v: Subspace, w: Subspace) -> Subspace:
    return Subspace.from_vectors(v.ctx, [list(r) for r in v.rows + w.rows])


def subspace_dist(v: Subspace, w: Subspace) -> int:
    """dim(V+W) - dim(V&W) = 2 dim(V+W) - dim V - dim W."""
    return 2 * subspace_sum(v, w).dim - v.dim - w.dim


def dist(x: Flat, y: Flat) -> int:
    """Flat metric via the grcd of the minimal polynomials; 0 for equal flats."""
    if x == y:
        return 0
    g = grcd(x.minpoly, y.minpoly)
    return x.rank + y.rank - 2 * g.degree


def all_subspaces(ctx: FieldCtx) -> Iterator[Subspace]:
    """Every F_q-subspace of F_{q^m}, by dimension then echelon pattern."""
    m = ctx.m
    for r in range(m + 1):
        for pivots in itertools.combinations(range(m), r):
            free = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, m)
                if j not in pivots
            ]
            for vals in itertools.product(ctx.subfield_elements, repeat=len(free)):
                rows = [[ZERO] * m for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = ONE
                for (i, j), v in zip(free, vals):
                    rows[i][j] = v
                yield Subspace(ctx, tuple(tuple(row) for row in rows))


def subspace_count(ctx: FieldCtx) -> int:
    """Number of F_q-subspaces of F_{q^m}: the Gaussian binomials [m r]_q
    summed over r, each from the last in one exact step."""
    q, m = ctx.q, ctx.m
    total, term = 0, 1
    for r in range(m + 1):
        total += term
        term = term * (q ** (m - r) - 1) // (q ** (r + 1) - 1)
    return total


def _guard_enumeration(what: str, size: int, cap: int) -> None:
    """Refuse an enumeration, before anything is built, by its counted size."""
    if size > cap:
        raise TooLargeToEnumerate(f"the {what} exceed the enumeration cap of {cap}")


def class_flat(ctx: FieldCtx, v: Subspace, ell: int) -> Flat:
    """Image of a subspace inside class ell: the flat spanned by g^ell * warp
    of its basis rows."""
    ell %= ctx.q - 1
    flat = matroid_closure(ctx, (ctx.mul(ell, warp(ctx, ctx.uncoords(r))) for r in v.rows))
    if flat.rank != v.dim:  # pragma: no cover - structural identity
        raise AssertionError("class flat rank does not match subspace dimension")
    return flat


def flats(
    ctx: FieldCtx, class_index: int | None = None, max_rank: int | None = None
) -> Iterator[Flat]:
    """Flats of one class's submatroid, or of the whole matroid: every
    combination of per-class flats, with and without zero, each spanned by
    its parts' P-bases."""
    n = subspace_count(ctx)
    if class_index is not None:
        _guard_enumeration("subspaces behind a class's flats", n, _MAX_CLASS_FLATS)
        for v in all_subspaces(ctx):
            if max_rank is not None and v.dim > max_rank:
                continue
            yield class_flat(ctx, v, class_index)
        return
    # n >= 2, so an exponent past the cap's bit length is past the cap
    combos = 2 * n ** min(ctx.q - 1, _MAX_FLAT_COMBINATIONS.bit_length())
    _guard_enumeration("combinations of per-class flats", combos, _MAX_FLAT_COMBINATIONS)
    # the matroid is a direct sum over the classes, so the union of a
    # combination's per-class P-bases is a P-basis of it
    per_class = [[f.basis for f in flats(ctx, ell)] for ell in range(ctx.q - 1)]
    for zero_part in ((), (ZERO,)):
        for bases in itertools.product(*per_class):
            rk = sum(map(len, bases)) + len(zero_part)
            if max_rank is not None and rk > max_rank:
                continue
            flat = matroid_closure(ctx, zero_part + tuple(itertools.chain(*bases)))
            if flat.rank != rk:  # pragma: no cover - structural identity
                raise AssertionError("flat rank is not the sum of its parts' ranks")
            yield flat


class RepMatrix(NamedTuple):
    """F_q-representation of the matroid: one lifted block per nonzero class
    plus a single column for zero; column_labels maps columns to ground-set
    elements."""

    ctx: FieldCtx
    a_rows: tuple[tuple[Fe, ...], ...]
    script_rows: tuple[tuple[Fe, ...], ...]
    column_labels: tuple[Fe, ...]

    @property
    def script_shape(self) -> tuple[int, int]:
        return (len(self.script_rows), len(self.script_rows[0]))


def representation(ctx: FieldCtx) -> RepMatrix:
    """Build the class block A (lift coordinates of C(1), canonical order)
    and the block-diagonal full matrix with the extra zero column."""
    # sigma is refused unless it acts on logs as s = 1 does, by a factor of q
    if ctx.twist != ctx.q % (ctx.order - 1):
        raise InapplicableField("the matroid representation is defined for s=1")
    m, cs, nclasses = ctx.m, ctx.class_size, ctx.q - 1
    nrows, ncols = m * nclasses + 1, cs * nclasses + 1
    _guard_enumeration("representation matrix entries", nrows * ncols, _MAX_REP_ENTRIES)
    cols = lift(ctx, class_elements(ctx, 0))
    a_rows = tuple(tuple(cols[i][r] for i in range(cs)) for r in range(m))
    script = [[ZERO] * ncols for _ in range(nrows)]
    labels: list[Fe] = []
    for ell in range(nclasses):
        for i, alpha in enumerate(class_elements(ctx, ell)):
            for r in range(m):
                script[ell * m + r][ell * cs + i] = a_rows[r][i]
            labels.append(alpha)
    script[nrows - 1][ncols - 1] = ONE
    labels.append(ZERO)
    return RepMatrix(
        ctx, a_rows, tuple(tuple(row) for row in script), tuple(labels)
    )


def phi(ctx: FieldCtx, v: Subspace) -> Flat:
    """Warp image of a subspace: a flat of the class of 1 with equal rank."""
    return class_flat(ctx, v, 0)


def phi_inverse(ctx: FieldCtx, x: Flat) -> Subspace:
    """Subspace spanned by the warp preimages of a class-of-1 flat's P-basis."""
    if any(class_of(ctx, a) != 0 for a in x.basis):
        raise NotC1Flat("flat contains points outside the class of 1")
    return Subspace.from_vectors(ctx, lift(ctx, x.basis))


def verify_isometry(ctx: FieldCtx) -> dict:
    """Exhaustively check that the warp correspondence is a bijective
    isometry between subspaces (subspace metric) and class-of-1 flats
    (flat metric); the report is what `isometry-check` prints."""
    n = subspace_count(ctx)
    _guard_enumeration("subspace pairs", n * (n - 1) // 2, _MAX_ISOMETRY_PAIRS)
    subs = list(all_subspaces(ctx))
    images = [phi(ctx, v) for v in subs]
    flat_count = len(set(images))
    # injective, and phi_inverse takes every image back to its subspace
    bijective = flat_count == len(subs) and all(
        phi_inverse(ctx, x) == v for v, x in zip(subs, images)
    )
    isometric = all(
        subspace_dist(v, w) == dist(images[i], images[j])
        for (i, v), (j, w) in itertools.combinations(enumerate(subs), 2)
    )
    return {
        "subspaces": len(subs),
        "flats": flat_count,
        "bijective": bijective,
        "isometric": isometric,
        "ok": bijective and isometric,
    }
