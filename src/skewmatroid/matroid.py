"""The matroid induced on the field by minimal-polynomial degree.

Ground set: all of F_{q^m} (twist power s = 1).  A set is independent when
its minimal polynomial has degree equal to its size; rank, closure and flats
follow.  A flat is the zero set of its monic minimal polynomial, which is
unique, so a flat is known by that polynomial: rank is its degree, equality
compares it, and the points are enumerated only when read.  The matroid is
representable over F_q: lifting each nonzero class through unwarp produces
one m x class_size block per class, assembled with a single extra column for
the zero element.  Flats of the class-of-1 submatroid correspond to
F_q-subspaces of F_{q^m} through the warp map, and that correspondence is an
isometry between the subspace metric and the flat metric d(X, Y) = rank(X) +
rank(Y) - 2 * rank-of-common-part computed via the greatest common right
divisor.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .conjugacy import class_elements, class_of, warp
from .errors import InapplicableField, NotC1Flat, TooLargeToEnumerate
from .field import Fe, FieldCtx, ONE, ZERO, mat_rank, rref
from .minimal import canonical_points, closure, lift, minimal_poly_and_basis, rank_of
from .skewpoly import SkewPoly, grcd

# Exhaustive enumeration is offered only while what it builds, counted in
# closed form, stays small: a class's subspaces, the whole matroid's flat
# combinations, an isometry check's subspace pairs, a representation's entries.
_MAX_CLASS_FLATS = 1 << 12
_MAX_FLAT_COMBINATIONS = 1 << 15
_MAX_ISOMETRY_PAIRS = 1 << 17
_MAX_REP_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class Flat:
    """A flat, held as its monic minimal polynomial (the flat is its zero
    set) and a P-basis: an independent subset with the same closure."""

    ctx: FieldCtx
    minpoly: SkewPoly
    basis: tuple[Fe, ...]

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
        return hash(self.minpoly)

    def __str__(self) -> str:
        inner = ", ".join(self.ctx.format_element(a) for a in self.points)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"Flat(rank={self.rank}, points={self!s})"


def matroid_closure(ctx: FieldCtx, points: Iterable[Fe]) -> Flat:
    """The flat spanned by a point set: its minimal polynomial and P-basis."""
    return Flat(ctx, *minimal_poly_and_basis(ctx, points))


def closure_definitional(ctx: FieldCtx, points: Iterable[Fe]) -> tuple[Fe, ...]:
    """Rank-based closure {x : r(X + x) = r(X)}; scans the whole field, used
    as the independent route in tests."""
    pts = canonical_points(points)
    r = rank_of(ctx, pts)
    return tuple(a for a in ctx.elements() if rank_of(ctx, pts + (a,)) == r)


@dataclass(frozen=True, eq=False)
class Subspace:
    """F_q-subspace of F_{q^m}, stored as reduced-echelon basis rows."""

    ctx: FieldCtx
    rows: tuple[tuple[Fe, ...], ...]

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, vectors: Iterable[Iterable[Fe]]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        if not vecs:
            return cls(ctx, ())
        R, rk, _ = rref(ctx, vecs)
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
    """Flat metric via the common right divisor of the minimal polynomials."""
    g = grcd(x.minpoly, y.minpoly)
    return x.rank + y.rank - 2 * g.degree


def dist_definitional(ctx: FieldCtx, x: Flat, y: Flat) -> int:
    """r(X u Y) - r(X & Y); independent route for tests."""
    union = set(x.points) | set(y.points)
    inter = set(x.points) & set(y.points)
    return rank_of(ctx, union) - rank_of(ctx, inter)


def all_subspaces(ctx: FieldCtx, dim: int | None = None) -> Iterator[Subspace]:
    """Every F_q-subspace of F_{q^m}, by dimension then echelon pattern."""
    m = ctx.m
    dims = range(m + 1) if dim is None else (dim,)
    nonzero = ctx.subfield_elements[1:]
    for r in dims:
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
    flat = matroid_closure(ctx, (ctx.mul(ell, warp(ctx, ctx.uncoords(r))) for r in v.rows))
    if flat.rank != v.dim:  # pragma: no cover - structural identity
        raise AssertionError("class flat rank does not match subspace dimension")
    return flat


def flats(
    ctx: FieldCtx, class_index: int | None = None, max_rank: int | None = None
) -> Iterator[Flat]:
    """Flats of one class's submatroid, or of the whole matroid (every
    combination of per-class flats, with and without zero), each candidate
    verified to be closure-fixed."""
    n = subspace_count(ctx)
    if class_index is not None:
        _guard_enumeration("subspaces behind a class's flats", n, _MAX_CLASS_FLATS)
        ell = class_index % (ctx.q - 1)
        for v in all_subspaces(ctx):
            if max_rank is not None and v.dim > max_rank:
                continue
            yield class_flat(ctx, v, ell)
        return
    # n >= 2, so an exponent past the cap's bit length is past the cap
    combos = 2 * n ** min(ctx.q - 1, _MAX_FLAT_COMBINATIONS.bit_length())
    _guard_enumeration("combinations of per-class flats", combos, _MAX_FLAT_COMBINATIONS)
    per_class = [list(flats(ctx, ell)) for ell in range(ctx.q - 1)]
    for zero_part in ((), (ZERO,)):
        for combo in itertools.product(*per_class):
            rk = sum(f.rank for f in combo) + len(zero_part)
            if max_rank is not None and rk > max_rank:
                continue
            pts = canonical_points(
                zero_part + tuple(a for f in combo for a in f.points)
            )
            flat = matroid_closure(ctx, pts)
            if flat.points != pts or flat.rank != rk:  # pragma: no cover
                raise AssertionError("candidate flat is not closure-fixed")
            yield flat


@dataclass(frozen=True)
class RepMatrix:
    """F_q-representation of the matroid: one lifted block per nonzero class
    plus a single column for zero; column_labels maps columns to ground-set
    elements."""

    ctx: FieldCtx
    a_rows: tuple[tuple[Fe, ...], ...]
    script_rows: tuple[tuple[Fe, ...], ...]
    column_labels: tuple[Fe, ...]

    @property
    def a_shape(self) -> tuple[int, int]:
        return (len(self.a_rows), len(self.a_rows[0]))

    @property
    def script_shape(self) -> tuple[int, int]:
        return (len(self.script_rows), len(self.script_rows[0]))


def representation(ctx: FieldCtx) -> RepMatrix:
    """Build the class block A (lift coordinates of C(1), canonical order)
    and the block-diagonal full matrix with the extra zero column."""
    if ctx.s != 1:
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


def columns_independent(rep: RepMatrix, elements: Iterable[Fe]) -> bool:
    """Whether the representation columns labeled by the given ground-set
    elements are F_q-linearly independent."""
    idx = {a: i for i, a in enumerate(rep.column_labels)}
    picked = [idx[a] for a in set(elements)]
    rows = [[rep.script_rows[r][c] for c in picked] for r in range(len(rep.script_rows))]
    return mat_rank(rep.ctx, rows) == len(picked)


def phi(ctx: FieldCtx, v: Subspace) -> Flat:
    """Warp image of a subspace: a flat of the class of 1 with equal rank."""
    return class_flat(ctx, v, 0)


def phi_inverse(ctx: FieldCtx, x: Flat) -> Subspace:
    """Subspace spanned by the warp preimages of a class-of-1 flat's P-basis."""
    if any(class_of(ctx, a) != 0 for a in x.basis):
        raise NotC1Flat("flat contains points outside the class of 1")
    return Subspace.from_vectors(ctx, lift(ctx, x.basis))


@dataclass(frozen=True)
class IsometryReport:
    subspace_count: int
    flat_count: int
    bijective: bool
    isometric: bool

    @property
    def ok(self) -> bool:
        return self.bijective and self.isometric


def verify_isometry(ctx: FieldCtx) -> IsometryReport:
    """Exhaustively check that the warp correspondence is a bijective
    isometry between subspaces (subspace metric) and class-of-1 flats
    (flat metric)."""
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
    return IsometryReport(len(subs), flat_count, bijective, isometric)
