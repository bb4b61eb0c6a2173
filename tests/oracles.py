"""Independent routes that the tests hold the library's fast paths against.

Each one answers from a definition by scanning the whole field, so it shares
no code path with the route it checks beyond rank and evaluation: the closure
from rank, the flat metric from ranks of union and intersection, the zeros of
a polynomial by evaluating it everywhere.  scan_zeros is the oracle for
SkewPoly.zeros, which on m > 1 fields takes the kernel route instead.
"""

from skewmatroid import ZERO, canonical_points, rank_of


def closure_definitional(ctx, points):
    """Rank-based closure {x : r(X + x) = r(X)}, in canonical order."""
    pts = canonical_points(points)
    r = rank_of(ctx, pts)
    return tuple(a for a in ctx.elements() if rank_of(ctx, pts + (a,)) == r)


def dist_definitional(ctx, x, y):
    """r(X u Y) - r(X & Y) for two flats."""
    union = set(x.points) | set(y.points)
    inter = set(x.points) & set(y.points)
    return rank_of(ctx, union) - rank_of(ctx, inter)


def scan_zeros(poly):
    """Every field element the polynomial evaluates to zero on, in canonical order."""
    return tuple(a for a in poly.ctx.elements() if poly.evaluate(a) == ZERO)
