"""Independent routes that the tests hold the library's fast paths against.

The scans answer from a definition over the whole field, so they share no
code path with the route they check beyond rank and evaluation: the closure
from rank, the flat metric from ranks of union and intersection, the zeros of
a polynomial by evaluating it everywhere.  dist_by_classes takes the flat
metric as a sum over conjugacy classes of subspace distances between lifted
bases, with no grcd and no minimal polynomial.  scan_zeros is the oracle for
SkewPoly.zeros, which on m > 1 fields takes the kernel route instead.
unwarp_method1 is the paper's kernel route to a warp preimage: the least-log
point of kernel_line, the kernel of the sigma-linearized map
b -> g^l sigma(b) - alpha b, where the library's unwarp reads the same point
in closed form on logs.  Rank here is rank_by_minpoly, the degree of the
whole set's minimal polynomial, not the library's per-class sum that
closure shares.

evaluate_by_running_exponent is field.value_at's loop, with each term added
through the context's add: the oracle for field.vanishing_points, the one
vanishing loop of the preload's class scan and of zeros on m = 1.

minimal_poly_by_products is the greedy minimal polynomial with each linear
factor joined by a full product, where field.grow_minimal multiplies by
x + a in place, from the top coefficient down; times_linear forms (x + c) f
in one pass from the bottom up, through field.add_scaled.

The *_by_terms loops are the ring and matrix loops, and the accumulation
kernel they share, written term by term through the context's add, mul and
frobenius and sub here, one call per operation; the library's loops
accumulate on logs through field.add_scaled, which reads the Zech table
directly.
add_by_terms and sub_by_terms are the sum and difference of two polynomials,
which the library does not take: the tests state ring identities with them.
grcd_by_terms and llcm_by_terms are the textbook remainder sequence and
cofactor recurrence on right_divmod_by_terms and mul_by_terms, where the
library reduces coefficient lists in place in one loop that also applies
llcm's cofactor update.

encode_by_subspace draws a message by row reduction: it grows an
F_q-subspace until it reaches the rank and pushes it through the class map,
where the library feeds the draws' class points to the greedy minimal
polynomial instead; its basis is the unstopped canonical greedy over every
point of the flat, where the library stops at the rank on the cheaper stream.
draw_by_randrange is the element draw as one randrange(q) call per item per
attempt; the library reads getrandbits itself, and must read the stream
exactly as randrange does.  The vector RLNC simulator, the element
simulator's oracle, is part of the library (simulate's "rlnc" oracle) and
draws nothing: it combines its vectors with the reads that the element
draws recorded.

decompose_check holds llcm and grcd against the minimal polynomials of the
union and the intersection of two closed sets, columns_independent holds
P-independence against the rank of representation columns, and
linearized_associate (x^i replaced by x^bracket(i)) carries the paper's link
between skew evaluation on warp images and an additive polynomial.

is_primitive_by_digits is the order test on x with residues as digit lists,
one term product at a time and every multiplication by x a full product;
the library packs residues into ints and runs a few cheap exact rejections
first.
"""

from skewmatroid import (
    ONE,
    ZERO,
    AssocPoly,
    DomainError,
    SkewPoly,
    canonical_points,
    class_of,
    closure,
    conjugate,
    grcd,
    llcm,
    minimal_poly,
)
from skewmatroid.field import add_scaled, kernel, mat_rank
from skewmatroid.matroid import Flat, Subspace, class_flat
from skewmatroid.minimal import p_basis


class NotClosed(DomainError):
    """decompose_check was given a set that is not its own closure."""


def rank_by_minpoly(ctx, points):
    """The degree of the whole set's minimal polynomial."""
    return minimal_poly(ctx, points).degree


def closure_definitional(ctx, points):
    """Rank-based closure {x : r(X + x) = r(X)}, in canonical order."""
    pts = canonical_points(points)
    r = rank_by_minpoly(ctx, pts)
    return tuple(a for a in ctx.elements() if rank_by_minpoly(ctx, pts + (a,)) == r)


def dist_definitional(ctx, x, y):
    """r(X u Y) - r(X & Y) for two flats."""
    union = set(x.points) | set(y.points)
    inter = set(x.points) & set(y.points)
    return rank_by_minpoly(ctx, union) - rank_by_minpoly(ctx, inter)


def dist_by_classes(ctx, x, y):
    """The flat metric summed over the parts of the direct sum: for each
    class l, 2 dim(V + W) - dim V - dim W, where V and W are the F_q-spans
    of the two bases' class-l points, each lifted through unwarp_method1
    and coords; plus 1 when exactly one flat holds zero."""
    parts = ({}, {})
    for part, flat in zip(parts, (x, y)):
        for b in flat.basis:
            part.setdefault(class_of(ctx, b), []).append(b)
    total = int((None in parts[0]) != (None in parts[1]))
    for ell in (parts[0].keys() | parts[1].keys()) - {None}:
        v, w = ([ctx.coords(unwarp_method1(ctx, b, ell)) for b in p.get(ell, ())] for p in parts)
        total += 2 * rref_by_terms(ctx, v + w)[1] - rref_by_terms(ctx, v)[1] - rref_by_terms(ctx, w)[1]
    return total


def sub(ctx, a, b):
    """a - b through the context's add and neg."""
    return ctx.add(a, ctx.neg(b))


def kernel_line(ctx, alpha, ell):
    """A basis, as field elements, of the kernel over F_q of the
    sigma-linearized map b -> g^l sigma(b) - alpha b; column j of its matrix
    is the coordinate vector of basis element b_j's image.  For alpha in
    class l the kernel is one line."""
    cols = [
        ctx.coords(sub(ctx, ctx.mul(ell, ctx.frobenius(b)), ctx.mul(alpha, b))) for b in ctx.basis
    ]
    return [ctx.uncoords(v) for v in kernel(ctx, list(zip(*cols)))]


def unwarp_method1(ctx, alpha, ell):
    """The warp preimage of alpha in class l by the kernel route: the
    kernel line's least-log point, its log mod the class size, as F_q* is
    the logs j * class_size."""
    (a0,) = kernel_line(ctx, alpha, ell)
    return a0 % ctx.class_size


def minimal_poly_by_products(ctx, points, *, rank=None):
    """minimal_poly_and_basis with each linear factor joined by a full
    product, SkewPoly((-conjugate, 1)) * f."""
    f = SkewPoly(ctx, (ONE,))
    if rank == 0:
        return f, ()
    basis = []
    for b in points:
        v = f.evaluate(b)
        if v == ZERO:
            continue
        f = SkewPoly(ctx, (ctx.neg(conjugate(ctx, b, v)), ONE)) * f
        basis.append(b)
        if len(basis) == rank:
            break
    return f, tuple(basis)


def times_linear(f, c):
    """(x + c) * f in one pass: coefficient j is sigma(f_(j-1)) + c f_j, and
    sigma multiplies a log by the twist."""
    ctx = f.ctx
    N, qs = ctx.order - 1, ctx.twist
    out = [ZERO] + [a if a == ZERO else a * qs % N for a in f.coeffs]
    if c != ZERO:
        add_scaled(ctx, out, f.coeffs, c)
    return SkewPoly(ctx, out)


def scan_zeros(poly):
    """Every field element the polynomial evaluates to zero on, in canonical order."""
    return tuple(a for a in poly.ctx.elements() if poly.evaluate(a) == ZERO)


def add_scaled_by_terms(ctx, out, coeffs, k, j=0, off=0):
    """A copy of out with g^k * sigma^j(coeffs[i]) added at off + i."""
    out = list(out)
    for i, b in enumerate(coeffs):
        out[off + i] = ctx.add(out[off + i], ctx.mul(k, ctx.frobenius(b, j)))
    return out


def add_by_terms(f, g):
    """f + g, coefficient by coefficient through ctx.add."""
    width = range(max(len(f.coeffs), len(g.coeffs)))
    return SkewPoly(f.ctx, [f.ctx.add(f.coeff(i), g.coeff(i)) for i in width])


def sub_by_terms(f, g):
    """f - g, coefficient by coefficient through sub."""
    width = range(max(len(f.coeffs), len(g.coeffs)))
    return SkewPoly(f.ctx, [sub(f.ctx, f.coeff(i), g.coeff(i)) for i in width])


def mul_by_terms(f, g):
    """f * g from (a x^i)(b x^j) = a sigma^i(b) x^(i+j)."""
    ctx = f.ctx
    if f.is_zero() or g.is_zero():
        return SkewPoly(ctx)
    out = [ZERO] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, ctx.frobenius(b, i)))
    return SkewPoly(ctx, out)


def right_divmod_by_terms(f, g):
    """(p, r) with f = p*g + r, deg r < deg g, by long division on the right."""
    ctx = f.ctx
    d = g.degree
    r = list(f.coeffs)
    quot = [ZERO] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        if r[i] == ZERO:
            continue
        shift = i - d
        c = ctx.div(r[i], ctx.frobenius(g.lead(), shift))
        quot[shift] = c
        for j, gj in enumerate(g.coeffs):
            r[shift + j] = sub(ctx, r[shift + j], ctx.mul(c, ctx.frobenius(gj, shift)))
    return SkewPoly(ctx, quot), SkewPoly(ctx, r[:d])


def _monic_by_terms(f):
    c = f.ctx.inv(f.lead())
    return SkewPoly(f.ctx, [f.ctx.mul(c, a) for a in f.coeffs])


def grcd_by_terms(f, g):
    """The monic last nonzero remainder of r_(i+1) = r_(i-1) mod r_i."""
    r0, r1 = f, g
    while not r1.is_zero():
        r0, r1 = r1, right_divmod_by_terms(r0, r1)[1]
    return _monic_by_terms(r0)


def llcm_by_terms(f, g):
    """Monic u*f, u the cofactor of f at the first zero remainder, from
    u_0 = 1, u_1 = 0 and u_(i+1) = u_(i-1) - q_i u_i, q_i the quotient of
    r_(i-1) by r_i."""
    ctx = f.ctx
    r0, r1, u0, u1 = f, g, SkewPoly(ctx, [ONE]), SkewPoly(ctx)
    while not r1.is_zero():
        quo, rem = right_divmod_by_terms(r0, r1)
        r0, r1, u0, u1 = r1, rem, u1, sub_by_terms(u0, mul_by_terms(quo, u1))
    return _monic_by_terms(mul_by_terms(u1, f))


def evaluate_by_terms(f, a):
    """sum c_i a^dbracket(i), with dbracket taken exactly."""
    ctx = f.ctx
    acc = ZERO
    for i, c in enumerate(f.coeffs):
        acc = ctx.add(acc, ctx.mul(c, ctx.pow(a, ctx.dbracket(i))))
    return acc


def evaluate_by_running_exponent(f, a):
    """field.value_at's loop: sum c_i a^e_i with e_i = dbracket(i) mod N
    kept as a running exponent, e_(i+1) = e_i q^s + 1, each term added in
    through ctx.add; the oracle for field.vanishing_points."""
    ctx = f.ctx
    if a == ZERO or len(f.coeffs) < 2:
        return f.coeff(0)
    N, acc, e = ctx.order - 1, ZERO, 0
    for c in f.coeffs:
        if c != ZERO:
            acc = ctx.add(acc, (c + a * e) % N)
        e = (e * ctx.twist + 1) % N
    return acc


def rref_by_terms(ctx, rows):
    """Reduced row echelon form: (matrix, rank, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != ZERO), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = ctx.inv(m[r][c])
        m[r] = [ctx.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [sub(ctx, m[i][j], ctx.mul(f, m[r][j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
    return m, len(pivots), pivots


def mat_vec_by_terms(ctx, rows, v):
    """The product of a matrix and a column vector."""
    out = []
    for row in rows:
        acc = ZERO
        for a, b in zip(row, v):
            acc = ctx.add(acc, ctx.mul(a, b))
        out.append(acc)
    return out


def encode_by_subspace(ctx, ell, r, rng):
    """A rank-r class-ell message flat: draw base-field vectors until their
    row-reduced span has dimension r, take that subspace's class flat, and
    the unstopped canonical greedy over all of its points as its basis."""
    v = Subspace(ctx, ())
    while v.dim < r:
        vec = tuple(ctx.subfield_elements[rng.randrange(ctx.q)] for _ in range(ctx.m))
        v = Subspace.from_vectors(ctx, v.rows + (vec,))
    flat = class_flat(ctx, v, ell)
    return Flat(ctx, flat.minpoly, p_basis(ctx, flat.points))


def draw_by_randrange(ctx, items, rng):
    """The element draw with one randrange(q) call per item per attempt: a
    uniform nonzero combination of nonzero field elements, combined through
    ctx.add."""
    q, elements, N = ctx.q, ctx.subfield_elements, ctx.order - 1
    while True:
        out = ZERO
        for b in items:
            c = elements[rng.randrange(q)]
            if c != ZERO:
                out = ctx.add(out, (b + c) % N)
        if out != ZERO:
            return out


def decompose_check(ctx, points1, points2):
    """For closed sets: check that llcm/grcd of the minimal polynomials are
    the minimal polynomials of union/intersection and that the degrees add
    up; returns (llcm, grcd)."""
    p1, p2 = canonical_points(points1), canonical_points(points2)
    if closure(ctx, p1) != p1:
        raise NotClosed("first set is not closed")
    if closure(ctx, p2) != p2:
        raise NotClosed("second set is not closed")
    f1, f2 = minimal_poly(ctx, p1), minimal_poly(ctx, p2)
    lc = llcm(f1, f2)
    gc = grcd(f1, f2)
    if lc != minimal_poly(ctx, set(p1) | set(p2)):
        raise AssertionError("llcm does not match the union's minimal polynomial")
    if gc != minimal_poly(ctx, set(p1) & set(p2)):
        raise AssertionError("grcd does not match the intersection's minimal polynomial")
    if lc.degree != f1.degree + f2.degree - gc.degree:
        raise AssertionError("degree identity violated")
    return lc, gc


def columns_independent(rep, elements):
    """Whether the representation columns labeled by the given ground-set
    elements are F_q-linearly independent."""
    idx = {a: i for i, a in enumerate(rep.column_labels)}
    picked = [idx[a] for a in set(elements)]
    rows = [[rep.script_rows[r][c] for c in picked] for r in range(len(rep.script_rows))]
    return mat_rank(rep.ctx, rows) == len(picked)


def linearized_associate(f):
    """Additive polynomial with x^i replaced by x^bracket(i).  Its exponents
    are exact, q^(i*s') for degree i, so it serves small fields only."""
    ctx = f.ctx
    return AssocPoly(
        ctx,
        tuple((ctx.bracket(i), c) for i, c in enumerate(f.coeffs) if c != ZERO),
    )


def is_primitive_by_digits(p, n, modpoly, primes):
    """Whether x has order N = p^n - 1 modulo the monic modpoly of degree n,
    given the primes dividing N: x^N = 1 and x^(N/r) != 1 for each r, by
    square-and-multiply on lists of base-p digits (x^0 coefficient first)."""
    low = [-(modpoly // p**j) % p for j in range(n)]  # x^n = sum low[j] x^j

    def mulmod(a, b):
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for d in range(2 * n - 2, n - 1, -1):
            lead = prod[d] % p
            if lead:  # x^d = x^(d-n) * x^n
                for j in range(n):
                    prod[d - n + j] += lead * low[j]
        return [c % p for c in prod[:n]]

    def x_pow(e):
        out = one
        for bit in bin(e)[2:]:
            out = mulmod(out, out)
            if bit == "1":
                out = mulmod(out, x)
        return out

    one = [1] + [0] * (n - 1)
    x = [0, 1] + [0] * (n - 2) if n > 1 else low
    N = p**n - 1
    return x_pow(N) == one and all(x_pow(N // r) != one for r in primes)
