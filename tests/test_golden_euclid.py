"""Right-Euclid outputs pinned by digest.

Each digest is the SHA-256 of the ``str`` outputs of ``grcd``, ``llcm`` and
``dist`` on seeded random pairs over one field, recorded once and never
edited: a change in any common right divisor, common left multiple or flat
distance changes the bytes.  Half of the pairs share a random right factor,
so the divisors are not all trivial; zero operands appear wherever they are
legal (one side of ``grcd``, the rank-0 flat of ``dist``).
"""

import hashlib
import random

import pytest

from skewmatroid import SkewPoly, ZERO, dist, get_field, grcd, llcm, matroid_closure

PAIRS = 100


def _poly(ctx, rng, els, lo, hi):
    return SkewPoly(ctx, [rng.choice(els) for _ in range(rng.randint(lo, hi) + 1)])


def _transcript(spec: str) -> str:
    ctx = get_field(*[int(t) for t in spec.split(",")])
    rng = random.Random(f"golden-euclid-{spec}")
    els = [ZERO] + list(range(ctx.order - 1))
    zero = SkewPoly.zero(ctx)
    lines = []
    for i in range(PAIRS):
        f, g = _poly(ctx, rng, els, 0, 6), _poly(ctx, rng, els, 0, 6)
        if i % 2:
            c = _poly(ctx, rng, els, 1, 3)
            f, g = f * c, g * c
        if not (f.is_zero() and g.is_zero()):
            lines.append(f"grcd {f} | {g} = {grcd(f, g)}")
        if not f.is_zero():
            lines.append(f"grcd {f} | 0 = {grcd(f, zero)}")
            lines.append(f"grcd 0 | {f} = {grcd(zero, f)}")
        if not (f.is_zero() or g.is_zero()):
            lines.append(f"llcm {f} | {g} = {llcm(f, g)}")
        xs = rng.sample(range(ctx.order - 1), rng.randint(0, min(ctx.m + 1, 4)))
        ys = rng.sample(range(ctx.order - 1), rng.randint(0, min(ctx.m + 1, 4)))
        if i % 3 == 0:
            ys.append(ZERO)
        x, y = matroid_closure(ctx, xs), matroid_closure(ctx, ys)
        lines.append(f"dist {x.minpoly} | {y.minpoly} = {dist(x, y)}")
    return "\n".join(lines)


DIGESTS = {
    "2,2,1,1": "1c1762e2d79205c034ac741b379d701e584c1759c78f18443f0e546b1a164806",
    "2,4,2,1": "a2c4b44270447f388b97e58ed2564ec2f71ad84332c719c5691a0a4056b14450",
    "3,2,1,1": "17819cda866046055fd324977e2573fe01e07ebbc9fc13bb3d604dc17068bae0",
    "3,3,1,2": "b265aaf2f66362cd09ce1207ad8374c6883af20e23891b32f33de8e54ca014bd",
    "2,5,1,2": "5e3bc92b66f501f009865f93a2bfa8d2bd88ac27cf0789cce43c9595bf395fe1",
    "5,2,2,1": "4dd58281c916026b1cb7866fff9b256d726357c8d0d356b8c565cf0942be8c0a",
    "3,10,2,1": "da4527d73013dd855a84769ce62979e5e88ffbb195dbcadfc0cf13eb5940ebf0",
}


@pytest.mark.parametrize("spec", sorted(DIGESTS))
def test_euclid_digest(spec):
    assert hashlib.sha256(_transcript(spec).encode()).hexdigest() == DIGESTS[spec]
