"""The benchmark's workloads: seeded generators, operations and their outputs.

Every workload's operations come in blocks, and a block is generated from
its id alone by the generators below.  Blocks ``0 .. pool-1`` form the
recorded pool: ``reference/<workload>.json`` holds a digest of each of their
operations' outputs as computed at the reference commit (see ``record.py``).
A run with ``--seed N`` alternates two streams of blocks: the recorded pool
in an order shuffled by the seed, whose outputs are held byte for byte to
the reference, and fresh blocks whose ids ``"N/0"``, ``"N/1"``, ... are
drawn from the seed, so that a claim can be checked on inputs nobody saw
when the change was written.  Fresh outputs are held to the checks that
need no reference: the rlnc oracle's per-trial match, CLI exit codes, and in
a traced run the agreement of the traced and untraced replays.  Blocks are
generated one at a time as the run reaches them, outside the timed calls,
and dropped once they have run.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import skewmatroid as sm

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Scratch space inside the checkout for files the CLI workload reads.
OUT_DIR = ROOT / ".bench_out"


class OutputMismatch(Exception):
    """An operation's output differs from the recorded reference."""


@contextlib.contextmanager
def no_span(name: str):
    yield


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Op:
    index: int | None  # position in the recorded pool, None for a fresh op
    kind: str
    args: tuple


def load_reference(name: str) -> list[str]:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def block_ids(pool: int, seed: int) -> Iterator[int | str]:
    """The run's blocks: recorded ones (ints, in a seeded order, cycled if
    the run outlasts the pool) alternating with fresh ones (strings)."""
    order = list(range(pool))
    random.Random(f"order:{seed}").shuffle(order)
    for j in itertools.count():
        yield order[j // 2 % pool] if j % 2 == 0 else f"{seed}/{j // 2}"


def check(op: Op, out: str, reference: list[str]) -> bool:
    """Whether an output matches the reference; fresh ops have none."""
    return op.index is None or digest(out) == reference[op.index]


class Workload:
    """Blocks of operations; ``block(ctx, b)`` generates block ``b``."""

    spawns = False  # whether each operation is a child process
    trials = None  # simulate trials per operation, on the simulators
    # The percentile op_ms_tail reports: the highest whole percentile that
    # keeps at least ten operations beyond it in every 18 s run at the
    # reference commit, whatever the seed draws.
    tail_pct = 99

    def context(self):
        return sm.field_from_spec(self.field)

    def blocks(self, seed: int | None) -> Iterator[list[Op]]:
        """The run's blocks for ``seed``; with ``None``, the recorded pool in
        order.  Set-up is everything up to the first block."""
        ctx = self.context()
        for b in range(self.pool) if seed is None else block_ids(self.pool, seed):
            yield self.block(ctx, b)


def layered_spec(
    rng: random.Random, field: str, ell: int, rank: int, n_sinks: int, trials: int, seed: str
) -> sm.NetSpec:
    """Source, 1-3 relay layers of 1-4 relays, then the sinks; every
    non-source node takes at least one predecessor from the previous layer,
    so every sink is reachable and the spec validates."""
    layers: list[list[str]] = [["s"]]
    for li in range(rng.randint(1, 3)):
        layers.append([f"r{li}_{j}" for j in range(rng.randint(1, 4))])
    layers.append([f"t{j}" for j in range(n_sinks)])
    nodes = [{"id": "s", "role": "source"}]
    for layer in layers[1:-1]:
        nodes.extend({"id": nid, "role": "relay"} for nid in layer)
    nodes.extend({"id": nid, "role": "sink"} for nid in layers[-1])
    edges = []
    for prev, cur in zip(layers, layers[1:]):
        for nid in cur:
            for u in sorted(rng.sample(prev, rng.randint(1, len(prev)))):
                edges.append([u, nid])
    doc = {
        "field": field,
        "nodes": nodes,
        "edges": edges,
        "class": ell,
        "rank": rank,
        "trials": trials,
        "seed": seed,
    }
    return sm.NetSpec.from_json(json.dumps(doc))


class SimWorkload(Workload):
    """``simulate`` on random layered DAGs; one operation is one call.

    The cost of a call grows steeply with the message rank and with the
    number of sinks, so every block holds one spec of each (rank, sinks)
    pair: any run of whole blocks has the same mix, and the percentiles do
    not shift with the share of expensive specs a seed happens to draw."""

    def __init__(self, name, field, n_classes, max_rank, trials, oracle, pool, tail_pct=99):
        self.name = name
        self.field = field
        self.peak_field = field  # whose build's peak memory the traced run reports
        self.n_classes = n_classes
        self.max_rank = max_rank
        self.trials = trials
        self.oracle = oracle
        self.pool = pool  # recorded blocks
        self.tail_pct = tail_pct

    def block(self, ctx, b: int | str) -> list[Op]:
        shapes = [(r, k) for r in range(1, self.max_rank + 1) for k in (1, 2, 3)]
        block = []
        for j, (rank, n_sinks) in enumerate(shapes):
            i = b * len(shapes) + j if isinstance(b, int) else None
            label = f"{self.name}:{b}.{j}" if i is None else f"{self.name}:{i}"
            rng = random.Random(label)
            spec = layered_spec(
                rng, self.field, rng.randrange(self.n_classes), rank, n_sinks,
                self.trials, label,
            )
            spec.validate(ctx)
            block.append(Op(i, "simulate", (spec,)))
        return block

    def execute(self, op: Op) -> str:
        report = sm.simulate(op.args[0], oracle=self.oracle)
        if self.oracle is not None and report["oracle"]["per_trial_match"] is not True:
            raise OutputMismatch("the rlnc oracle disagrees with the element simulator")
        return json.dumps(report)


# Query mix per block of 50.  One mixed-class closure (2%) keeps the 99th
# percentile inside that one kind.  The 14 skewpoly products and divisions
# are cheaper than the 18 minimal-polynomial queries, which are cheaper than
# the rest, so the median falls inside the minimal-polynomial kinds rather
# than on the edge between two kinds.
QUERY_MIX = (
    ("closure_single", 8),
    ("closure_mixed", 1),
    ("rank_of", 6),
    ("is_p_independent", 6),
    ("minimal_poly", 6),
    ("dist", 4),
    ("sp_mul", 7),
    ("sp_right_divmod", 7),
    ("sp_grcd", 3),
    ("sp_llcm", 2),
)
QUERY_KINDS = tuple(kind for kind, _ in QUERY_MIX)
QUERY_BLOCK = sum(n for _, n in QUERY_MIX)


class QueryWorkload(Workload):
    """A closed loop of library queries: one caller, the next query sent
    only after the previous one returned."""

    def __init__(self, name, field, pool):
        self.name = name
        self.field = field
        self.peak_field = field
        self.pool = pool  # recorded blocks of QUERY_BLOCK queries

    def _gen_query(self, rng: random.Random, ctx: sm.FieldCtx, kind: str) -> tuple:
        n_classes, size = ctx.q - 1, ctx.class_size

        def class_points(ell: int, k: int) -> tuple:
            return tuple(ell + n_classes * rng.randrange(size) for _ in range(k))

        def any_points() -> tuple:
            return tuple(rng.randrange(ctx.order - 1) for _ in range(rng.randint(2, 40)))

        def poly(lo: int, hi: int) -> tuple:
            return tuple(rng.randrange(ctx.order - 1) for _ in range(rng.randint(lo, hi) + 1))

        if kind == "closure_single":
            return (class_points(rng.randrange(n_classes), rng.randint(1, 3)),)
        if kind == "closure_mixed":
            a, b = rng.sample(range(n_classes), 2)
            return (class_points(a, 1) + class_points(b, 1),)
        if kind in ("rank_of", "is_p_independent", "minimal_poly"):
            return (any_points(),)
        if kind == "dist":
            return tuple(
                class_points(rng.randrange(n_classes), rng.randint(1, 3)) for _ in range(2)
            )
        if kind == "sp_right_divmod":
            return (poly(20, 40), poly(10, 20))
        return (poly(10, 40), poly(10, 40))

    def block(self, ctx, b: int | str) -> list[Op]:
        rng = random.Random(f"{self.name}:{b}")
        kinds = [kind for kind, n in QUERY_MIX for _ in range(n)]
        rng.shuffle(kinds)
        return [
            Op(b * QUERY_BLOCK + j if isinstance(b, int) else None, kind,
               self._gen_query(rng, ctx, kind))
            for j, kind in enumerate(kinds)
        ]

    def execute(self, op: Op, span=no_span) -> str:
        ctx = sm.field_from_spec(self.field)
        kind, args = op.kind, op.args
        if kind == "dist":
            with span("matroid.matroid_closure"):
                x = sm.matroid_closure(ctx, args[0])
            with span("matroid.matroid_closure"):
                y = sm.matroid_closure(ctx, args[1])
            with span("matroid.dist"):
                return str(sm.dist(x, y))
        if kind.startswith("sp_"):
            f, g = (sm.SkewPoly(ctx, c) for c in args)
            with span("skewpoly." + kind[3:]):
                if kind == "sp_mul":
                    return str(f * g)
                if kind == "sp_right_divmod":
                    quo, rem = f.right_divmod(g)
                    return f"{quo}|{rem}"
                if kind == "sp_grcd":
                    return str(sm.grcd(f, g))
                return str(sm.llcm(f, g))
        with span("minimal." + kind):
            if kind.startswith("closure"):
                return ",".join(map(str, sm.closure(ctx, args[0])))
            if kind == "rank_of":
                return str(sm.rank_of(ctx, args[0]))
            if kind == "is_p_independent":
                return str(sm.is_p_independent(ctx, args[0]))
            return str(sm.minimal_poly(ctx, args[0]))


# The README's diamond network; the CLI workload varies its --seed.
DIAMOND_SPEC = {
    "field": "2,4,2,1,19",
    "nodes": [
        {"id": "s", "role": "source"},
        {"id": "a", "role": "relay"},
        {"id": "b", "role": "relay"},
        {"id": "t", "role": "sink"},
    ],
    "edges": [["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"]],
    "class": 0,
    "rank": 2,
    "trials": 1000,
    "seed": 7,
}
DIAMOND_PATH = OUT_DIR / "diamond.json"


def _class_tokens(rng: random.Random, p: int, n: int, k: int, count: int) -> str:
    """Up to ``count`` element tokens of one random class of F_{p^n} over
    F_{p^k}, without building the field."""
    units, classes = p**n - 1, p**k - 1
    ell = rng.randrange(classes)
    pts = sorted({ell + classes * rng.randrange(units // classes) for _ in range(count)})
    return ",".join("1" if a == 0 else f"g{a}" for a in pts)


def cli_script(rng: random.Random) -> list[tuple[str, list[str]]]:
    """One pass of the CLI workload: (kind, argv after ``-m skewmatroid``).
    Only the point sets, the element and the simulation seed are drawn; the
    verbs and fields are fixed."""
    any16 = ",".join(sorted({f"g{rng.randrange(15)}" for _ in range(rng.randint(2, 4))}))
    return [
        ("selftest", ["selftest"]),
        ("flats", ["--field", "2,4,2,1", "flats"]),
        ("flats", ["--field", "3,3,1,1", "flats"]),
        ("flats", ["--field", "2,6,1,1", "flats", "--class", "0"]),
        ("isometry-check", ["--field", "2,4,1,1", "isometry-check"]),
        ("isometry-check", ["--field", "3,3,1,1", "isometry-check"]),
        ("isometry-check", ["--field", "2,4,2,1", "isometry-check"]),
        ("repmatrix", ["--field", "2,8,4,1", "repmatrix"]),
        ("rank", ["--field", "2,4,2,1", "rank", any16]),
        ("closure", ["--field", "2,4,2,1", "closure", _class_tokens(rng, 2, 4, 2, 2)]),
        ("closure", ["--field", "2,16,4,1", "closure", _class_tokens(rng, 2, 16, 4, 3)]),
        ("minpoly", ["--field", "3,10,2,1", "minpoly", _class_tokens(rng, 3, 10, 2, 3)]),
        ("classof", ["--field", "2,20,4,1", "classof", f"g{rng.randrange((1 << 20) - 1)}"]),
        ("simulate", ["--json", "--seed", f"s{rng.randrange(1 << 30)}", "simulate",
                      "--spec", str(DIAMOND_PATH.relative_to(ROOT)), "--oracle", "rlnc"]),
    ]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str]) -> tuple[str, int, float]:
    """Run a child process in the checkout; returns (stdout, exit code,
    peak RSS in MiB).  The child is always waited for."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, usage.ru_maxrss / 1024


class CliWorkload(Workload):
    """A fixed script of ``python -m skewmatroid`` calls, one fresh process
    each, run one after another."""

    spawns = True
    tail_pct = 60  # 28 calls a run: 11 beyond the 60th percentile

    def __init__(self, name, pool):
        self.name = name
        self.field = "2,4,2,1"  # the field most of the script's calls use
        self.peak_field = "2,20,4,1"  # the largest field the script builds
        self.pool = pool  # recorded passes of the script, each with its own draws
        self.peak_mib = 0.0

    def context(self) -> None:
        import skewmatroid.cli  # noqa: F401 - what every call of the script imports

        OUT_DIR.mkdir(exist_ok=True)
        DIAMOND_PATH.write_text(json.dumps(DIAMOND_SPEC), encoding="utf-8")

    def block(self, ctx, b: int | str) -> list[Op]:
        script = cli_script(random.Random(f"{self.name}:{b}"))
        base = b * len(script) if isinstance(b, int) else None
        return [Op(None if base is None else base + j, kind, tuple(argv))
                for j, (kind, argv) in enumerate(script)]

    def execute(self, op: Op) -> str:
        out, code, peak = run_child([sys.executable, "-m", "skewmatroid", *op.args])
        self.peak_mib = max(self.peak_mib, peak)
        if code != 0:
            raise OutputMismatch(f"exit code {code}")
        return out


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("sim_f16_oracle", "2,4,2,1,19", 3, 2, trials=10, oracle="rlnc", pool=600),
        # About 1,050 calls a run: 20 beyond the 98th percentile.
        SimWorkload("sim_f65536", "2,16,4,1", 15, 3, trials=1, oracle=None, pool=270, tail_pct=98),
        QueryWorkload("query_f59049", "3,10,2,1", pool=100),
        CliWorkload("cli_cold", pool=6),
    )
}
