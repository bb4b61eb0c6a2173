"""Network-coding simulator where packets are single field elements.

A source encodes its message as a flat of one conjugacy class and is treated
as a relay preloaded with a P-basis of that flat.  Every node forwards, per
outgoing edge, one element drawn uniformly from the closure of the packets it
holds: unwarp the packets, draw a uniform nonzero F_q-linear combination of
the unwarped field elements, warp the result back into the class.  A flat is
known by its monic minimal polynomial: forwarded packets are checked to be
its zeros, sinks decode to the flat of what they received, and success is
exact flat recovery; partial recovery is reported through the flat metric.

Links are error-free and carry one packet per trial; relays keep no state
across trials.  A classical random-linear-network-coding simulator over
coordinate vectors acts as an independent oracle: it canonicalizes each
vector it sends to the minimum-discrete-log representative of its line (the
same representative unwarping picks) and draws combinations from the same
seeded stream, so under a shared seed its decoded row space corresponds to
the decoded flat through the warping correspondence, packet for packet.
Both simulators share only the DAG walk; their arithmetic, decoding and
metrics are separate code.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .conjugacy import class_of, unwarp, warp
from .errors import (
    EmptyInput,
    MixedClasses,
    RankOutOfRange,
    SpecInvalid,
    ZeroArgument,
)
from .field import Fe, FieldCtx, ZERO, field_from_spec, mat_rank
from .matroid import Flat, Subspace, class_flat, dist, matroid_closure, subspace_dist
from .minimal import lift, p_basis

Edge = tuple[str, str]

_ROLES = frozenset({"source", "relay", "sink"})
_SPEC_KEYS = frozenset({"field", "nodes", "edges", "class", "rank", "trials", "seed"})


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecInvalid(message)


class WalkPlan(NamedTuple):
    """What a walk of the DAG reads; see NetSpec.plan."""

    source: str
    order: tuple[str, ...]
    successors: dict[str, list[str]]
    sinks: tuple[str, ...]


@dataclass(frozen=True)
class NetSpec:
    """A DAG network plus generation parameters, loadable from JSON."""

    field: str
    nodes: tuple[tuple[str, str], ...]  # (id, role), insertion order significant
    edges: tuple[Edge, ...]
    class_index: int | None
    rank: int
    trials: int
    seed: int | str

    @classmethod
    def from_json(cls, text: str) -> "NetSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecInvalid(f"not valid JSON: {exc}") from None
        _require(isinstance(doc, dict), "top level must be a JSON object")
        missing = _SPEC_KEYS - doc.keys()
        _require(not missing, f"missing keys: {', '.join(sorted(missing))}")
        extra = doc.keys() - _SPEC_KEYS
        _require(not extra, f"unknown keys: {', '.join(sorted(extra))}")
        _require(isinstance(doc["field"], str), '"field" must be a string')
        _require(isinstance(doc["nodes"], list), '"nodes" must be a list')
        nodes = []
        for item in doc["nodes"]:
            ok = (
                isinstance(item, dict)
                and item.keys() == {"id", "role"}
                and isinstance(item["id"], str)
                and isinstance(item["role"], str)
            )
            _require(ok, 'each node must be {"id": str, "role": str}')
            nodes.append((item["id"], item["role"]))
        _require(isinstance(doc["edges"], list), '"edges" must be a list')
        edges = []
        for item in doc["edges"]:
            ok = (
                isinstance(item, list)
                and len(item) == 2
                and all(isinstance(x, str) for x in item)
            )
            _require(ok, "each edge must be a [from, to] pair of node ids")
            edges.append((item[0], item[1]))
        cls_idx = doc["class"]
        _require(
            cls_idx is None or (isinstance(cls_idx, int) and not isinstance(cls_idx, bool)),
            '"class" must be an integer or null',
        )
        for key in ("rank", "trials"):
            _require(
                isinstance(doc[key], int) and not isinstance(doc[key], bool),
                f'"{key}" must be an integer',
            )
        _require(
            (isinstance(doc["seed"], int) and not isinstance(doc["seed"], bool))
            or isinstance(doc["seed"], str),
            '"seed" must be an integer or a string',
        )
        return cls(
            field=doc["field"],
            nodes=tuple(nodes),
            edges=tuple(edges),
            class_index=cls_idx,
            rank=doc["rank"],
            trials=doc["trials"],
            seed=doc["seed"],
        )

    def to_json(self) -> str:
        doc = {
            "field": self.field,
            "nodes": [{"id": nid, "role": role} for nid, role in self.nodes],
            "edges": [list(e) for e in self.edges],
            "class": self.class_index,
            "rank": self.rank,
            "trials": self.trials,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2)

    def ctx(self) -> FieldCtx:
        return field_from_spec(self.field)

    @functools.cached_property
    def plan(self) -> WalkPlan:
        """The source, a topological order (Kahn's algorithm, ties broken by
        node insertion order), the heads of each node's out-edges in edge
        order (parallel edges repeat) and the sinks; built once per spec."""
        sources = [nid for nid, role in self.nodes if role == "source"]
        _require(bool(sources), "no source node")
        succ: dict[str, list[str]] = {nid: [] for nid, _ in self.nodes}
        for u, v in self.edges:
            succ[u].append(v)
        indeg = Counter(v for _, v in self.edges)
        # the order list doubles as the FIFO queue of ready nodes
        order = [nid for nid, _ in self.nodes if indeg[nid] == 0]
        for nid in order:
            for v in succ[nid]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        _require(len(order) == len(self.nodes), "edges contain a cycle")
        sinks = tuple(nid for nid, role in self.nodes if role == "sink")
        return WalkPlan(sources[0], tuple(order), succ, sinks)

    def validate(self, ctx: FieldCtx | None = None) -> None:
        ids = [nid for nid, _ in self.nodes]
        _require(len(set(ids)) == len(ids), "duplicate node id")
        for nid, role in self.nodes:
            _require(role in _ROLES, f"unknown role {role!r} for node {nid!r}")
        known = set(ids)
        for u, v in self.edges:
            _require(u in known and v in known, f"edge [{u!r}, {v!r}] references an unknown node")
            _require(u != v, f"self-loop on {u!r}")
        sources = [nid for nid, role in self.nodes if role == "source"]
        _require(len(sources) == 1, f"exactly one source required, found {len(sources)}")
        _require(
            all(v != sources[0] for _, v in self.edges),
            "the source cannot have incoming edges",
        )
        _require(self.trials >= 0, "trials must be nonnegative")
        plan = self.plan
        reachable = {plan.source}
        for nid in plan.order:
            if nid in reachable:
                reachable.update(plan.successors[nid])
        for nid in plan.sinks:
            _require(nid in reachable, f"sink {nid!r} is unreachable from the source")
        if ctx is not None:
            if self.class_index is not None:
                _require(
                    0 <= self.class_index <= ctx.q - 2,
                    f"class index {self.class_index} outside 0..{ctx.q - 2}",
                )
                if not 0 <= self.rank <= ctx.m:
                    raise RankOutOfRange(f"rank {self.rank} outside 0..{ctx.m}")
            elif self.rank > 1:
                raise RankOutOfRange("a zero-class message has rank at most 1")
            elif self.rank < 0:
                raise RankOutOfRange(f"rank {self.rank} is negative")


def _draw_nonzero_combination(
    ctx: FieldCtx, vectors: Sequence[Sequence[Fe]], rng: random.Random
) -> list[Fe]:
    """Uniform nonzero element of the span: draw one base-field coefficient
    per vector, reject when the combination vanishes.  Exactly one randrange
    call per vector per attempt, so an identically seeded stream replays.
    The vectors share one length; field elements pass as one-entry vectors."""
    q = ctx.q
    while True:
        out = [ZERO] * len(vectors[0])
        for vec in vectors:
            c = ctx.subfield_elements[rng.randrange(q)]
            if c == ZERO:
                continue
            for j, x in enumerate(vec):
                if x != ZERO:
                    out[j] = ctx.add(out[j], ctx.mul(c, x))
        if any(x != ZERO for x in out):
            return out


def relay_forward(ctx: FieldCtx, in_packets: Sequence[Fe], rng: random.Random) -> Fe:
    """One outgoing packet: uniform over the closure of the received ones.

    All-zero input forwards zero (the closure of {0}); otherwise the packets
    must share a class and the draw combines their unwarped preimages, which
    warping carries onto the closure.
    """
    pkts = list(in_packets)
    if not pkts:
        raise EmptyInput("a relay needs at least one incoming packet")
    classes = {class_of(ctx, p) for p in pkts}
    if len(classes) > 1:
        names = ", ".join(sorted("0" if c is None else f"C(g^{c})" for c in classes))
        raise MixedClasses(f"packets span several classes: {names}")
    ell = classes.pop()
    if ell is None:
        return ZERO
    (combo,) = _draw_nonzero_combination(ctx, [(unwarp(ctx, p, ell),) for p in pkts], rng)
    return ctx.mul(ell, warp(ctx, combo))


def encode_message(ctx: FieldCtx, ell: int, r: int, rng: random.Random) -> Flat:
    """Uniformly random rank-r flat of class ell: draw r independent vectors
    over the base field and push the subspace through the class map."""
    if not 1 <= r <= ctx.m:
        raise RankOutOfRange(f"rank {r} outside 1..{ctx.m}")
    rows: list[list[Fe]] = []
    while len(rows) < r:
        vec = [ctx.subfield_elements[rng.randrange(ctx.q)] for _ in range(ctx.m)]
        if mat_rank(ctx, rows + [vec]) == len(rows) + 1:
            rows.append(vec)
    return class_flat(ctx, Subspace.from_vectors(ctx, rows), ell % (ctx.q - 1))


@dataclass(frozen=True)
class SinkResult:
    sink: str
    received: tuple  # arrival order, duplicates kept: points, or vectors in the oracle
    decoded: Flat | Subspace  # the flat of what was received, or the row space
    success: bool
    distance: int


@dataclass(frozen=True)
class TrialReport:
    message: Flat | Subspace
    sinks: tuple[SinkResult, ...]
    success: bool  # every sink recovered the message exactly
    packets_forwarded: int
    edge_packets: tuple[tuple[str, str, object], ...]


def _walk(
    spec: NetSpec,
    message: Flat | Subspace,
    preload: list,
    forward: Callable,
    decode: Callable,
    seed: int | str,
) -> TrialReport:
    """One generation on the DAG, shared by both simulators.  In topological
    order, each node that holds packets sends forward(pool, rng, u, v) on
    each out-edge; the source's pool is the preload.  Each sink then maps its
    received packets through decode to (decoded, distance), and succeeds when
    decoded == message."""
    rng = random.Random(seed)
    plan = spec.plan
    held: dict[str, list] = {nid: [] for nid, _ in spec.nodes}
    edge_log = []
    for u in plan.order:
        pool = preload if u == plan.source else held[u]
        if not pool:
            continue
        for v in plan.successors[u]:
            value = forward(pool, rng, u, v)
            held[v].append(value)
            edge_log.append((u, v, value))
    sinks = []
    for nid in plan.sinks:
        got = tuple(held[nid])
        decoded, distance = decode(got)
        sinks.append(SinkResult(nid, got, decoded, decoded == message, distance))
    return TrialReport(
        message=message,
        sinks=tuple(sinks),
        success=all(s.success for s in sinks),
        packets_forwarded=len(edge_log),
        edge_packets=tuple(edge_log),
    )


def run_trial(
    ctx: FieldCtx, spec: NetSpec, message: Flat, seed: int | str
) -> TrialReport:
    """One generation of the element simulator: relays forward with
    relay_forward, each packet checked on the spot to be a zero of the
    message's minimal polynomial, and sinks decode the flat of what they
    received."""

    def forward(pool: list[Fe], rng: random.Random, u: str, v: str) -> Fe:
        value = relay_forward(ctx, pool, rng)
        if message.minpoly.evaluate(value) != ZERO:
            raise AssertionError(
                f"containment violated: {ctx.format_element(value)} "
                f"forwarded on [{u}, {v}] lies outside the message closure"
            )
        return value

    def decode(got: tuple[Fe, ...]) -> tuple[Flat, int]:
        decoded = matroid_closure(ctx, got)
        return decoded, dist(message, decoded)

    preload = list(p_basis(ctx, message.points))
    return _walk(spec, message, preload, forward, decode, seed)


def canonical_line_rep(ctx: FieldCtx, vector: Sequence[Fe]) -> tuple[Fe, ...]:
    """The scalar multiple whose field element has the least discrete log —
    the same representative unwarping chooses, which is what lets the vector
    simulator mirror the element simulator.  F_q* is {g^(j*class_size)}, so
    that least log is a mod class_size."""
    a = ctx.uncoords(list(vector))
    if a == ZERO:
        raise ZeroArgument("the zero vector spans no line")
    return tuple(ctx.coords(a % ctx.class_size))


def rlnc_oracle_trial(
    ctx: FieldCtx,
    spec: NetSpec,
    source_vectors: Sequence[Sequence[Fe]],
    seed: int | str,
) -> TrialReport:
    """Classical vector network coding on the same DAG: relays forward random
    nonzero combinations, sinks decode the row space.  Every vector is
    canonicalized per line when sent, so a shared seed replays the element
    simulator's draws one for one."""
    message = Subspace.from_vectors(ctx, source_vectors)

    def forward(pool, rng: random.Random, u: str, v: str) -> tuple[Fe, ...]:
        return canonical_line_rep(ctx, _draw_nonzero_combination(ctx, pool, rng))

    def decode(got) -> tuple[Subspace, int]:
        decoded = Subspace.from_vectors(ctx, got)
        return decoded, subspace_dist(decoded, message)

    preload = [canonical_line_rep(ctx, v) for v in source_vectors]
    return _walk(spec, message, preload, forward, decode, seed)


def mirrored_source_vectors(ctx: FieldCtx, message: Flat) -> list[tuple[Fe, ...]]:
    """Lifts of the P-basis the element simulator preloads — the oracle's
    source must start from exactly these vectors for the runs to mirror."""
    if ZERO in message.basis:
        raise SpecInvalid("the zero-class message has no vector counterpart")
    return [tuple(v) for v in lift(ctx, p_basis(ctx, message.points))]


def build_message(ctx: FieldCtx, spec: NetSpec, rng: random.Random) -> Flat:
    """Per-trial message: empty flat at rank 0, the zero flat for the zero
    class, otherwise a random flat of the requested class and rank."""
    if spec.rank == 0:
        return matroid_closure(ctx, ())
    if spec.class_index is None:
        return matroid_closure(ctx, (ZERO,))
    return encode_message(ctx, spec.class_index, spec.rank, rng)


def simulate(
    spec: NetSpec,
    *,
    trials: int | None = None,
    seed: int | str | None = None,
    oracle: str | None = None,
) -> dict:
    """Run the configured number of trials with per-trial seeds derived from
    the master seed; returns a JSON-ready report with fixed key order.  With
    oracle="rlnc" every trial is replayed on the vector simulator under the
    same seed and the decoded flats are compared through the class map."""
    ctx = spec.ctx()
    spec.validate(ctx)
    n_trials = spec.trials if trials is None else trials
    _require(n_trials >= 0, "trials must be nonnegative")
    master = spec.seed if seed is None else seed
    if oracle not in (None, "rlnc"):
        raise SpecInvalid(f"unknown oracle {oracle!r}; supported: rlnc")
    if oracle is not None and spec.class_index is None:
        raise SpecInvalid("the rlnc oracle mirrors nonzero-class messages only")
    sink_ids = spec.plan.sinks
    successes = 0
    packets = 0
    per_sink = {nid: {"successes": 0, "dist": 0} for nid in sink_ids}
    oracle_successes = 0
    oracle_matches = True
    for i in range(n_trials):
        message = build_message(ctx, spec, random.Random(f"{master}:msg:{i}"))
        trial_seed = f"{master}:trial:{i}"
        report = run_trial(ctx, spec, message, trial_seed)
        successes += report.success
        packets += report.packets_forwarded
        for s in report.sinks:
            per_sink[s.sink]["successes"] += s.success
            per_sink[s.sink]["dist"] += s.distance
        if oracle is not None:
            vecs = mirrored_source_vectors(ctx, message)
            oreport = rlnc_oracle_trial(ctx, spec, vecs, trial_seed)
            oracle_successes += oreport.success
            ell = spec.class_index % (ctx.q - 1)
            for s, os in zip(report.sinks, oreport.sinks):
                if class_flat(ctx, os.decoded, ell) != s.decoded:
                    oracle_matches = False
    dist_total = sum(entry["dist"] for entry in per_sink.values())
    dist_count = n_trials * len(sink_ids)
    out = {
        "success_rate": successes / n_trials if n_trials else None,
        "mean_distance": dist_total / dist_count if dist_count else None,
        "per_sink": [
            {
                "id": nid,
                "success_rate": per_sink[nid]["successes"] / n_trials if n_trials else None,
                "mean_distance": per_sink[nid]["dist"] / n_trials if n_trials else None,
            }
            for nid in sink_ids
        ],
        "trials": n_trials,
        "seed": master,
        "packets_forwarded": packets,
        "oracle": None,
    }
    if oracle is not None:
        out["oracle"] = {
            "protocol": "rlnc",
            "success_rate": oracle_successes / n_trials if n_trials else None,
            "per_trial_match": oracle_matches,
        }
    return out
