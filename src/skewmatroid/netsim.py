"""Network-coding simulator where packets are single field elements.

A source encodes its message as a flat of one conjugacy class and is treated
as a relay preloaded with message.basis, the flat's greedy P-basis in
canonical order.  The message is drawn as its minimal polynomial, fed the
class points of the relays' draw until r are P-independent, which inside a
class is F_q-independence of their preimages: no row is reduced.
NetSpec.plan is the spec check, so no walk reads an unchecked spec.  Every
node forwards, per outgoing edge, one element drawn uniformly from the
closure of the packets it holds: unwarp the packets, draw a uniform nonzero
F_q-linear combination of the unwarped field elements, warp the result back
into the class.  A flat is known by its monic minimal polynomial: forwarded
packets are checked to be its zeros, sinks decode to the flat of what they
received, and success is exact flat recovery; partial recovery is reported
through the flat metric.

That basis costs what its rank r needs: the greedy stops at r points and
reads whichever canonical-order stream costs less by a closed-form count,
the flat's points enumerated from its (q^r - 1)/(q - 1) lines, each line
weighed as _LINE_WEIGHT terms, or the class scanned in ascending log for
zeros of the minimal polynomial by field.vanishing_points, the kernel that
zeros on m = 1 reads too (about r q^(m-r) points of r terms each).

Links are error-free and carry one packet per trial; relays keep no state
across trials.  A classical random-linear-network-coding simulator over
coordinate vectors acts as an independent oracle: each vector it sends is
the minimum-discrete-log representative of its line, the one unwarping picks
(the source sends the unwarped lifts of message.basis, and each relay
canonicalizes its combination), and it takes the element simulator's
coefficients, so its decoded row space corresponds to the decoded flat
through the warping correspondence, packet for packet.  It has no generator:
the element walk's draws record the reads they accept, rejected attempts'
included, and each oracle relay combines its vectors with its edge's
recorded reads, retrying while the combination vanishes.  A relay that runs
out of its draw's reads, meets a read the draw could not have made, or
leaves some unread, makes the trial a mismatch.  The two simulators share
the DAG walk; _draw_nonzero_combination, the element relays' and the
message's draw, is the one reader of the seeded generator, each coefficient
reading getrandbits as randrange(q) makes its reads.  Their arithmetic,
decoding and metrics are separate code.  An oracle sink's rows are
combinations of the source rows, so its distance is the dimension it lacks,
read without a row reduction.

Messages and receptions repeat from trial to trial.  A spec of rank 0, rank
m or the zero class leaves one flat to draw, so simulate builds that message
once per call.  It keeps one table for a call, with four kinds of entry:
the element and the oracle decode of each distinct reception, keyed by (the
message or its row space, the distinct received packets in sorted order),
as a sink decodes the closure of the set of packets it received; the
oracle's source of each distinct message, keyed by the message; and the
class image of each decoded row space.  No two keys are equal, as Flat and
Subspace equal only their own type.  The table holds at most
_MAX_TABLE_ENTRIES entries and is cleared when full; nothing is kept across
calls, and a trial run on its own starts from an empty table.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from typing import Callable, NamedTuple, Sequence

from .conjugacy import class_labels, class_of, unwarp_all, warp
from .errors import (
    EmptyInput,
    MixedClasses,
    RankOutOfRange,
    SpecInvalid,
    WrongClass,
    ZeroArgument,
)
from .field import Fe, FieldCtx, ZERO, add_scaled, field_from_spec, vanishing_points
from .matroid import Flat, Subspace, class_flat, dist, matroid_closure
from .minimal import closure, lift, minimal_poly_and_basis, p_basis

Edge = tuple[str, str]

_ROLES = frozenset({"source", "relay", "sink"})
_SPEC_KEYS = frozenset({"field", "nodes", "edges", "class", "rank", "trials", "seed"})
_MAX_EDGE_TRIALS = 250_000  # trials x max(1, edges): 62,500 trials on the diamond
_MAX_TABLE_ENTRIES = 1_024  # in the one table simulate keeps for a call; see _memo
# a line of the preload's line route costs about 3 terms of a scanned point:
# 0.8-0.9 us against 0.25-0.32 us of CPU, on 2,20,1,1, 3,12,1,1, 3,10,2,1
# and 2,16,4,1 at the ranks where the two routes cost the same
_LINE_WEIGHT = 3


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecInvalid(message)


class WalkPlan(NamedTuple):
    """What a walk of the DAG reads; see NetSpec.plan."""

    source: str
    order: tuple[str, ...]
    successors: dict[str, list[str]]
    sinks: tuple[str, ...]


class _NetSpecFields(NamedTuple):
    field: str
    nodes: tuple[tuple[str, str], ...]  # (id, role), insertion order significant
    edges: tuple[Edge, ...]
    class_index: int | None
    rank: int
    trials: int
    seed: int | str


class NetSpec(_NetSpecFields):
    """A DAG network plus generation parameters, loadable from JSON.  The
    fields are a NamedTuple's, so _replace gives a spec with its own plan;
    this subclass has the __dict__ that the cached plan is kept in."""

    @classmethod
    def from_json(cls, text: str) -> "NetSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecInvalid(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise SpecInvalid("JSON nested too deeply") from None
        except ValueError:  # an integer literal past int()'s digit limit
            raise SpecInvalid("an integer literal has too many digits") from None
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

    def ctx(self) -> FieldCtx:
        return field_from_spec(self.field)

    @functools.cached_property
    def plan(self) -> WalkPlan:
        """The spec check, raising SpecInvalid, and what a walk reads: the one
        source, a topological order (Kahn's algorithm, ties broken by node
        insertion order), the heads of each node's out-edges in edge order
        (parallel edges repeat) and the reachable sinks; built once per spec."""
        ids = [nid for nid, _ in self.nodes]
        _require(len(set(ids)) == len(ids), "duplicate node id")
        for nid, role in self.nodes:
            _require(role in _ROLES, f"unknown role {role!r} for node {nid!r}")
        succ: dict[str, list[str]] = {nid: [] for nid in ids}
        for u, v in self.edges:
            _require(u in succ and v in succ, f"edge [{u!r}, {v!r}] references an unknown node")
            _require(u != v, f"self-loop on {u!r}")
            succ[u].append(v)
        sources = [nid for nid, role in self.nodes if role == "source"]
        _require(len(sources) == 1, f"exactly one source required, found {len(sources)}")
        indeg = Counter(v for _, v in self.edges)
        _require(indeg[sources[0]] == 0, "the source cannot have incoming edges")
        # the order list doubles as the FIFO queue of ready nodes
        order = [nid for nid in ids if indeg[nid] == 0]
        reachable = {sources[0]}
        for nid in order:
            if nid in reachable:
                reachable.update(succ[nid])
            for v in succ[nid]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        _require(len(order) == len(ids), "edges contain a cycle")
        sinks = tuple(nid for nid, role in self.nodes if role == "sink")
        for nid in sinks:
            _require(nid in reachable, f"sink {nid!r} is unreachable from the source")
        return WalkPlan(sources[0], tuple(order), succ, sinks)

    def validate(self, ctx: FieldCtx, *, trials: int | None = None) -> None:
        """The spec check: the count of trials that run (trials when given,
        else the spec's), the walk plan, and the class and rank on ctx."""
        trials = self.trials if trials is None else trials
        _require(trials >= 0, "trials must be nonnegative")
        _require(
            trials * max(1, len(self.edges)) <= _MAX_EDGE_TRIALS,
            f"trials x max(1, edges) is capped at {_MAX_EDGE_TRIALS:,}; got {trials} trials",
        )
        self.plan  # the structural checks
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


def _memo(table: dict, key, compute: Callable, *args):
    """table[key], stored as compute(*args) on a miss; a table that holds
    _MAX_TABLE_ENTRIES entries is cleared before it takes another, so it
    never holds more.  Stored values are never None."""
    value = table.get(key)
    if value is None:
        if len(table) >= _MAX_TABLE_ENTRIES:
            table.clear()
        value = table[key] = compute(*args)
    return value


def _draw_nonzero_combination(ctx: FieldCtx, items: Sequence[Fe], rng: random.Random) -> Fe:
    """Uniform nonzero element of the span of nonzero field elements: draw
    one base-field coefficient per item, combine through ctx.add, reject
    when the combination vanishes.  Each coefficient reads
    getrandbits(q.bit_length()) until the value is below q, the reads
    randrange(q) makes, so an identically seeded stream replays: one
    accepted read per item per attempt.  On a generator that carries a
    record list (see run_trial) the draw appends each read it accepts,
    rejected attempts' included, and then None."""
    q, cs, getrandbits = ctx.q, ctx.class_size, rng.getrandbits
    k, N, add = q.bit_length(), ctx.order - 1, ctx.add
    record = getattr(rng, "record", None)
    if record is not None:
        keep = record.append
    while True:
        out = ZERO
        for b in items:
            r = getrandbits(k)
            while r >= q:
                r = getrandbits(k)
            if record is not None:
                keep(r)
            if r:  # subfield_elements[r]: ZERO, or the log (r - 1) * class_size
                out = add(out, (b + (r - 1) * cs) % N)
        if out != ZERO:
            if record is not None:
                keep(None)
            return out


class _ReplayMismatch(Exception):
    """The oracle's relays did not use exactly the recorded reads."""


def relay_forward(ctx: FieldCtx, in_packets: Sequence[Fe], rng: random.Random) -> Fe:
    """One outgoing packet: uniform over the closure of the received ones.

    All-zero input forwards zero (the closure of {0}); otherwise the packets
    must share a class and the draw combines their unwarped preimages, which
    warping carries onto the closure.
    """
    if not in_packets:
        raise EmptyInput("a relay needs at least one incoming packet")
    ell = class_of(ctx, in_packets[0])
    if ell is None:
        if in_packets.count(ZERO) == len(in_packets):
            return ZERO
    else:
        try:  # one pass checks each packet's class and unwarps it
            units = unwarp_all(ctx, in_packets, ell)
        except WrongClass:
            pass
        else:
            a = _draw_nonzero_combination(ctx, units, rng)
            return (ell + warp(ctx, a)) % (ctx.order - 1)
    names = class_labels(ctx, (class_of(ctx, p) for p in in_packets))
    raise MixedClasses(f"packets span several classes: {names}")


def encode_message(ctx: FieldCtx, ell: int, r: int, rng: random.Random) -> Flat:
    """Uniformly random rank-r flat of class ell: the relays' draw over the
    field's basis feeds its class points g^ell * warp to the greedy minimal
    polynomial until it holds r.  Its basis, which the source sends, is the
    greedy P-basis of its points in canonical order, stopped at r points and
    read from the flat's lines or from a scan of class ell for zeros of its
    minimal polynomial, whichever weighed count (see the module docstring) is
    smaller."""
    if not 1 <= r <= ctx.m:
        raise RankOutOfRange(f"rank {r} outside 1..{ctx.m}")
    ell %= ctx.q - 1
    q, m = ctx.q, ctx.m
    draws = iter(lambda: _draw_nonzero_combination(ctx, ctx.basis, rng), None)
    drawn = (ctx.mul(ell, warp(ctx, a)) for a in draws)
    minpoly, picks = minimal_poly_and_basis(ctx, drawn, rank=r)
    if _LINE_WEIGHT * (q**r - 1) // (q - 1) <= r * r * q ** (m - r):
        points = closure(ctx, picks)
    else:
        points = vanishing_points(ctx, minpoly.coeffs, range(ell, ctx.order - 1, q - 1))
    return Flat(ctx, minpoly, p_basis(ctx, points, rank=r))


class SinkResult(NamedTuple):
    sink: str
    received: tuple  # arrival order, duplicates kept: points, or vectors in the oracle
    decoded: Flat | Subspace  # the flat of what was received, or the row space
    success: bool
    distance: int


class TrialReport(NamedTuple):
    message: Flat | Subspace
    sinks: tuple[SinkResult, ...]
    success: bool  # every sink recovered the message exactly
    packets_forwarded: int
    edge_packets: tuple[tuple[str, str, object], ...]


def _walk(
    spec: NetSpec,
    message: Flat | Subspace,
    preload: Sequence,
    forward: Callable,
    decode: Callable,
    decoded: dict | None,
) -> TrialReport:
    """One generation on the DAG, shared by both simulators.  The source
    starts out holding the preload.  In topological order, each node that
    holds packets sends forward(pool, u, v) on each out-edge.  Each sink
    then maps its received packets through decode to (span, distance), which
    depend only on their set, and succeeds when span == message.  The pair is
    a decode entry of the table decoded (see the module docstring), so decode
    runs only on a miss; None stands for a fresh table."""
    plan = spec.plan
    held: dict[str, Sequence] = {nid: [] for nid, _ in spec.nodes}
    held[plan.source] = preload  # never appended to: the source has no in-edges
    edge_log = []
    for u in plan.order:
        pool = held[u]
        if not pool:
            continue
        for v in plan.successors[u]:
            value = forward(pool, u, v)
            held[v].append(value)
            edge_log.append((u, v, value))
    if decoded is None:
        decoded = {}
    sinks = []
    for nid in plan.sinks:
        got = tuple(held[nid])
        span, distance = _memo(decoded, (message, tuple(sorted(set(got)))), decode, got)
        sinks.append(SinkResult(nid, got, span, span == message, distance))
    return TrialReport(
        message=message,
        sinks=tuple(sinks),
        success=all(s.success for s in sinks),
        packets_forwarded=len(edge_log),
        edge_packets=tuple(edge_log),
    )


def run_trial(
    ctx: FieldCtx,
    spec: NetSpec,
    message: Flat,
    seed: int | str,
    *,
    decoded: dict | None = None,
    record: list[int | None] | None = None,
) -> TrialReport:
    """One generation of the element simulator, on a generator seeded from
    seed: relays forward with relay_forward, each packet checked on the spot
    to be a zero of the message's minimal polynomial, and sinks decode the
    flat of what they received, through the table decoded (see _walk).  A
    list record travels on the generator and receives the draws' reads in
    walk order, each draw's followed by None, for rlnc_oracle_trial to
    replay."""
    rng = random.Random(seed)
    if record is not None:
        rng.record = record

    def forward(pool: list[Fe], u: str, v: str) -> Fe:
        value = relay_forward(ctx, pool, rng)
        if message.minpoly.evaluate(value) != ZERO:
            raise AssertionError(
                f"containment violated: {ctx.format_element(value)} "
                f"forwarded on [{u}, {v}] lies outside the message closure"
            )
        return value

    def decode(got: tuple[Fe, ...]) -> tuple[Flat, int]:
        span = matroid_closure(ctx, got)
        return span, dist(message, span)

    return _walk(spec, message, message.basis, forward, decode, decoded)


def canonical_line_rep(ctx: FieldCtx, vector: Sequence[Fe]) -> tuple[Fe, ...]:
    """The scalar multiple whose field element has the least discrete log —
    the same representative unwarping chooses, which is what lets the vector
    simulator mirror the element simulator.  F_q* is {g^(j*class_size)}, so
    that least log is a mod class_size, reached by scaling the vector by
    g^-(a - a mod class_size): coords(c a) = c coords(a) for c in F_q."""
    a = ctx.uncoords(vector)
    if a == ZERO:
        raise ZeroArgument("the zero vector spans no line")
    k = a % ctx.class_size - a
    if k == 0:
        return tuple(vector)
    N = ctx.order - 1
    return tuple(c if c == ZERO else (c + k) % N for c in vector)


def _oracle_source(ctx: FieldCtx, message: Flat) -> tuple[Subspace, tuple]:
    """The row space of the lifts of message.basis, and those lifts."""
    lifts = tuple(mirrored_source_vectors(ctx, message))
    return Subspace.from_vectors(ctx, lifts), lifts


def rlnc_oracle_trial(
    ctx: FieldCtx,
    spec: NetSpec,
    message: Flat,
    reads: Sequence[int | None],
    *,
    decoded: dict | None = None,
) -> TrialReport | None:
    """Classical vector network coding on the same DAG: the source sends the
    lifts of message.basis, relays forward random nonzero combinations, sinks
    decode the row space.  The coefficients are reads, the record that
    run_trial filled: each relay takes one read r per vector per attempt as
    the coefficient subfield_elements[r], retrying while the combination
    vanishes, and sends the combination canonicalized per line.  None is
    returned unless each edge uses exactly its own draw's reads, each in
    0..q-1.  A sink's distance is the dimension it lacks, as its rows are
    combinations of the source rows.  The source and the decodes go through
    the table decoded (see the module docstring)."""
    if decoded is None:
        decoded = {}
    space, preload = _memo(decoded, message, _oracle_source, ctx, message)
    q, cs, coefficients = ctx.q, ctx.class_size, iter(reads)

    def forward(pool, u: str, v: str) -> tuple[Fe, ...]:
        while True:
            out = [ZERO] * len(pool[0])
            for vec in pool:
                r = next(coefficients, None)
                if type(r) is not int or not 0 <= r < q:
                    raise _ReplayMismatch  # past the draw's reads, or one it never made
                if r:  # subfield_elements[r], as in the draw
                    add_scaled(ctx, out, vec, (r - 1) * cs)
            if out.count(ZERO) != len(out):
                if next(coefficients, 0) is not None:  # the draw's reads end here
                    raise _ReplayMismatch
                return canonical_line_rep(ctx, out)

    def decode(got) -> tuple[Subspace, int]:
        span = Subspace.from_vectors(ctx, got)
        return span, space.dim - span.dim

    try:
        report = _walk(spec, space, preload, forward, decode, decoded)
    except _ReplayMismatch:
        return None
    return None if list(coefficients) else report  # a recorded draw left unmade


def mirrored_source_vectors(ctx: FieldCtx, message: Flat) -> list[tuple[Fe, ...]]:
    """Lifts of message.basis, which the element simulator preloads — the
    oracle's source must start from exactly these vectors to mirror it."""
    if ZERO in message.basis:
        raise SpecInvalid("the zero-class message has no vector counterpart")
    return [tuple(v) for v in lift(ctx, message.basis)]


def build_message(ctx: FieldCtx, spec: NetSpec, rng: random.Random) -> Flat:
    """Per-trial message: empty flat at rank 0, the zero flat for the zero
    class, otherwise a random flat of the requested class and rank."""
    if spec.rank == 0:
        return matroid_closure(ctx, ())
    if spec.class_index is None:
        return matroid_closure(ctx, (ZERO,))
    return encode_message(ctx, spec.class_index, spec.rank, rng)


def _mean(total: int, count: int) -> float | None:
    return total / count if count else None


def simulate(
    spec: NetSpec,
    *,
    trials: int | None = None,
    seed: int | str | None = None,
    oracle: str | None = None,
) -> dict:
    """Run the configured number of trials with per-trial seeds derived from
    the master seed; returns a JSON-ready report with fixed key order.  With
    oracle="rlnc" each trial records its draws' reads, the vector simulator
    combines its vectors with them, and the decoded flats are compared
    through the class map; a trial whose vector relays do not use exactly
    its record is a mismatch.

    At rank 0, rank m and in the zero class the spec leaves one flat, so the
    message is built once, from trial 0's seed, and every trial sends it.
    Both simulators read and fill the call's one table (see the module
    docstring); the report is the same as without it."""
    ctx = spec.ctx()
    n_trials = spec.trials if trials is None else trials
    spec.validate(ctx, trials=n_trials)
    master = spec.seed if seed is None else seed
    if oracle not in (None, "rlnc"):
        raise SpecInvalid(f"unknown oracle {oracle!r}; supported: rlnc")
    if oracle is not None and spec.class_index is None:
        raise SpecInvalid("the rlnc oracle mirrors nonzero-class messages only")
    sink_ids = spec.plan.sinks
    successes = packets = oracle_successes = 0
    sink_successes = [0] * len(sink_ids)
    sink_dists = [0] * len(sink_ids)
    oracle_matches = True
    table: dict = {}
    one_choice = spec.rank in (0, ctx.m) or spec.class_index is None
    message = None
    for i in range(n_trials):
        if message is None or not one_choice:
            message = build_message(ctx, spec, random.Random(f"{master}:msg:{i}"))
        trial_seed = f"{master}:trial:{i}"
        record = None if oracle is None else []
        report = run_trial(ctx, spec, message, trial_seed, decoded=table, record=record)
        successes += report.success
        packets += report.packets_forwarded
        for j, s in enumerate(report.sinks):
            sink_successes[j] += s.success
            sink_dists[j] += s.distance
        if oracle is not None:
            oreport = rlnc_oracle_trial(ctx, spec, message, record, decoded=table)
            if oreport is None:
                oracle_matches = False
                continue
            oracle_successes += oreport.success
            for s, os in zip(report.sinks, oreport.sinks):
                image = _memo(table, os.decoded, class_flat, ctx, os.decoded, spec.class_index)
                if image != s.decoded:
                    oracle_matches = False
    return {
        "success_rate": _mean(successes, n_trials),
        "mean_distance": _mean(sum(sink_dists), n_trials * len(sink_ids)),
        "per_sink": [
            {"id": nid, "success_rate": _mean(ok, n_trials), "mean_distance": _mean(d, n_trials)}
            for nid, ok, d in zip(sink_ids, sink_successes, sink_dists)
        ],
        "trials": n_trials,
        "seed": master,
        "packets_forwarded": packets,
        "oracle": None if oracle is None else {
            "protocol": "rlnc",
            "success_rate": _mean(oracle_successes, n_trials),
            "per_trial_match": oracle_matches,
        },
    }
