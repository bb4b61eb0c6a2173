"""Traced runs: spans around the calls into each module, per-layer metrics.

A traced run replays the first blocks of the run's stream twice, each time
in a fresh interpreter so that field and unwarp caches start cold: once
untraced in a child process, once in this process with spans around calls
into ``field``, ``conjugacy``, ``skewpoly``, ``minimal``, ``matroid``,
``netsim``, ``cli`` and ``selftest``.  On the simulators the program's own
``simulate`` runs, with the names it looks up in ``netsim`` swapped for
span-wrapping versions for the length of each call; elsewhere the spans sit
in the benchmark's code around its calls into the library.  The two replays
must agree output for output, and recorded operations must also match the
reference.  Nanosecond- and microsecond-scale kernels are timed by
calibrated loops on a freshly built context of the workload's field.  Spans
stay in memory until the end, when they are written to ``.bench_out/``.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import Counter

import skewmatroid as sm
from skewmatroid import netsim
from skewmatroid.field import rref

from timing import ScaledCosts, cpu_s
from workloads import (
    DIAMOND_PATH,
    OUT_DIR,
    QUERY_KINDS,
    ROOT,
    digest,
    load_reference,
    run_child,
)

LAYERS = ("field", "conjugacy", "skewpoly", "minimal", "matroid", "netsim", "cli", "selftest")
# Blocks replayed per traced run (sims: 6 or 9 simulate calls per block;
# query: 50 queries per block; cli: one pass of the script per block).
REPLAY_BLOCKS = {"sim_f16_oracle": 20, "sim_f65536": 20, "query_f59049": 10, "cli_cold": 1}
PROBES = 5


class Tracer:
    """Spans as [name, start, end, parent index, replay position], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span."""

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced


def replay_ops(w, seed: int) -> list:
    """The first blocks of the run's stream; the same for both replays."""
    stream = w.blocks(seed)
    return [op for _, block in zip(range(REPLAY_BLOCKS[w.name]), stream) for op in block]


def scaled_replay(w, ops: list, step) -> float:
    """Call ``step(pos, op)`` on each op; return their CPU seconds, scaled
    to the nominal host speed as in a measured run."""
    timed = ScaledCosts(w.spawns)
    for pos, op in enumerate(ops):
        start = cpu_s()
        step(pos, op)
        timed.add(cpu_s() - start)
    timed.close_window()
    return sum(timed.scaled())


def untraced_replay(w, seed: int) -> dict:
    digests = []

    def step(pos: int, op) -> None:
        try:
            digests.append(digest(w.execute(op)))
        except Exception:  # counted as a mismatch by the traced run
            traceback.print_exc(file=sys.stderr)
            digests.append("error")

    return {"cpu_s": scaled_replay(w, replay_ops(w, seed), step), "digests": digests}


# -- the simulator, spanned in place ------------------------------------------

# The names ``netsim.simulate`` and ``netsim.run_trial`` look up in their
# module at call time, and the span each call of them records.
NETSIM_SPANS = {
    "field_from_spec": "field.get_field",
    "build_message": "netsim.build_message",
    "class_flat": "matroid.class_flat",
    "run_trial": "netsim.trial",
    "p_basis": "minimal.p_basis",
    "relay_forward": "netsim.relay_forward",
    "matroid_closure": "matroid.matroid_closure",
    "dist": "matroid.dist",
    "mirrored_source_vectors": "netsim.mirrored_source_vectors",
    "rlnc_oracle_trial": "netsim.oracle_trial",
}


class SimCounts:
    def __init__(self) -> None:
        self.trials = 0
        self.packets = 0
        self.unwarped = 0
        self.distinct: set[int] = set()


@contextlib.contextmanager
def spanned_netsim(tr: Tracer, counts: SimCounts):
    """For the length of the block, route the simulator's own calls into
    other modules (and ``NetSpec.validate``) through spans, and count the
    trials and packets; the program's code runs unchanged."""
    saved = {name: getattr(netsim, name) for name in NETSIM_SPANS}
    saved_validate = netsim.NetSpec.validate
    for name, span_name in NETSIM_SPANS.items():
        setattr(netsim, name, tr.wrap(span_name, saved[name]))
    traced_trial, traced_relay = netsim.run_trial, netsim.relay_forward

    def run_trial(*args, **kwargs):
        counts.trials += 1
        return traced_trial(*args, **kwargs)

    def relay_forward(ctx, in_packets, rng):
        counts.packets += 1
        counts.unwarped += len(in_packets)
        counts.distinct.update(in_packets)
        return traced_relay(ctx, in_packets, rng)

    netsim.run_trial, netsim.relay_forward = run_trial, relay_forward
    netsim.NetSpec.validate = tr.wrap("netsim.validate", saved_validate)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(netsim, name, fn)
        netsim.NetSpec.validate = saved_validate


# -- the CLI: one library replica per call ------------------------------------


def cli_replica(w, seed: int, pos: int) -> dict:
    """In a fresh interpreter, make the library calls that the replay's
    ``pos``-th CLI call makes, with a cold field cache; return their spans."""
    op = replay_ops(w, seed)[pos]
    argv = list(op.args)
    tr = Tracer()
    tr.op = pos

    def arg_after(flag: str) -> str:
        return argv[argv.index(flag) + 1]

    if op.kind == "selftest":
        from skewmatroid.selftest import run_all

        with tr.span("selftest.run_all"):
            run_all()
    elif op.kind == "simulate":
        spec = sm.NetSpec.from_json(DIAMOND_PATH.read_text(encoding="utf-8"))
        with tr.span("field.build"):
            spec.ctx()
        with tr.span("netsim.simulate"):
            sm.simulate(spec, seed=arg_after("--seed"), oracle="rlnc")
    else:
        with tr.span("field.build"):
            ctx = sm.field_from_spec(arg_after("--field"))
        if op.kind == "flats":
            ell = int(arg_after("--class")) if "--class" in argv else None
            with tr.span("matroid.flats"):
                list(sm.flats(ctx, class_index=ell))
        elif op.kind == "isometry-check":
            with tr.span("matroid.verify_isometry"):
                sm.verify_isometry(ctx)
        elif op.kind == "repmatrix":
            with tr.span("matroid.representation"):
                sm.representation(ctx)
        elif op.kind == "classof":
            with tr.span("conjugacy.class_of"):
                sm.class_of(ctx, ctx.parse_element(argv[-1]))
        else:
            pts = tuple(ctx.parse_element(t) for t in argv[-1].split(","))
            name, fn = {
                "rank": ("minimal.rank_of", sm.rank_of),
                "closure": ("minimal.closure_single", sm.closure),
                "minpoly": ("minimal.minimal_poly", sm.minimal_poly),
            }[op.kind]
            with tr.span(name):
                fn(ctx, pts)
    return {"spans": tr.spans}


def _child_json(argv: list[str]) -> dict:
    out, code, _ = run_child([sys.executable, *argv])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} ... exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def build_peak_mib(field: str) -> float:
    """Peak memory traced while building a new context of the field."""
    tracemalloc.start()
    try:
        sm.FieldCtx(*(int(t) for t in field.split(",")))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _probe_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    samples = []
    for _ in range(PROBES):
        start = time.perf_counter()
        _, rc, _ = run_child([sys.executable, "-c", code])
        samples.append((time.perf_counter() - start) * 1e3)
        if rc != 0:
            raise RuntimeError(f"python -c {code!r} exited with {rc}")
    return statistics.median(samples)


# -- calibrated kernels --------------------------------------------------------


def _loop_ns(fn, pairs) -> float:
    """Per-call cost of fn(a, b) over pairs, less the bare loop; median of 5."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        mid = time.perf_counter()
        for a, b in pairs:
            pass
        samples.append((2 * mid - start - time.perf_counter()) / len(pairs) * 1e9)
    return statistics.median(samples)


def _each_us(fn, items) -> float:
    """Median of per-call times of fn(item), in microseconds."""
    samples = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples)


def calibrate(field: str, seed: int) -> dict[str, float]:
    nums = [int(t) for t in field.split(",")]
    start = time.perf_counter()
    ctx = sm.FieldCtx(*nums)  # a new context: caches keyed on it start cold
    build_ms = (time.perf_counter() - start) * 1e3

    rng = random.Random(f"calibrate:{seed}")
    units = ctx.order - 1
    elems = [rng.randrange(units) for _ in range(20000)]
    pairs = list(zip(elems, reversed(elems)))
    distinct = list(dict.fromkeys(elems))[:300]
    classes = [sm.class_of(ctx, a) for a in distinct]
    sub = ctx.subfield_elements
    matrices = [[[rng.choice(sub) for _ in range(ctx.m)] for _ in range(ctx.m)] for _ in range(200)]
    rank = min(3, ctx.m)

    def class_points(k: int) -> tuple:
        ell = rng.randrange(ctx.q - 1)
        return tuple(ell + (ctx.q - 1) * rng.randrange(ctx.class_size) for _ in range(k))

    polys = [sm.minimal_poly(ctx, class_points(rank)) for _ in range(20)]
    subspaces = []
    for _ in range(20):
        vecs = [[rng.choice(sub) for _ in range(ctx.m)] for _ in range(rng.randint(1, rank))]
        subspaces.append((sm.Subspace.from_vectors(ctx, vecs), rng.randrange(ctx.q - 1)))
    subspaces = [(v, ell) for v, ell in subspaces if v.dim > 0]

    cold = _each_us(lambda i: sm.unwarp(ctx, distinct[i], classes[i]), range(len(distinct)))
    hot = _each_us(lambda i: sm.unwarp(ctx, distinct[i], classes[i]), range(len(distinct)))
    coords = [ctx.coords(a) for a in distinct]
    return {
        "field.build_ms": build_ms,
        "field.add_ns": _loop_ns(ctx.add, pairs),
        "field.mul_ns": _loop_ns(ctx.mul, pairs),
        "field.coords_us": _each_us(ctx.coords, distinct),
        "field.uncoords_us": _each_us(ctx.uncoords, coords),
        "field.rref_us": _each_us(lambda mat: rref(ctx, mat), matrices),
        "conjugacy.unwarp_cold_us": cold,
        "conjugacy.unwarp_hot_us": hot,
        "conjugacy.class_of_us": _loop_ns(sm.class_of, [(ctx, a) for a in elems]) / 1e3,
        "skewpoly.evaluate_us": _each_us(lambda i: polys[i % 20].evaluate(elems[i]), range(2000)),
        "skewpoly.zeros_ms": _each_us(lambda f: f.zeros(), polys[:3]) / 1e3,
        "matroid.class_flat_ms": _each_us(lambda t: sm.class_flat(ctx, *t), subspaces) / 1e3,
    }


# -- the traced run ------------------------------------------------------------


def _self_ms(spans: list[list]) -> dict[str, float]:
    """Per layer: span time not covered by child spans, summed, in ms."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = Counter()
    for (name, start, end, _, _), child in zip(spans, covered):
        out[name.split(".")[0]] += (end - start - child) * 1e3
    return out


def _median_duration(spans: list[list], name: str, scale: float) -> float:
    durations = [end - start for n, start, end, _, _ in spans if n == name]
    return statistics.median(durations) * scale if durations else 0.0


def traced_run(w, seed: int) -> tuple[dict, dict]:
    base = _child_json([str(ROOT / "bench" / "run.py"), "--workload", w.name,
                        "--seed", str(seed), "--replay"])
    ops = replay_ops(w, seed)
    reference = load_reference(w.name)
    tr = Tracer()
    sim = SimCounts()
    failed = 0

    def step(pos: int, op) -> None:
        nonlocal failed
        tr.op = pos
        try:
            with tr.span("bench.op"):
                if w.name.startswith("sim_"):
                    with spanned_netsim(tr, sim):
                        out = w.execute(op)
                elif w.name == "cli_cold":
                    with tr.span("cli.call"):
                        out = w.execute(op)
                else:
                    out = w.execute(op, span=tr.span)
        except Exception:  # every failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            return
        recorded = op.index is None or base["digests"][pos] == reference[op.index]
        failed += not (digest(out) == base["digests"][pos] and recorded)

    traced_cpu = scaled_replay(w, ops, step)
    spans = tr.spans

    interp_ms = _probe_ms("pass")
    import_ms = _probe_ms("import skewmatroid.cli") - interp_ms
    replica_spans: list[list] = []
    overheads = []
    build_ms = 0.0
    if w.name == "cli_cold":
        call_ms = {pos: (e - s) * 1e3 for n, s, e, _, pos in spans if n == "cli.call"}
        for pos in range(len(ops)):
            rspans = _child_json([str(ROOT / "bench" / "run.py"), "--workload", w.name,
                                  "--seed", str(seed), "--replica", str(pos)])["spans"]
            lib_ms = sum((e - s) * 1e3 for _, s, e, parent, _ in rspans if parent < 0)
            build_ms += sum((e - s) * 1e3 for n, s, e, _, _ in rspans if n == "field.build")
            overheads.append(call_ms[pos] - interp_ms - import_ms - lib_ms)
            replica_spans.extend(rspans)

    metrics = calibrate(w.field, seed)
    metrics["field.build_peak_mib"] = build_peak_mib(w.peak_field)
    if w.name == "cli_cold":
        metrics["field.build_ms"] = build_ms  # every cold build one pass pays
    kinds = Counter(op.kind for op in ops)
    metrics.update({
        "conjugacy.unwarp_distinct_share": len(sim.distinct) / sim.unwarped if sim.unwarped else 0.0,
        "minimal.closure_mixed_share": kinds["closure_mixed"] / len(ops) if w.name.startswith("query") else 0.0,
        "netsim.trials": sim.trials,
        "netsim.packets": sim.packets,
        "cli.calls": len(ops) if w.name == "cli_cold" else 0,
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.overhead_ms": statistics.median(overheads) if overheads else 0.0,
        "trace.overhead_share": traced_cpu / base["cpu_s"] - 1,
    })
    if w.name.startswith("query"):
        metrics.update({f"queries.{k}": kinds[k] for k in QUERY_KINDS})
    else:
        metrics.update({f"queries.{k}": 0 for k in QUERY_KINDS})
    all_spans = spans + replica_spans
    for name, scale, metric in (
        ("skewpoly.mul", 1e6, "skewpoly.mul_us"),
        ("skewpoly.right_divmod", 1e6, "skewpoly.right_divmod_us"),
        ("skewpoly.grcd", 1e6, "skewpoly.grcd_us"),
        ("skewpoly.llcm", 1e6, "skewpoly.llcm_us"),
        ("minimal.closure_single", 1e3, "minimal.closure_single_ms"),
        ("minimal.closure_mixed", 1e3, "minimal.closure_mixed_ms"),
        ("minimal.minimal_poly", 1e6, "minimal.minimal_poly_us"),
        ("minimal.rank_of", 1e6, "minimal.rank_of_us"),
        ("matroid.matroid_closure", 1e6, "matroid.matroid_closure_us"),
        ("matroid.dist", 1e6, "matroid.dist_us"),
        ("matroid.flats", 1e3, "matroid.flats_ms"),
        ("matroid.verify_isometry", 1e3, "matroid.verify_isometry_ms"),
        ("matroid.representation", 1e3, "matroid.representation_ms"),
        ("netsim.trial", 1e3, "netsim.trial_ms"),
        ("netsim.oracle_trial", 1e3, "netsim.oracle_trial_ms"),
        ("netsim.relay_forward", 1e6, "netsim.relay_forward_us"),
        ("netsim.build_message", 1e3, "netsim.build_message_ms"),
        ("netsim.validate", 1e3, "netsim.validate_ms"),
    ):
        metrics[metric] = _median_duration(all_spans, name, scale)
    self_ms = Counter()
    for group in (spans, replica_spans):
        self_ms.update(_self_ms(group))
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms[layer]

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{w.name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": spans, "replica_spans": replica_spans}, fh)

    units = {"_ms": "ms", "_us": "us", "_ns": "ns", "_mib": "MiB", "_share": "ratio"}
    result_metrics = {
        name: {"value": value, "unit": next((u for s, u in units.items() if name.endswith(s)), "count")}
        for name, value in sorted(metrics.items())
    }
    details = {"workload": w.name, "seed": seed, "replayed_ops": len(ops),
               "untraced_cpu_s": base["cpu_s"], "traced_cpu_s": traced_cpu}
    return ({"correct": failed == 0, "attempted": len(ops), "failed": failed,
             "metrics": result_metrics}, details)
