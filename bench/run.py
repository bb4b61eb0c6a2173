"""Run one workload of the skewmatroid benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it gives details (sample counts, exact counts).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
replays a fixed prefix of the run with spans around the calls into each
module and reports the per-layer metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def probe_setup(workload: str, seed: int) -> float:
    """CPU time of a fresh interpreter that performs the workload's
    set-up: imports, field build, generating (and on the simulators
    validating) the first block of inputs."""
    from timing import cpu_s

    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = cpu_s()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return cpu_s() - start


def scaled_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up probes with a reference unit before, between and after them;
    returns the raw CPU seconds and each scaled by the units either side."""
    from timing import REFERENCE_S, reference_unit

    units = [reference_unit(True)]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(probe_setup(workload, seed))
        units.append(reference_unit(True))
    scaled = [t * 2 * REFERENCE_S[True] / (a + b) for t, a, b in zip(raw, units, units[1:])]
    return raw, scaled


def measure(w, seed: int, seconds: int) -> tuple[dict, dict]:
    from timing import ScaledCosts, cpu_s
    from workloads import check, load_reference

    setup_raw, setup_scaled = scaled_setups(w.name, seed)
    stream = w.blocks(seed)
    block = next(stream)
    reference = load_reference(w.name)
    timed = ScaledCosts(w.spawns)
    failed = fresh = 0
    t0 = time.perf_counter()
    blocks_run = 0
    while True:
        for op in block:
            fresh += op.index is None
            start = cpu_s()
            try:
                out = w.execute(op)
            except Exception:  # every failed operation is counted, the run goes on
                timed.add(cpu_s() - start)
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            timed.add(cpu_s() - start)
            if not check(op, out, reference):
                print(f"mismatch: {w.name} op {op.index} ({op.kind})", file=sys.stderr)
                failed += 1
        blocks_run += 1
        # End at the block boundary nearest to the time asked for, counted in
        # scaled CPU seconds of the timed operations, so that the number of
        # (long) CLI passes flips neither with the host's speed nor between runs.
        elapsed = sum(timed.raw) * timed.scale
        if elapsed + elapsed / blocks_run / 2 >= seconds:
            break
        block = next(stream)  # generated outside the timed calls
    wall = time.perf_counter() - t0
    timed.close_window()

    costs = timed.scaled()
    n = len(costs)
    if w.spawns:
        peak_mib = w.peak_mib
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # An observed order statistic (interpolated between two samples), never
    # extrapolated past the slowest one.
    tail = statistics.quantiles(costs, n=100, method="inclusive")[w.tail_pct - 1] if n > 1 else costs[0]
    metrics = {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "ops_per_s": {"value": n / sum(costs), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(costs) * 1e3, "unit": "ms"},
        "op_ms_tail": {"value": tail * 1e3, "unit": "ms"},
        "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
    }
    details = {
        "workload": w.name,
        "seed": seed,
        "ops": n,
        "fresh_ops": fresh,
        "tail_percentile": w.tail_pct,
        "samples_beyond_tail": sum(t > tail for t in costs),
        "error_rate": failed / n,
        "wall_s": wall,
        "cpu_s": sum(timed.raw),
        "ops_per_wall_s": n / wall,
        "reference_unit_ms": [round(r * 1e3, 3) for r in timed.references],
        "setup_cpu_s": setup_raw,
    }
    if w.trials is not None:
        details["trials_per_s"] = n * w.trials / sum(costs)
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh process per set-up probe, untraced replay or CLI replica
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replica", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewmatroid" / "__init__.py").is_file():
        return fail(f"no skewmatroid sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    w = workloads.WORKLOADS[args.workload]
    # One core for this process and its children, so that the reference
    # units and the work they scale run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.setup_only:
        next(w.blocks(args.seed))
        return 0
    import tracing

    if args.replay:
        print(json.dumps(tracing.untraced_replay(w, args.seed)))
        return 0
    if args.replica is not None:
        print(json.dumps(tracing.cli_replica(w, args.seed, args.replica)))
        return 0
    if args.trace:
        result, details = tracing.traced_run(w, args.seed)
    else:
        result, details = measure(w, args.seed, args.seconds)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
