"""Record benchmark runs into a JSON file that a later change can diff.

Runs the benchmark's own command, ``bench/run.py``, unchanged, once per
seed for one workload, and appends each run to a record file:

    python3 tests/bench_record.py --out BENCH_31.json --workload sim_f16_oracle \\
        --seeds 3101-3110 --seconds 18 --parent ../parent

With ``--parent``, a second checkout (typically the parent commit), every
seed runs on both checkouts one after the other, the parent first on odd
pairs and this checkout first on even ones, so that a drift in the host's
speed falls on both sides alike.  The file holds the Python version, the
platform and the CPU count, and per run the side (``change`` for this
checkout, ``parent`` for the other), that checkout's commit and a digest of
its ``src`` tree, the workload, seed, ``--seconds`` and ``--trace``, and
the result line that ``bench/run.py`` printed last, verbatim.  Runs are
appended to an existing file, so one file can gather several workloads;
a file written on another interpreter or platform is refused.

    python3 tests/bench_record.py --summary BENCH_31.json

prints, per workload and metric, each side's median and the parent's
quartiles.  For a metric that BENCHMARK.json lists, with the direction it
calls better, it also prints the relative change of the medians next to the
metric's bound, if it has one, flags a change worse than that bound, and
counts over paired seeds how often the change was better.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """Seeds given as "a-b" (inclusive) or "a,b,c"."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def checkout_id(root: Path) -> dict:
    """The commit a checkout is at (None outside git), whether its tracked
    files differ from that commit, and a SHA-256 over its src tree."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def host() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> str:
    """The last line that bench/run.py prints in checkout root."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench/run.py exited with {proc.returncode} in {root}")
    return lines[-1]


def record(args: argparse.Namespace) -> None:
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {**host(), "runs": []}
    if {k: doc.get(k) for k in host()} != host():
        raise SystemExit(f"{out} was written on another host or interpreter")
    sides = {"change": ROOT}
    if args.parent:
        sides["parent"] = Path(args.parent).resolve()
    ids = {name: checkout_id(root) for name, root in sides.items()}
    for pair, seed in enumerate(seed_list(args.seeds)):
        order = list(sides)
        if pair % 2 == 0:
            order.reverse()
        for name in order:
            line = run_once(sides[name], args.workload, seed, args.seconds, args.trace)
            doc["runs"].append({
                "side": name,
                **ids[name],
                "workload": args.workload,
                "seed": seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "result": line,
            })
            out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            print(f"{name} {args.workload} seed {seed}: {line}", flush=True)


def declared_metrics() -> dict[str, dict]:
    """BENCHMARK.json's end-to-end and per-layer metrics, by name."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def summary(path: str) -> None:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    declared = declared_metrics()
    print(f"Python {doc['python']} on {doc['platform']}, {doc['cpu_count']} CPUs")
    by_key: dict[tuple, dict] = {}
    for run in doc["runs"]:
        result = json.loads(run["result"])
        key = (run["workload"], run["seconds"], run["trace"])
        by_key.setdefault(key, {}).setdefault(run["side"], {})[run["seed"]] = result
    for (workload, seconds, trace), sides in by_key.items():
        runs = sum(map(len, sides.values()))
        failed = sum(r["failed"] for side in sides.values() for r in side.values())
        print(f"\n{workload} --seconds {seconds} --trace {trace}: {runs} runs, {failed} failed operations")
        parent, change = sides.get("parent", {}), sides.get("change", {})
        paired = sorted(parent.keys() & change.keys())
        metrics = next(iter(next(iter(sides.values())).values()))["metrics"]
        for metric in metrics:
            def values(side):
                return [r["metrics"][metric]["value"] for r in side.values()]

            line = f"  {metric}:"
            medians = {}
            if parent:
                b = values(parent)
                q1, _, q3 = statistics.quantiles(b, n=4) if len(b) > 1 else (b[0],) * 3
                medians["parent"] = statistics.median(b)
                line += f" parent {medians['parent']:.4g} [{q1:.4g}, {q3:.4g}]"
            if change:
                medians["change"] = statistics.median(values(change))
                line += f" change {medians['change']:.4g}"
            spec = declared.get(metric)
            if spec is None:
                print(line + " (not in BENCHMARK.json)")
                continue
            sign = 1 if spec["better"] == "higher" else -1
            line += f" ({spec['better']} is better)"
            if len(medians) == 2 and medians["parent"]:
                rel = medians["change"] / medians["parent"] - 1
                line += f", median {rel:+.1%}"
                if "bound" in spec:
                    line += f" (bound {spec['bound']:.0%})"
                    if -sign * rel > spec["bound"]:
                        line += " WORSE THAN BOUND"
            if paired:
                wins = sum(
                    sign * (change[s]["metrics"][metric]["value"] - parent[s]["metrics"][metric]["value"]) > 0
                    for s in paired
                )
                line += f"; change better in {wins}/{len(paired)} pairs"
            print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", metavar="FILE", help="summarize a record file and exit")
    parser.add_argument("--out", help="the record file to write or extend")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", help='"a-b" or "a,b,c"')
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", help="a second checkout to alternate with this one")
    args = parser.parse_args()
    if args.summary:
        summary(args.summary)
        return
    if not (args.out and args.workload and args.seeds):
        parser.error("--out, --workload and --seeds are required")
    record(args)


if __name__ == "__main__":
    main()
