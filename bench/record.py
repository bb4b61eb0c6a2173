"""Record the reference digests the benchmark checks outputs against.

    python3 bench/record.py [--workload NAME ...]

Executes every operation of each workload's pool and writes the digest of
its output to ``bench/reference/<workload>.json``.  Run it only at a commit
whose outputs are trusted: every later run is held to these digests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        ops = [op for block in w.blocks(None) for op in block]
        assert [op.index for op in ops] == list(range(len(ops)))
        digests = [workloads.digest(w.execute(op)) for op in ops]
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "ops": len(digests), "digests": digests}, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
