"""Print one SHA-256 over a fixed sample of seeded `simulate` reports.

The sample: for each of 11 fields, 20 random layered specs whose ranks run
through 0 to m, each simulated without and with oracle="rlnc", and 5
zero-class specs (ranks 0 and 1, no oracle); 495 reports in all.  Two
commits whose seeded reports agree print the same line.  EXPECTED pins the
digest of the reports as they stand, so a change meant to keep every report
byte-identical is checked by one command, which exits 1 and prints both
digests when they differ:

    python3 tests/report_digest.py

pytest does not collect this file; it imports the package from the `src`
directory beside this one.
"""

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from skewmatroid import get_field, simulate  # noqa: E402
from conftest import random_layered_spec  # noqa: E402

FIELDS = ["2,4,2,1", "2,4,4,1", "3,2,1,1", "3,4,2,1", "2,6,3,1", "2,8,2,3",
          "5,2,1,1", "2,16,4,1", "2,5,1,2", "2,1,1,1", "7,2,1,1"]
SPECS_PER_FIELD = 20
ZERO_CLASS_PER_FIELD = 5
TRIALS = 16
EXPECTED = "e5867f9db7a600daba098b3e005ab30ff907aa0cf3c7f2bbab83e9a8c65a2b17"


def reports():
    """The sample's reports, in a fixed order, as JSON text."""
    for field in FIELDS:
        ctx = get_field(*map(int, field.split(",")))
        rng = random.Random(f"digest:{field}")
        for i in range(SPECS_PER_FIELD):
            spec = random_layered_spec(
                rng, field, ctx.q - 1, ctx.m, trials=TRIALS, seed=f"{field}:{i}"
            )
            spec = dataclasses.replace(spec, rank=i % (ctx.m + 1))
            for oracle in (None, "rlnc"):
                yield json.dumps(simulate(spec, oracle=oracle))
        for i in range(ZERO_CLASS_PER_FIELD):
            spec = random_layered_spec(rng, field, trials=TRIALS, seed=f"{field}:zero:{i}")
            yield json.dumps(simulate(dataclasses.replace(spec, class_index=None, rank=i % 2)))


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for text in reports():
        digest.update(text.encode() + b"\n")
        count += 1
    got = digest.hexdigest()
    print(f"{count} reports sha256 {got}")
    if got != EXPECTED:
        print(f"expected sha256 {EXPECTED}")
        sys.exit(1)


if __name__ == "__main__":
    main()
