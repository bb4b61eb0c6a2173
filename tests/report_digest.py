"""Print SHA-256 digests over fixed samples of seeded simulator output.

The report sample: for each of 11 fields, 20 random layered specs whose
ranks run through 0 to m, each simulated without and with oracle="rlnc",
and 5 zero-class specs (ranks 0 and 1, no oracle); 495 reports in all.
The trial sample: for each field, 4 more specs, 8 trials each through
run_trial, recording its draws' reads, and rlnc_oracle_trial on that record,
hashing every edge packet and every sink's reception; 704 trials in all, so
the seeded stream is checked packet by packet and not only through the
aggregate reports.  The trial digest was written by an oracle that seeded
its own generator alike, so the record must give the oracle that stream.
Two commits whose seeded output agrees print the same lines.  EXPECTED and
EXPECTED_TRIALS pin the digests as they stand, so a change meant to keep
every seeded output byte-identical is checked by one command, which exits 1
and prints both digests when either differs:

    python3 tests/report_digest.py

pytest does not collect this file, which imports the package from the
`src` directory beside this one; tests/test_report_digest.py runs both
checks as a test.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from skewmatroid import get_field, rlnc_oracle_trial, run_trial, simulate  # noqa: E402
from skewmatroid.netsim import build_message  # noqa: E402
from specs import random_layered_spec  # noqa: E402

FIELDS = ["2,4,2,1", "2,4,4,1", "3,2,1,1", "3,4,2,1", "2,6,3,1", "2,8,2,3",
          "5,2,1,1", "2,16,4,1", "2,5,1,2", "2,1,1,1", "7,2,1,1"]
SPECS_PER_FIELD = 20
ZERO_CLASS_PER_FIELD = 5
TRIALS = 16
TRIAL_SPECS_PER_FIELD = 4
TRIALS_PER_SPEC = 8
EXPECTED = "e5867f9db7a600daba098b3e005ab30ff907aa0cf3c7f2bbab83e9a8c65a2b17"
EXPECTED_TRIALS = "73881f3f62a17f349649ac95459e94812a579b0884395a98d604423823195ee8"


def reports():
    """The sample's reports, in a fixed order, as JSON text."""
    for field in FIELDS:
        ctx = get_field(*map(int, field.split(",")))
        rng = random.Random(f"digest:{field}")
        for i in range(SPECS_PER_FIELD):
            spec = random_layered_spec(
                rng, field, ctx.q - 1, ctx.m, trials=TRIALS, seed=f"{field}:{i}"
            )
            spec = spec._replace(rank=i % (ctx.m + 1))
            for oracle in (None, "rlnc"):
                yield json.dumps(simulate(spec, oracle=oracle))
        for i in range(ZERO_CLASS_PER_FIELD):
            spec = random_layered_spec(rng, field, trials=TRIALS, seed=f"{field}:zero:{i}")
            yield json.dumps(simulate(spec._replace(class_index=None, rank=i % 2)))


def trials():
    """The trial sample's edge packets and sink receptions, element trial
    then oracle trial, in a fixed order, as JSON text.  Each spec's trials
    share one table, as in simulate."""
    for field in FIELDS:
        ctx = get_field(*map(int, field.split(",")))
        rng = random.Random(f"trials:{field}")
        for i in range(TRIAL_SPECS_PER_FIELD):
            spec = random_layered_spec(rng, field, ctx.q - 1, ctx.m)
            spec = spec._replace(rank=i % (ctx.m + 1))
            table: dict = {}
            for t in range(TRIALS_PER_SPEC):
                message = build_message(ctx, spec, random.Random(f"{field}:{i}:msg:{t}"))
                seed = f"{field}:{i}:trial:{t}"
                rec: list = []
                for report in (
                    run_trial(ctx, spec, message, seed, decoded=table, record=rec),
                    rlnc_oracle_trial(ctx, spec, message, rec, decoded=table),
                ):
                    yield json.dumps([report.edge_packets, [s.received for s in report.sinks]])


def check(name: str, texts, expected: str) -> bool:
    """Print the sample's count and digest; True when it is the expected one."""
    digest, count = hashlib.sha256(), 0
    for text in texts:
        digest.update(text.encode() + b"\n")
        count += 1
    got = digest.hexdigest()
    print(f"{count} {name} sha256 {got}")
    if got != expected:
        print(f"expected sha256 {expected}")
    return got == expected


def main() -> None:
    ok = check("reports", reports(), EXPECTED)
    ok = check("trials", trials(), EXPECTED_TRIALS) and ok
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
