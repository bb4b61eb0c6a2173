"""The seeded-output digests that tests/report_digest.py pins, as a test:
the 495 simulate reports and the 704 trials, edge packet by edge packet.

The script runs in a child interpreter in which `import pytest` fails, so
it keeps running where pytest is not installed."""

import subprocess
import sys
from pathlib import Path

import report_digest

SCRIPT = Path(report_digest.__file__)
WITHOUT_PYTEST = (
    'import runpy, sys; sys.modules["pytest"] = None; '
    'runpy.run_path(sys.argv[1], run_name="__main__")'
)


def test_seeded_reports_and_trials_match_their_pinned_digests():
    run = subprocess.run(
        [sys.executable, "-c", WITHOUT_PYTEST, str(SCRIPT)], capture_output=True, text=True
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [
        f"495 reports sha256 {report_digest.EXPECTED}",
        f"704 trials sha256 {report_digest.EXPECTED_TRIALS}",
    ]
