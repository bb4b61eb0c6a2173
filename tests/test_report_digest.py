"""The seeded-output digests that tests/report_digest.py pins, as a test:
the 495 simulate reports and the 704 trials, edge packet by edge packet."""

import report_digest


def test_seeded_reports_and_trials_match_their_pinned_digests():
    assert report_digest.check("reports", report_digest.reports(), report_digest.EXPECTED)
    assert report_digest.check("trials", report_digest.trials(), report_digest.EXPECTED_TRIALS)
