"""tests/bench_record.py --summary on a synthetic record: each metric's
direction and bound come from BENCHMARK.json, and no benchmark is run."""

import json

import bench_record

PARENT = {"setup_s": 0.2, "ops_per_s": 300.0, "op_ms_p50": 3.0, "op_ms_tail": 6.0,
          "peak_rss_mib": 24.0}
CHANGE = {"setup_s": 0.2, "ops_per_s": 450.0, "op_ms_p50": 1.5, "op_ms_tail": 6.0,
          "peak_rss_mib": 36.0}  # +50% against a 10% bound


def _run(side: str, seed: int, values: dict) -> dict:
    # the seed nudges every value a little, so the quartiles are not degenerate
    metrics = {name: {"value": v * (1 + seed / 1000), "unit": ""} for name, v in values.items()}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    return {"side": side, "workload": "sim_f16_oracle", "seed": seed, "seconds": 18,
            "trace": 0, "result": json.dumps(result)}


def test_the_summary_reads_each_metrics_direction_and_bound(tmp_path, capsys):
    path = tmp_path / "record.json"
    runs = [_run(side, seed, values) for seed in (1, 2, 3)
            for side, values in (("parent", PARENT), ("change", CHANGE))]
    path.write_text(json.dumps({**bench_record.host(), "runs": runs}), encoding="utf-8")
    bench_record.summary(str(path))
    out = capsys.readouterr().out
    lines = {line.split(":")[0].strip(): line for line in out.splitlines() if line.startswith("  ")}
    assert "sim_f16_oracle --seconds 18 --trace 0: 6 runs, 0 failed operations" in out
    # lower op_ms_p50 and higher ops_per_s are wins, each past its bound but not flagged
    assert "(lower is better), median -50.0% (bound 20%);" in lines["op_ms_p50"]
    assert "change better in 3/3 pairs" in lines["op_ms_p50"]
    assert "(higher is better), median +50.0% (bound 20%);" in lines["ops_per_s"]
    assert "change better in 3/3 pairs" in lines["ops_per_s"]
    # a lower-is-better metric moved up past its bound is flagged, and only it
    assert "median +50.0% (bound 10%) WORSE THAN BOUND;" in lines["peak_rss_mib"]
    assert "change better in 0/3 pairs" in lines["peak_rss_mib"]
    assert [name for name, line in lines.items() if "WORSE THAN BOUND" in line] == ["peak_rss_mib"]
    assert "median +0.0% (bound 25%); change better in 0/3 pairs" in lines["setup_s"]
