import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import skewmatroid
from skewmatroid.cli import main

F16 = ["--field", "2,4,2,1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 1, "json output must be a single line"
    return code, json.loads(lines[0])


# ------------------------------------------------------------- happy paths


def test_fieldinfo(capsys):
    code, out, _ = run(capsys, *F16, "fieldinfo")
    assert code == 0
    assert "order: 16" in out and "q: 4" in out and "m: 2" in out
    code, doc = run_json(capsys, *F16, "--json", "fieldinfo")
    assert code == 0
    assert list(doc.keys()) == [
        "order", "p", "n", "k", "s", "q", "m", "modpoly",
        "classes", "class_size", "subfield_units",
    ]
    assert doc["classes"] == 3 and doc["class_size"] == 5
    assert doc["subfield_units"] == ["1", "g5", "g10"]


def test_mul_golden(capsys):
    code, out, err = run(capsys, "--field", "2,2,1,1", "mul", "x+1", "g1*x+1")
    assert code == 0 and err == ""
    assert out.strip() == "g2*x^2 + g2*x + 1"


def test_divmod(capsys):
    code, out, _ = run(capsys, "--field", "2,2,1,1", "divmod", "x^4+x^2+1", "x^2+g1")
    assert code == 0
    assert out == "quotient: x^2 + g2\nremainder: 0\n"
    code, doc = run_json(
        capsys, "--field", "2,2,1,1", "--json", "divmod", "x^4+x^2+1", "x^2+g1"
    )
    assert doc == {"quotient": "x^2 + g2", "remainder": "0"}
    assert list(doc.keys()) == ["quotient", "remainder"]


def test_grcd_llcm(capsys):
    code, out, _ = run(capsys, "--field", "2,2,1,1", "grcd", "x^2+x+1", "x^2+g1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "--field", "2,2,1,1", "llcm", "x^2+x+1", "x^2+g1")
    assert code == 0 and out.strip() == "x^4 + x^2 + 1"


def test_eval_and_zeros(capsys):
    code, out, _ = run(capsys, *F16, "eval", "x^2+1", "g3")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, *F16, "zeros", "x^2+1")
    assert code == 0 and out.strip() == "1, g3, g6, g9, g12"
    code, doc = run_json(capsys, *F16, "--json", "zeros", "x^2+1")
    assert doc == {"result": ["1", "g3", "g6", "g9", "g12"]}


def test_classof_and_classelems(capsys):
    code, out, _ = run(capsys, *F16, "classof", "g7")
    assert code == 0 and out.strip() == "C(g1)"
    code, out, _ = run(capsys, *F16, "classof", "0")
    assert code == 0 and out.strip() == "C(0)"
    code, doc = run_json(capsys, *F16, "--json", "classof", "g7")
    assert doc == {"class": 1, "label": "C(g1)"}
    code, out, _ = run(capsys, *F16, "classelems", "0")
    assert code == 0 and out.strip() == "1, g3, g6, g9, g12"


def test_unwarp_methods(capsys):
    code, out, _ = run(capsys, *F16, "unwarp", "g3")
    assert code == 0
    res1 = out.strip()
    code, doc = run_json(
        capsys, *F16, "--json", "unwarp", "g3", "--method", "both"
    )
    assert code == 0
    assert list(doc.keys()) == ["method1", "method2"]
    assert doc["method1"] == res1
    code, out, _ = run(capsys, *F16, "unwarp", "g3", "--class", "0", "--method", "2")
    assert code == 0 and out.strip() == doc["method2"]


def test_pointset_verbs(capsys):
    code, out, _ = run(capsys, *F16, "minpoly", "1,g3")
    assert code == 0 and out.strip() == "x^2 + 1"
    code, out, _ = run(capsys, *F16, "closure", "1,g3")
    assert code == 0 and out.strip() == "1, g3, g6, g9, g12"
    code, out, _ = run(capsys, *F16, "closure", "")
    assert code == 0 and out.strip() == "(empty)"
    code, out, _ = run(capsys, *F16, "pindep", "1,g3,g6")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, *F16, "pindep", "1, g3")
    assert code == 0 and out.strip() == "true"
    code, doc = run_json(capsys, *F16, "--json", "pindep", "1,g3,g6")
    assert doc == {"result": False}
    code, out, _ = run(capsys, *F16, "pbasis", "1,g3,g6")
    assert code == 0 and out.strip() == "1, g3"
    code, out, _ = run(capsys, *F16, "rank", "1,g3,g6")
    assert code == 0 and out.strip() == "2"
    code, doc = run_json(capsys, *F16, "--json", "rank", "0")
    assert doc == {"result": 1}


def test_closure_output_reparses(capsys):
    code, out, _ = run(capsys, *F16, "closure", "1,g3")
    tokens = out.strip()
    code, out2, _ = run(capsys, *F16, "closure", tokens)
    assert code == 0 and out2 == out


def test_flats(capsys):
    code, out, _ = run(capsys, *F16, "flats", "--class", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total: 7"
    assert lines[0] == "rank 0: (empty)"
    code, doc = run_json(capsys, *F16, "--json", "flats", "--class", "0", "--max-rank", "1")
    assert [f["rank"] for f in doc["result"]] == [0, 1, 1, 1, 1, 1]
    code, out, _ = run(capsys, "--field", "2,2,1,1", "flats")
    assert code == 0 and out.strip().splitlines()[-1] == "total: 10"


def test_flats_guard_exit_code(capsys):
    code, out, err = run(capsys, "--field", "2,13,1,1", "flats")
    assert code == 1 and out == ""
    assert err.startswith("error: TooLargeToEnumerate")


def test_repmatrix(capsys):
    code, out, _ = run(capsys, *F16, "repmatrix")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "basis: 1, g1; modpoly: x^4 + x + 1"
    assert lines[1] == "A:"
    assert lines[2] == "  1 0 g5 g5 1"
    assert lines[3] == "  0 1 1 g10 1"
    code, doc = run_json(capsys, *F16, "--json", "repmatrix")
    assert doc["a"] == [["1", "0", "g5", "g5", "1"], ["0", "1", "1", "g10", "1"]]
    assert len(doc["script_a"]) == 7 and len(doc["script_a"][0]) == 16
    assert doc["labels"][-1] == "0"


def test_dist(capsys):
    code, out, _ = run(capsys, *F16, "dist", "1", "g3")
    assert code == 0 and out.strip() == "2"  # distinct lines share only rank 0
    code, out, _ = run(capsys, *F16, "dist", "1", "1,g3")
    assert code == 0 and out.strip() == "1"  # line inside the plane
    code, out, _ = run(capsys, *F16, "dist", "1,g3", "g6,g9")
    assert code == 0 and out.strip() == "0"  # same closure


def test_isometry_check(capsys):
    code, out, _ = run(capsys, *F16, "isometry-check")
    assert code == 0
    assert "ok: true" in out
    code, doc = run_json(capsys, *F16, "--json", "isometry-check")
    assert doc == {
        "subspaces": 7, "flats": 7, "bijective": True, "isometric": True, "ok": True,
    }


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("passed ")
    code, doc = run_json(capsys, "--json", "selftest")
    assert code == 0 and doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"]) > 0


# ------------------------------------------------------------------ simulate


@pytest.fixture()
def spec_file(tmp_path):
    doc = {
        "field": "2,4,2,1,19",
        "nodes": [
            {"id": "s", "role": "source"},
            {"id": "a", "role": "relay"},
            {"id": "b", "role": "relay"},
            {"id": "t", "role": "sink"},
        ],
        "edges": [["s", "a"], ["s", "b"], ["a", "t"], ["b", "t"]],
        "class": 0,
        "rank": 2,
        "trials": 60,
        "seed": 5,
    }
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_human_output_is_json(capsys, spec_file):
    code, out, err = run(capsys, "simulate", "--spec", spec_file)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert list(report.keys()) == [
        "success_rate", "mean_distance", "per_sink", "trials", "seed",
        "packets_forwarded", "oracle",
    ]
    assert report["trials"] == 60 and report["seed"] == 5
    assert out.count("\n") > 1  # human mode pretty-prints


def test_simulate_json_flag_and_overrides(capsys, spec_file):
    code, doc = run_json(
        capsys, "--json", "--seed", "override", "simulate",
        "--spec", spec_file, "--trials", "25", "--oracle", "rlnc",
    )
    assert code == 0
    assert doc["trials"] == 25 and doc["seed"] == "override"
    assert doc["oracle"]["protocol"] == "rlnc"
    assert doc["oracle"]["per_trial_match"] is True


def test_simulate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "simulate", "--spec", str(tmp_path / "nope.json"))
    assert code == 1 and "error:" in err


def test_simulate_invalid_spec(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, out, err = run(capsys, "simulate", "--spec", str(path))
    assert code == 1 and err.startswith("error: SpecInvalid")


# ---------------------------------------------------------------- exit codes


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, *F16, "eval", "x+1", "g99x")
    assert code == 1 and err.startswith("error: ParseError")
    code, _, err = run(capsys, *F16, "unwarp", "0")
    assert code == 1 and err.startswith("error: DomainError")
    code, _, err = run(capsys, "--field", "3,2,1,1", "unwarp", "1", "--method", "2")
    assert code == 1 and err.startswith("error: InapplicableField")
    code, _, err = run(capsys, "--field", "2,4,2,1,31", "fieldinfo")
    assert code == 1 and err.startswith("error: NonPrimitiveModpoly")
    # the exponent cap rejects this before allocating 10^9 coefficients
    code, out, err = run(capsys, "--field", "2,2,1,1", "mul", "x^1000000000", "x")
    assert code == 1 and out == "" and err.startswith("error: ParseError")
    # only ASCII digits are numbers, and int()'s digit limit is a parse error
    many = "1" * 5000
    for argv in (
        ["--field", "\u00b2,4,2,1", "fieldinfo"],
        [*F16, "classof", "g\u00b2"],
        [*F16, "mul", "g\u00b2*x", "x"],
        [*F16, "mul", "x^\u0663", "x"],
        ["--field", f"{many},1,1,1", "fieldinfo"],
        [*F16, "classof", f"g{many}"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: ParseError"), argv


def _cli_child(*argv):
    """`python -m skewmatroid` in a child process under a 10 s timeout and a
    1 GiB address space, so an input that hangs or explodes fails the test,
    not the suite.  The child imports the same package as this process,
    installed or not."""
    package_root = str(Path(skewmatroid.__file__).resolve().parent.parent)
    path = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return subprocess.run(
        [sys.executable, "-m", "skewmatroid", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


@pytest.mark.parametrize(
    "spec",
    [
        "1000000000000000003,1,1,1",  # prime: trial division would run to 10^9
        "1000000016000000063,1,1,1",  # (10^9 + 7)(10^9 + 9)
        "2,100000000000,1,1",  # p^n would need 12.5 GB
    ],
)
def test_oversized_field_fails_before_validation(spec):
    proc = _cli_child("--field", spec, "fieldinfo")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: FieldTooLarge")


@pytest.mark.parametrize(
    "argv",
    [
        ["--field", "2,6,1,1", "isometry-check"],  # 3,988,900 subspace pairs
        ["--field", "2,20,1,1", "repmatrix"],  # a 21 x 1,048,576 matrix
        ["--field", "2,8,2,1", "flats"],  # 2 * 529^3 flat combinations
    ],
)
def test_enumeration_refused_by_size_before_building(argv):
    # each field is legal and builds, but what the verb would enumerate is
    # too large; the guard counts it in closed form, so the refusal is at once
    start = time.monotonic()
    proc = _cli_child(*argv)
    assert time.monotonic() - start < 5
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: TooLargeToEnumerate")


@pytest.mark.parametrize("verb", [["eval", "x", "g1"], ["closure", "1,g3"]])
def test_twist_taken_mod_m_on_cli(capsys, verb):
    # s = 10^12 + 1 is 1 mod m = 2: the same sigma as s = 1, and q^s is
    # never expanded
    proc = _cli_child("--field", "2,4,2,1000000000001", *verb)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, *run(capsys, *F16, *verb)[1:])


def test_largest_odd_p_field_builds(capsys):
    # 3^12 elements: the build is bounded, so the verb answers in about a second
    code, out, err = run(capsys, "--field", "3,12,1,1", "classof", "g5")
    assert code == 0 and out.strip() and err == ""


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mul", "x", "x"])  # missing --field
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])  # no verb
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--field", "2,2,1,1", "frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --spec is required
    assert exc.value.code == 2


def test_console_script_installed():
    proc = _cli_child("--field", "2,4,2,1", "rank", "1,g3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"
