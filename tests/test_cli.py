import ast
import importlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import skewmatroid
from skewmatroid import field, field_from_spec, selftest, verify_isometry
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


@pytest.mark.parametrize(
    "argv, want",
    [
        (["grcd", "0", "x+1"], "x + 1\n"),
        (["grcd", "x+1", "0"], "x + 1\n"),
        (["divmod", "0", "x"], "quotient: 0\nremainder: 0\n"),
        (["divmod", "x", "x^3"], "quotient: 0\nremainder: x\n"),
        (["llcm", "x", "x"], "x\n"),
    ],
)
def test_euclid_empty_list_paths(capsys, argv, want):
    # a zero operand, a dividend below the divisor's degree and equal operands
    assert run(capsys, "--field", "2,2,1,1", *argv) == (0, want, "")


@pytest.mark.parametrize("argv", [["llcm", "0", "x"], ["llcm", "x", "0"], ["grcd", "0", "0"]])
def test_euclid_zero_inputs_exit_1(capsys, argv):
    code, out, err = run(capsys, "--field", "2,2,1,1", *argv)
    assert code == 1 and out == "" and err.startswith("error: ZeroInput")


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


@pytest.mark.parametrize("spec", ["2,4,2,1", "2,2,1,1"])
def test_isometry_report_is_its_payload(capsys, spec):
    _, doc = run_json(capsys, "--field", spec, "--json", "isometry-check")
    report = verify_isometry(field_from_spec(spec))
    assert report == doc and list(report) == list(doc)


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("passed ")
    code, doc = run_json(capsys, "--json", "selftest")
    assert code == 0 and doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"]) > 0
    report = selftest.run_all()  # the report is the payload, key order included
    assert report == doc and json.dumps(report) == json.dumps(doc)


def test_selftest_failing_check_exits_1(capsys, monkeypatch):
    def broken() -> None:
        raise AssertionError("deliberately broken")

    monkeypatch.setattr(selftest, "_CHECKS", selftest._CHECKS + [("broken check", broken)])
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out.strip().splitlines()[-2:] == [
        "FAIL broken check (AssertionError: deliberately broken)",
        "passed 35/36",
    ]
    code, doc = run_json(capsys, "--json", "selftest")
    assert code == 1 and doc["passed"] == 35 and doc["failed"] == 1
    assert doc["checks"][-1] == {
        "name": "broken check", "ok": False, "detail": "AssertionError: deliberately broken",
    }


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


def _cli_child(*argv, python=("-m", "skewmatroid")):
    """`python -m skewmatroid` in a child process under a 10 s timeout and a
    1 GiB address space, so an input that hangs or explodes fails the test,
    not the suite.  The child imports the same package as this process,
    installed or not.  `python` replaces the interpreter's own arguments."""
    package_root = str(Path(skewmatroid.__file__).resolve().parent.parent)
    path = [package_root] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return subprocess.run(
        [sys.executable, *python, *argv],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


def test_zeros_of_a_high_degree_polynomial():
    # zeros folds x^1048576 to x^6 on this field (q = 2, m = 10, so M = 10)
    # and then solves one 10 x 10 kernel for its single class; the unfolded
    # polynomial's scan of the field ran past a 10 s timeout
    start = time.monotonic()
    proc = _cli_child("--field", "2,10,1,1", "zeros", "x^1048576+x+g1")
    assert proc.returncode == 0 and proc.stdout.strip() == "g593"
    assert time.monotonic() - start < 5


def _peak_rss_kib(*argv) -> int:
    """The peak RSS of a cold CLI call in a child, in KiB: the kernel's
    VmHWM, which starts afresh at exec, where ru_maxrss keeps the peak of
    the forked test process."""
    script = (
        "import sys\nfrom skewmatroid.cli import main\ncode = main(sys.argv[1:])\n"
        "print(open('/proc/self/status').read(), file=sys.stderr)\nsys.exit(code)"
    )
    proc = _cli_child(*argv, python=("-c", script))
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split("VmHWM:")[1].split()[0])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_whole_field_subfield_is_held_in_closed_form():
    # with k = n the subfield is the whole field; its 2^20 entries were a
    # tuple built by the constructor, 63 MiB against 15 MiB at 2,20,4,1
    whole = _peak_rss_kib("--field", "2,20,20,1", "classof", "g5")
    k4 = _peak_rss_kib("--field", "2,20,4,1", "classof", "g5")
    assert whole < k4 + 4096, (whole, k4)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_unwarp_builds_no_table():
    # unwarp reads the kernel line's least-log point in closed form on logs;
    # solving the kernel built the Zech table, 27 MiB against 15 MiB
    unwarp = _peak_rss_kib("--field", "2,20,4,1", "unwarp", "g5")
    classof = _peak_rss_kib("--field", "2,20,4,1", "classof", "g5")
    assert unwarp < classof + 2048, (unwarp, classof)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_binomial_zeros_build_no_table():
    # zeros on m = 1 decides a binomial by one multiply-mod a point and no
    # Zech read, so it declares none: the scan of 2^20 points built the
    # 4 MiB table, 27.9 MiB against 15.8 MiB
    zeros = _peak_rss_kib("--field", "2,20,20,1", "zeros", "x^3+g7")
    classof = _peak_rss_kib("--field", "2,20,20,1", "classof", "g5")
    assert zeros < classof + 2048, (zeros, classof)


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


@pytest.mark.parametrize(
    "content",
    [
        b'{"field": "\xff"}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
        b'{"trials": ' + b"1" * 5000 + b"}",  # past int()'s digit limit
    ],
    ids=["not_utf8", "deep", "long_int"],
)
def test_simulate_unparseable_spec_is_spec_invalid(tmp_path, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    start = time.monotonic()
    proc = _cli_child("simulate", "--spec", str(path))
    assert time.monotonic() - start < 5
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: SpecInvalid") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "trials, extra",
    [(10**30, []), (60, ["--trials", str(10**30)])],
    ids=["spec", "override"],
)
def test_simulate_trial_count_is_capped(spec_file, trials, extra):
    # trials x edges is capped, for the spec's count and for --trials alike
    doc = json.loads(Path(spec_file).read_text())
    Path(spec_file).write_text(json.dumps({**doc, "trials": trials}))
    start = time.monotonic()
    proc = _cli_child("simulate", "--spec", spec_file, *extra)
    assert time.monotonic() - start < 5
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: SpecInvalid")


def test_simulate_trials_override_is_the_count_checked(tmp_path):
    # --trials replaces the spec's count, so only the trials that run meet the cap
    doc = {
        "field": "2,4,2,1,19",
        "nodes": [{"id": "s", "role": "source"}, {"id": "t", "role": "sink"}],
        "edges": [["s", "t"]],
        "class": 0,
        "rank": 2,
        "trials": 300_000,
        "seed": 1,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    proc = _cli_child("--json", "simulate", "--spec", str(path), "--trials", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["trials"] == 3


@pytest.mark.parametrize("verb", [["eval", "x", "g1"], ["closure", "1,g3"]])
def test_twist_taken_mod_m_on_cli(capsys, verb):
    # s = 10^12 + 1 is 1 mod m = 2: the same sigma as s = 1, and q^s is
    # never expanded
    proc = _cli_child("--field", "2,4,2,1000000000001", *verb)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, *run(capsys, *F16, *verb)[1:])


def test_largest_odd_p_field_builds(capsys, monkeypatch):
    # 3^12 elements: a closure of two points adds, by lookups on a fresh
    # context, as it makes fewer reads than K (2,201 here); zeros on m = 1
    # reads a whole chunk of the field at once, so it builds the Zech table,
    # and the build is bounded, so the verb answers in about a second
    monkeypatch.setattr(field, "_FIELD_CACHE", {})
    code, out, err = run(capsys, "--field", "3,12,1,1", "closure", "1,g2")
    assert code == 0 and out.strip() and err == ""
    ctx = field_from_spec("3,12,1,1")
    assert ctx._zech == [] and 0 < ctx._logs.reads <= 2201
    code, out, err = run(capsys, "--field", "3,12,1,1", "zeros", "x^2+1")
    assert code == 0 and out.strip() and err == ""
    assert len(ctx._zech) == ctx.order - 1


# closed forms on the log: none adds two elements or reads a coordinate
LOG_VERBS = [
    ["fieldinfo"], ["classof", "g5"], ["classelems", "1"], ["unwarp", "--method", "2", "g5"],
]


@pytest.mark.parametrize("verb", LOG_VERBS, ids=lambda v: v[0])
def test_log_verbs_build_no_table(capsys, monkeypatch, verb):
    # a fresh 2^20 context: building its Zech table costs about a second of
    # CPU, 4 MiB held and 13 MiB at the peak of the build, which these verbs
    # must not pay
    monkeypatch.setattr(field, "_FIELD_CACHE", {})
    code, out, err = run(capsys, "--field", "2,20,4,1", *verb)
    # exponentiation cannot invert warp here: gcd(class size, q^s - 1) = 15
    assert code == (1 if verb[0] == "unwarp" else 0), err
    ctx = field_from_spec("2,20,4,1")
    assert ctx._zech == []
    assert ctx._coords_inv is None


def _imported_modules(*verb) -> set[str]:
    proc = _cli_child(*F16, *verb, python=("-X", "importtime", "-m", "skewmatroid"))
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("verb", LOG_VERBS, ids=lambda v: v[0])
def test_log_verbs_import_only_what_they_read(verb):
    imported = _imported_modules(*verb)
    assert "skewmatroid.conjugacy" in imported
    unread = {f"skewmatroid.{m}" for m in ("matroid", "minimal", "netsim", "selftest", "skewpoly")}
    assert imported & unread == set()


@pytest.mark.parametrize("verb", ["minpoly", "closure", "pindep", "pbasis", "rank"])
def test_point_verbs_import_only_minimal(verb):
    # the five point-set verbs share one handler, which imports minimal alone
    imported = _imported_modules(verb, "1,g3,g7")
    assert "skewmatroid.minimal" in imported
    assert imported & {f"skewmatroid.{m}" for m in ("matroid", "netsim", "selftest")} == set()


def test_package_import_loads_no_submodule():
    script = "import sys, skewmatroid; print(sorted(m for m in sys.modules if 'skewmatroid' in m))"
    proc = _cli_child(python=("-c", script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['skewmatroid']"


def test_no_module_imports_dataclasses_or_inspect():
    # every cold call would pay for them: dataclasses brings in inspect, ast,
    # dis and tokenize; -S keeps the host's site packages from adding or
    # hiding either
    package = Path(skewmatroid.__file__).resolve().parent
    names = sorted(f"skewmatroid.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    script = (
        f"import importlib, sys\nfor name in {names!r}: importlib.import_module(name)\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    )
    proc = _cli_child(python=("-S", "-c", script))
    assert proc.returncode == 0, proc.stderr
    assert "skewmatroid.netsim" in names and proc.stdout.split() == ["False", "False"]


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


def test_readme_examples_print_their_comments(capsys):
    """Each README line `skewmatroid ARGS   # expected` prints `expected`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    if not readme.is_file():
        pytest.skip("README.md is not in this checkout")
    example = re.compile(r"^skewmatroid (.+?)\s+# (.+)$")
    lines = readme.read_text(encoding="utf-8").splitlines()
    examples = [m.groups() for m in map(example.match, lines) if m]
    assert examples
    drifted = []
    for args, expected in examples:
        code, out, err = run(capsys, *shlex.split(args))
        if (code, out.strip(), err) != (0, expected, ""):
            drifted.append((args, code, out, err))
    assert drifted == []


def test_console_script_installed():
    proc = _cli_child("--field", "2,4,2,1", "rank", "1,g3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


# the package surface as it was when the package root imported every module,
# less unwarp_method1, the kernel route that tests/oracles.py now holds
EXPORTS = """AssocPoly BadDegreeDivisibility DivisionByZero DivisionByZeroPoly DomainError
    EmptyInput Fe FieldCtx FieldTooLarge Flat GcdViolation InapplicableField MixedClasses
    MixedContexts NetSpec NonPrimeP NonPrimitiveModpoly NotC1Flat ONE ParseError
    RankOutOfRange RepMatrix SkewPoly SpecInvalid Subspace TooLargeToEnumerate TrialReport
    WrongClass ZERO ZeroArgument ZeroConjugator ZeroInput all_subspaces canonical_points
    class_elements class_flat class_invariance_holds class_label class_of closure conjugate
    dist encode_message eval_product field_from_spec flats get_field grcd is_p_independent
    lift llcm matroid_closure minimal_poly p_basis phi phi_inverse rank_of relay_forward
    representation rlnc_oracle_trial run_trial simulate subspace_dist subspace_sum unwarp
    unwarp_method2 verify_isometry warp""".split()


def test_package_exports_are_one_list():
    """`__all__` is the sorted name -> module table, and each name reads as the
    object its module defines."""
    assert len(EXPORTS) == 68
    assert skewmatroid.__all__ == sorted(skewmatroid._MODULE_OF) == EXPORTS
    for name, module_name in skewmatroid._MODULE_OF.items():
        module = importlib.import_module(f"skewmatroid.{module_name}")
        value = getattr(skewmatroid, name)
        assert value is getattr(module, name), name
        # classes and functions name their module; Fe is int, ZERO and ONE ints
        assert getattr(value, "__module__", "builtins") in (module.__name__, "builtins"), name
    assert set(EXPORTS) <= set(dir(skewmatroid))
    with pytest.raises(AttributeError):
        skewmatroid.no_such_name


def test_no_unused_imports():
    """Every name an import binds in `src/` or `tests/` is read in its module.
    The package `__init__` is exempt: its imports are its exports."""
    package = Path(skewmatroid.__file__).resolve().parent
    paths = [*Path(__file__).parent.glob("*.py"), *package.glob("*.py")]
    unused = []
    for path in sorted(p for p in paths if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}: {name}" for name in sorted(imported - loaded)]
    assert unused == []
