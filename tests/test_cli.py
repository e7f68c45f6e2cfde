"""End-to-end command-line coverage: reports, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from multider import InternalCheckError, catalog, clear_caches, multiarrangement_to_dict
from multider.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_exponents_report(capsys):
    code, report, err = run_json(capsys, "exponents", "catalog:B2", "--mult", "3,5,2,2")
    assert code == 0
    assert report["free"] is True
    assert report["exponents"] == [5, 7]
    assert report["mult"] == [3, 5, 2, 2]
    assert report["seed"] == 1729
    assert len(report["basis"]) == 2
    for entry in report["basis"]:
        assert "display" in entry and "coefficients" in entry
    assert any(line.startswith("degree ") for line in report["search_log"])
    assert "elapsed" in err


def test_reports_are_byte_identical(capsys):
    args = ("exponents", "catalog:B2", "--mult", "3,5,2,2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_is_free_negative_verdict(capsys):
    code, report, _ = run_json(capsys, "is-free", "catalog:X3", "--mult", "2,2,2,2,2,2")
    assert code == 1
    assert report["free"] is False
    assert report["refutation"]


def test_graded_dim(capsys):
    code, report, _ = run_json(
        capsys, "graded-dim", "catalog:A2", "--mult", "1,1,1", "--max-degree", "2"
    )
    assert code == 0
    assert report["dims"] == [0, 1, 3]


def test_is_critical_exit_codes(capsys):
    base = ("is-critical", "catalog:B2", "--mult", "3,5,2,2")
    assert run_json(capsys, *base, "--degree", "5")[:2][0] == 0
    code, report, _ = run_json(capsys, *base, "--degree", "4")
    assert code == 1 and report["critical"] is False


def test_find_universal_and_round_trip(capsys):
    code, report, _ = run_json(capsys, "find-universal", "catalog:B2", "--mult", "2,4,1,1")
    assert code == 0
    assert report["degree"] == 5
    theta_json = json.dumps(report["universal"])
    code2, verdict, _ = run_json(
        capsys, "is-universal", "catalog:B2", "--mult", "2,4,1,1", "--theta", theta_json
    )
    assert code2 == 0 and verdict["universal"] is True


def test_find_universal_none(capsys):
    code, report, _ = run_json(
        capsys, "find-universal", "catalog:X3", "--mult", "2,2,2,1,1,1"
    )
    assert code == 1
    assert report["universal"] is None


def test_is_universal_theta_from_file(tmp_path, capsys):
    code, report, _ = run_json(capsys, "find-universal", "catalog:A2", "--mult", "1,1,2")
    assert code == 0
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(report["universal"]))
    code2, verdict, _ = run_json(
        capsys, "is-universal", "catalog:A2", "--mult", "1,1,2", "--theta", str(path)
    )
    assert code2 == 0 and verdict["universal"] is True


def test_delta_and_classify(capsys):
    code, report, _ = run_json(capsys, "delta", "catalog:A2", "--mult", "1,1,5")
    assert code == 0
    assert report["exponents"] == [2, 5] and report["delta"] == 3
    code, report, _ = run_json(capsys, "classify-component", "catalog:B2", "--mult", "3,4,2,2")
    assert code == 0
    assert report["infinite"] is False
    assert report["peak"] == [3, 5, 2, 2]
    assert report["peak_delta"] == 2 and report["distance"] == 1
    assert report["path"][0] == [3, 4, 2, 2] and report["path"][-1] == [3, 5, 2, 2]
    code, report, _ = run_json(capsys, "classify-component", "catalog:A2", "--mult", "1,1,5")
    assert code == 0
    assert report["infinite"] is True and report["dominant"] == 2


def test_euler_restrict(capsys):
    code, report, _ = run_json(
        capsys, "euler-restrict", "catalog:A3", "--mult", "2,2,3,1,1,1", "--hyperplane", "2"
    )
    assert code == 0
    assert report["mu"] == [3, 3, 1] and report["order"] == 7
    assert [f["indices"] for f in report["flats"]] == [[0, 2, 4], [1, 2, 5], [2, 3]]


def test_check_ss(capsys):
    filt = json.dumps({"filtration": [[0], [0, 1, 3], [0, 1, 2, 3, 4, 5]]})
    code, report, _ = run_json(
        capsys, "check-ss", "catalog:A3", "--mult", "2,2,2,1,1,1", "--filtration", filt
    )
    assert code == 0
    assert report["supersolvable"] is True and report["exponents"] == [2, 3, 4]
    code, report, _ = run_json(
        capsys,
        "check-ss", "catalog:fan2d", "--mult", "2,2,1,1,1,1,1",
        "--param", "h=4", "--param", "slopes=1,2,3,4",
        "--filtration", json.dumps({"filtration": [[0], [0, 1, 2], list(range(7))]}),
    )
    assert code == 1 and report["supersolvable"] is False


def test_catalog_params_fraction(capsys):
    code, report, _ = run_json(
        capsys, "delta", "catalog:maehara4", "--mult", "1,1,2,2", "--param", "t=7/3"
    )
    assert code == 0 and report["exponents"] == [3, 3] and report["delta"] == 0


def test_inline_and_file_inputs(tmp_path, capsys):
    data = multiarrangement_to_dict(catalog("B2", (3, 5, 2, 2)))
    code, report, _ = run_json(capsys, "exponents", json.dumps(data))
    assert code == 0 and report["exponents"] == [5, 7]
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(data))
    code, report, _ = run_json(capsys, "exponents", str(path), "--mult", "2,4,1,1")
    assert code == 0 and report["exponents"] == [4, 4]


def test_single_query_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "is-free", "catalog:B2", "--mult", "3,5,2,2", "--format", "tsv"
    )
    assert code == 0
    table = dict(line.split("\t", 1) for line in out.splitlines())
    assert table["free"] == "True"
    assert table["exponents"] == "5,7"


def test_sweep_tsv_deterministic_across_jobs(capsys):
    base = (
        "sweep", "catalog:A2", "--range", "a=0..1,b=0..1,c=0..1", "--predicates", "free"
    )
    code1, out1, _ = run_cli(capsys, *base, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *base, "--jobs", "2")
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "a\tb\tc\ttotal\tfree\tseed"
    assert len(lines) == 9


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "catalog:A2", "--range", "a=1..2,b=1..1,c=1..1",
        "--predicates", "free,exponents", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["mult"] for r in rows] == [[1, 1, 1], [2, 1, 1]]
    assert all(set(r) == {"mult", "seed", "free", "exponents"} for r in rows)


def test_sweep_rejects_non_catalog_input(capsys):
    code, out, err = run_cli(
        capsys, "sweep", '{"forms": []}', "--range", "a=1..1"
    )
    assert code == 2
    assert "input error" in err


def test_input_errors_exit_2(capsys):
    cases = [
        ("exponents", "catalog:nope"),
        ("exponents", "catalog:A2", "--mult", "1,2"),
        ("exponents", "catalog:A2", "--mult", "one,two,three"),
        ("exponents", "/no/such/file.json"),
        ("exponents", '{"forms": "junk"}'),
        ("exponents", "catalog:fan2d", "--param", "h"),
        # --param names a catalog parameter, so it needs a catalog input
        ("delta", json.dumps({"variables": ["x", "y"], "hyperplanes": [
            {"form": [1, 0]}, {"form": [0, 1]}, {"form": [1, 1]}]}), "--param", "t=2"),
        ("is-universal", "catalog:A2", "--mult", "1,1,2", "--theta", '{"nope": 1}'),
        # m(H0) = 0 lies outside the restriction's hypotheses
        ("euler-restrict", "catalog:A2", "--mult", "0,1,1", "--hyperplane", "0"),
        # a sweep with no predicate would print a grid with no verdict column
        ("sweep", "catalog:A2", "--range", "a=0..1,b=0..1,c=0..1", "--predicates", ","),
        ("sweep", "catalog:A2", "--range", "a=0..1,b=0..1,c=0..1", "--predicates", ""),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "input error" in err


@pytest.mark.parametrize("data", [
    {"variables": ["x", "y"], "hyperplanes": [[1, 0], [0, 1]]},
    {"variables": ["x", "y"], "hyperplanes": [{"multiplicity": 2}]},
    {"variables": ["x", "y"], "hyperplanes": [{"form": 3}]},
    {"variables": ["x", "y"], "hyperplanes": 7},
    {"variables": ["x", "y"], "hyperplanes": [{"form": ["1/0", 1]}, {"form": [0, 1]}]},
])
def test_malformed_hyperplanes_exit_2(capsys, data):
    code, out, err = run_cli(capsys, "delta", json.dumps(data))
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [None, [1], 0.1, True, "1/0"])
def test_malformed_theta_scalars_exit_2(capsys, value):
    theta = json.dumps({"coefficients": [{"1,0": value}, {"0,1": 1}]})
    code, out, err = run_cli(capsys, "is-universal", "catalog:A2", "--mult", "1,1,2", "--theta", theta)
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["1_0,0", " 1,0", "1,0 ", "1, 0", "+1,0", "1,0,", "\uff11,0"])
def test_malformed_theta_exponent_keys_exit_2(capsys, key):
    # int() would read "1_0" as 10, and accept signs, spaces and non-ASCII digits
    theta = json.dumps({"coefficients": [{key: 1}, {"0,1": 1}]})
    code, out, err = run_cli(capsys, "is-universal", "catalog:A2", "--mult", "1,1,2", "--theta", theta)
    assert code == 2
    assert out == ""
    assert "input error" in err and "exponent key" in err


@pytest.mark.parametrize("argv", [
    ("delta", "catalog:maehara4", "--param", "t=1,2"),
    ("delta", "catalog:maehara4", "--param", "t=2/0"),
    ("delta", "catalog:maehara4", "--param", "t=seven"),
    ("delta", "catalog:maehara4", "--param", "h=4"),
    ("is-free", "catalog:fan2d", "--param", "h=2.5", "--param", "slopes=1,2"),
    ("is-free", "catalog:fan2d", "--param", "h=1,2", "--param", "slopes=1"),
    ("is-free", "catalog:fan2d", "--param", "h=1", "--param", "slopes=1/0"),
    ("is-free", "catalog:fan2d", "--param", "h=1", "--param", "slopes=1", "--param", "t=2"),
    ("exponents", "catalog:A2", "--param", "t=2"),
    ("sweep", "catalog:maehara4", "--range", "a=1..1,b=1..1,c=1..1,d=1..1", "--param", "t=2/0"),
])
def test_malformed_catalog_params_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


def test_single_slope_fan_param(capsys):
    code, report, _ = run_json(capsys, "is-free", "catalog:fan2d", "--param", "h=1", "--param", "slopes=1")
    assert code == 0 and report["free"] is True and report["exponents"] == [1, 1, 2]


@pytest.mark.parametrize("levels", [
    [[None], [0, 1, 3], [0, 1, 2, 3, 4, 5]],
    [[0.9], [0, 1, 3.2], [0, 1, 2, 3, 4, 5]],
    [[True], [0, 1, 3], [0, 1, 2, 3, 4, 5]],
    [["0"], [0, 1, 3], [0, 1, 2, 3, 4, 5]],
])
def test_malformed_filtration_indices_exit_2(capsys, levels):
    filt = json.dumps({"filtration": levels})
    code, out, err = run_cli(capsys, "check-ss", "catalog:A3", "--mult", "2,2,2,1,1,1",
                             "--filtration", filt)
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


def test_boolean_multiplicity_exit_2(capsys):
    data = {"variables": ["x", "y"],
            "hyperplanes": [{"form": [1, 0], "multiplicity": True}, {"form": [0, 1]}]}
    code, out, err = run_cli(capsys, "delta", json.dumps(data))
    assert code == 2
    assert out == ""
    assert "multiplicity" in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_nonpositive_jobs(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "catalog:A2", "--range", "a=0..1,b=0..1,c=0..1",
              "--predicates", "free", "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err and "positive integer" in captured.err


@pytest.mark.parametrize("argv", [
    ("graded-dim", "catalog:A2", "--max-degree", "-1"),
    ("sweep", "catalog:A2", "--range", "a=0..1,b=0..1,c=0..1", "--max-total", "-1"),
])
def test_negative_bounds_exit_2(capsys, argv):
    # a negative bound used to print an empty answer with exit 0
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err and "nonnegative integer" in captured.err


def test_internal_failures_exit_3(capsys, monkeypatch):
    def boom(ma, seed=0):
        raise InternalCheckError("forced")

    monkeypatch.setattr("multider.cli.find_free_basis", boom)
    code, _, err = run_cli(capsys, "is-free", "catalog:A2", "--mult", "1,1,1")
    assert code == 3
    assert "internal invariant violation" in err


def test_internal_failures_name_the_instance_on_stderr(capsys, monkeypatch, gap_jumps):
    from multider import linalg

    gap_jumps((3, 4, 2, 2))
    code, out, err = run_cli(capsys, "classify-component", "catalog:B2", "--mult", "3,4,2,2")
    assert code == 3 and out == ""
    assert "internal invariant violation: gap moved by more than one step" in err
    assert "multiplicity (3, 4, 2, 2) to 5 at (4, 4, 2, 2)" in err
    monkeypatch.setattr(linalg, "_annihilates", lambda matrix, vectors: False)
    clear_caches()
    code, out, err = run_cli(capsys, "graded-dim", "catalog:A2", "--mult", "1,1,1", "--max-degree", "2")
    clear_caches()
    assert code == 3 and out == ""
    assert "internal invariant violation: reference elimination produced a non-member" in err
    assert "with multiplicity (1, 1, 1), degree 0, full route" in err
    assert str([f.primitive for f in catalog("A2").forms]) in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "multider.cli",
         "graded-dim", "catalog:A2", "--mult", "1,1,1", "--max-degree", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dims"] == [0, 1, 3]
    assert "elapsed" in proc.stderr
