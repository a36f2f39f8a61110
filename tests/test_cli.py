import json
import subprocess
import sys

import pytest

from qlucas.cli import main
from qlucas.roots import NumericalBreakdown

QUADRATIC = "[[0,0,1,0],[0,1,0,0],[0.5,0,0,0]]"

VIOLATOR = json.dumps([
    [2.021817371569556, -4.990013932160936,
     1.6532096251465427, -0.9809817996330215],
    [-4.028666016672443, -2.026754514128138,
     1.6896429962780755, -0.15619795584506324],
    [0.6593765399348785, 0.764830316690051,
     3.570836939888665, 1.6882895254084591],
    [1, 0, 0, 0],
])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_output(capsys):
    code, out, _ = run(capsys, "analyze", "--coeffs", QUADRATIC)
    assert code == 0
    assert "degree 2" in out
    assert "point  -0 + -1 i + 0 j + -1 k" in out or "-1 i" in out
    assert "mult 2" in out
    assert "verdict: verified" in out
    assert "modulus lower bound" in out


def test_analyze_json_output(capsys):
    code, out, _ = run(capsys, "analyze", "--coeffs", QUADRATIC,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 2
    assert doc["zeros"]["isolated"][0]["mult"] == 2
    q = doc["zeros"]["isolated"][0]["q"]
    assert q == pytest.approx([0.0, -1.0, 0.0, -1.0], abs=1e-9, rel=0)
    assert doc["critical"]["isolated"][0]["q"] == \
        pytest.approx([0.0, -1.0, 0.0, 0.0], abs=1e-9, rel=0)
    assert doc["verification"]["verdict"] == "verified"
    assert doc["bound"]["bound"] == pytest.approx(0.8164965809, abs=1e-6,
                                                  rel=0)


def test_analyze_handles_degree_one(capsys):
    code, out, _ = run(capsys, "analyze", "--coeffs", "[[1,2,3,4],[1,0,0,0]]",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 1
    assert "verification" not in doc


def test_verify_single_verified(capsys):
    code, out, _ = run(capsys, "verify", "--coeffs", QUADRATIC)
    assert code == 0
    assert "verdict: verified" in out


def test_verify_single_violation_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--coeffs", VIOLATOR,
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "violated"
    bad = [c for c in doc["critical_points"] if "violation" in c]
    assert bad
    assert bad[0]["violation"]["distance"] > 1e-2


def test_verify_single_text_violation(capsys):
    code, out, _ = run(capsys, "verify", "--coeffs", VIOLATOR)
    assert code == 1
    assert "verdict: violated" in out
    assert "OUTSIDE" in out


def test_verify_campaign_json(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "3", "--trials", "20",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["seed"] == 3
    assert doc["trials"] == 20
    assert doc["verified"] + len(doc["failures"]) + len(doc["breakdowns"]) \
        == 20
    assert len(doc["breakdowns"]) <= 0.01 * 20
    assert code == (1 if doc["failures"] else 0)


def test_verify_campaign_is_reproducible(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "11", "--trials", "15",
                         "--format", "json")
    code2, out2, _ = run(capsys, "verify", "--seed", "11", "--trials", "15",
                         "--format", "json")
    assert out1 == out2
    assert code1 == code2


def test_verify_campaign_text_agrees_with_json(capsys):
    # seed 28 fails 11 of 20 trials, one more than the text lists
    code_json, out, _ = run(capsys, "verify", "--seed", "28", "--trials",
                            "20", "--format", "json")
    doc = json.loads(out)
    failures = doc["failures"]
    assert len(failures) == 11 and not doc["breakdowns"]
    code, text, _ = run(capsys, "verify", "--seed", "28", "--trials", "20")
    assert code == code_json == 1
    assert text.splitlines() == [
        "campaign: seed 28  trials 20  eps_hull 1e-06",
        f"verified {doc['verified']}  failures 11  breakdowns 0",
    ] + [f"  failure on trial {f['trial']} ({f['kind']}), "
         f"distance {f['worst_distance']:.3g}" for f in failures[:10]]


def test_seed_is_a_campaign_flag(capsys):
    # one polynomial is verified without randomness: analyze takes no
    # seed, and the single-polynomial report names none
    assert run(capsys, "analyze", "--coeffs", QUADRATIC, "--seed", "1")[0] \
        == 2
    code, plain, _ = run(capsys, "verify", "--coeffs", VIOLATOR,
                         "--format", "json")
    assert code == 1
    assert "seed" not in json.loads(plain)
    _, out, _ = run(capsys, "verify", "--trials", "3", "--format", "json")
    assert json.loads(out)["seed"] == 0


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "--coeffs", QUADRATIC,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["slice"] == [1.0, 0.0, 0.0]
    assert doc["q_coeffs"] == pytest.approx([1, 0, 1, 0, 0.25], abs=1e-12,
                                            rel=0)
    assert doc["m_coeffs"][2] == pytest.approx([0.5, 0.0], abs=1e-9, rel=0)
    assert doc["residual"] <= 1e-10
    assert doc["l_identity_sampled"] is False


def test_factor_text_and_named_slices(capsys):
    code, out, _ = run(capsys, "factor", "--coeffs", QUADRATIC,
                       "--slice", "j")
    assert code == 0
    assert "slice direction (0, 1, 0)" in out
    assert "factor residual" in out
    assert "sampled derivative identity" in out


def test_factor_custom_slice_direction(capsys):
    code, out, _ = run(capsys, "factor", "--coeffs", QUADRATIC,
                       "--slice", "[0.6, 0.8, 0]", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["slice"] == pytest.approx([0.6, 0.8, 0.0], abs=1e-12, rel=0)


@pytest.mark.parametrize("direction, want", [
    ("[1e-170, 0, 0]", [1.0, 0.0, 0.0]),
    ("[1e200, 1e200, 0]", [0.5 ** 0.5, 0.5 ** 0.5, 0.0]),
])
def test_factor_slice_direction_of_any_finite_size(capsys, direction, want):
    code, out, _ = run(capsys, "factor", "--coeffs", QUADRATIC,
                       "--slice", direction, "--format", "json")
    assert code == 0
    assert json.loads(out)["slice"] == pytest.approx(want, abs=1e-15, rel=0)


@pytest.mark.parametrize("direction", [
    "[NaN, 0, 0]", "[Infinity, 0, 0]", "[1e400, 0, 0]",
    pytest.param("[1" + "0" * 400 + ", 0, 0]", id="[10**400, 0, 0]"),
    "[true, 0, 0]", "[0, false, 1]",
])
def test_factor_rejects_a_nonfinite_or_boolean_slice(capsys, direction):
    code, _, err = run(capsys, "factor", "--coeffs", QUADRATIC,
                       "--slice", direction)
    assert code == 2
    assert "--slice" in err


@pytest.mark.parametrize("coeffs", [
    "[1, 1" + "0" * 400 + "]",
    "[[1, 0, 0, 0], [0, -1" + "0" * 400 + ", 0, 0], 1]",
], ids=["number", "quaternion part"])
def test_coefficient_beyond_the_float_range_exits_two(capsys, coeffs):
    code, out, err = run(capsys, "analyze", "--coeffs", coeffs)
    assert code == 2
    assert out == ""
    assert "coefficient 1 is beyond the float range" in err


def test_bound_outputs(capsys):
    code, out, _ = run(capsys, "bound", "--coeffs", "[[-3,-4,0,0],[1,0,0,0]]",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == pytest.approx(3.0, abs=1e-12, rel=0)
    assert doc["observed_max_modulus"] == pytest.approx(5.0, abs=1e-9, rel=0)

    code, out, _ = run(capsys, "bound", "--coeffs", QUADRATIC)
    assert code == 0
    assert "lower bound on max zero modulus: 0.816497" in out


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--coeffs", QUADRATIC,
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["degree"] == 2


def test_usage_errors_exit_two(capsys):
    cases = [
        ("verify", "--coeffs", "not json"),
        ("verify", "--coeffs", "[]"),
        ("verify", "--coeffs", "[[1,2],[1,0,0,0]]"),
        ("verify", "--coeffs", "[[true,0,0,0],[1,0,0,0]]"),
        ("verify", "--coeffs", "[0]"),
        ("verify", "--coeffs", "[[1,2,3,4],[1,0,0,0]]"),   # degree 1
        ("analyze", "--coeffs", "[3.5]"),                   # constant
        ("analyze", "--input", "/nonexistent/poly.json"),
        ("factor", "--coeffs", QUADRATIC, "--slice", "x"),
        ("factor", "--coeffs", QUADRATIC, "--slice", "[0,0,0]"),
        ("bound",),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err


def one_error_line(err, prefix):
    # one line, so no traceback
    return err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("setting", [
    ("--eps-hull", "-1"), ("--eps-hull", "nan"), ("--tol-zero", "nan"),
    ("--tol-zero=-1e-8",),
], ids=["eps-negative", "eps-nan", "tol-nan", "tol-negative"])
@pytest.mark.parametrize("target", [
    ("verify", "--coeffs", QUADRATIC), ("verify", "--trials", "3"),
    ("analyze", "--coeffs", QUADRATIC),
], ids=["verify", "campaign", "analyze"])
def test_nan_or_negative_tolerance_exits_two(capsys, target, setting):
    # at the README quadratic a negative or NaN collar put the critical
    # point -i OUTSIDE its own hull, and a NaN tau_zero passed every zero
    code, out, err = run(capsys, *target, *setting)
    assert code == 2
    assert out == ""
    assert one_error_line(err, "error: "), err


def test_negative_campaign_size_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--trials", "-5",
                         "--format", "json")
    assert (code, out) == (2, "")
    assert one_error_line(err, "error: "), err


@pytest.mark.parametrize("command", ["bound", "analyze"])
def test_symmetrization_overflow_is_a_breakdown(capsys, command):
    # P^s = 1 + 2e300 z + inf z^2, and trimming drops every entry
    code, out, err = run(capsys, command, "--coeffs", "[1, 1e300]")
    assert (code, out) == (3, "")
    assert err == ("numerical breakdown: symmetrization overflows or "
                   "underflows the float range\n")


# P^s holds inf, inf and NaN, or only zeros from underflow
OUT_OF_RANGE = ["[1, 1e300]", "[1, 0, 1e300]", "[1e200, 1e200, -1e200]",
                "[[1,0,0,0],[0,1e300,0,0]]", "[1e-170, 1e-170, 1e-170]"]


@pytest.mark.parametrize("coeffs", OUT_OF_RANGE)
@pytest.mark.parametrize("command", ["analyze", "verify", "bound", "factor"])
def test_every_command_reports_the_symmetrization_breakdown(capsys, command,
                                                            coeffs):
    code, out, err = run(capsys, command, "--coeffs", coeffs)
    if command == "verify" and len(json.loads(coeffs)) == 2:
        # degree 1: a usage error before any P^s is formed
        assert (code, out) == (2, "")
        assert err == ("error: verification needs a polynomial of "
                       "degree >= 2\n")
        return
    assert (code, out) == (3, "")
    assert err == ("numerical breakdown: symmetrization overflows or "
                   "underflows the float range\n")


@pytest.mark.parametrize("collar", ["nan", "-1"])
@pytest.mark.parametrize("coeffs", ["[1, 1]", "[1, 1, 1]"],
                         ids=["degree-1", "degree-2"])
def test_analyze_checks_the_collar_on_every_degree(capsys, coeffs, collar):
    code, out, err = run(capsys, "analyze", "--coeffs", coeffs,
                         "--eps-hull", collar)
    assert (code, out) == (2, "")
    assert err == (f"error: eps_hull must be a number >= 0, "
                   f"got {float(collar)!r}\n")


def test_argparse_paths(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_input_file_loading(tmp_path, capsys):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"coeffs": [[0, 0, 1, 0], [0, 1, 0, 0],
                                           [0.5, 0, 0, 0]]}))
    code, out, _ = run(capsys, "analyze", "--input", str(poly),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_breakdown_exit_code(capsys, monkeypatch):
    import qlucas.cli as cli

    def boom(*a, **k):
        raise NumericalBreakdown("forced failure", detail=1.0)

    monkeypatch.setattr(cli, "zero_set", boom)
    code, _, err = run(capsys, "analyze", "--coeffs", QUADRATIC)
    assert code == 3
    assert "numerical breakdown" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qlucas.cli", "bound", "--coeffs",
         "[[-3,-4,0,0],[1,0,0,0]]", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bound"] == pytest.approx(3.0, abs=1e-12,
                                                             rel=0)
