import json
import os
import warnings

import numpy as np
import pytest

from sngs import cli


def run(args, cwd=None):
    return cli.main(["sngs"] + args)


def test_usage_errors(tmp_path):
    out = str(tmp_path / "x")
    # q = 3 is the excluded Coulomb-Sobolev-critical exponent
    assert run(["solve", "--q", "3", "--lambda", "1", "--out", out]) == 64
    assert run(["solve", "--q", "7", "--lambda", "1", "--out", out]) == 64
    assert run(["frobnicate"]) == 64
    assert run(["solve", "--q", "4", "--lambda", "1", "--out", out,
                "--bogus-flag"]) == 64
    assert run(["sweep", "--q", "4", "--lambdas", "1e-3:1e3:zigzag:5",
                "--out", out]) == 64


@pytest.mark.parametrize("argv", [
    ["scan", "--q", "4", "--lambda", "1", "--starts", "1"],
    ["spectrum", "--q", "4", "--lambda", "0.01", "--k-max", "1"],
    ["spectrum", "--q", "4", "--lambda", "0.01", "--num-eigs", "0"],
    ["solve", "--q", "4", "--lambda", "-1"],
    ["solve", "--q", "4", "--lambda", "1", "--a", "-1"],
    ["solve", "--q", "4", "--lambda", "1", "--a", "0", "--nu", "0"],
    ["solve", "--q", "4", "--lambda", "1", "--rmax", "abc"],
    ["solve", "--q", "4", "--lambda", "nan"],
    ["solve", "--q", "4", "--lambda", "1", "--seed", "3"],
    ["spectrum", "--q", "4.5", "--lambda", "-1"],
    ["sweep", "--q", "4", "--lambdas", "nan,1"],
    ["solve", "--q", "4", "--lambda", "1", "--n", "5"],
])
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    out = str(tmp_path / "x")
    assert run(argv + ["--out", out]) == 64
    assert "usage error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_parse_lambdas():
    vals = cli.parse_lambdas("1e-3:1e3:log:13")
    assert len(vals) == 13
    assert vals[0] == pytest.approx(1e-3)
    assert vals[-1] == pytest.approx(1e3)
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    assert np.allclose(ratios, ratios[0])
    assert cli.parse_lambdas("0.1,1,10") == [0.1, 1.0, 10.0]
    from sngs.errors import BadRange
    with pytest.raises(BadRange):
        cli.parse_lambdas("1:2:log")
    with pytest.raises(BadRange):
        cli.parse_lambdas("-1,2")


def test_solve_roundtrip_and_determinism(tmp_path):
    out1 = str(tmp_path / "run1")
    out2 = str(tmp_path / "run2")
    args = ["solve", "--q", "4", "--lambda", "0.5", "--n", "512"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    b1 = open(out1 + ".csv", "rb").read()
    b2 = open(out2 + ".csv", "rb").read()
    assert b1 == b2   # bit-identical CSV
    man = json.load(open(out1 + ".json"))
    assert man["params"]["q"] == 4.0
    assert man["summary"]["diagnostics"]["J"] is not None
    assert man["summary"]["identity_failures"] == []
    assert man["summary"]["residual_floor"] > 0.0
    assert "rng_seed" not in man
    assert man["code_version"]


def test_solve_refuses_clobber(tmp_path):
    out = str(tmp_path / "run")
    args = ["solve", "--q", "4", "--lambda", "0.5", "--n", "512", "--out", out]
    assert run(args) == 0
    stamp = os.path.getmtime(out + ".csv")
    assert run(args) == 2          # IoError -> numerical-failure exit, nothing written
    assert os.path.getmtime(out + ".csv") == stamp
    assert run(args + ["--force"]) == 0


def test_check_on_solve_artifacts(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "2.5", "--lambda", "1", "--n", "1536",
                "--out", out]) == 0
    assert run(["check", "--out", out]) == 0


def test_check_accepts_large_lambda_solve(tmp_path):
    # solve stops at |F| <= tol lam |u| and check bounds the same ratio
    # |F| / (lam |u|), so a state that solve accepts at lambda > 1 also
    # passes check
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "4.75", "--lambda", repr(10.0 ** 1.25),
                "--out", out]) == 0
    assert json.load(open(out + ".json"))["summary"]["residual_norm"] <= 1e-10
    assert run(["check", "--out", out]) == 0


@pytest.fixture
def solved(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "4", "--lambda", "0.5", "--n", "512",
                "--out", out]) == 0
    return out


def test_check_rejects_sweep_output(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert run(["sweep", "--q", "4", "--lambdas", "0.5,1", "--n", "1024",
                "--out", out]) == 0
    assert run(["check", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{out}.json is not a solve manifest" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spoil", [
    lambda man: man["summary"].pop("diagnostics"),
    lambda man: man["params"].update(q=7.0),
], ids=["no_diagnostics", "q_out_of_range"])
def test_check_rejects_foreign_manifest(solved, capsys, spoil):
    man = json.load(open(solved + ".json"))
    spoil(man)
    json.dump(man, open(solved + ".json", "w"))
    assert run(["check", "--out", solved]) == 2
    assert f"{solved}.json is not a solve manifest" in capsys.readouterr().err


def test_check_rejects_header_only_csv(solved, capsys):
    with open(solved + ".csv", "w") as fh:
        fh.write("r,u,v\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["check", "--out", solved]) == 2
    assert f"{solved}.csv is not a solve's field CSV" in capsys.readouterr().err


def test_check_detects_tampering(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "4", "--lambda", "1", "--n", "1536",
                "--out", out]) == 0
    man = json.load(open(out + ".json"))
    man["summary"]["diagnostics"]["J"] *= 1.01
    json.dump(man, open(out + ".json", "w"))
    assert run(["check", "--out", out]) == 2


def test_solve_rejects_under_resolved_state(tmp_path):
    # n=4096 under-resolves q=5.95, lambda=1: Newton converges, the identities
    # miss the bound `check` applies, so `solve` exits 2 with its artifacts
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "5.95", "--lambda", "1", "--out", out]) == 2
    assert os.path.exists(out + ".csv")
    man = json.load(open(out + ".json"))
    names = [f[0] for f in man["summary"]["identity_failures"]]
    assert "level_identity" in names
    assert man["summary"]["diagnostics"]["J"] is not None
    assert run(["check", "--out", out]) == 2


def test_solve_and_check_accept_rounding_floor(tmp_path):
    # at n=32761 the rounding floor of |F| / (lam |u|) lies above tol = 1e-10:
    # Newton stops on the floor and check bounds the residual by it
    out = str(tmp_path / "fine")
    assert run(["solve", "--q", "5.25", "--lambda", "1", "--n", "32761",
                "--out", out]) == 0
    summary = json.load(open(out + ".json"))["summary"]
    assert summary["residual_floor"] > 1e-10
    assert summary["residual_norm"] <= summary["residual_floor"]
    assert run(["check", "--out", out]) == 0


def test_sweep_monotone(tmp_path):
    out = str(tmp_path / "sweep")
    assert run(["sweep", "--q", "4", "--lambdas", "0.5,1,2", "--n", "1024",
                "--out", out]) == 0
    rows = open(out + ".csv").read().strip().splitlines()
    assert rows[0].startswith("lambda,")
    assert len(rows) == 4
    js = [float(line.split(",")[1]) for line in rows[1:]]
    assert js == sorted(js)


def test_scan_cli(tmp_path):
    out = str(tmp_path / "scan")
    assert run(["scan", "--q", "4", "--lambda", "1", "--starts", "4",
                "--n", "512", "--seed", "3", "--out", out]) == 0
    payload = json.load(open(out + ".json"))
    assert payload["distinct"] == 1
    assert payload["converged"] + payload["failed"] == 4


def test_limits_cli_small(tmp_path):
    out = str(tmp_path / "lim")
    code = run(["limits", "--q", "4", "--side", "zero",
                "--lambdas", "0.1,0.01", "--n", "1024", "--out", out])
    assert code == 0
    rows = open(out + ".csv").read().strip().splitlines()
    assert rows[0].split(",")[0] == "lambda"
    sups = [float(line.split(",")[2]) for line in rows[1:]]
    assert sups[1] < sups[0]


def test_spectrum_rejects_rmax(tmp_path):
    # spectra are solved on the normalized member's own domain
    out = str(tmp_path / "spec")
    assert run(["spectrum", "--q", "4", "--lambda", "0.01", "--rmax", "30",
                "--out", out]) == 64
    assert not os.path.exists(out + ".json")


def test_limits_rejects_family_flags(tmp_path):
    # limits always studies the (lam, 1, 1, q) family
    out = str(tmp_path / "lim")
    for flag in ("--a", "--nu"):
        assert run(["limits", "--q", "4", "--side", "zero", "--lambdas", "0.1",
                    flag, "7", "--out", out]) == 64
    assert not os.path.exists(out + ".csv")


def test_spectrum_rejects_family_flags(tmp_path):
    # spectra are those of the normalized (lam, 1, 1, q) family member
    out = str(tmp_path / "spec")
    for flag in ("--a", "--nu"):
        assert run(["spectrum", "--q", "4", "--lambda", "0.01", flag, "3",
                    "--out", out]) == 64
    assert not os.path.exists(out + ".json")


def test_spectrum_cli_small(tmp_path):
    out = str(tmp_path / "spec")
    code = run(["spectrum", "--q", "4", "--lambda", "0.01", "--n", "2048",
                "--k-max", "2", "--out", out])
    assert code == 0
    payload = json.load(open(out + ".json"))
    assert payload["verdict"] == "nondegenerate"
    assert payload["split"] == -payload["tolerances"]["gap_tol"]
    assert [s["below_split"] for s in payload["sectors"]] == [1, 0, 0]
    assert all(s["backward_error"] <= 1e-12 for s in payload["sectors"])
    assert [s["factorizations"] for s in payload["sectors"]] == [2, 1, 1]
    assert all(s["solves"] >= 6 for s in payload["sectors"])
    assert len(payload["timing"]["eigensolve_s"]) == 3
    assert payload["sectors"][1]["zero_mode_match"] >= 0.999
    assert "suspected typo" in payload["convention_check"]["note"]
    assert payload["convention_check"]["paper_displayed_pair_first_eq_residual"] > 1e-3


def test_origin_spike_collapse_exits_2(tmp_path, capsys):
    """At q=5.95, lambda=100 the iterate collapses onto node 0, whose r^2 dr
    weight is zero; that is a typed collapse, not a division by zero."""
    out = str(tmp_path / "spike")
    assert run(["solve", "--q", "5.95", "--lambda", "100", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "collapsed" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["spectrum", "--q", "2.5", "--lambda", "0.01", "--n", "16", "--k-max", "3"],
    ["solve", "--q", "2.25", "--lambda", "0.01", "--n", "16"],
    ["solve", "--q", "4.75", "--lambda", "3", "--n", "33"],
])
def test_diverging_warm_start_is_typed(tmp_path, capsys, command):
    """On 16 nodes the warm start blows up, and on 33 nodes at q=4.75 it
    leaves an iterate whose residual norm overflows; either is a
    NonConvergence naming the warm start, exit 2, with no numpy overflow
    warning on the way."""
    assert run(command + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "warm start" in err and "non-finite" in err
    assert "Warning" not in err
