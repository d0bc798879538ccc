import gc
import json
import os
from pathlib import Path
import warnings

import numpy as np
import pytest

import sngs
from sngs import cli, scaling, solver


def run(args, cwd=None):
    return cli.main(["sngs"] + args)


def manifest(out):
    """The JSON a run with `--out out` wrote."""
    return json.loads(Path(out + ".json").read_text())


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
    ["spectrum", "--q", "4", "--lambda", "0.01", "--num-eigs", "6"],
    ["solve", "--q", "4", "--lambda", "-1"],
    ["solve", "--q", "4", "--lambda", "1", "--a", "-1"],
    ["solve", "--q", "4", "--lambda", "1", "--a", "0", "--nu", "0"],
    ["solve", "--q", "4", "--lambda", "1", "--rmax", "30"],
    ["solve", "--q", "4", "--lambda", "nan"],
    ["solve", "--q", "4", "--lambda", "1", "--seed", "3"],
    ["spectrum", "--q", "4.5", "--lambda", "-1"],
    ["sweep", "--q", "4", "--lambdas", "nan,1"],
    ["sweep", "--q", "4", "--lambdas", "1,1"],
    ["sweep", "--q", "4", "--lambdas", "1:1:lin:3"],
    ["limits", "--q", "4", "--side", "zero", "--lambdas", "1e-1,1e-1"],
    ["solve", "--q", "4", "--lambda", "1", "--n", "5"],
    ["solve", "--q", "4", "--lambda", "1", "--tol", "1e-8"],
    ["check", "--tol", "1e-3"],
    ["solve", "--q", "4", "--lambda", "1", "--a", "inf"],
    ["solve", "--q", "4", "--lambda", "1", "--nu", "inf"],
    ["scan", "--q", "4", "--lambda", "1", "--nu", "nan"],
    ["sweep", "--q", "4", "--lambdas", "1,inf"],
    ["sweep", "--q", "4", "--lambdas", "1e-3:inf:log:3"],
    ["limits", "--q", "4", "--side", "zero", "--lambdas", "inf"],
    ["limits", "--q", "5.95", "--side", "zero", "--lambdas", "1e300"],
    ["limits", "--q", "4", "--side", "zero", "--lambdas", "10"],
    ["limits", "--q", "4", "--side", "zero", "--lambdas", "1"],
    ["limits", "--q", "4", "--side", "infinity", "--lambdas", "0.5"],
])
def test_bad_input_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # caught before any solve: no Newton solve runs
    def no_solve(*args):
        raise AssertionError("a usage error reached a solve")
    monkeypatch.setattr(solver, "newton_solve", no_solve)
    out = str(tmp_path / "x")
    assert run(argv + ["--out", out]) == 64
    assert "usage error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_import_heap_is_frozen_once(tmp_path):
    # `import sngs.cli` froze the import heap, and `main` freezes nothing
    # more.  The first solve frees a few frozen objects that numpy and scipy
    # replace on first use, so the count is read after one.
    assert gc.get_freeze_count() > 0
    solve = ["solve", "--q", "4", "--lambda", "0.5", "--n", "512", "--out"]
    assert run(solve + [str(tmp_path / "warm")]) == 0
    frozen = gc.get_freeze_count()
    out = str(tmp_path / "x")
    assert run(solve + [out]) == 0
    assert run(["check", "--out", out]) == 0
    assert gc.get_freeze_count() == frozen


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
    with pytest.raises(BadRange):
        cli.parse_lambdas("0.1,1,0.1")
    for spec in ("inf", "1,nan", "1e-3:inf:log:3", "nan:1:lin:2",
                 "1:inf:lin:2"):
        with pytest.raises(BadRange):
            cli.parse_lambdas(spec)


def test_solve_roundtrip_and_determinism(tmp_path):
    out1 = str(tmp_path / "run1")
    out2 = str(tmp_path / "run2")
    args = ["solve", "--q", "4", "--lambda", "0.5", "--n", "512"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    b1 = Path(out1 + ".csv").read_bytes()
    b2 = Path(out2 + ".csv").read_bytes()
    assert b1 == b2   # bit-identical CSV
    man = manifest(out1)
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
    assert manifest(out)["summary"]["residual_norm"] <= 1e-10
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
    man = manifest(solved)
    spoil(man)
    Path(solved + ".json").write_text(json.dumps(man))
    assert run(["check", "--out", solved]) == 2
    assert f"{solved}.json is not a solve manifest" in capsys.readouterr().err


def test_check_rejects_header_only_csv(solved, capsys):
    with open(solved + ".csv", "w") as fh:
        fh.write("r,u,v\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["check", "--out", solved]) == 2
    assert f"{solved}.csv is not a solve's field CSV" in capsys.readouterr().err


@pytest.mark.parametrize("factor", [1e110, -1.0])
def test_check_rejects_a_csv_whose_radius_is_out_of_range(solved, capsys, factor):
    # r_max = 2.8e111 has no finite r^2 dr measure, r_max < 0 no domain:
    # both are a CSV that is not a solve's, not a numerical failure
    from sngs.grid import read_field_csv, write_table_csv
    r, cols = read_field_csv(solved + ".csv")
    write_table_csv(solved + ".csv", ["r", "u", "v"],
                    np.column_stack([r * factor, cols["u"], cols["v"]]))
    assert run(["check", "--out", solved]) == 2
    assert f"{solved}.csv is not a solve's field CSV" in capsys.readouterr().err


def test_check_detects_tampering(tmp_path):
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "4", "--lambda", "1", "--n", "1536",
                "--out", out]) == 0
    man = manifest(out)
    man["summary"]["diagnostics"]["J"] *= 1.01
    Path(out + ".json").write_text(json.dumps(man))
    assert run(["check", "--out", out]) == 2


def test_check_compares_the_identity_residuals_on_the_scale_of_G(solved, capsys):
    # nehari is a cancellation residual near 0: a stored value 1e-4 of
    # itself off the re-derived one, as BLAS rounding in another thread count
    # leaves it, is still far below 1e-12 G and agrees
    man = manifest(solved)
    diag = man["summary"]["diagnostics"]
    nehari, G = diag["nehari"], diag["grad_sq"]
    assert 0.0 < 1e-4 * abs(nehari) < 1e-12 * G
    diag["nehari"] = nehari * (1.0 + 1e-4)
    Path(solved + ".json").write_text(json.dumps(man))
    assert run(["check", "--out", solved]) == 0
    # but a stored nehari 1e-5 G off is a mismatch
    diag["nehari"] = nehari + 1e-5 * G
    Path(solved + ".json").write_text(json.dumps(man))
    assert run(["check", "--out", solved]) == 2
    assert "mismatch ('nehari'" in capsys.readouterr().err


def test_solve_rejects_under_resolved_state(tmp_path):
    # n=4096 under-resolves q=5.95, lambda=1: Newton converges, the identities
    # miss the bound `check` applies, so `solve` exits 2 with its artifacts
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "5.95", "--lambda", "1", "--out", out]) == 2
    assert os.path.exists(out + ".csv")
    man = manifest(out)
    names = [f[0] for f in man["summary"]["identity_failures"]]
    assert names == ["identity_residuals"]
    assert man["summary"]["diagnostics"]["J"] is not None
    assert run(["check", "--out", out]) == 2


def test_solve_and_check_accept_rounding_floor(tmp_path):
    # at n=32761 the rounding floor of |F| / (lam |u|) lies above tol = 1e-10:
    # Newton stops on the floor and check bounds the residual by it
    out = str(tmp_path / "fine")
    assert run(["solve", "--q", "5.25", "--lambda", "1", "--n", "32761",
                "--out", out]) == 0
    summary = manifest(out)["summary"]
    assert summary["residual_floor"] > 1e-10
    assert summary["residual_norm"] <= summary["residual_floor"]
    assert run(["check", "--out", out]) == 0


def test_solve_and_check_at_65536_nodes(tmp_path):
    # the pair-form Newton step holds its accuracy at h = 28/65535, where the
    # rounding floor of the residual is 6.5e-9
    out = str(tmp_path / "large")
    assert run(["solve", "--q", "4", "--lambda", "1", "--n", "65536",
                "--out", out]) == 0
    assert run(["check", "--out", out]) == 0


def test_sweep_monotone(tmp_path):
    out = str(tmp_path / "sweep")
    assert run(["sweep", "--q", "4", "--lambdas", "0.5,1,2", "--n", "1024",
                "--out", out]) == 0
    rows = Path(out + ".csv").read_text().strip().splitlines()
    assert rows[0].startswith("lambda,")
    assert len(rows) == 4
    js = [float(line.split(",")[1]) for line in rows[1:]]
    assert js == sorted(js)


def test_sweep_rows_are_direct_solves(tmp_path):
    # every sweep row is the `solve` state at its lambda, bit for bit
    out = str(tmp_path / "sweep")
    assert run(["sweep", "--q", "4", "--lambdas", "0.5,1,2", "--n", "1024",
                "--out", out]) == 0
    header, *rows = [line.split(",") for line in
                     Path(out + ".csv").read_text().strip().splitlines()]
    col = {name: header.index(name)
           for name in ("lambda", "J", "residual_norm", "iterations")}
    for row in rows:
        lam = float(row[col["lambda"]])
        st = solver.solve(solver.ModelParams(lam=lam, a=1.0, nu=1.0, q=4.0),
                          1024)
        assert float(row[col["J"]]) == st.diagnostics.J
        assert float(row[col["residual_norm"]]) == st.residual_norm
        assert int(row[col["iterations"]]) == st.iterations


def test_failed_solve_writes_its_manifest(tmp_path, capsys):
    # q=2.05, lambda=0.01 collapses (TrivialCollapse): exit 2, and the
    # manifest still records the error and the domain of `solve`'s grid;
    # `check` names that error
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "2.05", "--lambda", "0.01", "--out", out]) == 2
    assert "TrivialCollapse" in capsys.readouterr().err
    man = manifest(out)
    assert "collapsed" in man["summary"]["error"]
    assert man["outputs"] == []
    assert man["grid"] == {"r_max": solver.auto_rmax(0.01), "n": 4096}
    assert not os.path.exists(out + ".csv")
    assert run(["check", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{out}.json records a failed solve: {man['summary']['error']}" in err


def test_failed_solve_records_its_best_iterate(tmp_path, capsys):
    # q=5.95, lambda=1 on 16381 nodes: Newton runs MAX_ITER iterations
    # without converging, and the manifest records the last iterate
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "5.95", "--lambda", "1", "--n", "16381",
                "--out", out]) == 2
    assert "NonConvergence" in capsys.readouterr().err
    man = manifest(out)
    assert f"no convergence in {solver.MAX_ITER} iterations" in \
        man["summary"]["error"]
    assert man["outputs"] == []
    record = man["state"]
    assert record["grid"] == man["grid"] == {"r_max": 28.0, "n": 16381}
    assert record["params"] == man["params"]
    summary = record["summary"]
    assert summary["iterations"] == solver.MAX_ITER
    assert summary["residual_norm"] > summary["residual_bound"]
    assert summary["identity_failures"][0][0] == "residual_norm"
    assert not os.path.exists(out + ".csv")


def _members(*lams, q=4.0, n):
    return [solver.solve(solver.ModelParams(lam=lam, a=1.0, nu=1.0, q=q), n)
            for lam in lams]


# (argv, the records of its JSON, the states they describe, the names of
# the acceptance failures of each record)
ARTIFACTS = {
    "solve": (["solve", "--q", "4", "--lambda", "0.5", "--n", "512"],
              lambda man: [man], lambda: _members(0.5, n=512), []),
    "sweep": (["sweep", "--q", "4", "--lambdas", "0.5,1", "--n", "1024"],
              lambda man: man["states"], lambda: _members(0.5, 1.0, n=1024),
              []),
    "limits": (["limits", "--q", "4", "--side", "zero",
                "--lambdas", "0.1,0.01", "--n", "1024"],
               lambda man: [man["reference"], *man["states"]],
               lambda: [solver.solve(scaling.limit_member(4.0, "zero"), 1024),
                        *(solver.solve(scaling.normal_form(4.0, lam)[1], 1024)
                          for lam in (0.1, 0.01))], []),
    "spectrum": (["spectrum", "--q", "4", "--lambda", "0.01", "--n", "1024",
                  "--k-max", "2"], lambda man: [man["state"]],
                 lambda: [solver.solve(scaling.normal_form(4.0, 0.01)[1],
                                       1024)], []),
    # the spectrum gate is not in place: the state misses Pohozaev at about
    # 2.5e-5 G, its record says so, and the verdict still passes
    "spectrum_refused_state": (
        ["spectrum", "--q", "2.05", "--lambda", "0.1", "--n", "1024",
         "--k-max", "2"], lambda man: [man["state"]],
        lambda: [solver.solve(scaling.normal_form(2.05, 0.1)[1], 1024)],
        ["identity_residuals"]),
    "scan": (["scan", "--q", "4", "--lambda", "1", "--starts", "4",
              "--n", "1024", "--seed", "3"], lambda man: man["states"],
             lambda: solver.uniqueness_scan(
                 solver.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0), 4, 3,
                 1024).distinct_states, []),
}


@pytest.mark.parametrize("case", ARTIFACTS)
def test_every_artifact_records_its_states(tmp_path, case):
    argv, records_of, expected, failure_names = ARTIFACTS[case]
    out = str(tmp_path / "x")
    assert run(argv + ["--out", out]) == 0
    man = manifest(out)
    assert man["command_line"] == " ".join(["sngs", *argv, "--out", out])
    assert man["code_version"] == sngs.__version__
    assert man["created"] and isinstance(man["outputs"], list)
    records, states = records_of(man), expected()
    assert len(records) == len(states)
    for record, st in zip(records, states):
        assert record["params"] == vars(st.params)
        assert record["grid"] == {"r_max": st.grid.r_max, "n": st.grid.n}
        summary = record["summary"]
        failures = solver.acceptance_failures(st)
        assert summary["identity_failures"] == json.loads(json.dumps(failures))
        assert [f[0] for f in failures] == failure_names
        assert summary["residual_bound"] == st.residual_bound
        assert summary["iterations"] == st.iterations
        assert summary["diagnostics"] == vars(st.diagnostics)


def test_sweep_stderr_prints_plain_floats(tmp_path, capsys):
    # n=1024 under-resolves q=5.25 at lambda = 1 and 10 (identity misses)
    out = str(tmp_path / "sweep")
    assert run(["sweep", "--q", "5.25", "--lambdas", "1:10:log:2",
                "--n", "1024", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "{'lambda': 1.0, 'failures'" in err
    assert "np.float64(" not in err


def test_scan_cli(tmp_path):
    out = str(tmp_path / "scan")
    assert run(["scan", "--q", "4", "--lambda", "1", "--starts", "4",
                "--n", "1024", "--seed", "3", "--out", out]) == 0
    payload = manifest(out)
    assert payload["distinct"] == 1
    assert payload["converged"] + payload["failed"] == 4


def test_scan_refuses_a_state_that_misses_the_identities(tmp_path, capsys):
    # at n=512 the one distinct state misses Pohozaev (-2.7e-5 against
    # 1e-6 G = 1.9e-5); scan refuses it as solve does, in the same layout
    out = str(tmp_path / "scan")
    assert run(["scan", "--q", "4", "--lambda", "1", "--starts", "4",
                "--n", "512", "--seed", "3", "--out", out]) == 2
    payload = manifest(out)
    assert payload["distinct"] == 1
    failures = payload["states"][0]["summary"]["identity_failures"]
    assert [f[0] for f in failures] == ["identity_residuals"]
    err = capsys.readouterr().err
    assert "scan: under-resolved state {'state': 0, 'failures'" in err


def test_limits_cli_small(tmp_path):
    out = str(tmp_path / "lim")
    code = run(["limits", "--q", "4", "--side", "zero",
                "--lambdas", "0.1,0.01", "--n", "1024", "--out", out])
    assert code == 0
    rows = Path(out + ".csv").read_text().strip().splitlines()
    assert rows[0].split(",")[0] == "lambda"
    sups = [float(line.split(",")[2]) for line in rows[1:]]
    assert sups[1] < sups[0]
    assert manifest(out)["summary"]["identity_failures"] == []


def test_limits_single_lambda_checks_its_regime_ratio(tmp_path):
    # toward W only M^(q-2)/lambda is bounded; M/lambda at lambda = 1e-4 is
    # 4.3e-4, outside the window, and is not checked
    out = str(tmp_path / "lim")
    assert run(["limits", "--q", "2.5", "--side", "zero", "--lambdas", "1e-4",
                "--n", "1024", "--out", out]) == 0
    assert manifest(out)["summary"]["ratios_in_window"]


def test_limits_near_q_two(tmp_path):
    # toward W at q=2.25 the physical amplitude lam^4 falls below the
    # collapse test at lambda = 1e-3; the normal-form members keep theirs
    out = str(tmp_path / "lim")
    assert run(["limits", "--q", "2.25", "--side", "zero",
                "--lambdas", "1e-1,1e-2,1e-3", "--n", "1024",
                "--out", out]) == 0
    man = manifest(out)
    assert [s["params"]["lam"] for s in man["states"]] == [1.0, 1.0, 1.0]
    assert man["summary"]["identity_failures"] == []
    assert man["summary"]["zero_distance_lambdas"] == []


@pytest.mark.parametrize("q,side,lambdas,zero", [
    ("5.95", "zero", "1e-300", [1e-300]),      # nu = lambda^2.95 underflows
    ("5.95", "zero", "1e-1,1e-300", [1e-300]),
    ("2.5", "infinity", "1e200", [1e200]),     # nu = 1e-100 against 1
])
def test_limits_refuses_a_member_equal_to_its_profile(tmp_path, capsys, q,
                                                      side, lambdas, zero):
    # a member whose small parameter vanishes to rounding is the limit
    # profile bit for bit; its distance 0 shows no approach to the limit
    out = str(tmp_path / "lim")
    assert run(["limits", "--q", q, "--side", side, "--lambdas", lambdas,
                "--n", "512", "--out", out]) == 2
    assert manifest(out)["summary"]["zero_distance_lambdas"] == zero
    err = capsys.readouterr().err
    assert f"member at lambda {zero[0]:g} equals" in err


def test_limits_rejects_under_resolved_states(tmp_path):
    # at q=5.5 toward lambda = infinity every state and the Kwong reference
    # miss the Pohozaev identity at n=4096 (about 1.5e-5 G against 1e-6 G)
    out = str(tmp_path / "lim")
    assert run(["limits", "--q", "5.5", "--side", "infinity",
                "--lambdas", "1e1,1e2,1e3", "--out", out]) == 2
    failures = manifest(out)["summary"]["identity_failures"]
    assert failures[0]["reference"] == "kwong"
    assert [f["lambda"] for f in failures[1:]] == [10.0, 100.0, 1000.0]


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
    payload = manifest(out)
    assert payload["verdict"] == "nondegenerate"
    assert payload["split"] == -payload["tolerances"]["gap_tol"]
    assert [s["below_split"] for s in payload["sectors"]] == [1, 0]
    assert all(s["backward_error"] <= 1e-12 for s in payload["sectors"])
    assert [s["factorizations"] for s in payload["sectors"]] == [2, 1]
    assert [len(s["eigenvalues"]) for s in payload["sectors"]] == [2, 2]
    assert all(s["solves"] >= len(s["eigenvalues"]) for s in payload["sectors"])
    assert len(payload["timing"]["eigensolve_s"]) == 2
    higher = payload["higher_sectors"]
    assert sorted(higher) == ["bound", "ordering_gap", "r_act"]
    assert higher["bound"] > 0.0 and higher["ordering_gap"] > 0.0
    assert payload["timing"]["solve_s"] > 0.0
    assert sorted(payload["timing"]) == ["eigensolve_s", "solve_s"]
    assert payload["sectors"][1]["zero_mode_match"] >= 0.999


@pytest.mark.filterwarnings("error")
def test_spectrum_ignores_a_large_k_max(tmp_path, capsys):
    """--k-max is accepted and ignored: sector 1 certifies every k >= 2, so
    no sector-k Green's bands are built past k = 2, where they once
    overflowed (k >= 51 at n = 1024) and the LDL^T found a singular factor."""
    out = str(tmp_path / "spec")
    assert run(["spectrum", "--q", "4", "--lambda", "1e-2", "--n", "1024",
                "--k-max", "120", "--out", out]) == 0
    payload = manifest(out)
    assert payload["verdict"] == "nondegenerate"
    assert [s["k"] for s in payload["sectors"]] == [0, 1]
    assert "Warning" not in capsys.readouterr().err


def test_spectrum_certifies_the_normal_form_state(tmp_path):
    # the payload records the state whose spectrum it reports: the mu-form
    # member, a = mu != 2
    out = str(tmp_path / "spec")
    assert run(["spectrum", "--q", "4.75", "--lambda", "10", "--n", "2048",
                "--k-max", "3", "--out", out]) == 0
    record = manifest(out)["state"]
    st = solver.solve(scaling.normal_form(4.75, 10.0)[1], 2048)
    assert record["params"] == vars(st.params)
    assert record["params"]["a"] == scaling.small_parameter(4.75, 10.0) != 2.0
    assert record["grid"]["r_max"] == st.grid.r_max


@pytest.mark.parametrize("q,lam,n,verdict", [
    ("2.75", "100", 33, "under-resolved"),
    ("4", "0.01", 64, "under-resolved"),
    ("4", "0.01", 128, "under-resolved"),
    ("4", "0.01", 256, "nondegenerate"),
])
def test_spectrum_under_resolved_grid(tmp_path, q, lam, n, verdict):
    """Where 50 h^2 >= 1 the zero tolerance 50 h^2 sigma_2 swallows every
    sector-1 eigenvalue: the verdict says the grid is too coarse (exit 2)
    instead of asserting a kernel."""
    out = str(tmp_path / "spec")
    code = run(["spectrum", "--q", q, "--lambda", lam, "--n", str(n),
                "--k-max", "3", "--out", out])
    payload = manifest(out)
    assert payload["verdict"] == verdict
    assert code == (0 if verdict == "nondegenerate" else 2)
    h = payload["state"]["grid"]["r_max"] / (n - 1)
    assert (50.0 * h * h >= 1.0) == (verdict == "under-resolved")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["solve", "--q", "4", "--lambda", "1e-204", "--n", "64"],
    ["scan", "--q", "4", "--lambda", "1e-300", "--n", "64"],
    ["sweep", "--q", "4", "--lambdas", "1e-300,1e300", "--n", "64"],
    ["solve", "--q", "4", "--lambda", "1e300", "--n", "64"],
])
def test_tiny_lambda_domain_is_typed(tmp_path, capsys, command):
    """At lambda below ~1e-203 the domain 28 / sqrt(lambda) has no finite
    r^2 dr measure r_max^3/3, and above ~5e207 no normal one (at 1e300 it
    underflows to 0): make_grid's RadiusOutOfRange names r_max, exit 2, with
    no numpy division warning on the way."""
    assert run(command + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: r_max = " in err
    assert "Traceback" not in err


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
