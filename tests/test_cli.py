import gc
import json
import os
from pathlib import Path
import subprocess
import sys
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
    # more.  The first solve frees a few frozen objects that numpy replaces
    # on first use, so the count is read after one.
    assert gc.get_freeze_count() > 0
    solve = ["solve", "--q", "4", "--lambda", "0.5", "--n", "512", "--out"]
    assert run(solve + [str(tmp_path / "warm")]) == 0
    frozen = gc.get_freeze_count()
    out = str(tmp_path / "x")
    assert run(solve + [out]) == 0
    assert run(["check", "--out", out]) == 0
    assert gc.get_freeze_count() == frozen


def test_no_subcommand_imports_scipy(tmp_path):
    # solve, check and spectrum in one fresh interpreter leave no scipy
    # module in sys.modules: the compiled routines come from sngs.kernels
    code = (
        "import sys, sngs.cli\n"
        "for argv in (['solve', '--q', '4', '--lambda', '0.1', '--n', '1024',\n"
        "              '--out', 'g'], ['check', '--out', 'g'],\n"
        "             ['spectrum', '--q', '4', '--lambda', '0.01', '--n', '1024',\n"
        "              '--out', 'gs']):\n"
        "    assert sngs.cli.main(['sngs', *argv]) == 0, argv\n"
        "mods = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not mods, mods\n")
    src = str(Path(sngs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert manifest(str(tmp_path / "gs"))["verdict"] == "nondegenerate"


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
    lambda man: man["summary"].update(diagnostics={}),
    lambda man: man["summary"]["diagnostics"].update(J="0.45"),
    lambda man: man["summary"]["diagnostics"].update(J=True),
], ids=["no_diagnostics", "q_out_of_range", "empty_diagnostics", "string_J",
        "bool_J"])
def test_check_rejects_foreign_manifest(solved, capsys, spoil):
    man = manifest(solved)
    spoil(man)
    Path(solved + ".json").write_text(json.dumps(man))
    assert run(["check", "--out", solved]) == 2
    err = capsys.readouterr().err
    assert f"{solved}.json is not a solve manifest" in err
    assert "Traceback" not in err


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
    # a stored NaN compares with nothing, so it is a mismatch too
    man["summary"]["diagnostics"]["J"] = float("nan")
    Path(out + ".json").write_text(json.dumps(man))
    assert run(["check", "--out", out]) == 2


def _refuse(constant):
    raise ValueError(f"non-standard JSON token {constant}")


def test_manifest_writes_non_finite_floats_as_null(solved, capsys):
    # strict JSON readers reject NaN and Infinity, so write_manifest never
    # emits them, at any depth; check then refuses the null as no number
    man = manifest(solved)
    command_line, outputs = man.pop("command_line"), man.pop("outputs")
    del man["code_version"], man["created"]
    man["summary"]["diagnostics"].update(J=float("nan"), D=float("inf"))
    man["summary"]["identity_failures"] = [["nehari", float("-inf"), (1.0, np.nan)]]
    sngs.io.write_manifest(solved + ".json", command_line, outputs, **man)
    stored = json.loads(Path(solved + ".json").read_text(), parse_constant=_refuse)
    assert stored["summary"]["diagnostics"]["J"] is None
    assert stored["summary"]["diagnostics"]["D"] is None
    assert stored["summary"]["identity_failures"] == [["nehari", None, [1.0, None]]]
    assert stored["summary"]["diagnostics"]["grad_sq"] == man["summary"]["diagnostics"]["grad_sq"]
    assert run(["check", "--out", solved]) == 2
    err = capsys.readouterr().err
    assert f"io error: {solved}.json is not a solve manifest" in err
    assert "Traceback" not in err


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
    # n=4096 under-resolves q=5.95, lambda=1: Newton converges in the r^2 dr
    # norm, but the origin row of F and the identities miss the bounds
    # `check` applies, so `solve` exits 2 with its artifacts
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "5.95", "--lambda", "1", "--out", out]) == 2
    assert os.path.exists(out + ".csv")
    man = manifest(out)
    names = [f[0] for f in man["summary"]["identity_failures"]]
    assert names == ["origin_residual", "identity_residuals"]
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
    # q=5.9999, lambda=1e100 on 17 nodes: the iterate collapses, a
    # TrivialCollapse with no state; exit 2, and the manifest still records
    # the error and the node count of `solve`'s grid; `check` names that error
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "5.9999", "--lambda", "1e100", "--n", "17",
                "--out", out]) == 2
    assert "TrivialCollapse" in capsys.readouterr().err
    man = manifest(out)
    assert "iterate collapsed" in man["summary"]["error"]
    assert man["outputs"] == []
    assert man["grid"] == {"n": 17} and "state" not in man
    assert not os.path.exists(out + ".csv")
    assert run(["check", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{out}.json records a failed run: {man['summary']['error']}" in err


def test_failed_solve_records_its_best_iterate(tmp_path, capsys):
    # q=5.95, lambda=1 on 16381 nodes: Newton runs MAX_ITER iterations
    # without converging, and `solve` writes the last iterate as its state,
    # refused; `check` re-derives it and refuses it too
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "5.95", "--lambda", "1", "--n", "16381",
                "--out", out]) == 2
    std = capsys.readouterr()
    assert f"stopped after {solver.MAX_ITER} iterations" in std.out
    assert "converged" not in std.out
    assert "under-resolved state ('residual_norm'" in std.err
    man = manifest(out)
    assert "error" not in man["summary"] and "state" not in man
    assert man["outputs"] == [out + ".csv", out + ".json"]
    assert man["grid"] == {"r_max": 28.0, "n": 16381}
    summary = man["summary"]
    assert summary["iterations"] == solver.MAX_ITER
    assert summary["residual_norm"] > summary["residual_bound"]
    assert summary["identity_failures"][0][0] == "residual_norm"
    assert os.path.exists(out + ".csv")
    assert run(["check", "--out", out]) == 2
    assert "check: mismatch ('residual_norm'" in capsys.readouterr().err


def test_kwong_member_with_an_unclosed_origin_is_a_refused_state(tmp_path,
                                                                 capsys):
    # the Kwong member at q=5.75 on 1024 nodes: its origin row does not
    # close, and u(0), which no active row reads, cannot end the solve;
    # `solve` writes the refused state with its CSV and exits 2, and
    # `check` re-derives and refuses it
    out = str(tmp_path / "kwong")
    assert run(["solve", "--q", "5.75", "--lambda", "1", "--a", "0",
                "--n", "1024", "--out", out]) == 2
    assert "under-resolved state ('origin_residual'" in capsys.readouterr().err
    assert os.path.exists(out + ".csv")
    assert "error" not in manifest(out)["summary"]
    assert run(["check", "--out", out]) == 2


def test_check_refuses_a_sign_flipped_field(tmp_path, capsys):
    # F(-u) = -F(u) at integer q and every identity reads |u|, so -u of a
    # q=4 state matches its manifest; the acceptance rule refuses its sign
    from sngs.grid import make_grid, read_field_csv, write_field_csv
    out = str(tmp_path / "run")
    assert run(["solve", "--q", "4", "--lambda", "0.1", "--n", "1024",
                "--out", out]) == 0
    r, cols = read_field_csv(out + ".csv")
    write_field_csv(out + ".csv", make_grid(float(r[-1]), len(r)),
                    {"u": -cols["u"], "v": cols["v"]})
    capsys.readouterr()
    assert run(["check", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("check: mismatch ('sign', ")


def test_sweep_keeps_the_row_of_an_unconverged_lambda(tmp_path, capsys):
    # at q=5.95 the second lambda's line search finds no descent: its last
    # iterate is a refused state with a row of its own, and the run exits 2
    out = str(tmp_path / "sweep")
    assert run(["sweep", "--q", "5.95", "--lambdas", "1,5.623413251903491",
                "--n", "4096", "--out", out]) == 2
    man = manifest(out)
    assert len(man["states"]) == 2
    assert len(Path(out + ".csv").read_text().strip().splitlines()) == 3
    refused = man["summary"]["identity_failures"]
    assert [f["lambda"] for f in refused] == [1.0, 5.623413251903491]
    assert refused[1]["failures"][0][0] == "residual_norm"


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
    # the state misses Pohozaev at about 2.4e-6 G on 2048 nodes: its record
    # says so, and `spectrum` certifies nothing (exit 2)
    "spectrum_refused_state": (
        ["spectrum", "--q", "4.75", "--lambda", "10", "--n", "2048",
         "--k-max", "2"], lambda man: [man["state"]],
        lambda: [solver.solve(scaling.normal_form(4.75, 10.0)[1], 2048)],
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
    assert run(argv + ["--out", out]) == (2 if failure_names else 0)
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


def test_spectrum_refuses_a_state_off_at_the_origin(tmp_path, capsys,
                                                   monkeypatch,
                                                   origin_blown_state):
    # u(0) = 1.1e88 is a value the r^2 dr residual ratio never sees; its
    # origin row refuses the state before any sector form is assembled, and
    # the JSON records the state with no sector
    def assembled(*args):
        raise AssertionError("a sector form was assembled")
    monkeypatch.setattr(sngs.linearized.operators, "dirichlet_form", assembled)
    monkeypatch.setattr(solver, "solve", lambda params, n: origin_blown_state)
    out = str(tmp_path / "spec")
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["spectrum", "--q", "2.5", "--lambda", "1", "--n", "1024",
                    "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "spectrum: under-resolved state ('origin_residual'" in err
    assert "Traceback" not in err
    man = manifest(out)
    assert man["verdict"] == "under-resolved" and man["sectors"] == []
    names = [f[0] for f in man["state"]["summary"]["identity_failures"]]
    assert names == ["origin_residual", "identity_residuals"]


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
    assert payload["shift"] == payload["tolerances"]["gap_tol"]
    assert sorted(payload["tolerances"]) == ["gap_tol"]
    s0, s1 = payload["sectors"]
    assert sorted(s0) == ["below_split", "count_below", "factorizations",
                          "fill", "k", "witness"]
    assert sorted(s1) == ["count_below", "davis_kahan", "enclosure",
                          "factorizations", "fill", "k", "residual",
                          "zero_mode_match"]
    assert [s["count_below"] for s in payload["sectors"]] == [1, 1]
    assert [s["factorizations"] for s in payload["sectors"]] == [1, 1]
    assert s0["witness"] < -payload["shift"] and s0["below_split"] is None
    lo, rho = s1["enclosure"]
    assert -payload["shift"] < lo <= rho < payload["shift"]
    assert 0.0 <= s1["davis_kahan"] < 1e-3 and s1["residual"] >= 0.0
    # the pair form has dimension 2 (n - 3); its LDL^T holds about 8 per row
    assert all(0 < s["fill"] <= 10 * 2 * (2048 - 3) for s in payload["sectors"])
    assert len(payload["timing"]["sector_s"]) == 2
    higher = payload["higher_sectors"]
    assert sorted(higher) == ["bound", "ordering_gap", "r_act"]
    assert higher["bound"] > 0.0 and higher["ordering_gap"] > 0.0
    assert higher["bound"] == lo + 4.0 / higher["r_act"] ** 2
    assert payload["timing"]["solve_s"] > 0.0
    assert sorted(payload["timing"]) == ["sector_s", "solve_s"]
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


def _spectrum_verdict_is_the_acceptance_rule(man, n, code):
    """under-resolved, exit 2 and no sector certified, exactly when the
    recorded state is refused or its grid has 50 h^2 >= 1; else certified."""
    h = man["state"]["grid"]["r_max"] / (n - 1)
    refused = bool(man["state"]["summary"]["identity_failures"])
    assert (man["verdict"] == "under-resolved") == (refused
                                                    or 50.0 * h * h >= 1.0)
    assert code == (0 if man["verdict"] == "nondegenerate" else 2)
    if man["verdict"] == "under-resolved":
        assert man["sectors"] == [] and man["higher_sectors"] is None
        assert man["under_resolved"] == (
            "the acceptance rule refuses the state" if refused
            else "grid too coarse for a zero test: "
                 f"50 h^2 = {50.0 * h * h:.4g} >= 1")
    else:
        assert man["under_resolved"] is None


def test_spectrum_certifies_the_normal_form_state(tmp_path):
    # the payload records the state whose spectrum it reports: the mu-form
    # member, a = mu != 2, refused on 2048 nodes and certified on 4096
    mu = 10.0 ** (-2.0 * (4.75 - 3.0) / (4.75 - 2.0))   # lam^(-2(q-3)/(q-2))
    for n, verdict in ((2048, "under-resolved"), (4096, "nondegenerate")):
        out = str(tmp_path / f"spec{n}")
        code = run(["spectrum", "--q", "4.75", "--lambda", "10",
                    "--n", str(n), "--k-max", "3", "--out", out])
        man = manifest(out)
        record = man["state"]
        st = solver.solve(scaling.normal_form(4.75, 10.0)[1], n)
        assert record["params"] == vars(st.params)
        assert record["params"]["a"] == pytest.approx(mu, rel=1e-15) != 2.0
        assert record["grid"]["r_max"] == st.grid.r_max
        assert man["verdict"] == verdict
        _spectrum_verdict_is_the_acceptance_rule(man, n, code)


@pytest.mark.parametrize("q,lam,n,verdict", [
    ("2.75", "100", 33, "under-resolved"),
    ("4", "0.01", 64, "under-resolved"),
    ("4", "0.01", 128, "under-resolved"),
    ("4", "0.01", 256, "under-resolved"),
    ("4", "0.01", 1024, "nondegenerate"),
])
def test_spectrum_under_resolved_grid(tmp_path, q, lam, n, verdict):
    """Where 50 h^2 >= 1 the grid is too coarse for a zero test (once the
    zero tolerance 50 h^2 sigma_2 swallowed every sector-1 eigenvalue
    there), and on 256 nodes the state misses Pohozaev (2.7e-6 G): the
    verdict says so (exit 2) instead of asserting a kernel."""
    out = str(tmp_path / "spec")
    code = run(["spectrum", "--q", q, "--lambda", lam, "--n", str(n),
                "--k-max", "3", "--out", out])
    man = manifest(out)
    assert man["verdict"] == verdict
    _spectrum_verdict_is_the_acceptance_rule(man, n, code)


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


def test_tiny_lambda_state_is_mapped_out(tmp_path):
    # at lambda = 1e-100, q = 4 the state is s = 1e-100 times the nu-form
    # member on r_max = 2.8e51: the physical amplitude no longer reads as a
    # collapse, and `check` re-derives the state from its artifacts
    out = str(tmp_path / "tiny")
    assert run(["solve", "--q", "4", "--lambda", "1e-100", "--n", "1024",
                "--out", out]) == 0
    assert manifest(out)["grid"]["r_max"] == 28.0 / 1e-50
    assert run(["check", "--out", out]) == 0


def test_origin_spike_collapse_exits_2(tmp_path, capsys):
    """At q=5.95, lambda=100 the state spikes at node 0, whose r^2 dr weight
    is zero (solved on its physical domain it collapsed onto that node): its
    origin row refuses it, exit 2, not a division by zero."""
    out = str(tmp_path / "spike")
    assert run(["solve", "--q", "5.95", "--lambda", "100", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "under-resolved state ('origin_residual'" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["spectrum", "--q", "2.5", "--lambda", "0.01", "--n", "16", "--k-max", "3"],
    ["solve", "--q", "2.5", "--lambda", "0.01", "--n", "16"],
    ["solve", "--q", "4.75", "--lambda", "3", "--n", "33"],
    ["spectrum", "--q", "2.5", "--lambda", "1e-100", "--n", "17"],
])
def test_diverging_warm_start_is_typed(tmp_path, capsys, command):
    """On 16 nodes, on 17 at lambda = 1e-100 and on 33 at q=4.75 the grid
    is too coarse for the origin steps to close row 0: the warm start and
    Newton solve the active nodes alone, never reading u(0), so the run
    ends in a state refused first for `origin_residual`, exit 2, with no
    numpy warning on the way, recorded with its node count by `spectrum`
    as well as `solve`."""
    out = str(tmp_path / "x")
    assert run(command + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "under-resolved state ('origin_residual'" in err
    assert "Warning" not in err and "Traceback" not in err
    man = manifest(out)
    # spectrum records its member's state beside the flags, solve its own
    record, lam = ((man["state"], man["lambda"]) if "state" in man
                   else (man, man["params"]["lam"]))
    assert "error" not in record["summary"]
    failures = [f[0] for f in record["summary"]["identity_failures"]]
    assert failures[0] == "origin_residual"
    assert lam == float(command[command.index("--lambda") + 1])
    assert record["grid"]["n"] == int(command[command.index("--n") + 1])
