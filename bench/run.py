"""sngs benchmark: closed-loop `sngs` CLI jobs, one at a time, each in a fresh
interpreter that imports sngs from this checkout's src/.

    python3 bench/run.py --workload cli_batch --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  A pass runs the workload's job list
(bench/workloads.py) once, in a fresh output directory, then checks every
job's output (bench/verify.py).

--trace 0: as many passes as fill --seconds at the workload's nominal pass
time; prints the end-to-end metrics.  Every timed job and set-up probe is
followed by a run of the fixed yardstick task bench/calibrate.py, and every
time is scaled by CAL_REF_S / (the yardstick's mean wall time over the run):
seconds on a machine where the yardstick takes CAL_REF_S, so the shared
machine's drift in speed from run to run does not read as a change of the
program.  The unscaled times are printed and recorded beside them.
--trace 1: a self-test, one untraced pass and one traced pass (spans around
every call into the sngs layers, bench/tracer.py); prints the per-layer
metrics of the traced pass, the per-subcommand wall times and failure share of
the untraced pass, and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A run is correct when every job not known to fail passed.  Each run
also writes its metadata and every job's outcome to
.bench_runs/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import tracer
import verify
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}
JOB_TIMEOUT_S = 60
MAX_MEASURE_S = 120   # keeps a run inside its 180 s limit
# pass wall time, yardstick runs included, at the seed commit on two shared
# Xeon cores
NOMINAL_PASS_S = {"cli_batch": 30.0, "limits": 14.0, "certify": 22.0}
SETUP_PROBES = 3
# yardstick wall time the metrics are scaled to: about its median on two idle
# shared Xeon cores
CAL_REF_S = 0.6
CALIBRATE = [sys.executable, str(BENCH / "calibrate.py")]

END_TO_END = (("setup_s", "s"), ("study_s", "s"), ("compute_s", "s"),
              ("peak_rss_mb", "MB"))
SUBCOMMANDS = ("solve", "check", "sweep", "scan", "limits", "spectrum")
SELF_TEST_JOB = workloads.Job("selftest", "solve",
                              ["--q", "4", "--lambda", "0.1", "--n", "4096"])


class HarnessError(Exception):
    """The benchmark cannot measure this tree."""


def job_env():
    env = {k: v for k, v in os.environ.items() if k != "SNGS_THREADS"}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class JobRun:
    job: workloads.Job
    code: int
    wall_s: float
    rss_mb: float
    import_s: float | None
    problems: list = field(default_factory=list)
    spans: list | None = None

    @property
    def compute_s(self):
        """Wall time after `import sngs.cli` finished."""
        return self.wall_s - (self.import_s or 0.0)


def spawn(cmd, cwd, stem):
    """(exit code, wall seconds, max RSS in MB) of one child process."""
    env = job_env()
    with open(f"{stem}.out", "w") as out, open(f"{stem}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_job(job, passdir, trace=False) -> JobRun:
    stem = passdir / job.name
    sidecar = pathlib.Path(f"{stem}.sidecar.json")
    spans = pathlib.Path(f"{stem}.spans.json")
    cmd = [sys.executable, str(BENCH / "job.py"), str(sidecar)]
    if trace:
        cmd += ["--trace", str(spans)]
    cmd += ["--", job.command, *job.args, "--out", str(passdir / job.out)]
    code, wall, rss = spawn(cmd, passdir, stem)
    import_s = None
    if sidecar.exists():
        info = json.loads(sidecar.read_text())
        check_import_path(info)
        import_s = info["import_s"]
    run = JobRun(job, code, wall, rss, import_s)
    if trace and spans.exists():
        run.spans = json.loads(spans.read_text())
    return run


def check_import_path(info):
    if not pathlib.Path(info["sngs_file"]).is_relative_to(SRC):
        raise HarnessError(f"sngs imported from {info['sngs_file']}, not {SRC}")


def judge_pass(runs, passdir, reference):
    by_name = {r.job.name: r for r in runs}
    for r in runs:
        stem = passdir / r.job.name
        stdout = pathlib.Path(f"{stem}.out").read_text()
        stderr = pathlib.Path(f"{stem}.err").read_text()
        expected = (verify.reference_value(reference, r.job.ref)
                    if r.job.ref else None)
        r.problems = verify.judge(r.job.command, r.code, stdout, stderr,
                                  str(passdir / r.job.out), expected)
    for r in runs:
        if r.job.check and by_name[r.job.check].problems:
            r.problems.append("check rejected the artifacts")


class Yardstick:
    """Runs bench/calibrate.py after each timed process of a run.

    One scale factor for the whole run, from the mean of all its yardstick
    times, filters the drift from run to run; a factor per job would add the
    noise of its one or two yardstick times to every job.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.walls = []
        self._run()   # warms the yardstick's own imports; not kept

    def _run(self) -> float:
        code, wall, _ = spawn(CALIBRATE, self.workdir, self.workdir / "calibrate")
        if code != 0:
            err = (self.workdir / "calibrate.err").read_text()
            raise HarnessError(f"the yardstick task failed:\n{err}")
        return wall

    def sample(self):
        self.walls.append(self._run())

    @property
    def speed(self) -> float:
        """CAL_REF_S over the mean yardstick wall time of the run so far."""
        return CAL_REF_S / statistics.fmean(self.walls)


@dataclass
class Pass:
    runs: list

    @property
    def study_s(self):
        return sum(r.wall_s for r in self.runs)

    @property
    def peak_rss_mb(self):
        return max(r.rss_mb for r in self.runs)

    def command_s(self, command):
        return sum(r.wall_s for r in self.runs if r.job.command == command)

    @property
    def failed(self):
        return [r for r in self.runs if r.problems]


def run_pass(jobs, reference, trace=False, yardstick=None) -> Pass:
    """One pass over `jobs`; with a `yardstick`, it samples after each job."""
    passdir = pathlib.Path(tempfile.mkdtemp(prefix="pass-", dir=RUNS))
    try:
        runs = []
        for job in jobs:
            run = run_job(job, passdir, trace)
            if yardstick:
                yardstick.sample()
            runs.append(run)
        judge_pass(runs, passdir, reference)
    finally:
        shutil.rmtree(passdir)
    return Pass(runs)


def setup_probe(workdir, i):
    """Import time of sngs.cli in one fresh interpreter, plus its versions."""
    sidecar = workdir / f"probe{i}.json"
    code, _, _ = spawn([sys.executable, str(BENCH / "job.py"), str(sidecar)],
                       workdir, workdir / f"probe{i}")
    if code != 0 or not sidecar.exists():
        err = pathlib.Path(f"{workdir / f'probe{i}'}.err").read_text()
        raise HarnessError(f"importing sngs.cli failed:\n{err}")
    info = json.loads(sidecar.read_text())
    check_import_path(info)
    return info


def self_test(reference) -> list:
    """A traced solve records Coulomb sweeps and writes the same CSV bytes as
    an untraced one."""
    problems = []
    csv = {}
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=RUNS) as tmp:
        for trace in (False, True):
            passdir = pathlib.Path(tmp) / ("traced" if trace else "plain")
            passdir.mkdir()
            run = run_job(SELF_TEST_JOB, passdir, trace)
            judge_pass([run], passdir, reference)
            problems += [f"{passdir.name} solve: {p}" for p in run.problems]
            path = passdir / (SELF_TEST_JOB.out + ".csv")
            csv[trace] = path.read_bytes() if path.exists() else None
        if csv[False] is None or csv[True] != csv[False]:
            problems.append("traced CSV differs from the untraced CSV")
        calls = tracer.aggregate([run.spans or []])["hartree.coulomb_apply.calls"]
        if calls <= 0:
            problems.append("traced solve recorded no hartree.coulomb_apply calls")
    return problems


def metadata(workload, seed, seconds, trace, probe):
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        importlib.metadata.distribution("sngs")
        installed = True
    except importlib.metadata.PackageNotFoundError:
        installed = False
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_revision": git_revision(), "src_sha256": digest.hexdigest(),
        "src_lines": lines, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": probe["python"], "numpy": probe["numpy"],
        "scipy": probe["scipy"], "thread_caps": THREAD_CAPS,
        "SNGS_THREADS": "unset", "sngs_installed": installed,
        "sngs_file": probe["sngs_file"],
    }


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def measure(workload, jobs, reference, seconds, yardstick):
    """As many passes as fill `seconds` at the workload's nominal pass time.

    The count depends on `seconds` alone: a faster or busier machine must not
    change how many passes each job's best time is taken over.
    """
    count = max(1, min(int(seconds / NOMINAL_PASS_S[workload] + 0.5),
                       int(MAX_MEASURE_S / NOMINAL_PASS_S[workload])))
    return [run_pass(jobs, reference, yardstick=yardstick) for _ in range(count)]


def per_job_median(passes, cost):
    """Sum over the job list of each job's median `cost` over the passes."""
    return sum(statistics.median(cost(p.runs[i]) for p in passes)
               for i in range(len(passes[0].runs)))


def end_to_end(passes, probe_imports, speed):
    """The end-to-end metrics, times scaled by the run's yardstick `speed`."""
    imports = probe_imports + [r.import_s for p in passes for r in p.runs
                               if r.import_s is not None]
    values = {
        "setup_s": statistics.median(imports) * speed,
        "study_s": per_job_median(passes, lambda r: r.wall_s) * speed,
        "compute_s": per_job_median(passes, lambda r: r.compute_s) * speed,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(untraced, traced):
    values = tracer.aggregate([r.spans or [] for r in traced.runs])
    units = dict(tracer.METRICS)
    for command in SUBCOMMANDS:
        values[f"{command}_s"] = untraced.command_s(command)
        units[f"{command}_s"] = "s"
    values["fail_frac"] = len(untraced.failed) / len(untraced.runs)
    units["fail_frac"] = "ratio"
    values["trace.overhead_frac"] = traced.study_s / untraced.study_s - 1.0
    units["trace.overhead_frac"] = "ratio"
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def job_record(r):
    rec = {"name": r.job.name, "command": r.job.command,
           "args": r.job.args, "exit": r.code, "wall_s": r.wall_s,
           "import_s": r.import_s, "rss_mb": r.rss_mb, "problems": r.problems}
    if r.job.owner:
        rec.update(known_failure=r.job.why_fails, owner=r.job.owner)
    return rec


def report(workload, metrics, passes, yardstick):
    """One row for the workload: its end-to-end metrics with units (untraced
    runs, scaled by the `yardstick`) and unscaled subcommand wall times; a
    traced run (no yardstick) lists every layer metric."""
    trace = yardstick is None
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.problems]
    untraced = passes[:1] if trace else passes
    row = [workload]
    if not trace:
        row += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        row.append(f"unscaled study_s "
                   f"{per_job_median(passes, lambda r: r.wall_s):.6g} s, "
                   f"yardstick speed {yardstick.speed:.4g}")
    row += [f"{c}_s {statistics.median(p.command_s(c) for p in untraced):.4g} s"
            for c in SUBCOMMANDS if untraced[0].command_s(c)]
    known = sum(1 for r in failed if r.job.owner)
    row.append(f"jobs {len(runs)} failed {len(failed)} (known {known}, "
               f"fail_frac {len(failed) / len(runs):.4g}) passes {len(passes)}")
    print(" | ".join(row))
    if trace:
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for r in {r.job.name: r for r in failed}.values():
        tag = f"known, {r.job.owner}" if r.job.owner else "UNEXPECTED"
        print(f"  failed [{tag}] {r.job.name}: {'; '.join(r.problems)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sngs" / "__init__.py").is_file():
        raise HarnessError(f"no sngs package under {SRC}")
    reference = json.loads((BENCH / "reference.json").read_text())
    jobs = workloads.build(args.workload, args.seed, reference)
    RUNS.mkdir(exist_ok=True)

    problems = []
    with tempfile.TemporaryDirectory(prefix="run-", dir=RUNS) as tmp:
        tmp = pathlib.Path(tmp)
        probe = setup_probe(tmp, 0)   # compiles bytecode; not timed
        meta = metadata(args.workload, args.seed, args.seconds, args.trace, probe)
        yardstick = None
        if args.trace:
            problems = self_test(reference)
            passes = [run_pass(jobs, reference),
                      run_pass(jobs, reference, trace=True)]
            metrics = per_layer(*passes)
        else:
            yardstick = Yardstick(tmp)
            probe_imports = []
            for i in range(1, SETUP_PROBES + 1):
                probe_imports.append(setup_probe(tmp, i)["import_s"])
                yardstick.sample()
            passes = measure(args.workload, jobs, reference, args.seconds,
                             yardstick)
            metrics = end_to_end(passes, probe_imports, yardstick.speed)

    runs = [r for p in passes for r in p.runs]
    problems += [f"{r.job.name}: {'; '.join(r.problems)}"
                 for r in runs if r.problems and not r.job.owner]
    result = {"correct": not problems, "attempted": len(runs),
              "failed": sum(1 for r in runs if r.problems), "metrics": metrics}
    record = {"metadata": meta, "result": result, "problems": problems,
              "yardstick_s": yardstick and yardstick.walls,
              "passes": [{"study_s": p.study_s,
                          "jobs": [job_record(r) for r in p.runs]}
                         for p in passes]}
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    report(args.workload, metrics, passes, yardstick)
    for p in problems:
        print(f"  INCORRECT: {p}")
    print(f"  metadata: {json.dumps(meta)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(3)
