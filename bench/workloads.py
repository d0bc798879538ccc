"""Workload definitions: the CLI job list of one pass, and what each job must show.

A workload is a list of `Job`s run one after another, each in a fresh
interpreter (a closed loop with one client).  The workload seed chooses the
drawn (q, lambda) points; everything else is fixed.  Drawn points come from a
lattice that spans the paper's whole domain q in (2,3) u (3,6), lambda in
[1e-2, 1e2], so that every point has a verdict and an action J recorded at the
seed commit (`reference.json`, made by `make_reference.py`).

Jobs known to fail at the seed commit carry `owner`: the ROADMAP item whose
work should make them pass.  A known failure that starts to pass is an
improvement; any other failure makes the run incorrect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("cli_batch", "limits", "certify")

# q lattice: steps of 0.25 inside each interval, plus points 0.05 from every
# end of the domain, where the known failures sit
Q_LATTICE = (2.05, 2.25, 2.5, 2.75, 2.95,
             3.05, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0, 5.25, 5.5,
             5.75, 5.95)
# lambda = 10**(k/4), k = -8..8: log-uniform over [1e-2, 1e2]
K_LATTICE = tuple(range(-8, 9))
# spectrum draws take lambda < 1, where one job costs 0.6-0.9 s for every q.
# At lambda > 1 the cost grows with q, from 0.6 s (q = 2.25) to 6 s (q = 4.5)
# and 65 s (q = 5.5, inconclusive) at the seed commit, so the draws would set
# the pass time and could overrun a run's 180 s.  That side is measured by the
# fixed case (2.5, 1e2) and SPECTRUM_PROBE.
CERTIFY_K_LATTICE = tuple(k for k in K_LATTICE if k < 0)

N_DEFAULT = 4096
N_LARGE = 16384
N_SPECTRUM_REFINED = 2 * N_DEFAULT - 1
SOLVE_DRAWS = 3
SPECTRUM_DRAWS = 3

ITEM_ROBUSTNESS = "ROADMAP item 3"

SWEEP = ("2.5", "1e-3:1e3:log:13")
SCAN = ("4", "1e2", "20")
LIMITS_REGIMES = (   # scripts/run_limits.py
    ("2.5", "zero", "1e-1,1e-2,1e-3"),
    ("4", "zero", "1e-1,1e-2,1e-3"),
    ("4", "infinity", "1e1,1e2,1e3"),
    ("2.5", "infinity", "1e1,1e2,1e3"),
)
SPECTRUM_CASES = (("4", "1e-2"), ("2.5", "1e2"))   # scripts/run_spectrum.py
SPECTRUM_PROBE = ("4.75", "10", "under-resolved concentrated state: no sector-1 "
                  "zero mode, verdict inconclusive")
LARGE_POINT = ("4", "0.1")
# (q, lambda, n, what goes wrong today)
PROBES = (
    ("2.05", "1e-2", N_DEFAULT, "tiny amplitude collapses (TrivialCollapse)"),
    ("5.95", "1", N_DEFAULT, "under-resolved state: solve exits 0, check rejects"),
    ("5.95", "1e2", N_DEFAULT, "ZeroDivisionError traceback"),
    ("4", "1", 65536, "line search stalls (NonConvergence)"),
)


def lam_of(k: int) -> float:
    return 10.0 ** (k / 4.0)


def point_key(q: float, k: int) -> str:
    return f"q{q:g}_k{k:+d}"


@dataclass
class Job:
    """One `sngs <command> <args> --out <pass dir>/<out>` invocation."""
    name: str
    command: str
    args: list
    out: str = ""                   # output prefix inside the pass directory
    ref: str | None = None          # reference.json entry the output must match
    owner: str | None = None        # set for jobs known to fail at the seed
    why_fails: str | None = None
    check: str | None = None        # name of the check job verifying a solve

    def __post_init__(self):
        self.out = self.out or self.name


def _solve_pair(name, q, lam, n, ref=None, owner=None, why=None):
    solve = Job(name, "solve", ["--q", q, "--lambda", lam, "--n", str(n)],
                ref=ref, owner=owner, why_fails=why, check=name + ".check")
    check = Job(name + ".check", "check", [], out=name, owner=owner,
                why_fails=why)
    return [solve, check]


def draw_points(seed: int, stream: str, count: int, ks=K_LATTICE):
    """`count` (q, k) lattice points, uniform over the lattice."""
    rng = random.Random(f"{stream}-{seed}")
    return [(rng.choice(Q_LATTICE), rng.choice(ks)) for _ in range(count)]


def build(workload: str, seed: int, reference: dict) -> list:
    """The job list of one pass of `workload` for `seed`."""
    jobs: list = []
    if workload == "cli_batch":
        solves = reference["solve"]
        for i, (q, k) in enumerate(draw_points(seed, "cli_batch", SOLVE_DRAWS)):
            key = point_key(q, k)
            entry = solves[key]
            if entry["pass"]:
                pair = _solve_pair(f"draw{i}.{key}", repr(q), repr(lam_of(k)),
                                   N_DEFAULT, ref=f"solve/{key}")
            else:
                pair = _solve_pair(f"draw{i}.{key}", repr(q), repr(lam_of(k)),
                                   N_DEFAULT, owner=ITEM_ROBUSTNESS,
                                   why=entry["failure"])
            jobs += pair
        q, lam = LARGE_POINT
        jobs += _solve_pair(f"large.q{q}_lam{lam}", q, lam, N_LARGE,
                            ref=f"solve_large/{N_LARGE}")
        q, lams = SWEEP
        jobs.append(Job("sweep", "sweep", ["--q", q, "--lambdas", lams],
                        ref="sweep"))
        q, lam, starts = SCAN
        jobs.append(Job("scan", "scan", ["--q", q, "--lambda", lam, "--starts",
                                         starts, "--seed", str(seed)]))
        for q, lam, n, why in PROBES:
            jobs += _solve_pair(f"probe.q{q}_lam{lam}_n{n}", q, lam, n,
                                owner=ITEM_ROBUSTNESS, why=why)
    elif workload == "limits":
        for q, side, lams in LIMITS_REGIMES:
            jobs.append(Job(f"limits.q{q}_{side}", "limits",
                            ["--q", q, "--side", side, "--lambdas", lams]))
    elif workload == "certify":
        for q, lam in SPECTRUM_CASES:
            jobs.append(_spectrum(f"case.q{q}_lam{lam}", q, lam, N_DEFAULT))
        draws = draw_points(seed, "certify", SPECTRUM_DRAWS, CERTIFY_K_LATTICE)
        for i, (q, k) in enumerate(draws):
            jobs.append(_spectrum(f"draw{i}.{point_key(q, k)}", repr(q),
                                  repr(lam_of(k)), N_DEFAULT,
                                  reference["spectrum"][point_key(q, k)]))
        q, k = draws[0]
        jobs.append(_spectrum(f"refined.{point_key(q, k)}", repr(q),
                              repr(lam_of(k)), N_SPECTRUM_REFINED,
                              reference["spectrum_refined"][point_key(q, k)]))
        q, lam, why = SPECTRUM_PROBE
        job = _spectrum(f"probe.q{q}_lam{lam}", q, lam, N_DEFAULT)
        job.owner, job.why_fails = ITEM_ROBUSTNESS, why
        jobs.append(job)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def _spectrum(name, q, lam, n, recorded=None):
    """A spectrum job; `recorded` is its point's verdict at the seed commit."""
    job = Job(name, "spectrum", ["--q", q, "--lambda", lam, "--k-max", "3",
                                 "--n", str(n)])
    if recorded is not None and not recorded["pass"]:
        job.owner, job.why_fails = ITEM_ROBUSTNESS, recorded["failure"]
    return job
