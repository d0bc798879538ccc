"""Acceptance suite: one test per criterion, at the stated tolerances,
printing one PASS/FAIL line per criterion (run with -s to see them live).

Everything runs at n = 4096; domains follow the solver's decay-resolving
heuristic except where a criterion needs exact node placement (the indicator
oracle).
"""

from contextlib import contextmanager

import numpy as np
import pytest

import sngs
from sngs.linearized import (GAP_TOL, nondegeneracy_report, sector_form,
                             sector_spectrum)
from sngs.solver import _residual_values, _wnorm
from conftest import smooth_bumps
from oracles import apply_jacobian, hartree_energy, hartree_potential
from test_hartree import indicator_field, indicator_v_exact, kform_oracle
from test_linearized import assert_nonnegative_pair_forms, odd_field

N = 4096


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:>2} {desc}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:>2} {desc}: PASS")


@pytest.fixture(scope="module")
def acc(solved_cache):
    """Acceptance-grid states: (lam, a, nu, q) at n = 4096, auto r_max."""
    def get(lam, a=1.0, nu=1.0, q=4.0, rmax=None):
        return solved_cache(lam, a, nu, q, n=N, rmax=rmax)
    return get


def test_criterion_1_hartree_indicator_oracle():
    with criterion(1, "Hartree indicator oracle"):
        errs = []
        for n in (N, 2 * N - 1):          # both place nodes at r = 1 and 2
            g = sngs.make_grid(5.0, n)
            u = indicator_field(g)
            v = hartree_potential(g, u).v
            errs.append(np.max(np.abs(v - indicator_v_exact(g.nodes))))
        assert errs[0] <= 5e-6
        assert errs[0] / errs[1] >= 3.5
        g = sngs.make_grid(5.0, N)
        D = hartree_energy(g, indicator_field(g))
        assert D == pytest.approx(8 * np.pi / 15.0, rel=1e-5)


def test_criterion_2_two_formula_agreement():
    with criterion(2, "two-sweep vs K(r,s) oracle"):
        rng = np.random.default_rng(2024)
        g = sngs.make_grid(40.0, N)
        for _ in range(10):
            u = smooth_bumps(g, rng)
            hp = hartree_potential(g, u)
            vk = kform_oracle(g, u)
            line = max(abs(hp.line_integral), 1e-300)
            assert np.max(np.abs(hp.v[:-1] - vk[:-1])) <= 1e-8 * line


def test_criterion_3_reference_ratios():
    with criterion(3, "Kwong/Choquard norm ratios"):
        g = sngs.make_grid(40.0, N)

        def profile(a, nu, q):
            p = sngs.ModelParams(lam=1.0, a=a, nu=nu, q=q)
            return sngs.newton_solve(g, sngs.default_guess(p, g), p).diagnostics
        for q in (2.5, 4.0, 5.0):
            d = profile(0.0, 1.0, q)
            expect = 3.0 * (q - 2.0) / (6.0 - q)
            assert d.grad_sq / d.l2_sq == pytest.approx(expect, rel=1e-4)
        d = profile(1.0, 0.0, 4.0)
        assert d.grad_sq / d.l2_sq == pytest.approx(1.0 / 3.0, rel=1e-4)


def test_criterion_4_identities(acc):
    with criterion(4, "Pohozaev/Nehari identities"):
        for lam in (0.1, 1.0, 10.0):
            for q in (2.5, 4.0):
                d = acc(lam, q=q).diagnostics
                assert abs(d.nehari) <= 1e-6 * d.grad_sq
                assert abs(d.pohozaev) <= 1e-6 * d.grad_sq


def sweep_states(q, lams):
    return [sngs.solve(sngs.ModelParams(lam=lam, a=1.0, nu=1.0, q=q), N)
            for lam in lams]


def test_criterion_5_action_monotonicity():
    with criterion(5, "c_lambda non-decreasing over [1e-3, 1e3]"):
        lams = list(np.geomspace(1e-3, 1e3, 13))
        for q in (2.5, 4.0):
            states = sweep_states(q, lams)
            levels = [(s.params.lam, s.diagnostics.J) for s in states]
            verdict = sngs.monotonicity_check(levels)
            assert verdict["pass"], verdict["violations"]


def test_criterion_6_jacobian_fd_check(acc):
    with criterion(6, "matrix-free Jacobian vs finite differences"):
        rng = np.random.default_rng(606)
        eps = 1e-5
        for st in (acc(1.0, q=4.0), acc(0.1, q=2.5), acc(10.0, q=4.0)):
            A = sngs.operators.radial_laplacian(st.grid)
            for _ in range(10):
                d = smooth_bumps(st.grid, rng, amp=st.diagnostics.sup_u,
                                 max_center=st.grid.r_max / 4.0)
                jd = apply_jacobian(st.grid, st.u, d, st.params)
                up, _ = _residual_values(st.u + eps * d, st.params,
                                         st.grid, A)
                dn, _ = _residual_values(st.u - eps * d, st.params,
                                         st.grid, A)
                fd = (up - dn) / (2 * eps)
                assert _wnorm(st.grid, jd - fd) <= 1e-6 * _wnorm(st.grid, jd)


REGIMES = [(2.5, "zero", (0.1, 0.01, 0.001)),
           (4.0, "zero", (0.1, 0.01, 0.001)),
           (4.0, "infinity", (10.0, 100.0, 1000.0)),
           (2.5, "infinity", (10.0, 100.0, 1000.0))]


@pytest.fixture(scope="module")
def regime_states(acc):
    """The normal-form members of each regime's lambdas, as `limits` solves
    them."""
    out = {}
    for q, side, lams in REGIMES:
        form, _ = sngs.limit_regime(q, side)
        members = [sngs.normal_form(q, lam, form)[1] for lam in lams]
        out[(q, side)] = [acc(1.0, a=p.a, nu=p.nu, q=q) for p in members]
    return out


def test_criterion_7_scaling_limits(regime_states):
    with criterion(7, "scaling limits approach W/U"):
        ref_grid = sngs.make_grid(sngs.auto_rmax(1.0), N)
        for q, side, lams in REGIMES:
            ref = sngs.solve(sngs.limit_member(q, side), N)
            assert ref.grid == ref_grid
            sups, h1s = [], []
            for st in regime_states[(q, side)]:
                assert st.grid == ref_grid
                sup, h1 = sngs.limit_distance(st.grid, st.u, ref)
                sups.append(sup)
                h1s.append(h1)
            assert all(b < a for a, b in zip(sups, sups[1:])), (q, side, sups)
            assert all(b < a for a, b in zip(h1s, h1s[1:])), (q, side, h1s)
            assert sups[-1] <= 0.05 * ref.diagnostics.sup_u, (q, side, sups[-1])


def test_criterion_8_mass_ratio_windows(regime_states):
    with criterion(8, "mass ratios inside [1e-3, 1e3]"):
        for q, side, lams in REGIMES:
            rows, ok = sngs.mass_ratio_report(regime_states[(q, side)], lams,
                                              side)
            assert ok, (q, side, rows)


def test_criterion_9_uniqueness_scans():
    with criterion(9, "multi-start uniqueness"):
        for lam in (1e-2, 1e2):
            for q in (2.5, 4.0):
                params = sngs.ModelParams(lam=lam, a=1.0, nu=1.0, q=q)
                res = sngs.uniqueness_scan(params, 20, rng_seed=20240, n=N)
                assert res.converged >= 1, (lam, q)
                assert len(res.distinct_states) == 1, (lam, q, res)


@pytest.fixture(scope="module")
def spectrum_states(solved_cache):
    """The Choquard profile and the normal-form states `spectrum` certifies."""
    return {"choquard": solved_cache(1.0, 1.0, 0.0, 4.0, n=N),
            "lam1e-2_q4": sngs.solve(sngs.normal_member(4.0, 1e-2), N),
            "lam1e2_q2.5": sngs.solve(sngs.normal_member(2.5, 1e2), N)}


def test_criterion_10_nondegeneracy(spectrum_states, solved_cache):
    with criterion(10, "sector nondegeneracy certificates"):
        for name, st in spectrum_states.items():
            rep = nondegeneracy_report(st, 3)
            assert rep.verdict == "nondegenerate", (name, rep)
            k1 = rep.sectors[1]
            assert k1.kernel_dimension == 1
            assert min(abs(s) for s in k1.eigenvalues) <= rep.zero_tol
            assert k1.zero_mode_match >= 0.999
            assert min(abs(s) for s in rep.sectors[0].eigenvalues) >= GAP_TOL
            for k in (2, 3):
                assert min(rep.sectors[k].eigenvalues) > 0.0

        # k=0 gap stable within 5% under n -> 2n (Choquard certificate)
        gaps = []
        for n in (N, 2 * N):
            choq = solved_cache(1.0, 1.0, 0.0, 4.0, n=n)
            rep0 = sector_spectrum(sector_form(choq, 0), 6)
            gaps.append(min(abs(s) for s in rep0.eigenvalues))
        assert abs(gaps[1] - gaps[0]) <= 0.05 * gaps[0], gaps

        # Corollary-3.8 nonnegativity on 100 random odd test fields, each
        # with the potential that minimizes the pair form
        rng = np.random.default_rng(38)
        st = spectrum_states["choquard"]
        assert_nonnegative_pair_forms(
            sector_form(st, 1), [odd_field(st.grid, rng) for _ in range(100)],
            rng)
