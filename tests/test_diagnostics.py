import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sngs
from sngs.diagnostics import identities, monotonicity_check
from oracles import hartree_potential
from sngs.operators import radial_laplacian
from sngs.solver import ModelParams
from conftest import smooth_bumps
from test_hartree import indicator_field


def field_identities(grid, values, lam=1.0, a=1.0, nu=1.0, q=4.0):
    """The identities of an arbitrary field and its Hartree potential."""
    return identities(grid, values, hartree_potential(grid, values).v,
                      ModelParams(lam=lam, a=a, nu=nu, q=q),
                      radial_laplacian(grid))


def test_norms_indicator():
    g = sngs.make_grid(5.0, 4096)
    u = indicator_field(g)
    rep = field_identities(g, u)
    assert rep.l2_sq == pytest.approx(4 * np.pi / 3.0, rel=1e-5)


def test_norms_zero():
    g = sngs.make_grid(5.0, 128)
    rep = field_identities(g, np.zeros(g.n))
    assert rep.grad_sq == rep.l2_sq == rep.lq == rep.D == 0.0
    assert rep.M == 0.0


def test_norms_gaussian():
    g = sngs.make_grid(24.0, 2048)
    rep = field_identities(g, np.exp(-g.nodes**2 / 2.0))
    assert rep.l2_sq == pytest.approx(np.pi**1.5, rel=1e-6)
    assert rep.sup_u == 1.0
    assert rep.M == rep.sup_u + rep.sup_v


def test_identities_on_converged_states(solved_cache):
    for (lam, a, nu, q) in [(1.0, 0.0, 1.0, 4.0), (1.0, 1.0, 1.0, 4.0),
                            (1.0, 1.0, 1.0, 2.5)]:
        st_ = solved_cache(lam, a, nu, q)
        d = identities(st_.grid, st_.u, st_.v, st_.params,
                       radial_laplacian(st_.grid))
        assert abs(d.nehari) <= 1e-8 * d.grad_sq
        assert abs(d.pohozaev) <= 1e-6 * d.grad_sq


@pytest.mark.parametrize("lam,q,converged", [
    (1.0, 4.0, True), (1.0, 2.5, True), (1.0, 4.0, False), (0.1, 2.5, False)],
    ids=["converged_q4", "converged_q2.5", "hand_built_lam1",
         "hand_built_lam0.1"])
def test_level_identity_is_a_third_of_pohozaev(solved_cache, lam, q,
                                               converged):
    # at a = nu = 1, J - G/3 - D/6 = pohozaev/3 term by term, on any field:
    # the ground-level identity bounds nothing Pohozaev does not
    if converged:
        d = solved_cache(lam, 1.0, 1.0, q).diagnostics
    else:
        g = sngs.make_grid(sngs.solver.R_MAX / np.sqrt(lam), 1024)
        vals = smooth_bumps(g, np.random.default_rng(7), amp=2.0)
        d = field_identities(g, vals, lam=lam, q=q)
    level = d.J - d.grad_sq / 3.0 - d.D / 6.0
    assert abs(level - d.pohozaev / 3.0) <= 1e-12 * d.grad_sq


def test_identities_raw_for_non_solution():
    g = sngs.make_grid(20.0, 1024)
    d = field_identities(g, 2.0 * np.exp(-g.nodes**2))
    assert abs(d.nehari) > 1e-3 * d.grad_sq
    assert abs(d.pohozaev) > 1e-3 * d.grad_sq


def test_kwong_ratios(solved_cache):
    # 1e-4 at the n=4096 production grid is covered by the acceptance suite;
    # the ratio error is pure h^4, ~12x larger on this coarser grid
    for q in (2.5, 4.0, 5.0):
        d = solved_cache(1.0, 0.0, 1.0, q).diagnostics
        expect = 3.0 * (q - 2.0) / (6.0 - q)
        assert d.grad_sq / d.l2_sq == pytest.approx(expect, rel=5e-4)


def test_choquard_ratio(solved_cache):
    d = solved_cache(1.0, 1.0, 0.0, 4.0).diagnostics
    assert d.grad_sq / d.l2_sq == pytest.approx(1.0 / 3.0, rel=1e-4)


def test_identity_residuals_shrink_under_refinement(solved_cache):
    vals = []
    for n in (768, 1536):
        d = solved_cache(1.0, 1.0, 1.0, 4.0, n=n).diagnostics
        vals.append(abs(d.pohozaev) / d.grad_sq)
    assert vals[1] <= vals[0] / 3.0  # at least second order


def test_monotonicity_check_examples():
    assert monotonicity_check([(0.1, 1.0), (1.0, 2.0)])["pass"]
    assert monotonicity_check([(0.5, 7.0)])["pass"]
    bad = monotonicity_check([(0.1, 2.0), (1.0, 1.0)])
    assert not bad["pass"]
    assert bad["violations"] == [(0, 1)]


@given(seed=st.integers(0, 99_999))
@settings(max_examples=20, deadline=None)
def test_action_finite_and_D_nonnegative(seed):
    rng = np.random.default_rng(seed)
    g = sngs.make_grid(12.0, 160)
    d = field_identities(g, smooth_bumps(g, rng))
    assert np.isfinite(d.J)
    assert d.D >= 0.0
    assert d.grad_sq >= 0.0
    assert d.M == d.sup_u + d.sup_v
