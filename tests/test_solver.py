from dataclasses import replace

import numpy as np
import pytest

import sngs
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from sngs.errors import InvalidExponent, NonConvergence, TrivialCollapse
from sngs.solver import (WARM_TOL, _newton_step, _residual_values,
                         _shifted_solve, _step_bands, _warm_start, _wnorm)
from conftest import smooth_bumps
from oracles import apply_jacobian, hartree_potential


def kwong_ratio(q):
    return 3.0 * (q - 2.0) / (6.0 - q)


def test_invalid_exponents():
    for q in (3.0, 2.0, 6.0, 1.5, 7.0):
        with pytest.raises(InvalidExponent):
            sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=q)


def test_residual_zero_field():
    g = sngs.make_grid(20.0, 256)
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    F, _ = _residual_values(np.zeros(g.n), p, g,
                            sngs.operators.radial_laplacian(g))
    assert np.all(F == 0.0)


def test_converged_state_residual(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0)
    assert st.residual_norm <= 1e-10
    F, _ = _residual_values(st.u, st.params, st.grid,
                            sngs.operators.radial_laplacian(st.grid))
    assert _wnorm(st.grid, F) <= 1e-10 * _wnorm(st.grid, st.u)


@pytest.mark.parametrize("lam", [0.01, 0.1, 10.0])
def test_residual_norm_is_lambda_relative(solved_cache, lam):
    # |F| / (lam |u|) is the normal-form relative residual at every lambda
    st = solved_cache(lam, 1.0, 1.0, 4.0)
    F, _ = _residual_values(st.u, st.params, st.grid,
                            sngs.operators.radial_laplacian(st.grid))
    by_hand = _wnorm(st.grid, F) / (lam * _wnorm(st.grid, st.u))
    assert st.residual_norm == by_hand
    assert st.residual_norm <= sngs.solver.TOL


def test_kwong_state_fails_choquard_equation(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0)
    choq = sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0)
    F, _ = _residual_values(st.u, choq, st.grid,
                            sngs.operators.radial_laplacian(st.grid))
    rel = _wnorm(st.grid, F) / _wnorm(st.grid, st.u)
    assert rel > 1e-3


def test_jacobian_zero_direction(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    zero = np.zeros(st.grid.n)
    out = apply_jacobian(st.grid, st.u, zero, st.params)
    assert np.all(out == 0.0)


def test_jacobian_matches_finite_differences(solved_cache):
    rng = np.random.default_rng(11)
    st = solved_cache(1.0, 1.0, 1.0, 2.5)
    eps = 1e-5
    A = sngs.operators.radial_laplacian(st.grid)
    for _ in range(5):
        d = smooth_bumps(st.grid, rng, amp=st.diagnostics.sup_u)
        jd = apply_jacobian(st.grid, st.u, d, st.params)
        up, _ = _residual_values(st.u + eps * d, st.params, st.grid, A)
        dn, _ = _residual_values(st.u - eps * d, st.params, st.grid, A)
        fd = (up - dn) / (2 * eps)
        err = _wnorm(st.grid, jd - fd) / _wnorm(st.grid, jd)
        assert err <= 1e-6


@pytest.mark.parametrize("a,nu,q", [(1.0, 0.0, 4.0),    # Choquard
                                    (1.0, 1.0, 2.5),    # mixed
                                    (0.0, 1.0, 4.0)])   # Kwong
def test_banded_step_solves_jacobian(solved_cache, a, nu, q):
    """The banded Newton step is exact against the matrix-free Jacobian at
    perturbed (non-converged) states."""
    rng = np.random.default_rng(17)
    st = solved_cache(1.0, a, nu, q)
    g = st.grid
    A = sngs.operators.radial_laplacian(g)
    for _ in range(3):
        u = st.u + 0.1 * smooth_bumps(g, rng, amp=st.diagnostics.sup_u)
        F, v = _residual_values(u, st.params, g, A)
        d = _newton_step(u, v, F, st.params, g, _step_bands(g, A))
        jd = apply_jacobian(g, u, d, st.params)
        assert np.linalg.norm(jd + F) <= 1e-9 * np.linalg.norm(F)


def test_newton_step_reuses_its_workspace(solved_cache):
    """Steps that share one workspace equal, bit for bit, the step of a fresh
    band matrix."""
    rng = np.random.default_rng(19)
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    g = st.grid
    A = sngs.operators.radial_laplacian(g)
    shared = _step_bands(g, A)
    for _ in range(2):
        u = st.u + 0.1 * smooth_bumps(g, rng, amp=st.diagnostics.sup_u)
        F, v = _residual_values(u, st.params, g, A)
        d = _newton_step(u, v, F, st.params, g, shared)
        fresh = _newton_step(u, v, F, st.params, g, _step_bands(g, A))
        assert np.array_equal(d, fresh)


@pytest.mark.parametrize("where", ["u", "F"])
def test_newton_step_rejects_nan(solved_cache, where):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    g = st.grid
    A = sngs.operators.radial_laplacian(g)
    u = st.u.copy()
    F, v = _residual_values(u, st.params, g, A)
    (u if where == "u" else F)[g.n // 3] = np.nan
    with pytest.raises(NonConvergence):
        _newton_step(u, v, F, st.params, g, _step_bands(g, A))


@pytest.mark.parametrize("n", [300, 4096])
def test_shifted_solve_matches_sparse_lu(n):
    """The banded Cholesky solve of the warm start is the system
    (A + lam diag(1, ..., 1, 0, 0)) w = N for N vanishing on the pad."""
    lam = 0.37
    g = sngs.make_grid(sngs.auto_rmax(lam), n)
    A = sngs.operators.radial_laplacian(g)
    mask = np.ones(n)
    mask[-2:] = 0.0
    oracle = splu((A + lam * diags(mask)).tocsc())
    rng = np.random.default_rng(n)
    N = smooth_bumps(g, rng, max_center=g.r_max / 6.0)
    N[0] = 1.3   # the origin row enters through row 0 of A alone
    w = _shifted_solve(g, A, lam)(N)
    ref = oracle.solve(N)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_warm_start_stops_on_settled_ratio():
    # a warm-started u already meets WARM_TOL, so a second warm start
    # returns it without a sweep
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.auto_rmax(1.0), 1536)
    A = sngs.operators.radial_laplacian(g)
    u = _warm_start(sngs.default_guess(p, g), p, g, A)
    N = hartree_potential(g, u).v * u + u**3
    W = g.weights_r2dr
    ratio = float(np.dot(W * u, A @ u + u)) / float(np.dot(W * u, N))
    assert abs(ratio - 1.0) <= WARM_TOL
    again = _warm_start(u, p, g, A)
    assert np.array_equal(again, u)


@pytest.mark.parametrize("spoil,names", [
    (lambda st, rep: replace(st, residual_norm=1e-7), ["residual_norm"]),
    (lambda st, rep: replace(st, diagnostics=replace(
        rep, pohozaev=1e-5 * rep.grad_sq)), ["identity_residuals"]),
    (lambda st, rep: st, []),
], ids=["residual", "identity", "clean"])
def test_acceptance_failures(solved_cache, spoil, names):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    state = spoil(st, st.diagnostics)
    failures = sngs.acceptance_failures(state)
    assert [f[0] for f in failures] == names
    if names == ["residual_norm"]:
        # the floor lies below TOL at n=1536, so the bound is 10 TOL
        assert failures[0] == ("residual_norm", 1e-7, 10 * sngs.solver.TOL)
        assert state.residual_bound == 10 * sngs.solver.TOL


def test_ground_state_rejects_a_field_off_its_grid(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    with pytest.raises(ValueError, match="field length"):
        sngs.ground_state(st.grid, st.u[:-1], st.params, 0)


def test_residual_floor_scales_with_the_grid(solved_cache):
    # eps |(|A| |u|)| / (lam |u|): independent of lambda, ~4x per n -> 2n-1
    floors = [solved_cache(lam, 1.0, 1.0, 4.0).residual_floor
              for lam in (0.01, 1.0, 100.0)]
    assert max(floors) - min(floors) <= 1e-3 * min(floors)
    fine = solved_cache(1.0, 1.0, 1.0, 4.0, n=2 * 1536 - 1)
    ratio = fine.residual_floor / floors[1]
    assert 3.9 <= ratio <= 4.1


def test_nonconvergence_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(sngs.solver, "MAX_ITER", 1)
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.auto_rmax(1.0), 768)
    with pytest.raises(NonConvergence) as info:
        sngs.newton_solve(g, sngs.default_guess(p, g), p)
    state = info.value.state
    assert isinstance(state, sngs.GroundState)
    assert state.grid == g and state.params == p
    assert np.all(np.isfinite(state.u))
    assert np.max(np.abs(state.u)) > 0.0
    assert state.iterations == 1
    assert state.residual_norm > state.residual_bound


@pytest.mark.filterwarnings("error")
def test_line_search_rejects_non_finite_trials(monkeypatch):
    # a step so long that every trial residual overflows: each trial fails
    # the descent test quietly and the stall is typed
    from sngs import solver
    step = solver._newton_step
    monkeypatch.setattr(solver, "_newton_step",
                        lambda *args: 1e100 * step(*args))
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.auto_rmax(1.0), 256)
    with pytest.raises(NonConvergence, match="line search stalled"):
        sngs.newton_solve(g, sngs.default_guess(p, g), p)


def test_jacobian_symmetry(solved_cache):
    rng = np.random.default_rng(13)
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    W = st.grid.weights_r2dr
    for _ in range(5):
        d1 = smooth_bumps(st.grid, rng)
        d2 = smooth_bumps(st.grid, rng)
        j1 = apply_jacobian(st.grid, st.u, d1, st.params)
        j2 = apply_jacobian(st.grid, st.u, d2, st.params)
        left = float(np.dot(W, j1 * d2))
        right = float(np.dot(W, d1 * j2))
        assert abs(left - right) <= 1e-10 * max(abs(left), abs(right))


def test_newton_kwong_ratio_from_spec_guess():
    g = sngs.make_grid(28.0, 1536)
    p = sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=4.0)
    guess = 1.0 / np.cosh(g.nodes / 2.0) ** 2
    st = sngs.newton_solve(g, guess, p)
    d = st.diagnostics
    assert d.grad_sq / d.l2_sq == pytest.approx(3.0, rel=1e-4)


def test_newton_trivial_guess_collapses():
    g = sngs.make_grid(20.0, 256)
    p = sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=4.0)
    with pytest.raises(TrivialCollapse):
        sngs.newton_solve(g, np.zeros(g.n), p)


def test_newton_choquard_ratio():
    g = sngs.make_grid(28.0, 1536)
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0)
    guess = np.exp(-g.nodes**2 / 4.0)
    st = sngs.newton_solve(g, guess, p)
    d = st.diagnostics
    assert d.grad_sq / d.l2_sq == pytest.approx(1.0 / 3.0, rel=1e-4)


def test_state_positive_and_monotone(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    bulk = st.u[:-2]
    assert np.all(bulk >= 0.0)
    assert np.all(bulk[:200] > 0.0)
    drops = np.diff(st.u)
    assert np.all(drops <= 1e-12 * st.diagnostics.sup_u)


def test_grid_refinement_second_order_or_better(solved_cache):
    p = (1.0, 1.0, 1.0, 4.0)
    l2 = []
    for n in (768, 1536):
        st = solved_cache(*p, n=n)
        l2.append(st.diagnostics.l2_sq)
    # fourth-order interior scheme: well below the C h^2 budget
    h = 28.0 / 767
    assert abs(l2[0] - l2[1]) <= 1.0 * h**2 * l2[1]


def solve_along(lams, a, nu, q, n):
    """The states at each of `lams`, each solved directly (`sngs.solve`)."""
    return [sngs.solve(sngs.ModelParams(lam=lam, a=a, nu=nu, q=q), n)
            for lam in lams]


def test_continuation_lambda_path_monotone_action():
    # the family followed in lambda by direct solves: c_lambda non-decreasing
    states = solve_along(np.geomspace(1.0, 10.0, 6)[1:], 1.0, 1.0, 2.5, 768)
    js = [s.diagnostics.J for s in states]
    assert all(b >= a for a, b in zip(js, js[1:]))
    for s in states:
        assert s.residual_norm <= 1e-10


def test_scaling_closure(solved_cache):
    # lam^{-1/(q-2)} u(r / sqrt(lam)) solves the mu-form family; on the
    # member's grid r / sqrt(lam) falls on the nodes of u
    st = solved_cache(0.25, 1.0, 1.0, 2.5, n=1536)
    target = sngs.make_grid(28.0, 1536)
    alpha, eff = sngs.normal_form(2.5, 0.25, "mu_form")
    scaled = 0.25 ** -alpha * st.u
    F, _ = _residual_values(scaled, eff, target,
                            sngs.operators.radial_laplacian(target))
    rel = _wnorm(target, F) / _wnorm(target, scaled)
    assert rel <= 1e-6


def test_uniqueness_scan_determinism():
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    r1 = sngs.uniqueness_scan(p, 3, rng_seed=7, n=512)
    r2 = sngs.uniqueness_scan(p, 3, rng_seed=7, n=512)
    assert r1.distinct_states[0].grid == sngs.make_grid(28.0, 512)
    assert r1.failed == r2.failed
    assert len(r1.distinct_states) == len(r2.distinct_states)
    for s1, s2 in zip(r1.distinct_states, r2.distinct_states):
        assert np.array_equal(s1.u, s2.u)


def test_uniqueness_scan_needs_two_starts():
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    with pytest.raises(ValueError):
        sngs.uniqueness_scan(p, 1, rng_seed=0, n=512)


def test_negative_branch_detected():
    # -W solves the a=0 equation exactly: the warm start stops at its first
    # ratio and Newton converges onto the negative branch
    g = sngs.make_grid(28.0, 768)
    p = sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=4.0)
    W = sngs.newton_solve(g, sngs.default_guess(p, g), p)
    guess = -W.u
    from sngs.errors import NegativeStateDetected
    with pytest.raises(NegativeStateDetected):
        sngs.newton_solve(g, guess, p)


def test_continuation_reaches_large_lambda_at_q525():
    # q = 5.25 from lambda = 1e-2 to 1e2: every direct solve converges
    for s in solve_along(np.geomspace(1e-2, 1e2, 9), 1.0, 1.0, 5.25, 768):
        assert s.residual_norm <= sngs.solver.TOL


def test_sup_norm_grows_toward_large_lambda(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0, n=768)
    states = solve_along(np.geomspace(1.0, 1000.0, 5)[1:], 1.0, 1.0, 4.0, 768)
    sups = [s.diagnostics.sup_u + s.diagnostics.sup_v for s in states]
    assert all(b > a for a, b in zip(sups, sups[1:]))
    assert sups[-1] > 10 * (st.diagnostics.sup_u + st.diagnostics.sup_v)


def test_reference_profile_choquard_pohozaev():
    d = sngs.solve(sngs.limit_member(4.0, "zero"), 2048).diagnostics
    assert abs(d.pohozaev) <= 1e-8 * d.grad_sq


def test_even_field_flat_at_origin(solved_cache):
    # even profiles carry |one-sided derivative at 0| <= C h
    for st in (solved_cache(1.0, 1.0, 1.0, 4.0), solved_cache(1.0, 1.0, 0.0, 4.0)):
        h = st.grid.h
        for f in (st.u, st.v):
            one_sided = abs(f[1] - f[0]) / h
            curv = abs(f[2] - 2 * f[1] + f[0]) / h**2
            assert one_sided <= 2.0 * curv * h + 1e-12
