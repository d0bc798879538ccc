from dataclasses import replace

import numpy as np
import pytest

import sngs
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from sngs.errors import (ContinuationStuck, InvalidExponent, NonConvergence,
                         TrivialCollapse, WrongParams)
from sngs.solver import (WARM_TOL, _newton_step, _residual_values,
                         _shifted_solve, _step_bands, _warm_start, _wnorm)
from conftest import smooth_bumps


def kwong_ratio(q):
    return 3.0 * (q - 2.0) / (6.0 - q)


def test_invalid_exponents():
    for q in (3.0, 2.0, 6.0, 1.5, 7.0):
        with pytest.raises(InvalidExponent):
            sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=q)


def test_residual_zero_field():
    g = sngs.make_grid(20.0, 256)
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    F = sngs.residual(sngs.RadialField(grid=g, values=np.zeros(g.n)), p)
    assert np.all(F.values == 0.0)


def test_converged_state_residual(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0)
    assert st.residual_norm <= 1e-10
    F = sngs.residual(st.u, st.params)
    assert _wnorm(st.grid, F.values) <= 1e-10 * _wnorm(st.grid, st.u.values)


@pytest.mark.parametrize("lam", [0.01, 0.1, 10.0])
def test_residual_norm_is_lambda_relative(solved_cache, lam):
    # |F| / (lam |u|) is the normal-form relative residual at every lambda
    st = solved_cache(lam, 1.0, 1.0, 4.0)
    F = sngs.residual(st.u, st.params)
    by_hand = _wnorm(st.grid, F.values) / (lam * _wnorm(st.grid, st.u.values))
    assert st.residual_norm == by_hand
    assert st.residual_norm <= sngs.SolverOptions().tol


def test_kwong_state_fails_choquard_equation(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0)
    choq = sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0)
    F = sngs.residual(st.u, choq)
    rel = _wnorm(st.grid, F.values) / _wnorm(st.grid, st.u.values)
    assert rel > 1e-3


def test_jacobian_zero_direction(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    zero = sngs.RadialField(grid=st.grid, values=np.zeros(st.grid.n))
    out = sngs.apply_jacobian(st.u, zero, st.params)
    assert np.all(out.values == 0.0)


def test_jacobian_matches_finite_differences(solved_cache):
    rng = np.random.default_rng(11)
    st = solved_cache(1.0, 1.0, 1.0, 2.5)
    eps = 1e-5
    for _ in range(5):
        d = smooth_bumps(st.grid, rng, amp=st.sup_u())
        dfield = sngs.RadialField(grid=st.grid, values=d)
        jd = sngs.apply_jacobian(st.u, dfield, st.params).values
        up = sngs.RadialField(grid=st.grid, values=st.u.values + eps * d)
        dn = sngs.RadialField(grid=st.grid, values=st.u.values - eps * d)
        fd = (sngs.residual(up, st.params).values
              - sngs.residual(dn, st.params).values) / (2 * eps)
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
        u = st.u.values + 0.1 * smooth_bumps(g, rng, amp=st.sup_u())
        F, v = _residual_values(u, st.params, g, A)
        d = _newton_step(u, v, F, st.params, g, _step_bands(g, A))
        jd = sngs.apply_jacobian(sngs.RadialField(grid=g, values=u),
                                 sngs.RadialField(grid=g, values=d),
                                 st.params).values
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
        u = st.u.values + 0.1 * smooth_bumps(g, rng, amp=st.sup_u())
        F, v = _residual_values(u, st.params, g, A)
        d = _newton_step(u, v, F, st.params, g, shared)
        fresh = _newton_step(u, v, F, st.params, g, _step_bands(g, A))
        assert np.array_equal(d, fresh)


@pytest.mark.parametrize("where", ["u", "F"])
def test_newton_step_rejects_nan(solved_cache, where):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    g = st.grid
    A = sngs.operators.radial_laplacian(g)
    u = st.u.values.copy()
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
    u = _warm_start(sngs.default_guess(p, g).values, p, g, A, 60)
    field = sngs.RadialField(grid=g, values=u)
    N = sngs.hartree_potential(field).v.values * u + u**3
    W = g.weights_r2dr
    ratio = float(np.dot(W * u, A @ u + u)) / float(np.dot(W * u, N))
    assert abs(ratio - 1.0) <= WARM_TOL
    again = _warm_start(u, p, g, A, 60)
    assert np.array_equal(again, u)


def test_residual_floor_scales_with_the_grid(solved_cache):
    # eps |(|A| |u|)| / (lam |u|): independent of lambda, ~4x per n -> 2n-1
    floors = [solved_cache(lam, 1.0, 1.0, 4.0).residual_floor
              for lam in (0.01, 1.0, 100.0)]
    assert max(floors) - min(floors) <= 1e-3 * min(floors)
    fine = solved_cache(1.0, 1.0, 1.0, 4.0, n=2 * 1536 - 1)
    ratio = fine.residual_floor / floors[1]
    assert 3.9 <= ratio <= 4.1


def test_nonconvergence_carries_best_iterate():
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.auto_rmax(1.0), 768)
    with pytest.raises(NonConvergence) as info:
        sngs.newton_solve(sngs.default_guess(p, g), p,
                          sngs.SolverOptions(max_iter=1))
    state = info.value.state
    assert state.grid == g
    assert np.all(np.isfinite(state.values))
    assert np.max(np.abs(state.values)) > 0.0
    assert info.value.iterations == 1


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
        sngs.newton_solve(sngs.default_guess(p, g), p)


def test_jacobian_symmetry(solved_cache):
    rng = np.random.default_rng(13)
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    W = st.grid.weights_r2dr
    for _ in range(5):
        d1 = sngs.RadialField(grid=st.grid, values=smooth_bumps(st.grid, rng))
        d2 = sngs.RadialField(grid=st.grid, values=smooth_bumps(st.grid, rng))
        j1 = sngs.apply_jacobian(st.u, d1, st.params).values
        j2 = sngs.apply_jacobian(st.u, d2, st.params).values
        left = float(np.dot(W, j1 * d2.values))
        right = float(np.dot(W, d1.values * j2))
        assert abs(left - right) <= 1e-10 * max(abs(left), abs(right))


def test_newton_kwong_ratio_from_spec_guess():
    g = sngs.make_grid(28.0, 1536)
    p = sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=4.0)
    guess = sngs.RadialField(grid=g, values=1.0 / np.cosh(g.nodes / 2.0) ** 2)
    st = sngs.newton_solve(guess, p)
    d = st.diagnostics
    assert d.grad_sq / d.l2_sq == pytest.approx(3.0, rel=1e-4)


def test_newton_trivial_guess_collapses():
    g = sngs.make_grid(20.0, 256)
    p = sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=4.0)
    with pytest.raises(TrivialCollapse):
        sngs.newton_solve(sngs.RadialField(grid=g, values=np.zeros(g.n)), p)


def test_newton_choquard_ratio():
    g = sngs.make_grid(28.0, 1536)
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0)
    guess = sngs.RadialField(grid=g, values=np.exp(-g.nodes**2 / 4.0))
    st = sngs.newton_solve(guess, p)
    d = st.diagnostics
    assert d.grad_sq / d.l2_sq == pytest.approx(1.0 / 3.0, rel=1e-4)


def test_state_positive_and_monotone(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    bulk = st.u.values[:-2]
    assert np.all(bulk >= 0.0)
    assert np.all(bulk[:200] > 0.0)
    drops = np.diff(st.u.values)
    assert np.all(drops <= 1e-12 * st.sup_u())


def test_grid_refinement_second_order_or_better(solved_cache):
    p = (1.0, 1.0, 1.0, 4.0)
    l2 = []
    for n in (768, 1536):
        st = solved_cache(*p, n=n)
        l2.append(st.diagnostics.l2_sq)
    # fourth-order interior scheme: well below the C h^2 budget
    h = 28.0 / 767
    assert abs(l2[0] - l2[1]) <= 1.0 * h**2 * l2[1]


def test_reference_profile_errors():
    g = sngs.make_grid(28.0, 768)
    with pytest.raises(InvalidExponent):
        sngs.reference_profile("kwong", g, q=3.0)
    with pytest.raises(WrongParams):
        sngs.reference_profile("mystery", g)


def continue_along(seed, lams):
    """States at each of `lams`, each continued from the one before."""
    states = [seed]
    for lam in lams:
        states.append(sngs.continuation_path(states[-1], lam))
    return states[1:]


def test_continuation_trivial_path(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    assert sngs.continuation_path(st, st.params.lam) is st


def test_continuation_lambda_path_monotone_action(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 2.5, n=768)
    states = continue_along(st, np.geomspace(1.0, 10.0, 6)[1:])
    assert states[-1].params == replace(st.params, lam=10.0)
    js = [s.diagnostics.J for s in states]
    assert all(b >= a for a, b in zip(js, js[1:]))
    for s in states:
        assert s.residual_norm <= 1e-10


def test_scaling_closure(solved_cache):
    # lam^{-1/(q-2)} u(r / sqrt(lam)) solves the mu-form family
    st = solved_cache(0.25, 1.0, 1.0, 2.5, n=1536)
    target = sngs.make_grid(28.0, 1536)
    scaled, eff = sngs.scale_state(st, "mu_form", target)
    F = sngs.residual(scaled, eff)
    rel = _wnorm(target, F.values) / _wnorm(target, scaled.values)
    assert rel <= 1e-6


def test_uniqueness_scan_determinism():
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(28.0, 512)
    r1 = sngs.uniqueness_scan(p, 3, rng_seed=7, grid=g)
    r2 = sngs.uniqueness_scan(p, 3, rng_seed=7, grid=g)
    assert r1.failed == r2.failed
    assert len(r1.distinct_states) == len(r2.distinct_states)
    for s1, s2 in zip(r1.distinct_states, r2.distinct_states):
        assert np.array_equal(s1.u.values, s2.u.values)


def test_uniqueness_scan_needs_two_starts():
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    with pytest.raises(ValueError):
        sngs.uniqueness_scan(p, 1, rng_seed=0, grid=sngs.make_grid(28.0, 512))


def test_negative_branch_detected():
    g = sngs.make_grid(28.0, 768)
    p = sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=4.0)
    W = sngs.reference_profile("kwong", g, q=4.0)
    guess = sngs.RadialField(grid=g, values=-W.u.values)
    from sngs.errors import NegativeStateDetected
    with pytest.raises(NegativeStateDetected):
        sngs.newton_solve(guess, p, sngs.SolverOptions(warm_iters=0))


def test_continuation_stuck(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0, n=768)
    crippled = sngs.SolverOptions(max_iter=0)
    with pytest.raises(ContinuationStuck):
        sngs.continuation_path(st, 100.0, crippled)


def test_sup_norm_grows_toward_large_lambda(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0, n=768)
    states = continue_along(st, np.geomspace(1.0, 1000.0, 5)[1:])
    sups = [s.sup_u() + s.sup_v() for s in states]
    assert all(b > a for a, b in zip(sups, sups[1:]))
    assert sups[-1] > 10 * (st.sup_u() + st.sup_v())


def test_reference_profile_choquard_pohozaev():
    g = sngs.make_grid(28.0, 2048)
    d = sngs.reference_profile("choquard", g).diagnostics
    assert abs(d.pohozaev) <= 1e-8 * d.grad_sq


def test_even_field_flat_at_origin(solved_cache):
    # even profiles carry |one-sided derivative at 0| <= C h
    for st in (solved_cache(1.0, 1.0, 1.0, 4.0), solved_cache(1.0, 1.0, 0.0, 4.0)):
        h = st.grid.h
        for f in (st.u, st.v):
            one_sided = abs(f.values[1] - f.values[0]) / h
            curv = abs(f.values[2] - 2 * f.values[1] + f.values[0]) / h**2
            assert one_sided <= 2.0 * curv * h + 1e-12
