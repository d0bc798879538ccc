import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sngs
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from sngs.errors import (InvalidExponent, NonConvergence, StateOutOfRange,
                         TrivialCollapse)
from sngs.solver import (WARM_TOL, _newton_step, _residual_values,
                         _shifted_bands, _shifted_solve, _step_workspace,
                         _warm_start, _wnorm)
from conftest import smooth_bumps
import oracles
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
    """The banded Newton step is exact against the matrix-free Jacobian on
    the active rows 1..n-3 at perturbed (non-converged) states; it leaves
    d_0 at 0, which no active row of J reads."""
    rng = np.random.default_rng(17)
    st = solved_cache(1.0, a, nu, q)
    g = st.grid
    act = slice(1, g.n - 2)
    A = sngs.operators.radial_laplacian(g)
    for _ in range(3):
        u = st.u + 0.1 * smooth_bumps(g, rng, amp=st.diagnostics.sup_u)
        F, v = _residual_values(u, st.params, g, A)
        d = _newton_step(u, v, F, st.params, g, A, _step_workspace(g))
        assert d[0] == 0.0
        jd = apply_jacobian(g, u, d, st.params)
        assert np.linalg.norm(jd[act] + F[act]) <= 1e-9 * np.linalg.norm(F[act])
        d[0] = 1e3
        assert np.array_equal(apply_jacobian(g, u, d, st.params)[act], jd[act])


def test_newton_step_reuses_its_workspace(solved_cache):
    """Steps that share one workspace equal, bit for bit, the step of a fresh
    band matrix."""
    rng = np.random.default_rng(19)
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    g = st.grid
    A = sngs.operators.radial_laplacian(g)
    shared = _step_workspace(g)
    for _ in range(2):
        u = st.u + 0.1 * smooth_bumps(g, rng, amp=st.diagnostics.sup_u)
        F, v = _residual_values(u, st.params, g, A)
        d = _newton_step(u, v, F, st.params, g, A, shared)
        fresh = _newton_step(u, v, F, st.params, g, A, _step_workspace(g))
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
        _newton_step(u, v, F, st.params, g, A, _step_workspace(g))


@pytest.mark.parametrize("n", [16, 4096, 65536])
def test_newton_step_writes_t0_as_green_bands(n, monkeypatch):
    """The step writes T_0 in closed form (2/h, 1/h last, -1/h off the
    diagonal): the bands of hartree.green_bands(0, m, h), bit for bit, on
    m = n - 3 active nodes."""
    from sngs import solver
    from sngs.hartree import green_bands
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.solver.R_MAX, n)
    A = sngs.operators.radial_laplacian(g)
    real_dgbsv, seen = solver.dgbsv, []

    def dgbsv(kl, ku, ab, b, **kw):
        seen.append(ab[4:].copy())
        return real_dgbsv(kl, ku, ab, b, **kw)
    monkeypatch.setattr(solver, "dgbsv", dgbsv)
    u = oracles.gaussian_guess(g)
    F, v = _residual_values(u, p, g, A)
    _newton_step(u, v, F, p, g, A, _step_workspace(g))
    band = seen[0]
    diag, off = green_bands(0, n - 3, g.h)
    for got, want in ((band[4, 1::2], diag), (band[2, 3::2], off),
                      (band[6, 1:-2:2], off)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [16, 1024, 4097])
def test_banded_assembly_matches_the_csr_oracle(n, monkeypatch):
    """S + lam W of the warm start, the band matrix dgbsv receives in a
    Newton step (its fixed entries and the u-dependent ones) and the whole
    step, assembled from the weighted bands of `radial_laplacian`, equal bit
    for bit those read back out of the CSR forms (the oracle's step, like
    the step, leaves d_0 at 0)."""
    from sngs import solver
    p = sngs.ModelParams(lam=0.37, a=1.0, nu=1.0, q=2.5)
    g = sngs.make_grid(sngs.solver.R_MAX, n)
    A = sngs.operators.radial_laplacian(g)
    assert np.array_equal(_shifted_bands(A, p.lam),
                          oracles.shifted_bands(g, p.lam))
    real_dgbsv, seen = solver.dgbsv, []

    def dgbsv(kl, ku, ab, b, **kw):
        seen.append(ab[4:].copy())   # the matrix as the step wrote it
        return real_dgbsv(kl, ku, ab, b, **kw)
    monkeypatch.setattr(solver, "dgbsv", dgbsv)
    u = oracles.gaussian_guess(g)
    F, v = _residual_values(u, p, g, A)
    work = _step_workspace(g)
    work[0].fill(np.nan)   # each step sets every matrix entry itself
    d = _newton_step(u, v, F, p, g, A, work)
    assert np.array_equal(seen[0], oracles.step_matrix(u, v, p, g))
    assert np.array_equal(d, oracles.newton_step(u, v, F, p, g))


def test_solve_peak_allocation():
    """A Newton solve at n = 16384 allocates at most 42 n-vectors at its
    peak: the dgbsv workspace of 28, the three weighted bands of -Delta_r,
    the iterate, its residual and potential, and the transients of one step;
    no CSR -Delta_r and no fixed step entries are held beside them (52 when
    they were)."""
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    n = 16384
    g = sngs.make_grid(sngs.solver.R_MAX, n)
    guess = oracles.gaussian_guess(g)
    sngs.solve(p, 64)   # first-call allocations are not the solve's
    tracemalloc.start()
    try:
        sngs.newton_solve(g, guess, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * n) <= 42


@pytest.mark.parametrize("n", [300, 4096])
def test_shifted_solve_matches_sparse_lu(n):
    """The banded Cholesky solve of the warm start is the system
    (A + lam diag(1, ..., 1, 0, 0)) w = N for N vanishing on the pad, on the
    active nodes; w_0, which no active row reads, stays 0."""
    lam = 0.37
    g = sngs.make_grid(sngs.solver.R_MAX / np.sqrt(lam), n)
    A = sngs.operators.radial_laplacian(g)
    mask = np.ones(n)
    mask[-2:] = 0.0
    oracle = splu((oracles.radial_laplacian_csr(g) + lam * diags(mask)).tocsc())
    rng = np.random.default_rng(n)
    N = smooth_bumps(g, rng, max_center=g.r_max / 6.0)
    N[0] = 1.3   # the origin row enters through row 0 of A alone
    w = _shifted_solve(g, A, lam)(N)
    ref = oracle.solve(N)
    assert np.max(np.abs(w[1:] - ref[1:])) <= 1e-12 * np.max(np.abs(ref))
    assert w[0] == 0.0


def test_warm_start_stops_on_settled_ratio():
    # a warm-started u already meets WARM_TOL, so a second warm start
    # returns it without a sweep
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.solver.R_MAX, 1536)
    A = sngs.operators.radial_laplacian(g)
    u = _warm_start(oracles.gaussian_guess(g), p, g, A)
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


def test_origin_steps_run_until_u0_stops_moving(monkeypatch):
    # the q=5.95, lambda = 10^0.25 member on 8191 nodes ends unconverged
    # (60 Newton steps), and four scalar steps from u(0) = 0 left
    # |F(u)_0| = 3e-2, so its record listed origin_residual beside its real
    # failures; stepping until u(0) no longer moves closes row 0
    params = sngs.normal_form(5.95, 10 ** 0.25)[1]
    st = sngs.solve(params, 8191)
    names = [f[0] for f in sngs.acceptance_failures(st)]
    assert names == ["residual_norm", "identity_residuals"]
    assert st.origin_residual < 1e-8
    monkeypatch.setattr(sngs.solver, "ORIGIN_STEPS", 4)
    four = sngs.solve(params, 8191)
    assert four.origin_residual > 1e-2
    assert np.array_equal(st.u[1:], four.u[1:])


def test_origin_row_is_closed_after_the_active_loop(monkeypatch):
    # no active row and no r^2 dr norm reads u(0), so the warm start and the
    # Newton steps leave it where it was (0) and solve the active nodes
    # alone; at the (5.5, 1e2) normal-form member on 12281 nodes the scalar
    # steps on row 0 set u(0) and bring F(u)_0 under a fifth of its bound:
    # every other node, J and the residual ratio keep their bits
    params = sngs.normal_form(5.5, 1e2)[1]
    st = sngs.solve(params, 12281)
    assert sngs.acceptance_failures(st) == []
    bound = st.residual_bound * st.params.lam * st.diagnostics.sup_u
    assert st.origin_residual <= 0.2 * bound
    monkeypatch.setattr(sngs.solver, "ORIGIN_STEPS", 0)
    unclosed = sngs.solve(params, 12281)
    assert unclosed.origin_residual > bound
    assert np.array_equal(st.u[1:], unclosed.u[1:])
    assert unclosed.u[0] == 0.0 < st.u[0]
    assert st.diagnostics.J == unclosed.diagnostics.J
    assert st.residual_norm == unclosed.residual_norm


def test_a_spike_at_the_origin_leaves_the_solve_unmoved():
    # no active row reads u(0), and the origin steps set it from the active
    # field, so a guess spiked to 1e3 at node 0 gives the unspiked state
    # bit for bit
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.solver.R_MAX, 1024)
    guess = oracles.gaussian_guess(g)
    st = sngs.newton_solve(g, guess, p)
    guess[0] = 1e3
    spiked = sngs.newton_solve(g, guess, p)
    assert np.array_equal(spiked.u, st.u)
    assert spiked.diagnostics.J == st.diagnostics.J
    assert spiked.residual_norm == st.residual_norm
    assert spiked.iterations == st.iterations
    assert sngs.acceptance_failures(spiked) == []


def test_acceptance_refuses_non_finite_identities(origin_blown_state):
    # node 0 carries no r^2 dr weight, so the residual ratio never sees a
    # blown-up origin value; the origin row of F and the identities, which
    # turn NaN, must refuse it
    st = origin_blown_state
    assert st.residual_norm <= st.residual_bound
    rep = st.diagnostics
    assert np.isnan(rep.nehari) and np.isnan(rep.pohozaev)
    failures = sngs.acceptance_failures(st)
    assert [f[0] for f in failures] == ["origin_residual", "identity_residuals"]
    _, origin, bound = failures[0]
    with np.errstate(over="ignore", invalid="ignore"):
        F, _ = _residual_values(st.u, st.params, st.grid,
                                oracles.radial_laplacian_csr(st.grid))
    assert origin == st.origin_residual == abs(F[0])
    assert bound == st.residual_bound * st.params.lam * np.max(np.abs(st.u))
    assert origin > 1e50 * bound


def test_ground_state_rejects_a_field_off_its_grid(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    with pytest.raises(ValueError, match="field length"):
        sngs.ground_state(st.grid, st.u[:-1], st.params, 0,
                          sngs.operators.radial_laplacian(st.grid))


def test_residual_floor_scales_with_the_grid(solved_cache):
    # eps |(|A| |u|)| / (lam |u|): independent of lambda, ~4x per n -> 2n-1
    floors = [solved_cache(lam, 1.0, 1.0, 4.0).residual_floor
              for lam in (0.01, 1.0, 100.0)]
    assert max(floors) - min(floors) <= 1e-3 * min(floors)
    fine = solved_cache(1.0, 1.0, 1.0, 4.0, n=2 * 1536 - 1)
    ratio = fine.residual_floor / floors[1]
    assert 3.9 <= ratio <= 4.1


# (lam, a, nu, q, the member parameter the map sets to 1)
PHYSICAL_POINTS = [
    (0.1, 1.0, 1.0, 2.5, "nu"), (10.0, 1.0, 1.0, 2.5, "a"),
    (0.1, 1.0, 1.0, 4.0, "a"), (10.0, 1.0, 1.0, 4.0, "nu"),
    (0.3, 2.0, 0.5, 4.5, "a"), (5.0, 0.3, 3.0, 2.75, "nu"),
    (0.05, 0.0, 1.0, 3.5, "nu"), (20.0, 1.0, 0.0, 4.0, "a"),
]


@pytest.mark.parametrize("lam,a,nu,q,fixed", PHYSICAL_POINTS)
def test_solve_matches_the_physical_domain_oracle(lam, a, nu, q, fixed):
    # `solve` runs the normal-form member at lam = 1 and maps it out; the
    # state solved on its own domain member_rmax(q) / sqrt(lam) from its own
    # Gaussian is the same state: J, u and the acceptance verdict agree
    params = sngs.ModelParams(lam=lam, a=a, nu=nu, q=q)
    s, member, _ = sngs.normal_member(params)
    assert getattr(member, fixed) == 1.0 and min(member.a, member.nu) <= 1.0
    st = sngs.solve(params, 1024)
    ref = oracles.physical_solve(
        params, 1024, sngs.solver.member_rmax(q) / np.sqrt(lam))
    assert st.params == params and st.grid.r_max == ref.grid.r_max
    J, J_ref = st.diagnostics.J, ref.diagnostics.J
    assert abs(J - J_ref) <= 1e-11 * abs(J_ref)
    assert np.max(np.abs(st.u - ref.u)) <= 1e-9 * ref.diagnostics.sup_u
    assert ([f[0] for f in sngs.acceptance_failures(st)]
            == [f[0] for f in sngs.acceptance_failures(ref)])


@pytest.mark.parametrize("params", [
    sngs.ModelParams(lam=1.0, a=0.3, nu=1.0, q=2.5),
    sngs.ModelParams(lam=1.0, a=1.0, nu=0.3, q=4.0),
    sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=2.5),
    sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0),
    sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=5.5),
])
def test_a_member_maps_onto_itself(params):
    assert sngs.normal_member(params) == (1.0, params, 1.0)


@pytest.mark.parametrize("lam,a,nu,q", [
    (1e-100, 1.0, 1.0, 2.05),    # s = lam^20 underflows to 0
    (1e-300, 1e300, 1.0, 4.0),   # the nu-form's s = lam / sqrt(a) = 0
    (1e300, 1.0, 1e-300, 5.5),   # the mu-form's a~ overflows
])
def test_normal_member_types_its_range(lam, a, nu, q):
    with pytest.raises(StateOutOfRange, match="s = |overflows"):
        sngs.normal_member(sngs.ModelParams(lam=lam, a=a, nu=nu, q=q))


def test_nonconvergence_carries_the_mapped_state(monkeypatch):
    # at MAX_ITER the last iterate of the member is returned and mapped out
    # like a converged state, and the acceptance rule refuses it
    monkeypatch.setattr(sngs.solver, "MAX_ITER", 1)
    params = sngs.ModelParams(lam=0.1, a=1.0, nu=1.0, q=4.0)
    state = sngs.solve(params, 768)
    assert state.params == params and state.iterations == 1
    assert state.grid.r_max == 28.0 / np.sqrt(0.1)
    assert sngs.acceptance_failures(state)[0][0] == "residual_norm"
    s, member, _ = sngs.normal_member(params)
    grid = sngs.make_grid(sngs.solver.R_MAX, 768)
    raw = sngs.newton_solve(grid, oracles.gaussian_guess(grid), member)
    assert raw.params == member
    assert np.array_equal(state.u, s * raw.u)


def test_nonconvergence_carries_best_iterate(monkeypatch):
    # at MAX_ITER Newton returns its last iterate, a refused state
    monkeypatch.setattr(sngs.solver, "MAX_ITER", 1)
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.solver.R_MAX, 768)
    state = sngs.newton_solve(g, oracles.gaussian_guess(g), p)
    assert isinstance(state, sngs.GroundState)
    assert (state.grid.r_max, state.grid.n) == (g.r_max, g.n)
    assert state.params == p
    assert np.all(np.isfinite(state.u))
    assert np.max(np.abs(state.u)) > 0.0
    assert state.iterations == 1
    assert state.residual_norm > state.residual_bound
    assert sngs.acceptance_failures(state)[0][0] == "residual_norm"


@pytest.mark.filterwarnings("error")
def test_line_search_rejects_non_finite_trials(monkeypatch):
    # a step so long that every trial residual overflows: each trial fails
    # the descent test quietly, and Newton returns the iterate it started
    # the step from, a refused state, with no step taken
    from sngs import solver
    step = solver._newton_step
    monkeypatch.setattr(solver, "_newton_step",
                        lambda *args: 1e100 * step(*args))
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    g = sngs.make_grid(sngs.solver.R_MAX, 256)
    state = sngs.newton_solve(g, oracles.gaussian_guess(g), p)
    assert state.iterations == 0 and np.all(np.isfinite(state.u))
    assert sngs.acceptance_failures(state)[0][0] == "residual_norm"


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


def test_action_converges_at_fourth_order():
    # J of the normal-form member at (4, 1) under n -> 2n - 1: successive
    # differences fall ~16x (a second-order quadrature would give ~4x)
    params = sngs.scaling.normal_form(4.0, 1.0)[1]
    js = [sngs.solve(params, n).diagnostics.J for n in (1024, 2047, 4093)]
    assert abs(js[0] - js[1]) / abs(js[1] - js[2]) >= 12.0


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
    s, eff, _ = sngs.normal_form(2.5, 0.25)
    scaled = st.u / s
    F, _ = _residual_values(scaled, eff, target,
                            sngs.operators.radial_laplacian(target))
    rel = _wnorm(target, F) / _wnorm(target, scaled)
    assert rel <= 1e-6


def test_uniqueness_scan_determinism():
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    r1 = sngs.uniqueness_scan(p, 3, rng_seed=7, n=512)
    r2 = sngs.uniqueness_scan(p, 3, rng_seed=7, n=512)
    grid = r1.distinct_states[0].grid
    assert (grid.r_max, grid.n) == (28.0, 512)
    assert r1.failed == r2.failed
    assert len(r1.distinct_states) == len(r2.distinct_states)
    for s1, s2 in zip(r1.distinct_states, r2.distinct_states):
        assert np.array_equal(s1.u, s2.u)


def test_uniqueness_scan_maps_its_states_out():
    # the starts are drawn on the member's grid; the distinct states are
    # the physical ones, those of `solve`
    p = sngs.ModelParams(lam=100.0, a=1.0, nu=1.0, q=4.0)
    res = sngs.uniqueness_scan(p, 3, rng_seed=7, n=512)
    (state,) = res.distinct_states
    assert state.params == p and state.grid.r_max == 2.8
    direct = sngs.solve(p, 512)
    assert np.max(np.abs(state.u - direct.u)) <= 1e-9 * direct.diagnostics.sup_u


def test_uniqueness_scan_needs_two_starts():
    p = sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    with pytest.raises(ValueError):
        sngs.uniqueness_scan(p, 1, rng_seed=0, n=512)


def test_negative_branch_detected():
    # -W solves the a=0 equation exactly: the warm start stops at its first
    # ratio and Newton converges onto the negative branch, which the
    # acceptance rule refuses on its sign, which W passes
    g = sngs.make_grid(28.0, 768)
    p = sngs.ModelParams(lam=1.0, a=0.0, nu=1.0, q=4.0)
    W = sngs.newton_solve(g, oracles.gaussian_guess(g), p)
    negative = sngs.newton_solve(g, -W.u, p)
    assert negative.residual_norm <= negative.residual_bound
    assert "sign" not in [f[0] for f in sngs.acceptance_failures(W)]
    assert "sign" in [f[0] for f in sngs.acceptance_failures(negative)]


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
