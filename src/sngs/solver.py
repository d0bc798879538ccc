"""Ground states of -Delta u + lambda u = a (I_2 * u^2) u + nu u^(q-1).

The potential v = I_2 * u^2 is eliminated exactly at every evaluation through
the Newton-theorem sweep, so the nonlinear map F acts on u alone and its
Jacobian is self-adjoint in the r^2-weighted inner product.  newton_solve runs
a deterministic spectral-renormalization warm start (amplitude-stabilized
Picard iteration; plain damped Newton from generic bumps measurably stalls on
a near-singular Jacobian ridge between the trivial and ground branches),
then damped Newton.  Each solve assembles the stencil once: the weighted
bands of operators._weighted_bands feed the warm start's banded Cholesky of
S + lam W and the Newton step's fixed entries, operators.origin_row the
origin row of both, and the one CSR -Delta_r (operators.radial_laplacian)
serves the residual, the floor and the final `ground_state`.  The warm start
stops as soon as its Rayleigh ratio is within WARM_TOL of 1 (WARM_SWEEPS
caps the sweeps).  Newton stops at |F| <= max(TOL, floor) lam |u| in the
r^2 dr norm, where `residual_floor` is the rounding level of F, taken once
per solve after the warm start.
`acceptance_failures` is the one rule that accepts a state: its residual
ratio within GroundState.residual_bound = 10 max(TOL, floor), the floor
taken at the state, and its Nehari and Pohozaev identities within
IDENTITY_RTOL G; `linearized` asks the residual part alone.
`solve` is the one place that picks a state's domain and start from
(params, n); the scan's random starts share its domain.  The ground state is
unique at each lambda, so a lambda sweep solves every lambda afresh, the
limit profiles W and U are the family members of `scaling.limit_member`, and
`limits` and `spectrum` solve the member `scaling.normal_form(q, lam)` gives,
in the form of lam's side of 1, rather than rescale a field.
A GroundState is the float arrays u and v = I_2 * u^2 on its one grid.
Every one, the last iterate a NonConvergence carries included, comes whole
from `ground_state`, with its diagnostics and its residual_norm, the
scale-invariant ratio |F(u)| / (lam |u|): by the mu/nu maps of `scaling`,
F = lam^(alpha+1) F~, so it equals the relative residual of the normal-form
member at lam = 1 and means the same at every lambda; residual_floor is the
rounding level of that ratio at the state.  The linearized operator is
written once (`linearization`): a local diagonal pot and a coupling b, whose
sector-k pair form in (f, y = r g), g the potential perturbation, is
[[S + W pot, B], [B, T_k]] with B = sqrt(h W) b, S = operators.dirichlet_form
and T_k = hartree.green_bands; `linearized` builds it for k = 0 and 1.  Its
sector-0 Schur complement is W J, so each Newton step J d = -F solves that
pair form exactly, in standard form on the active nodes, by one banded LU
(`_newton_step`); the entries no iterate changes are built once per solve
from the weighted bands as five compact vectors (`_step_bands`), beside the
one dgbsv workspace every step solves in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv, dpbtrs

from . import operators
from .diagnostics import DiagnosticsReport, identities
from .errors import (BadRange, InvalidExponent, NegativeStateDetected,
                     NonConvergence, TrivialCollapse)
from .grid import EVEN, RadialGrid, make_grid
from .hartree import coulomb_apply, green_bands

TRIVIAL_SUP = 1e-8
TOL = 1e-10           # Newton's stop: |F| / (lam |u|) in r^2 dr norms
IDENTITY_RTOL = 1e-6  # |Nehari|, |Pohozaev| <= it G
MAX_ITER = 60         # Newton iterations
DAMPING = 20          # max step halvings per Newton iteration
WARM_SWEEPS = 60      # cap on the spectral-renormalization sweeps
WARM_TOL = 1e-4       # the warm start stops at |Rayleigh ratio - 1| <= WARM_TOL
DEDUP_TOL = 1e-6      # relative sup distance under which two scan states agree


@dataclass(frozen=True)
class ModelParams:
    """One member of the family -Delta u + lam u = a (I_2*u^2) u + nu u^(q-1).

    The limit profiles W and U are members too (scaling.limit_member).  The
    paper's symmetric a=2 pair is (u/sqrt2, v/2) at a=1; the sector forms of
    `linearized` are the same in either convention.
    """
    lam: float
    a: float
    nu: float
    q: float

    def __post_init__(self):
        if not (2.0 < self.q < 6.0) or self.q == 3.0:
            raise InvalidExponent(f"q = {self.q} outside (2,3) u (3,6)")
        if not (0 <= self.a < math.inf and 0 <= self.nu < math.inf):
            raise BadRange(f"a = {self.a}, nu = {self.nu}: both must be finite "
                           "and >= 0")
        if self.a == 0 and self.nu == 0:
            raise BadRange("at least one of a, nu must be positive")
        if not (0 < self.lam < math.inf):
            raise BadRange(f"lam = {self.lam} must be positive and finite")

    def label(self):
        return f"(lam={self.lam:g}, a={self.a:g}, nu={self.nu:g}, q={self.q:g})"


@dataclass
class GroundState:
    params: ModelParams
    grid: RadialGrid
    u: np.ndarray               # the field on grid.nodes
    v: np.ndarray               # I_2 * u^2 on grid.nodes
    residual_norm: float        # |F(u)| / (lam |u|), r^2 dr norms
    residual_floor: float       # rounding level of residual_norm at u
    iterations: int
    diagnostics: DiagnosticsReport = field(repr=False)

    @property
    def residual_bound(self) -> float:
        """The largest residual_norm at which the state is accepted: ten times
        Newton's stop max(TOL, residual_floor), taken at the state itself."""
        return 10.0 * max(TOL, self.residual_floor)


def auto_rmax(lam: float) -> float:
    """Domain size with e^(-sqrt(lam) r_max) < 1e-12 and the decay length
    resolved: 28 / sqrt(lam)."""
    return 28.0 / math.sqrt(lam)


def default_guess(params: ModelParams, grid: RadialGrid) -> np.ndarray:
    """Gaussian bump at the lambda decay scale; the warm start fixes amplitude."""
    vals = np.exp(-math.sqrt(params.lam) * grid.nodes**2 / 4.0)
    vals[-2:] = 0.0
    return vals


def _power(u: np.ndarray, p: float) -> np.ndarray:
    """u^p, sign-safe: integer powers exactly, fractional ones clamped at 0."""
    if abs(p - round(p)) < 1e-14 and round(p) >= 1:
        return u ** int(round(p))
    return np.maximum(u, 0.0) ** p


def _dpower(u: np.ndarray, p: float) -> np.ndarray:
    """d/du of _power(u, p) = p u^(p-1)."""
    if abs(p - round(p)) < 1e-14 and round(p) >= 1:
        k = int(round(p))
        return float(k) * u ** (k - 1)
    return p * np.maximum(u, 0.0) ** (p - 1.0)


def _residual_values(u: np.ndarray, params: ModelParams, grid: RadialGrid,
                     A: sp.csr_matrix):
    """(F(u), v(u)), A = -Delta_r; F's last two rows are the pad values."""
    v = coulomb_apply(grid, u * u)
    F = A @ u + params.lam * u - params.a * v * u - params.nu * _power(u, params.q - 1.0)
    F[-2] = u[-2]
    F[-1] = u[-1]
    return F, v


def linearization(u: np.ndarray, v: np.ndarray, params: ModelParams,
                  h: float):
    """(pot, b) at (u, v) on a grid of spacing h: the local diagonal
    lam - a v - nu (q-1) u^(q-2) + 2a h^2 u^2 / 12 of the linearized operator,
    the last term the sweep's Euler-Maclaurin diagonal (its sign flips at the
    origin), and the coupling b = sqrt(2a) u of its pair form, which with v
    eliminated is the Hessian of the action at every a."""
    euler_maclaurin = 2.0 * params.a * (h * u) ** 2 / 12.0
    euler_maclaurin[0] = -euler_maclaurin[0]
    pot = (params.lam - params.a * v - params.nu * _dpower(u, params.q - 1.0)
           + euler_maclaurin)
    return pot, math.sqrt(2.0 * params.a) * u


@dataclass
class _StepBands:
    """The sector-0 pair form of one solve in dgbsv storage.  The workspace
    `ab` has 13 rows (Fortran order); its rows 4..12 hold the matrix, entry
    (i, j) of the interleaved system at row 4 + i - j of ab[4:], and its rows
    0..3 are the LU fill-in space, which dgbsv need not find set.  The
    entries no iterate changes are kept compact, as five vectors: D S D's
    main band and its bands at interleaved offsets 2 and 4 (the first and
    second bands of S), and T_0's two bands; each step zeroes ab[4:] and
    writes them in (`write`)."""
    dsd: tuple          # D S D: main, first and second upper bands
    green: tuple        # T_0: main and upper band (hartree.green_bands)
    scale: np.ndarray   # W^(1/2) on the active nodes, D = 1 / scale
    origin: tuple       # row 0 of -Delta_r on nodes 0, 1, 2
    ab: np.ndarray      # workspace: the fixed plus the u-dependent entries
    rhs: np.ndarray     # workspace: the right-hand side

    def write(self, band: np.ndarray) -> None:
        """Zero `band`, the matrix rows ab[4:], and write the fixed entries
        in: f_i at slot 2i, y_i at slot 2i + 1 (i counts the active nodes
        from 0)."""
        band.fill(0.0)
        main, off1, off2 = self.dsd
        band[4, ::2] = main
        band[2, 2::2] = band[6, :-2:2] = off1
        band[0, 4::2] = band[8, :-4:2] = off2
        t_diag, t_off = self.green
        band[4, 1::2] = t_diag
        band[2, 3::2] = band[6, 1:-2:2] = t_off


def _step_bands(grid: RadialGrid, bands) -> _StepBands:
    """The entries of the Newton pair form that no iterate changes, D S D
    from the weighted bands (diag, up1, up2) of operators._weighted_bands
    and T_0 from hartree.green_bands, and the workspace every step solves
    in."""
    m = grid.n - 3
    diag, up1, up2 = bands
    scale = np.sqrt(grid.weights_r2dr[1:m + 1])
    dsd = (diag / scale ** 2, up1[:-1] / (scale[:-1] * scale[1:]),
           up2[:-2] / (scale[:-2] * scale[2:]))
    return _StepBands(dsd=dsd, green=green_bands(0, m, grid.h), scale=scale,
                      origin=operators.origin_row(grid),
                      ab=np.empty((13, 2 * m), order="F"),
                      rhs=np.empty(2 * m))


def _newton_step(u, v, F, params, grid, bands: _StepBands):
    """Exact solution d of J(u) d = -F through one banded LU, for u vanishing
    on the Dirichlet pad, as every iterate does (d vanishes there too).

    On the active nodes W J d = -W F is the Schur complement of the sector-0
    pair form [[S + W pot, B], [B, T_0]] in (d, y = r w), B = sqrt(h W) b
    (`linearization`).  In standard form, d = D x with D = W^(-1/2), it is
    [[D S D + pot, sqrt(h) b], [sqrt(h) b, T_0]] (x, y) = (-W^(1/2) F, 0);
    interleaving x_1, y_1, x_2, ... gives bandwidth 4 on each side.  The
    fixed entries (`_StepBands.write`) and the u-dependent ones go into the
    zeroed workspace, which dgbsv overwrites.  d_0 then follows from row 0
    of -Delta_r, the origin limit, with the screening potential w_0 the
    trapezoid line integral of 2 u d r (its Euler-Maclaurin term is in
    pot_0).  A non-finite or singular system raises NonConvergence.
    """
    h, act = grid.h, slice(1, grid.n - 2)
    pot, b = linearization(u, v, params, h)
    if not (np.isfinite(pot).all() and np.isfinite(F).all()):
        raise NonConvergence(f"Newton step for {params.label()}: "
                             "non-finite Jacobian or residual")
    band, rhs = bands.ab[4:], bands.rhs
    bands.write(band)
    band[4, ::2] += pot[act]
    band[3, 1::2] = band[5, ::2] = math.sqrt(h) * b[act]
    rhs[::2] = -bands.scale * F[act]
    rhs[1::2] = 0.0
    _, _, x, info = dgbsv(4, 4, bands.ab, rhs, overwrite_ab=True,
                          overwrite_b=True)
    if info != 0:
        raise NonConvergence(
            f"Newton step for {params.label()}: singular band matrix (info {info})")
    d = np.zeros(grid.n)
    d[act] = x[::2] / bands.scale
    a00, a01, a02 = bands.origin
    screen = b[0] * np.dot(h * grid.nodes[act] * b[act], d[act])
    d[0] = (screen - F[0] - a01 * d[1] - a02 * d[2]) / (a00 + pot[0])
    return d


def _wnorm(grid: RadialGrid, x: np.ndarray) -> float:
    return math.sqrt(float(np.dot(grid.weights_r2dr, x * x)))


def _shifted_bands(grid: RadialGrid, bands, lam: float) -> np.ndarray:
    """S + lam W on the active nodes in LAPACK's upper banded storage (3 rows),
    from the weighted bands (diag, up1, up2) of operators._weighted_bands."""
    n = grid.n
    diag, up1, up2 = bands
    ab = np.zeros((3, n - 3))
    ab[0, 2:] = up2[:-2]
    ab[1, 1:] = up1[:-1]
    ab[2] = diag + lam * grid.weights_r2dr[1:n - 2]
    return ab


def _shifted_solve(grid: RadialGrid, bands, lam: float):
    """Solver of (A + lam) w = N, A = -Delta_r, lam masked on the Dirichlet
    pad, for fields N that vanish on the pad.

    On the active nodes 1..n-3 the system is W^-1 (S + lam W) with S the
    symmetric weighted form, so S + lam W (`_shifted_bands`) is factored
    once by banded Cholesky: rows 1 and 2 couple into node 0 only through
    r_0 = 0, and w vanishes on the pad.  Each solve is one LAPACK dpbtrs in
    place; a nonzero info raises NonConvergence.  w_0 then follows from
    operators.origin_row, the origin limit.
    """
    n = grid.n
    W = grid.weights_r2dr
    chol = sla.cholesky_banded(_shifted_bands(grid, bands, lam),
                               check_finite=False)
    a00, a01, a02 = operators.origin_row(grid)

    def solve(N):
        w = np.zeros(n)
        act = w[1:n - 2]
        np.multiply(W[1:n - 2], N[1:n - 2], out=act)
        _, info = dpbtrs(chol, act, overwrite_b=True)
        if info != 0:
            raise NonConvergence(f"warm-start solve: dpbtrs info {info}")
        w[0] = (N[0] - a01 * w[1] - a02 * w[2]) / (a00 + lam)
        return w
    return solve


def _warm_start(u, params, grid, A, bands):
    """Amplitude-stabilized Picard iteration (spectral renormalization).

    u <- S^gamma (A + lam)^(-1) N(u) with S the Rayleigh ratio of the linear
    and nonlinear pairings; gamma from the dominant homogeneity of N.  Stops
    once |S - 1| <= WARM_TOL or after WARM_SWEEPS sweeps.  On a grid too coarse
    for the state the iteration can blow up: the first non-finite ratio or
    iterate raises NonConvergence, and the overflow that produced it is not
    reported as a warning.
    """
    W = grid.weights_r2dr
    solve = _shifted_solve(grid, bands, params.lam)
    gamma = 1.5 if params.a > 0 else (params.q - 1.0) / (params.q - 2.0)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        for sweep in range(1, WARM_SWEEPS + 1):
            if np.max(np.abs(u)) < TRIVIAL_SUP:
                break
            v = coulomb_apply(grid, u * u)
            N = params.a * v * u + params.nu * _power(u, params.q - 1.0)
            num = np.dot(W * u, A @ u + params.lam * u)
            den = np.dot(W * u, N)
            if den <= 0.0 or num <= 0.0:
                break
            ratio = num / den
            if not np.isfinite(ratio):
                raise NonConvergence(f"warm start for {params.label()}: "
                                     f"non-finite Rayleigh ratio in sweep {sweep}")
            if abs(ratio - 1.0) <= WARM_TOL:
                break
            u = ratio ** gamma * solve(N)
            if not np.all(np.isfinite(u)):
                raise NonConvergence(f"warm start for {params.label()}: "
                                     f"non-finite iterate in sweep {sweep}")
    return u


def residual_floor(grid: RadialGrid, A: sp.csr_matrix, u: np.ndarray,
                   lam: float) -> float:
    """Rounding level of the residual ratio |F| / (lam |u|) at the field u:
    eps |(|A| |u|)| / (lam |u|) in r^2 dr norms, A = -Delta_r.  It grows like
    1/h^2 and does not depend on lam (A scales like lam with the grid)."""
    return float(np.finfo(float).eps * _wnorm(grid, abs(A) @ np.abs(u))
                 / (lam * _wnorm(grid, u)))


def _live_norm(grid: RadialGrid, u: np.ndarray) -> float:
    """Weighted norm of an iterate; TrivialCollapse when it is numerically
    zero, including a spike on node 0, whose r^2 dr weight vanishes."""
    sup = np.max(np.abs(u))
    if sup < TRIVIAL_SUP:
        raise TrivialCollapse(f"iterate collapsed (sup {sup:.2e})")
    nu_norm = _wnorm(grid, u)
    if nu_norm == 0.0:
        raise TrivialCollapse(
            f"iterate collapsed onto the origin (u(0) = {u[0]:.2e})")
    return nu_norm


def ground_state(grid: RadialGrid, u: np.ndarray, params: ModelParams,
                 iterations: int, A: sp.csr_matrix) -> GroundState:
    """The GroundState of the field u on `grid`: v from the Hartree sweep,
    the residual ratio |F(u)| / (lam |u|) in the r^2 dr norm with its
    rounding floor, and the diagnostics, all from the grid's -Delta_r A
    (operators.radial_laplacian, built by the caller) and one Coulomb sweep.
    A u whose length is not grid.n raises ValueError."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise ValueError(f"field length {u.shape} != grid n {grid.n}")
    F, v = _residual_values(u, params, grid, A)
    return GroundState(
        params=params, grid=grid, u=u, v=v,
        residual_norm=_wnorm(grid, F) / (params.lam * _wnorm(grid, u)),
        residual_floor=residual_floor(grid, A, u, params.lam),
        iterations=iterations, diagnostics=identities(grid, u, v, params, A))


def newton_solve(grid: RadialGrid, guess: np.ndarray,
                 params: ModelParams) -> GroundState:
    """Damped Newton from the field `guess` on `grid`, with a deterministic
    warm start; see module docstring.

    Raises TrivialCollapse / NonConvergence / NegativeStateDetected; a
    NonConvergence from a stalled line search or at MAX_ITER carries the
    GroundState of the last (lowest-residual) iterate as its `state`.
    """
    A = operators.radial_laplacian(grid)
    u = np.array(guess, dtype=float)
    u[-2:] = 0.0
    if np.max(np.abs(u)) < TRIVIAL_SUP:
        raise TrivialCollapse("initial guess is numerically zero")
    weighted = operators._weighted_bands(grid, EVEN)
    u = _warm_start(u, params, grid, A, weighted)
    _live_norm(grid, u)   # a collapsed warm start is typed before |u| divides
    stop = max(TOL, residual_floor(grid, A, u, params.lam)) * params.lam
    bands = _step_bands(grid, weighted)
    del weighted

    def stalled(message, iterations):
        state = ground_state(grid, u, params, iterations, A)
        return NonConvergence(f"{message} for {params.label()}", state=state)

    it = 0
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        F, v = _residual_values(u, params, grid, A)
        nF = _wnorm(grid, F)
    if not math.isfinite(nF):
        raise NonConvergence(f"warm start for {params.label()}: non-finite residual norm")
    for it in range(1, MAX_ITER + 1):
        if nF <= stop * _live_norm(grid, u):
            break

        d = _newton_step(u, v, F, params, grid, bands)

        t, accepted = 1.0, False
        with np.errstate(over="ignore", invalid="ignore"):   # NaN norms fail
            for _ in range(DAMPING + 1):
                F_try, v_try = _residual_values(u + t * d, params, grid, A)
                if _wnorm(grid, F_try) < nF:
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            raise stalled(f"line search stalled at |F| = {nF:.3e}", it)
        u = u + t * d
        F, v = F_try, v_try
        nF = _wnorm(grid, F)
    else:
        # the last update may have converged
        if not nF <= stop * _live_norm(grid, u):
            raise stalled(f"no convergence in {MAX_ITER} iterations", MAX_ITER)

    sup = float(np.max(u))
    if np.min(u[:-2]) < -1e-10 * max(sup, abs(float(np.min(u)))):
        raise NegativeStateDetected(
            f"converged to a sign-changing branch (min {np.min(u):.2e})")

    del bands   # ground_state's operators need not coexist with the workspace
    return ground_state(grid, u, params, it, A)


def acceptance_failures(state: GroundState) -> list:
    """What keeps `state` from being accepted, empty when nothing does:
    ("residual_norm", residual_norm, residual_bound) and ("identity_residuals",
    nehari, pohozaev) beyond IDENTITY_RTOL G."""
    failures = []
    if not state.residual_norm <= state.residual_bound:
        failures.append(("residual_norm", state.residual_norm,
                         state.residual_bound))
    rep = state.diagnostics
    G = rep.grad_sq
    if abs(rep.nehari) > IDENTITY_RTOL * G or abs(rep.pohozaev) > IDENTITY_RTOL * G:
        failures.append(("identity_residuals", rep.nehari, rep.pohozaev))
    return failures


def _solve_grid(params: ModelParams, n: int) -> RadialGrid:
    """The n-node grid on the auto_rmax(lam) domain: the one rule for the
    grid of `solve` and of `uniqueness_scan`."""
    return make_grid(auto_rmax(params.lam), n)


def solve(params: ModelParams, n: int) -> GroundState:
    """The ground state of `params` on n nodes, solved from default_guess on
    `_solve_grid`: the one rule that picks a solve's domain and start from
    (params, n)."""
    grid = _solve_grid(params, n)
    return newton_solve(grid, default_guess(params, grid), params)


# -- multistart uniqueness scan ---------------------------------------------------


@dataclass
class ScanResult:
    distinct_states: list
    failed: int
    converged: int


def _sup_distance_rel(u1: np.ndarray, u2: np.ndarray) -> float:
    scale = max(np.max(np.abs(u1)), np.max(np.abs(u2)), 1e-300)
    return float(np.max(np.abs(u1 - u2))) / scale


def uniqueness_scan(params: ModelParams, n_starts: int, rng_seed: int,
                    n: int) -> ScanResult:
    """Multi-start evidence for uniqueness: seeded Gaussian guesses
    c exp(-kappa r^2) with (c, kappa) log-uniform over [1e-2, 1e2]^2, on the
    n-node grid of `solve`.

    Converged positive states are deduplicated by relative sup distance;
    everything else (non-convergence, collapse, sign change) counts as failed.
    """
    if n_starts < 2:
        raise ValueError("n_starts >= 2")
    grid = _solve_grid(params, n)
    rng = np.random.default_rng(rng_seed)
    draws = 10.0 ** rng.uniform(-2.0, 2.0, size=(n_starts, 2))
    distinct: list[GroundState] = []
    failed = 0
    converged = 0
    for c, kappa in draws:
        guess = c * np.exp(-kappa * grid.nodes**2)
        guess[-2:] = 0.0
        try:
            state = newton_solve(grid, guess, params)
        except (NonConvergence, TrivialCollapse, NegativeStateDetected):
            failed += 1
            continue
        converged += 1
        for known in distinct:
            if _sup_distance_rel(state.u, known.u) <= DEDUP_TOL:
                break
        else:
            distinct.append(state)
    return ScanResult(distinct_states=distinct, failed=failed, converged=converged)
