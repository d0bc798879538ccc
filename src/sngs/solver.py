"""Ground states of -Delta u + lambda u = a (I_2 * u^2) u + nu u^(q-1).

The potential v = I_2 * u^2 is eliminated exactly at every evaluation through
the Newton-theorem sweep, so the nonlinear map F acts on u alone and its
Jacobian is self-adjoint in the r^2-weighted inner product.  newton_solve runs
a deterministic spectral-renormalization warm start (amplitude-stabilized
Picard iteration; plain damped Newton from generic bumps measurably stalls on
a near-singular Jacobian ridge between the trivial and ground branches),
then damped Newton.  The warm start factors the symmetric weighted form
S + lam W once by banded Cholesky and stops as soon as its Rayleigh ratio is
within WARM_TOL of 1 (warm_iters caps the sweeps).  Newton stops at
|F| <= max(tol, floor) lam |u| in the r^2 dr norm, where `residual_floor` is
the rounding level of F, taken once per solve after the warm start.
Every GroundState comes from `ground_state`, whose residual_norm is the
scale-invariant ratio |F(u)| / (lam |u|): by the mu/nu maps of `scaling`,
F = lam^(alpha+1) F~, so it equals the relative residual of the normal-form
member at lam = 1 and means the same at every lambda; residual_floor is the
rounding level of that ratio at the state.  `continuation_path` moves lambda
alone, to one target per call.  Each Newton step J d = -F is solved exactly
as one banded system: the Coulomb sweep without its Euler-Maclaurin diagonal
has a tridiagonal inverse (hartree.coulomb_inverse_bands), so adding y = r w
with w the screening potential of the step as unknowns turns the dense nonlocal
Jacobian into a system of bandwidth 4 when d and y are interleaved.  The
step-independent entries of that band matrix are built once per solve
(`_step_bands`); every step copies them into one workspace, adds the
u-dependent entries and solves in place with LAPACK's dgbsv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv

from . import operators
from .errors import (BadRange, ContinuationStuck, InvalidExponent,
                     NegativeStateDetected, NonConvergence, TrivialCollapse,
                     WrongParams)
from .grid import EVEN, RadialField, RadialGrid, make_grid
from .hartree import coulomb_apply, coulomb_inverse_bands

TRIVIAL_SUP = 1e-8
DAMPING = 20          # max step halvings per Newton iteration
WARM_TOL = 1e-4       # the warm start stops at |Rayleigh ratio - 1| <= WARM_TOL
DEDUP_TOL = 1e-6      # relative sup distance under which two scan states agree


@dataclass(frozen=True)
class ModelParams:
    """One member of the family -Delta u + lam u = a (I_2*u^2) u + nu u^(q-1).

    The Kwong profile W is (lam=1, a=0, nu=1, q); the Choquard profile U is
    (lam=1, a=1, nu=0, q arbitrary); the symmetric convention used by the
    sector analysis doubles a.
    """
    lam: float
    a: float
    nu: float
    q: float

    def __post_init__(self):
        if not (2.0 < self.q < 6.0) or self.q == 3.0:
            raise InvalidExponent(f"q = {self.q} outside (2,3) u (3,6)")
        if not (self.a >= 0 and self.nu >= 0):
            raise BadRange(f"a = {self.a}, nu = {self.nu}: both must be >= 0")
        if self.a == 0 and self.nu == 0:
            raise BadRange("at least one of a, nu must be positive")
        if not (0 < self.lam < math.inf):
            raise BadRange(f"lam = {self.lam} must be positive and finite")

    def label(self):
        return f"(lam={self.lam:g}, a={self.a:g}, nu={self.nu:g}, q={self.q:g})"


@dataclass
class SolverOptions:
    tol: float = 1e-10           # relative residual in the r^2-weighted norm
    max_iter: int = 60
    warm_iters: int = 60         # cap on the spectral-renormalization sweeps


@dataclass
class GroundState:
    params: ModelParams
    u: RadialField
    v: RadialField
    residual_norm: float        # |F(u)| / (lam |u|), r^2 dr norms
    residual_floor: float       # rounding level of residual_norm at u
    iterations: int
    grid: RadialGrid
    diagnostics: Optional[object] = field(default=None, repr=False)

    def sup_u(self) -> float:
        return float(np.max(np.abs(self.u.values)))

    def sup_v(self) -> float:
        return float(np.max(np.abs(self.v.values)))


def auto_rmax(lam: float) -> float:
    """Domain size with e^(-sqrt(lam) r_max) < 1e-12 and the decay length
    resolved: 28 / sqrt(lam)."""
    return 28.0 / math.sqrt(lam)


def default_guess(params: ModelParams, grid: RadialGrid) -> RadialField:
    """Gaussian bump at the lambda decay scale; the warm start fixes amplitude."""
    r = grid.nodes
    vals = np.exp(-math.sqrt(params.lam) * r**2 / 4.0)
    vals[-2:] = 0.0
    return RadialField(grid=grid, values=vals, parity=EVEN)


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
    v = coulomb_apply(grid, u * u) if params.a != 0.0 else np.zeros(grid.n)
    F = A @ u + params.lam * u - params.a * v * u - params.nu * _power(u, params.q - 1.0)
    F[-2] = u[-2]
    F[-1] = u[-1]
    return F, v


def residual(u: RadialField, params: ModelParams) -> RadialField:
    """F(u) = -Delta_r u + lam u - a v(u) u - nu u^(q-1); boundary rows carry
    the origin limit (row 0) and the Dirichlet pad values."""
    A = operators.radial_laplacian(u.grid)
    F, _ = _residual_values(u.values, params, u.grid, A)
    return RadialField(grid=u.grid, values=F, parity=EVEN)


def apply_jacobian(u: RadialField, delta: RadialField, params: ModelParams) -> RadialField:
    """Matrix-free J(u) delta, with the nonlocal screening term
    -a u (I_2 * (2 u delta)) from the same two-sweep as the potential."""
    if delta.grid != u.grid:
        raise WrongParams("direction lives on a different grid")
    grid, uv, d = u.grid, u.values, delta.values
    A = operators.radial_laplacian(grid)
    v = coulomb_apply(grid, uv**2) if params.a != 0.0 else np.zeros(grid.n)
    y = A @ d + _local_potential(uv, v, params) * d
    if params.a != 0.0:
        screen = params.a * uv * coulomb_apply(grid, 2.0 * uv * d)
        screen[-2:] = 0.0
        y -= screen
    return RadialField(grid=grid, values=y, parity=EVEN)


def _local_potential(u: np.ndarray, v: np.ndarray, params: ModelParams) -> np.ndarray:
    pot = params.lam - params.a * v - params.nu * _dpower(u, params.q - 1.0)
    pot[-2:] = 0.0   # keep the Dirichlet pad rows as pure identities
    return pot


@dataclass
class _StepBands:
    """The Newton band matrix of one solve.  The workspace `ab` is dgbsv
    storage (13 rows, Fortran order); its rows 4..12 hold the matrix, entry
    (i, j) of the interleaved system at row 4 + i - j of ab[4:], and its rows
    0..3 are the LU fill-in space, which dgbsv need not find set."""
    fixed: np.ndarray   # the step-independent entries of ab[4:]
    src: np.ndarray     # sweep source weights (coulomb_inverse_bands)
    em: np.ndarray      # Euler-Maclaurin diagonal of the sweep
    ab: np.ndarray      # workspace: fixed plus u-dependent entries
    b: np.ndarray       # workspace: the right-hand side


def _slots(n: int):
    """Slots of d_i (i = 0..n-1) and y_j (j = 1..n-1) in d_0, d_1, y_1, d_2, ..."""
    sd = 2 * np.arange(n) - 1
    sd[0] = 0
    return sd, sd[1:] + 1


def _step_bands(grid: RadialGrid, A: sp.csr_matrix) -> _StepBands:
    """The Laplacian entries and the sweep rows of the Newton band matrix,
    which no iterate changes, and the workspace every step solves in."""
    n = grid.n
    diag, off, src, em = coulomb_inverse_bands(grid)
    sd, sy = _slots(n)
    fixed = np.zeros((9, 2 * n - 1))
    Ac = A.tocoo()
    fixed[4 + sd[Ac.row] - sd[Ac.col], sd[Ac.col]] = Ac.data
    # sweep rows: tridiag(off, diag, off) y - 2 src u d = 0
    fixed[4, sy] = diag
    fixed[2, sy[1:]] = off
    fixed[6, sy[:-1]] = off
    return _StepBands(fixed=fixed, src=src, em=em,
                      ab=np.empty((13, 2 * n - 1), order="F"),
                      b=np.empty(2 * n - 1))


def _newton_step(u, v, F, params, grid, bands: _StepBands):
    """Exact solution d of J(u) d = -F through one banded LU.

    The unknowns are d and y = r w with w = K0(2 u d), K0 the Coulomb sweep
    without its Euler-Maclaurin diagonal em; then K(2 u d) = w + 2 em u d
    and tridiag(off, diag, off) y = 2 src u d on nodes 1..n-1.  Interleaving
    d_0, d_1, y_1, d_2, y_2, ... gives bandwidth 4 on each side.  The
    u-dependent entries go on top of `bands.fixed` in the workspace, which
    dgbsv overwrites.  A non-finite or singular system raises NonConvergence.
    """
    n, r = grid.n, grid.nodes
    sd, sy = _slots(n)
    au = params.a * u
    au[-2:] = 0.0   # the Dirichlet pad rows carry no screening term
    pot = _local_potential(u, v, params) - 2.0 * bands.em * au * u
    screen = -au / np.r_[r[1], r[1:]]   # w_i = y_i / r_i and w_0 = y_1 / r_1
    source = -2.0 * bands.src[1:] * u[1:]
    if not all(np.isfinite(x).all() for x in (pot, screen, source, F)):
        raise NonConvergence(f"Newton step for {params.label()}: "
                             "non-finite Jacobian or residual")
    band, b = bands.ab[4:], bands.b
    np.copyto(band, bands.fixed)
    band[4, sd] += pot
    # screening rows: -a u_i w_i
    band[3, sy] = screen[1:]
    band[2, sy[0]] = screen[0]
    band[5, sd[1:]] = source
    b.fill(0.0)
    b[sd] = -F
    _, _, x, info = dgbsv(4, 4, bands.ab, b, overwrite_ab=True,
                          overwrite_b=True)
    if info != 0:
        raise NonConvergence(
            f"Newton step for {params.label()}: singular band matrix (info {info})")
    return x[sd]


def _wnorm(grid: RadialGrid, x: np.ndarray) -> float:
    return math.sqrt(float(np.dot(grid.weights_r2dr, x * x)))


def _shifted_solve(grid: RadialGrid, A: sp.csr_matrix, lam: float):
    """Solver of (A + lam) w = N, lam masked on the Dirichlet pad, for fields N
    that vanish on the pad.

    On the active nodes 1..n-3 the system is W^-1 (S + lam W) with S the
    symmetric weighted form (operators.dirichlet_form), so S + lam W is
    factored once by banded Cholesky: rows 1 and 2 couple into node 0 only
    through r_0 = 0, and w vanishes on the pad.  w_0 then follows from row 0
    of A, the origin limit.
    """
    n = grid.n
    W = grid.weights_r2dr
    S = operators.dirichlet_form(grid)
    ab = np.zeros((3, n - 3))
    ab[0, 2:] = S.diagonal(2)
    ab[1, 1:] = S.diagonal(1)
    ab[2] = S.diagonal() + lam * W[1:n - 2]
    chol = (sla.cholesky_banded(ab, check_finite=False), False)
    a00, a01, a02 = A[0, :3].toarray().ravel()

    def solve(N):
        w = np.zeros(n)
        w[1:n - 2] = sla.cho_solve_banded(chol, (W * N)[1:n - 2],
                                          check_finite=False)
        w[0] = (N[0] - a01 * w[1] - a02 * w[2]) / (a00 + lam)
        return w
    return solve


def _warm_start(u, params, grid, A, sweeps):
    """Amplitude-stabilized Picard iteration (spectral renormalization).

    u <- S^gamma (A + lam)^(-1) N(u) with S the Rayleigh ratio of the linear
    and nonlinear pairings; gamma from the dominant homogeneity of N.  Stops
    once |S - 1| <= WARM_TOL or after `sweeps` sweeps.  On a grid too coarse
    for the state the iteration can blow up: the first non-finite ratio or
    iterate raises NonConvergence, and the overflow that produced it is not
    reported as a warning.
    """
    if sweeps <= 0:
        return u
    W = grid.weights_r2dr
    solve = _shifted_solve(grid, A, params.lam)
    gamma = 1.5 if params.a > 0 else (params.q - 1.0) / (params.q - 2.0)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        for sweep in range(1, sweeps + 1):
            if np.max(np.abs(u)) < TRIVIAL_SUP:
                break
            v = coulomb_apply(grid, u * u) if params.a != 0.0 else 0.0
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
    return (np.finfo(float).eps * _wnorm(grid, abs(A) @ np.abs(u))
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


def ground_state(u: RadialField, params: ModelParams,
                 iterations: int) -> GroundState:
    """The GroundState of the field u: v from the Hartree sweep, the residual
    ratio |F(u)| / (lam |u|) in the r^2 dr norm with its rounding floor, and
    the identities, all from one -Delta_r and one Coulomb sweep."""
    grid = u.grid
    A = operators.radial_laplacian(grid)
    F, v = _residual_values(u.values, params, grid, A)
    if params.a == 0.0:   # the residual skipped the sweep
        v = coulomb_apply(grid, u.values * u.values)
    res = _wnorm(grid, F) / (params.lam * _wnorm(grid, u.values))
    state = GroundState(params=params, u=u,
                        v=RadialField(grid=grid, values=v, parity=EVEN),
                        residual_norm=res,
                        residual_floor=residual_floor(grid, A, u.values,
                                                      params.lam),
                        iterations=iterations, grid=grid)
    from .diagnostics import identities  # deferred: diagnostics uses GroundState
    state.diagnostics = identities(state, A)
    return state


def newton_solve(guess: RadialField, params: ModelParams,
                 opts: SolverOptions | None = None) -> GroundState:
    """Damped Newton with a deterministic warm start; see module docstring.

    Raises TrivialCollapse / NonConvergence / NegativeStateDetected; a
    NonConvergence from a stalled line search or at max_iter carries the
    last (lowest-residual) iterate as its `state`.
    """
    opts = opts or SolverOptions()
    grid = guess.grid
    A = operators.radial_laplacian(grid)
    u = guess.values.astype(float).copy()
    u[-2:] = 0.0
    if np.max(np.abs(u)) < TRIVIAL_SUP:
        raise TrivialCollapse("initial guess is numerically zero")
    u = _warm_start(u, params, grid, A, opts.warm_iters)
    _live_norm(grid, u)   # a collapsed warm start is typed before |u| divides
    stop = max(opts.tol, residual_floor(grid, A, u, params.lam)) * params.lam
    bands = _step_bands(grid, A)

    def stalled(message, nu_norm, iterations):
        return NonConvergence(
            f"{message} for {params.label()}",
            state=RadialField(grid=grid, values=u.copy(), parity=EVEN),
            residual_norm=nF / (params.lam * nu_norm), iterations=iterations)

    it = 0
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        F, v = _residual_values(u, params, grid, A)
        nF = _wnorm(grid, F)
    if not math.isfinite(nF):
        raise NonConvergence(f"warm start for {params.label()}: non-finite residual norm")
    for it in range(1, opts.max_iter + 1):
        nu_norm = _live_norm(grid, u)
        if nF <= stop * nu_norm:
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
            raise stalled(f"line search stalled at |F| = {nF:.3e}", nu_norm, it)
        u = u + t * d
        F, v = F_try, v_try
        nF = _wnorm(grid, F)
    else:
        nu_norm = _live_norm(grid, u)
        # the last update may have converged
        if not nF <= stop * nu_norm:
            raise stalled(f"no convergence in {opts.max_iter} iterations",
                          nu_norm, opts.max_iter)

    sup = float(np.max(u))
    if np.min(u[:-2]) < -1e-10 * max(sup, abs(float(np.min(u)))):
        raise NegativeStateDetected(
            f"converged to a sign-changing branch (min {np.min(u):.2e})")

    del bands   # ground_state's operators need not coexist with the workspace
    return ground_state(RadialField(grid=grid, values=u, parity=EVEN), params, it)


# -- canonical reference profiles ----------------------------------------------


def reference_profile(kind: str, grid: RadialGrid, q: float | None = None) -> GroundState:
    """Kwong profile W (kind='kwong', exponent q) or Choquard profile U
    (kind='choquard') on the given grid."""
    if kind == "kwong":
        if q is None:
            raise WrongParams("kwong profile needs q")
        params = ModelParams(lam=1.0, a=0.0, nu=1.0, q=q)
    elif kind == "choquard":
        params = ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0)  # q inert at nu=0
    else:
        raise WrongParams(f"unknown reference kind {kind!r}")
    r = grid.nodes
    if kind == "kwong":
        c = 3.0 * (q / 2.0) ** (1.0 / (q - 2.0))
        kap = (q - 2.0) / 2.0
        vals = c / np.cosh(kap * r) ** (2.0 / (q - 2.0))
    else:
        vals = 2.0 * np.exp(-r**2 / 4.0)
    vals[-2:] = 0.0
    guess = RadialField(grid=grid, values=vals, parity=EVEN)
    return newton_solve(guess, params, SolverOptions())


# -- continuation ----------------------------------------------------------------


def _rescale_seed(state: GroundState, lam_new: float) -> RadialField:
    """Seed for a new lambda: nodally exact scaling-map transfer.

    The grid stretches with the decay length (r_max ~ 1/sqrt(lam)), so
    u_new[j] = s^alpha u_old[j] with s = lam_new/lam_old; alpha is that of
    the normal form of the limit profile the step moves toward.
    """
    from .scaling import limit_regime, normal_form
    p = state.params
    s = lam_new / p.lam
    side = "zero" if lam_new < p.lam else "infinity"
    alpha, _ = normal_form(p.q, s, limit_regime(p.q, side)[0])
    new_grid = make_grid(state.grid.r_max / math.sqrt(s), state.grid.n)
    return RadialField(grid=new_grid, values=(s ** alpha) * state.u.values,
                       parity=EVEN)


def continuation_path(seed: GroundState, lam: float,
                      opts: SolverOptions | None = None) -> GroundState:
    """The ground state at `lam` of the seed's family, reached from `seed`.

    Newton starts from the rescaled seed without a warm start.  A failed
    solve first solves at the geometric midpoint in lambda and retries from
    there; the 7th failure raises ContinuationStuck.  Returns `seed` itself
    when lam is its lambda.
    """
    # Newton corrects the rescale; the warm start would discard the seed
    opts = replace(opts or SolverOptions(), warm_iters=0)
    current, stack, depth = seed, [float(lam)], 0
    while stack:
        goal = replace(seed.params, lam=stack[-1])
        try:
            if goal != current.params:
                current = newton_solve(_rescale_seed(current, goal.lam), goal,
                                       opts)
            stack.pop()
        except (NonConvergence, TrivialCollapse, NegativeStateDetected):
            depth += 1
            if depth > 6:
                raise ContinuationStuck(
                    f"minimum step reached near {goal.label()}")
            stack.append(math.sqrt(current.params.lam * goal.lam))
    return current


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
                    grid: RadialGrid) -> ScanResult:
    """Multi-start evidence for uniqueness: seeded Gaussian guesses
    c exp(-kappa r^2) with (c, kappa) log-uniform over [1e-2, 1e2]^2.

    Converged positive states are deduplicated by relative sup distance;
    everything else (non-convergence, collapse, sign change) counts as failed.
    """
    if n_starts < 2:
        raise ValueError("n_starts >= 2")
    opts = SolverOptions(max_iter=40, warm_iters=50)
    rng = np.random.default_rng(rng_seed)
    draws = 10.0 ** rng.uniform(-2.0, 2.0, size=(n_starts, 2))
    distinct: list[GroundState] = []
    failed = 0
    converged = 0
    for c, kappa in draws:
        vals = c * np.exp(-kappa * grid.nodes**2)
        vals[-2:] = 0.0
        guess = RadialField(grid=grid, values=vals, parity=EVEN)
        try:
            state = newton_solve(guess, params, opts)
        except (NonConvergence, TrivialCollapse, NegativeStateDetected):
            failed += 1
            continue
        converged += 1
        for known in distinct:
            if _sup_distance_rel(state.u.values, known.u.values) <= DEDUP_TOL:
                break
        else:
            distinct.append(state)
    return ScanResult(distinct_states=distinct, failed=failed, converged=converged)
