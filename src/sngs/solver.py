"""Ground states of -Delta u + lambda u = a (I_2 * u^2) u + nu u^(q-1).

The potential v = I_2 * u^2 is eliminated exactly at every evaluation through
the Newton-theorem sweep, so the nonlinear map F acts on u alone and its
Jacobian is self-adjoint in the r^2-weighted inner product.  newton_solve runs
a deterministic spectral-renormalization warm start (amplitude-stabilized
Picard iteration; plain damped Newton from generic bumps measurably stalls on
a near-singular Jacobian ridge between the trivial and ground branches),
then damped Newton, stopped at |F| <= tol lam |u| in the r^2 dr norm.
Every GroundState comes from `ground_state`, whose residual_norm is the
scale-invariant ratio |F(u)| / (lam |u|): by the mu/nu maps of `scaling`,
F = lam^(alpha+1) F~, so it equals the relative residual of the normal-form
member at lam = 1 and means the same at every lambda.  Continuation moves
lambda alone.  Each Newton step J d = -F is solved exactly as one
banded system: the Coulomb sweep without its Euler-Maclaurin diagonal has a
tridiagonal inverse (hartree.coulomb_inverse_bands), so adding y = r w with
w the screening potential of the step as unknowns turns the dense nonlocal
Jacobian into a system of bandwidth 4 when d and y are interleaved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import operators
from .errors import (ContinuationStuck, InvalidExponent, NegativeStateDetected,
                     NonConvergence, TrivialCollapse, WrongParams)
from .grid import EVEN, RadialField, RadialGrid, make_grid
from .hartree import coulomb_apply, coulomb_inverse_bands, hartree_potential

TRIVIAL_SUP = 1e-8
DAMPING = 20          # max step halvings per Newton iteration
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
        if self.a < 0 or self.nu < 0:
            raise ValueError("a and nu must be nonnegative")
        if self.a == 0 and self.nu == 0:
            raise ValueError("at least one of a, nu must be positive")
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def label(self):
        return f"(lam={self.lam:g}, a={self.a:g}, nu={self.nu:g}, q={self.q:g})"


@dataclass
class SolverOptions:
    tol: float = 1e-10           # relative residual in the r^2-weighted norm
    max_iter: int = 60
    warm_iters: int = 60         # spectral-renormalization warm-start sweeps


@dataclass
class GroundState:
    params: ModelParams
    u: RadialField
    v: RadialField
    residual_norm: float        # |F(u)| / (lam |u|), r^2 dr norms
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


def _newton_step(u, v, F, params, grid, A):
    """Exact solution d of J(u) d = -F through one banded LU.

    The unknowns are d and y = r w with w = K0(2 u d), K0 the Coulomb sweep
    without its Euler-Maclaurin diagonal em; then K(2 u d) = w + 2 em u d
    and tridiag(off, diag, off) y = 2 src u d on nodes 1..n-1.  Interleaving
    d_0, d_1, y_1, d_2, y_2, ... gives bandwidth 4 on each side, written
    straight into LAPACK band storage (row 4 + i - j holds entry (i, j)).
    """
    n, r = grid.n, grid.nodes
    diag, off, src, em = coulomb_inverse_bands(grid)
    sd = 2 * np.arange(n) - 1   # slot of d_i
    sd[0] = 0
    sy = sd[1:] + 1             # slot of y_j, j = 1..n-1
    ab = np.zeros((9, 2 * n - 1))
    Ac = A.tocoo()
    ab[4 + sd[Ac.row] - sd[Ac.col], sd[Ac.col]] = Ac.data
    au = params.a * u
    au[-2:] = 0.0   # the Dirichlet pad rows carry no screening term
    ab[4, sd] += _local_potential(u, v, params) - 2.0 * em * au * u
    # screening rows: -a u_i w_i with w_i = y_i / r_i and w_0 = y_1 / r_1
    ab[3, sy] = -au[1:] / r[1:]
    ab[2, sy[0]] = -au[0] / r[1]
    # sweep rows: tridiag(off, diag, off) y - 2 src u d = 0
    ab[4, sy] = diag
    ab[2, sy[1:]] = off
    ab[6, sy[:-1]] = off
    ab[5, sd[1:]] = -2.0 * src[1:] * u[1:]
    b = np.zeros(2 * n - 1)
    b[sd] = -F
    try:
        x = sla.solve_banded((4, 4), ab, b, overwrite_ab=True, overwrite_b=True)
    except (np.linalg.LinAlgError, ValueError) as exc:   # singular or non-finite
        raise NonConvergence(f"Newton step for {params.label()}: {exc}") from exc
    return x[sd]


def _wnorm(grid: RadialGrid, x: np.ndarray) -> float:
    return math.sqrt(float(np.dot(grid.weights_r2dr, x * x)))


def _warm_start(u, params, grid, A, sweeps):
    """Amplitude-stabilized Picard iteration (spectral renormalization).

    u <- S^gamma (A + lam)^(-1) N(u) with S the Rayleigh ratio of the linear
    and nonlinear pairings; gamma from the dominant homogeneity of N.
    """
    if sweeps <= 0:
        return u
    W = grid.weights_r2dr
    lu = operators.banded_lu(A + params.lam * _identity_masked(grid))
    gamma = 1.5 if params.a > 0 else (params.q - 1.0) / (params.q - 2.0)
    for _ in range(sweeps):
        if np.max(np.abs(u)) < TRIVIAL_SUP:
            break
        v = coulomb_apply(grid, u * u) if params.a != 0.0 else 0.0
        N = params.a * v * u + params.nu * _power(u, params.q - 1.0)
        num = float(np.dot(W * u, A @ u + params.lam * u))
        den = float(np.dot(W * u, N))
        if den <= 0.0 or not np.isfinite(den) or num <= 0.0:
            break
        w = lu.solve(N)
        w[-2:] = 0.0
        u = (num / den) ** gamma * w
    return u


def _identity_masked(grid: RadialGrid) -> sp.csr_matrix:
    """Identity with zeros at the two Dirichlet pad rows (already identities
    inside the Laplacian)."""
    d = np.ones(grid.n)
    d[-2:] = 0.0
    return sp.diags(d).tocsr()


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
    ratio |F(u)| / (lam |u|) in the r^2 dr norm, and the identities."""
    grid = u.grid
    F = residual(u, params).values
    res = _wnorm(grid, F) / (params.lam * _wnorm(grid, u.values))
    state = GroundState(params=params, u=u, v=hartree_potential(u).v,
                        residual_norm=res, iterations=iterations, grid=grid)
    from .diagnostics import identities  # deferred: diagnostics uses GroundState
    state.diagnostics = identities(state)
    return state


def newton_solve(guess: RadialField, params: ModelParams,
                 opts: SolverOptions | None = None) -> GroundState:
    """Damped Newton with a deterministic warm start; see module docstring.

    Raises TrivialCollapse / NonConvergence / NegativeStateDetected.
    """
    opts = opts or SolverOptions()
    grid = guess.grid
    A = operators.radial_laplacian(grid)
    u = guess.values.astype(float).copy()
    u[-2:] = 0.0
    if np.max(np.abs(u)) < TRIVIAL_SUP:
        raise TrivialCollapse("initial guess is numerically zero")
    u = _warm_start(u, params, grid, A, opts.warm_iters)

    it = 0
    F, v = _residual_values(u, params, grid, A)
    nF = _wnorm(grid, F)
    for it in range(1, opts.max_iter + 1):
        nu_norm = _live_norm(grid, u)
        if nF <= opts.tol * params.lam * nu_norm:
            break

        d = _newton_step(u, v, F, params, grid, A)

        t, accepted = 1.0, False
        for _ in range(DAMPING + 1):
            F_try, v_try = _residual_values(u + t * d, params, grid, A)
            if _wnorm(grid, F_try) < nF:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NonConvergence(
                f"line search stalled at |F| = {nF:.3e} for {params.label()}",
                residual_norm=nF / (params.lam * nu_norm), iterations=it)
        u = u + t * d
        F, v = F_try, v_try
        nF = _wnorm(grid, F)
    else:
        nu_norm = _live_norm(grid, u)
        # the last update may have converged
        if not nF <= opts.tol * params.lam * nu_norm:
            raise NonConvergence(
                f"no convergence in {opts.max_iter} iterations for {params.label()}",
                residual_norm=nF / (params.lam * nu_norm),
                iterations=opts.max_iter)

    sup = float(np.max(u))
    if np.min(u[:-2]) < -1e-10 * max(sup, abs(float(np.min(u)))):
        raise NegativeStateDetected(
            f"converged to a sign-changing branch (min {np.min(u):.2e})")

    return ground_state(RadialField(grid=grid, values=u, parity=EVEN), params, it)


# -- canonical reference profiles ----------------------------------------------

_ref_cache: dict = {}


def reference_profile(kind: str, grid: RadialGrid, q: float | None = None) -> GroundState:
    """Kwong profile W (kind='kwong', exponent q) or Choquard profile U
    (kind='choquard') on the given grid; results are cached per (kind, q, grid)."""
    if kind == "kwong":
        if q is None:
            raise WrongParams("kwong profile needs q")
        params = ModelParams(lam=1.0, a=0.0, nu=1.0, q=q)
    elif kind == "choquard":
        params = ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0)  # q inert at nu=0
    else:
        raise WrongParams(f"unknown reference kind {kind!r}")
    key = (kind, None if kind == "choquard" else float(q), grid.key())
    hit = _ref_cache.get(key)
    if hit is not None:
        return hit
    r = grid.nodes
    if kind == "kwong":
        c = 3.0 * (q / 2.0) ** (1.0 / (q - 2.0))
        kap = (q - 2.0) / 2.0
        vals = c / np.cosh(kap * r) ** (2.0 / (q - 2.0))
    else:
        vals = 2.0 * np.exp(-r**2 / 4.0)
    vals[-2:] = 0.0
    guess = RadialField(grid=grid, values=vals, parity=EVEN)
    state = newton_solve(guess, params, SolverOptions())
    _ref_cache[key] = state
    return state


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


def continuation_path(from_params: ModelParams, to_params: ModelParams,
                      steps: int, seed: GroundState,
                      opts: SolverOptions | None = None) -> list[GroundState]:
    """Solve along a geometric lambda path, reusing rescaled previous states.

    lambda is the only continuation parameter: from_params and to_params
    must differ in nothing else.  Returns `steps` states at the interpolated
    lambdas (the first one is the seed when the path starts at its
    parameters).  A failed step is bisected up to 6 times before
    ContinuationStuck.
    """
    if seed.params != from_params:
        raise WrongParams("seed was not converged at from_params")
    if replace(from_params, lam=to_params.lam) != to_params:
        raise WrongParams("lambda is the only continuation parameter")
    if steps < 1:
        raise ValueError("steps >= 1")
    opts = opts or SolverOptions()
    # steps points along the geometric path, ending at to_params; the seed's
    # own parameter point is not repeated (a trivial from == to path returns
    # the seed itself)
    lams = np.geomspace(from_params.lam, to_params.lam, steps + 1)[1:]

    out: list[GroundState] = []
    current = seed

    def solve_at(target: ModelParams, src: GroundState) -> GroundState:
        if target == src.params:
            return src
        # seeded solves skip the warm start; Newton corrects the rescale
        o = replace(opts, warm_iters=0)
        return newton_solve(_rescale_seed(src, target.lam), target, o)

    for lam in lams:
        stack = [replace(from_params, lam=float(lam))]
        depth = 0
        while stack:
            goal = stack[-1]
            try:
                current = solve_at(goal, current)
                stack.pop()
            except (NonConvergence, TrivialCollapse, NegativeStateDetected):
                depth += 1
                if depth > 6:
                    raise ContinuationStuck(
                        f"minimum step reached near {goal.label()}")
                stack.append(replace(
                    from_params, lam=math.sqrt(current.params.lam * goal.lam)))
        out.append(current)
    return out


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
                    grid: RadialGrid | None = None,
                    opts: SolverOptions | None = None) -> ScanResult:
    """Multi-start evidence for uniqueness: seeded Gaussian guesses
    c exp(-kappa r^2) with (c, kappa) log-uniform over [1e-2, 1e2]^2.

    Converged positive states are deduplicated by relative sup distance;
    everything else (non-convergence, collapse, sign change) counts as failed.
    """
    if n_starts < 2:
        raise ValueError("n_starts >= 2")
    grid = grid or make_grid(auto_rmax(params.lam), 4096)
    opts = opts or SolverOptions(max_iter=40, warm_iters=50)
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
