"""Ground states of -Delta u + lambda u = a (I_2 * u^2) u + nu u^(q-1).

The potential v = I_2 * u^2 is eliminated exactly at every evaluation through
the Newton-theorem sweep, so the nonlinear map F acts on u alone and its
Jacobian is self-adjoint in the r^2-weighted inner product.  newton_solve runs
a deterministic spectral-renormalization warm start (amplitude-stabilized
Picard iteration; plain damped Newton from generic bumps measurably stalls on
a near-singular Jacobian ridge between the trivial and ground branches),
then damped Newton.  Each solve assembles the stencil once, as
operators.radial_laplacian: its weighted bands and origin row serve the
residual, the floor and the final `ground_state` through A @ u, and feed the
warm start's banded Cholesky of S + lam W and every Newton step's fixed
entries.  The warm start stops as soon as its Rayleigh ratio is within
WARM_TOL of 1 (WARM_SWEEPS caps the sweeps).  Newton stops at |F| <= max(TOL, floor) lam |u| in the
r^2 dr norm, where `residual_floor` is the rounding level of F, taken once
per solve after the warm start.  No active row of F, no active value of v
and no r^2 dr norm reads u_0 (every coupling into node 0 and both sweep
integrands carry r_0 = 0), so the warm start and every Newton step solve
the active nodes 1..n-3 alone and leave u_0 as it is; then scalar Newton
steps on u_0, the one place that solves row 0, set it from the active field
Newton returns, until a step leaves u_0 unchanged or non-finite
(ORIGIN_STEPS caps them).
`acceptance_failures` is the one rule that accepts a state: its residual
ratio within GroundState.residual_bound = 10 max(TOL, floor), the floor
taken at the state, |F(u)_0|, weightless in that ratio, within
residual_bound lam max|u|, its sign positive to 1e-10 max|u|, and its
Nehari and Pohozaev identities within IDENTITY_RTOL G; `linearized`
certifies no state this rule refuses.  Newton returns every state it
reaches, converged or not, for this rule to judge.
Every Newton solve runs at lam = 1 on make_grid(member_rmax(q), n), one
domain per q: `solve` and the scan solve the member of `normal_member`, the
one place of the mu/nu maps, and map the state out.  A GroundState, u and
v = I_2 * u^2 on one grid, comes
from `ground_state` with its diagnostics and residual_norm |F(u)| / (lam |u|),
equal to the member's by F = s lam F~, and its rounding level residual_floor.
The linearized operator is written once (`linearization`): a local diagonal
pot and a coupling b, whose sector-k pair form in (f, y = r g), g the
potential perturbation, is [[S + W pot, B], [B, T_k]] with B = sqrt(h W) b,
S = operators.dirichlet_form and T_k = hartree.green_bands; `linearized`
builds it for k = 0 and 1.  Its sector-0 Schur complement is W J, so each
Newton step J d = -F solves that pair form exactly, in standard form on the
active nodes, by one banded LU (`_newton_step`) in the one dgbsv workspace
of the solve; each step writes the entries no iterate changes into it
afresh from -Delta_r's weighted bands and T_0's closed form, so nothing but
the workspace outlives a step.
The solve's three LAPACK routines, dgbsv for the step and dpbtrf and dpbtrs
for the warm start, come from `kernels`, out of the OpenBLAS numpy bundles
(scipy's _flapack where numpy bundles none): no solve imports a scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators
from .diagnostics import DiagnosticsReport, identities
from .errors import (BadRange, InvalidExponent, NonConvergence,
                     StateOutOfRange, TrivialCollapse)
from .grid import RadialGrid, make_grid
from .hartree import coulomb_apply
from .kernels import dgbsv, dpbtrf, dpbtrs

TRIVIAL_SUP = 1e-8
TOL = 1e-10           # Newton's stop: |F| / (lam |u|) in r^2 dr norms
IDENTITY_RTOL = 1e-6  # |Nehari|, |Pohozaev| <= it G
MAX_ITER = 60         # Newton iterations
DAMPING = 20          # max step halvings per Newton iteration
WARM_SWEEPS = 60      # cap on the spectral-renormalization sweeps
WARM_TOL = 1e-4       # the warm start stops at |Rayleigh ratio - 1| <= WARM_TOL
ORIGIN_STEPS = 8      # cap on the scalar Newton steps on row 0 after Newton
DEDUP_TOL = 1e-6      # relative sup distance under which two scan states agree
R_MAX = 28.0          # member domain past W's sech offset (`member_rmax`)


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
    origin_residual: float      # |F(u)_0|, which has no r^2 dr weight
    iterations: int             # Newton steps taken
    diagnostics: DiagnosticsReport = field(repr=False)

    @property
    def residual_bound(self) -> float:
        """The largest residual_norm at which the state is accepted: ten times
        Newton's stop max(TOL, residual_floor), taken at the state itself."""
        return 10.0 * max(TOL, self.residual_floor)


def normal_member(params: ModelParams):
    """(s, member, t) of `params` by the paper's mu/nu maps, for any a, nu:
    u(r) = s u~(sqrt(lam) r), v(r) = t v~(sqrt(lam) r), u~ and v~ the state
    of member = (1, a t / lam, nu s^(q-2) / lam, q), t = s^2 / lam: the
    mu-form (nu~ = 1, s = (lam/nu)^(1/(q-2))) when its a~, judged in logs, is
    at most 1, else the nu-form (a~ = 1, s = lam / sqrt(a)).  StateOutOfRange
    when s or the member is not positive finite."""
    lam, a, nu, q = params.lam, params.a, params.nu, params.q
    try:
        if a == 0 or (nu > 0 and math.log(nu) - (q - 2) / 2 * math.log(a)
                      + (q - 3) * math.log(lam) >= 0):
            s = (lam / nu) ** (1.0 / (q - 2.0))
            t = lam ** (2.0 / (q - 2.0) - 1.0) * nu ** (-2.0 / (q - 2.0))
            tilde = (a and a * nu ** (-2.0 / (q - 2.0))
                     * lam ** (-2.0 * (q - 3.0) / (q - 2.0)), 1.0)
        else:
            s, t = lam / math.sqrt(a), lam / a
            tilde = (1.0, nu and nu * a ** (1.0 - q / 2.0) * lam ** (q - 3.0))
    except OverflowError:   # s, t or the member beyond the floats
        s = math.inf
    if not (0.0 < s < math.inf and math.isfinite(sum(tilde))):
        raise StateOutOfRange(f"{params.label()}: no normal form (s = {s:g})")
    return s, ModelParams(lam=1.0, a=tilde[0], nu=tilde[1], q=q), t


def member_rmax(q: float) -> float:
    """The domain of every member at exponent q: R_MAX decay lengths
    (e^(-R_MAX) < 1e-12) past the sech offset 2 ln 2 / (q - 2) of the Kwong
    profile W at q < 3, whose one-dimensional form
    sech^(2/(q-2))((q-2) r / 2) decays as 2^(2/(q-2)) e^(-r); R_MAX above 3."""
    return R_MAX + (2.0 * math.log(2.0) / (q - 2.0) if q < 3.0 else 0.0)


def _power(u: np.ndarray, p: float) -> np.ndarray:
    """u^p, sign-safe: integer powers exactly, fractional ones clamped at 0."""
    if abs(p - round(p)) < 1e-14 and round(p) >= 1:
        return u ** int(round(p))
    return np.maximum(u, 0.0) ** p


def _dpower(u: np.ndarray, p: float) -> np.ndarray:
    """d/du of _power(u, p) = p u^(p-1)."""
    return p * _power(u, p - 1.0)


def _residual_values(u: np.ndarray, params: ModelParams, grid: RadialGrid,
                     A: operators.RadialLaplacian):
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


def _newton_step(u, v, F, params, grid, A, work):
    """Exact solution d of J(u) d = -F through one banded LU, for u vanishing
    on the Dirichlet pad, as every iterate does (d vanishes there too).

    On the active nodes W J d = -W F is the Schur complement of the sector-0
    pair form [[S + W pot, B], [B, T_0]] in (d, y = r w), B = sqrt(h W) b
    (`linearization`).  In standard form, d = D x with D = W^(-1/2), it is
    [[D S D + pot, sqrt(h) b], [sqrt(h) b, T_0]] (x, y) = (-W^(1/2) F, 0);
    interleaving x_1, y_1, x_2, ... gives bandwidth 4 on each side.  All of
    it, D S D from A's weighted bands and T_0 included, is written afresh
    into `work` (`_step_workspace`), which dgbsv overwrites; T_0's bands are
    those of hartree.green_bands(0, m, h), set in closed form (2/h on the
    diagonal, 1/h its last entry, -1/h off it) with no temporaries.  No
    active row reads d_0, which stays 0.  A non-finite or singular system
    raises NonConvergence.
    """
    h, m, act = grid.h, grid.n - 3, slice(1, grid.n - 2)
    ab, rhs = work
    band = ab[4:]   # entry (i, j) at row 4 + i - j; f_i at slot 2i, y_i 2i+1
    band.fill(0.0)
    band[4, 1::2] = 2.0 / h
    band[4, -1] = 1.0 / h
    band[2, 3::2] = band[6, 1:-2:2] = -1.0 / h
    scale = np.sqrt(A.weights[act])   # W^(1/2), D = 1 / scale
    # D S D, (i, i+k) of S over scale_i scale_(i+k), formed in rhs till set
    for k, s_band in ((0, A.diag), (1, A.up1[:-1]), (2, A.up2[:-2])):
        dsd = rhs[k:m]
        np.multiply(scale[:m - k], scale[k:], out=dsd)
        np.divide(s_band, dsd, out=dsd)
        band[4 - 2 * k, 2 * k::2] = band[4 + 2 * k, :2 * (m - k):2] = dsd
    pot, b = linearization(u, v, params, h)
    if not (np.isfinite(pot).all() and np.isfinite(F).all()):
        raise NonConvergence(f"Newton step for {params.label()}: "
                             "non-finite Jacobian or residual")
    band[4, ::2] += pot[act]
    band[3, 1::2] = band[5, ::2] = math.sqrt(h) * b[act]
    rhs[::2] = -scale * F[act]
    rhs[1::2] = 0.0
    x, info = dgbsv(4, 4, ab, rhs, overwrite_ab=True, overwrite_b=True)[2:]
    if info != 0:
        raise NonConvergence(
            f"Newton step for {params.label()}: singular band matrix (info {info})")
    d = np.zeros(grid.n)
    d[act] = x[::2] / scale
    return d


def _step_workspace(grid: RadialGrid):
    """dgbsv's 13-row band matrix (Fortran order; rows 0..3 are fill-in
    space it need not find set) and right-hand side, shared by every step."""
    return np.empty((13, 2 * grid.n - 6), order="F"), np.empty(2 * grid.n - 6)


def _wnorm(grid: RadialGrid, x: np.ndarray) -> float:
    """The r^2 dr norm, summed over x / 2^k, 2^k near sup |x[1:]| (exact).
    Node 0, of weight 0, is never read: however large x_0 is, y_0 = 0."""
    scale = 2.0 ** (math.frexp(float(np.max(np.abs(x[1:]))))[1] - 1)
    with np.errstate(over="ignore"):   # only x_0 can overflow; it is zeroed
        y = x / scale
    y[0] = 0.0
    y *= y
    return scale * math.sqrt(float(np.dot(grid.weights_r2dr, y)))


def _shifted_bands(A: operators.RadialLaplacian, lam: float) -> np.ndarray:
    """S + lam W on the active nodes in LAPACK's upper banded storage (3 rows),
    from A's weighted bands."""
    n = len(A.weights)
    ab = np.zeros((3, n - 3))
    ab[0, 2:] = A.up2[:-2]
    ab[1, 1:] = A.up1[:-1]
    ab[2] = A.diag + lam * A.weights[1:n - 2]
    return ab


def _shifted_solve(grid: RadialGrid, A: operators.RadialLaplacian, lam: float):
    """Solver of (A + lam) w = N, A = -Delta_r, lam masked on the Dirichlet
    pad, for fields N that vanish on the pad.

    On the active nodes 1..n-3 the system is W^-1 (S + lam W) with S the
    symmetric weighted form, so S + lam W (`_shifted_bands`) is factored
    once by banded Cholesky (LAPACK dpbtrf): rows 1 and 2 couple into node 0
    only through r_0 = 0, and w vanishes on the pad.  Each solve is one
    LAPACK dpbtrs in place.  A nonzero info from either raises
    NonConvergence.  w_0, which no active row reads, stays 0.
    """
    n = grid.n
    W = grid.weights_r2dr
    chol, info = dpbtrf(_shifted_bands(A, lam))
    if info != 0:
        raise NonConvergence(f"warm-start factorization: dpbtrf info {info}")

    def solve(N):
        w = np.zeros(n)
        act = w[1:n - 2]
        np.multiply(W[1:n - 2], N[1:n - 2], out=act)
        _, info = dpbtrs(chol, act, overwrite_b=True)
        if info != 0:
            raise NonConvergence(f"warm-start solve: dpbtrs info {info}")
        return w
    return solve


def _warm_start(u, params, grid, A):
    """Amplitude-stabilized Picard iteration (spectral renormalization).

    u <- S^gamma (A + lam)^(-1) N(u) with S the Rayleigh ratio of the linear
    and nonlinear pairings; gamma from the dominant homogeneity of N.  Stops
    once |S - 1| <= WARM_TOL or after WARM_SWEEPS sweeps.  On a grid too coarse
    for the state the iteration can blow up: the first non-finite ratio or
    iterate raises NonConvergence, and the overflow that produced it is not
    reported as a warning.
    """
    W = grid.weights_r2dr
    solve = _shifted_solve(grid, A, params.lam)
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


def residual_floor(grid: RadialGrid, A: operators.RadialLaplacian,
                   u: np.ndarray, lam: float) -> float:
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
                 iterations: int, A: operators.RadialLaplacian) -> GroundState:
    """The GroundState of the field u on `grid`: v from the Hartree sweep,
    the residual ratio |F(u)| / (lam |u|) in the r^2 dr norm with its
    rounding floor, and the diagnostics, raw (non-finite ones are refused),
    all from the grid's -Delta_r A (operators.radial_laplacian, built by the
    caller) and one Coulomb sweep.  ValueError for a u not of length n."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise ValueError(f"field length {u.shape} != grid n {grid.n}")
    F, v = _residual_values(u, params, grid, A)
    return GroundState(
        params=params, grid=grid, u=u, v=v,
        residual_norm=_wnorm(grid, F) / (params.lam * _wnorm(grid, u)),
        residual_floor=residual_floor(grid, A, u, params.lam),
        origin_residual=abs(float(F[0])),
        iterations=iterations, diagnostics=identities(grid, u, v, params, A))


def newton_solve(grid: RadialGrid, guess: np.ndarray,
                 params: ModelParams) -> GroundState:
    """Damped Newton from the field `guess` on `grid`, with a deterministic
    warm start; see module docstring.

    Returns the GroundState of the last (lowest-residual) iterate wherever
    Newton stops: converged, at a line search with no descent or at
    MAX_ITER, with the Newton steps it took (0 when the warm start meets
    the stop); `acceptance_failures` judges it, its sign included.  Raises
    TrivialCollapse on a collapsed iterate and NonConvergence, with no
    state, on a non-finite warm start, residual or step, or a singular band
    matrix.
    """
    A = operators.radial_laplacian(grid)
    u = np.array(guess, dtype=float)
    u[-2:] = 0.0
    u = _warm_start(u, params, grid, A)
    _live_norm(grid, u)   # a collapsed warm start is typed before |u| divides
    stop = max(TOL, residual_floor(grid, A, u, params.lam)) * params.lam
    work = _step_workspace(grid)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        F, v = _residual_values(u, params, grid, A)
        nF = _wnorm(grid, F)
    if not math.isfinite(nF):
        raise NonConvergence(f"warm start for {params.label()}: non-finite residual norm")
    steps = 0
    while steps < MAX_ITER and nF > stop * _live_norm(grid, u):
        d = _newton_step(u, v, F, params, grid, A, work)
        del F, v   # the line search replaces them

        t, accepted = 1.0, False
        with np.errstate(over="ignore", invalid="ignore"):   # NaN norms fail
            for _ in range(DAMPING + 1):
                F_try, v_try = _residual_values(u + t * d, params, grid, A)
                if _wnorm(grid, F_try) < nF:
                    accepted = True
                    break
                t *= 0.5
        if not accepted:   # no descent: u is the last iterate
            break
        u = u + t * d
        steps += 1
        F, v = F_try, v_try
        nF = _wnorm(grid, F)
    _live_norm(grid, u)   # an update at MAX_ITER may have collapsed

    del work   # ground_state's operators need not coexist with the workspace
    # nothing above moved u_0 and the stop never saw F(u)_0 (module
    # docstring): scalar Newton steps on u_0 alone set it, the rest of F kept
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(ORIGIN_STEPS):
            F, v = _residual_values(u, params, grid, A)
            pot0 = linearization(u[:1], v[:1], params, grid.h)[0][0]
            u0 = u[0] - F[0] / (A.origin[0] + pot0)
            del F, v   # ground_state computes both again
            if not np.isfinite(u0) or u0 == u[0]:   # u_0 stays as it is
                break
            u[0] = u0
        return ground_state(grid, u, params, steps, A)   # non-finite: refused


def acceptance_failures(state: GroundState) -> list:
    """What keeps `state` from being accepted, empty when nothing does:
    (name, value, bound) for residual_norm over residual_bound, for
    origin_residual, unweighted in the ratio, over residual_bound lam max|u|,
    and for "sign", -min u over 1e-10 max|u| (a ground state is positive);
    ("identity_residuals", nehari, pohozaev) beyond IDENTITY_RTOL G."""
    bound = state.residual_bound
    sup = state.diagnostics.sup_u
    failures = [f for f in (("residual_norm", state.residual_norm, bound),
                            ("origin_residual", state.origin_residual,
                             bound * state.params.lam * sup),
                            ("sign", -float(np.min(state.u)), 1e-10 * sup))
                if not f[1] <= f[2]]   # NaN included
    rep = state.diagnostics
    G = rep.grad_sq
    if not (abs(rep.nehari) <= IDENTITY_RTOL * G
            and abs(rep.pohozaev) <= IDENTITY_RTOL * G):   # NaN included
        failures.append(("identity_residuals", rep.nehari, rep.pohozaev))
    return failures


def _physical(state: GroundState, s: float, params: ModelParams):
    """s u~ of the member `state`, re-derived by `ground_state` on its nodes
    over sqrt(lam) as `check` does: the state of `params`.  StateOutOfRange
    on overflow, a G below the normal floats or a refused member passing."""
    if state is None or state.params == params:
        return state
    grid = make_grid(state.grid.r_max / math.sqrt(params.lam), state.grid.n)
    try:
        with np.errstate(over="raise", invalid="raise"):
            phys = ground_state(grid, s * state.u, params, state.iterations,
                                operators.radial_laplacian(grid))
        if (acceptance_failures(state) and not acceptance_failures(phys)
                or not phys.diagnostics.grad_sq >= np.finfo(float).tiny):
            raise FloatingPointError("s u~ does not read as its member")
        return phys
    except (FloatingPointError, ZeroDivisionError) as exc:   # |s u~| = 0
        raise StateOutOfRange(f"{params.label()}: s u~ at s = {s:g} leaves "
                              f"the floats ({exc})") from exc


def solve(params: ModelParams, n: int) -> GroundState:
    """The state of `params` on n nodes, the one rule for a solve's member,
    domain and start: `normal_member`'s, solved from exp(-r^2/4) on
    make_grid(member_rmax(q), n), and mapped out, whether Newton converged
    or not (`acceptance_failures` judges it)."""
    s, member, _ = normal_member(params)
    grid = make_grid(member_rmax(params.q), n)
    return _physical(newton_solve(grid, np.exp(-grid.nodes**2 / 4.0), member),
                     s, params)


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

    Every state a start returns, converged or not, is deduplicated by
    relative sup distance and counted in `converged`; `acceptance_failures`
    judges each distinct state, so an unconverged or sign-changing one is a
    refused state.  A start that ends in a typed error (collapse, a
    non-finite warm start or step) counts as failed.
    """
    if n_starts < 2:
        raise ValueError("n_starts >= 2")
    s, member, _ = normal_member(params)
    grid = make_grid(member_rmax(params.q), n)
    rng = np.random.default_rng(rng_seed)
    draws = 10.0 ** rng.uniform(-2.0, 2.0, size=(n_starts, 2))
    distinct: list[GroundState] = []
    failed = 0
    converged = 0
    for c, kappa in draws:
        guess = c * np.exp(-kappa * grid.nodes**2)
        guess[-2:] = 0.0
        try:
            state = newton_solve(grid, guess, member)
        except (NonConvergence, TrivialCollapse):
            failed += 1
            continue
        converged += 1
        for known in distinct:
            if _sup_distance_rel(state.u, known.u) <= DEDUP_TOL:
                break
        else:
            distinct.append(state)
    return ScanResult([_physical(d, s, params) for d in distinct],
                      failed=failed, converged=converged)
