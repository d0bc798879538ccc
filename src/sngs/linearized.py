"""Spherical-harmonics sector forms of the linearized operator and spectra.

In the harmonic sector k the pair perturbation (f, g) of (u, v) feels the
quadratic form (symmetric a=2 convention, general lam and power weight nu)

  A_k((f,g),(f,g)) = int f_r^2 r^2 dr + k(k+1) int f^2 dr + lam int f^2 r^2 dr
                     - 2 int v f^2 r^2 dr - nu (q-1) int u^(q-2) f^2 r^2 dr
                     - 4 int u f g r^2 dr
                     + int g_r^2 r^2 dr + k(k+1) int g^2 dr,

assembled against the r^2-weighted mass for both components.  Only in the
a=2 convention is this the second derivative of a functional, hence symmetric;
states from the single-coefficient family are auto-converted, so every sector
form is in that one convention.  For the pure power case (a=0) the potential
component is dropped entirely and the form is the scalar linearization around
the Kwong profile.  The nondegeneracy verdict has fixed tolerances: GAP_TOL
for the radial gap and 50 h^2 sigma_2 for the translation zero mode.

The sector operator is banded-plus-diagonal-coupling; the Hartree screening of
the radial problem enters only through v and the -4 u f g coupling, both local
in the sector picture.  k=0 uses even parity at the origin, k>=1 odd; both
components vanish on the two-node Dirichlet pad at r_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import operators
from .errors import ParityMismatch, UnconvergedState, WrongConvention
from .grid import EVEN, ODD, RadialField, differentiate
from .solver import GroundState, ModelParams, _dpower, ground_state

CONVERGED_TOL = 1e-8

# Radial-sector gap below which the verdict is not nondegenerate; also the
# inertia split of every sector eigensolve: eigenvalues below -GAP_TOL are
# clear Morse directions, the zero mode and the box modes sit above it.
GAP_TOL = 1e-3


def convention_map(state: GroundState, direction: str) -> GroundState:
    """Move a state between the single-coefficient family and the symmetric
    a=2 convention.

    to_a2:  (u, v; lam, a, nu, q) -> (s u, t v; lam, 2, nu t^(-(q-2)/2), q)
            with t = a/2, s = sqrt(t); at a=1 this is the (u/sqrt2, v/2) map.
            (The paper's displayed pair keeps v unscaled, which leaves an O(1)
            residual in the potential equation; v must be halved.)
    from_a2: exact inverse onto a=1.
    """
    p = state.params
    if direction == "to_a2":
        if p.a <= 0 or p.a == 2.0:
            raise WrongConvention(f"to_a2 needs 0 < a != 2, got a={p.a}")
        t = p.a / 2.0
        s = math.sqrt(t)
        new = ModelParams(lam=p.lam, a=2.0, nu=p.nu * t ** (-(p.q - 2.0) / 2.0), q=p.q)
        u_vals = s * state.u.values
    elif direction == "from_a2":
        if p.a != 2.0:
            raise WrongConvention(f"from_a2 needs a=2, got a={p.a}")
        t = 0.5
        s = math.sqrt(2.0)
        new = ModelParams(lam=p.lam, a=1.0, nu=p.nu * 2.0 ** (-(p.q - 2.0) / 2.0), q=p.q)
        u_vals = s * state.u.values
    else:
        raise WrongConvention(f"direction {direction!r}")
    ufield = RadialField(grid=state.grid, values=u_vals, parity=EVEN)
    return ground_state(ufield, new, state.iterations)


@dataclass
class SectorOperator:
    k: int
    centrifugal: float
    form: sp.csr_matrix          # symmetric weighted form on active nodes
    mass: np.ndarray             # diagonal r^2-weighted mass, both components
    act: np.ndarray              # active node indices on the state's grid
    scalar: bool                 # True when the potential component is dropped
    state: GroundState = field(repr=False, default=None)


def _as_a2(state: GroundState) -> GroundState:
    if state.params.a == 0.0 or state.params.a == 2.0:
        return state
    return convention_map(state, "to_a2")


def sector_form(state: GroundState, k: int) -> SectorOperator:
    """Assemble the sector-k quadratic form around a converged state."""
    if k < 0:
        raise ValueError("k >= 0")
    if state.residual_norm > CONVERGED_TOL:
        raise UnconvergedState(
            f"residual {state.residual_norm:.2e} > {CONVERGED_TOL:.0e}")
    scalar = state.params.a == 0.0
    st = _as_a2(state)
    p = st.params
    grid = st.grid
    parity = EVEN if k == 0 else ODD
    S = operators.dirichlet_form(grid, parity)
    act = operators.active_slice(grid)
    Wa = grid.weights_r2dr[act]
    wdr = grid.weights_dr[act]
    lam_k = float(k * (k + 1))
    u = st.u.values[act]
    v = st.v.values[act]
    pot = p.lam - p.a * v - p.nu * _dpower(u, p.q - 1.0)
    Sf = S + sp.diags(Wa * pot) + lam_k * sp.diags(wdr)
    if scalar:
        form = Sf.tocsr()
        mass = Wa.copy()
    else:
        Sg = S + lam_k * sp.diags(wdr)
        C = sp.diags(Wa * (-p.a) * u)    # -2u per side in the a=2 convention
        form = sp.bmat([[Sf, C], [C, Sg]], format="csr")
        mass = np.concatenate([Wa, Wa])
    return SectorOperator(k=k, centrifugal=lam_k, form=form, mass=mass,
                          act=act, scalar=scalar, state=st)


def quadratic_form_value(op: SectorOperator, f: RadialField,
                         g: Optional[RadialField] = None) -> float:
    """A_k((f,g),(f,g)) by quadrature (g ignored for scalar sectors)."""
    want = EVEN if op.k == 0 else ODD
    if f.parity != want:
        raise ParityMismatch(f"sector {op.k} needs {want} fields")
    if op.scalar:
        x = f.values[op.act]
    else:
        if g is None or g.parity != want:
            raise ParityMismatch(f"sector {op.k} needs an {want} pair")
        x = np.concatenate([f.values[op.act], g.values[op.act]])
    return float(x @ (op.form @ x))


def translation_mode(state: GroundState):
    """(d_r u, d_r v): the sector-1 zero mode of the linearization."""
    if state.residual_norm > CONVERGED_TOL:
        raise UnconvergedState(
            f"residual {state.residual_norm:.2e} > {CONVERGED_TOL:.0e}")
    return differentiate(state.u), differentiate(state.v)


@dataclass
class SectorEntry:
    """One sector's lowest eigenpairs; `nondegeneracy_report` fills in the
    kernel dimension and, in sector 1, the match with the translation mode."""
    k: int
    eigenvalues: list
    below_split: int             # inertia count, confirmed by the eigensolve
    backward_error: float        # largest over the returned pairs
    eigenvectors: np.ndarray = field(repr=False)
    kernel_dimension: Optional[int] = None
    zero_mode_match: Optional[float] = None


@dataclass
class NondegeneracyReport:
    sectors: list
    verdict: str
    zero_tol: float
    k_max: int


def _spectrum_lower_bound(op: SectorOperator) -> float:
    """O(1) lower bound for the sector pencil: kinetic and centrifugal parts
    are nonnegative, the local potential is bounded below by its nodal minimum,
    and the coupling quadratic -2a u f g is bounded by a sup(u) (f^2 + g^2)."""
    st = op.state
    p = st.params
    act = op.act
    u = st.u.values[act]
    pot = p.lam - p.a * st.v.values[act] - p.nu * _dpower(u, p.q - 1.0)
    bound = min(0.0, float(np.min(pot)))
    if not op.scalar:
        bound -= p.a * float(np.max(np.abs(u)))
    return bound - 1.0


def sector_spectrum(op: SectorOperator, m: int) -> SectorEntry:
    """m algebraically lowest eigenpairs of the sector pencil, sliced by
    inertia at -GAP_TOL."""
    if m < 1:
        raise ValueError("m >= 1")
    pairs = operators.smallest_eigenpairs(op.form, op.mass, m,
                                          shift=_spectrum_lower_bound(op),
                                          split=-GAP_TOL)
    vals = [s for s, _ in pairs]
    vecs = np.stack([x for _, x in pairs], axis=1)
    return SectorEntry(
        k=op.k, eigenvalues=vals, eigenvectors=vecs,
        below_split=sum(1 for s in vals if s < -GAP_TOL),
        backward_error=float(np.max(
            operators.backward_errors(op.form, op.mass, vals, vecs))))


def _compensated_translation(op: SectorOperator):
    """Translation mode on the active nodes, with the interior-harmonic
    compensator c r^k subtracted from the potential component.

    The finite domain imposes g(r_max)=0 on the pencil while the true mode
    decays only like 1/r^2; the pencil's zero vector therefore carries an
    extra regular-harmonic piece, which we add to the comparison target
    instead of polluting the cosine.
    """
    st = op.state
    f, g = translation_mode(st)
    tf = f.values[op.act]
    if op.scalar:
        return tf
    tg = g.values[op.act]
    Ra = st.grid.nodes[op.act][-1]
    tg = tg - tg[-1] * (st.grid.nodes[op.act] / Ra) ** op.k
    return np.concatenate([tf, tg])


def nondegeneracy_report(state: GroundState, k_max: int,
                         num_eigs: int = 6) -> NondegeneracyReport:
    """Sector-by-sector spectral certificate for nondegeneracy.

    nondegenerate: the radial sector has no eigenvalue within GAP_TOL of
    zero, sector 1 carries exactly one zero mode (|sigma| <= zero_tol =
    50 h^2 sigma_2, sigma_2 its next eigenvalue by magnitude) matching the
    translation pair, and every sector 2..k_max is strictly positive (the
    sector ordering extends the verdict beyond k_max).
    """
    if k_max < 2:
        raise ValueError("k_max >= 2")
    ops = [sector_form(state, k) for k in range(k_max + 1)]
    sectors = [sector_spectrum(op, num_eigs) for op in ops]

    h = state.grid.h
    vals1 = sorted(sectors[1].eigenvalues, key=abs)
    sigma2 = abs(vals1[1]) if len(vals1) > 1 else 1.0
    zero_tol = 50.0 * h * h * sigma2

    for entry in sectors:
        entry.kernel_dimension = sum(1 for s in entry.eigenvalues
                                     if abs(s) <= zero_tol)
    k1 = sectors[1]
    x = k1.eigenvectors[:, int(np.argmin(np.abs(k1.eigenvalues)))]
    t = _compensated_translation(ops[1])
    M = ops[1].mass
    k1.zero_mode_match = float(
        abs(np.sum(M * x * t)) / math.sqrt(np.sum(M * x * x) * np.sum(M * t * t)))

    k0_min_abs = min(abs(s) for s in sectors[0].eigenvalues)
    high_positive = all(min(sectors[k].eigenvalues) > 0.0
                        for k in range(2, k_max + 1))
    ok = (k0_min_abs > GAP_TOL
          and k1.kernel_dimension == 1
          and k1.zero_mode_match >= 0.999
          and high_positive)
    if ok:
        verdict = "nondegenerate"
    elif (k0_min_abs <= zero_tol or k1.kernel_dimension > 1
          or any(min(sectors[k].eigenvalues) < -zero_tol
                 for k in range(2, k_max + 1))):
        verdict = "degenerate"
    else:
        verdict = "inconclusive"
    return NondegeneracyReport(sectors=sectors, verdict=verdict,
                               zero_tol=zero_tol, k_max=k_max)
