import weakref
from dataclasses import replace

import numpy as np
import pytest

import sngs
from sngs.errors import UnconvergedState
from sngs.linearized import (GAP_TOL, nondegeneracy_report, sector_form,
                             sector_spectrum, translation_mode)
from sngs.operators import schur_apply


def odd_field(grid, rng, width_max=4.0):
    r = grid.nodes
    f = np.zeros(grid.n)
    for _ in range(2):
        w = rng.uniform(0.7, width_max)
        a = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        f += a * r * np.exp(-(r / w) ** 2)
    f[-2:] = 0.0
    return f


def assert_nonnegative_pair_forms(op, fields, rng):
    """L_1(f, f) >= 0 on each field, and L_1 is the minimum over the
    potential: the pair form at any y = r g is not below it."""
    for f in fields:
        x = f[op.act]
        val = float(x @ schur_apply(op.form, op.mass, x))
        assert val >= -1e-8 * float(np.dot(op.mass * x, x))
        xy = np.concatenate([x, rng.normal(size=op.form.shape[0] - len(x))])
        assert float(xy @ (op.form @ xy)) >= val - 1e-12 * abs(val)


@pytest.fixture(scope="module")
def choquard(solved_cache):
    return solved_cache(1.0, 1.0, 0.0, 4.0, n=1536, rmax=30.0)


def test_sector_form_centrifugal(choquard):
    # k(k+1) int f^2 / r^2 r^2 dr: the f blocks of sectors 2 and 1 differ by
    # 4 W / r^2, on the one r^2 dr weight vector W
    op1, op2 = sector_form(choquard, 1), sector_form(choquard, 2)
    N = len(op1.mass)
    diff = (op2.form[:N, :N] - op1.form[:N, :N]).toarray()
    want = np.diag(4.0 * op1.mass / choquard.grid.nodes[op1.act] ** 2)
    assert np.max(np.abs(diff - want)) <= 1e-14 * abs(op2.form).max()


def test_sector_form_kwong_scalar(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    op = sector_form(st, 0)
    assert op.form.shape[0] == len(op.act) == len(op.mass)


def hand_built_state(residual_norm, residual_floor):
    g = sngs.make_grid(20.0, 256)
    st = sngs.ground_state(g, np.exp(-g.nodes**2),
                           sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0), 0,
                           sngs.operators.radial_laplacian(g))
    return replace(st, residual_norm=residual_norm,
                   residual_floor=residual_floor)


def test_sector_form_unconverged():
    bogus = hand_built_state(0.5, 0.0)
    with pytest.raises(UnconvergedState):
        sector_form(bogus, 0)
    with pytest.raises(UnconvergedState):
        translation_mode(bogus)


def test_sector_form_accepts_residual_within_its_bound():
    # the bound is the state's own 10 max(TOL, floor) = 2.6e-7, not a fixed
    # 1e-8: a state solved to its rounding floor on a fine grid is accepted
    st = hand_built_state(2e-8, 2.6e-8)
    assert sector_form(st, 1).k == 1
    assert translation_mode(st).shape == st.u.shape
    assert st.residual_bound == pytest.approx(2.6e-7)


def test_sector_form_exactly_symmetric(choquard):
    for k in (0, 1, 2):
        op = sector_form(choquard, k)
        assert abs(op.form - op.form.T).max() == 0.0


def test_a1_nonnegative_on_random_odd_pairs(choquard):
    rng = np.random.default_rng(21)
    op = sector_form(choquard, 1)
    assert_nonnegative_pair_forms(
        op, [odd_field(choquard.grid, rng) for _ in range(30)], rng)


def test_translation_mode_signs(choquard, solved_cache):
    f = translation_mode(choquard)
    assert np.all(f[1:-2] <= 1e-12 * choquard.diagnostics.sup_u)
    kw = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    interior = translation_mode(kw)[2:-12]
    assert np.all(interior < 0.0)


def test_pencil_matches_dense_schur_complement(solved_cache):
    # the augmented (f, y) pencil against a dense eigh of L_k itself
    import scipy.linalg as sla
    st = solved_cache(1.0, 1.0, 1.0, 4.0, n=201, rmax=28.0)
    for k in range(4):
        op = sector_form(st, k)
        N = len(op.mass)
        A = op.form.toarray()
        schur = A[:N, :N] - A[:N, N:] @ np.linalg.solve(A[N:, N:], A[N:, :N])
        got = sector_spectrum(op, 6).eigenvalues   # six above the split
        exact = sla.eigh(schur, np.diag(op.mass), eigvals_only=True)[:len(got)]
        assert np.max(np.abs(got - exact)) <= 1e-10


def test_translation_eigenvalue_falls_under_refinement():
    # the whole-space potential leaves only the discretization error in the
    # zero mode: about 15x per n -> 2n - 1 at q=4.75, lambda=10
    zero = []
    for n in (1024, 2047, 4093):
        st = sngs.solve(sngs.normal_form(4.75, 10.0)[1], n)
        zero.append(min(abs(s) for s in
                        sector_spectrum(sector_form(st, 1), 2).eigenvalues))
    assert zero[1] <= zero[0] / 10.0 and zero[2] <= zero[1] / 10.0, zero


@pytest.mark.parametrize("q,lam", [(4.0, 1e-2), (2.25, 1e-2), (4.75, 10.0)])
def test_zero_mode_sits_at_round_off_or_falls_under_refinement(q, lam):
    # with the centrifugal term on W / r^2 the sector-1 "zero" carries no
    # O(h^2) term: at q = 4 and 2.25 it is round-off on every rung, at
    # q = 4.75 an O(h^4) error that falls about 16x per n -> 2n - 1
    zero, sigma2 = [], []
    for n in (4096, 8191, 16381):
        st = sngs.solve(sngs.normal_form(q, lam)[1], n)
        low = sorted(abs(s) for s in
                     sector_spectrum(sector_form(st, 1), 2).eigenvalues)
        zero.append(low[0])
        sigma2.append(low[1])
    at_round_off = all(z <= 1e-10 * s2 for z, s2 in zip(zero, sigma2))
    falling = zero[1] <= zero[0] / 10.0 and zero[2] <= zero[1] / 10.0
    assert at_round_off or falling, (zero, sigma2)


def test_sector_spectrum_choquard(choquard):
    op1 = sector_form(choquard, 1)
    rep1 = sector_spectrum(op1, 2)
    assert abs(rep1.eigenvalues[0]) <= 5e-4   # zero mode
    assert rep1.eigenvalues[1] > 0.0
    op2 = sector_form(choquard, 2)
    rep2 = sector_spectrum(op2, 2)
    assert min(rep2.eigenvalues) > 0.0


def test_sector_ordering(choquard):
    mins = []
    for k in (1, 2, 3):
        rep = sector_spectrum(sector_form(choquard, k), 3)
        mins.append(min(rep.eigenvalues))
    assert mins[0] <= mins[1] <= mins[2]


def test_nondegeneracy_report_choquard(solved_cache):
    st = solved_cache(1.0, 1.0, 0.0, 4.0, n=2048, rmax=60.0)
    rep = nondegeneracy_report(st)
    assert rep.verdict == "nondegenerate"
    assert rep.sectors[1].kernel_dimension == 1
    assert rep.sectors[1].zero_mode_match >= 0.999
    assert rep.sectors[0].kernel_dimension == 0
    assert rep.higher_sectors["bound"] > 0.0
    assert rep.higher_sectors["ordering_gap"] > 0.0


def test_nondegeneracy_kwong_radial_kernel_free(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    rep = nondegeneracy_report(st)
    assert min(abs(s) for s in rep.sectors[0].eigenvalues) > GAP_TOL
    assert rep.sectors[1].kernel_dimension == 1


# the lowest six eigenvalues of sectors k = 0..3 in the two `spectrum` runs
# listed under "Experiment runs" in the README, at n=4096, recorded with the
# pencil that eliminates the potential through the sweep's Green's kernel and
# the centrifugal term on W / r^2 (sector 0 has none; sectors 1-3 moved by at
# most 1.2e-8 from the trapezoid dr weights it replaced); a dense eigh of each
# Schur complement agreed within 5.6e-11
RUN_SPECTRUM_EIGENVALUES = {
    (4.0, 1e-2): [
        [-2.8047572638077263, 0.4054845449779494, 0.7321944681643586,
         0.8443191539014439, 0.929830326892794, 1.0451106565492079],
        [1.5249328275818153e-11, 0.6681886041252787, 0.8153738915820423,
         0.8971634663023768, 0.9966396363875595, 1.1290124169858973],
        [0.6239759543449138, 0.7997594162328585, 0.8815581203637209,
         0.9675667094106708, 1.0849692995421891, 1.2326107886284068],
        [0.8078326362876322, 0.8817824212059817, 0.9557548805103991,
         1.058477716679766, 1.1904102787829498, 1.3505566838817054],
    ],
    (2.5, 1e2): [
        [-2.7005196484294753, 0.40815817037479685, 0.7424900969664004,
         0.8534277613688287, 0.9380969843276525, 1.0530830443883523],
        [1.5117671220768458e-11, 0.6755892293165018, 0.824863065323223,
         0.9053701535833658, 1.0044549065505815, 1.1365088241357577],
        [0.622648498711433, 0.809090026439798, 0.8896956096822146,
         0.9750996558221997, 1.0921429715603386, 1.239462884911424],
        [0.8180202258244087, 0.8903142252943934, 0.9634380559045946,
         1.0656628608693854, 1.1971832395302064, 1.3569956199015996],
    ],
}


@pytest.mark.parametrize("q,lam", sorted(RUN_SPECTRUM_EIGENVALUES))
def test_run_spectrum_cases_match_recorded(q, lam):
    st = sngs.solve(sngs.normal_form(q, lam)[1], 4096)
    recorded = np.array(RUN_SPECTRUM_EIGENVALUES[(q, lam)])
    rep = nondegeneracy_report(st)
    assert rep.verdict == "nondegenerate"
    ops = [sector_form(st, k) for k in range(4)]
    below = [sngs.operators.count_below(op.form, op.mass, -GAP_TOL) for op in ops]
    assert [e.below_split for e in rep.sectors] == below[:2]
    assert below == [1, 0, 0, 0]
    # all 24 recorded values, through six-pair solves of the same sectors
    six = [sector_spectrum(op, 6 - b).eigenvalues for op, b in zip(ops, below)]
    assert np.max(np.abs(np.array(six) - recorded)) <= 1e-10
    # the report holds the pairs its verdict reads: the leading ones
    assert [len(e.eigenvalues) for e in rep.sectors] == [2, 2]
    for e, row in zip(rep.sectors, recorded):
        assert np.max(np.abs(e.eigenvalues - row[:len(e.eigenvalues)])) <= 1e-10
    assert max(e.backward_error for e in rep.sectors) <= 1e-12
    # sector 1 bounds the solved minima of sectors 2 and 3 from below
    higher = rep.higher_sectors
    assert higher["r_act"] == st.grid.nodes[-3]
    assert higher["ordering_gap"] > 0.0
    sigma_min = min(rep.sectors[1].eigenvalues)
    assert higher["bound"] == sigma_min + 4.0 / higher["r_act"] ** 2 > 0.0
    for k in (2, 3):
        assert sigma_min + (k * (k + 1) - 2) / higher["r_act"] ** 2 <= min(six[k])


@pytest.mark.parametrize("q,lam", sorted(RUN_SPECTRUM_EIGENVALUES))
def test_run_spectrum_cases_never_refine(q, lam, monkeypatch):
    # ARPACK stops at BACKWARD_TOL; a pair it leaves over that bound would be
    # refined through one more factorization, so the count of factorizations
    # is one per sector plus sector 0's lower-bound shift and nothing else
    st = sngs.solve(sngs.normal_form(q, lam)[1], 4096)
    calls = []
    inertia = sngs.operators._inertia

    def counted(form, mass, tau):
        calls.append(tau)
        return inertia(form, mass, tau)
    monkeypatch.setattr(sngs.operators, "_inertia", counted)
    rep = nondegeneracy_report(st)
    assert len(calls) == 3
    assert [e.factorizations for e in rep.sectors] == [2, 1]
    assert all(e.solves > 0 for e in rep.sectors)


class _Factor:
    """Forwards to a SuperLU object, which takes no weak reference."""
    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _alive(refs):
    return sum(ref() is not None for ref in refs)


def test_report_keeps_one_sector_and_one_factorization_alive(monkeypatch):
    # every factorization finds the earlier ones released, and every sector
    # form finds the earlier sectors' forms released
    st = sngs.solve(sngs.normal_form(4.0, 1e-2)[1], 1024)
    factors, forms, factor_crowd, form_crowd = [], [], [], []
    inertia, assemble = sngs.operators._inertia, sngs.linearized.sector_form

    def factored(form, mass, tau):
        factor_crowd.append(_alive(factors))
        lu, count = inertia(form, mass, tau)
        factor = _Factor(lu)
        factors.append(weakref.ref(factor))
        return factor, count

    def formed(state, k):
        form_crowd.append(_alive(forms))
        op = assemble(state, k)
        forms.append(weakref.ref(op))
        return op
    monkeypatch.setattr(sngs.operators, "_inertia", factored)
    monkeypatch.setattr(sngs.linearized, "sector_form", formed)
    rep = nondegeneracy_report(st)
    assert rep.verdict == "nondegenerate"
    assert [e.factorizations for e in rep.sectors] == [2, 1]
    assert factor_crowd == [0] * 3
    assert form_crowd == [0] * 2
    assert _alive(factors) == _alive(forms) == 0
