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
    # k(k+1) int f^2 dr: the f blocks of sectors 2 and 1 differ by 4 w_dr
    op1, op2 = sector_form(choquard, 1), sector_form(choquard, 2)
    N = len(op1.mass)
    diff = (op2.form[:N, :N] - op1.form[:N, :N]).toarray()
    want = np.diag(4.0 * choquard.grid.weights_dr[op1.act])
    assert np.max(np.abs(diff - want)) <= 1e-14 * abs(op2.form).max()


def test_sector_form_kwong_scalar(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    op = sector_form(st, 0)
    assert op.form.shape[0] == len(op.act) == len(op.mass)


def hand_built_state(residual_norm, residual_floor):
    g = sngs.make_grid(20.0, 256)
    st = sngs.ground_state(g, np.exp(-g.nodes**2),
                           sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0), 0)
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
        exact = sla.eigh(schur, np.diag(op.mass), eigvals_only=True)[:6]
        got = sector_spectrum(op, 6).eigenvalues
        assert np.max(np.abs(got - exact)) <= 1e-10


def test_translation_eigenvalue_falls_under_refinement():
    # the whole-space potential leaves only the discretization error in the
    # zero mode: about 15x per n -> 2n - 1 at q=4.75, lambda=10
    zero = []
    for n in (1024, 2047, 4093):
        st = sngs.solve(sngs.normal_member(4.75, 10.0), n)
        zero.append(min(abs(s) for s in
                        sector_spectrum(sector_form(st, 1), 2).eigenvalues))
    assert zero[1] <= zero[0] / 10.0 and zero[2] <= zero[1] / 10.0, zero


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
    rep = nondegeneracy_report(st, 3)
    assert rep.verdict == "nondegenerate"
    assert rep.sectors[1].kernel_dimension == 1
    assert rep.sectors[1].zero_mode_match >= 0.999
    assert rep.sectors[0].kernel_dimension == 0
    for k in (2, 3):
        assert min(rep.sectors[k].eigenvalues) > 0.0


def test_nondegeneracy_kwong_radial_kernel_free(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    rep = nondegeneracy_report(st, 2)
    assert min(abs(s) for s in rep.sectors[0].eigenvalues) > GAP_TOL
    assert rep.sectors[1].kernel_dimension == 1


# sector eigenvalues (k = 0..3, six each) of the two `spectrum` runs listed
# under "Experiment runs" in the README, at n=4096, recorded with the pencil
# that eliminates the potential through the sweep's Green's kernel; a dense
# eigh of each Schur complement agreed within 4.1e-11
RUN_SPECTRUM_EIGENVALUES = {
    (4.0, 1e-2): [
        [-2.8047572638077263, 0.4054845449779494, 0.7321944681643586,
         0.8443191539014439, 0.929830326892794, 1.0451106565492079],
        [1.1515976871103242e-08, 0.6681886067528003, 0.8153738927348796,
         0.8971634672771587, 0.9966396376648926, 1.1290124185529427],
        [0.6239759642132343, 0.7997594196331491, 0.8815581225827517,
         0.967566712117883, 1.084969302778332, 1.2326107923150904],
        [0.8078326414075249, 0.8817824244238105, 0.9557548842785283,
         1.0584777212228513, 1.1904102840012145, 1.3505566897151031],
    ],
    (2.5, 1e2): [
        [-2.7005196484294753, 0.40815817037479685, 0.7424900969664004,
         0.8534277613688287, 0.9380969843276525, 1.0530830443883523],
        [1.1520399308779725e-08, 0.6755892320638913, 0.8248630664701003,
         0.9053701545582973, 1.0044549078331146, 1.1365088257086884],
        [0.6226485090588613, 0.8090900298135043, 0.8896956118633129,
         0.9750996585114075, 1.0921429747839462, 1.2394628885909227],
        [0.8180202311922482, 0.8903142285509721, 0.9634380597355603,
         1.0656628654645157, 1.1971832447876354, 1.3569956257641238],
    ],
}


@pytest.mark.parametrize("q,lam", sorted(RUN_SPECTRUM_EIGENVALUES))
def test_run_spectrum_cases_match_recorded(q, lam):
    st = sngs.solve(sngs.normal_member(q, lam), 4096)
    rep = nondegeneracy_report(st, 3)
    assert rep.verdict == "nondegenerate"
    assert [e.below_split for e in rep.sectors] == [
        sngs.operators.count_below(op.form, op.mass, -GAP_TOL)
        for op in (sector_form(st, k) for k in range(4))]
    got = np.array([e.eigenvalues for e in rep.sectors])
    assert np.max(np.abs(got - RUN_SPECTRUM_EIGENVALUES[(q, lam)])) <= 1e-10
    assert [e.below_split for e in rep.sectors] == [1, 0, 0, 0]
    assert max(e.backward_error for e in rep.sectors) <= 1e-12


@pytest.mark.parametrize("q,lam", sorted(RUN_SPECTRUM_EIGENVALUES))
def test_run_spectrum_cases_never_refine(q, lam, monkeypatch):
    # ARPACK stops at BACKWARD_TOL; a pair it leaves over that bound would be
    # refined through one more factorization, so the count of factorizations
    # is one per sector plus sector 0's lower-bound shift and nothing else
    st = sngs.solve(sngs.normal_member(q, lam), 4096)
    calls = []
    inertia = sngs.operators._inertia

    def counted(form, mass, tau):
        calls.append(tau)
        return inertia(form, mass, tau)
    monkeypatch.setattr(sngs.operators, "_inertia", counted)
    rep = nondegeneracy_report(st, 3)
    assert len(calls) == 5
    assert [e.factorizations for e in rep.sectors] == [2, 1, 1, 1]
    assert all(e.solves > 0 for e in rep.sectors)
