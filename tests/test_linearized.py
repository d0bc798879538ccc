import numpy as np
import pytest

import sngs
from sngs.errors import ParityMismatch, UnconvergedState, WrongConvention
from sngs.linearized import (GAP_TOL, convention_map, nondegeneracy_report,
                             quadratic_form_value, sector_form, sector_spectrum,
                             translation_mode)
from sngs.solver import _wnorm


def odd_field(grid, rng, width_max=4.0):
    r = grid.nodes
    f = np.zeros(grid.n)
    for _ in range(2):
        w = rng.uniform(0.7, width_max)
        a = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        f += a * r * np.exp(-(r / w) ** 2)
    f[-2:] = 0.0
    return sngs.RadialField(grid=grid, values=f, parity=sngs.ODD)


def assert_nonnegative_pair_forms(op, fields, rng):
    """L_1(f, f) >= 0 on each field, and L_1 is the minimum over the
    potential: the pair form at any y = r g is not below it."""
    for f in fields:
        val = quadratic_form_value(op, f)
        x = f.values[op.act]
        assert val >= -1e-8 * float(np.dot(op.mass * x, x))
        xy = np.concatenate([x, rng.normal(size=op.form.shape[0] - len(x))])
        assert float(xy @ (op.form @ xy)) >= val - 1e-12 * abs(val)


@pytest.fixture(scope="module")
def choquard(solved_cache):
    return solved_cache(1.0, 1.0, 0.0, 4.0, n=1536, rmax=30.0)


@pytest.fixture(scope="module")
def choquard_a2(choquard):
    return convention_map(choquard, "to_a2")


def test_convention_roundtrip(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    there = convention_map(st, "to_a2")
    back = convention_map(there, "from_a2")
    assert back.params == st.params
    assert np.max(np.abs(back.u.values - st.u.values)) <= 1e-12 * st.sup_u()


def test_convention_map_choquard_residual(choquard, choquard_a2):
    # (U/sqrt2, V/2) solves -Du + u = 2vu, -Dv = u^2
    assert choquard_a2.params.a == 2.0
    assert choquard_a2.params.nu == 0.0
    assert choquard_a2.residual_norm <= 1e-10
    assert np.allclose(choquard_a2.u.values,
                       choquard.u.values / np.sqrt(2.0), atol=0)
    assert np.allclose(choquard_a2.v.values, choquard.v.values / 2.0,
                       atol=1e-12 * choquard.sup_v())


def test_paper_displayed_pair_fails(choquard, choquard_a2):
    # keeping v unscaled does not satisfy the first a=2 equation
    grid = choquard.grid
    from sngs import operators
    A = operators.radial_laplacian(grid)
    u2 = choquard_a2.u.values
    F_wrong = A @ u2 + u2 - 2.0 * choquard.v.values * u2
    F_wrong[-2:] = 0.0
    rel = _wnorm(grid, F_wrong) / _wnorm(grid, u2)
    assert rel > 1e-1


def test_convention_nu_multiplier(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    a2 = convention_map(st, "to_a2")
    assert a2.params.nu == pytest.approx(2.0, rel=1e-14)  # 2^{(q-2)/2} at q=4


def test_convention_wrong_direction(choquard, choquard_a2):
    with pytest.raises(WrongConvention):
        convention_map(choquard_a2, "to_a2")
    with pytest.raises(WrongConvention):
        convention_map(choquard, "from_a2")
    with pytest.raises(WrongConvention):
        convention_map(choquard, "upside_down")


def test_sector_form_centrifugal(choquard):
    assert sector_form(choquard, 1).centrifugal == 2.0
    assert sector_form(choquard, 2).centrifugal == 6.0


def test_sector_form_kwong_scalar(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    op = sector_form(st, 0)
    assert op.form.shape[0] == len(op.act) == len(op.mass)


def test_sector_form_unconverged():
    g = sngs.make_grid(20.0, 256)
    from sngs.solver import GroundState, ModelParams
    from sngs.hartree import hartree_potential
    u = sngs.RadialField(grid=g, values=np.exp(-g.nodes**2))
    bogus = GroundState(params=ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0),
                        u=u, v=hartree_potential(u).v, residual_norm=0.5,
                        residual_floor=0.0, iterations=0, grid=g)
    with pytest.raises(UnconvergedState):
        sector_form(bogus, 0)
    with pytest.raises(UnconvergedState):
        translation_mode(bogus)


def test_sector_form_exactly_symmetric(choquard):
    for k in (0, 1, 2):
        op = sector_form(choquard, k)
        assert abs(op.form - op.form.T).max() == 0.0


def test_quadratic_form_zero_pair(choquard):
    op = sector_form(choquard, 1)
    z = sngs.RadialField(grid=choquard.grid,
                         values=np.zeros(choquard.grid.n), parity=sngs.ODD)
    assert quadratic_form_value(op, z) == 0.0


def test_quadratic_form_parity_mismatch(choquard):
    op = sector_form(choquard, 1)
    f = sngs.RadialField(grid=choquard.grid,
                         values=np.exp(-choquard.grid.nodes), parity=sngs.EVEN)
    with pytest.raises(ParityMismatch):
        quadratic_form_value(op, f)


def test_a1_nonnegative_on_random_odd_pairs(choquard):
    rng = np.random.default_rng(21)
    op = sector_form(choquard, 1)
    assert_nonnegative_pair_forms(
        op, [odd_field(choquard.grid, rng) for _ in range(30)], rng)


def test_translation_mode_signs(choquard, solved_cache):
    f = translation_mode(choquard)
    assert np.all(f.values[1:-2] <= 1e-12 * choquard.sup_u())
    kw = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    interior = translation_mode(kw).values[2:-12]
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
    from sngs.cli import normalized_state_for_spectrum
    zero = []
    for n in (1024, 2047, 4093):
        st, _ = normalized_state_for_spectrum(4.75, 10.0, n)
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


# sector eigenvalues (k = 0..3, six each) of the two scripts/run_spectrum.py
# cases at n=4096, recorded with the pencil that eliminates the potential
# through the sweep's Green's kernel; a dense eigh of each Schur complement
# agreed within 4.1e-11
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
    from sngs.cli import normalized_state_for_spectrum
    st, _ = normalized_state_for_spectrum(q, lam, 4096)
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
    from sngs.cli import normalized_state_for_spectrum
    st, _ = normalized_state_for_spectrum(q, lam, 4096)
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
