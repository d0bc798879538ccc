import numpy as np
import pytest

import sngs
from sngs.errors import ParityMismatch, UnconvergedState, WrongConvention
from sngs.linearized import (GAP_TOL, _compensated_translation, convention_map,
                             nondegeneracy_report, quadratic_form_value,
                             sector_form, sector_spectrum, translation_mode)
from sngs.solver import _wnorm


def odd_pair(grid, rng, width_max=4.0):
    r = grid.nodes
    f = np.zeros(grid.n)
    g = np.zeros(grid.n)
    for arr in (f, g):
        for _ in range(2):
            w = rng.uniform(0.7, width_max)
            a = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
            arr += a * r * np.exp(-(r / w) ** 2)
    f[-2:] = g[-2:] = 0.0
    return (sngs.RadialField(grid=grid, values=f, parity=sngs.ODD),
            sngs.RadialField(grid=grid, values=g, parity=sngs.ODD))


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
    assert op.scalar
    assert op.form.shape[0] == len(op.act)


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
    assert quadratic_form_value(op, z, z) == 0.0


def test_quadratic_form_parity_mismatch(choquard):
    op = sector_form(choquard, 1)
    f = sngs.RadialField(grid=choquard.grid,
                         values=np.exp(-choquard.grid.nodes), parity=sngs.EVEN)
    with pytest.raises(ParityMismatch):
        quadratic_form_value(op, f, f)


def test_a1_nonnegative_on_random_odd_pairs(choquard):
    rng = np.random.default_rng(21)
    op = sector_form(choquard, 1)
    for _ in range(30):
        f, g = odd_pair(choquard.grid, rng)
        val = quadratic_form_value(op, f, g)
        x = np.concatenate([f.values[op.act], g.values[op.act]])
        scale = float(np.dot(op.mass * x, x))
        assert val >= -1e-8 * scale


def test_translation_mode_signs(choquard, solved_cache):
    f, g = translation_mode(choquard)
    assert np.all(f.values[1:-2] <= 1e-12 * choquard.sup_u())
    assert np.all(g.values[1:-2] <= 1e-12 * choquard.sup_v())
    kw = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    fk, _ = translation_mode(kw)
    interior = fk.values[2:-12]
    assert np.all(interior < 0.0)


def test_translation_mode_near_kernel(solved_cache):
    # The potential component decays like 1/r^2, so on a finite Dirichlet
    # domain the zero-mode value is limited by the boundary gauge (~1/R^3),
    # not by h; at R=120 the pair is in the kernel to ~1e-6 of its norm.
    vals = []
    for (n, rmax) in [(1024, 30.0), (2048, 60.0)]:
        st = solved_cache(1.0, 1.0, 0.0, 4.0, n=n, rmax=rmax)
        op = sector_form(st, 1)
        x = _compensated_translation(op)
        val = float(x @ (op.form @ x))
        scale = float(np.dot(op.mass * x, x))
        vals.append(abs(val) / scale)
    assert vals[0] <= 1e-3
    assert vals[1] <= vals[0] / 6.0  # ~cubic decay with the domain size


def test_translation_mode_residual_shrinks_with_domain(solved_cache):
    norms = []
    for (n, rmax) in [(1024, 30.0), (2048, 60.0)]:
        st = solved_cache(1.0, 1.0, 0.0, 4.0, n=n, rmax=rmax)
        op = sector_form(st, 1)
        x = _compensated_translation(op)
        res = op.form @ x
        norms.append(float(np.sqrt(np.sum(res * res / op.mass)))
                     / float(np.sqrt(np.dot(op.mass * x, x))))
    assert norms[1] <= norms[0] / 3.5


def test_sector_spectrum_choquard(choquard):
    op1 = sector_form(choquard, 1)
    rep1 = sector_spectrum(op1, 2)
    assert abs(rep1.eigenvalues[0]) <= 5e-4   # zero mode (truncation floor)
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
# cases at n=4096, recorded with the eigensolve that shifted every sector from
# a lower bound of the spectrum, before the inertia split at -GAP_TOL
RUN_SPECTRUM_EIGENVALUES = {
    (4.0, 1e-2): [
        [-0.6305178479064808, 0.0029081044656975585, 0.01162784807915651,
         0.026145753389727133, 0.04644002292793514, 0.07248115451551307],
        [2.5554456561800762e-05, 0.0059683374569297065, 0.017601356280816827,
         0.03503191881516576, 0.05824436451714066, 0.08721698089166585],
        [0.009231800572650606, 0.022987806584178205, 0.04219309658710069,
         0.06685466260913264, 0.09694743296324893, 0.1324206884032031],
        [0.013571358971310232, 0.030159262784422047, 0.0521481917066513,
         0.07959836290023325, 0.11252210494140336, 0.15092018614301672],
    ],
    (2.5, 1e2): [
        [-0.6300573806006282, 0.0029100656098095534, 0.011635664277219515,
         0.026163237239109627, 0.04647086752821794, 0.07252893014564421],
        [2.4962574395646494e-05, 0.00596012631032572, 0.017577980648474156,
         0.03498605865871429, 0.05816894716419885, 0.08710517162819986],
        [0.009231808871868363, 0.022987924216319122, 0.042193785959013574,
         0.06685727167229594, 0.09695500510183575, 0.13243906582454112],
        [0.013571359123443205, 0.030159266036794197, 0.05214821814154691,
         0.07959849325107271, 0.11252257435560109, 0.1509215454474937],
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
