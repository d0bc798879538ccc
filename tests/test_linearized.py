import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracles
import sngs
from sngs.hartree import green_bands
from sngs.linearized import (GAP_TOL, SectorOperator, nondegeneracy_report,
                             ordering_gap, sector_form, sector_spectrum,
                             translation_mode)
from sngs.operators import SymmetricBands, active_slice, schur_apply


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
        x = f[1:-2]              # the active nodes 1 .. n-3
        val = float(x @ schur_apply(op.form, op.mass, x))
        assert val >= -1e-8 * float(np.dot(op.mass * x, x))
        xy = np.concatenate([x, rng.normal(size=len(op.form.diag) - len(x))])
        assert float(xy @ (op.form @ xy)) >= val - 1e-12 * abs(val)


@pytest.fixture(scope="module")
def choquard(solved_cache):
    return solved_cache(1.0, 1.0, 0.0, 4.0, n=1536, rmax=30.0)


def test_sector_form_centrifugal(choquard):
    # k(k+1) int f^2 / r^2 r^2 dr: the f blocks of sectors 2 and 1 differ by
    # 4 W / r^2, on the one r^2 dr weight vector W
    op1, op2 = sector_form(choquard, 1), sector_form(choquard, 2)
    N = len(op1.mass)
    lead1, lead2 = (oracles.csr_of(op.form)[:N, :N] for op in (op1, op2))
    diff = (lead2 - lead1).toarray()
    r = choquard.grid.nodes[active_slice(choquard.grid)]
    want = np.diag(4.0 * op1.mass / r ** 2)
    assert np.max(np.abs(diff - want)) <= 1e-14 * np.max(np.abs(op2.form.diag))


def test_kwong_pair_form_certifies_as_its_scalar_pencil(solved_cache):
    # at a = 0 the coupling band is zero, so the pair form splits into the
    # scalar linearization and T_k, which adds no negative pivot: the counts
    # and the witness are those of the scalar pencil, and so is Temple's
    # enclosure up to the rounding of the two LDL^T solves
    st = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    act = active_slice(st.grid)
    probes = (st.u[act], translation_mode(st)[act])
    for k in (0, 1):
        op = sector_form(st, k)
        N = len(op.mass)
        assert len(op.form.diag) == 2 * N and not op.form.upper[N].any()
        scalar = SectorOperator(k, SymmetricBands(
            op.form.diag[:N], {1: op.form.upper[1][:N - 1],
                               2: op.form.upper[2][:N - 2]}), op.mass)
        pair, alone = (sector_spectrum(o, probes[k]) for o in (op, scalar))
        for tau in (-GAP_TOL, GAP_TOL):
            assert sngs.operators.count_below(op.form, op.mass, tau) \
                == sngs.operators.count_below(scalar.form, op.mass, tau)
        assert pair.count_below == alone.count_below == 1
        if k == 0:
            assert pair.witness == alone.witness < -GAP_TOL
        else:
            assert pair.enclosure == pytest.approx(alone.enclosure,
                                                   rel=1e-9, abs=1e-12)
            assert pair.zero_mode_match == pytest.approx(
                alone.zero_mode_match, abs=1e-12)


@pytest.mark.parametrize("h", [0.05, 28.0 / 4095])
def test_ordering_gap_bounds_the_dense_lowest_eigenvalue(h):
    # Gershgorin's bound is at most lambda_min(T_2 - T_1), and above 0
    for m in (13, 14, 57, 128, 257, 400):
        (d1, e1), (d2, e2) = (green_bands(k, m, h) for k in (1, 2))
        e = e2 - e1
        lowest = np.linalg.eigvalsh(np.diag(d2 - d1) + np.diag(e, 1)
                                    + np.diag(e, -1))[0]
        assert 0.0 < ordering_gap(m, h) <= lowest


@pytest.mark.parametrize("m", [13, 100, 1000, 4093, 8188, 65533, 2 ** 17,
                               2 ** 20 - 3, 2 ** 20])
def test_ordering_gap_is_positive_on_every_grid(m):
    # T_2 - T_1 is strictly diagonally dominant by about 4 / (3 m^2 h)
    h = 28.0 / (m + 2)
    assert ordering_gap(m, h) * m * m * h >= 1.0


def hand_built_state(residual_norm, residual_floor):
    """A Gaussian posing as a state, with its residuals set by hand."""
    g = sngs.make_grid(20.0, 256)
    st = sngs.ground_state(g, np.exp(-g.nodes**2),
                           sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0), 0,
                           sngs.operators.radial_laplacian(g))
    return replace(st, residual_norm=residual_norm,
                   residual_floor=residual_floor, origin_residual=0.0)


@pytest.mark.parametrize("name", ["residual_norm", "origin_residual"])
def test_report_refuses_a_state_before_assembling_a_form(choquard, monkeypatch,
                                                         name):
    # a state `acceptance_failures` refuses is under-resolved, with no
    # sector form assembled; |F(u)_0| is held to residual_bound lam max|u|,
    # since node 0 has no r^2 dr weight and residual_norm cannot see it
    bound = choquard.residual_bound
    if name == "origin_residual":
        bound *= choquard.params.lam * choquard.diagnostics.sup_u
    assert sngs.acceptance_failures(choquard) == []
    bogus = replace(choquard, **{name: 1.01 * bound})
    assert [f[0] for f in sngs.acceptance_failures(bogus)] == [name]

    def assembled(*args):
        raise AssertionError("a sector form was assembled")
    monkeypatch.setattr(sngs.linearized.operators, "dirichlet_form", assembled)
    rep = nondegeneracy_report(bogus)
    assert rep.verdict == "under-resolved"
    assert rep.sectors == [] and rep.higher_sectors is None
    assert rep.under_resolved == "the acceptance rule refuses the state"


def test_report_names_a_grid_too_coarse_for_a_zero_test(monkeypatch):
    # a state the rule accepts on a grid with 50 h^2 >= 1 is under-resolved
    # too, and the report says it is the grid
    g = sngs.make_grid(20.0, 64)
    st = sngs.ground_state(g, np.exp(-g.nodes**2),
                           sngs.ModelParams(lam=1.0, a=1.0, nu=0.0, q=4.0), 0,
                           sngs.operators.radial_laplacian(g))
    monkeypatch.setattr(sngs.linearized, "acceptance_failures", lambda s: [])

    def assembled(*args):
        raise AssertionError("a sector form was assembled")
    monkeypatch.setattr(sngs.linearized.operators, "dirichlet_form", assembled)
    rep = nondegeneracy_report(st)
    assert rep.verdict == "under-resolved" and rep.sectors == []
    assert rep.under_resolved == ("grid too coarse for a zero test: "
                                  "50 h^2 = 5.039 >= 1")


def test_sector_form_accepts_residual_within_its_bound():
    # the bound is the state's own 10 max(TOL, floor) = 2.6e-7, not a fixed
    # 1e-8: a state solved to its rounding floor on a fine grid is accepted
    st = hand_built_state(2e-8, 2.6e-8)
    assert st.residual_bound == pytest.approx(2.6e-7)
    assert "residual_norm" not in [f[0] for f in sngs.acceptance_failures(st)]
    assert sector_form(st, 1).k == 1
    assert translation_mode(st).shape == st.u.shape


def test_sector_form_exactly_symmetric(choquard):
    # the bands hold the pair form scipy.sparse assembles, an exactly
    # symmetric matrix, entry for entry
    for k in (0, 1, 2):
        ref = oracles.sector_form_csr(choquard, k)
        assert abs(ref - ref.T).max() == 0.0
        got = oracles.csr_of(sector_form(choquard, k).form)
        assert got.shape == ref.shape and (got != ref).nnz == 0


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
    # the augmented (f, y) pencil against a dense eigh of L_k itself: the
    # counts on both sides of the band, and the witness R(u) of sector 0
    st = solved_cache(1.0, 1.0, 1.0, 4.0, n=201, rmax=28.0)
    act = sngs.operators.active_slice(st.grid)
    for k in range(4):
        op = sector_form(st, k)
        exact, _ = oracles.dense_sector_pencil(op)
        for tau in (-GAP_TOL, GAP_TOL):
            assert sngs.operators.count_below(op.form, op.mass, tau) \
                == np.count_nonzero(exact < tau)
    op = sector_form(st, 0)
    x = st.u[act]
    entry = sector_spectrum(op, x)
    L = oracles.dense_schur(op)
    assert entry.witness == pytest.approx(x @ L @ x / np.dot(op.mass * x, x),
                                          rel=1e-10)


# normal-form members at n <= 257 whose certificates are held to the dense
# pencil: the two README spectrum cases, a concentrated state whose zero
# mode is a discretization error, and one near q = 2
DENSE_CASES = [(4.0, 1e-2, 257), (2.5, 1e2, 257), (4.75, 10.0, 257),
               (2.25, 1e-2, 201)]


@pytest.mark.parametrize("q,lam,n", DENSE_CASES)
def test_certificate_matches_the_dense_pencil(q, lam, n):
    st = sngs.solve(sngs.normal_form(q, lam)[1], n)
    act = sngs.operators.active_slice(st.grid)
    t = translation_mode(st)[act]
    for k, probe in ((0, st.u[act]), (1, t)):
        op = sector_form(st, k)
        exact, V = oracles.dense_sector_pencil(op)
        entry = sector_spectrum(op, probe)
        # the counts at +-GAP_TOL are the dense pencil's
        assert entry.count_below == np.count_nonzero(exact < GAP_TOL)
        assert sngs.operators.count_below(op.form, op.mass, -GAP_TOL) \
            == np.count_nonzero(exact < -GAP_TOL)
        if k == 0:
            continue
        # Temple's enclosure holds the dense sigma_1, and the Davis-Kahan
        # angle is at least the step's true angle to its eigenvector
        lo, rho = entry.enclosure
        assert lo - 1e-11 <= exact[0] <= rho + 1e-11, (lo, exact[0], rho)
        y = sngs.operators.inverse_step(op.form, op.mass, GAP_TOL, t)[2]
        true = sngs.linearized._angle(op.mass, y, V[:, 0])
        assert true <= entry.davis_kahan
        # so the certified match is at most the eigenvector's own match
        own = math.cos(sngs.linearized._angle(op.mass, V[:, 0], t))
        assert entry.zero_mode_match <= own + 1e-12


def _certified_sectors(st):
    """Sectors 0 and 1 of `st` certified as the report certifies them, on
    any state, refused or not."""
    act = active_slice(st.grid)
    probes = (st.u[act], translation_mode(st)[act])
    return [sector_spectrum(sector_form(st, k), probes[k]) for k in (0, 1)]


def test_witness_fallback_factors_sector_zero_again(monkeypatch):
    # a witness not below -GAP_TOL proves nothing: sector 0 is then factored
    # a second time at -GAP_TOL, the only second factorization, and its count
    # there certifies the radial gap instead (the state on 257 nodes is
    # refused, so the certificate is taken on its forms directly)
    st = sngs.solve(sngs.normal_form(4.0, 1e-2)[1], 257)
    calls = []
    inertia, rayleigh = sngs.operators._inertia, sngs.operators.rayleigh

    def counted(form, mass, tau):
        calls.append(tau)
        return inertia(form, mass, tau)

    def no_witness(form, mass, x):
        rho, eta = rayleigh(form, mass, x)
        return (-GAP_TOL if len(calls) == 1 else rho), eta
    monkeypatch.setattr(sngs.operators, "_inertia", counted)
    monkeypatch.setattr(sngs.operators, "rayleigh", no_witness)
    s0, s1 = _certified_sectors(st)
    assert calls == [GAP_TOL, -GAP_TOL, GAP_TOL]
    assert (s0.witness, s0.factorizations) == (-GAP_TOL, 2)
    exact, _ = oracles.dense_sector_pencil(sector_form(st, 0))
    assert s0.below_split == np.count_nonzero(exact < -GAP_TOL) == 1
    assert s0.count_below == s1.count_below == 1   # the verdict's counts
    # a count of 0 there leaves the one counted eigenvalue in the band
    calls.clear()

    def none_below_split(form, mass, tau):
        lu, below, fill = counted(form, mass, tau)
        return lu, (0 if tau < 0 else below), fill
    monkeypatch.setattr(sngs.operators, "_inertia", none_below_split)
    s0 = _certified_sectors(st)[0]
    assert s0.count_below == 1 and s0.below_split == 0   # no radial gap


@pytest.mark.parametrize("k", range(-8, 0))
def test_q_near_two_is_accepted_and_certified(k):
    # at q = 2.05, lambda < 1 the Kwong-side member's tail carries the sech
    # offset 2 ln 2 / (q - 2) = 40 ln 2 decay lengths: on its domain
    # 28 + 40 ln 2 every state is accepted and certified
    st = sngs.solve(sngs.normal_form(2.05, 10.0 ** (k / 4.0))[1], 4096)
    assert st.grid.r_max == pytest.approx(28.0 + 40.0 * math.log(2.0),
                                          rel=1e-15)
    assert sngs.acceptance_failures(st) == []
    assert nondegeneracy_report(st).verdict == "nondegenerate"


def _zero_enclosure(q, lam, n):
    """An enclosure [lo, hi] of sector 1's lowest eigenvalue: Temple's when
    the count isolates it below +GAP_TOL, [GAP_TOL, rho] when the count is 0
    (every eigenvalue lies above the shift)."""
    st = sngs.solve(sngs.normal_form(q, lam)[1], n)
    act = sngs.operators.active_slice(st.grid)
    entry = sector_spectrum(sector_form(st, 1), translation_mode(st)[act])
    if entry.count_below == 0:
        return [GAP_TOL, entry.enclosure[1]]
    assert entry.count_below == 1 and entry.enclosure[0] is not None
    return entry.enclosure


def test_translation_eigenvalue_falls_under_refinement():
    # the whole-space potential leaves only the discretization error in the
    # zero mode: about 15x per n -> 2n - 1 at q=4.75, lambda=10, decided on
    # the enclosures (each rung's upper end below a tenth of the last lower)
    rungs = [_zero_enclosure(4.75, 10.0, n) for n in (1024, 2047, 4093)]
    for (lo, _), (_, hi) in zip(rungs, rungs[1:]):
        assert 0.0 < hi <= lo / 10.0, rungs


@pytest.mark.parametrize("q,lam", [(4.0, 1e-2), (2.25, 1e-2), (4.75, 10.0)])
def test_zero_mode_sits_at_round_off_or_falls_under_refinement(q, lam):
    # with the centrifugal term on W / r^2 the sector-1 "zero" carries no
    # O(h^2) term: at q = 4 and 2.25 its enclosure lies at round-off on every
    # rung (within 1e-10 of 0; sigma_2 is about 0.67 there), at q = 4.75 it
    # is an O(h^4) error that falls about 16x per n -> 2n - 1, by enclosures
    rungs = [_zero_enclosure(q, lam, n) for n in (4096, 8191, 16381)]
    at_round_off = all(max(abs(lo), abs(hi)) <= 1e-10 for lo, hi in rungs)
    falling = all(0.0 < hi <= lo / 10.0
                  for (lo, _), (_, hi) in zip(rungs, rungs[1:]))
    assert at_round_off or falling, rungs


def test_sector_spectrum_choquard(choquard):
    act = sngs.operators.active_slice(choquard.grid)
    t = translation_mode(choquard)[act]
    rep1 = sector_spectrum(sector_form(choquard, 1), t)
    assert rep1.count_below == 1
    lo, rho = rep1.enclosure
    assert -5e-4 <= lo <= rho <= 5e-4   # zero mode
    rep2 = sector_spectrum(sector_form(choquard, 2), t)
    assert rep2.count_below == 0 and rep2.enclosure[1] > 0.0


def test_sector_ordering(choquard):
    # L_1 <= L_2 <= L_3: at every shift the counts do not rise with k, and
    # sector 1's Temple lower end plus the Weyl shift stays below the upper
    # ends of sectors 2 and 3
    ops = [sector_form(choquard, k) for k in (1, 2, 3)]
    for tau in (GAP_TOL, 0.05, 0.1, 0.2, 0.4):
        counts = [sngs.operators.count_below(op.form, op.mass, tau)
                  for op in ops]
        assert counts[0] >= counts[1] >= counts[2], (tau, counts)
    act = sngs.operators.active_slice(choquard.grid)
    t = translation_mode(choquard)[act]
    lo = sector_spectrum(ops[0], t).enclosure[0]
    r_act = choquard.grid.nodes[act[-1]]
    for k, op in ((2, ops[1]), (3, ops[2])):
        assert lo + (k * (k + 1) - 2) / r_act ** 2 \
            <= sector_spectrum(op, t).enclosure[1]


def test_nondegeneracy_report_choquard(solved_cache):
    st = solved_cache(1.0, 1.0, 0.0, 4.0, n=2048, rmax=60.0)
    rep = nondegeneracy_report(st)
    assert rep.verdict == "nondegenerate"
    s0, s1 = rep.sectors
    assert s1.count_below == 1
    assert -GAP_TOL < s1.enclosure[0] <= s1.enclosure[1] < GAP_TOL
    assert s1.zero_mode_match >= 0.999
    assert s0.count_below == 1 and s0.witness < -GAP_TOL
    assert rep.higher_sectors["bound"] > 0.0
    assert rep.higher_sectors["ordering_gap"] > 0.0


def test_nondegeneracy_kwong_radial_kernel_free(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0, n=1536, rmax=30.0)
    rep = nondegeneracy_report(st)
    s0, s1 = rep.sectors
    assert s0.count_below == 1 and s0.witness < -GAP_TOL
    assert s1.count_below == 1
    assert -GAP_TOL < s1.enclosure[0] <= s1.enclosure[1] < GAP_TOL


# the lowest six eigenvalues of sectors k = 0..3 in the two `spectrum` runs
# listed under "Experiment runs" in the README, at n=4096, recorded with the
# pencil that eliminates the potential through the sweep's Green's kernel and
# the centrifugal term on W / r^2 (sector 0 has none; sectors 1-3 moved by at
# most 1.2e-8 from the trapezoid dr weights it replaced); a dense eigh of each
# Schur complement agreed within 5.6e-11.  The (2.5, 1e2) row is on that
# member's domain member_rmax(2.5) = 28 + 4 ln 2, recorded with ARPACK's
# shift-invert eigsh at -3.5 (`oracles.arpack_eigenpairs`), which reproduces
# the (4, 1e-2) row within 2.3e-12; above the lowest of each sector the
# values are largely box modes, which move with the domain
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
        [-2.70051964845054, 0.4081581703644681, 0.7424860997063725,
         0.8516745388162841, 0.9221488634262238, 1.0133943604264886],
        [2.0873969219792343e-11, 0.6755891700407828, 0.8245365065808414,
         0.8969005758000934, 0.97556216389565, 1.0816990913791251],
        [0.6226484978318378, 0.8090266535751196, 0.8852264377787522,
         0.9540050764949672, 1.0480957374468947, 1.1678243127175802],
        [0.8179929737940528, 0.8874317791146114, 0.9473909969234988,
         1.0300444026682039, 1.1372794439124068, 1.26809337986806],
    ],
}


@pytest.mark.parametrize("q,lam", sorted(RUN_SPECTRUM_EIGENVALUES))
def test_run_spectrum_cases_match_recorded(q, lam):
    st = sngs.solve(sngs.normal_form(q, lam)[1], 4096)
    recorded = np.array(RUN_SPECTRUM_EIGENVALUES[(q, lam)])
    rep = nondegeneracy_report(st)
    assert rep.verdict == "nondegenerate"
    # the counts place the recorded values: one each between two of them,
    # and at the shifts +-GAP_TOL
    ops = [sector_form(st, k) for k in range(4)]
    for op, row in zip(ops, recorded):
        taus = [-GAP_TOL, GAP_TOL, *(0.5 * (row[1:] + row[:-1]))]
        assert [sngs.operators.count_below(op.form, op.mass, tau)
                for tau in taus] \
            == [np.count_nonzero(row < tau) for tau in taus]
    s0, s1 = rep.sectors
    assert [e.count_below for e in rep.sectors] == [1, 1]
    assert s0.witness < -GAP_TOL
    # Temple's enclosure holds the recorded sigma_1
    lo, rho = s1.enclosure
    assert lo - 1e-11 <= recorded[1][0] <= rho + 1e-11
    # sector 1 bounds the recorded minima of sectors 2 and 3 from below
    higher = rep.higher_sectors
    assert higher["r_act"] == st.grid.nodes[-3]
    assert higher["ordering_gap"] > 0.0
    assert higher["bound"] == lo + 4.0 / higher["r_act"] ** 2 > 0.0
    for k in (2, 3):
        assert lo + (k * (k + 1) - 2) / higher["r_act"] ** 2 <= recorded[k][0]


@pytest.mark.parametrize("q,lam", sorted(RUN_SPECTRUM_EIGENVALUES))
def test_run_spectrum_cases_never_refine(q, lam, monkeypatch):
    # one factorization per sector, at +GAP_TOL, and nothing else: sector
    # 0's witness holds, so it is not factored again at -GAP_TOL
    st = sngs.solve(sngs.normal_form(q, lam)[1], 4096)
    calls = []
    inertia = sngs.operators._inertia

    def counted(form, mass, tau):
        calls.append(tau)
        return inertia(form, mass, tau)
    monkeypatch.setattr(sngs.operators, "_inertia", counted)
    rep = nondegeneracy_report(st)
    assert calls == [GAP_TOL] * 2
    assert [e.factorizations for e in rep.sectors] == [1, 1]
    assert rep.sectors[0].below_split is None


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
        lu, *counts = inertia(form, mass, tau)
        factor = _Factor(lu)
        factors.append(weakref.ref(factor))
        return factor, *counts

    def formed(state, k):
        form_crowd.append(_alive(forms))
        op = assemble(state, k)
        forms.append(weakref.ref(op))
        return op
    monkeypatch.setattr(sngs.operators, "_inertia", factored)
    monkeypatch.setattr(sngs.linearized, "sector_form", formed)
    rep = nondegeneracy_report(st)
    assert rep.verdict == "nondegenerate"
    assert [e.factorizations for e in rep.sectors] == [1, 1]
    assert factor_crowd == [0] * 2
    assert form_crowd == [0] * 2
    assert _alive(factors) == _alive(forms) == 0


def test_sector_one_below_the_split_voids_the_higher_sector_bound(monkeypatch):
    # with a second sector-1 eigenvalue counted below the shift, the step's
    # Rayleigh quotient need not bound sigma_1 from Temple's side: no
    # enclosure, no k >= 2 bound, and the verdict is degenerate
    st = sngs.solve(sngs.normal_form(4.0, 1e-2)[1], 1024)
    inertia = sngs.operators._inertia
    calls = []

    def counted_one_more(form, mass, tau):
        calls.append(tau)
        lu, below, fill = inertia(form, mass, tau)
        return lu, below + (len(calls) == 2), fill
    monkeypatch.setattr(sngs.operators, "_inertia", counted_one_more)
    rep = nondegeneracy_report(st)
    s1 = rep.sectors[1]
    assert s1.count_below == 2
    assert s1.enclosure[0] is None and s1.enclosure[1] < GAP_TOL
    assert s1.davis_kahan is None and s1.zero_mode_match is None
    assert rep.higher_sectors["bound"] is None
    assert rep.verdict == "degenerate"


# the CI spectrum cases, and two states whose zero mode is an O(h^4) error
# rather than round-off (ROADMAP item 7's table) at n=8191
ARPACK_CASES = [(4.0, 1e-2, 1024), (4.75, 10.0, 2048), (2.5, 1e2, 4096),
                (4.75, 10.0, 8191), (5.5, 1e2, 8191)]


@pytest.mark.parametrize("q,lam,n", ARPACK_CASES)
def test_temple_encloses_the_arpack_eigenvalue(q, lam, n):
    # each sector's certificate against ARPACK's shift-invert eigsh through
    # splu's LDL^T of the scipy.sparse pair form, above -GAP_TOL (taken on
    # the forms directly: the state at (4.75, 10) on 2048 nodes is refused)
    st = sngs.solve(sngs.normal_form(q, lam)[1], n)
    s0, s1 = sectors = _certified_sectors(st)
    gap, _, _ = oracles.arpack_eigenpairs(oracles.sector_form_csr(st, 0),
                                          sector_form(st, 0).mass, 1, -GAP_TOL)
    assert s0.count_below == 1 and gap[0] > GAP_TOL
    (sigma1, sigma2), _, _ = oracles.arpack_eigenpairs(
        oracles.sector_form_csr(st, 1), sector_form(st, 1).mass, 2, -GAP_TOL)
    assert s1.count_below == 1 and sigma2 > GAP_TOL
    lo, rho = s1.enclosure
    assert lo - 1e-11 <= sigma1 <= rho + 1e-11, (lo, sigma1, rho)
    assert [e.factorizations for e in sectors] == [1, 1]
