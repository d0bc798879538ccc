import numpy as np
import pytest
import scipy.sparse as sp

import sngs
from sngs import operators
import oracles
from oracles import bands_of


def dirichlet_1d(m, h):
    """Second-difference operator with Dirichlet ends on m interior nodes, as
    a CSR matrix (`bands_of` gives the form the package takes)."""
    main = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def test_dirichlet_spectrum_matches_discrete_formula():
    # sin(k x_j) are the eigenvectors: their Rayleigh quotients are the
    # discrete eigenvalues 4/h^2 sin^2(k h / 2), at a rounding-level residual
    m = 200
    h = np.pi / (m + 1)
    A = bands_of(dirichlet_1d(m, h))
    mass = np.ones(m)
    x = np.arange(1, m + 1) * h
    for k in (1, 2, 3):
        expect = 4.0 / h**2 * np.sin(k * h / 2.0) ** 2
        rho, eta = operators.rayleigh(A, mass, np.sin(k * x))
        assert rho == pytest.approx(expect, rel=1e-12)
        assert eta <= 1e-12 * 4.0 / h**2


def test_count_below_dirichlet():
    m = 200
    h = np.pi / (m + 1)
    A = dirichlet_1d(m, h)
    mass = np.ones(m)
    exact = 4.0 / h**2 * np.sin(np.arange(1, m + 1) * h / 2.0) ** 2
    A = bands_of(A)
    assert operators.count_below(A, mass, exact[0] - 0.5) == 0
    for k in (1, 2, 7, 50, 199):
        tau = 0.5 * (exact[k - 1] + exact[k])
        assert operators.count_below(A, mass, tau) == k


def two_block_pencil(m=60):
    """[[T1, C], [C, T2]] on 2m nodes: a delta well in T1 binds one isolated
    eigenvalue near -42, and T2, a Dirichlet chain on [0, 60], puts a tight
    cluster near (pi j/60)^2 ~ 0.0027 j^2 just above zero."""
    h1 = 1.0 / (m + 1)
    well = np.zeros(m)
    well[m // 2] = -13.0 / h1
    T1 = dirichlet_1d(m, h1) + sp.diags(well)
    T2 = dirichlet_1d(m, 60.0 / (m + 1))
    C = sp.diags(np.full(m, 1e-3))
    A = sp.bmat([[T1, C], [C, T2]], format="csr")
    mass = np.concatenate([np.ones(m), 1.0 + 0.3 * np.sin(np.arange(m))])
    return A, mass


def test_inertia_split_matches_dense():
    import scipy.linalg as sla
    A, mass = two_block_pencil()
    assert A.shape[0] >= 64
    exact = sla.eigh(A.toarray(), np.diag(mass), eigvals_only=True)
    assert exact[0] < -40.0 and 0.0 < exact[1] < 0.003   # deep, then the cluster
    # the deep eigenvalue is counted on both sides of the band +-1e-3, and
    # the cluster above it one by one
    A = bands_of(A)
    assert operators.count_below(A, mass, -1e-3) == 1
    assert operators.count_below(A, mass, 1e-3) == 1
    for j in range(1, 6):
        tau = 0.5 * (exact[j] + exact[j + 1])
        assert operators.count_below(A, mass, tau) == j + 1


def test_dirichlet_smallest_tends_to_one():
    # inverse steps from a parabola at a shift the count places between the
    # two lowest eigenvalues: Temple's enclosure holds 4/h^2 sin^2(h/2) and
    # closes on it, and that tends to 1
    rhos = []
    for m in (100, 400, 1600):
        h = np.pi / (m + 1)
        A = bands_of(dirichlet_1d(m, h))
        mass, tau = np.ones(m), 2.5
        x = np.arange(1, m + 1) * h
        y = x * (np.pi - x)
        for _ in range(6):
            below, _, y = operators.inverse_step(A, mass, tau, y)
            assert below == 1
            y /= np.linalg.norm(y)
        rho, eta = operators.rayleigh(A, mass, y)
        exact = 4.0 / h**2 * np.sin(h / 2.0) ** 2
        assert rho - eta**2 / (tau - rho) <= exact <= rho + 1e-14
        assert rho - exact <= 1e-9
        rhos.append(rho)
    assert abs(rhos[-1] - 1.0) < 1e-5
    assert abs(rhos[0] - 1.0) > abs(rhos[-1] - 1.0)


def test_identity_pencil():
    m = 120
    mass = np.linspace(0.5, 2.0, m)
    A = bands_of(sp.diags(mass))
    rng = np.random.default_rng(4)
    for _ in range(4):
        rho, eta = operators.rayleigh(A, mass, rng.normal(size=m))
        assert rho == pytest.approx(1.0, rel=1e-14) and eta <= 1e-14
    assert operators.count_below(A, mass, 1.0 - 1e-9) == 0
    assert operators.count_below(A, mass, 1.0 + 1e-9) == m


def test_small_mass_rows_match_dense_oracle():
    # the weighted forms scale like r_i r_j and their mass like r_i^2, which
    # spans 1e-9 .. 1 here; the count, the inverse step and the M^-1 norm
    # of the residual must lose nothing on the rows where the mass is
    # smallest
    import scipy.linalg as sla
    m = 200
    r = np.geomspace(10 ** -4.5, 1.0, m)
    mass = r * r
    well = np.where(r < 1e-2, -40.0, 0.0)
    T = dirichlet_1d(m, 1.0 / (m + 1)) + sp.diags(well)
    A = (sp.diags(r) @ T @ sp.diags(r)).tocsr()
    exact, V = sla.eigh(A.toarray(), np.diag(mass))
    A = bands_of(A)
    assert mass.min() < 1.01e-9 and exact[0] < -1e-3
    below = np.count_nonzero(exact < -1e-3)
    for j in range(below, below + 5):   # entrywise, smallest-mass rows too
        count, _, y = operators.inverse_step(A, mass, -1e-3, V[:, j])
        assert count == below
        want = V[:, j] / (exact[j] + 1e-3)
        assert np.max(np.abs(y - want)) <= 1e-10 * np.max(np.abs(want))
        rho, eta = operators.rayleigh(A, mass, y)
        assert abs(rho - exact[j]) <= 1e-10 * max(1.0, abs(exact[j]))
        assert eta <= 1e-9 * max(1.0, abs(exact[j]))
    x = V[:, below] + 1e-3 * V[:, below + 1]
    rho, eta = operators.rayleigh(A, mass, x)
    res = A @ x - rho * mass * x
    assert eta == pytest.approx(np.sqrt(np.dot(res / mass, res)
                                        / np.dot(mass * x, x)), rel=1e-12)


def test_eigensolve_counts(monkeypatch):
    # one factorization per count, the inverse step through the same one
    A, mass = two_block_pencil()
    calls = []
    inertia = operators._inertia

    def counted(form, mass, tau):
        calls.append(tau)
        return inertia(form, mass, tau)
    monkeypatch.setattr(operators, "_inertia", counted)
    A = bands_of(A)
    below, fill, y = operators.inverse_step(A, mass, 1e-3, np.ones(len(mass)))
    assert (below, calls) == (1, [1e-3]) and fill > 0 and y.shape == mass.shape
    assert operators.inverse_step(A, mass, -1e-3)[::2] == (1, None)
    assert calls == [1e-3, -1e-3]


@pytest.mark.parametrize("c,below,above", [(10.0, 3, 2), (55.0, 7, 1)])
def test_every_pair_below_the_split_and_those_asked_above(c, below, above):
    # the pairs below the split are counted, however many there are, and so
    # is each of those above it, one count per shift between two of them
    import scipy.linalg as sla
    m = 80
    mass = 1.0 + 0.3 * np.sin(np.arange(m))
    A = (dirichlet_1d(m, np.pi / (m + 1)) - sp.diags(c * mass)).tocsr()
    exact = sla.eigh(A.toarray(), np.diag(mass), eigvals_only=True)
    assert np.count_nonzero(exact < -1e-3) == below
    A = bands_of(A)
    assert operators.count_below(A, mass, -1e-3) == below
    for j in range(below + 1, below + above + 1):
        tau = 0.5 * (exact[j - 1] + exact[j])
        assert operators.count_below(A, mass, tau) == j


def test_value_returned_below_the_split_is_refused():
    # the inverse step's Rayleigh quotient passes as Temple's enclosure of
    # the lowest eigenvalue only when the count at +GAP_TOL isolates that
    # one eigenvalue below it and the quotient is below it too
    import scipy.linalg as sla
    from sngs.linearized import GAP_TOL, SectorOperator, sector_spectrum
    m = 60
    mass = 1.0 + 0.3 * np.sin(np.arange(m))
    rng = np.random.default_rng(3)

    def sector(c):
        A = (dirichlet_1d(m, np.pi / (m + 1)) - sp.diags(c * mass)).tocsr()
        sigma, V = sla.eigh(A.toarray(), np.diag(mass))
        return SectorOperator(1, bands_of(A), mass), sigma, V

    # two eigenvalues below +GAP_TOL: the quotient below it is no enclosure
    op, sigma, V = sector(5.0)
    assert np.count_nonzero(sigma < GAP_TOL) == 2
    entry = sector_spectrum(op, V[:, 0] + V[:, 1] + 0.1 * rng.normal(size=m))
    assert entry.count_below == 2 and entry.enclosure[1] < GAP_TOL
    assert entry.enclosure[0] is None
    assert entry.davis_kahan is None and entry.zero_mode_match is None
    # one below +GAP_TOL, but the step lands on an eigenvector above it
    op, sigma, V = sector(2.5)
    assert np.count_nonzero(sigma < GAP_TOL) == 1
    entry = sector_spectrum(op, V[:, 1])
    assert entry.count_below == 1 and entry.enclosure[1] > GAP_TOL
    assert entry.enclosure[0] is None and entry.davis_kahan is None
    # the same sector from near its lowest eigenvector is enclosed
    entry = sector_spectrum(op, V[:, 0] + 1e-2 * rng.normal(size=m))
    lo, rho = entry.enclosure
    assert lo - 1e-11 <= sigma[0] <= rho + 1e-11, (lo, sigma[0], rho)
    assert entry.zero_mode_match is not None


def test_eigen_residuals():
    # the Rayleigh quotient and M^-1-norm residual of a pair form's Schur
    # complement, against the dense complement
    m, rng = 40, np.random.default_rng(9)
    lead = dirichlet_1d(m, 0.1) - sp.diags(rng.uniform(0.0, 50.0, size=m))
    T = dirichlet_1d(m, 0.1)
    B = sp.diags(rng.uniform(0.5, 2.0, size=m))
    form = bands_of(sp.bmat([[lead, B], [B, T]], format="csr"))
    mass = rng.uniform(0.1, 2.0, size=m)
    L = lead.toarray() - B.toarray() @ np.linalg.solve(T.toarray(), B.toarray())
    for _ in range(3):
        x = rng.normal(size=m)
        rho, eta = operators.rayleigh(form, mass, x)
        want = x @ L @ x / np.dot(mass * x, x)
        res = L @ x - want * mass * x
        assert rho == pytest.approx(want, rel=1e-12)
        assert eta == pytest.approx(np.sqrt(np.dot(res / mass, res)
                                            / np.dot(mass * x, x)), rel=1e-10)


def test_radial_laplacian_fourth_order():
    errs = []
    for n in (257, 513):
        g = sngs.make_grid(12.0, n)
        A = operators.radial_laplacian(g)
        f = np.exp(-g.nodes**2)
        exact = -(4 * g.nodes**2 - 6) * np.exp(-g.nodes**2)
        err = np.max(np.abs((A @ f - exact)[:-2]))
        errs.append(err)
    assert errs[0] / errs[1] >= 12  # ~16x per halving


def test_weighted_operator_symmetry():
    g = sngs.make_grid(15.0, 300)
    A = operators.radial_laplacian(g)
    W = g.weights_r2dr
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=g.n)
        y = rng.normal(size=g.n)
        x[-2:] = y[-2:] = 0.0   # fields vanish on the Dirichlet pad
        left = np.dot(W, (A @ x) * y)
        right = np.dot(W, x * (A @ y))
        assert abs(left - right) <= 1e-12 * max(abs(left), abs(right), 1.0)


def test_dirichlet_form_exactly_symmetric():
    # one band holds (i, i+k) and (i+k, i) alike: the weighted bands
    # restricted to the active nodes
    g = sngs.make_grid(15.0, 300)
    for parity in (sngs.EVEN, sngs.ODD):
        S = operators.dirichlet_form(g, parity)
        diag, up1, up2 = operators._weighted_bands(g, parity)
        assert np.array_equal(S.diag, diag) and sorted(S.upper) == [1, 2]
        assert np.array_equal(S.upper[1], up1[:-1])
        assert np.array_equal(S.upper[2], up2[:-2])
        C = oracles.csr_of(S)
        assert abs(C - C.T).max() == 0.0


def test_laplacian_and_dirichlet_form_share_the_stencil():
    # diag(W) A on the active nodes is the sector form of even parity; the
    # couplings into the origin vanish and the pad rows are identities
    g = sngs.make_grid(15.0, 300)
    A = oracles.radial_laplacian_csr(g)
    act = operators.active_slice(g)
    WA = (sp.diags(g.weights_r2dr) @ A).tocsr()[act][:, act]
    S = oracles.csr_of(operators.dirichlet_form(g, sngs.EVEN))
    assert abs(WA - S).max() <= 2e-15 * abs(S).max()
    assert A[1, 0] == 0.0 and A[2, 0] == 0.0
    pad = A[-2:].toarray()
    assert np.array_equal(pad, np.eye(g.n)[-2:])
    assert tuple(A[0, :3].toarray().ravel()) == operators.origin_row(g)


def same_bits(x, y):
    return x.dtype == y.dtype and np.array_equal(x.view(np.int64),
                                                 y.view(np.int64))


@pytest.mark.parametrize("n", [16, 17, 64, 4096])
def test_band_operator_applies_the_csr_oracle_bit_for_bit(n):
    """A @ u and abs(A) @ x from the weighted bands are the CSR matvec of
    the same -Delta_r to the last bit, on fields whose origin value and
    Dirichlet pad are nonzero."""
    rng = np.random.default_rng(n)
    g = sngs.make_grid(rng.uniform(5.0, 60.0), n)
    A = operators.radial_laplacian(g)
    C = oracles.radial_laplacian_csr(g)
    for _ in range(4):
        u = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        assert u[0] != 0.0 and np.all(u[-2:] != 0.0)
        assert same_bits(A @ u, C @ u)
        x = np.abs(u)
        assert same_bits(abs(A) @ x, abs(C) @ x)


def test_band_operator_keeps_the_csr_signs_and_non_finite_values():
    # a row sums from +0 and skips the entries the CSR matrix does not
    # store, so -0.0 inputs give +0.0 and an inf reaches only its own
    # stencil, never a row whose coupling to it vanishes
    g = sngs.make_grid(10.0, 32)
    A = operators.radial_laplacian(g)
    C = oracles.radial_laplacian_csr(g)
    x = np.full(g.n, -0.0)
    assert same_bits(A @ x, C @ x) and same_bits(A @ x, np.zeros(g.n))
    x[0] = np.inf
    assert same_bits(A @ x, C @ x)
    assert np.isfinite((A @ x)[1:]).all()
    x[0], x[-1] = 0.0, np.nan
    assert same_bits(abs(A) @ x, abs(C) @ x)
