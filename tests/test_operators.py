import numpy as np
import pytest
import scipy.sparse as sp

import sngs
from sngs import operators
from sngs.errors import FactorizationFailure, TooManyRequested
import oracles
from oracles import bands_of


def dirichlet_1d(m, h):
    """Second-difference operator with Dirichlet ends on m interior nodes, as
    a CSR matrix (`bands_of` gives the form the package takes)."""
    main = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def test_dirichlet_spectrum_matches_discrete_formula():
    m = 200
    h = np.pi / (m + 1)
    A = dirichlet_1d(m, h)
    mass = np.ones(m)
    eig = operators.smallest_eigenpairs(bands_of(A), mass, 3, split=-1.0)
    for k, sigma in enumerate(eig.values, start=1):
        expect = 4.0 / h**2 * np.sin(k * h / 2.0) ** 2
        assert sigma == pytest.approx(expect, rel=1e-10)


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
    # the deep eigenvalue is counted, the cluster above the split returned
    A = bands_of(A)
    eig = operators.smallest_eigenpairs(A, mass, 5, split=-1e-3)
    assert eig.below == operators.count_below(A, mass, -1e-3) == 1
    assert np.max(np.abs(eig.values - exact[1:6])) <= 1e-10


def test_dirichlet_smallest_tends_to_one():
    vals = []
    for m in (100, 400, 1600):
        h = np.pi / (m + 1)
        A = dirichlet_1d(m, h)
        vals.append(operators.smallest_eigenpairs(bands_of(A), np.ones(m), 1,
                                                    split=-1.0).values[0])
    assert abs(vals[-1] - 1.0) < 1e-5
    assert abs(vals[0] - 1.0) > abs(vals[-1] - 1.0)


def test_identity_pencil():
    m = 120
    mass = np.linspace(0.5, 2.0, m)
    A = bands_of(sp.diags(mass))
    eig = operators.smallest_eigenpairs(A, mass, 4, split=-1.0)
    for sigma in eig.values:
        assert sigma == pytest.approx(1.0, rel=1e-12)


def test_too_many_requested():
    A = bands_of(dirichlet_1d(10, 0.1))
    for m in (9, 11):   # at most dim - 2
        with pytest.raises(TooManyRequested):
            operators.smallest_eigenpairs(A, np.ones(10), m, split=-1.0)
    # the pairs below the split count against that bound too
    shifted = bands_of(dirichlet_1d(10, np.pi / 11) - sp.diags(np.full(10, 10.0)))
    assert operators.count_below(shifted, np.ones(10), -1e-3) == 3
    with pytest.raises(TooManyRequested):
        operators.smallest_eigenpairs(shifted, np.ones(10), 6, split=-1e-3)


def test_small_pencil_goes_through_arpack():
    # all but two pairs of a 30-dim pencil: Lanczos spans the whole space
    import scipy.linalg as sla
    m = 30
    A = dirichlet_1d(m, np.pi / (m + 1))
    mass = 1.0 + 0.3 * np.sin(np.arange(m))
    exact = sla.eigh(A.toarray(), np.diag(mass), eigvals_only=True)
    eig = operators.smallest_eigenpairs(bands_of(A), mass, m - 2, split=-1.0)
    assert np.max(np.abs(eig.values - exact[:m - 2])) <= 1e-10


def test_small_mass_rows_match_dense_oracle():
    # the weighted forms scale like r_i r_j and their mass like r_i^2, which
    # spans 1e-9 .. 1 here; the D = M^(-1/2) scaling of the Lanczos operator
    # must lose nothing on the rows where the mass is smallest
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
    eig = operators.smallest_eigenpairs(A, mass, 5, split=-1e-3)
    below = np.count_nonzero(exact < -1e-3)
    assert eig.below == below
    assert np.max(np.abs(eig.values - exact[below:below + 5])) <= 1e-10
    for x, v in zip(eig.vectors.T, V[:, below:].T):   # entrywise, smallest-mass rows too
        x = x * np.sign(np.dot(mass * x, v))
        assert np.max(np.abs(x - v)) <= 1e-10 * np.max(np.abs(v))
    assert np.all(eig.backward_errors <= operators.BACKWARD_TOL)
    np.testing.assert_array_equal(
        eig.backward_errors,
        operators.backward_errors(A, mass, eig.values, eig.vectors))


def test_eigensolve_counts():
    # one factorization at the split and one call through it, no refinement,
    # with an eigenvalue below the split or none
    A, mass = two_block_pencil()
    eig = operators.smallest_eigenpairs(bands_of(A), mass, 5, split=-1e-3)
    assert (eig.below, eig.factorizations) == (1, 1)
    assert eig.solves >= 5
    eig = operators.smallest_eigenpairs(bands_of(dirichlet_1d(50, 0.02)),
                                        np.ones(50), 3, split=-1.0)
    assert (eig.below, eig.factorizations) == (0, 1)


@pytest.mark.parametrize("c,below,above", [(10.0, 3, 2), (55.0, 7, 1)])
def test_every_pair_below_the_split_and_those_asked_above(c, below, above):
    # the pairs below the split are counted, however many there are, and
    # only those asked for above it are returned: the lowest above it
    import scipy.linalg as sla
    m = 80
    mass = 1.0 + 0.3 * np.sin(np.arange(m))
    A = (dirichlet_1d(m, np.pi / (m + 1)) - sp.diags(c * mass)).tocsr()
    exact = sla.eigh(A.toarray(), np.diag(mass), eigvals_only=True)
    assert np.count_nonzero(exact < -1e-3) == below
    eig = operators.smallest_eigenpairs(bands_of(A), mass, above, split=-1e-3)
    assert eig.below == below
    assert len(eig.values) == above and np.all(eig.values > -1e-3)
    assert np.max(np.abs(eig.values - exact[below:below + above])) <= 1e-10
    assert eig.factorizations == 1


def test_value_returned_below_the_split_is_refused(monkeypatch):
    # a pair the count places under the split never passes as one above it
    shift_invert = operators._shift_invert

    def lowered(lu, s, k, sigma):
        w, y, solves = shift_invert(lu, s, k, sigma)
        return w - 2.0, y, solves
    monkeypatch.setattr(operators, "_shift_invert", lowered)
    with pytest.raises(FactorizationFailure, match="at or below"):
        operators.smallest_eigenpairs(bands_of(dirichlet_1d(50, np.pi / 51)),
                                      np.ones(50), 2, split=-1e-3)


def test_lanczos_fails_at_the_krylov_cap(monkeypatch):
    # a run that has not converged when it reaches KRYLOV_CAP steps is
    # refused, never returned
    m = 200
    A = bands_of(dirichlet_1d(m, np.pi / (m + 1)))
    eig = operators.smallest_eigenpairs(A, np.ones(m), 2, split=-1.0)
    assert eig.solves > 3
    monkeypatch.setattr(operators, "KRYLOV_CAP", 3)
    with pytest.raises(FactorizationFailure, match="not converged in 3 steps"):
        operators.smallest_eigenpairs(A, np.ones(m), 2, split=-1.0)


def test_eigenvectors_mass_orthonormal():
    m = 300
    h = 1.0 / (m + 1)
    A = bands_of(dirichlet_1d(m, h))
    mass = 1.0 + 0.3 * np.sin(np.arange(m))
    V = operators.smallest_eigenpairs(A, mass, 4, split=-1.0).vectors
    G = V.T @ (mass[:, None] * V)
    assert np.max(np.abs(G - np.eye(4))) < 1e-8


def test_eigen_residuals():
    m = 500
    h = np.pi / (m + 1)
    A = dirichlet_1d(m, h)
    mass = np.ones(m)
    eig = operators.smallest_eigenpairs(bands_of(A), mass, 3, split=-1.0)
    for sigma, x in zip(eig.values, eig.vectors.T):
        ax = A @ x
        assert np.linalg.norm(ax - sigma * mass * x) <= 1e-8 * np.linalg.norm(ax)


def test_verified_refines_once_then_raises():
    m = 200
    h = np.pi / (m + 1)
    A = bands_of(dirichlet_1d(m, h))
    mass = np.ones(m)
    (s1, s2), X, *_ = operators.smallest_eigenpairs(A, mass, 2, split=-1.0)
    noisy = X[:, :1] + 1e-6 * np.random.default_rng(5).normal(size=(m, 1))
    noisy /= np.sqrt(np.dot(mass, noisy[:, 0] ** 2))
    sigma = np.array([s1])
    assert operators.backward_errors(A, mass, sigma, noisy)[0] \
        > operators.BACKWARD_TOL
    errors, refined = operators._verified(A, mass, sigma, noisy)
    assert refined == 1
    assert errors[0] == operators.backward_errors(A, mass, sigma, noisy)[0] \
        <= operators.BACKWARD_TOL
    assert sigma[0] == pytest.approx(s1, rel=1e-12)
    # midway between two eigenvalues one inverse-iteration step leaves the
    # pair far from any eigenpair, so it is refused rather than returned
    with pytest.raises(FactorizationFailure):
        operators._verified(A, mass, np.array([0.5 * (s1 + s2)]),
                            np.ones((m, 1)) / np.sqrt(m))
    # a NaN backward error is over the bound too
    with pytest.raises(FactorizationFailure):
        operators._verified(A, mass, np.array([s1]), np.full((m, 1), np.nan))


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
