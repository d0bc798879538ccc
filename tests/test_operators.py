import numpy as np
import pytest
import scipy.sparse as sp

import sngs
from sngs import operators
from sngs.errors import FactorizationFailure, TooManyRequested


def dirichlet_1d(m, h):
    """Second-difference operator with Dirichlet ends on m interior nodes."""
    main = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def test_dirichlet_spectrum_matches_discrete_formula():
    m = 200
    h = np.pi / (m + 1)
    A = dirichlet_1d(m, h)
    mass = np.ones(m)
    eig = operators.smallest_eigenpairs(A, mass, 3, shift=-1.0, split=-1.0)
    for k, sigma in enumerate(eig.values, start=1):
        expect = 4.0 / h**2 * np.sin(k * h / 2.0) ** 2
        assert sigma == pytest.approx(expect, rel=1e-10)


def test_count_below_dirichlet():
    m = 200
    h = np.pi / (m + 1)
    A = dirichlet_1d(m, h)
    mass = np.ones(m)
    exact = 4.0 / h**2 * np.sin(np.arange(1, m + 1) * h / 2.0) ** 2
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
    # a bound below the spectrum; the deep eigenvalue is the nearest to it
    eig = operators.smallest_eigenpairs(A, mass, 6, shift=-800.0, split=-1e-3)
    assert np.max(np.abs(eig.values - exact[:6])) <= 1e-10
    assert operators.count_below(A, mass, -1e-3) == 1


def test_inertia_split_detects_missed_eigenvalue():
    # a shift between the deep eigenvalue and the split is nearest to the
    # cluster, so a shift-invert call there would miss the eigenvalue the
    # count sees; the inertia count at the shift refuses it by name
    A, mass = two_block_pencil()
    with pytest.raises(FactorizationFailure, match="shift -0.01 "):
        operators.smallest_eigenpairs(A, mass, 6, shift=-0.01, split=-1e-3)


def test_dirichlet_smallest_tends_to_one():
    vals = []
    for m in (100, 400, 1600):
        h = np.pi / (m + 1)
        A = dirichlet_1d(m, h)
        vals.append(operators.smallest_eigenpairs(A, np.ones(m), 1, shift=-1.0,
                                                    split=-1.0).values[0])
    assert abs(vals[-1] - 1.0) < 1e-5
    assert abs(vals[0] - 1.0) > abs(vals[-1] - 1.0)


def test_identity_pencil():
    m = 120
    mass = np.linspace(0.5, 2.0, m)
    A = sp.diags(mass).tocsr()
    eig = operators.smallest_eigenpairs(A, mass, 4, shift=-1.0, split=-1.0)
    for sigma in eig.values:
        assert sigma == pytest.approx(1.0, rel=1e-12)


def test_too_many_requested():
    A = dirichlet_1d(10, 0.1)
    for m in (9, 11):   # ARPACK takes at most dim - 2
        with pytest.raises(TooManyRequested):
            operators.smallest_eigenpairs(A, np.ones(10), m, shift=-1.0,
                                          split=-1.0)


def test_small_pencil_goes_through_arpack():
    import scipy.linalg as sla
    m = 30
    A = dirichlet_1d(m, np.pi / (m + 1))
    mass = 1.0 + 0.3 * np.sin(np.arange(m))
    exact = sla.eigh(A.toarray(), np.diag(mass), eigvals_only=True)
    eig = operators.smallest_eigenpairs(A, mass, m - 2, shift=-1.0, split=-1.0)
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
    assert mass.min() < 1.01e-9 and exact[0] < -1e-3
    eig = operators.smallest_eigenpairs(A, mass, 6, shift=-100.0, split=-1e-3)
    assert np.max(np.abs(eig.values - exact[:6])) <= 1e-10
    for x, v in zip(eig.vectors.T, V.T):   # entrywise, smallest-mass rows too
        x = x * np.sign(np.dot(mass * x, v))
        assert np.max(np.abs(x - v)) <= 1e-10 * np.max(np.abs(v))
    assert np.all(eig.backward_errors <= operators.BACKWARD_TOL)
    np.testing.assert_array_equal(
        eig.backward_errors,
        operators.backward_errors(A, mass, eig.values, eig.vectors))


def test_eigensolve_counts():
    # one factorization at the split and one at the shift, no refinement
    A, mass = two_block_pencil()
    eig = operators.smallest_eigenpairs(A, mass, 6, shift=-800.0, split=-1e-3)
    assert eig.factorizations == 2
    assert eig.solves >= 6
    # with nothing below the split there is one call and one factorization
    eig = operators.smallest_eigenpairs(dirichlet_1d(50, 0.02), np.ones(50), 3,
                                        shift=-1.0, split=-1.0)
    assert eig.factorizations == 1


def test_eigenvectors_mass_orthonormal():
    m = 300
    h = 1.0 / (m + 1)
    A = dirichlet_1d(m, h)
    mass = 1.0 + 0.3 * np.sin(np.arange(m))
    V = operators.smallest_eigenpairs(A, mass, 4, shift=-1.0, split=-1.0).vectors
    G = V.T @ (mass[:, None] * V)
    assert np.max(np.abs(G - np.eye(4))) < 1e-8


def test_eigen_residuals():
    m = 500
    h = np.pi / (m + 1)
    A = dirichlet_1d(m, h)
    mass = np.ones(m)
    eig = operators.smallest_eigenpairs(A, mass, 3, shift=-1.0, split=-1.0)
    for sigma, x in zip(eig.values, eig.vectors.T):
        ax = A @ x
        assert np.linalg.norm(ax - sigma * mass * x) <= 1e-8 * np.linalg.norm(ax)


def test_verified_refines_once_then_raises():
    m = 200
    h = np.pi / (m + 1)
    A = dirichlet_1d(m, h)
    mass = np.ones(m)
    (s1, s2), X, _, _, _ = operators.smallest_eigenpairs(A, mass, 2, shift=-1.0,
                                                         split=-1.0)
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
    g = sngs.make_grid(15.0, 300)
    for parity in (sngs.EVEN, sngs.ODD):
        S = operators.dirichlet_form(g, parity)
        assert abs(S - S.T).max() == 0.0


def test_laplacian_and_dirichlet_form_share_the_stencil():
    # diag(W) A on the active nodes is the sector form of even parity; the
    # couplings into the origin vanish and the pad rows are identities
    g = sngs.make_grid(15.0, 300)
    A = operators.radial_laplacian(g)
    act = operators.active_slice(g)
    WA = (sp.diags(g.weights_r2dr) @ A).tocsr()[act][:, act]
    S = operators.dirichlet_form(g, sngs.EVEN)
    assert abs(WA - S).max() <= 2e-15 * abs(S).max()
    assert A[1, 0] == 0.0 and A[2, 0] == 0.0
    pad = A[-2:].toarray()
    assert np.array_equal(pad, np.eye(g.n)[-2:])
