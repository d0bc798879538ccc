import numpy as np
import pytest
import scipy.sparse as sp

import sngs
from sngs import operators
from sngs.errors import TooManyRequested


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
    pairs = operators.smallest_eigenpairs(A, mass, 3)
    for k, (sigma, _) in enumerate(pairs, start=1):
        expect = 4.0 / h**2 * np.sin(k * h / 2.0) ** 2
        assert sigma == pytest.approx(expect, rel=1e-10)


def test_dirichlet_smallest_tends_to_one():
    vals = []
    for m in (100, 400, 1600):
        h = np.pi / (m + 1)
        A = dirichlet_1d(m, h)
        vals.append(operators.smallest_eigenpairs(A, np.ones(m), 1)[0][0])
    assert abs(vals[-1] - 1.0) < 1e-5
    assert abs(vals[0] - 1.0) > abs(vals[-1] - 1.0)


def test_identity_pencil():
    m = 120
    mass = np.linspace(0.5, 2.0, m)
    A = sp.diags(mass).tocsr()
    pairs = operators.smallest_eigenpairs(A, mass, 4)
    for sigma, _ in pairs:
        assert sigma == pytest.approx(1.0, rel=1e-12)


def test_too_many_requested():
    A = dirichlet_1d(10, 0.1)
    with pytest.raises(TooManyRequested):
        operators.smallest_eigenpairs(A, np.ones(10), 11)


def test_eigenvectors_mass_orthonormal():
    m = 300
    h = 1.0 / (m + 1)
    A = dirichlet_1d(m, h)
    mass = 1.0 + 0.3 * np.sin(np.arange(m))
    pairs = operators.smallest_eigenpairs(A, mass, 4)
    V = np.stack([x for _, x in pairs], axis=1)
    G = V.T @ (mass[:, None] * V)
    assert np.max(np.abs(G - np.eye(4))) < 1e-8


def test_eigen_residuals():
    m = 500
    h = np.pi / (m + 1)
    A = dirichlet_1d(m, h)
    mass = np.ones(m)
    for sigma, x in operators.smallest_eigenpairs(A, mass, 3):
        ax = A @ x
        assert np.linalg.norm(ax - sigma * mass * x) <= 1e-8 * np.linalg.norm(ax)


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
