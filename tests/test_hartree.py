import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sngs
from sngs import operators
from conftest import smooth_bumps
from oracles import hartree_energy, hartree_potential


def indicator_field(grid, radius=1.0):
    """Sharp-cutoff profile; the density u^2 takes the half value at the jump
    node so composite trapezoid equals the split-interval rule."""
    vals = (grid.nodes < radius - 1e-12).astype(float)
    j = int(round(radius / grid.h))
    assert abs(grid.nodes[j] - radius) < 1e-12, "jump must land on a node"
    vals[j] = np.sqrt(0.5)
    return vals


def indicator_v_exact(r):
    return np.where(r <= 1.0, 0.5 - r**2 / 6.0, 1.0 / (3.0 * np.maximum(r, 1e-300)))


def kform_oracle(grid, u):
    """Independent evaluation v(r) = I(u) - int_0^r K(r,s) u(s)^2 ds with
    K(r,s) = s^2 (1/s - 1/r), split trapezoid row by row, plus the same
    Euler-Maclaurin endpoint term the production sweep carries."""
    r, h, n = grid.nodes, grid.h, grid.n
    rho = u**2
    line = np.trapezoid(rho * r, dx=h) + (h * h / 12.0) * rho[0]
    v = np.empty(n)
    v[0] = line
    for i in range(1, n):
        s = r[:i + 1]
        k = s - s * s / r[i]
        v[i] = line - (np.trapezoid(rho[:i + 1] * k, dx=h)
                       + (h * h / 12.0) * (rho[0] + rho[i]))
    return v


def test_zero_field():
    g = sngs.make_grid(10.0, 64)
    hp = hartree_potential(g, np.zeros(g.n))
    assert np.all(hp.v == 0.0)
    assert hp.mass == 0.0 and hp.line_integral == 0.0
    assert hartree_energy(g, np.zeros(g.n)) == 0.0


def test_indicator_closed_form():
    g = sngs.make_grid(5.0, 4096)
    u = indicator_field(g)
    hp = hartree_potential(g, u)
    err = np.max(np.abs(hp.v - indicator_v_exact(g.nodes)))
    assert err <= 5e-6
    assert hp.v[0] == pytest.approx(0.5, abs=5e-6)
    j1 = int(round(1.0 / g.h))
    j2 = int(round(2.0 / g.h))
    assert hp.v[j1] == pytest.approx(1.0 / 3.0, abs=5e-6)
    assert hp.v[j2] == pytest.approx(1.0 / 6.0, abs=5e-6)
    assert hp.mass == pytest.approx(1.0 / 3.0, rel=1e-5)


def test_indicator_refinement():
    errs = []
    for n in (4096, 8191):  # both put nodes at r = 1, 2
        g = sngs.make_grid(5.0, n)
        u = indicator_field(g)
        v = hartree_potential(g, u).v
        errs.append(np.max(np.abs(v - indicator_v_exact(g.nodes))))
    assert errs[0] / errs[1] >= 3.5


def test_gaussian_values():
    g = sngs.make_grid(20.0, 2048)
    u = np.exp(-g.nodes**2 / 2.0)
    hp = hartree_potential(g, u)
    assert hp.v[0] == pytest.approx(0.5, abs=1e-8)     # int e^{-s^2} s ds
    assert hp.mass == pytest.approx(np.sqrt(np.pi) / 4.0, rel=1e-8)


def test_hartree_energy_indicator():
    g = sngs.make_grid(5.0, 4096)
    u = indicator_field(g)
    assert hartree_energy(g, u) == pytest.approx(8 * np.pi / 15.0, rel=1e-5)


def test_hartree_energy_quartic_scaling():
    g = sngs.make_grid(15.0, 512)
    u = np.exp(-g.nodes)
    d1 = hartree_energy(g, u)
    u3 = 3.0 * u
    assert hartree_energy(g, u3) == pytest.approx(81.0 * d1, rel=1e-13)


def test_two_formula_agreement_random_profiles():
    rng = np.random.default_rng(42)
    g = sngs.make_grid(20.0, 512)
    for _ in range(10):
        u = smooth_bumps(g, rng)
        v = hartree_potential(g, u).v
        vk = kform_oracle(g, u)
        line = max(abs(hartree_potential(g, u).line_integral), 1e-300)
        assert np.max(np.abs(v[:-1] - vk[:-1])) <= 1e-8 * line


def test_discrete_poisson_residual():
    errs = []
    for n in (512, 1024):
        g = sngs.make_grid(16.0, n)
        u = np.exp(-g.nodes**2 / 2.0)
        v = hartree_potential(g, u).v
        A = operators.radial_laplacian(g)
        res = (A @ v - u**2)[1:-2]
        errs.append(np.max(np.abs(res)))
    assert errs[0] <= 1.0 * (16.0 / 511) ** 2
    assert errs[0] / errs[1] >= 3.5


def test_inverse_bands_reproduce_sweep():
    """The k = 0 tridiagonal inverse on nodes 1..n-1, fed the sweep's source
    weights and plus its Euler-Maclaurin diagonal, is coulomb_apply on
    arbitrary (signed) densities; its bands are exactly 2/h, 1/h and -1/h,
    and for k >= 1 the same routine inverts the sector-k kernel
    r_<^(k+1) r_>^(-k) / (2k+1)."""
    from scipy.linalg import solve_banded
    from sngs.hartree import coulomb_apply, green_bands
    rng = np.random.default_rng(3)
    for n in (48, 1001):
        g = sngs.make_grid(20.0, n)
        diag, off = green_bands(0, n - 1, g.h)
        assert np.array_equal(diag, np.r_[np.full(n - 2, 2.0 / g.h), 1.0 / g.h])
        assert np.array_equal(off, np.full(n - 2, -1.0 / g.h))
        # trapezoid weight times r_j, and the Euler-Maclaurin endpoint terms:
        # -h^2/12 inside, +h^2/12 at the origin, none at the exact tail node
        src = g.h * g.nodes
        src[-1] *= 0.5
        em = np.full(n, -g.h * g.h / 12.0)
        em[0] = g.h * g.h / 12.0
        em[-1] = 0.0
        bands = np.zeros((3, n - 1))
        bands[0, 1:] = off
        bands[1] = diag
        bands[2, :-1] = off
        for _ in range(3):
            rho = rng.normal(size=n)
            y = solve_banded((1, 1), bands, (src * rho)[1:])
            w = np.concatenate(([y[0] / g.nodes[1]], y / g.nodes[1:]))
            v = coulomb_apply(g, rho)
            assert np.max(np.abs(v - em * rho - w)) <= 1e-11 * np.max(np.abs(v))
    g = sngs.make_grid(20.0, 48)
    r = g.nodes[1:]
    lo, hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    for k in (1, 2, 3):
        diag, off = green_bands(k, len(r), g.h)
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        kernel = lo ** (k + 1) * hi ** (-k) / (2 * k + 1)
        assert np.max(np.abs(np.linalg.inv(T) - kernel)) <= 1e-12 * kernel.max()


def test_green_bands_ordering():
    """T_k - T_(k-1) is positive definite: the ordering L_k > L_1 that
    certifies every sector k >= 2 from sector 1, on the m = n - 3 active
    nodes of an r_max = 28 grid (the normal-form domain)."""
    from scipy.linalg import eigvalsh_tridiagonal
    from sngs.hartree import green_bands

    def gap(k, m):
        h = sngs.make_grid(28.0, m + 3).h
        (d0, o0), (d1, o1) = green_bands(k - 1, m, h), green_bands(k, m, h)
        return eigvalsh_tridiagonal(d1 - d0, o1 - o0, select="i",
                                    select_range=(0, 0))[0]
    for m in (13, 1021):
        assert all(gap(k, m) > 0.0 for k in range(2, 41)), m
    assert gap(2, 4093) > 0.0


def test_potential_monotone_nonincreasing():
    rng = np.random.default_rng(5)
    g = sngs.make_grid(12.0, 400)
    for _ in range(5):
        vals = np.abs(smooth_bumps(g, rng))
        v = hartree_potential(g, vals).v
        dv = np.diff(v)
        assert np.all(dv <= 1e-12 * max(v[0], 1.0))


def test_coulomb_tail_consistency():
    g = sngs.make_grid(18.0, 700)
    u = np.exp(-g.nodes)
    hp = hartree_potential(g, u)
    assert hp.v[-1] * g.r_max == pytest.approx(hp.mass, rel=1e-10)
    assert hp.v[0] == pytest.approx(hp.line_integral, rel=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_hartree_energy_nonnegative(seed):
    rng = np.random.default_rng(seed)
    g = sngs.make_grid(10.0, 128)
    vals = smooth_bumps(g, rng)
    assert hartree_energy(g, vals) >= 0.0


def test_potential_nonnegative_and_even():
    g = sngs.make_grid(10.0, 256)
    u = np.exp(-g.nodes)
    hp = hartree_potential(g, u)
    assert np.all(hp.v >= 0.0)
