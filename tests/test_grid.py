import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sngs
from sngs.errors import NonPositiveRadius, TooFewNodes


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(TooFewNodes):
        sngs.make_grid(10.0, 5)
    with pytest.raises(NonPositiveRadius):
        sngs.make_grid(0.0, 64)
    with pytest.raises(NonPositiveRadius):
        sngs.make_grid(-1.0, 64)


def test_make_grid_spacing():
    g = sngs.make_grid(10.0, 21)
    assert g.h == pytest.approx(0.5, abs=0)
    assert np.allclose(g.nodes, np.arange(21) * 0.5)
    g2 = sngs.make_grid(40.0, 4096)
    assert g2.h == pytest.approx(40.0 / 4095, rel=1e-15)
    assert abs(g2.h - 0.0097680) < 1e-6


def test_weight_sums():
    for (rmax, n) in [(10.0, 21), (40.0, 4096), (5.0, 333)]:
        g = sngs.make_grid(rmax, n)
        assert np.sum(g.weights_dr) == pytest.approx(rmax, rel=1e-14)
        assert np.sum(g.weights_r2dr) == pytest.approx(rmax**3 / 3.0, rel=1e-12)


def test_integrate_const_r2dr_exact():
    g = sngs.make_grid(1.0, 256)
    assert np.dot(g.weights_r2dr, np.ones(g.n)) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_integrate_linear_dr_exact():
    g = sngs.make_grid(2.0, 128)
    assert np.dot(g.weights_dr, g.nodes) == pytest.approx(2.0, abs=1e-10)


def test_integrate_exponential_r2dr():
    # \int_0^inf e^{-r} r^2 dr = Gamma(3) = 2
    g = sngs.make_grid(40.0, 4096)
    assert np.dot(g.weights_r2dr, np.exp(-g.nodes)) == pytest.approx(2.0, abs=1e-6)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_quadrature_exact_for_linear_dr(a, b):
    g = sngs.make_grid(7.0, 97)
    exact = a * 7.0 + b * 7.0**2 / 2.0
    assert np.dot(g.weights_dr, a + b * g.nodes) == pytest.approx(exact, abs=1e-11)


def test_refinement_second_order():
    vals = []
    exact = 2.0 * (1.0 - np.exp(-5.0) * (1 + 5 + 12.5))  # int_0^5 e^-r r^2 dr
    for n in (65, 129, 257):
        g = sngs.make_grid(5.0, n)
        vals.append(np.dot(g.weights_r2dr, np.exp(-g.nodes)) - exact)
    # error shrinks by >= 3.5 per halving of h
    assert abs(vals[0]) / abs(vals[1]) >= 3.5
    assert abs(vals[1]) / abs(vals[2]) >= 3.5


def test_differentiate_quadratic_exact():
    g = sngs.make_grid(8.0, 200)
    f = g.nodes**2
    df = sngs.differentiate(g, f)
    assert np.allclose(df, 2 * g.nodes, atol=1e-10)


def test_differentiate_constant():
    g = sngs.make_grid(8.0, 64)
    f = np.full(g.n, 3.7)
    assert np.allclose(sngs.differentiate(g, f), 0.0, atol=1e-12)


def test_differentiate_sin_second_order():
    errs = []
    for n in (256, 512):
        g = sngs.make_grid(10.0, n)
        f = np.sin(g.nodes)
        df = sngs.differentiate(g, f)
        errs.append(np.max(np.abs(df - np.cos(g.nodes))))
    assert errs[0] <= 5 * g.h**2  # C * h^2 with modest C
    assert errs[0] / errs[1] >= 3.5  # halving h quarters the error


def test_derivative_integrates_to_boundary_difference():
    g = sngs.make_grid(6.0, 512)
    vals = np.exp(-g.nodes) * (1 + g.nodes)
    df = sngs.differentiate(g, vals)
    total = np.dot(g.weights_dr, df)
    assert total == pytest.approx(vals[-1] - vals[0], abs=5 * g.h**2)


def test_field_csv_roundtrip(tmp_path):
    g = sngs.make_grid(3.0, 33)
    u = np.exp(-g.nodes) * np.pi
    path = tmp_path / "field.csv"
    from sngs.grid import read_field_csv, write_field_csv
    write_field_csv(path, g, {"u": u})
    r, cols = read_field_csv(path)
    assert np.array_equal(r, g.nodes)
    assert np.array_equal(cols["u"], u)


def test_field_csv_exact_bytes(tmp_path):
    # header line, CRLF endings, 17 significant digits, negative zero kept
    g = sngs.make_grid(2.0, 16)
    u = np.zeros(g.n)
    u[0], u[1], u[2] = 1.0 / 3.0, -0.0, -2.5e-300
    path = tmp_path / "field.csv"
    from sngs.grid import write_field_csv
    write_field_csv(path, g, {"u": u, "w": 2.0 * g.nodes})
    lines = open(path, "rb").read().split(b"\r\n")
    assert lines[0] == b"r,u,w"
    assert lines[1] == b"0,0.33333333333333331,0"
    assert lines[2] == b"0.13333333333333333,-0,0.26666666666666666"
    assert lines[3] == b"0.26666666666666666,-2.5e-300,0.53333333333333333"
    assert lines[-2] == b"2,0,4"
    assert lines[-1] == b""
    assert len(lines) == g.n + 2

