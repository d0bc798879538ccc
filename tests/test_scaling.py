import numpy as np
import pytest

import sngs
from sngs.errors import GridMismatch, InvalidExponent, MixedExponents, WrongParams
from sngs.scaling import (CHOQUARD, KWONG, MU_FORM, NU_FORM, limit_regime,
                          mass_ratio_report, normal_form, small_parameter)


def test_limit_regime_table():
    assert limit_regime(2.5, "zero") == (MU_FORM, KWONG)
    assert limit_regime(4.0, "zero") == (NU_FORM, CHOQUARD)
    assert limit_regime(4.0, "infinity") == (MU_FORM, KWONG)
    assert limit_regime(2.5, "infinity") == (NU_FORM, CHOQUARD)


def test_limit_regime_rejects():
    with pytest.raises(InvalidExponent):
        limit_regime(3.0, "zero")
    with pytest.raises(InvalidExponent):
        limit_regime(6.5, "zero")
    with pytest.raises(ValueError):
        limit_regime(4.0, "sideways")


def test_small_parameter_values():
    # mu = lam^{-2(q-3)/(q-2)}: at q=2.5 the exponent is 2
    assert small_parameter(2.5, 0.01, MU_FORM) == pytest.approx(1e-4, rel=1e-12)
    # nu = lam^{q-3}: at q=4 this is lam
    assert small_parameter(4.0, 0.01, NU_FORM) == pytest.approx(1e-2, rel=1e-12)


def test_normal_form():
    alpha, p = normal_form(2.5, 0.01, MU_FORM)
    assert alpha == 2.0
    assert p == sngs.ModelParams(lam=1.0, a=small_parameter(2.5, 0.01, MU_FORM),
                                 nu=1.0, q=2.5)
    alpha, p = normal_form(4.0, 0.01, NU_FORM)
    assert alpha == 1.0
    assert p == sngs.ModelParams(lam=1.0, a=1.0,
                                 nu=small_parameter(4.0, 0.01, NU_FORM), q=4.0)
    with pytest.raises(ValueError):
        normal_form(4.0, 0.01, "sideways")


def test_scale_state_identity_at_lambda_one(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    scaled, eff = sngs.scale_state(st, MU_FORM, st.grid)
    assert eff == sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=4.0)
    assert np.max(np.abs(scaled.values - st.u.values)) <= 1e-10 * st.sup_u()


def test_scale_state_amplitudes(solved_cache):
    st = solved_cache(0.01, 1.0, 1.0, 2.5, n=1536)
    target = sngs.make_grid(28.0, 1536)
    scaled, eff = sngs.scale_state(st, MU_FORM, target)
    # amplitude factor 0.01^{-1/(q-2)} = 0.01^{-2} = 1e4
    assert np.max(scaled.values) == pytest.approx(1e4 * st.sup_u(), rel=1e-6)
    assert eff.a == pytest.approx(1e-4, rel=1e-12)
    st4 = solved_cache(0.01, 1.0, 1.0, 4.0, n=1536)
    scaled4, eff4 = sngs.scale_state(st4, NU_FORM, target)
    assert np.max(scaled4.values) == pytest.approx(100.0 * st4.sup_u(), rel=1e-6)
    assert eff4.nu == pytest.approx(0.01, rel=1e-12)


def test_scale_state_wrong_family(solved_cache):
    st = solved_cache(1.0, 0.0, 1.0, 4.0)
    with pytest.raises(WrongParams):
        sngs.scale_state(st, MU_FORM, st.grid)


def test_residual_transfer(solved_cache):
    from sngs.solver import _residual_values, _wnorm
    for (lam, q, form) in [(0.1, 2.5, MU_FORM), (0.1, 4.0, NU_FORM),
                           (10.0, 4.0, MU_FORM)]:
        st = solved_cache(lam, 1.0, 1.0, q, n=1536)
        target = sngs.make_grid(28.0, 1536)
        scaled, eff = sngs.scale_state(st, form, target)
        F, _ = _residual_values(scaled.values, eff, target,
                                sngs.operators.radial_laplacian(target))
        rel = _wnorm(target, F) / _wnorm(target, scaled.values)
        assert rel <= 1e-5


def test_limit_distance_zero_and_symmetry(solved_cache):
    ref = solved_cache(1.0, 1.0, 0.0, 4.0)
    same = sngs.RadialField(grid=ref.grid, values=ref.u.values.copy())
    assert sngs.limit_distance(same, ref) == (0.0, 0.0)
    other = sngs.RadialField(grid=ref.grid,
                             values=ref.u.values + 0.01 * np.exp(-ref.grid.nodes))
    sup, h1 = sngs.limit_distance(other, ref)
    assert sup > 0 and h1 > 0


def test_limit_distance_grid_mismatch(solved_cache):
    ref = solved_cache(1.0, 1.0, 0.0, 4.0)
    g2 = sngs.make_grid(14.0, 256)
    with pytest.raises(GridMismatch):
        sngs.limit_distance(sngs.RadialField(grid=g2, values=np.zeros(256)), ref)


def test_limit_distances_decrease_toward_zero(solved_cache):
    # q=4, lambda -> 0: nu-form onto the Choquard profile
    ref = solved_cache(1.0, 1.0, 0.0, 4.0, n=1536)
    sups, h1s = [], []
    for lam in (0.1, 0.01):
        st = solved_cache(lam, 1.0, 1.0, 4.0, n=1536)
        scaled, _ = sngs.scale_state(st, NU_FORM, ref.grid)
        sup, h1 = sngs.limit_distance(scaled, ref)
        sups.append(sup)
        h1s.append(h1)
    assert sups[1] < sups[0]
    assert h1s[1] < h1s[0]


def test_mass_ratio_single_state(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    rows, ok = mass_ratio_report([st], "zero")
    assert ok and len(rows) == 1


def test_mass_ratio_mixed_exponents(solved_cache):
    s1 = solved_cache(1.0, 1.0, 1.0, 4.0)
    s2 = solved_cache(1.0, 1.0, 1.0, 2.5)
    with pytest.raises(MixedExponents):
        mass_ratio_report([s1, s2], "zero")


def test_mass_ratio_window_decreasing_lambda(solved_cache):
    states = [solved_cache(lam, 1.0, 1.0, 4.0, n=1536) for lam in (0.1, 0.01)]
    rows, ok = mass_ratio_report(states, "zero")
    assert ok
    # U regime: M/lam is the bounded ratio
    for _, _, r2 in rows:
        assert 1e-3 <= r2 <= 1e3
