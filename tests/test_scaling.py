import numpy as np
import pytest

import sngs
from sngs.errors import InvalidExponent
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


@pytest.mark.parametrize("lam,q,form", [
    (1.0, 4.0, MU_FORM), (0.25, 2.5, MU_FORM), (0.1, 2.5, MU_FORM),
    (0.1, 4.0, NU_FORM), (10.0, 4.0, MU_FORM), (10.0, 2.5, NU_FORM)])
def test_normal_form_member_is_the_rescaled_state(solved_cache, lam, q, form):
    # the discrete problems coincide: the member solved at lam = 1 is
    # lam^(-alpha) u on the same nodes, the physical grid shrunk by sqrt(lam)
    st = solved_cache(lam, 1.0, 1.0, q)
    alpha, p = normal_form(q, lam, form)
    member = solved_cache(1.0, p.a, p.nu, q)
    assert np.allclose(member.grid.nodes, np.sqrt(lam) * st.grid.nodes,
                       rtol=1e-14, atol=0.0)
    scaled = lam ** -alpha * st.u
    assert np.max(np.abs(member.u - scaled)) <= 1e-10 * member.diagnostics.sup_u


def test_residual_transfer(solved_cache):
    # F = lam^(alpha+1) F~: on the member's nodes lam^(-alpha) u meets the
    # bound the acceptance rule holds the physical state to
    from sngs.solver import _residual_values, _wnorm
    target = sngs.make_grid(28.0, 1536)
    A = sngs.operators.radial_laplacian(target)
    for (lam, q, form) in [(0.1, 2.5, MU_FORM), (0.1, 4.0, NU_FORM),
                           (10.0, 4.0, MU_FORM)]:
        st = solved_cache(lam, 1.0, 1.0, q, n=1536)
        alpha, eff = normal_form(q, lam, form)
        scaled = lam ** -alpha * st.u
        F, _ = _residual_values(scaled, eff, target, A)
        assert _wnorm(target, F) / _wnorm(target, scaled) <= st.residual_bound


def test_limit_distance_zero_and_symmetry(solved_cache):
    ref = solved_cache(1.0, 1.0, 0.0, 4.0)
    same = ref.u.copy()
    assert sngs.limit_distance(same, ref) == (0.0, 0.0)
    other = ref.u + 0.01 * np.exp(-ref.grid.nodes)
    sup, h1 = sngs.limit_distance(other, ref)
    assert sup > 0 and h1 > 0


def test_limit_distances_decrease_toward_zero(solved_cache):
    # q=4, lambda -> 0: nu-form members onto the Choquard profile
    ref = solved_cache(1.0, 1.0, 0.0, 4.0, n=1536)
    sups, h1s = [], []
    for lam in (0.1, 0.01):
        p = normal_form(4.0, lam, NU_FORM)[1]
        st = solved_cache(1.0, p.a, p.nu, 4.0, n=1536)
        sup, h1 = sngs.limit_distance(st.u, ref)
        sups.append(sup)
        h1s.append(h1)
    assert sups[1] < sups[0]
    assert h1s[1] < h1s[0]


def test_mass_ratio_single_state(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    rows, ok = mass_ratio_report([st], [1.0], "zero")
    assert ok and len(rows) == 1


def test_mass_ratio_window_decreasing_lambda(solved_cache):
    lams = (0.1, 0.01)
    members = [solved_cache(1.0, 1.0, normal_form(4.0, lam, NU_FORM)[1].nu,
                            4.0, n=1536) for lam in lams]
    rows, ok = mass_ratio_report(members, lams, "zero")
    assert ok
    assert [row[0] for row in rows] == list(lams)
    # U regime: M/lam is the bounded ratio; M is the physical state's
    for lam, r1, r2 in rows:
        st = solved_cache(lam, 1.0, 1.0, 4.0, n=1536)
        M = st.diagnostics.sup_u + st.diagnostics.sup_v
        assert 1e-3 <= r2 <= 1e3
        assert r2 == pytest.approx(M / lam, rel=1e-10)
        assert r1 == pytest.approx(M ** 2 / lam, rel=1e-10)
