import numpy as np
import pytest

import sngs
from sngs.errors import InvalidExponent
from sngs.scaling import (CHOQUARD, KWONG, MU_FORM, NU_FORM, limit_regime,
                          limit_study, normal_form, small_parameter)


def test_limit_regime_table():
    assert limit_regime(2.5, "zero") == (MU_FORM, KWONG, "q_low_lambda_zero")
    assert limit_regime(4.0, "zero") == (NU_FORM, CHOQUARD,
                                         "q_high_lambda_zero")
    assert limit_regime(4.0, "infinity") == (MU_FORM, KWONG,
                                             "q_high_lambda_inf")
    assert limit_regime(2.5, "infinity") == (NU_FORM, CHOQUARD,
                                             "q_low_lambda_inf")


def test_limit_regime_rejects():
    with pytest.raises(InvalidExponent):
        limit_regime(3.0, "zero")
    with pytest.raises(InvalidExponent):
        limit_regime(6.5, "zero")
    with pytest.raises(ValueError):
        limit_regime(4.0, "sideways")


def test_small_parameter_values():
    # mu = lam^{-2(q-3)/(q-2)}: at q=2.5 the exponent is 2
    assert small_parameter(2.5, 0.01) == pytest.approx(1e-4, rel=1e-12)
    # nu = lam^{q-3}: at q=4 this is lam
    assert small_parameter(4.0, 0.01) == pytest.approx(1e-2, rel=1e-12)


def test_normal_form():
    alpha, p = normal_form(2.5, 0.01)
    assert alpha == 2.0
    assert p == sngs.ModelParams(lam=1.0, a=small_parameter(2.5, 0.01),
                                 nu=1.0, q=2.5)
    alpha, p = normal_form(4.0, 0.01)
    assert alpha == 1.0
    assert p == sngs.ModelParams(lam=1.0, a=1.0,
                                 nu=small_parameter(4.0, 0.01), q=4.0)


@pytest.mark.parametrize("q", [2.5, 4.0])
@pytest.mark.parametrize("lam", [0.1, 10.0])
def test_normal_form_takes_the_form_whose_small_parameter_is_at_most_one(
        q, lam):
    # lam's side of 1 picks the form: the other form's parameter is 1 / that
    # of this one, above 1
    _, p = normal_form(q, lam)
    eps = small_parameter(q, lam)
    assert eps < 1.0
    assert sorted((p.a, p.nu)) == [eps, 1.0]


@pytest.mark.parametrize("q", [2.5, 4.0, 5.5])
def test_normal_form_at_lambda_one_is_the_state_itself(q):
    alpha, p = normal_form(q, 1.0)
    assert p == sngs.ModelParams(lam=1.0, a=1.0, nu=1.0, q=q)
    assert 1.0 ** alpha == 1.0 and small_parameter(q, 1.0) == 1.0


@pytest.mark.parametrize("lam,q,form", [
    (1.0, 4.0, MU_FORM), (0.25, 2.5, MU_FORM), (0.1, 2.5, MU_FORM),
    (0.1, 4.0, NU_FORM), (10.0, 4.0, MU_FORM), (10.0, 2.5, NU_FORM)])
def test_normal_form_member_is_the_rescaled_state(solved_cache, lam, q, form):
    # the discrete problems coincide: the member solved at lam = 1 is
    # lam^(-alpha) u on the same nodes, the physical grid shrunk by sqrt(lam);
    # lam's side of 1 picks `form`
    st = solved_cache(lam, 1.0, 1.0, q)
    alpha, p = normal_form(q, lam)
    assert alpha == {MU_FORM: 1.0 / (q - 2.0), NU_FORM: 1.0}[form]
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
    for (lam, q) in [(0.1, 2.5), (0.1, 4.0), (10.0, 4.0)]:
        st = solved_cache(lam, 1.0, 1.0, q, n=1536)
        alpha, eff = normal_form(q, lam)
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
        p = normal_form(4.0, lam)[1]
        st = solved_cache(1.0, p.a, p.nu, 4.0, n=1536)
        sup, h1 = sngs.limit_distance(st.u, ref)
        sups.append(sup)
        h1s.append(h1)
    assert sups[1] < sups[0]
    assert h1s[1] < h1s[0]


def test_mass_ratio_single_state(solved_cache):
    st = solved_cache(1.0, 1.0, 1.0, 4.0)
    study = limit_study([st], [1.0], "zero", solved_cache(1.0, 1.0, 0.0, 4.0))
    assert study.ratios_in_window and len(study.rows) == 1


def _zero_side_q4(solved_cache, lams):
    """The q=4 members of `lams` toward zero and their Choquard profile."""
    members = [solved_cache(1.0, 1.0, normal_form(4.0, lam)[1].nu, 4.0,
                            n=1536) for lam in lams]
    return members, solved_cache(1.0, 1.0, 0.0, 4.0, n=1536)


def test_mass_ratio_window_decreasing_lambda(solved_cache):
    lams = (0.1, 0.01)
    members, ref = _zero_side_q4(solved_cache, lams)
    study = limit_study(members, lams, "zero", ref)
    assert study.ratios_in_window
    assert [row[0] for row in study.rows] == list(lams)
    # U regime: M/lam is the bounded ratio; M is the physical state's
    for lam, *_, r1, r2 in study.rows:
        st = solved_cache(lam, 1.0, 1.0, 4.0, n=1536)
        M = st.diagnostics.sup_u + st.diagnostics.sup_v
        assert 1e-3 <= r2 <= 1e3
        assert r2 == pytest.approx(M / lam, rel=1e-10)
        assert r1 == pytest.approx(M ** 2 / lam, rel=1e-10)


def test_limit_study_verdict(solved_cache):
    lams = (0.1, 0.01)
    members, ref = _zero_side_q4(solved_cache, lams)
    study = limit_study(members, lams, "zero", ref)
    assert study.regime == "q_high_lambda_zero"
    assert study.distances_decreasing and study.final_sup_ok
    assert study.zero_distance_lambdas == [] and study.passed
    # the same members listed away from the limit
    study = limit_study(members[::-1], lams[::-1], "zero", ref)
    assert not study.distances_decreasing and not study.passed


def test_limit_study_refuses_a_member_equal_to_its_reference(solved_cache):
    # the profile itself as the last member: its distance 0 still "falls",
    # but it compares nothing
    lams = (0.1, 0.01)
    (member, _), ref = _zero_side_q4(solved_cache, lams)
    study = limit_study([member, ref], lams, "zero", ref)
    assert study.distances_decreasing and study.final_sup_ok
    assert study.ratios_in_window
    assert study.zero_distance_lambdas == [0.01]
    assert not study.passed
