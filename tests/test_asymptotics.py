"""Expansion coefficients, series evaluation, residual trends, difference law."""

import math

import numpy as np
import pytest

from fde.asymptotics import (
    ORDERS,
    compute_K0,
    expansion_residual_report,
    expansion_series,
)
from fde.params import ModelParams, derive_constants
from fde.profile import ProfileRequest, compute_profile, estimate_K
from reference import difference_constant_check, eval_expansion_f, eval_expansion_g


@pytest.fixture(scope="module")
def coeffs_325():
    return compute_K0(ModelParams(n=3, m=0.25, beta=-1.0))


@pytest.fixture(scope="module")
def coeffs_320():
    return compute_K0(ModelParams(n=3, m=0.2, beta=-1.0))


def test_K0_stability():
    # |K0(s_max=400) - K0(s_max=200)| <= 1e-3 (1 + |K0|): pipeline stability
    # is the oracle, K has no closed form
    p = ModelParams(n=3, m=0.25, beta=-1.0)
    a = compute_K0(p, s_max=400.0)
    b = compute_K0(p, s_max=200.0)
    assert abs(a.K0 - b.K0) <= 1e-3 * (1.0 + abs(a.K0))
    assert a.converged


def test_a1_decomposition(coeffs_325):
    # first term of the series coefficient at (3, 0.25):
    # (n-2-(n+2)m)^2/(4(n-2-nm)^2) = 0.0625/(4*0.0625) = 0.25,
    # minus the a2(1,1)-dependent part
    n, m = 3, 0.25
    q = n - 2 - n * m
    first = (n - 2 - (n + 2) * m) ** 2 / (4.0 * q * q)
    assert first == pytest.approx(0.25, rel=1e-14)
    a2_part = (1.0 - m) ** 2 * coeffs_325.a2_eta_beta / (4.0 * (n - 1) * q * q)
    assert coeffs_325.a1 == pytest.approx(first - a2_part, rel=1e-12)


def test_yamabe_coefficients_vanish(coeffs_320):
    c = derive_constants(ModelParams(n=3, m=0.2, beta=-1.0))
    assert c.yamabe_case
    assert c.loglog_coeff == 0.0
    assert c.h1_slope == 0.0
    # a1's first term is 0, so a1 is purely the a2-dependent part
    n, m, q = 3, 0.2, 3 - 2 - 3 * 0.2
    a2_part = (1.0 - m) ** 2 * coeffs_320.a2_eta_beta / (4.0 * (n - 1) * q * q)
    assert coeffs_320.a1 == pytest.approx(-a2_part, rel=1e-12)


def test_K0_from_K11_relation(coeffs_325):
    n, m = 3, 0.25
    q = n - 2 - n * m
    assert coeffs_325.K0 == pytest.approx(
        (1.0 - m) * coeffs_325.K_11 / (2.0 * (n - 1) * q), rel=1e-14)


def test_expansion_f_leading_order(coeffs_320):
    # expansion / (blowup_const log(1/r) / r^2)^{1/(1-m)} -> 1 as r -> 0
    c = derive_constants(ModelParams(n=3, m=0.2, beta=-1.0))
    for r, tol in ((1e-10, 0.2), (1e-40, 0.05)):
        f = eval_expansion_f(r, coeffs_320, c, lam=1.0, order="leading")
        ref = (c.blowup_const * math.log(1.0 / r) / r ** 2) ** (1.0 / 0.8)
        assert f == pytest.approx(ref, rel=1e-12)
        full = eval_expansion_f(r, coeffs_320, c, lam=1.0, order="one_over_log")
        assert full / ref == pytest.approx(1.0, rel=tol)


def test_expansion_f_A_vs_lambda_form(coeffs_325):
    c = derive_constants(ModelParams(n=3, m=0.25, beta=-1.0))
    g1 = c.gamma1
    r = np.geomspace(1e-9, 1e-3, 7)
    for lam in (0.5, 1.0, 3.0):
        a = eval_expansion_f(r, coeffs_325, c, lam=lam)
        b = eval_expansion_f(r, coeffs_325, c, A=lam ** (-g1))
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_expansion_f_domain_guards(coeffs_325):
    c = derive_constants(ModelParams(n=3, m=0.25, beta=-1.0))
    with pytest.raises(ValueError, match="r < 1"):
        eval_expansion_f(1.5, coeffs_325, c, lam=1.0)
    with pytest.raises(ValueError, match="e"):
        eval_expansion_f(0.5, coeffs_325, c, lam=1.0, order="loglog")
    with pytest.raises(ValueError, match="exactly one"):
        eval_expansion_f(1e-3, coeffs_325, c)
    with pytest.raises(ValueError, match="exactly one"):
        eval_expansion_f(1e-3, coeffs_325, c, A=1.0, lam=1.0)


def test_expansion_g_domain_guard(coeffs_325):
    c = derive_constants(ModelParams(n=3, m=0.25, beta=-1.0))
    with pytest.raises(ValueError, match="r > e"):
        eval_expansion_g(2.0, coeffs_325, c, eta=1.0, beta_tilde=1.0)


def test_expansion_series_nested(coeffs_325):
    # adding a term never changes lower-order terms
    L = np.array([20.0, 80.0, 150.0])
    prev = None
    sums = expansion_series(L, coeffs_325, 2.0, 0.5)
    assert tuple(sums) == ORDERS
    for order in ORDERS:
        cur = sums[order]
        if prev is not None:
            diff = cur - prev
            assert np.all(np.abs(diff) > 0) or order == "constant"
        prev = cur
    # constant block at eta=1, beta~=1 reduces to K0 alone
    sums = expansion_series(L, coeffs_325, 1.0, 1.0)
    np.testing.assert_allclose(sums["constant"] - sums["loglog"], coeffs_325.K0, rtol=1e-12)


def test_expansion_g_matches_profile(profile_cache):
    # with K0 from the (1,1) run, the expansion tracks the independently
    # computed (eta, beta~) = (2, 0.5) profile
    coeffs = compute_K0(ModelParams(n=3, m=0.25, beta=-0.5), eta=2.0)
    c05 = derive_constants(ModelParams(n=3, m=0.25, beta=-0.5))
    prof = profile_cache(3, 0.25, beta=-0.5, eta=2.0)
    r = math.exp(150.0)
    g_num = float(np.exp(prof.eval_g_log(np.array([r]))[0][0]))
    g_exp = float(eval_expansion_g(r, coeffs, c05, eta=2.0, beta_tilde=0.5))
    assert g_exp == pytest.approx(g_num, rel=1e-4)


def test_residual_report_full_order_trend(profile_cache):
    coeffs = compute_K0(ModelParams(n=3, m=0.25, beta=-0.5), eta=2.0)
    prof = profile_cache(3, 0.25, beta=-0.5, eta=2.0)
    rep = expansion_residual_report(prof, coeffs)
    assert rep["full_order_decreasing"]
    assert rep["a3_rel_dev"] <= 0.05
    assert not rep["a2_sign_flip_suspected"]


def test_residual_report_leading_term_ratio(profile_cache):
    # Rem at leading order, divided by log s, approaches the log-log
    # coefficient (n-2-(n+2)m)/(2(n-2-nm))
    p = ModelParams(n=3, m=0.25, beta=-1.0)
    coeffs = compute_K0(p)
    prof = profile_cache(3, 0.25)
    rep = expansion_residual_report(prof, coeffs)
    c = derive_constants(p)
    sel = rep["s"] >= 150.0
    # subtract the constant block before comparing against llc * log s
    resid = rep["residuals"]["leading"] - (rep["partial_sums"]["constant"]
                                           - rep["partial_sums"]["loglog"])
    ratio = resid[sel] / np.log(rep["s"][sel])
    assert np.mean(ratio) == pytest.approx(c.loglog_coeff, rel=0.05)


def test_residual_report_yamabe_constant_order(profile_cache):
    # Yamabe case: llc = 0, so s * Rem at order `constant` trends to a3
    p = ModelParams(n=3, m=0.2, beta=-1.0)
    coeffs = compute_K0(p)
    prof = profile_cache(3, 0.2)
    rep = expansion_residual_report(prof, coeffs)
    assert rep["a3_rel_dev"] <= 0.05
    assert rep["full_order_decreasing"]


def test_constant_block_shift_between_parameter_pairs(profile_cache):
    # the fitted constant block of two independent profile runs differs by
    # exactly (1/gamma1) log eta + (m/(n-2-nm)) log beta~, within twice the
    # summed K extraction error bars
    n, m = 3, 0.25
    c1 = derive_constants(ModelParams(n=n, m=m, beta=-1.0))
    c2 = derive_constants(ModelParams(n=n, m=m, beta=-0.5))
    p1 = profile_cache(n, m, beta=-1.0, eta=1.0)
    p2 = profile_cache(n, m, beta=-0.5, eta=2.0)
    k1 = estimate_K(p1.far, p1.request.params)
    k2 = estimate_K(p2.far, p2.request.params)
    blk1 = k1.K / c1.a0
    blk2 = k2.K / c2.a0
    q = n - 2 - n * m
    shift = math.log(2.0) / c1.gamma1 + m / q * math.log(0.5)
    tol = 2.0 * (k1.error_estimate / c1.a0
                 + k2.error_estimate / c2.a0)
    assert abs((blk2 - blk1) - shift) <= tol + 1e-9


@pytest.mark.parametrize("n, m, beta, eta", [(5, 0.367876, -1.18629, 1.4731),
                                             (5, 0.366394, -1.39353, 0.868845)])
def test_K_error_bars_cover_the_closed_form_shift(n, m, beta, eta):
    # K(eta, beta~) of its own profile and the closed-form shift of K(1,1)
    # agree within the two reported bars (K(1,1)'s scaled by a0/a0(1,1) =
    # 1/beta~).  On these draws near gamma1 = 5 the half-horizon change alone
    # fell short of the gap.
    p = ModelParams(n=n, m=m, beta=beta)
    prof = compute_profile(ProfileRequest(params=p, eta=eta))
    k = estimate_K(prof.far, p)
    coeffs = compute_K0(p, eta=eta)
    assert abs(k.K - coeffs.K_for(eta, -beta)) <= k.error_estimate + coeffs.K_error / -beta


def test_difference_law(profile_cache):
    # (3, 0.2, beta=-1, lam1=2, lam2=1): D(r) within 10% of
    # blowup^{m/(1-m)} * blowup/(1-m) * log 2, and positive
    prof = profile_cache(3, 0.2)
    c = derive_constants(ModelParams(n=3, m=0.2, beta=-1.0))
    rep = difference_constant_check(prof, 2.0, 1.0, r_lo=1e-6, r_hi=1e-4)
    target = c.blowup_const ** 0.25 * c.blowup_const / 0.8 * math.log(2.0)
    assert rep["target"] == pytest.approx(target, rel=1e-14)
    assert rep["all_positive"]
    assert rep["max_rel_dev"] <= 0.10
    assert rep["ok"]


def test_difference_law_degenerate_and_errors(profile_cache):
    prof = profile_cache(3, 0.2)
    rep = difference_constant_check(prof, 1.0, 1.0)
    assert rep["max_rel_dev"] == 0.0
    with pytest.raises(ValueError, match="lam1 >= lam2"):
        difference_constant_check(prof, 1.0, 2.0)
