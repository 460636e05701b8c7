"""Profile pipeline: startup series, integration, far field, K, evaluators."""

import math
import sys
import threading
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fde import profile
from fde.params import ModelParams, derive_constants
from fde.profile import (
    ProfileError,
    ProfileRequest,
    check_profile_invariants,
    compute_profile,
    estimate_K,
    _rk45,
    integrate_far_field,
    integrate_inner,
    local_series_start,
)
from reference import (
    check_scaling_identities,
    eval_g_lambda,
    eval_U_bar_lambda,
    integrate_far_field_ivp,
    integrate_inner_ivp,
)


def req_for(n, m, beta=-1.0, eta=1.0, **kw):
    return ProfileRequest(params=ModelParams(n=n, m=m, beta=beta), eta=eta, **kw)


# -- request validation ---------------------------------------------------

def test_request_validation():
    with pytest.raises(ProfileError, match="eta"):
        req_for(3, 0.2, eta=-1.0)
    with pytest.raises(ProfileError, match="r0"):
        req_for(3, 0.2, r0=20.0, r_switch=10.0)
    with pytest.raises(ProfileError, match="s_max"):
        req_for(3, 0.2, s_max=1.0)
    with pytest.raises(ProfileError, match="tol"):
        req_for(3, 0.2, tol=-1e-10)


# -- local series ---------------------------------------------------------

def test_local_series_constant_term():
    # g(r0) -> eta as r0 -> 0 (series constant term)
    for r0 in (1e-3, 1e-5, 1e-7):
        g0, _ = local_series_start(req_for(3, 0.2, r0=r0))
        assert g0 == pytest.approx(1.0, abs=10.0 * r0)


def test_local_series_exponent():
    # g_r * r^{delta1} approaches the startup constant: ratio of the scaled
    # derivative at two small radii tends to 1
    c = derive_constants(ModelParams(n=3, m=0.2, beta=-1.0))
    assert c.delta1 == pytest.approx(-1.0, abs=1e-14)  # so g_r(0) = 0
    vals = []
    for r0 in (1e-3, 1e-4):
        _, g0r = local_series_start(req_for(3, 0.2, r0=r0))
        vals.append(g0r * r0 ** c.delta1)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_local_series_singular_derivative_case():
    # n=3, m=0.3: delta1 = 2/3, derivative blows up like r^{-2/3} while g
    # stays continuous; the slow r^{1/3} startup correction forces a much
    # smaller r0 before the series is accurate to tol
    c = derive_constants(ModelParams(n=3, m=0.3, beta=-1.0))
    assert c.delta1 == pytest.approx(2.0 / 3.0, rel=1e-14)
    g0_a, gr_a = local_series_start(req_for(3, 0.3, r0=1e-16))
    g0_b, gr_b = local_series_start(req_for(3, 0.3, r0=1e-18))
    assert abs(gr_b) > abs(gr_a)  # diverging derivative
    assert gr_b / gr_a == pytest.approx((1e-18 / 1e-16) ** (-2.0 / 3.0), rel=1e-10)
    assert g0_a == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ProfileError, match="smaller r0"):
        local_series_start(req_for(3, 0.3, r0=1e-6))


def test_case_b_profile_pipeline():
    # the full pipeline runs in the singular-derivative regime as well
    prof = compute_profile(ProfileRequest(
        params=ModelParams(n=3, m=0.3, beta=-1.0), eta=1.0, r0=1e-16))
    inv = check_profile_invariants(prof)
    assert inv["ok"], inv


def test_local_series_startup_error_guard():
    with pytest.raises(ProfileError, match="smaller r0"):
        local_series_start(req_for(3, 0.25, r0=1.0, r_switch=10.0, tol=1e-10))


def test_measured_startup_exponent_documented():
    # the self-consistently integrated constant carries the m/(n-1) factor
    # relative to the literature value; the measured limit of r^{delta1} g_r
    # is reported so the discrepancy stays visible
    n, m, eta = 3, 0.3, 1.0
    c = derive_constants(ModelParams(n=n, m=m, beta=-1.0))
    _, gr = local_series_start(req_for(n, m, r0=1e-16))
    measured = gr * (1e-16) ** c.delta1
    self_consistent = -m * c.alpha_tilde * eta ** (2 - m) / ((n - 1) * (n - 2 - 2 * m))
    literature = -c.alpha_tilde * eta ** (2 - m) / (n - 2 - 2 * m)
    assert measured == pytest.approx(self_consistent, rel=1e-12)
    assert measured == pytest.approx(literature * m / (n - 1), rel=1e-12)


# -- inner integration ----------------------------------------------------

def test_inner_monotone_decreasing(profile_cache):
    prof = profile_cache(3, 0.2)
    inner = prof.inner
    assert np.all(inner.g > 0.0)
    assert np.all(np.diff(inner.g) < 0.0)
    assert inner.g[-1] < 1.0


def test_inner_eta_scaling_identity(profile_cache):
    # g_{eta=2}(r) = 2 g_{eta=1}(2^{m(1-m)/(n-2-nm)} r) node-wise
    n, m = 3, 0.2
    p1 = profile_cache(n, m, eta=1.0)
    p2 = profile_cache(n, m, eta=2.0)
    fac = 2.0 ** (m * (1 - m) / (n - 2 - n * m))
    r = np.geomspace(1e-4, 5.0, 60)
    lng2, _ = p2.eval_g_log(r)
    lng1, _ = p1.eval_g_log(fac * r)
    np.testing.assert_allclose(lng2, math.log(2.0) + lng1, atol=1e-8)


def test_inner_tiny_eta_no_crash():
    inner = integrate_inner(req_for(3, 0.2, eta=1e-8))
    assert inner.g[0] == pytest.approx(1e-8, rel=1e-6)
    assert np.all(inner.g > 0.0)


@pytest.mark.parametrize("n, m, beta, eta", [
    (4, 0.0765, -1.0, 1.0),
    (5, 0.1228, -0.5, 2.0),
    (5, 0.367876, -1.18629, 1.4731),
    (3, 0.2, -1.0, 1e-8),
    (3, 0.2, -1.0, 1.0),          # Yamabe m = (n-2)/(n+2)
    (4, 1.0 / 3.0, -1.0, 0.5),    # Yamabe
])
def test_inner_stepper_takes_rk45_steps(n, m, beta, eta):
    # the same steps as solve_ivp's RK45; the samples differ only by the
    # rounding of sums taken in order rather than by ndarray.dot, carried
    # through thousands of steps: at most 3.4e-12 relative on these draws
    # (the Yamabe draw at eta 0.5), bounded at a tenth of the tolerance 1e-10
    req = req_for(n, m, beta=beta, eta=eta)
    new, ref = integrate_inner(req), integrate_inner_ivp(req)
    assert (new.nfev, new.steps) == (ref.nfev, ref.steps)
    np.testing.assert_array_equal(new.r, ref.r)
    for a, b in ((new.g, ref.g), (new.g_r, ref.g_r)):
        np.testing.assert_allclose(a, b, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("n, m, beta, eta, s_max", [
    (3, 0.2, -1.0, 1.0, 200.0),          # Yamabe m = (n-2)/(n+2)
    (4, 1.0 / 3.0, -1.0, 0.5, 200.0),    # Yamabe
    (5, 0.367876, -1.18629, 1.4731, 200.0),
    (5, 0.1228, -0.5, 2.0, 200.0),
    (4, 0.0765, -1.0, 1.0, 200.0),
    (3, 0.25, -1.3, 0.7, 400.0),
])
def test_far_field_stepper_takes_lsoda_steps(n, m, beta, eta, s_max):
    # the same steps as solve_ivp's LSODA, for the full trace and for a reach
    # before the handoff at s = log 10, just past it, inside the lattice and
    # beyond s_max; the samples differ only by Horner's rule against powers
    # and a dot product, 2 ulp of w~ at most on these draws
    req = req_for(n, m, beta=beta, eta=eta, s_max=s_max)
    inner = integrate_inner(req)
    for reach in (None, -1.0, 2.31, 4.3, 500.0):
        new = integrate_far_field(req, inner, reach=reach)
        ref = integrate_far_field_ivp(req, inner, reach=reach)
        assert (new.nfev, new.steps) == (ref.nfev, ref.steps), reach
        np.testing.assert_array_equal(new.s, ref.s)
        np.testing.assert_array_max_ulp(new.w, ref.w, maxulp=4)
        np.testing.assert_array_max_ulp(new.w_s, ref.w_s, maxulp=4)
        # h and h1 subtract from w~, so their bound is in ulp of w~
        ulp_w = np.spacing(np.abs(ref.w))
        assert np.all(np.abs(new.h - ref.h) <= 4 * ulp_w), reach
        assert (new.h1 is None) == (ref.h1 is None)  # None in the Yamabe case
        if new.h1 is not None:
            assert np.all(np.abs(new.h1 - ref.h1) <= 4 * ulp_w), reach


def test_inner_stepper_golden_samples():
    # g'' = 2 - g from (3, 0): g = 2 + cos t.  The values pin the stepper's
    # sums over stages, taken left to right, and its Horner sampling; the
    # solve_ivp RK45 pipeline takes the same 164 steps but rounds all three
    # samples differently (2.8775825618804203, 1.0100075034864686, ...)
    nodes = np.array([0.5, 3.0, 6.0])
    g, g_r, nfev, steps = _rk45(lambda t, g, gr: 2.0 - g, 0.0, 6.0, 3.0, 0.0, rtol=1e-10,
                                atol=1e-13, first_step=1e-3, nodes=nodes)
    assert (nfev, steps) == (997, 164)
    assert g.tolist() == [2.877582561880421, 1.010007503486466, 2.960170286481619]
    assert g_r.tolist() == [-0.4794255386176097, -0.1411200080380973, 0.27941549813620997]
    np.testing.assert_allclose(g, 2.0 + np.cos(nodes), rtol=0.0, atol=1e-9)


def test_far_field_golden_samples():
    # the Yamabe profile n=3, m=0.2: w~ and w~_s at nodes where Horner's rule
    # in the Nordsieck columns rounds otherwise than solve_ivp's LSODA
    # dense output (powers and a dot product)
    req = req_for(3, 0.2)
    far = integrate_far_field(req, integrate_inner(req))
    assert (far.nfev, far.steps) == (2352, 1184)
    idx = [1, 3, 9883]
    assert far.w[idx].tolist() == [7.097875324584955, 7.188657721579199, 402.90209812082503]
    assert far.w_s[idx].tolist() == [2.2778962641546157, 2.261044120180466, 2.0000369649097283]


@pytest.mark.parametrize("n, m, beta, eta", [
    (3, 0.2, -1.0, 1.0),          # Yamabe
    (4, 1.0 / 3.0, -1.0, 0.5),    # Yamabe
    (5, 0.367876, -1.18629, 1.4731),
    (5, 0.395767, -0.767198, 1.42874),
    (5, 0.378986, -0.379619, 1.35683),
    (3, 0.25, -1.3, 0.7),
    (4, 0.25, -0.6, 2.5),
])
def test_K_moves_less_than_its_error_estimate(n, m, beta, eta):
    # the stages' own rounding moves K off the solve_ivp pipeline's by at
    # most 0.063 of K's error estimate on these draws (n = 5, beta -0.767)
    req = req_for(n, m, beta=beta, eta=eta)
    new = estimate_K(integrate_far_field(req, integrate_inner(req)), req.params)
    ref = estimate_K(integrate_far_field_ivp(req, integrate_inner_ivp(req)), req.params)
    assert abs(new.K - ref.K) < new.error_estimate


def test_inner_stepper_stops_where_g_reaches_zero():
    # g' = -1 from g = 1: the error estimate is 0, so steps grow tenfold,
    # and the step from 0.111 to 1.111 ends below zero
    with pytest.raises(ProfileError) as e:
        _rk45(lambda t, g, gr: 0.0, 0.0, 2.0, 1.0, -1.0, rtol=1e-10, atol=1e-13,
              first_step=1e-3, nodes=np.linspace(0.0, 2.0, 5))
    assert str(e.value) == "inner integration failed at r=1.111000e+00: g reached 0"


def test_inner_stepper_reports_step_collapse():
    # a right side that returns NaN rejects every step until the step size
    # falls below the spacing of floats at r = 1
    with pytest.raises(ProfileError) as e:
        _rk45(lambda t, g, gr: math.nan, 1.0, 2.0, 1.0, -1.0, rtol=1e-10, atol=1e-13,
              first_step=1e-3, nodes=np.linspace(1.0, 2.0, 5))
    assert str(e.value) == ("inner integration failed at r=1.000000e+00: "
                            "Required step size is less than spacing between numbers.")


def test_inner_residual_small(profile_cache):
    for nm in [(3, 0.2), (3, 0.25), (3, 0.19), (4, 1.0 / 3.0)]:
        prof = profile_cache(*nm)
        assert check_profile_invariants(prof)["residual_inner"] <= 1e-8


# -- far field ------------------------------------------------------------

def test_far_field_slope(profile_cache):
    # w~_s at the horizon approaches 2(n-1)(n-2-nm)/((1-m) beta~); for
    # (3, 0.2, beta~=1) the constant is 2.0
    prof = profile_cache(3, 0.2)
    assert prof.constants.farfield_slope == pytest.approx(2.0, rel=1e-14)
    assert prof.far.w_s[-1] == pytest.approx(2.0, rel=0.01)
    assert np.all(prof.far.w_s > 0.0)


def test_far_field_log_slope(profile_cache):
    # (h(s) - K)/log s tends to the log-slope (n-1)(n-2-(n+2)m)/((1-m)beta~),
    # which is -2/3 at (3, 0.25, beta~=1)
    prof = profile_cache(3, 0.25)
    c = prof.constants
    assert c.h1_slope == pytest.approx(-2.0 / 3.0, rel=1e-14)
    s_max = prof.far.s[-1]
    h_end = prof.far.h[-1]
    K = estimate_K(prof.far, prof.request.params).K
    assert (h_end - K) / math.log(s_max) == pytest.approx(c.h1_slope, rel=0.02)


def test_far_field_yamabe_s2hs(profile_cache):
    # Yamabe case (3, 0.2): s^2 h_s -> (n-1)(1-2m)/((1-m) beta~) = 1.5
    prof = profile_cache(3, 0.2)
    far = prof.far
    s = far.s
    h_s = far.w_s - prof.constants.farfield_slope
    k = len(s) - 1
    assert s[k] ** 2 * h_s[k] == pytest.approx(1.5, rel=0.02)


def test_far_field_trace_definitions(profile_cache):
    # h and h1 are the stored subtractions, node-wise by definition;
    # h1 is absent exactly in the Yamabe case
    prof = profile_cache(3, 0.25)
    far, c = prof.far, prof.constants
    np.testing.assert_allclose(far.h, far.w - c.farfield_slope * far.s, rtol=1e-14)
    np.testing.assert_allclose(far.h1, far.h - c.h1_slope * np.log(far.s), rtol=1e-13)
    assert profile_cache(3, 0.2).far.h1 is None


def test_f_lambda_matches_independent_profile(profile_cache):
    # f_lambda from the eta=1 profile agrees with a fresh profile computed
    # at eta = lambda^{-gamma1}
    lam = 2.0
    p1 = profile_cache(3, 0.25)
    g1 = p1.constants.gamma1
    p2 = profile_cache(3, 0.25, eta=lam ** (-g1))
    r = np.geomspace(1e-3, 1e3, 40)
    lnf_lam, _ = p1.eval_f_lambda_log(lam, r)
    lnf_ind, _ = p2.eval_f_log(r)
    np.testing.assert_allclose(lnf_lam, lnf_ind, atol=1e-8)


def test_k_estimate_stability(profile_cache):
    prof = profile_cache(3, 0.2)
    k = estimate_K(prof.far, prof.request.params)
    assert k.converged
    assert k.error_estimate <= 1e-3 * (1.0 + abs(k.K))
    assert "yamabe" in k.method


def test_k_estimate_consistency_by_definition(profile_cache):
    # K at s_max=100 and s_max=200 agree within the reported error estimate
    prof = profile_cache(3, 0.25)
    trace = prof.far
    full = estimate_K(trace, prof.request.params)
    short = integrate_far_field(
        ProfileRequest(params=ModelParams(n=3, m=0.25, beta=-1.0), eta=1.0, s_max=100.0),
        prof.inner)
    k_short = estimate_K(short, prof.request.params)
    assert abs(full.K - k_short.K) <= full.error_estimate * 1.5 + 1e-12


def test_k_estimate_cauchy(profile_cache):
    # |K(2s) - K(s)| decreasing over s in {25, 50, 100}
    prof = profile_cache(3, 0.25)
    from fde.profile import _k_hat
    c = prof.constants
    diffs = [abs(_k_hat(prof.far, c, 3, 0.25, 2 * s) - _k_hat(prof.far, c, 3, 0.25, s))
             for s in (25.0, 50.0, 100.0)]
    assert diffs[0] > diffs[1] > diffs[2]


def test_k_needs_deep_trace(profile_cache):
    prof = profile_cache(3, 0.2)
    short = integrate_far_field(req_for(3, 0.2, s_max=20.0), prof.inner)
    with pytest.raises(ProfileError, match="s_max"):
        estimate_K(short, prof.request.params)


# -- evaluation -----------------------------------------------------------

def test_eval_continuity_at_handoff(profile_cache):
    prof = profile_cache(3, 0.2)
    rs = prof.request.r_switch
    g_lo, _ = prof.eval_g(rs * (1 - 1e-12))
    g_hi, _ = prof.eval_g(rs * (1 + 1e-12))
    assert g_lo == pytest.approx(g_hi, rel=1e-9)


def test_eval_g_at_origin(profile_cache):
    prof = profile_cache(3, 0.2)
    g, _ = prof.eval_g(1e-12)
    assert g == pytest.approx(1.0, abs=1e-10)


def test_eval_g_derivative_ratio_bound(profile_cache):
    # |r g_r| <= g near the origin
    prof = profile_cache(3, 0.2)
    r = np.geomspace(1e-6, 0.1, 50)
    g, gr = prof.eval_g(r)
    assert np.all(np.abs(r * gr) <= g)


def test_value_only_eval_matches_full_path(profile_cache):
    # f_lambda(r) needs g at 1/(lam r): the radii reach the series branch
    # (<= r0), the inner interpolant and the far field (> r_switch)
    prof = profile_cache(3, 0.2)
    lam, t = 2.0, 0.3
    r = np.geomspace(1e-4, 1e8, 301)
    x = 1.0 / (lam * r)
    req = prof.request
    assert x.min() <= req.r0 and x.max() > req.r_switch
    assert np.any((x > req.r0) & (x <= req.r_switch))
    assert prof.eval_g_log(x, with_rat=False)[1] is None
    assert np.array_equal(prof.eval_g_log(x, with_rat=False)[0], prof.eval_g_log(x)[0])
    assert np.array_equal(prof.eval_f_lambda(lam, r),
                          np.exp(prof.eval_f_lambda_log(lam, r)[0]))
    beta = prof.request.params.beta
    lnf, rat = prof.eval_f_lambda_log(lam, math.exp(-beta * t) * r)
    assert rat is not None
    assert np.array_equal(prof.eval_U_lambda(lam, r, t),
                          np.exp(-prof.constants.alpha * t + lnf))
    # g_lambda(y) needs g at y/lam, which reaches the same three branches;
    # it is U~bar_lambda at t = 0 and the closed form, bit for bit
    y = lam * x
    n, m = req.params.n, req.params.m
    g_lam = np.exp((2.0 / (1.0 - m) - (n - 2) / m) * math.log(lam)
                   + prof.eval_g_log(y / lam, with_rat=False)[0])
    assert (y / lam).min() <= req.r0 and (y / lam).max() > req.r_switch
    assert np.array_equal(eval_g_lambda(prof, lam, y), eval_U_bar_lambda(prof, lam, y, 0.0))
    assert np.array_equal(eval_g_lambda(prof, lam, y), g_lam)


@pytest.mark.parametrize("reach,nodes", [(-1.0, 3), (2.31, 3), (4.3, 102), (500.0, 9885)])
def test_far_field_reach_keeps_a_prefix_of_the_lattice(profile_cache, reach, nodes):
    # the far field ends one node past the first node >= reach, with at
    # least 3 nodes, as a prefix of the full trace, bit for bit; a reach past
    # the lattice's end gives the full trace
    full = profile_cache(3, 0.2)
    prof = compute_profile(full.request, reach=reach)
    s = prof.far.s
    assert len(s) == nodes
    assert nodes in (3, len(full.far.s)) or s[-3] < reach <= s[-2]
    assert prof.far.h1 is None  # the Yamabe case
    for key in ("s", "w", "w_s", "h"):
        assert np.array_equal(getattr(prof.far, key), getattr(full.far, key)[:nodes])
    with pytest.raises(ProfileError, match="no extrapolation"):
        prof.eval_g_log(math.exp(s[-1]) * 1.001)


def test_eval_out_of_range(profile_cache):
    prof = profile_cache(3, 0.2)
    with pytest.raises(ProfileError, match="s_max"):
        prof.eval_g_log(math.exp(201.0))


def test_f_growth_at_infinity(profile_cache):
    # r^{(n-2)/m} f(r) -> eta
    prof = profile_cache(3, 0.2)
    r = math.exp(20.0)
    lnf, _ = prof.eval_f_log(r)
    assert math.exp(lnf + (1.0 / 0.2) * math.log(r)) == pytest.approx(1.0, rel=0.01)


def test_f_blowup_rate(profile_cache):
    # r^2 f^{1-m} / log(1/r) -> 2(n-1)(n-2-nm)/((1-m)|beta|)
    prof = profile_cache(3, 0.2)
    c = prof.constants
    r = math.exp(-200.0)
    lnf, _ = prof.eval_f_log(r)
    val = math.exp(2.0 * math.log(r) + 0.8 * lnf) / 200.0
    assert val == pytest.approx(c.blowup_const, rel=0.01)


def test_f_log_derivative_limits(profile_cache):
    prof = profile_cache(3, 0.25)
    _, rff_small = prof.eval_f_log(math.exp(-190.0))
    _, rff_big = prof.eval_f_log(math.exp(12.0))
    assert rff_small == pytest.approx(-2.0 / 0.75, rel=0.02)    # -2/(1-m)
    assert rff_big == pytest.approx(-(3 - 2) / 0.25, rel=0.02)  # -(n-2)/m


def test_f_lambda_identity_and_monotonicity(profile_cache):
    prof = profile_cache(3, 0.2)
    r = np.geomspace(0.01, 10.0, 30)
    f1 = prof.eval_f_lambda(1.0, r)
    f_direct, _ = prof.eval_f(r)
    np.testing.assert_allclose(f1, f_direct, rtol=1e-14)
    # d f_lambda / d lambda < 0
    f_a = prof.eval_f_lambda(1.5, r)
    f_b = prof.eval_f_lambda(2.0, r)
    assert np.all(f_b < f_a) and np.all(f_a < f1)


def test_f_lambda_far_field_amplitude(profile_cache):
    # r^{(n-2)/m} f_lambda(r) -> lambda^{2/(1-m)-(n-2)/m}
    prof = profile_cache(3, 0.2)
    lam = 2.0
    r = math.exp(20.0)
    val = lam ** (2.0 / 0.8 - 5.0)
    lnf, _ = prof.eval_f_lambda_log(lam, r)
    assert math.exp(lnf + 5.0 * math.log(r)) == pytest.approx(val, rel=0.01)


def test_U_lambda_time_zero_and_group(profile_cache):
    prof = profile_cache(3, 0.2)
    r = np.geomspace(0.1, 5.0, 13)
    assert np.array_equal(prof.eval_U_lambda(1.5, r, 0.0), prof.eval_f_lambda(1.5, r))
    c = prof.constants
    t1, t2 = 0.3, 0.45
    lhs = prof.eval_U_lambda(1.5, r, t1 + t2)
    rhs = math.exp(-c.alpha * t1) * prof.eval_U_lambda(
        1.5, math.exp(-(-c.beta_tilde) * t1) * r, t2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_U_bar_identity(profile_cache):
    # U_bar_lambda(r, t) = r^{-(n-2)/m} U_lambda(1/r, t) to relative 1e-10
    prof = profile_cache(3, 0.2)
    r = np.geomspace(0.2, 5.0, 9)
    for t in (0.0, 0.4):
        lhs = eval_U_bar_lambda(prof, 1.5, r, t)
        rhs = r ** (-5.0) * prof.eval_U_lambda(1.5, 1.0 / r, t)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_lambda_family_needs_unit_eta(profile_cache):
    prof = profile_cache(3, 0.2, eta=2.0)
    with pytest.raises(ProfileError, match="eta"):
        prof.eval_f_lambda(2.0, 1.0)


# -- whole-profile invariants ----------------------------------------------

def test_invariants_across_parameter_sets(profile_cache):
    for nm in [(3, 0.2), (3, 0.25), (3, 0.19), (4, 1.0 / 3.0)]:
        inv = check_profile_invariants(profile_cache(*nm))
        assert inv["ok"], (nm, inv)
        assert inv["g_min"] > 0.0
        assert inv["monotone_min"] > 0.0
        assert inv["ws_min"] > 0.0
        assert inv["f_dec_min"] > 0.0
        # the three growth estimates agree with each other within 2%
        assert inv["ws_ratio"] == pytest.approx(inv["w_over_s_ratio"], abs=0.02)
        assert abs(inv["g_origin_ratio"] - 1.0) < 1e-6
        # r w_r / w stays bounded by its r->0 limit (1-m) at/bt plus margin
        c = profile_cache(*nm).constants
        bound = (1 - nm[1]) * c.alpha_tilde / c.beta_tilde
        assert inv["rwr_over_w_max"] <= bound * (1.0 + 1e-6)


def test_uniqueness_proxy(profile_cache):
    # different (r0, r_switch, tol) choices agree within combined tolerances
    a = profile_cache(3, 0.25)
    b = compute_profile(ProfileRequest(
        params=ModelParams(n=3, m=0.25, beta=-1.0), eta=1.0,
        r0=1e-7, r_switch=5.0, s_max=200.0, tol=1e-11))
    r = np.geomspace(1e-3, math.exp(20.0), 40)
    lng_a, _ = a.eval_g_log(r)
    lng_b, _ = b.eval_g_log(r)
    np.testing.assert_allclose(lng_a, lng_b, atol=1e-7)


def test_scaling_identities_trivial_case():
    rep = check_scaling_identities(ModelParams(n=3, m=0.25, beta=-1.0),
                                   1.0, 1.0, 1.0, n_samples=20)
    assert rep["max_deviation"] <= 1e-12


def test_scaling_identities_cross_parameters():
    rep = check_scaling_identities(ModelParams(n=3, m=0.25, beta=-1.0),
                                   1.0, 2.0, 2.0)
    assert rep["ok"], rep
    assert rep["max_deviation"] <= 1e-8
    # hand arithmetic of the amplitude factor in the beta~ identity at
    # m = 0.25: (bt2/bt1)^{1/(1-m)} = 2^{4/3}
    assert (2.0 / 1.0) ** (1.0 / 0.75) == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-15)
    # and of the argument factor in the eta identity:
    # (eta1/eta2)^{m(1-m)/(n-2-nm)} = (1/2)^{0.75}
    assert (1.0 / 2.0) ** (0.25 * 0.75 / 0.25) == pytest.approx(0.5 ** 0.75, rel=1e-15)


# -- the last profile built, kept by compute_profile ------------------------

def test_profile_arrays_are_read_only(profile_builds):
    # the profile is shared by every later call with its request: a caller
    # that writes into it fails instead of corrupting the next one's
    prof = compute_profile(req_for(3, 0.25, s_max=20.0))
    inner, far = prof.inner, prof.far
    for a in (inner.r, inner.g, inner.g_r, far.s, far.w, far.w_s, far.h, far.h1):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_failed_request_is_not_kept(profile_builds):
    req = req_for(3, 0.25, eta=1e-25, s_max=20.0)
    messages = []
    for _ in range(2):
        with pytest.raises(ProfileError) as e:
            compute_profile(req)
        messages.append(str(e.value))
    assert messages[0] == messages[1] and "w~_s <= 0" in messages[0]
    assert profile_builds == [req, req]


def test_requests_differing_in_reach_or_type_build_apart(profile_builds):
    # the key is the repr of (request, reach): equal values of another type
    # (beta -1 against -1.0, eta 1 against 1.0, reach 5 against 5.0) miss
    base = req_for(3, 0.25, s_max=20.0)
    calls = [(base, None), (base, None), (base, 5.0), (base, 5.0), (base, 5),
             (replace(base, params=ModelParams(n=3, m=0.25, beta=-1)), None),
             (replace(base, eta=1), None), (base, None)]
    profs = [compute_profile(req, reach=reach) for req, reach in calls]
    assert profs[1] is profs[0] and profs[3] is profs[2]
    assert len({id(p) for p in profs}) == 6
    assert profile_builds == [base, base, base, calls[5][0], calls[6][0], base]
    assert profs[0].far.s[-1] == profs[7].far.s[-1] == 20.0 > profs[2].far.s[-1]
    assert np.array_equal(profs[7].far.w, profs[0].far.w)


def test_memo_holds_one_profile(profile_builds, monkeypatch):
    # a miss drops the kept profile before it builds the next one
    first = weakref.ref(compute_profile(req_for(3, 0.25, s_max=20.0)))
    assert first() is not None
    alive = []
    integrate = profile.integrate_inner

    def watched(req):
        alive.append(first() is not None)
        return integrate(req)

    monkeypatch.setattr(profile, "integrate_inner", watched)
    compute_profile(req_for(3, 0.25, eta=2.0, s_max=20.0))
    assert alive == [False] and first() is None


def test_concurrent_calls_get_their_own_profile(monkeypatch):
    # threads that share the memo each get the profile of their own request,
    # whichever entry another thread stores meanwhile; stand-in stages and
    # profiles make a call cheap enough for the threads to interleave often
    monkeypatch.setattr(profile, "_last", (None, None), raising=False)
    arrays = lambda *names: SimpleNamespace(**{name: np.zeros(1) for name in names}, h1=None)
    monkeypatch.setattr(profile, "integrate_inner", lambda req: arrays("r", "g", "g_r"))
    monkeypatch.setattr(profile, "integrate_far_field",
                        lambda req, inner, reach=None: arrays("s", "w", "w_s", "h"))
    monkeypatch.setattr(profile, "Profile", lambda req, inner, far: SimpleNamespace(request=req))
    reqs = [req_for(3, 0.25, eta=eta) for eta in (1.0, 2.0)]
    wrong, done = [], []

    def worker(k):
        for i in range(3000):
            req = reqs[(i // 3 + k) % 2]
            if compute_profile(req).request is not req:
                wrong.append((k, i))
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []
