"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here, not configurable.  The parameter set for the
profile criteria is {(3,0.2),(3,0.25),(3,0.19),(4,1/3)} x {eta 1,2} x
{beta~ 0.5,1}; growth-limit reproduction reads on the (eta=1, beta~=1)
member of each family.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from fde import asymptotics, evolution, measures
from fde.params import ModelParams, derive_constants
from fde.profile import (
    ProfileRequest,
    check_profile_invariants,
    compute_profile,
    estimate_K,
)
from reference import check_scaling_identities, difference_constant_check

NM_SET = [(3, 0.2), (3, 0.25), (3, 0.19), (4, 1.0 / 3.0)]
ETAS = (1.0, 2.0)
BTS = (1.0, 0.5)


def _report(cid, ok, detail=""):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


@pytest.fixture(scope="module")
def profile_set(profile_cache):
    t0 = time.perf_counter()
    out = {}
    for n, m in NM_SET:
        for eta in ETAS:
            for bt in BTS:
                out[(n, m, eta, bt)] = profile_cache(n, m, beta=-bt, eta=eta)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def contraction_bundle(profile_cache):
    """Shared runs for criteria 9 and 10: N=2001, R=e^5, boundary U_{lam1}."""
    t0 = time.perf_counter()
    bundles = {}
    for m in (0.2, 0.19):
        p = ModelParams(n=3, m=m, beta=-1.0)
        prof = profile_cache(3, m)
        lam1, lam2 = 2.0, 1.0
        bc = evolution.BoundarySpec(kind="U_lambda", lam=lam1)

        def one(N, init):
            grid = evolution.build_grid(math.e ** 5, N)
            cfg = evolution.EvolutionConfig(
                grid=grid, params=p, form="physical", initial=init, boundary=bc,
                dt=2e-3, snapshot_times=np.linspace(0.0, 1.0, 21),
                profile=prof, monitors=True, lam1=lam1, lam2=lam2)
            return grid, evolution.run(cfg)

        grid, t_hi = one(2001, evolution.InitialSpec(kind="f_lambda", lam=lam1))
        _, t_lo = one(2001, evolution.InitialSpec(kind="f_lambda", lam=lam2))
        hgrid, t_hi_h = one(1001, evolution.InitialSpec(kind="f_lambda", lam=lam1))
        _, t_lo_h = one(1001, evolution.InitialSpec(kind="f_lambda", lam=lam2))
        blend = None
        if m == 0.2:
            _, blend = one(2001, evolution.InitialSpec(
                kind="blend", lam1=lam1, lam2=lam2, theta=0.5))
        bundles[m] = dict(params=p, profile=prof, grid=grid, hgrid=hgrid,
                          pair=(t_hi, t_lo), half=(t_hi_h, t_lo_h), blend=blend)
    return bundles, time.perf_counter() - t0


def test_criterion_1_constants_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 10))
        m = float(rng.uniform(0.01, (n - 2) / n * 0.995))
        beta = float(-rng.uniform(0.05, 20.0))
        c = derive_constants(ModelParams(n=n, m=m, beta=beta))
        r1 = abs((c.alpha_tilde / c.beta_tilde + 2 / (1 - m)) / ((n - 2) / m) - 1.0)
        r2 = abs(c.gamma2 / ((1 - m) * c.mu1 / (2 * m)) - 1.0) if c.mu1 != 0 else 0.0
        r3 = abs((m * c.gamma3 + 1.0) / (n * c.beta_tilde / c.alpha_tilde) - 1.0)
        worst = max(worst, r1, r2, r3)
    dt = time.perf_counter() - t0
    _report(1, worst <= 1e-13 and dt < 1.0,
            f"worst identity deviation {worst:.2e}, runtime {dt:.2f}s")


def test_criterion_2_profile_invariants(profile_set):
    profs, elapsed = profile_set
    bad = []
    for key, prof in profs.items():
        inv = check_profile_invariants(prof)
        ok = (inv["g_min"] > 0.0 and inv["monotone_min"] > 0.0
              and inv["ws_min"] > 0.0
              and max(inv["residual_inner"], inv["residual_far"]) <= 1e-8)
        if not ok:
            bad.append((key, inv))
    _report(2, not bad and elapsed < 30.0,
            f"16 profiles, worst residual ok, built in {elapsed:.1f}s"
            + (f"; failures: {bad}" if bad else ""))


def test_criterion_3_growth_limits(profile_set):
    profs, _ = profile_set
    rows = []
    ok = True
    for n, m in NM_SET:
        prof = profs[(n, m, 1.0, 1.0)]
        c = prof.constants
        ws_dev = abs(prof.far.w_s[-1] / c.farfield_slope - 1.0)
        # r^2 f^{1-m}/log(1/r) at r = e^{-200} equals w~(200)/200 in f-variables
        blow_dev = abs(prof.far.w[-1] / prof.far.s[-1] / c.blowup_const - 1.0)
        lng, _ = prof.eval_g_log(np.array([math.exp(-20.0)]))
        amp_dev = abs(float(np.exp(lng[0])) / prof.request.eta - 1.0)
        rows.append(f"({n},{m:.2f}): ws {ws_dev:.1e} blowup {blow_dev:.1e} amp {amp_dev:.1e}")
        ok = ok and ws_dev <= 0.01 and blow_dev <= 0.01 and amp_dev <= 0.01
    _report(3, ok, "; ".join(rows))


def test_criterion_4_scaling_identities():
    worst = 0.0
    for n, m in ((3, 0.25), (4, 1.0 / 3.0)):
        rep = check_scaling_identities(ModelParams(n=n, m=m, beta=-1.0),
                                       1.0, 2.0, 2.0, n_samples=50)
        worst = max(worst, rep["max_deviation"])
    _report(4, worst <= 1e-6, f"max relative deviation {worst:.2e}")


def test_criterion_5_K_stability(profile_set):
    profs, _ = profile_set
    ok = True
    worst = 0.0
    for key, prof in profs.items():
        p = prof.request.params
        k = estimate_K(prof.far, p)
        thr = 1e-3 * (1.0 + abs(k.K))
        ok = ok and k.error_estimate <= thr
        worst = max(worst, k.error_estimate / thr)
        if prof.constants.yamabe_case:
            ok = ok and "yamabe" in k.method
    _report(5, ok, f"worst error/threshold ratio {worst:.2f}")


def test_criterion_6_expansion_verification(profile_cache):
    ok = True
    details = []
    for n, m in ((3, 0.25), (3, 0.19)):
        coeffs = asymptotics.compute_K0(ModelParams(n=n, m=m, beta=-0.5), eta=2.0)
        prof = profile_cache(n, m, beta=-0.5, eta=2.0)
        rep = asymptotics.expansion_residual_report(prof, coeffs)
        ok = ok and rep["full_order_decreasing"] and rep["a3_rel_dev"] <= 0.05
        details.append(f"({n},{m}): slope {rep['slope_s_rem_full']:.1e}, "
                       f"a3 dev {rep['a3_rel_dev']:.2%}")
    _report(6, ok, "; ".join(details))


def test_criterion_7_difference_law(profile_cache):
    prof = profile_cache(3, 0.2)
    rep = difference_constant_check(prof, 2.0, 1.0, r_lo=1e-6, r_hi=1e-4)
    _report(7, rep["all_positive"] and rep["max_rel_dev"] <= 0.10,
            f"max deviation from closed form {rep['max_rel_dev']:.2%}, "
            f"positive: {rep['all_positive']}")


def test_criterion_8_solver_orders(profile_cache):
    t0 = time.perf_counter()
    p = ModelParams(n=3, m=0.2, beta=-1.0)
    k, T, horizon = 1.0, 1.0, 0.25
    init = evolution.InitialSpec(kind="barenblatt", k=k, T=T)
    bc = evolution.BoundarySpec(kind="barenblatt", k=k, T=T)

    errs = []
    for N, dt in ((101, 8e-3), (201, 2e-3), (401, 5e-4)):
        grid = evolution.build_grid(math.e, N)
        cfg = evolution.EvolutionConfig(
            grid=grid, params=p, form="physical", initial=init, boundary=bc,
            dt=dt, snapshot_times=np.array([0.0, horizon]))
        traj = evolution.run(cfg)
        exact = evolution.barenblatt_oracle(grid.r, traj.times[-1], k, T, p)
        errs.append(float(np.max(np.abs(traj.fields[-1] - exact))))
    sp = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    gridT = evolution.build_grid(math.e, 801)
    fields = []
    for dt in (0.01, 0.005, 0.0025):
        cfg = evolution.EvolutionConfig(
            grid=gridT, params=p, form="physical", initial=init, boundary=bc,
            dt=dt, snapshot_times=np.array([0.0, horizon]))
        fields.append(evolution.run(cfg).fields[-1])
    d1 = float(np.max(np.abs(fields[0] - fields[1])))
    d2 = float(np.max(np.abs(fields[1] - fields[2])))
    tp = math.log2(d1 / d2)

    # exact-U_lambda tracking at (ds, dt) = (0.01, 1e-4)
    prof = profile_cache(3, 0.2)
    lam = 20.0
    gridU = evolution.build_grid(math.e, 201)
    cfg = evolution.EvolutionConfig(
        grid=gridU, params=p, form="physical",
        initial=evolution.InitialSpec(kind="f_lambda", lam=lam),
        boundary=evolution.BoundarySpec(kind="U_lambda", lam=lam),
        dt=1e-4, snapshot_times=np.array([0.0, 0.05]),
        profile=prof)
    traj = evolution.run(cfg)
    exact = prof.eval_U_lambda(lam, gridU.r, traj.times[-1])
    track = float(np.max(np.abs(traj.fields[-1] - exact)))
    elapsed = time.perf_counter() - t0

    ok = (all(1.7 <= o <= 2.3 for o in sp) and 0.8 <= tp <= 1.2
          and track <= 1e-6 and elapsed < 120.0)
    _report(8, ok, f"spatial orders {[f'{o:.2f}' for o in sp]}, temporal {tp:.2f}, "
                   f"U_lambda tracking {track:.1e}, runtime {elapsed:.0f}s")


def test_criterion_9_monitors(contraction_bundle):
    bundles, _ = contraction_bundle
    blend = bundles[0.2]["blend"]
    ab = blend.monitors["aronson_benilan"]
    om = blend.monitors["ordering"]
    ok = ab["ok"] and om["ok"]
    _report(9, ok,
            f"ordering gaps ({om['gap_lo_min']:.1e}, {om['gap_hi_min']:.1e}) "
            f">= -{om['slack']:.1e}; AB excess {ab['max_excess']:.1e} <= {ab['slack']:.1e}")


def test_criterion_10_contraction_suites(contraction_bundle):
    bundles, elapsed = contraction_bundle
    ok = True
    details = []
    b = bundles[0.2]
    weights = [
        ("power_mu 0.25", measures.WeightSpec(kind="power_mu", params=b["params"],
                                              mu=0.25)),
        ("power_mu mu1=0.5", measures.WeightSpec(kind="power_mu", params=b["params"],
                                                 mu=0.5)),
        ("profile_gamma2", measures.WeightSpec(kind="profile_gamma2",
                                               params=b["params"],
                                               lam3=1.0, profile=b["profile"])),
    ]
    for name, w in weights:
        rep = measures.contraction_report(b["pair"][0], b["pair"][1], w, half=b["half"])
        ok = ok and rep["verdict"] == "PASS"
        details.append(f"{name}: {rep['verdict']}")

    b = bundles[0.19]
    w = measures.WeightSpec(kind="radial_gamma3", params=b["params"],
                            lam3=1.0, profile=b["profile"])
    rep = measures.contraction_report(b["pair"][0], b["pair"][1], w, half=b["half"])
    ok = ok and rep["verdict"] == "PASS"
    details.append(f"radial_gamma3 (m=0.19): {rep['verdict']}")
    ok = ok and elapsed < 300.0
    _report(10, ok, "; ".join(details) + f"; runs built in {elapsed:.0f}s")


def test_criterion_11_convergence(profile_cache):
    t0 = time.perf_counter()
    ok = True
    details = []
    for m, wkind in ((0.2, "profile_gamma2"), (0.19, "radial_gamma3")):
        p = ModelParams(n=3, m=m, beta=-1.0)
        prof = profile_cache(3, m)
        grid = evolution.build_grid(math.e ** 1.7, 3001)
        cfg = evolution.EvolutionConfig(
            grid=grid, params=p, form="rescaled",
            initial=evolution.InitialSpec(kind="bump", lam0=1.0, amplitude=0.10,
                                          r_lo=0.2, r_hi=2.0),
            boundary=evolution.BoundarySpec(kind="f_lambda", lam=1.0),
            dt=5e-3, snapshot_times=np.linspace(0.0, 5.0, 11),
            profile=prof, monitors=True, lam1=1.0, lam2=0.4)
        traj = evolution.run(cfg)
        w = measures.WeightSpec(kind=wkind, params=p, lam3=1.0, profile=prof)
        rep = measures.convergence_report(traj, 1.0, w,
                                          K_compact=(0.5, 2.0),
                                          decrease_factor=10.0)
        ok = ok and rep["verdict"] == "PASS"
        details.append(f"m={m} {wkind}: {rep['verdict']} "
                       f"(e1 x{rep['e1_factor']:.0f}, e_inf x{rep['e_inf_factor']:.0f}, "
                       f"final {rep['e_inf_final']:.1e} <= {rep['e_inf_threshold']:.1e})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(11, ok, "; ".join(details) + f"; runtime {elapsed:.0f}s")
