"""Weights, quadrature, contraction and convergence reports."""

import math

import numpy as np
import pytest

from fde.evolution import (
    BoundarySpec,
    EvolutionConfig,
    InitialSpec,
    build_grid,
    run,
)
from fde.measures import (
    ANNULUS_NOTE,
    MeasureError,
    WeightSpec,
    _l1,
    contraction_report,
    convergence_report,
    unit_sphere_area,
)
from fde.params import ModelParams, derive_constants
from reference import RadialField, eval_g_lambda, inversion_transform, weighted_l1

P32 = ModelParams(n=3, m=0.2, beta=-1.0)
C32 = derive_constants(P32)


def test_unit_sphere_area():
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)


def test_weighted_l1_zero_for_equal_fields():
    g = build_grid(math.e, 64)
    a = np.exp(-g.s ** 2) + 1.0
    w = WeightSpec(kind="power_mu", params=P32, mu=0.25)
    assert weighted_l1(a, a, w, g) == 0.0


def test_weighted_l1_closed_form_power():
    # a-b = r^{-p}, w = r^{-mu}: omega_n int r^{n-1-p-mu} dr has a closed
    # antiderivative; small net exponent keeps the trapezoid error < 1e-8
    n, p, mu, R, N = 3, 2.7, 0.5, math.e, 2001
    g = build_grid(R, N)
    a = g.r ** (-p) + 1.0
    b = np.ones(g.N)
    w = WeightSpec(kind="power_mu", params=P32, mu=mu)
    got = weighted_l1(a, b, w, g)
    q = n - p - mu
    exact = unit_sphere_area(n) * (R ** q - R ** (-q)) / q
    assert got == pytest.approx(exact, rel=1e-8)


def test_weighted_l1_exact_for_constant_in_s():
    # integrand constant in s: trapezoid is exact up to rounding
    n, R, N = 3, math.e ** 2, 301
    g = build_grid(R, N)
    mu = 0.5
    p = n - mu  # net exponent zero
    a = g.r ** (-p) + 1.0
    b = np.ones(g.N)
    w = WeightSpec(kind="power_mu", params=P32, mu=mu)
    got = weighted_l1(a, b, w, g)
    exact = unit_sphere_area(n) * 2.0 * math.log(R)
    assert got == pytest.approx(exact, rel=1e-13)


def test_weighted_l1_second_order_refinement():
    n, R = 3, math.e
    w = WeightSpec(kind="power_mu", params=P32, mu=0.3)
    errs = []
    q_exact = None
    for N in (101, 201, 401):
        g = build_grid(R, N)
        a = np.exp(np.sin(g.s)) + 1.0
        b = np.ones(g.N)
        got = weighted_l1(a, b, w, g)
        if q_exact is None:
            gf = build_grid(R, 30001)
            af = np.exp(np.sin(gf.s)) + 1.0
            q_exact = weighted_l1(af, np.ones(gf.N), w, gf)
        errs.append(abs(got - q_exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_weighted_l1_triangle_inequality():
    g = build_grid(math.e, 101)
    rng = np.random.default_rng(42)
    w = WeightSpec(kind="power_mu", params=P32, mu=0.4)
    for _ in range(20):
        a, b, c = (rng.uniform(0.1, 5.0, g.N) for _ in range(3))
        ac = weighted_l1(a, c, w, g)
        ab = weighted_l1(a, b, w, g)
        bc = weighted_l1(b, c, w, g)
        assert ac <= ab + bc + 1e-12


def test_weighted_l1_grid_mismatch():
    g = build_grid(math.e, 64)
    w = WeightSpec(kind="power_mu", params=P32, mu=0.25)
    with pytest.raises(MeasureError, match="grid"):
        weighted_l1(np.ones(32), np.ones(64), w, g)


@pytest.mark.parametrize("shape", [(21, 2001), (2001,)], ids=["rows", "one-row"])
def test_l1_is_the_trapezoid_rule_bit_for_bit(shape):
    # _l1 builds its integrand in place and sums the pairs as np.trapezoid
    # does, with the same arithmetic in the same order
    g = build_grid(math.e ** 5, 2001)
    rng = np.random.default_rng(23)
    diff, w = rng.standard_normal(shape), rng.random(2001) + 0.1
    kept = diff.copy()
    want = unit_sphere_area(3) * np.trapezoid(np.abs(diff) * w * g.r ** 3, g.s, axis=-1)
    assert np.array_equal(_l1(diff, w, g, 3), want)
    assert np.array_equal(diff, kept)


def test_weight_validation(profile_cache):
    prof = profile_cache(3, 0.2)
    # mu range, including the mu = mu1 edge condition
    WeightSpec(kind="power_mu", params=P32, mu=C32.mu1)
    with pytest.raises(MeasureError, match="mu"):
        WeightSpec(kind="power_mu", params=P32, mu=0.6)
    with pytest.raises(MeasureError, match="mu"):
        WeightSpec(kind="power_mu", params=P32, mu=0.0)
    with pytest.raises(MeasureError, match="mu"):
        WeightSpec(kind="power_mu", params=P32, mu=float("nan"))
    # n = 5, m = 0.55 > 1/2: the mu = mu1 edge is excluded
    p5 = ModelParams(n=5, m=0.55, beta=-1.0)
    c5 = derive_constants(p5)
    with pytest.raises(MeasureError, match="mu = mu1"):
        WeightSpec(kind="power_mu", params=p5, mu=c5.mu1)
    # regime windows for the profile weights
    WeightSpec(kind="profile_gamma2", params=P32, lam3=1.0,
               profile=prof)
    with pytest.raises(MeasureError, match="profile_gamma2"):
        p19 = ModelParams(n=3, m=0.19, beta=-1.0)
        WeightSpec(kind="profile_gamma2", params=p19, lam3=1.0, profile=prof)
    with pytest.raises(MeasureError, match="radial_gamma3"):
        WeightSpec(kind="radial_gamma3", params=P32, lam3=1.0,
                   profile=prof)
    with pytest.raises(MeasureError, match="unknown"):
        WeightSpec(kind="exotic", params=P32)


def test_weight_positivity(profile_cache):
    prof = profile_cache(3, 0.2)
    prof19 = profile_cache(3, 0.19)
    p19 = ModelParams(n=3, m=0.19, beta=-1.0)
    g = build_grid(math.e ** 5, 257)
    specs = [
        WeightSpec(kind="power_mu", params=P32, mu=0.25),
        WeightSpec(kind="profile_gamma2", params=P32, lam3=1.0,
                   profile=prof),
        WeightSpec(kind="radial_gamma3", params=p19, lam3=1.0,
                   profile=prof19),
        WeightSpec(kind="custom_power_times_profile", params=P32,
                   lam3=2.0, profile=prof, power=-1.0, exponent=0.3),
    ]
    for spec in specs:
        vals = spec.values(g.r)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0), spec.kind


def test_radial_gamma3_equals_inverted_g_weight(profile_cache):
    # the radial_gamma3-weighted distance of two fields equals the
    # g^{m gamma3}-weighted distance of their inversions (change of
    # variables), up to quadrature tolerance
    p = ModelParams(n=3, m=0.19, beta=-1.0)
    c = derive_constants(p)
    prof = profile_cache(3, 0.19)
    g = build_grid(math.e ** 2, 2001)
    u1 = prof.eval_f_lambda(1.0, g.r)
    u2 = prof.eval_f_lambda(1.5, g.r)
    w = WeightSpec(kind="radial_gamma3", params=p, lam3=1.2,
                   profile=prof)
    lhs = weighted_l1(u1, u2, w, g)
    b1 = inversion_transform(RadialField(u=u1, t=0.0, form="physical"), g, p)
    b2 = inversion_transform(RadialField(u=u2, t=0.0, form="physical"), g, p)
    w_g = eval_g_lambda(prof, 1.2, g.r) ** (p.m * c.gamma3)
    rhs = weighted_l1(b1.u, b2.u, w_g, g, n=p.n)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def _small_pair(profile_cache, init2_kind="f_lambda", lam_b=1.0):
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 301)
    bc = BoundarySpec(kind="U_lambda", lam=2.0)

    def one(init):
        cfg = EvolutionConfig(grid=g, params=P32, form="physical", initial=init,
                              boundary=bc, dt=2e-3,
                              snapshot_times=np.linspace(0.0, 0.3, 7), profile=prof)
        return run(cfg)

    t1 = one(InitialSpec(kind="f_lambda", lam=2.0))
    t2 = one(InitialSpec(kind=init2_kind, lam=lam_b))
    return prof, g, t1, t2


def test_verdict_triage():
    # strictly nonincreasing (to the 1e-8 floor) -> PASS; increases below
    # the discretization slack -> INCONCLUSIVE; above it -> FAIL
    from fde.measures import _verdict

    slack = np.array([1e-8 + 0.1, 1e-8 + 0.1, 1e-8 + 0.1])
    assert _verdict(np.array([3.0, 2.0, 1.5]), slack) == "PASS"
    assert _verdict(np.array([3.0, 3.0 + 5e-9, 1.5]), slack) == "PASS"
    assert _verdict(np.array([3.0, 3.05, 1.5]), slack) == "INCONCLUSIVE"
    assert _verdict(np.array([3.0, 3.5, 1.5]), slack) == "FAIL"


def test_contraction_identical_initial_data(profile_cache):
    prof, g, t1, t2 = _small_pair(profile_cache, lam_b=2.0)
    w = WeightSpec(kind="power_mu", params=P32, mu=0.25)
    rep = contraction_report(t1, t2, w)
    assert np.all(rep["series"] == 0.0)
    assert rep["verdict"] == "PASS"
    assert rep["note"] == ANNULUS_NOTE


def test_contraction_small_run(profile_cache):
    prof, g, t1, t2 = _small_pair(profile_cache)
    w = WeightSpec(kind="power_mu", params=P32, mu=0.25)
    rep = contraction_report(t1, t2, w)
    assert rep["verdict"] == "PASS"
    assert rep["verdict_positive_part"] == "PASS"
    assert np.all(np.diff(rep["series"]) <= 1e-8)


def test_reports_equal_the_per_snapshot_norms(profile_cache):
    # a report integrates all its snapshots in one call; each entry is the
    # norm of its own snapshot, bit for bit
    prof, g, t1, t2 = _small_pair(profile_cache)
    w = WeightSpec(kind="power_mu", params=P32, mu=0.25)
    rep = contraction_report(t1, t2, w)
    for k, (a, b) in enumerate(zip(t1.fields, t2.fields)):
        assert rep["series"][k] == weighted_l1(a, b, w, g)
        assert rep["series_positive_part"][k] == weighted_l1(np.maximum(a - b, 0.0), 0.0 * a, w, g)

    traj = run(EvolutionConfig(
        grid=g, params=P32, form="rescaled",
        initial=InitialSpec(kind="bump", lam0=1.0, amplitude=0.1, r_lo=0.5, r_hi=2.0),
        boundary=BoundarySpec(kind="f_lambda", lam=1.0),
        dt=5e-3, snapshot_times=np.linspace(0.0, 0.1, 5), profile=prof))
    wg = WeightSpec(kind="profile_gamma2", params=P32, lam3=1.0, profile=prof)
    rep = convergence_report(traj, 1.0, wg)
    target = prof.eval_f_lambda(1.0, g.r)
    sel = (g.r >= 0.5) & (g.r <= 2.0)
    for k, u in enumerate(traj.fields):
        assert rep["e1"][k] == weighted_l1(u, target, wg, g)
        assert rep["e_inf"][k] == np.max(np.abs(u - target)[sel])


def test_contraction_refuses_different_boundaries(profile_cache):
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 301)

    def one(lam_bc):
        cfg = EvolutionConfig(
            grid=g, params=P32, form="physical",
            initial=InitialSpec(kind="f_lambda", lam=2.0),
            boundary=BoundarySpec(kind="U_lambda", lam=lam_bc),
            dt=2e-3, snapshot_times=np.linspace(0.0, 0.1, 3),
            profile=prof)
        return run(cfg)

    with pytest.raises(MeasureError, match="boundary data"):
        contraction_report(one(2.0), one(1.5),
                           WeightSpec(kind="power_mu", params=P32, mu=0.25))


@pytest.mark.parametrize("order", ["traj2", "swapped", "half"])
def test_contraction_refuses_runs_on_different_grids(order):
    # two grids with the same N but different R: node by node the fields
    # line up, yet they sample different radii
    def one(R, value):
        return run(EvolutionConfig(
            grid=build_grid(R, 101), params=P32, form="physical",
            initial=InitialSpec(kind="constant", value=value),
            boundary=BoundarySpec(kind="constant", value=1.0),
            dt=1e-2, snapshot_times=np.array([0.0, 0.01, 0.02])))

    near, far = one(math.e, 1.5), one(math.e ** 3, 1.0)
    w = WeightSpec(kind="power_mu", params=P32, mu=0.25)
    traj1, traj2, half = {"traj2": (near, far, None), "swapped": (far, near, None),
                          "half": (near, one(math.e, 1.0), (near, far))}[order]
    with pytest.raises(MeasureError, match="must share the grid"):
        contraction_report(traj1, traj2, w, half=half)


def test_convergence_steady_start_stays_at_noise(profile_cache):
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 1.7, 801)
    cfg = EvolutionConfig(
        grid=g, params=P32, form="rescaled",
        initial=InitialSpec(kind="f_lambda", lam=1.0),
        boundary=BoundarySpec(kind="f_lambda", lam=1.0),
        dt=5e-3, snapshot_times=np.linspace(0.0, 1.0, 5),
        profile=prof, monitors=True, lam1=1.0, lam2=1.0)
    traj = run(cfg)
    w = WeightSpec(kind="profile_gamma2", params=P32, lam3=1.0,
                   profile=prof)
    rep = convergence_report(traj, 1.0, w, decrease_factor=1.0, e_inf_threshold=1.0)
    # exact steady start: the error stays at the truncation floor,
    # ~ C ds^2 * f with C ~ 20 on this configuration
    assert rep["e_inf_final"] <= 1e-2


def test_convergence_needs_the_run_profile():
    # f_{lam0} comes from the run's profile; a run built without one is refused
    traj = run(EvolutionConfig(
        grid=build_grid(math.e, 33), params=P32, form="rescaled",
        initial=InitialSpec(kind="constant", value=1.0),
        boundary=BoundarySpec(kind="constant", value=1.0),
        dt=5e-2, snapshot_times=np.array([0.0, 0.1])))
    with pytest.raises(MeasureError, match="profile"):
        convergence_report(traj, 1.0, WeightSpec(kind="power_mu", params=P32, mu=0.25))


def test_convergence_band_validation(profile_cache):
    import dataclasses

    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 1.7, 301)
    cfg = EvolutionConfig(
        grid=g, params=P32, form="rescaled",
        initial=InitialSpec(kind="f_lambda", lam=1.0),
        boundary=BoundarySpec(kind="f_lambda", lam=1.0),
        dt=5e-2, snapshot_times=np.array([0.0, 0.1]),
        profile=prof, monitors=True, lam1=1.0, lam2=0.5)
    traj = run(cfg)
    w = WeightSpec(kind="profile_gamma2", params=P32, lam3=1.0,
                   profile=prof)
    with pytest.raises(MeasureError, match="band"):
        convergence_report(traj, 2.0, w)
    with pytest.raises(MeasureError, match="rescaled"):
        convergence_report(dataclasses.replace(
            traj, config=dataclasses.replace(traj.config, form="physical")), 1.0, w)
