"""Grids, the Newton kernel, runs, transforms, the Barenblatt oracle, monitors."""

import dataclasses
import math

import numpy as np
import pytest

from fde import evolution
from fde._kernels import Blocks, newton_step
from fde.evolution import (
    BoundarySpec,
    EvolutionConfig,
    EvolutionError,
    InitialSpec,
    Trajectory,
    barenblatt_oracle,
    build_grid,
    run,
    run_batch,
)
from fde.params import ModelParams, derive_constants
from fde.profile import Profile
from reference import (
    RadialField,
    eval_U_bar_lambda,
    hybrid_switch,
    inversion_residual_check,
    inversion_transform,
    rescale_transform,
)

P32 = ModelParams(n=3, m=0.2, beta=-1.0)
C32 = derive_constants(P32)


# -- grid -----------------------------------------------------------------

def test_grid_three_nodes():
    g = build_grid(math.e, 17)
    assert g.r[0] == 1.0 / math.e
    assert g.r[-1] == math.e
    assert g.r[8] == 1.0


def test_grid_spacing():
    g = build_grid(10.0, 201)
    assert g.ds == pytest.approx(2.0 * math.log(10.0) / 200.0, rel=1e-14)


def test_grid_mirror_symmetry():
    # r[i] * r[N-1-i] == 1 to within one rounding of the reciprocal
    for N in (100, 101):
        g = build_grid(math.e ** 3, N)
        assert np.max(np.abs(g.r * g.r[::-1] - 1.0)) <= 4.0 * np.finfo(float).eps


def test_grid_validation():
    with pytest.raises(EvolutionError, match="R > 1"):
        build_grid(0.9, 32)
    with pytest.raises(EvolutionError, match="N >= 16"):
        build_grid(2.0, 8)


# -- Barenblatt oracle ----------------------------------------------------

def test_barenblatt_values():
    n, m = 3, 0.2
    q = n - 2 - n * m
    cstar = 2 * (n - 1) * q / (1 - m)
    T, k = 2.0, 1.5
    # value at r -> 0, t = 0
    v = barenblatt_oracle(1e-12, 0.0, k, T, P32)
    assert v == pytest.approx(T ** (n / q) * (cstar / k) ** (1 / (1 - m)), rel=1e-9)
    # extinction
    assert np.all(barenblatt_oracle(np.array([0.5, 1.0]), 2.0, k, T, P32) == 0.0)
    assert barenblatt_oracle(1.0, 1.999999, k, T, P32) < 1e-3
    with pytest.raises(EvolutionError, match="k > 0"):
        barenblatt_oracle(1.0, 0.0, -1.0, T, P32)


def test_barenblatt_discrete_residual_refines():
    # apply the discrete spatial operator to exact nodal values and compare
    # with the exact time derivative: residual drops ~4x per grid halving
    n, m = 3, 0.2
    k, T, t = 1.0, 1.0, 0.3
    res = []
    for N in (101, 201, 401):
        g = build_grid(math.e, N)
        einv, ap, am = g.coeffs(n)
        u = barenblatt_oracle(g.r, t, k, T, P32)
        um = u ** m
        L = (n - 1) / m * einv[1:-1] * (ap[1:-1] * (um[2:] - um[1:-1])
                                        - am[1:-1] * (um[1:-1] - um[:-2]))
        dt = 1e-7
        ut = (barenblatt_oracle(g.r, t + dt, k, T, P32)
              - barenblatt_oracle(g.r, t - dt, k, T, P32)) / (2 * dt)
        res.append(np.max(np.abs(L - ut[1:-1])))
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.2)
    assert res[1] / res[2] == pytest.approx(4.0, rel=0.2)


# -- kernel ---------------------------------------------------------------

# Steps computed by a scalar per-node implementation of the same scheme
# (explicit loops, Thomas solve): (iterations, node values).
_GOLDEN_STEPS = {
    "physical": (4, [
        1.8959509240601655, 1.822851327782674, 1.7355330121119763,
        1.6335724274670582, 1.51735347717162, 1.388338792339651,
        1.2492228578901565, 1.1038758489569116, 0.957027756012806,
        0.813723584651862, 0.6786706402734989, 0.5556495608858543,
        0.4471394135373667, 0.3542242993662972, 0.276751003018913,
        0.21364198810849808, 0.1632545766437211]),
    "rescaled_central": (4, [
        2.0091738668048493, 1.8702588612552637, 1.7461192987126963,
        1.6253755324706165, 1.5011229349717212, 1.370111162984669,
        1.2321099092866823, 1.0892568168001304, 0.9453038368256197,
        0.8047749943172029, 0.672128723660623, 0.551060889668682,
        0.4440679513562586, 0.35232045229000586, 0.2758153652210171,
        0.21372988984267152, 0.16492303409184952]),
    "rescaled_mixed": (5, [
        162754.79141900392, 93838.21877635315, 51917.872975136765,
        28533.219108416564, 15659.422749745407, 8450.306124146451,
        4629.295270665639, 2540.4161753150906, 1394.44789755979,
        765.4886864680865, 420.25623921938234, 230.74884008730442,
        126.71591112486065, 69.60031295520415, 38.23927796649754,
        21.01684856186453, 11.556890896469238, 6.359253523670552,
        3.5023849095690096, 1.9312637547899631, 1.066569488895684,
        0.5901562682081908, 0.32728523067430954, 0.18196342211879915,
        0.10143697596153675, 0.056693867194142045, 0.03175981117692652,
        0.017823398634711343, 0.010012388328180096, 0.005624510939384919,
        0.0031557914079920523, 0.001766061186273107, 0.0009842447142478594,
        0.0005453281766594684, 0.0002998174053987698, 0.00016323200906579697,
        8.780297752187678e-05, 4.654206319676547e-05, 2.4239312650775816e-05,
        1.2359694891693493e-05, 6.14421235332821e-06]),
}


def test_newton_step_golden_values():
    m, c0 = 0.2, 10.0
    g = build_grid(math.e, 17)
    einv, ap, am = g.coeffs(3)
    u = barenblatt_oracle(g.r, 0.0, 1.0, 1.0, P32)
    bc = barenblatt_oracle(g.r[[0, -1]], 0.01, 1.0, 1.0, P32)
    cases = {
        "physical": (u, (0.01, bc[0], bc[1], m, c0, einv, ap, am, 0.0, 0.0)),
        "rescaled_central": (u, (0.01, u[0] * 0.99, u[-1] * 0.99, m, c0, einv, ap, am,
                                 -2.5, -1.0 / g.ds)),
    }
    # steep data on a coarse grid: the cell Peclet test picks upwind at the
    # small-s end only
    g = build_grid(math.e ** 2, 41)
    einv, ap, am = g.coeffs(3)
    u = np.exp(-6.0 * g.s)
    b_ds = -1.0 / g.ds
    central = c0 * einv[1:-1] * ap[1:-1] * m * u[2:] ** (m - 1.0) >= -0.5 * b_ds
    assert (int(central.sum()), int((~central).sum())) == (35, 4)
    cases["rescaled_mixed"] = (u, (0.01, u[0], u[-1], m, c0, einv, ap, am, -2.5, b_ds))

    for name, (u0, args) in cases.items():
        U, iters, ok = newton_step(u0.copy(), *args, 1e-12, 50)
        want_iters, want_U = _GOLDEN_STEPS[name]
        assert ok, name
        assert iters == want_iters, name
        np.testing.assert_allclose(U, want_U, rtol=1e-12, atol=0.0, err_msg=name)


# Physical step whose first full Newton update leaves the positive cone, so
# the line search halves it (twice at the first iteration): (iterations, node
# values), recorded with the earlier line search that re-formed U + 1.0*delta.
_GOLDEN_DAMPED = (9, [
    0.02029468552328187, 0.04427372600952466, 0.07747710392846356,
    0.11583676233028076, 0.153357786971497, 0.18367117942392605,
    0.20158386819511503, 0.20423615590491448, 0.19161886282514518,
    0.16639041749285552, 0.13312080630887949, 0.09721101045913787,
    0.06375854741669368, 0.03658683738131557, 0.017597532183055483,
    0.006589202710936398, 0.0016658892332510054])


def test_newton_step_golden_damped():
    g = build_grid(math.e, 17)
    einv, ap, am = g.coeffs(3)
    u = barenblatt_oracle(g.r, 0.0, 1.0, 1.0, P32)
    U, iters, ok = newton_step(u.copy(), 0.1, 0.01 * u[0], 0.01 * u[-1], 0.2, 10.0,
                               einv, ap, am, 0.0, 0.0, 1e-12, 50)
    assert ok
    assert iters == _GOLDEN_DAMPED[0]
    np.testing.assert_allclose(U, _GOLDEN_DAMPED[1], rtol=1e-12, atol=0.0)


def _kernel_cases():
    """The golden steps as name -> (u, arguments from dt to b_ds)."""
    m, c0 = 0.2, 10.0
    g = build_grid(math.e, 17)
    einv, ap, am = g.coeffs(3)
    u = barenblatt_oracle(g.r, 0.0, 1.0, 1.0, P32)
    bc = barenblatt_oracle(g.r[[0, -1]], 0.01, 1.0, 1.0, P32)
    cases = {
        "physical": (u, (0.01, bc[0], bc[1], m, c0, einv, ap, am, 0.0, 0.0)),
        "rescaled_central": (u, (0.01, u[0] * 0.99, u[-1] * 0.99, m, c0, einv, ap, am,
                                 -2.5, -1.0 / g.ds)),
        "damped": (u, (0.1, 0.01 * u[0], 0.01 * u[-1], m, c0, einv, ap, am, 0.0, 0.0)),
    }
    g = build_grid(math.e ** 2, 41)
    einv, ap, am = g.coeffs(3)
    u = np.exp(-6.0 * g.s)
    cases["rescaled_mixed"] = (u, (0.01, u[0], u[-1], m, c0, einv, ap, am, -2.5, -1.0 / g.ds))
    return cases


@pytest.mark.parametrize("name", ["physical", "rescaled_mixed", "damped"])
def test_newton_step_never_writes_its_inputs(name):
    # gtsv may overwrite its arrays and U is updated in place: both must be
    # the kernel's own temporaries, never u, U0 or the grid weights
    u, args = _kernel_cases()[name]
    for U0 in (None, 1.001 * u):
        inputs = (u, U0, *args[5:8])
        before = [None if a is None else a.copy() for a in inputs]
        U, _, ok = newton_step(u, *args, 1e-12, 50, U0)
        for a, b in zip(inputs, before):
            assert b is None or np.array_equal(a, b), name
        assert not any(np.shares_memory(U, a) for a in inputs if a is not None)
        assert ok


def _dense_residual(U, u, dt, bc_lo, bc_hi, m, c0, einv, ap, am, alpha, b_ds):
    """F and its dense Jacobian, node by node from the residual formula of
    fde._kernels, with the central/upwind choice frozen at u."""
    N = U.size
    F, J = np.zeros(N), np.zeros((N, N))
    F[0], F[-1] = U[0] - bc_lo, U[-1] - bc_hi
    J[0, 0] = J[-1, -1] = 1.0
    for i in range(1, N - 1):
        w = c0 * einv[i]
        central = b_ds != 0.0 and w * ap[i] * m * u[i + 1] ** (m - 1.0) >= -0.5 * b_ds
        # weights of U_{i-1}, U_i, U_{i+1} in alpha * U_i + adv_i(U)
        k = (-0.5 * b_ds, alpha, 0.5 * b_ds) if central else (-b_ds, alpha + b_ds, 0.0)
        Um, dUm = U[i - 1:i + 2] ** m, m * U[i - 1:i + 2] ** (m - 1.0)
        diffusion = w * (ap[i] * (Um[2] - Um[1]) - am[i] * (Um[1] - Um[0]))
        F[i] = U[i] - u[i] - dt * (diffusion + k[0] * U[i - 1] + k[1] * U[i] + k[2] * U[i + 1])
        J[i, i - 1] = -dt * (w * am[i] * dUm[0] + k[0])
        J[i, i] = 1.0 - dt * (-w * (ap[i] + am[i]) * dUm[1] + k[1])
        J[i, i + 1] = -dt * (w * ap[i] * dUm[2] + k[2])
    return F, J


@pytest.mark.parametrize("name", ["physical", "rescaled_central", "rescaled_mixed"])
def test_newton_step_solves_the_documented_scheme(name):
    # one dense Newton update of the scheme as written, from the kernel's
    # converged step, is at the tolerance: the kernel's interior system and
    # folded weights discretize the same operator
    tol = 1e-12
    u, args = _kernel_cases()[name]
    U, _, ok = newton_step(u, *args, tol, 50)
    assert ok
    F, J = _dense_residual(U, u, *args)
    d = np.linalg.solve(J, -F)
    assert np.max(np.abs(d) / (1.0 + U)) <= 10.0 * tol


@pytest.mark.parametrize("form", ["physical", "rescaled"])
def test_newton_step_predictor_start(form):
    # started from the extrapolation 2u - u_prev instead of u, Newton
    # converges to the same step
    m, c0, dt = 0.2, 10.0, 0.01
    g = build_grid(math.e, 51)
    einv, ap, am = g.coeffs(3)
    alpha, b_ds = (0.0, 0.0) if form == "physical" else (-2.5, -1.0 / g.ds)
    u_prev = barenblatt_oracle(g.r, 0.0, 1.0, 1.0, P32)
    bc1, bc2 = (barenblatt_oracle(g.r[[0, -1]], t, 1.0, 1.0, P32) for t in (dt, 2 * dt))
    args = (m, c0, einv, ap, am, alpha, b_ds, 1e-12, 50)
    u, _, ok = newton_step(u_prev, dt, bc1[0], bc1[1], *args)
    assert ok
    U0 = 2.0 * u - u_prev
    assert np.all(U0 > 0.0)
    U_pred, _, ok_pred = newton_step(u, dt, bc2[0], bc2[1], *args, U0)
    U_plain, _, ok_plain = newton_step(u, dt, bc2[0], bc2[1], *args, None)
    assert ok_pred and ok_plain
    assert np.max(np.abs(U_pred - U_plain) / (1.0 + np.abs(U_plain))) <= 1e-10


@pytest.mark.parametrize("form", ["physical", "rescaled"])
def test_newton_step_one_iteration_acceptance(form):
    # after 30 steps of dt = 1e-4 the run is smooth in time: from the
    # three-point start 3u - 3u_prev + u_prev2 the first update is below
    # sqrt(1e-3 tol) = 1e-7 and the step returns after one iteration, equal
    # to the solve started from u to rounding; from the linear start the
    # first update exceeds 1e-7, and the step goes on to a second iteration
    m, c0, dt, tol = 0.2, 10.0, 1e-4, 1e-11
    g = build_grid(math.e, 51)
    einv, ap, am = g.coeffs(3)
    alpha, b_ds = (0.0, 0.0) if form == "physical" else (-2.5, -1.0 / g.ds)
    args = (m, c0, einv, ap, am, alpha, b_ds, tol)
    states = [barenblatt_oracle(g.r, 0.0, 1.0, 1.0, P32)]
    for k in range(1, 32):
        bc = barenblatt_oracle(g.r[[0, -1]], k * dt, 1.0, 1.0, P32)
        U, _, ok = newton_step(states[-1], dt, bc[0], bc[1], *args, 50)
        assert ok
        states.append(U)
    u, u_prev, u_prev2 = states[-1], states[-2], states[-3]
    bc = barenblatt_oracle(g.r[[0, -1]], 32 * dt, 1.0, 1.0, P32)

    def first_update(U0):
        U1 = newton_step(u, dt, bc[0], bc[1], *args, 1, U0)[0]
        start = U0.copy()
        start[[0, -1]] = bc
        return float(np.max(np.abs(U1 - start) / (1.0 + U1)))

    quad, lin = 3.0 * (u - u_prev) + u_prev2, 2.0 * u - u_prev
    U_quad, iters, ok = newton_step(u, dt, bc[0], bc[1], *args, 50, quad)
    assert ok and iters == 1
    U_plain, iters_plain, ok = newton_step(u, dt, bc[0], bc[1], *args, 50, None)
    assert ok and iters_plain >= 2
    assert np.max(np.abs(U_quad - U_plain) / np.abs(U_plain)) <= 1e-14
    assert first_update(quad) <= 1e-7 < first_update(lin)
    _, iters, ok = newton_step(u, dt, bc[0], bc[1], *args, 50, lin)
    assert ok and iters >= 2


def test_newton_step_stacked_blocks_equal_separate_solves():
    # four runs stacked end to end solve as four separate calls, bit for
    # bit.  The first and third take the damped golden step, from u and from
    # a predictor; the second starts from its own solution and converges at
    # once, so it is frozen inside the span of those still iterating.  The
    # last starts from u a hair off the steady state: its first update is
    # small enough for the first-iteration test, which it may pass only
    # from a predictor, so it takes a second iteration.
    u, args = _kernel_cases()["damped"]
    dt, bc_lo, bc_hi, m, c0, einv, ap, am = args[:8]
    step = (dt, bc_lo, bc_hi, m, c0, einv, ap, am, 0.0, 0.0, 1e-12, 50)
    steady = u
    for _ in range(400):
        steady = newton_step(steady, *step)[0]
    olds = [u, u, u, steady * (1.0 + 1e-9 * np.sin(np.arange(u.size)))]
    starts = [None, newton_step(u, *step)[0], 1.001 * u, None]
    ref = [newton_step(old, *step, U0) for old, U0 in zip(olds, starts)]
    assert all(ok for _, _, ok in ref)
    stack = Blocks([u.size] * 4)
    stack.from_pred = [U0 is not None for U0 in starts]
    U, iters, ok = newton_step(
        np.concatenate(olds), *step[:5], *(np.tile(w, 4) for w in (einv, ap, am)), *step[8:],
        np.concatenate([old if U0 is None else U0 for old, U0 in zip(olds, starts)]),
        blocks=stack)
    assert ok
    assert stack.iters == [i for _, i, _ in ref]
    assert stack.iters[1] < min(stack.iters[0], stack.iters[2])
    assert stack.iters[3] == 2
    assert iters == max(stack.iters)
    for (U_ref, _, _), s, e in zip(ref, stack.starts, stack.ends):
        assert U[s:e].tobytes() == U_ref.tobytes()


@pytest.mark.parametrize("n,m,R,N", [(3, 0.2, math.e ** 2, 41), (4, 0.3, math.e, 101),
                                     (5, 0.4, math.e ** 3, 61)])
def test_record_switch_is_the_defining_expression(n, m, R, N):
    # the record answers the central/upwind choice by comparing u[2:] with a
    # threshold u_crit built once; at and around u_crit, where the two forms
    # round differently, it must still pick what the expression picks
    g = build_grid(R, N)
    einv, ap, am = g.coeffs(n)
    c0, b_ds = (n - 1) / m, -1.0 / g.ds
    a, t = c0 * einv[1:-1] * ap[1:-1], -0.5 * b_ds
    crit = (t / (a * m)) ** (1.0 / (m - 1.0))
    record = Blocks([N])
    u = np.exp(-g.s)
    newton_step(u, 1e-3, u[0], u[-1], m, c0, einv, ap, am, -2.5, b_ds, 1e-12, 50,
                blocks=record)
    sign = np.where(np.arange(N - 2) % 2, 1.0, -1.0)  # rows alternate below and above
    # 0 to 8 ulps, then 1e-15 to 1e-11 relative (the last outside the band)
    offsets = ([k * np.spacing(crit) for k in range(9)]
               + [rel * crit for rel in 10.0 ** -np.arange(15, 10, -1)])
    for off in offsets:
        for flip in (1.0, -1.0):
            u = np.concatenate([[1.0, 1.0], crit + flip * sign * off])
            want = hybrid_switch(u, m, c0, einv, ap, b_ds)
            assert np.array_equal(record.switch(u), want), (off[0] / crit[0], flip)
    assert 0 < np.count_nonzero(want) < want.size  # both choices


def test_record_reused_across_dt_and_pattern_changes():
    # one record carried through steps that change dt, then the switch
    # pattern, then both, gives every step as a fresh record does
    g = build_grid(math.e ** 2, 41)
    einv, ap, am = g.coeffs(3)
    m, c0, b_ds = 0.2, 10.0, -1.0 / g.ds
    steep, mild = np.exp(-6.0 * g.s), np.exp(-1.0 * g.s)
    patterns = {hybrid_switch(u, m, c0, einv, ap, b_ds).tobytes() for u in (steep, mild)}
    assert len(patterns) == 2
    record = Blocks([g.N])
    for u, dt in [(steep, 0.01), (steep, 0.005), (mild, 0.005), (steep, 0.005), (mild, 0.01),
                  (steep, 0.01)]:
        args = (u, dt, u[0], u[-1], m, c0, einv, ap, am, -2.5, b_ds, 1e-12, 50)
        U, iters, ok = newton_step(*args, blocks=record)
        U_fresh, iters_fresh, ok_fresh = newton_step(*args)
        assert (U.tobytes(), iters, ok) == (U_fresh.tobytes(), iters_fresh, ok_fresh)


def test_predictor_start_only_after_a_repeated_step(monkeypatch):
    # a step starts from 3u - 3u_prev + u_prev2 when it repeats the dt of
    # the last two accepted steps, from 2u - u_prev when it repeats only the
    # last, and from u otherwise: after a rejection, a snapshot-clipped step
    # or the first step.  A snapshot one ulp short of a step's end does not
    # clip it: the step lands on it with dt and keeps the quadratic start.
    dt = 2.0 ** -8  # exact in binary, so the step sequence is exact
    snaps = [0.0, 5.25 * dt, np.nextafter(9.25 * dt, 0.0), 16 * dt]
    kernel = evolution.newton_step
    log = []
    states = []  # the accepted states, in order

    def start(U0):
        if U0 is None:
            return "none"
        lin = 2.0 * states[-1] - states[-2]
        if np.allclose(U0, lin, rtol=1e-13, atol=0.0):
            return "linear"
        quad = 3.0 * states[-1] - 3.0 * states[-2] + states[-3]
        assert np.allclose(U0, quad, rtol=1e-13, atol=0.0)
        return "quadratic"

    def recorded(u, dt_try, *args, **kwargs):
        if not states or u is not states[-1]:
            states.append(u)
        log.append((dt_try, start(args[-1])))
        if len(log) == 3:  # the third solve reports non-convergence
            return u, 0, False
        return kernel(u, dt_try, *args, **kwargs)

    monkeypatch.setattr(evolution, "newton_step", recorded)
    traj = run(EvolutionConfig(
        grid=build_grid(math.e, 51), params=P32, form="physical",
        initial=InitialSpec(kind="barenblatt", k=1.0, T=1.0),
        boundary=BoundarySpec(kind="barenblatt", k=1.0, T=1.0),
        dt=dt, snapshot_times=snaps))
    assert traj.rejections == 1
    assert np.array_equal(traj.times, snaps)
    # t/dt: 0, 1, 2 (rejected), 2 at dt/2, 2.5, 3.5, 4.5 clipped to the
    # snapshot at 5.25, 5.25, 6.25, 7.25, 8.25 landing on the snapshot
    # just short of 9.25, then 9.25 on to 15.25 and a clip to 16
    assert log[:12] == [(dt, "none"), (dt, "linear"), (dt, "quadratic"), (dt / 2, "none"),
                        (dt, "none"), (dt, "linear"), (0.75 * dt, "none"), (dt, "none"),
                        (dt, "linear"), (dt, "quadratic"), (dt, "quadratic"),
                        (dt, "quadratic")]
    assert log[12:17] == [(dt, "quadratic")] * 5
    assert log[17:] == [(16 * dt - (snaps[2] + 6 * dt), "none")]


def test_trunc_time_is_the_linear_extrapolation_error(monkeypatch):
    # trunc_time, which scales the Aronson-Benilan and ordering slacks, is
    # max |U - (2u - u_prev)| / dt over the accepted steps that repeat the
    # last dt, whatever start the Newton solve was given.  The ninth step,
    # which starts from 3u - 3u_prev + u_prev2, is disturbed so that the
    # maximum falls where the two extrapolations differ.
    dt = 2.0 ** -8
    kernel = evolution.newton_step
    accepted = []  # (u, dt, U) of each accepted step

    def recorded(u, dt_try, *args, **kwargs):
        U, iters, ok = kernel(u, dt_try, *args, **kwargs)
        if len(accepted) == 8:
            U = U * (1.0 + 1e-4)
        accepted.append((u, dt_try, U))
        return U, iters, ok

    monkeypatch.setattr(evolution, "newton_step", recorded)
    traj = run(EvolutionConfig(
        grid=build_grid(math.e, 51), params=P32, form="physical",
        initial=InitialSpec(kind="barenblatt", k=1.0, T=1.0),
        boundary=BoundarySpec(kind="barenblatt", k=1.0, T=1.0),
        dt=dt, snapshot_times=[0.0, 5.25 * dt, 16 * dt]), trunc=True)
    assert traj.rejections == 0
    errors = {}  # accepted step -> its linear-extrapolation error / dt
    for k in range(1, len(accepted)):
        u, h, U = accepted[k]
        if h == accepted[k - 1][1]:
            errors[k] = float(np.max(np.abs(U - (2.0 * u - accepted[k - 1][0])))) / h
    worst = max(errors, key=errors.get)
    # the worst step repeats the dt of the two before it: its start was quadratic
    assert accepted[worst][1] == accepted[worst - 1][1] == accepted[worst - 2][1]
    assert traj.trunc_time == errors[worst]


def test_trunc_time_is_kept_only_where_read():
    # without trunc or monitors a run reduces no trunc_time; the steps, and
    # so the snapshots, are the same bit for bit either way
    cfg = EvolutionConfig(
        grid=build_grid(math.e, 51), params=P32, form="physical",
        initial=InitialSpec(kind="barenblatt", k=1.0, T=1.0),
        boundary=BoundarySpec(kind="barenblatt", k=1.0, T=1.0),
        dt=2.0 ** -8, snapshot_times=[0.0, 5.25 * 2.0 ** -8, 16 * 2.0 ** -8])
    lean, kept = run(cfg), run(cfg, trunc=True)
    assert lean.trunc_time is None
    assert kept.trunc_time > 0.0
    assert np.array_equal(lean.fields, kept.fields)
    assert lean.newton_iters_total == kept.newton_iters_total


# -- physical stepping ----------------------------------------------------

def test_constant_steady_state():
    # constant data with matching constant boundary: Delta of a constant is 0
    g = build_grid(math.e, 51)
    traj = run(EvolutionConfig(
        grid=g, params=P32, form="physical",
        initial=InitialSpec(kind="constant", value=3.7),
        boundary=BoundarySpec(kind="constant", value=3.7),
        dt=0.01, snapshot_times=[0.0, 0.01]))
    np.testing.assert_allclose(traj.fields[-1], 3.7, rtol=1e-12)
    assert traj.times[-1] == pytest.approx(0.01)


def test_stationary_U_lambda_one_step(profile_cache):
    # with exact initial and boundary data, one step tracks U_lambda to
    # local truncation accuracy, shrinking with resolution
    prof = profile_cache(3, 0.2)
    errs = []
    for N, dt in ((101, 4e-4), (201, 1e-4)):
        g = build_grid(math.e, N)
        traj = run(EvolutionConfig(
            grid=g, params=P32, form="physical",
            initial=InitialSpec(kind="f_lambda", lam=5.0),
            boundary=BoundarySpec(kind="U_lambda", lam=5.0),
            dt=dt, snapshot_times=[0.0, dt], profile=prof))
        exact = prof.eval_U_lambda(5.0, g.r, dt)
        errs.append(np.max(np.abs(traj.fields[-1] - exact)))
    assert errs[0] < 1e-6
    assert errs[1] < errs[0] / 3.0


def test_barenblatt_tracking_refinement():
    # L_inf error at a fixed horizon drops ~4x when ds halves (dt ~ ds^2)
    errs = []
    for N, dt in ((101, 8e-3), (201, 2e-3)):
        g = build_grid(math.e, N)
        cfg = EvolutionConfig(
            grid=g, params=P32, form="physical",
            initial=InitialSpec(kind="barenblatt", k=1.0, T=1.0),
            boundary=BoundarySpec(kind="barenblatt", k=1.0, T=1.0),
            dt=dt, snapshot_times=np.array([0.0, 0.25]))
        traj = run(cfg)
        exact = barenblatt_oracle(g.r, traj.times[-1], 1.0, 1.0, P32)
        errs.append(np.max(np.abs(traj.fields[-1] - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


# -- rescaled stepping ----------------------------------------------------

def test_rescaled_steady_profile_drift(profile_cache):
    # f_lambda clamped at both ends is steady for the discrete operator up
    # to truncation; drift per unit time stays below C * ds
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 401)
    f = prof.eval_f_lambda(1.0, g.r)
    cfg = EvolutionConfig(
        grid=g, params=P32, form="rescaled",
        initial=InitialSpec(kind="f_lambda", lam=1.0),
        boundary=BoundarySpec(kind="f_lambda", lam=1.0),
        dt=2e-3, snapshot_times=np.array([0.0, 1.0]), profile=prof)
    traj = run(cfg)
    drift = np.max(np.abs(traj.fields[-1] - f) / f)
    assert drift <= g.ds  # second-order advection leaves ample margin


def test_rescaled_degenerate_alpha_beta_rejected():
    with pytest.raises(Exception, match="beta"):
        ModelParams(n=3, m=0.2, beta=0.0)


def test_physical_vs_rescaled_consistency(profile_cache):
    # evolving both forms from the same data and comparing through the
    # exact change of variables agrees within truncation
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 401)
    horizon = 0.2
    cfg_p = EvolutionConfig(
        grid=g, params=P32, form="physical",
        initial=InitialSpec(kind="f_lambda", lam=1.0),
        boundary=BoundarySpec(kind="U_lambda", lam=1.0),
        dt=5e-4, snapshot_times=np.array([0.0, horizon]),
        profile=prof)
    traj_p = run(cfg_p)
    cfg_r = EvolutionConfig(
        grid=g, params=P32, form="rescaled",
        initial=InitialSpec(kind="f_lambda", lam=1.0),
        boundary=BoundarySpec(kind="f_lambda", lam=1.0),
        dt=5e-4, snapshot_times=np.array([0.0, horizon]),
        profile=prof)
    traj_r = run(cfg_r)
    phys = RadialField(u=traj_p.fields[-1], t=horizon, form="physical")
    resc, mask = rescale_transform(phys, g, C32)
    diff = np.abs(resc.u[mask] - traj_r.fields[-1][mask])
    scale = np.abs(traj_r.fields[-1][mask])
    assert np.max(diff / scale) < 5.0 * g.ds


# -- transforms -----------------------------------------------------------

def test_rescale_transform_identity_at_t0(profile_cache):
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e, 51)
    u = prof.eval_f_lambda(1.0, g.r)
    f = RadialField(u=u, t=0.0, form="physical")
    out, mask = rescale_transform(f, g, C32)
    assert np.all(mask)
    np.testing.assert_allclose(out.u, u, rtol=1e-12)


def test_rescale_transform_exact_U_lambda(profile_cache):
    # applied to exact U_lambda data the transform returns f_lambda
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 201)
    t = 0.5
    u = prof.eval_U_lambda(1.0, g.r, t)
    f = RadialField(u=u, t=t, form="physical")
    out, mask = rescale_transform(f, g, C32)
    fl = prof.eval_f_lambda(1.0, g.r)
    assert mask.sum() < g.N  # some nodes are missing, as documented
    np.testing.assert_allclose(out.u[mask], fl[mask], rtol=1e-6)
    assert np.all(np.isnan(out.u[~mask]))


def test_rescale_round_trip(profile_cache):
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 201)
    u = prof.eval_f_lambda(1.0, g.r)
    f = RadialField(u=u, t=0.35, form="rescaled")
    back, mask1 = rescale_transform(f, g, C32, inverse=True)
    fwd, mask2 = rescale_transform(
        RadialField(u=np.where(np.isnan(back.u), 1.0, back.u), t=0.35,
                    form="physical"), g, C32)
    both = mask1 & mask2 & ~np.isnan(back.u)
    # two pchip resamples: error ~ ds^4 * (log u)'''' per pass
    np.testing.assert_allclose(fwd.u[both], u[both], rtol=1e-5)


def test_inversion_involution(profile_cache):
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 101)
    u = prof.eval_f_lambda(1.0, g.r)
    f = RadialField(u=u, t=0.0, form="physical")
    bar = inversion_transform(f, g, P32)
    double = inversion_transform(bar, g, P32)
    np.testing.assert_allclose(double.u, u, rtol=1e-12)


def test_inversion_maps_U_to_U_bar(profile_cache):
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 101)
    t = 0.3
    u = prof.eval_U_lambda(1.5, g.r, t)
    bar = inversion_transform(RadialField(u=u, t=t, form="physical"), g, P32)
    expect = eval_U_bar_lambda(prof, 1.5, g.r, t)
    np.testing.assert_allclose(bar.u, expect, rtol=1e-9)


def test_inversion_rejects_asymmetric_grid():
    g = build_grid(math.e, 33)
    bad = g.__class__(s=g.s, r=g.r + 1e-3)
    with pytest.raises(EvolutionError, match="symmetric"):
        inversion_transform(RadialField(u=np.ones(33), t=0.0, form="physical"),
                            bad, P32)


def test_inversion_residual_refines():
    res = []
    for N, dt in ((101, 4e-3), (201, 1e-3)):
        g = build_grid(math.e, N)
        cfg = EvolutionConfig(
            grid=g, params=P32, form="physical",
            initial=InitialSpec(kind="barenblatt", k=1.0, T=1.0),
            boundary=BoundarySpec(kind="barenblatt", k=1.0, T=1.0),
            dt=dt, snapshot_times=np.linspace(0.0, 0.1, 6))
        traj = run(cfg)
        res.append(inversion_residual_check(traj, g, P32)["max_scaled_residual"])
    assert res[1] < res[0]


# -- run loop and monitors --------------------------------------------------

def test_run_steps_on_its_snapshot_grid(profile_cache, monkeypatch):
    # dt = 5e-3 is not exact in binary, so the summed step lengths miss the
    # snapshot times by rounding; each step still solves with dt, and the
    # steps that end near a snapshot end on it
    prof = profile_cache(3, 0.2)
    kernel = evolution.newton_step
    dts = []

    def recorded(u, dt_try, *args, **kwargs):
        dts.append(dt_try)
        return kernel(u, dt_try, *args, **kwargs)

    monkeypatch.setattr(evolution, "newton_step", recorded)
    snaps = np.linspace(0.0, 5.0, 11)
    traj = run(EvolutionConfig(
        grid=build_grid(math.e, 33), params=P32, form="rescaled",
        initial=InitialSpec(kind="f_lambda", lam=1.0),
        boundary=BoundarySpec(kind="f_lambda", lam=1.0),
        dt=5e-3, snapshot_times=snaps, profile=prof))
    assert traj.rejections == 0
    assert dts == [5e-3] * 1000
    assert traj.times.tobytes() == snaps.tobytes()
    assert traj.fields.shape == (11, 33)


def test_run_snapshots_and_monitors_exact_solution(profile_cache):
    # u0 = f_lambda, boundary U_lambda: exact solution; both monitors pass
    # with tiny slack and the snapshot clock is strictly increasing
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e, 201)
    cfg = EvolutionConfig(
        grid=g, params=P32, form="physical",
        initial=InitialSpec(kind="f_lambda", lam=5.0),
        boundary=BoundarySpec(kind="U_lambda", lam=5.0),
        dt=1e-4, snapshot_times=np.linspace(0.0, 0.02, 5),
        profile=prof, monitors=True, lam1=5.0, lam2=5.0)
    traj = run(cfg)
    assert np.all(np.diff(traj.times) > 0)
    ab = traj.monitors["aronson_benilan"]
    om = traj.monitors["ordering"]
    assert ab["ok"] and ab["max_excess"] <= 1e-8
    assert om["ok"]
    # degenerate band lam1 = lam2: both gaps are the solver deviation
    assert om["gap_lo_min"] >= -1e-6 and om["gap_hi_min"] >= -1e-6


def test_static_band_and_boundary_evaluated_once(profile_cache, monkeypatch):
    # rescaled form with f_lambda data: band and boundary do not depend on t,
    # so the profile is looked up as often for 100 steps as for 10, while the
    # band is still compared at every accepted step
    prof = profile_cache(3, 0.2)
    calls = []
    eval_g_log = Profile.eval_g_log

    def counted(self, r, **kw):
        calls.append(np.size(r))
        return eval_g_log(self, r, **kw)

    monkeypatch.setattr(Profile, "eval_g_log", counted)
    dt = 2.0 ** -8  # exact in binary, so the step count is exact
    counts = []
    for steps in (10, 100):
        calls.clear()
        traj = run(EvolutionConfig(
            grid=build_grid(math.e, 101), params=P32, form="rescaled",
            initial=InitialSpec(kind="f_lambda", lam=1.0),
            boundary=BoundarySpec(kind="f_lambda", lam=1.0),
            dt=dt, snapshot_times=[0.0, steps * dt],
            profile=prof, monitors=True, lam1=2.0, lam2=0.5))
        assert traj.rejections == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


_BOUNDARIES = {
    "U_lambda": BoundarySpec(kind="U_lambda", lam=2.0),
    "f_lambda": BoundarySpec(kind="f_lambda", lam=2.0),
    "barenblatt": BoundarySpec(kind="barenblatt", k=1.0, T=1.0),
    "constant": BoundarySpec(kind="constant", value=3.7),
}


@pytest.mark.parametrize("kind,flaky,steps",
                         [(kind, flaky, 50) for kind in _BOUNDARIES for flaky in (False, True)]
                         + [("U_lambda", False, evolution._REPLAY + 100)])
def test_boundary_table_equals_per_step_lookup(profile_cache, monkeypatch, kind, flaky, steps):
    # a run reads its boundary data from a table filled for the steps ahead
    # in one call.  It gives, bit for bit, the Trajectory of the same run
    # with a one-step table, which looks each step up on its own: also when
    # a rejection leaves the replayed schedule, and when the run outlasts
    # the table.  dt = 1e-3 is not exact in binary, so snapshots clip steps.
    prof = profile_cache(3, 0.2)
    dt = 1e-3
    initial = (InitialSpec(kind="barenblatt", k=1.0, T=1.0) if kind == "barenblatt"
               else InitialSpec(kind="f_lambda", lam=2.0))
    cfg = EvolutionConfig(
        grid=build_grid(math.e, 51), params=P32, form="physical",
        initial=initial, boundary=_BOUNDARIES[kind], dt=dt,
        snapshot_times=np.linspace(0.0, steps * dt, 4), profile=prof)
    kernel = evolution.newton_step
    solves = []

    def flaky_step(u, *args, **kwargs):
        # the third solve reports non-convergence
        solves.append(args[0])
        if flaky and len(solves) == 3:
            return u, 0, False
        return kernel(u, *args, **kwargs)

    values = BoundarySpec.values
    calls = []

    def counted(self, times, *args):
        calls.append(len(times))
        return values(self, times, *args)

    monkeypatch.setattr(evolution, "newton_step", flaky_step)
    monkeypatch.setattr(BoundarySpec, "values", counted)
    limit = evolution._REPLAY
    traj = run(cfg)
    n_calls, n_solves = len(calls), len(solves)
    monkeypatch.setattr(evolution, "_REPLAY", 1)
    solves.clear()
    ref = run(cfg)

    assert traj.rejections == ref.rejections == int(flaky)
    for f in dataclasses.fields(Trajectory):
        if f.name != "config":
            assert np.array_equal(getattr(traj, f.name), getattr(ref, f.name)), f.name
    if not flaky:
        assert n_solves >= steps
        assert n_calls <= 1 + math.ceil(n_solves / limit)


def _same_runs(batch, separate):
    """The trajectories agree bit for bit in every field but config."""
    assert len(batch) == len(separate)
    for a, b in zip(batch, separate):
        for f in dataclasses.fields(Trajectory):
            if f.name != "config":
                x, y = getattr(a, f.name), getattr(b, f.name)
                if isinstance(x, np.ndarray):
                    x, y = x.tobytes(), y.tobytes()
                assert x == y, f.name
        assert a.config is b.config


def _contract_runs(prof, sizes=(201, 101), steps=40):
    """Contract's four runs: f_lam1 and f_lam2 under U_lam1 data, at each size."""
    boundary = BoundarySpec(kind="U_lambda", lam=2.0)
    return [EvolutionConfig(grid=build_grid(math.e ** 5, N), params=P32, form="physical",
                            initial=InitialSpec(kind="f_lambda", lam=lam), boundary=boundary,
                            dt=2e-3, snapshot_times=np.linspace(0.0, steps * 2e-3, 5),
                            profile=prof)
            for N in sizes for lam in (2.0, 1.0)]


def _counted_kernel(monkeypatch):
    """The number of blocks of each newton_step call the runs make."""
    kernel, calls = evolution.newton_step, []

    def counted(*args, **kwargs):
        calls.append(len(kwargs["blocks"].starts))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(evolution, "newton_step", counted)
    return calls


def test_batch_equals_separate_runs(profile_cache, monkeypatch):
    # contract's runs stacked in one system give each run's Trajectory bit
    # for bit, with one kernel call per step; the f_lam2 runs start off the
    # boundary data's orbit and take more Newton iterations than the others
    cfgs = _contract_runs(profile_cache(3, 0.2))
    calls = _counted_kernel(monkeypatch)
    batch = run_batch(cfgs)
    assert calls == [4] * 40
    calls.clear()
    separate = [run(cfg) for cfg in cfgs]
    assert calls == [1] * 160
    _same_runs(batch, separate)
    iters = [traj.newton_iters_total for traj in batch]
    assert iters[0] < iters[1] and iters[2] < iters[3]
    # evolve asks for trunc_time; runs with monitors keep theirs in a batch too
    cfgs[1] = dataclasses.replace(cfgs[1], monitors=True, lam1=2.0, lam2=1.0)
    _same_runs(run_batch(cfgs, trunc=True), [run(cfg, trunc=True) for cfg in cfgs])
    _same_runs(run_batch(cfgs), [run(cfg) for cfg in cfgs])


def test_batch_with_a_rejecting_run_equals_separate_runs(monkeypatch):
    # the run from 1 towards boundary data 1e-30 rejects steps; the batch is
    # abandoned and each run goes again alone, rejections and all
    boundary = BoundarySpec(kind="constant", value=1e-30)
    cfgs = [EvolutionConfig(grid=build_grid(math.e, N), params=P32, form="physical",
                            initial=InitialSpec(kind="constant", value=value),
                            boundary=boundary, dt=0.1, snapshot_times=np.array([0.0, 0.4]))
            for N, value in ((51, 1e-30), (33, 1.0), (51, 2e-30))]
    calls = _counted_kernel(monkeypatch)
    batch = run_batch(cfgs)
    stacked = calls.index(1)
    assert stacked > 0 and set(calls[:stacked]) == {3} and set(calls[stacked:]) == {1}
    separate = [run(cfg) for cfg in cfgs]
    _same_runs(batch, separate)
    assert [traj.rejections for traj in batch] == [0, 3, 0]


def test_batch_error_equals_the_separate_runs_error(profile_cache):
    # a boundary value that is not positive raises in the batch; the runs
    # then go one at a time and raise run's own error, at the same run
    boundary = BoundarySpec(kind="barenblatt", k=1.0, T=0.05)
    cfgs = [EvolutionConfig(grid=build_grid(math.e, N), params=P32, form="physical",
                            initial=InitialSpec(kind="barenblatt", k=1.0, T=0.05),
                            boundary=boundary, dt=1e-2, snapshot_times=np.array([0.0, 0.1]))
            for N in (51, 33)]
    with pytest.raises(EvolutionError) as separate:
        for cfg in cfgs:
            run(cfg)
    with pytest.raises(EvolutionError) as batch:
        run_batch(cfgs)
    assert "boundary data must be finite and > 0" in str(separate.value)
    assert str(batch.value) == str(separate.value)


def test_batch_runs_that_share_no_clock_step_alone(profile_cache, monkeypatch):
    # runs with different dt, or rescaled runs on different grids, cannot
    # share a stacked system: each is stepped alone
    cfgs = _contract_runs(profile_cache(3, 0.2), sizes=(101,), steps=10)
    cfgs[1] = dataclasses.replace(cfgs[1], dt=1e-3)
    calls = _counted_kernel(monkeypatch)
    _same_runs(run_batch(cfgs), [run(cfg) for cfg in cfgs])
    assert set(calls) == {1}


def test_blend_run_ordering(profile_cache):
    # midpoint blend initial data stays inside the U band for the whole run
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 201)
    cfg = EvolutionConfig(
        grid=g, params=P32, form="physical",
        initial=InitialSpec(kind="blend", lam1=2.0, lam2=1.0, theta=0.5),
        boundary=BoundarySpec(kind="U_lambda", lam=2.0),
        dt=1e-3, snapshot_times=np.array([0.0, 0.3]),
        profile=prof, monitors=True, lam1=2.0, lam2=1.0)
    traj = run(cfg)
    om = traj.monitors["ordering"]
    assert om["ok"], om
    ab = traj.monitors["aronson_benilan"]
    assert ab["ok"], ab


def test_discrete_comparison_principle(profile_cache):
    # ordered initial data with identical boundary stays ordered node-wise
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e ** 2, 201)
    bc = BoundarySpec(kind="U_lambda", lam=2.0)
    runs = []
    for init in (InitialSpec(kind="f_lambda", lam=2.0),
                 InitialSpec(kind="blend", lam1=2.0, lam2=1.0, theta=0.5),
                 InitialSpec(kind="f_lambda", lam=1.0)):
        cfg = EvolutionConfig(grid=g, params=P32, form="physical", initial=init,
                              boundary=bc, dt=1e-3,
                              snapshot_times=np.linspace(0.0, 0.2, 5), profile=prof)
        runs.append(run(cfg))
    for k in range(5):
        assert np.all(runs[0].fields[k] <= runs[1].fields[k] + 1e-9)
        assert np.all(runs[1].fields[k] <= runs[2].fields[k] + 1e-9)


def test_positivity_preserved():
    # Barenblatt close to extinction stresses positivity; every accepted
    # step must stay positive
    g = build_grid(math.e, 51)
    cfg = EvolutionConfig(
        grid=g, params=P32, form="physical",
        initial=InitialSpec(kind="barenblatt", k=1.0, T=0.3),
        boundary=BoundarySpec(kind="barenblatt", k=1.0, T=0.3),
        dt=5e-3, snapshot_times=np.array([0.0, 0.28]))
    traj = run(cfg)
    assert np.all(traj.fields[-1] > 0.0)


def test_config_validation(profile_cache):
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e, 51)
    with pytest.raises(EvolutionError, match="form"):
        EvolutionConfig(grid=g, params=P32, form="both",
                        initial=InitialSpec(kind="constant", value=1.0),
                        boundary=BoundarySpec(kind="constant", value=1.0),
                        dt=0.1, snapshot_times=np.array([0.0, 1.0]))
    for snaps in ([0.5, 1.0], [0.0], [0.0, 1.0, 1.0], [0.0, math.inf], [0.0, math.nan]):
        with pytest.raises(EvolutionError, match="snapshot"):
            EvolutionConfig(grid=g, params=P32, form="physical",
                            initial=InitialSpec(kind="constant", value=1.0),
                            boundary=BoundarySpec(kind="constant", value=1.0),
                            dt=0.1, snapshot_times=np.array(snaps))
    cfg = EvolutionConfig(grid=g, params=P32, form="physical",
                          initial=InitialSpec(kind="f_lambda", lam=5.0),
                          boundary=BoundarySpec(kind="U_lambda", lam=5.0),
                          dt=0.1, snapshot_times=np.array([0.0, 1.0]),
                          profile=prof, monitors=True)
    with pytest.raises(EvolutionError, match="lam1"):
        run(cfg)
    # initial data outside the ordering band
    cfg2 = EvolutionConfig(grid=g, params=P32, form="physical",
                           initial=InitialSpec(kind="f_lambda", lam=0.5),
                           boundary=BoundarySpec(kind="U_lambda", lam=2.0),
                           dt=0.1, snapshot_times=np.array([0.0, 1.0]),
                           profile=prof, monitors=True, lam1=2.0, lam2=1.0)
    with pytest.raises(EvolutionError, match="ordering band"):
        run(cfg2)


def test_step_underflow_message(monkeypatch):
    # a step that never converges is halved down to underflow; the message
    # prints plain floats, also for the snapshot time read from an array
    monkeypatch.setattr(evolution, "newton_step", lambda u, *args, **kwargs: (u, 1, False))
    cfg = EvolutionConfig(grid=build_grid(math.e, 33), params=P32, form="physical",
                          initial=InitialSpec(kind="constant", value=1.0),
                          boundary=BoundarySpec(kind="constant", value=1.0),
                          dt=0.1, snapshot_times=np.array([0.0, 1.0]))
    with pytest.raises(EvolutionError) as e:
        run(cfg)
    assert str(e.value) == "time step underflow at t=0.0; last good snapshot at t=0.0"


@pytest.mark.parametrize("dt,horizon,err", [
    (1e-9, 1.0, "dt=1e-09 takes 1e+09 steps to t=1.0"),
    # t + dt == t here: a loop that ran would never advance
    (1e-300, 0.1, "dt=1e-300 takes 1e+299 steps to t=0.1"),
    # one step over the limit; dt and t are exact binary fractions
    (2.0 ** -20, (10 ** 6 + 1) * 2.0 ** -20,
     "dt=9.5367431640625e-07 takes 1e+06 steps to t=0.9536752700805664"),
], ids=["1e-9", "1e-300", "one_over"])
def test_config_rejects_more_steps_than_the_budget(dt, horizon, err):
    # building the config is enough: no over-budget run is ever started
    with pytest.raises(EvolutionError) as e:
        EvolutionConfig(grid=build_grid(math.e, 33), params=P32, form="physical",
                        initial=InitialSpec(kind="constant", value=1.0),
                        boundary=BoundarySpec(kind="constant", value=1.0),
                        dt=dt, snapshot_times=np.array([0.0, horizon]))
    assert str(e.value) == err + ", over the limit of 1000000"


def test_field_validation():
    with pytest.raises(EvolutionError, match="positive"):
        RadialField(u=np.array([1.0, -2.0, 1.0]), t=0.0, form="physical")
    with pytest.raises(EvolutionError, match="finite"):
        RadialField(u=np.full(3, np.nan), t=0.0, form="physical")


def test_table_initial_data(profile_cache):
    # a user table is pchip-resampled onto the grid in log-log coordinates
    prof = profile_cache(3, 0.2)
    g = build_grid(math.e, 101)
    r_tab = np.geomspace(1.0 / math.e, math.e, 401)
    u_tab = prof.eval_f_lambda(1.0, r_tab)
    init = InitialSpec(kind="table", table_r=r_tab, table_u=u_tab)
    u0 = init.values(g, None, P32)
    np.testing.assert_allclose(u0, prof.eval_f_lambda(1.0, g.r), rtol=1e-8)
