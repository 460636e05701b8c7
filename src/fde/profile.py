"""Self-similar profile construction.

The radial profile f blows up at the origin like (log(1/r)/r^2)^{1/(1-m)} and
decays like r^{-(n-2)/m} at infinity.  Working with f directly is hopeless in
float64, so everything is computed through its inversion

    g(r) = r^{-(n-2)/m} f(1/r),

which is a bounded, strictly decreasing function with g(0) = eta.  The
pipeline is:

1. ``local_series_start``   -- one-term local solution near r = 0 that
   absorbs the r^{-delta1} derivative singularity,
2. ``integrate_inner``      -- adaptive Dormand-Prince 5(4) on (g, g_r) up to
   r_switch: a loop in Python floats (``_rk45``) with scipy RK45's tableau
   and step control, its sums taken in a fixed order, sampled on a fixed
   log-spaced grid in one vectorised pass,
3. ``integrate_far_field``  -- switch to s = log r, step scipy's LSODA on the
   autonomous equation for w~(s) = r^{(n-2-nm)/m} g^{1-m} up to s_max
   (default 200, i.e. radii up to e^200, representable only through s), or
   to a caller's ``reach`` on the same node lattice, keeping each step's
   Nordsieck columns in flat buffers (``_lsoda_steps``) and sampling the
   nodes from them by Horner's rule; check the handoff,
4. ``compute_profile``      -- chain the stages into a ``Profile``, keeping
   the last one built for a repeat of its request.

Each stage derives the constants of ``req.params`` itself.  The stages take
scipy's RK45 and LSODA steps (same steps and nfev as ``solve_ivp``), but
round their samples in their own order, free of any BLAS call.  ``estimate_K``
extracts K(eta, beta~) from a far-field trace with the closed-form tail
corrections; only the callers that report K run it, on the full far field.
A caller that reads the profile only on an annulus passes the largest s it
reads as ``reach``.  The assembled ``Profile`` evaluates g, f, f_lambda and
the eternal solutions U_lambda anywhere in [0, e^{s_end}] (respectively
[e^{-s_end}, 1/r0] for f), with s_end = far.s[-1] the end of its far field,
in log-space arithmetic so that quantities like f(e^{-200}) ~ e^{500} never
overflow; beyond s_end an evaluation raises ProfileError.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import LSODA, RK45
from scipy.integrate import solve_ivp  # noqa: F401  (looked up here by perfbench's tracer)
from scipy.interpolate import PchipInterpolator

from .params import DerivedConstants, ModelParams, derive_constants

__all__ = [
    "ProfileError",
    "ProfileRequest",
    "InnerProfile",
    "FarFieldTrace",
    "KEstimate",
    "Profile",
    "local_series_start",
    "integrate_inner",
    "integrate_far_field",
    "estimate_K",
    "compute_profile",
    "check_profile_invariants",
]


class ProfileError(RuntimeError):
    """Profile construction or evaluation failed."""


@dataclass(frozen=True)
class ProfileRequest:
    """Inputs for one profile run.

    eta is g(0), which equals the far-field amplitude A of f; r0 and
    r_switch bracket the inner integration; s_max is the far-field horizon
    in s = log r; tol is the per-step integration tolerance.
    """

    params: ModelParams
    eta: float
    r0: float = 1e-6
    r_switch: float = 10.0
    s_max: float = 200.0
    tol: float = 1e-10

    def __post_init__(self):
        for key in ("eta", "r0", "r_switch", "s_max", "tol"):
            if not math.isfinite(getattr(self, key)):
                raise ProfileError(f"{key} must be finite, got {getattr(self, key)!r}")
        if not self.eta > 0.0:
            raise ProfileError(f"eta must be positive, got {self.eta!r}")
        if not (0.0 < self.r0 < self.r_switch):
            raise ProfileError(f"need 0 < r0 < r_switch, got r0={self.r0!r}, r_switch={self.r_switch!r}")
        if not self.r_switch > 1.0:
            raise ProfileError(f"r_switch must exceed 1 so the far field has s > 0, got {self.r_switch!r}")
        if not self.s_max > math.log(self.r_switch):
            raise ProfileError(f"s_max={self.s_max!r} must exceed log(r_switch)={math.log(self.r_switch)!r}")
        if not self.tol > 0.0:
            raise ProfileError(f"tol must be positive, got {self.tol!r}")


@dataclass(frozen=True)
class InnerProfile:
    """g and g_r sampled on a fixed log-spaced grid in [r0, r_switch], with the
    integrator's right-side evaluations (nfev) and accepted steps."""

    r: np.ndarray
    g: np.ndarray
    g_r: np.ndarray
    nfev: int
    steps: int


@dataclass(frozen=True)
class FarFieldTrace:
    """w~, w~_s and the subtracted h, h1 on a fixed s grid; LSODA's nfev and steps."""

    s: np.ndarray
    w: np.ndarray
    w_s: np.ndarray
    h: np.ndarray
    h1: Optional[np.ndarray]   # None in the Yamabe case, where h1 == h
    nfev: int
    steps: int


@dataclass(frozen=True)
class KEstimate:
    """Tail-corrected estimate of K(eta, beta~) = lim h1(s) (lim h(s) in the Yamabe case)."""

    K: float
    error_estimate: float
    method: str
    converged: bool


def _rhs_inner(n: float, m: float, at: float, bt: float, src_exp: float):
    """g_rr of the inverted ODE as a function of (r, g, g_r); the system in
    (g, g_r) is g' = g_r, g_r' = g_rr."""

    one_m, n_1, pow_ = 1.0 - m, n - 1, math.pow

    def grr(r, g, gr):
        src = pow_(r, src_exp) * (at * g + bt * r * gr)
        return one_m * gr * gr / g - n_1 * gr / r - pow_(g, one_m) * src / n_1

    return grr


def _c_loc(req: ProfileRequest, c: DerivedConstants) -> float:
    """Startup coefficient of the local series: g_r ~ C_loc r^{-delta1} near 0;
    ProfileError when eta puts it outside the finite nonzero floats."""
    n, m = req.params.n, req.params.m
    try:
        c_loc = -m * c.alpha_tilde * req.eta ** (2.0 - m) / ((n - 1) * (n - 2 - 2 * m))
    except OverflowError:
        c_loc = math.inf
    if not (math.isfinite(c_loc) and c_loc != 0.0):
        raise ProfileError(f"eta={req.eta!r} gives a startup slope outside the float range")
    return c_loc


def local_series_start(req: ProfileRequest):
    """Local solution at r0: g = eta + C_loc r^{1-delta1}/(1-delta1), g_r = C_loc r^{-delta1}.

    C_loc comes from freezing g at eta in the equation and integrating the
    flux (r^{n-1}(g^m)_r)_r once; the same formula covers both the bounded
    (delta1 < 0) and singular-derivative (delta1 in [0,1)) startup cases.
    Returns (g(r0), g_r(r0)) for req.params.  Raises ProfileError when the
    a-posteriori estimate of the neglected second-order term exceeds tol.
    """
    c = derive_constants(req.params)
    m = req.params.m
    eta, r0 = req.eta, req.r0
    d1 = c.delta1
    c_loc = _c_loc(req, c)
    corr1 = c_loc * r0 ** (1.0 - d1) / (1.0 - d1)
    # the dropped second-order term is ~ (corr1/eta) * corr1 up to an O(1) factor
    try:
        second = abs(corr1) ** 2 / eta * (2.0 - m + c.beta_tilde / c.alpha_tilde * abs(1.0 - d1))
    except OverflowError:
        second = math.inf
    if second > req.tol * eta:
        raise ProfileError(
            f"startup correction estimate {second:.3e} exceeds tol*eta={req.tol * eta:.3e}; "
            f"request a smaller r0 (got r0={r0!r})"
        )
    return eta + corr1, c_loc * r0 ** (-d1)


def _simpson_residual(s, y, y_s) -> float:
    """Max over node triples of |y(s_{2k+2}) - y(s_{2k}) - Simpson(y_s)|, each
    scaled by its largest term.  A triple whose terms are all 0 or subnormal
    (samples underflowed near r0, as at n = 8, m = 0.1) carries no relative
    precision and counts as 0."""
    k = np.arange(0, len(s) - 2, 2)
    quad = (s[k + 1] - s[k]) / 3.0 * (y_s[k] + 4.0 * y_s[k + 1] + y_s[k + 2])
    scale = np.maximum(np.abs(y[k + 2]) + np.abs(y[k]), np.abs(quad))
    err = np.abs(y[k + 2] - y[k] - quad)
    measured = ~(scale < np.finfo(float).tiny)
    return float(np.max(np.divide(err, scale, out=np.zeros_like(err), where=measured)))


def _flux_residual_inner(req, c, r, g, g_r):
    """Scaled residual of the inverted ODE in integrated (flux) form.

    The equation is equivalent to
        d/dr [ r^{n-1} (g^m)_r ] = -(m/(n-1)) r^{(n-2)/m - 3} (at*g + bt*r*g_r),
    so on each node triple the flux difference must match the Simpson
    quadrature of the right side; the mismatch, scaled by the largest term,
    is the reported residual.  Works on the fixed grid, independent of the
    integrator's internal error control.
    """
    n, m = req.params.n, req.params.m
    at, bt = c.alpha_tilde, c.beta_tilde
    flux = r ** (n - 1) * m * g ** (m - 1.0) * g_r
    rhs = -(m / (n - 1)) * r ** ((n - 2) / m - 3.0) * (at * g + bt * r * g_r)
    # Simpson over [r_{2k}, r_{2k+2}] with the log-spaced grid treated in s; d r = r d s
    return _simpson_residual(np.log(r), flux, rhs * r)


# the inner stage's samples on [r0, r_switch]; the far field's largest node spacing in s
_INNER_NODES, _FAR_DS = 4097, 0.02
_LOG_R_MAX = 700.0  # eval_g_log evaluates g up to r = e^700, short of float overflow
_LN_MAX = math.log(np.finfo(float).max)  # the largest x whose e^x is a float

# the most Nordsieck columns LSODA keeps: Adams orders go up to 12
_LSODA_COLS = 13

# scipy's RK45 (Dormand & Prince 1980): tableau, and the step-size policy
# of RungeKutta._step_impl
_RK_A, _RK_B, _RK_C, _RK_E = RK45.A.tolist(), RK45.B.tolist(), RK45.C.tolist(), RK45.E.tolist()
_RK_ERR_EXP = -1.0 / (RK45.error_estimator_order + 1)
_RK_SAFETY, _RK_MIN_FACTOR, _RK_MAX_FACTOR = 0.9, 0.2, 10.0


def _horner(coef: np.ndarray, seg: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_p coef[seg, p] x^p by Horner's rule, one column p gathered at a
    time (by ``take`` from a column-major copy, which is faster than fancy
    indexing and gives the same values); coef has shape (segments, columns,
    components), the result (nodes, components)."""
    by_col = coef.transpose(1, 0, 2).copy()
    acc = by_col[-1].take(seg, axis=0)
    x = x[:, None]
    for p in range(coef.shape[1] - 2, -1, -1):
        acc = by_col[p].take(seg, axis=0) + x * acc
    return acc


def _rk45(grr, t0: float, t_end: float, g: float, gr: float, rtol: float, atol: float,
          first_step: float, nodes: np.ndarray):
    """Integrate g' = g_r, g_r' = grr(t, g, g_r) from t0 to t_end and sample
    (g, g_r) at the ascending ``nodes``; return (g, g_r, nfev, accepted steps).

    The step control is scipy RK45's with this first_step, rtol and atol =
    (atol, 0): the same stages, error norm, step-size factors and minimum
    step, all in Python floats.  Each sum over stages runs left to right, so
    a step's rounding does not depend on how a BLAS build orders or fuses
    ``ndarray.dot``.  Each step's t, its starting g and its 7 stages (the
    first holds the starting g_r) go to flat buffers.  The nodes are then
    sampled on segment searchsorted(side="left") - 1, as OdeSolution samples
    RK45, from Q = K^T P summed over stages in order, by Horner's rule in
    (t - t_i)/h.

    ProfileError when an accepted step ends with g <= 1e-300 or the step size
    collapses.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = (
        row[:i] for i, row in enumerate(_RK_A) if i)
    b1, _, b3, b4, b5, b6 = _RK_B             # B[1] and E[1] are 0
    e1, _, e3, e4, e5, e6, e7 = _RK_E
    _, c2, c3, c4, c5, _ = _RK_C              # C[5] is 1
    ts, ks = array("d", [t0]), array("d")
    t, f, h_abs = t0, grr(t0, g, gr), first_step
    nfev = 1
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ProfileError(f"inner integration failed at r={t:.6e}: "
                                   "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            nfev += 6  # stages 2 to 6 and f at the step's end
            # stage s of (g, g_r) is (p_s, k_s): p_s is the stage's g_r, k_s its g_rr
            p1, k1 = gr, f
            try:
                p2 = gr + (a21 * k1) * h
                k2 = grr(t + c2 * h, g + (a21 * p1) * h, p2)
                p3 = gr + (a31 * k1 + a32 * k2) * h
                k3 = grr(t + c3 * h, g + (a31 * p1 + a32 * p2) * h, p3)
                p4 = gr + (a41 * k1 + a42 * k2 + a43 * k3) * h
                k4 = grr(t + c4 * h, g + (a41 * p1 + a42 * p2 + a43 * p3) * h, p4)
                p5 = gr + (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4) * h
                k5 = grr(t + c5 * h, g + (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4) * h, p5)
                p6 = gr + (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5) * h
                k6 = grr(t + h, g + (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5) * h,
                         p6)
                g_new = g + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
                gr_new = gr + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
                f_new = grr(t + h, g_new, gr_new)
                xg = ((e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * gr_new) * h
                      / (atol + max(abs(g), abs(g_new)) * rtol))
                xr = ((e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * f_new) * h
                      / (max(abs(gr), abs(gr_new)) * rtol))
                err = math.sqrt(xg * xg + xr * xr) / 2 ** 0.5
            except (ArithmeticError, ValueError):
                err = math.inf  # a stage left the reals or the floats: inf or nan in RK45
            if err < 1.0:
                factor = (_RK_MAX_FACTOR if err == 0.0
                          else min(_RK_MAX_FACTOR, _RK_SAFETY * err ** _RK_ERR_EXP))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_RK_MIN_FACTOR, _RK_SAFETY * err ** _RK_ERR_EXP)
            rejected = True
        if g_new <= 1e-300:
            raise ProfileError(f"inner integration failed at r={t_new:.6e}: g reached 0")
        ts.append(t_new)
        ks.extend((g, p1, k1, p2, k2, p3, k3, p4, k4, p5, k5, p6, k6, gr_new, f_new))
        t, g, gr, f = t_new, g_new, gr_new, f_new

    ts = np.frombuffer(ts)
    seg = np.clip(np.searchsorted(ts, nodes, side="left") - 1, 0, len(ts) - 2)
    t_old = ts[seg]
    h = ts[seg + 1] - t_old
    rows = np.frombuffer(ks).reshape(-1, 15)
    K = rows[:, 1:].reshape(-1, 7, 1, 2)
    Q = K[:, 0] * RK45.P[0, :, None]      # (steps, 4, 2): Q^T of each step
    for j in range(1, 7):
        Q = Q + K[:, j] * RK45.P[j, :, None]
    x = (nodes - t_old) / h
    y = rows[seg, :2] + h[:, None] * (x[:, None] * _horner(Q, seg, x))
    return y[:, 0], y[:, 1], nfev, len(ts) - 1


def integrate_inner(req: ProfileRequest) -> InnerProfile:
    """Integrate the inverted ODE from r0 to r_switch with the Dormand-Prince
    5(4) pair, taking scipy RK45's steps (see ``_rk45``), and sample g, g_r on
    _INNER_NODES log-spaced radii."""
    c = derive_constants(req.params)
    n, m = req.params.n, req.params.m
    g0, g0r = local_series_start(req)
    src_exp = (n - 2) / m - n - 2.0
    grr = _rhs_inner(float(n), m, c.alpha_tilde, c.beta_tilde, src_exp)

    r = np.geomspace(req.r0, req.r_switch, _INNER_NODES)
    # g stays O(eta) but g_r sweeps many decades without changing sign, so it
    # gets pure relative control; an absolute floor there would cap the flux
    # accuracy near r0 and pollute the residual check.  rtol has RK45's floor.
    g, g_r, nfev, steps = _rk45(
        grr, req.r0, req.r_switch, g0, g0r,
        rtol=max(req.tol, 100.0 * np.finfo(float).eps), atol=req.tol * req.eta * 1e-3,
        first_step=req.r0 / 10.0, nodes=r)
    if np.any(g <= 0.0):
        bad = r[np.argmax(g <= 0.0)]
        raise ProfileError(f"g non-positive at r={bad:.6e}")
    mono = g + (c.beta_tilde / c.alpha_tilde) * r * g_r
    if np.any(mono <= -10.0 * req.tol * req.eta):
        bad = r[np.argmax(mono <= -10.0 * req.tol * req.eta)]
        raise ProfileError(f"monotonicity expression g + (bt/at) r g_r violated at r={bad:.6e}")

    return InnerProfile(r=r, g=g, g_r=g_r, nfev=nfev, steps=steps)


def _rhs_far(n: int, m: float, c: DerivedConstants):
    """w~_ss as a function of (w~, w~_s), floats or arrays; the equation is
    autonomous in s."""
    c_sq = (1.0 - 2.0 * m) / (1.0 - m)
    b0, b1 = c.b0, c.b1
    c_adv = c.beta_tilde / (n - 1.0)

    def wss(w, ws):
        return c_sq * ws * ws / w - b0 * ws + b1 * w - c_adv * w * ws

    return wss


def _lsoda_steps(solver: LSODA, rhs, s_end: float):
    """Step scipy's LSODA ``solver`` on the bare right side ``rhs`` until its t
    reaches s_end; return, per step, its end t, the step size h that scales
    its interpolant and its Nordsieck columns, as (t, h, coef) with coef of
    shape (steps, cols, n), cols one more than the highest order taken and
    each step's columns zero past its own order; and LSODA's own count of
    right-side evaluations (iwork[11]), which is ``solve_ivp``'s nfev.

    Each step is the one ``LSODA._step_impl`` takes: the integrator runs once
    with itask 5 (one step, never past t_bound), with ``rhs`` in place of
    the solver's counting wrapper, so the steps are the solver's own without
    its per-step checks and copies.  The columns are read after each step as
    ``LSODA._dense_output_impl`` reads them: the order from iwork[13], h
    from rwork[11], order + 1 columns from rwork[20:], the last rescaled by
    (h / rwork[10])^order when iwork[14] lowers the next order.  So step i
    interpolates sum_p coef[i, p] ((s - t[i]) / h[i])^p, and no per-step
    object is built.  ProfileError when a step fails.
    """
    ode = solver._lsoda_solver
    integrator = ode._integrator
    iwork, rwork, n = integrator.iwork, integrator.rwork, solver.n
    jac = ode.jac or (lambda: None)  # as LSODA._step_impl passes it
    y, s, t_bound = ode._y, solver.t, solver.t_bound
    integrator.call_args[2] = 5
    cols = _LSODA_COLS * n
    t, h, order = np.empty(512), np.empty(512), np.empty(512, dtype=iwork.dtype)
    coef = np.empty((512, cols))
    i = 0
    while s < s_end:
        y, s = integrator.run(rhs, jac, y, s, t_bound, (), ())
        if not integrator.success:
            raise ProfileError("far-field integration failed: Unexpected istate in LSODA.")
        if i == len(t):  # double the buffers
            t, h, order = np.resize(t, 2 * i), np.resize(h, 2 * i), np.resize(order, 2 * i)
            coef = np.resize(coef, (2 * i, cols))
        t[i], h[i] = s, rwork[11]
        o = order[i] = iwork[13]
        coef[i] = rwork[20:20 + cols]
        if iwork[14] < o:
            coef[i, o * n:(o + 1) * n] *= (rwork[11] / rwork[10]) ** o
        i += 1
    order = order[:i]
    coef = coef[:i].reshape(i, _LSODA_COLS, n)
    coef[np.arange(_LSODA_COLS) > order[:, None]] = 0.0  # work space beyond the order
    return t[:i], h[:i], coef[:, :int(order.max()) + 1], int(iwork[11])


def integrate_far_field(req: ProfileRequest, inner: InnerProfile,
                        reach: Optional[float] = None) -> FarFieldTrace:
    """Continue the profile in s = log r up to s_max via the w~ equation;
    ProfileError unless w~(log r_switch) gives back the inner g(r_switch)
    to 10 rtol max(1, g), with the stages' rtol: tol floored at 100 eps.

    The trace is sampled on a fixed lattice of nodes at most _FAR_DS apart
    from log(r_switch) to s_max.  Given ``reach``, it keeps only the lattice's
    prefix up to one node past the first node >= reach (at least 3 nodes).
    scipy's LSODA is built as ``solve_ivp`` builds it, with rtol floored at
    100 eps as LSODA floors it (but without its warning), and its integrator
    is stepped past the last kept node (``_lsoda_steps``); each node is
    sampled on the step ``solve_ivp`` picks for it (searchsorted(side=
    "right") - 1 over the step starts), by Horner's rule in the step's
    Nordsieck columns.  The first
    step depends on t_bound, so t_bound stays s_max: the kept nodes carry
    the full trace's values bit for bit, at a fraction of the cost.
    """
    c = derive_constants(req.params)
    n, m = req.params.n, req.params.m
    at, bt = c.alpha_tilde, c.beta_tilde
    wexp = (1.0 - m) * at / bt  # == (n-2-nm)/m
    rs = req.r_switch
    g_sw, gr_sw = inner.g[-1], inner.g_r[-1]
    s0 = math.log(rs)
    w0 = rs ** wexp * g_sw ** (1.0 - m)
    ws0 = (1.0 - m) * (at / bt) * rs ** wexp * g_sw ** (-m) * (g_sw + (bt / at) * rs * gr_sw)
    if ws0 <= 0.0:
        raise ProfileError(f"w_s(r_switch) = {float(ws0)!r} <= 0; inner profile invalid at handoff")

    n_nodes = int(math.ceil((req.s_max - s0) / _FAR_DS))
    n_nodes += (n_nodes + 1) % 2  # odd count for Simpson triples
    s = np.linspace(s0, req.s_max, n_nodes)
    if reach is not None:
        s = s[:max(3, int(np.searchsorted(s, reach)) + 2)]
    wss = _rhs_far(n, m, c)

    def rhs(s, y):
        w, ws = y.tolist()  # floats round as numpy's scalars do, at a third of the cost
        return ws, wss(w, ws)

    # rtol has LSODA's floor, which it would otherwise apply with a warning
    rtol = max(req.tol, 100.0 * np.finfo(float).eps)
    solver = LSODA(rhs, s0, (w0, ws0), req.s_max, rtol=rtol, atol=req.tol)
    ts, hs, coef, nfev = _lsoda_steps(solver, rhs, s[-1])
    # a node's step is the last to start at or before it: step 0 starts at s0, step i at ts[i-1]
    seg = np.minimum(np.searchsorted(ts, s, side="right"), len(ts) - 1)
    w, w_s = _horner(coef, seg, (s - ts[seg]) / hs[seg]).T
    if np.any(w_s <= 0.0):
        bad = s[np.argmax(w_s <= 0.0)]
        raise ProfileError(f"eta={req.eta!r} gives w~_s <= 0 at s={bad:.3f}; trace invalid")
    g_far = (w[0] * math.exp(-wexp * s0)) ** (1.0 / (1.0 - m))
    # the inner stage's rtol has the same floor
    if abs(g_far - g_sw) > 10.0 * rtol * max(1.0, g_sw):
        raise ProfileError(
            f"handoff discontinuity at r_switch: inner g={float(g_sw)!r}, far g={float(g_far)!r}")

    h = w - c.farfield_slope * s
    h1 = None if c.yamabe_case else h - c.h1_slope * np.log(s)
    return FarFieldTrace(s=s, w=w, w_s=w_s, h=h, h1=h1, nfev=nfev, steps=len(ts))


def _a2_const_part(n: int, m: float) -> float:
    """K-independent part of the a2 coefficient."""
    return ((2.0 * (1.0 - 2.0 * m) * (n - 1) * (n - 2 - n * m)
             + (n - 1) * (n - 2 - (n + 2) * m) ** 2) / (1.0 - m) ** 2)


def _k_hat(trace: FarFieldTrace, c: DerivedConstants, n: int, m: float, s_eval: float) -> float:
    """Tail-corrected K estimate at a single s.

    Non-Yamabe: h1(s) = K(1 + llc/s) + h1_tail*(1+log s)/s - (1-m)*A2_0/(2q*bt*s) + o(1/s),
    with llc the log-log coefficient, q = n-2-nm and A2_0 the K-independent
    part of a2; solve the linear relation for K.  Yamabe: h(s) = K - tail/s.
    """
    idx = int(np.clip(np.searchsorted(trace.s, s_eval) - 1, 0, len(trace.s) - 2))
    frac = (s_eval - trace.s[idx]) / (trace.s[idx + 1] - trace.s[idx])
    if c.yamabe_case:
        h = trace.h[idx] * (1 - frac) + trace.h[idx + 1] * frac
        tail = (n - 1) * (1.0 - 2.0 * m) / ((1.0 - m) * c.beta_tilde)
        return h + tail / s_eval
    h1 = trace.h1[idx] * (1 - frac) + trace.h1[idx + 1] * frac
    corr = (1.0 - m) * _a2_const_part(n, m) / (2.0 * c.q * c.beta_tilde * s_eval)
    num = h1 - c.h1_tail_coeff * (1.0 + math.log(s_eval)) / s_eval + corr
    return num / (1.0 + c.loglog_coeff / s_eval)


def _fit_spread(trace: FarFieldTrace, c: DerivedConstants, n: int, m: float) -> float:
    """How far the limit of K^(s) moves with the tail model: the gap between
    the constant terms of least-squares fits of K^ on 24 points of
    [s_fit/8, s_fit], s_fit = min(s_max, 200), in the basis {1, log s/s^2, 1/s^2}
    and in that basis with 1/s added."""
    s_fit = min(float(trace.s[-1]), 200.0)
    s = np.linspace(s_fit / 8.0, s_fit, 24)
    k = np.array([_k_hat(trace, c, n, m, x) for x in s])
    basis = [np.ones_like(s), np.log(s) / s ** 2, 1.0 / s ** 2]
    k3 = np.linalg.lstsq(np.column_stack(basis), k, rcond=None)[0][0]
    k4 = np.linalg.lstsq(np.column_stack(basis + [1.0 / s]), k, rcond=None)[0][0]
    return float(abs(k3 - k4))


def estimate_K(trace: FarFieldTrace, params: ModelParams) -> KEstimate:
    """Extract K(eta, beta~) from the far-field trace of a profile of ``params``.

    Uses the closed-form tail of the h1 expansion refined by the h2-level
    correction (which is linear in K and solved self-consistently); in the
    Yamabe case the 1/s tail of h itself.  K is that estimate at s_max.
    K^(s) is not monotone in s: log s/s^2 and 1/s^2 terms left in it compete,
    so its change from s_max/2 to s_max can be accidentally small.
    error_estimate is the larger of that change and the spread of two tail
    fits (``_fit_spread``).
    """
    s_max = trace.s[-1]
    if s_max < 50.0:
        raise ProfileError(f"K extraction needs s_max >= 50, trace ends at {float(s_max)!r}")
    c, n, m = derive_constants(params), params.n, params.m
    k_full = _k_hat(trace, c, n, m, s_max)
    k_half = _k_hat(trace, c, n, m, s_max / 2.0)
    err = max(abs(k_full - k_half), _fit_spread(trace, c, n, m))
    method = ("h tail (yamabe)" if c.yamabe_case
              else "h1 tail with self-consistent a2 correction")
    converged = err <= 1e-2 * (1.0 + abs(k_full))
    return KEstimate(K=float(k_full), error_estimate=float(err), method=method,
                     converged=bool(converged))


class Profile:
    """A computed profile of ``request`` with piecewise evaluation; ``constants``
    are those of request.params.

    Regions: local series on (0, r0], interpolated inner solution on
    [r0, r_switch], far-field reconstruction on [r_switch, e^{far.s[-1]}],
    which is e^{s_max} unless the far field was built to a shorter reach.
    All evaluators are vectorized over r.  A constructed Profile is never
    mutated and is safe to share across threads; independent requests can
    be computed concurrently.  ``compute_profile`` hands the profile it
    built last to the next call with the same request and reach, so one
    Profile may be shared across calls and commands; the arrays of its
    stages are read-only.
    """

    def __init__(self, request: ProfileRequest, inner: InnerProfile, far: FarFieldTrace):
        self.request = request
        self.constants = c = derive_constants(request.params)
        self.inner = inner
        self.far = far
        self._wexp = (1.0 - request.params.m) * c.alpha_tilde / c.beta_tilde
        s_in = np.log(inner.r)
        self._ip_lng = PchipInterpolator(s_in, np.log(inner.g), extrapolate=False)
        # where r g_r / g underflows near r0 (n = 8, m = 0.1), pchip's harmonic
        # mean of the slopes overflows to inf, and its derivative 1/inf = 0
        # is the flat data's
        with np.errstate(over="ignore"):
            self._ip_rat = PchipInterpolator(s_in, inner.r * inner.g_r / inner.g,
                                             extrapolate=False)
        self._ip_w = PchipInterpolator(far.s, far.w, extrapolate=False)
        self._ip_ws = PchipInterpolator(far.s, far.w_s, extrapolate=False)

    # -- g ----------------------------------------------------------------

    def eval_g_log(self, r, *, with_rat: bool = True):
        """(log g(r), r g_r(r)/g(r)); the numerically safe primitive.

        with_rat=False skips the derivative ratio (returned as None) and the
        two interpolants that only it needs.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ProfileError("g evaluation needs r > 0")
        s_end = float(self.far.s[-1])
        if np.max(r) > math.exp(min(s_end, _LOG_R_MAX)) * (1.0 + 1e-12):
            raise ProfileError(f"r beyond e^s_max = e^{s_end}; no extrapolation")
        req, c = self.request, self.constants
        one_m = 1.0 - req.params.m
        s = np.log(r)
        lng = np.empty_like(s)
        rat = np.empty_like(s) if with_rat else None

        lo = r <= req.r0
        mid = (r > req.r0) & (r <= req.r_switch)
        hi = r > req.r_switch

        if np.any(lo):
            d1 = c.delta1
            c_loc = _c_loc(req, c)
            gv = req.eta + c_loc * r[lo] ** (1.0 - d1) / (1.0 - d1)
            lng[lo] = np.log(gv)
            if with_rat:
                rat[lo] = c_loc * r[lo] ** (1.0 - d1) / gv
        if np.any(mid):
            lng[mid] = self._ip_lng(s[mid])
            if with_rat:
                rat[mid] = self._ip_rat(s[mid])
        if np.any(hi):
            sh = np.minimum(s[hi], self.far.s[-1])  # clip 1-ulp overshoot
            w = self._ip_w(sh)
            lng[hi] = (np.log(w) - self._wexp * sh) / one_m
            if with_rat:
                rat[hi] = self._ip_ws(sh) / (one_m * w) - c.alpha_tilde / c.beta_tilde
        return lng, rat

    def eval_g(self, r):
        """(g(r), g_r(r)); overflow-free since g <= eta."""
        lng, rat = self.eval_g_log(r)
        g = np.exp(lng)
        return g, g * rat / np.asarray(r, dtype=float)

    # -- f ----------------------------------------------------------------

    def eval_f_log(self, r, *, with_rat: bool = True):
        """(log f(r), r f_r(r)/f(r)) via the inversion f(r) = r^{-(n-2)/m} g(1/r)."""
        r = np.asarray(r, dtype=float)
        cexp = (self.request.params.n - 2) / self.request.params.m
        lng, rat = self.eval_g_log(1.0 / r, with_rat=with_rat)
        return lng - cexp * np.log(r), None if rat is None else -cexp - rat

    def eval_f(self, r):
        """(f(r), f_r(r)).  May overflow for r so small that f exceeds float range;
        use eval_f_log there."""
        lnf, rat = self.eval_f_log(r)
        f = np.exp(lnf)
        return f, f * rat / np.asarray(r, dtype=float)

    # -- lambda family ------------------------------------------------------

    def _require_unit_eta(self):
        if abs(self.request.eta - 1.0) > 1e-14:
            raise ProfileError("lambda-family evaluation requires the eta = 1 profile")

    def eval_f_lambda_log(self, lam: float, r, *, with_rat: bool = True):
        self._require_unit_eta()
        if not lam > 0.0:
            raise ProfileError(f"lambda must be positive, got {lam!r}")
        one_m = 1.0 - self.request.params.m
        lnf, rat = self.eval_f_log(lam * np.asarray(r, dtype=float), with_rat=with_rat)
        return 2.0 / one_m * math.log(lam) + lnf, rat

    def eval_f_lambda(self, lam: float, r):
        """f_lambda(r) = lambda^{2/(1-m)} f_1(lambda r), which is U_lambda at t = 0."""
        return self.eval_U_lambda(lam, r, 0.0)

    def eval_U_lambda(self, lam: float, r, t):
        """U_lambda(r, t) = e^{-alpha t} f_lambda(e^{-beta t} r); one row per time for a
        sequence t.  e^{-beta t} is math.exp, which np.exp does not always match."""
        c = self.constants
        beta = self.request.params.beta
        r = np.asarray(r, dtype=float)
        t = np.reshape(np.asarray(t, dtype=float), np.shape(t) + (1,) * r.ndim)
        x = -beta * t
        try:
            shrink = np.vectorize(math.exp, otypes=[float])(x)
        except OverflowError:  # math.exp overflows exactly where x > log(float max)
            first = float(t.flat[np.argmax(x.ravel() > _LN_MAX)])
            raise ProfileError(f"U_lambda's time shift e^(-beta t) overflows at "
                               f"beta={beta!r}, t={first!r}") from None
        lnf, _ = self.eval_f_lambda_log(lam, shrink * r, with_rat=False)
        return np.exp(-c.alpha * t + lnf)


# the last profile built: (repr((req, reach)), Profile), rebound as a whole
_last: tuple = (None, None)


def compute_profile(req: ProfileRequest, reach: Optional[float] = None) -> Profile:
    """Chain the stages into a Profile; ``reach`` (see ``integrate_far_field``)
    ends the far field near s = reach.

    The last profile built is kept and returned again for the same key,
    repr((req, reach)): every field equal and of the same type, so beta=-1
    and beta=-1.0 build apart.  A miss drops the kept profile before it
    builds, so at most one kept profile is alive during a build; a failed
    build keeps nothing.  The entry is one tuple, rebound whole, so
    concurrent calls each see a consistent entry.  The returned profile's
    arrays are read-only.
    """
    global _last
    key = repr((req, reach))
    last_key, last = _last
    if last_key == key:
        return last
    del last  # neither this name nor the memo keeps it alive during the build
    _last = (None, None)
    inner = integrate_inner(req)
    far = integrate_far_field(req, inner, reach=reach)
    for a in (inner.r, inner.g, inner.g_r, far.s, far.w, far.w_s, far.h, far.h1):
        if a is not None:
            a.flags.writeable = False
    prof = Profile(req, inner, far)
    _last = (key, prof)
    return prof


def check_profile_invariants(prof: Profile) -> dict:
    """Node-wise invariant checks and growth-limit diagnostics for a profile."""
    req, c = prof.request, prof.constants
    n, m = req.params.n, req.params.m
    inner, far = prof.inner, prof.far
    r, g, g_r = inner.r, inner.g, inner.g_r

    mono = g + (c.beta_tilde / c.alpha_tilde) * r * g_r
    # discrete second differences of g^m on the log grid: superharmonicity
    # (g^m)'' + (n-1)/r (g^m)' < 0  <=>  in s: phi_ss + (n-2) phi_s < 0, phi = g^m.
    # Compared in phi units: dividing by r^2 would blow the roundoff of the
    # second difference up by e^{-2s} where the true value is ~0.
    s = np.log(r)
    phi = g ** m
    ds = s[1] - s[0]
    phi_ss = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / ds ** 2
    phi_s = (phi[2:] - phi[:-2]) / (2.0 * ds)
    superharm = phi_ss + (n - 2) * phi_s
    superharm_tol = 128.0 * np.finfo(float).eps * float(np.max(np.abs(phi))) / ds ** 2

    # r w_r / w on both branches
    rw_inner = (1.0 - m) * (c.alpha_tilde / c.beta_tilde + r * g_r / g)
    rw_far = far.w_s / far.w

    # growth limits
    ws_end = far.w_s[-1]
    w_over_s = far.w[-1] / far.s[-1]
    lng20, _ = prof.eval_g_log(np.array([math.exp(-20.0)]))
    g_at_small = float(np.exp(lng20[0]))

    # f-decay inequality alpha f + beta r f_r > 0 on sampled radii, down to
    # the smallest r whose g(1/r) eval_g_log evaluates (s_max > 777 reaches it)
    rs = np.geomspace(math.exp(-min(0.9 * req.s_max, _LOG_R_MAX)), 0.5 / req.r0, 200)
    _, rff = prof.eval_f_log(rs)
    f_dec = c.alpha - c.beta_tilde * rff  # = (alpha f + beta r f_r)/f

    # flux-form residuals: of the inner ODE, and of w_s against its
    # Simpson-integrated slope in the far field
    wss = _rhs_far(n, m, c)(far.w, far.w_s)

    return {
        "g_min": float(np.min(g)),
        "monotone_min": float(np.min(mono)),
        "ws_min": float(np.min(far.w_s)),
        "superharmonic_max": float(np.max(superharm)),
        "superharmonic_tol": float(superharm_tol),
        "rwr_over_w_max": float(max(np.max(rw_inner), np.max(rw_far))),
        "residual_inner": _flux_residual_inner(req, c, r, g, g_r),
        "residual_far": _simpson_residual(far.s, far.w_s, wss),
        "ws_ratio": float(ws_end / c.farfield_slope),
        "w_over_s_ratio": float(w_over_s / c.farfield_slope),
        "g_origin_ratio": g_at_small / req.eta,
        "f_dec_min": float(np.min(f_dec)),
        "ok": bool(
            np.min(g) > 0.0
            and np.min(mono) > 0.0
            and np.min(far.w_s) > 0.0
            and np.max(superharm) < superharm_tol
            and np.min(f_dec) > 0.0
        ),
    }
