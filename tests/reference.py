"""Reference implementations that the tests compare the package against.

No ``fde`` command runs these; they are the paper's proof devices and
independent re-derivations:

* ``derive_constants_exact``: the derived constants in exact rationals;
* ``eval_expansion_f`` / ``eval_expansion_g``: the blow-up and growth
  expansions evaluated in r, on top of ``fde.asymptotics.expansion_series``;
* ``eval_g_lambda`` / ``eval_U_bar_lambda``: the inverted family
  U~bar_lambda of a Profile;
* ``integrate_inner_ivp``: the inner profile stage through scipy's
  ``solve_ivp`` RK45 with a terminal g = 0 event, whose steps
  ``fde.profile.integrate_inner`` takes, rounding its samples otherwise;
* ``integrate_far_field_ivp``: the far-field stage through scipy's
  ``solve_ivp``, LSODA on the full lattice and RK45 on a shorter prefix,
  whose steps ``fde.profile.integrate_far_field`` takes, rounding its
  samples otherwise;
* ``csv_rows``: the CSV rows of columns of floats, one '%.17g' per value,
  which ``fde.cli._csv_rows`` spells in numpy;
* ``hybrid_switch``: the central/upwind choice of ``fde._kernels``'s
  rescaled step in its defining form, which the kernel's record answers
  by a threshold compare;
* ``weighted_l1``: the weighted-L1 distance of two fields, through the
  package's own quadrature ``fde.measures._l1``;
* ``RadialField``, ``rescale_transform``, ``inversion_transform`` and
  ``inversion_residual_check``: the rescaling u~(y,t) = e^{alpha t}
  u(e^{beta t} y, t) and the inversion u_bar(r) = r^{-(n-2)/m} u(1/r)
  applied to fields on an annulus grid;
* the proof-device checks ``check_scaling_identities`` (the transformation
  identities of g and f in eta and beta~, on independent profile runs) and
  ``difference_constant_check`` (the law of f_{lam2} - f_{lam1} near the
  origin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from fde.asymptotics import ExpansionCoefficients, expansion_series
from fde.evolution import AnnulusGrid, EvolutionError, Trajectory
from fde.measures import MeasureError, WeightSpec, _l1
from fde.params import DerivedConstants, ModelParams, ParameterError, derive_constants
from fde.profile import (
    _FAR_DS,
    FarFieldTrace,
    InnerProfile,
    Profile,
    ProfileError,
    ProfileRequest,
    _rhs_far,
    compute_profile,
    local_series_start,
)

# -- params ----------------------------------------------------------------


def derive_constants_exact(n: int, m: Fraction, beta: Fraction) -> dict:
    """Exact rational evaluation of the derived constants.

    Valid whenever m and beta are rational; pins the arithmetic examples.
    Returns a name -> Fraction (or bool) mapping with the same field names
    as ``DerivedConstants``.
    """
    m = Fraction(m)
    beta = Fraction(beta)
    if n < 3 or not (0 < m < Fraction(n - 2, n)) or beta >= 0:
        raise ParameterError("exact evaluation outside the admissible regime")
    one_m = 1 - m
    alpha = 2 * beta / one_m
    beta_tilde = -beta
    alpha_tilde = alpha - Fraction(n - 2) / m * beta
    q = n - 2 - n * m
    ys = n - 2 - (n + 2) * m
    out = {
        "alpha": alpha,
        "alpha_tilde": alpha_tilde,
        "beta_tilde": beta_tilde,
        "q": q,
        "gamma1": Fraction(n - 2) / m - 2 / one_m,
        "gamma2": one_m / (2 * m) * (n - 2 / one_m),
        "gamma3": (n * beta_tilde / alpha_tilde - 1) / m,
        "delta1": 1 - q / m,
        "mu1": n - 2 / one_m,
        "b0": ((n + 2) * m - (n - 2)) / one_m,
        "b1": 2 * q / one_m,
        "a0": (n - 1) * 2 * q / one_m / beta_tilde,
        "a1": ys * ys / (4 * q * q),
        "blowup_const": 2 * (n - 1) * q / (one_m * abs(beta)),
        "farfield_slope": 2 * (n - 1) * q / (one_m * beta_tilde),
        "loglog_coeff": ys / (2 * q),
        "h1_slope": (n - 1) * ys / (one_m * beta_tilde),
        "h1_tail_coeff": (n - 1) * ys * ys / (2 * q * one_m * beta_tilde),
        "yamabe_case": ys == 0,
        "cstar": 2 * (n - 1) * q / one_m,
    }
    out["delta0"] = (1 - out["delta1"]) / 2
    return out


# -- asymptotics -----------------------------------------------------------


def eval_expansion_f(r, coeffs: ExpansionCoefficients, c: DerivedConstants,
                     A: float = None, lam: float = None,
                     order: str = "one_over_log"):
    """Truncated blow-up expansion of f near r = 0.

    Exactly one of A (the far-field amplitude) and lam (the scaling
    parameter, A = lam^{-gamma1}) must be given; the two forms agree to
    rounding.  Valid for r < 1; orders beyond `leading` need r <= e^{-e}.
    """
    if (A is None) == (lam is None):
        raise ValueError("give exactly one of A and lam")
    m, g1 = coeffs.m, c.gamma1
    if lam is not None:
        A = lam ** (-g1)
    r = np.asarray(r, dtype=float)
    if np.any(r >= 1.0):
        raise ValueError("f expansion is an r -> 0 statement; need r < 1")
    if order != "leading" and np.any(r > math.exp(-math.e)):
        raise ValueError("orders with log(log r^{-1}) need r <= e^{-e}")
    beta_abs = -c.alpha * (1.0 - m) / 2.0  # |beta| recovered from alpha
    L = np.log(1.0 / r)
    series = expansion_series(L, coeffs, A, beta_abs)[order]
    ln_pref = math.log(c.blowup_const) - 2.0 * np.log(r)
    return np.exp((ln_pref + np.log(series)) / (1.0 - m))


def eval_expansion_g(r, coeffs: ExpansionCoefficients, c: DerivedConstants,
                     eta: float, beta_tilde: float, order: str = "one_over_log"):
    """Truncated growth expansion of g at r -> infinity; needs r > e."""
    n, m, q = coeffs.n, coeffs.m, c.q
    r = np.asarray(r, dtype=float)
    if np.any(r <= math.e):
        raise ValueError("g expansion is an r -> infinity statement; need r > e")
    L = np.log(r)
    series = expansion_series(L, coeffs, eta, beta_tilde)[order]
    ln_pref = math.log(2.0 * (n - 1) * q / ((1.0 - m) * beta_tilde)) - q / m * np.log(r)
    return np.exp((ln_pref + np.log(series)) / (1.0 - m))


# -- profile ---------------------------------------------------------------


def eval_U_bar_lambda(prof: Profile, lam: float, r, t: float):
    """U~bar_lambda(r, t) = e^{-alpha~ t} g_lambda(e^{-beta~ t} r) of the eta = 1 profile."""
    prof._require_unit_eta()
    c = prof.constants
    p = prof.request.params
    arg = math.exp(-c.beta_tilde * t) * np.asarray(r, dtype=float) / lam
    lng, _ = prof.eval_g_log(arg, with_rat=False)
    scale = (2.0 / (1.0 - p.m) - (p.n - 2) / p.m) * math.log(lam)
    return np.exp(-c.alpha_tilde * t + scale + lng)


def eval_g_lambda(prof: Profile, lam: float, r):
    """g_lambda(r) = lambda^{2/(1-m)-(n-2)/m} g_1(r/lambda), which is U~bar_lambda at t = 0."""
    return eval_U_bar_lambda(prof, lam, r, 0.0)


def integrate_inner_ivp(req: ProfileRequest, c: Optional[DerivedConstants] = None,
                        n_nodes: int = 4097) -> InnerProfile:
    """``integrate_inner`` through ``solve_ivp(method="RK45")`` with dense output."""
    if c is None:
        c = derive_constants(req.params)
    n, m = float(req.params.n), req.params.m
    at, bt = c.alpha_tilde, c.beta_tilde
    src_exp = (n - 2) / m - n - 2.0
    g0, g0r = local_series_start(req)

    def rhs(r, y):
        g, gr = y
        src = r ** src_exp * (at * g + bt * r * gr)
        grr = (1.0 - m) * gr * gr / g - (n - 1) * gr / r - g ** (1.0 - m) * src / (n - 1)
        return (gr, grr)

    def hit_zero(r, y):
        return y[0] - 1e-300

    hit_zero.terminal = True

    sol = solve_ivp(
        rhs, (req.r0, req.r_switch), (g0, g0r), method="RK45",
        rtol=req.tol, atol=(req.tol * req.eta * 1e-3, 0.0),
        first_step=req.r0 / 10.0, dense_output=True, events=hit_zero,
    )
    if not sol.success or sol.t[-1] < req.r_switch:
        raise ProfileError(
            f"inner integration failed at r={sol.t[-1]:.6e}: "
            + (sol.message if not sol.success else "g reached 0 (step-size collapse)")
        )
    r = np.geomspace(req.r0, req.r_switch, n_nodes)
    y = sol.sol(r)
    return InnerProfile(r=r, g=y[0], g_r=y[1], nfev=int(sol.nfev), steps=len(sol.t) - 1)


def integrate_far_field_ivp(req: ProfileRequest, inner: InnerProfile,
                            reach: Optional[float] = None) -> FarFieldTrace:
    """``integrate_far_field`` through ``solve_ivp`` with dense output: LSODA
    on the full lattice; RK45 on a shorter prefix, from first step _FAR_DS
    with atol (tol, 0) to its last node.  No handoff check."""
    c = derive_constants(req.params)
    n, m = req.params.n, req.params.m
    at, bt = c.alpha_tilde, c.beta_tilde
    wexp = (1.0 - m) * at / bt
    rs = req.r_switch
    g_sw, gr_sw = inner.g[-1], inner.g_r[-1]
    s0 = math.log(rs)
    w0 = rs ** wexp * g_sw ** (1.0 - m)
    ws0 = (1.0 - m) * (at / bt) * rs ** wexp * g_sw ** (-m) * (g_sw + (bt / at) * rs * gr_sw)
    if ws0 <= 0.0:
        raise ProfileError(f"w_s(r_switch) = {float(ws0)!r} <= 0; inner profile invalid at handoff")

    n_nodes = int(math.ceil((req.s_max - s0) / _FAR_DS))
    n_nodes += (n_nodes + 1) % 2
    s = np.linspace(s0, req.s_max, n_nodes)
    k = n_nodes if reach is None else max(3, int(np.searchsorted(s, reach)) + 2)
    wss = _rhs_far(n, m, c)

    def rhs(s, y):
        return (y[1], wss(y[0], y[1]))

    if k < n_nodes:
        s = s[:k]
        sol = solve_ivp(rhs, (s0, s[-1]), (w0, ws0), method="RK45", rtol=req.tol,
                        atol=(req.tol, 0.0), first_step=_FAR_DS, dense_output=True)
    else:
        sol = solve_ivp(rhs, (s0, req.s_max), (w0, ws0), method="LSODA", rtol=req.tol,
                        atol=req.tol, dense_output=True)
    if not sol.success:
        raise ProfileError(f"far-field integration failed: {sol.message}")

    w, w_s = sol.sol(s)
    if np.any(w_s <= 0.0):
        bad = s[np.argmax(w_s <= 0.0)]
        raise ProfileError(f"eta={req.eta!r} gives w~_s <= 0 at s={bad:.3f}; trace invalid")
    h = w - c.farfield_slope * s
    h1 = None if c.yamabe_case else h - c.h1_slope * np.log(s)
    return FarFieldTrace(s=s, w=w, w_s=w_s, h=h, h1=h1, nfev=int(sol.nfev),
                         steps=len(sol.t) - 1)


# -- cli -------------------------------------------------------------------


def csv_rows(columns) -> str:
    """The rows ``fde.cli._write_csv`` writes below its header for the
    equal-length ``columns``: each value as '%.17g' formats it, comma
    separated, each row ended by a newline."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return "".join([row % v for v in zip(*[np.asarray(c, dtype=float).tolist() for c in columns])])


# -- evolution -------------------------------------------------------------


def hybrid_switch(u, m: float, c0: float, einv, ap, b_ds: float) -> np.ndarray:
    """Each interior row's advection choice at the start state u, True where
    central: the outflow diffusion face c0 einv ap m u^(m-1), at node i + 1,
    dominates the central advection half |b_ds|/2."""
    return c0 * einv[1:-1] * ap[1:-1] * (m * u[2:] ** (m - 1.0)) >= -0.5 * b_ds


# -- measures --------------------------------------------------------------


def weighted_l1(a, b, weight, grid: AnnulusGrid, n: Optional[int] = None) -> float:
    """omega_n * int |a-b|(r) w(r) r^{n-1} dr by the trapezoid rule in s.

    `weight` is a WeightSpec or a precomputed node array; fields must live
    on the same grid.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (grid.N,) or b.shape != (grid.N,):
        raise MeasureError(f"fields must match the grid ({grid.N} nodes); got {a.shape}, {b.shape}")
    if isinstance(weight, WeightSpec):
        w = weight.values(grid.r)
        n = weight.params.n
    else:
        w = np.asarray(weight, dtype=float)
        if w.shape != (grid.N,):
            raise MeasureError("weight array must match the grid")
        if n is None:
            raise MeasureError("dimension n required with a raw weight array")
    return _l1(a - b, w, grid, n)


# -- evolution -------------------------------------------------------------


@dataclass(frozen=True)
class RadialField:
    """Node values with a time stamp and a form tag.

    NaN entries mark nodes a transform could not fill (no extrapolation);
    all finite entries must be positive.
    """

    u: np.ndarray
    t: float
    form: str  # "physical" | "rescaled" | "inverted"

    def __post_init__(self):
        finite = np.isfinite(self.u)
        if not np.any(finite):
            raise EvolutionError("field has no finite nodes")
        if np.any(self.u[finite] <= 0.0):
            raise EvolutionError("field must be positive at all (finite) nodes")


def rescale_transform(field: RadialField, grid: AnnulusGrid,
                      c: DerivedConstants, inverse: bool = False):
    """Physical <-> rescaled resample at the field's own time.

    Forward: u~(y, t) = e^{alpha t} u(e^{beta t} y, t).  Nodes whose source
    point e^{beta t} y falls outside the grid are missing (NaN) and reported
    in the returned mask; no extrapolation.
    """
    t = field.t
    alpha, beta = c.alpha, -c.beta_tilde
    sign = -1.0 if inverse else 1.0
    # forward maps rescaled node y to physical sample point e^{beta t} y
    shift = sign * beta * t
    src_s = grid.s + shift
    mask = (src_s >= grid.s[0] - 1e-12) & (src_s <= grid.s[-1] + 1e-12)
    if not np.any(mask):
        raise EvolutionError("rescale transform: no target node maps into the domain")
    ip = PchipInterpolator(grid.s, np.log(field.u), extrapolate=False)
    out = np.full(grid.N, np.nan)
    vals = ip(np.clip(src_s[mask], grid.s[0], grid.s[-1]))
    out[mask] = np.exp(sign * alpha * t + vals)
    form = "physical" if inverse else "rescaled"
    return RadialField(u=out, t=t, form=form), mask


def inversion_transform(field: RadialField, grid: AnnulusGrid,
                        params: ModelParams) -> RadialField:
    """u_bar(r) = r^{-(n-2)/m} u(1/r) on the mirrored grid; an involution."""
    r = grid.r
    mirror = r * r[::-1]
    if np.max(np.abs(mirror - 1.0)) > 1e-12:
        raise EvolutionError("inversion needs a grid symmetric under r <-> 1/r")
    cexp = (params.n - 2) / params.m
    u_bar = r ** (-cexp) * field.u[::-1]
    form = "physical" if field.form == "inverted" else "inverted"
    return RadialField(u=u_bar, t=field.t, form=form)


def inversion_residual_check(traj: Trajectory, grid: AnnulusGrid,
                             params: ModelParams) -> dict:
    """Discrete residual of the inverted equation on a trajectory.

    For consecutive snapshots the time difference of u_bar must match
    (n-1)/m |x|^{n+2-(n-2)/m} Delta u_bar^m evaluated at the time midpoint;
    reports the max scaled interior residual.
    """
    n, m = params.n, params.m
    einv, ap, am = grid.coeffs(n)
    w_fac = np.exp((n + 2 - (n - 2) / m) * grid.s)
    c0 = (n - 1) / m
    worst = 0.0
    for k in range(len(traj.times) - 1):
        f0 = inversion_transform(RadialField(traj.fields[k], traj.times[k], traj.config.form),
                                 grid, params)
        f1 = inversion_transform(RadialField(traj.fields[k + 1], traj.times[k + 1], traj.config.form),
                                 grid, params)
        dt = traj.times[k + 1] - traj.times[k]
        du = (f1.u - f0.u) / dt
        um = (0.5 * (f0.u + f1.u)) ** m
        lap = einv[1:-1] * (ap[1:-1] * (um[2:] - um[1:-1]) - am[1:-1] * (um[1:-1] - um[:-2]))
        rhs = c0 * w_fac[1:-1] * lap
        scale = np.maximum(np.abs(rhs), np.abs(du[1:-1])) + 1e-300
        worst = max(worst, float(np.max(np.abs(du[1:-1] - rhs) / scale)))
    return {"max_scaled_residual": worst}


# -- proof-device checks ---------------------------------------------------


def check_scaling_identities(params: ModelParams, eta1: float, eta2: float, beta_tilde2: float,
                             n_samples: int = 50, tol: float = 1e-10) -> dict:
    """Verify the four profile transformation identities on independent runs.

    Computes profiles independently at eta1, eta2 and beta~ = -params.beta,
    beta_tilde2, and evaluates each identity on a log-spaced sample spanning
    the inner and far-field branches; reports the max relative deviation per identity.
    """
    if n_samples < 2:
        raise ProfileError("need at least 2 sample radii")
    n, m, beta_tilde1 = params.n, params.m, -params.beta
    one_m = 1.0 - m

    def prof_for(eta, bt):
        p = ModelParams(n=n, m=m, beta=-bt)
        return compute_profile(ProfileRequest(params=p, eta=eta, tol=tol))

    p_11 = prof_for(eta1, beta_tilde1)
    p_21 = prof_for(eta2, beta_tilde1)
    p_12 = prof_for(eta1, beta_tilde2)
    amp = (beta_tilde2 / beta_tilde1) ** (1.0 / one_m)
    p_amp = prof_for(amp * eta1, beta_tilde1)

    smax = p_11.request.s_max
    r_g = np.geomspace(2.0 * p_11.request.r0, math.exp(0.45 * smax), n_samples)
    r_f = 1.0 / r_g[::-1]
    q, g1c = p_11.constants.q, p_11.constants.gamma1

    out = {}

    # g identity in eta: g_{bt1,eta1}(r) = (eta1/eta2) g_{bt1,eta2}((eta1/eta2)^{m(1-m)/q} r)
    fac = (eta1 / eta2) ** (m * one_m / q)
    lhs, _ = p_11.eval_g_log(r_g)
    rhs, _ = p_21.eval_g_log(fac * r_g)
    out["g_eta"] = float(np.max(np.abs(lhs - (math.log(eta1 / eta2) + rhs))))

    # g identity in beta~: g_{bt1, amp*eta1}(r) = amp * g_{bt2, eta1}(r)
    lhs, _ = p_amp.eval_g_log(r_g)
    rhs, _ = p_12.eval_g_log(r_g)
    out["g_beta"] = float(np.max(np.abs(lhs - (math.log(amp) + rhs))))

    # f identity in A (A = eta): f_{b1,A1}(r) = (A2/A1)^{2/((1-m)g1)} f_{b1,A2}((A2/A1)^{1/g1} r)
    ra = (eta2 / eta1) ** (1.0 / g1c)
    lhs, _ = p_11.eval_f_log(r_f)
    rhs, _ = p_21.eval_f_log(ra * r_f)
    out["f_A"] = float(np.max(np.abs(lhs - (2.0 / (one_m * g1c) * math.log(eta2 / eta1) + rhs))))

    # f identity in beta: f_{b1, amp*A1}(r) = amp * f_{b2, A1}(r)
    lhs, _ = p_amp.eval_f_log(r_f)
    rhs, _ = p_12.eval_f_log(r_f)
    out["f_beta"] = float(np.max(np.abs(lhs - (math.log(amp) + rhs))))

    out["max_deviation"] = max(out["g_eta"], out["g_beta"], out["f_A"], out["f_beta"])
    out["threshold"] = 100.0 * tol
    out["ok"] = out["max_deviation"] <= out["threshold"]
    return out


def difference_constant_check(prof1: Profile, lam1: float, lam2: float, r_lo: float = 1e-6,
                              r_hi: float = 1e-3, n_samples: int = 16) -> dict:
    """Profile-difference law near the origin.

    D(r) = (f_{lam2} - f_{lam1}) r^{2/(1-m)} (log 1/r)^{-m/(1-m)} must approach
    B^{m/(1-m)} (B/(1-m)) log(lam1/lam2), B = prof1.constants.blowup_const, and
    stay positive.  lam1 >= lam2 required; equal lambdas give D == 0.
    """
    if lam1 < lam2:
        raise ValueError(f"need lam1 >= lam2 > 0, got lam1={lam1!r}, lam2={lam2!r}")
    c, m = prof1.constants, prof1.request.params.m
    one_m = 1.0 - m
    r = np.geomspace(r_lo, r_hi, n_samples)
    f2 = prof1.eval_f_lambda(lam2, r)
    f1 = prof1.eval_f_lambda(lam1, r)
    D = (f2 - f1) * r ** (2.0 / one_m) * np.log(1.0 / r) ** (-m / one_m)
    target = c.blowup_const ** (m / one_m) * c.blowup_const / one_m * math.log(lam1 / lam2)
    if lam1 == lam2:
        return {"r": r, "D": D, "target": 0.0, "max_rel_dev": float(np.max(np.abs(D))),
                "all_positive": True, "ok": bool(np.all(D == 0.0))}
    rel = np.abs(D / target - 1.0)
    return {
        "r": r,
        "D": D,
        "target": target,
        "max_rel_dev": float(np.max(rel)),
        "all_positive": bool(np.all(D > 0.0)),
        "ok": bool(np.max(rel) <= 0.10 and np.all(D > 0.0)),
    }
