"""Radial evolution of the fast diffusion equation on a punctured annulus.

The domain is A_R = {1/R < r < R} with nodes uniform in s = log r, mirrored
under r <-> 1/r to reciprocal rounding.  Two forms are stepped with backward
Euler and damped Newton (tridiagonal solves, see _kernels):

* physical:  u_t = (n-1)/m * r^{1-n} (r^{n-1} (u^m)_r)_r
* rescaled:  the same diffusion plus alpha*u and the advection beta*r*u_r,
  discretized hybrid central/upwind (central where the cell Peclet number
  admits it, see _kernels).  Since beta < 0 the rescaled characteristics
  move outward (ds/dt = -beta > 0), so the upwind side is the smaller-s
  neighbor.

Dirichlet data comes from the self-similar family (f_lambda, U_lambda), the
Barenblatt solution, or a constant.  A run given an ordering band (lam1,
lam2) checks its initial data against it; with ``monitors`` set it also
reduces the ordering gaps and the Aronson-Benilan-type excess over the
accepted steps to their extrema as it goes, and reports them as
``Trajectory.monitors``: diagnostics with truncation-scaled slacks, not
assertions.  A finished Trajectory is immutable; independent runs can
execute concurrently.

The snapshot times are the run's clock: a step of dt (or of the sub-step
left by a rejection) that ends within _LAND * dt of the next snapshot ends
on it, and only one that overshoots by more is clipped.  So
``Trajectory.times`` is the config's ``snapshot_times`` itself.

A run reads its boundary data from a table keyed by step end time, filled by
one ``BoundarySpec.values`` call for the next ``_REPLAY`` steps as replayed
without rejections.  A step not in the table (the first, one after a
rejection, one past the table's end) refills it: a wrong replay costs time,
never bits.  A boundary value that is not finite and positive, in the table
or at t = 0, ends the run with an EvolutionError.

A Newton solve starts from the quadratic extrapolation 3u - 3u_prev +
u_prev2 of the last three states when the step repeats the dt of the last
two, from the linear one 2u - u_prev when it repeats only the last, and
from u otherwise (also when the extrapolation is not positive).  From a
quadratic start most steps need one Newton iteration (see _kernels).  The
linear extrapolation's error, ``Trajectory.trunc_time``, is reduced over the
steps only by a run that reads it: one with monitors, whose slacks it
scales, or one asked for it with ``run(cfg, trunc=True)``.

There is one stepping loop, and ``run`` is its batch of one.  ``run_batch``
steps runs that share the clock (dt, snapshot times, newton_tol), the form,
params, profile, boundary data and R through it together: their states are
stacked end to end as blocks of one Newton system (see _kernels.Blocks), so
each step forms one predictor, reads one boundary table and makes one
``newton_step`` call.  The blocks take exactly the iterates of separate
runs.  The Blocks is also the kernel record of the batch (or of a lone
run): built once, it keeps the step's coefficients that stay fixed over
it.  A rejected step or an error in a batch of more than one abandons it,
and its runs go again one at a time, so a batch gives ``run``'s states and
``run``'s exceptions bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._kernels import Blocks, newton_step
from .params import ModelParams, derive_constants
from .profile import Profile

__all__ = [
    "EvolutionError",
    "AnnulusGrid",
    "BoundarySpec",
    "InitialSpec",
    "EvolutionConfig",
    "check_clock",
    "Trajectory",
    "build_grid",
    "barenblatt_oracle",
    "run",
    "run_batch",
]


class EvolutionError(RuntimeError):
    """Solver setup or time stepping failed."""


def _check_kind(spec, what: str, needs: dict):
    """Reject an unknown kind, or a kind whose keys in ``needs`` are not all set."""
    if spec.kind not in needs:
        raise EvolutionError(f"unknown {what} kind {spec.kind!r}")
    for key in needs[spec.kind]:
        if getattr(spec, key) is None:
            raise EvolutionError(f"{what} kind {spec.kind!r} needs {key}")


@dataclass(frozen=True)
class AnnulusGrid:
    """Log-uniform grid on [1/R, R], exactly mirror-symmetric under r <-> 1/r;
    R, N and ds are read off the nodes, so they cannot disagree with them."""

    s: np.ndarray
    r: np.ndarray

    @property
    def R(self) -> float:
        return float(self.r[-1])

    @property
    def N(self) -> int:
        return self.s.size

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])

    def coeffs(self, n: int):
        """Flux-form operator weights (einv, ap, am) for dimension n."""
        s, ds = self.s, self.ds
        einv = np.exp(-n * s) / ds ** 2
        ap = np.exp((n - 2) * (s + 0.5 * ds))
        am = np.exp((n - 2) * (s - 0.5 * ds))
        return einv, ap, am


def build_grid(R: float, N: int) -> AnnulusGrid:
    if not 1.0 < R < math.inf:
        raise EvolutionError(f"need finite R > 1, got R={R!r}")
    if N < 16:
        raise EvolutionError(f"need N >= 16, got {N!r}")
    L = math.log(R)
    s = np.linspace(-L, L, N)
    r = np.exp(s)
    # exact outer endpoint, lower half mirrored exactly so r[i] * r[N-1-i] == 1
    r[N - 1] = R
    half = N // 2
    r[:half] = 1.0 / r[N - 1: N - 1 - half: -1]
    if N % 2 == 1:
        r[half] = 1.0
    return AnnulusGrid(s=s, r=r)


@dataclass(frozen=True)
class BoundarySpec:
    """Dirichlet data at the two endpoints.

    kinds: "f_lambda" (static profile clamp), "U_lambda" (time-varying exact
    solution), "barenblatt" (time-varying exact solution, parameters k and
    extinction time T), "constant".
    """

    kind: str
    lam: Optional[float] = None
    k: Optional[float] = None
    T: Optional[float] = None
    value: Optional[float] = None

    def __post_init__(self):
        _check_kind(self, "boundary", {"f_lambda": ("lam",), "U_lambda": ("lam",),
                                       "barenblatt": ("k", "T"), "constant": ("value",)})

    def values(self, times, r_ends: np.ndarray, profile: Optional[Profile],
               params: ModelParams) -> np.ndarray:
        """The data at r_ends, one row per time in ``times``."""
        if self.kind in ("f_lambda", "U_lambda"):  # f_lambda is U_lambda at t = 0
            ts = times if self.kind == "U_lambda" else np.zeros(len(times))
            return profile.eval_U_lambda(self.lam, r_ends, ts)
        if self.kind == "barenblatt":
            return np.array([barenblatt_oracle(r_ends, t, self.k, self.T, params) for t in times])
        return np.full((len(times), r_ends.size), self.value, dtype=float)  # constant


@dataclass(frozen=True)
class InitialSpec:
    """Initial data on the grid.

    kinds: "f_lambda", "blend" (theta f_{lam1} + (1-theta) f_{lam2}),
    "bump" (f_{lam0} * (1 + amplitude * s-bump on [r_lo, r_hi])),
    "barenblatt", "table" (r, u arrays, pchip-resampled), "constant".
    """

    kind: str
    lam: Optional[float] = None
    lam1: Optional[float] = None
    lam2: Optional[float] = None
    theta: Optional[float] = None
    lam0: Optional[float] = None
    amplitude: Optional[float] = None
    r_lo: Optional[float] = None
    r_hi: Optional[float] = None
    k: Optional[float] = None
    T: Optional[float] = None
    value: Optional[float] = None
    table_r: Optional[np.ndarray] = None
    table_u: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_kind(self, "initial", {
            "f_lambda": ("lam",), "blend": ("lam1", "lam2", "theta"),
            "bump": ("lam0", "amplitude", "r_lo", "r_hi"), "barenblatt": ("k", "T"),
            "table": ("table_r", "table_u"), "constant": ("value",)})
        if self.kind == "table":
            r, u = np.asarray(self.table_r, dtype=float), np.asarray(self.table_u, dtype=float)
            if r.ndim != 1 or r.size < 2 or u.shape != r.shape:
                raise EvolutionError(f"initial table_r and table_u need equal lengths >= 2, "
                                     f"got {r.size} and {u.size}")
            if not (r[0] > 0.0 and np.all(np.diff(r) > 0.0) and r[-1] < math.inf):
                raise EvolutionError("initial table_r must be positive, finite and increasing")
            if not np.all((u > 0.0) & (u < math.inf)):
                raise EvolutionError("initial table_u must be positive and finite")
        if self.kind == "bump" and not 0.0 < self.r_lo < self.r_hi:
            raise EvolutionError(f"initial bump needs 0 < r_lo < r_hi, "
                                 f"got r_lo={self.r_lo!r}, r_hi={self.r_hi!r}")

    def values(self, grid: AnnulusGrid, profile: Optional[Profile],
               params: ModelParams) -> np.ndarray:
        r = grid.r
        if self.kind == "f_lambda":
            return profile.eval_f_lambda(self.lam, r)
        if self.kind == "blend":
            th = self.theta
            return (th * profile.eval_f_lambda(self.lam1, r)
                    + (1.0 - th) * profile.eval_f_lambda(self.lam2, r))
        if self.kind == "bump":
            base = profile.eval_f_lambda(self.lam0, r)
            s_lo, s_hi = math.log(self.r_lo), math.log(self.r_hi)
            phase = np.clip((grid.s - s_lo) / (s_hi - s_lo), 0.0, 1.0)
            bump = np.sin(math.pi * phase) ** 2
            return base * (1.0 + self.amplitude * bump)
        if self.kind == "barenblatt":
            return barenblatt_oracle(r, 0.0, self.k, self.T, params)
        if self.kind == "table":
            ip = PchipInterpolator(np.log(self.table_r), np.log(self.table_u))
            with np.errstate(over="ignore"):  # run rejects the inf an overflow gives
                return np.exp(ip(grid.s))
        return np.full(r.shape, self.value, dtype=float)  # constant


def barenblatt_oracle(r, t: float, k: float, T: float, params: ModelParams):
    """Exact extinguishing Barenblatt solution; zero after the extinction time T."""
    if not k > 0.0:
        raise EvolutionError(f"need k > 0, got {k!r}")
    if t < 0.0:
        raise EvolutionError(f"need t >= 0, got {t!r}")
    r = np.asarray(r, dtype=float)
    if t >= T:
        return np.zeros_like(r)
    c = derive_constants(params)
    tau = T - t
    return (tau ** (params.n / c.q)
            * (c.cstar / (k + tau ** (2.0 / c.q) * r * r)) ** (1.0 / (1.0 - params.m)))


_MAX_STEPS = 10 ** 6  # most steps a run may take: minutes at contract's ~0.1 ms a step


def check_clock(dt: float, snapshot_times, newton_tol: float) -> np.ndarray:
    """The snapshot times as a float array, once dt, the times and newton_tol
    make a run of at most _MAX_STEPS steps of dt; EvolutionError otherwise.
    A caller that builds costly inputs for a run checks its clock first."""
    if not 0.0 < dt < math.inf:
        raise EvolutionError(f"dt must be positive and finite, got {dt!r}")
    if not 0.0 < newton_tol < math.inf:
        raise EvolutionError(f"newton_tol must be positive and finite, got {newton_tol!r}")
    st = np.asarray(snapshot_times, dtype=float)
    if (st.ndim != 1 or st.size < 2 or not np.all(np.isfinite(st)) or st[0] != 0.0
            or np.any(np.diff(st) <= 0.0)):
        raise EvolutionError("need >= 2 finite snapshot times that start at 0 and increase")
    steps = float(st[-1]) / dt
    if steps > _MAX_STEPS:
        raise EvolutionError(f"dt={dt!r} takes {steps:.3g} steps to t={float(st[-1])!r}, "
                             f"over the limit of {_MAX_STEPS}")
    return st


@dataclass
class EvolutionConfig:
    """Everything one run needs."""

    grid: AnnulusGrid
    params: ModelParams
    form: str                    # "physical" | "rescaled"
    initial: InitialSpec
    boundary: BoundarySpec
    dt: float
    snapshot_times: np.ndarray   # the run's clock: from 0 to its end
    profile: Optional[Profile] = None
    newton_tol: float = 1e-11
    monitors: bool = False         # reduce the ordering and AB monitors over the steps
    lam1: Optional[float] = None   # ordering band: f_{lam1} <= u <= f_{lam2}
    lam2: Optional[float] = None

    def __post_init__(self):
        if self.form not in ("physical", "rescaled"):
            raise EvolutionError(f"form must be physical|rescaled, got {self.form!r}")
        self.snapshot_times = check_clock(self.dt, self.snapshot_times, self.newton_tol)


@dataclass
class Trajectory:
    """Snapshots plus monitor verdicts and solver statistics; ``config`` holds
    the run's grid, form, profile and snapshot times."""

    fields: np.ndarray           # (n_snapshots, N)
    monitors: Optional[dict]     # {"aronson_benilan": ..., "ordering": ...}; None without
    newton_iters_total: int
    rejections: int
    trunc_time: Optional[float]  # max |U - (2u - u_prev)| / dt over repeated-dt steps;
                                 # None unless run with trunc or monitors
    trunc_space: float           # max |second s-difference| over snapshots
    config: EvolutionConfig

    @property
    def times(self) -> np.ndarray:
        """config.snapshot_times: the run ends a step on each of them."""
        return self.config.snapshot_times


def _ordering_bounds(cfg: EvolutionConfig, t: float):
    """The band (U_lam1, U_lam2) of cfg on its grid at time t; at t = 0 in the rescaled form."""
    r, t = cfg.grid.r, t if cfg.form == "physical" else 0.0
    return cfg.profile.eval_U_lambda(cfg.lam1, r, t), cfg.profile.eval_U_lambda(cfg.lam2, r, t)


_REPLAY = 1024  # most step end times in one boundary table; bounds its memory
_LAND = 1e-9    # a step ending within _LAND * dt of a snapshot ends on it


def _next_step(cfg: EvolutionConfig, t: float, sub: float, next_snap: int):
    """The next step from state (t, sub, next_snap) as (dt, state after it),
    or None after the last snapshot.  The step is the sub-step capped at dt;
    one that ends within _LAND * dt of the next snapshot ends on it, and one
    that overshoots it by more is clipped to it.  Once accepted, the
    sub-step doubles back towards dt."""
    if next_snap == len(cfg.snapshot_times):
        return None
    dt, target, sub = min(sub, cfg.dt), cfg.snapshot_times[next_snap], min(sub * 2.0, cfg.dt)
    if t + dt < target - _LAND * cfg.dt:
        return dt, t + dt, sub, next_snap
    return (dt if t + dt <= target + _LAND * cfg.dt else target - t), target, sub, next_snap + 1


def _step_ends(cfg: EvolutionConfig, *state) -> list:
    """End times of the next _REPLAY steps from state (t, sub, next_snap) if none is rejected."""
    ends = []
    while len(ends) < _REPLAY and (step := _next_step(cfg, *state)) is not None:
        state = step[1:]
        ends.append(step[1])
    return ends


def _boundary_data(cfg: EvolutionConfig, times, r_ends: np.ndarray) -> np.ndarray:
    """cfg's boundary data at r_ends, one row per time; EvolutionError, naming
    the kind, time and value, where a value is not finite and positive."""
    vals = cfg.boundary.values(times, r_ends, cfg.profile, cfg.params)
    bad = ~((vals > 0.0) & (vals < math.inf))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise EvolutionError(f"boundary kind {cfg.boundary.kind!r} gives {float(vals[i, j])!r} "
                             f"at t={float(times[i])!r}; boundary data must be finite and > 0")
    return vals


class _Rejected(Exception):
    """A run of a stacked batch rejected a step."""


def _stack_key(cfg: EvolutionConfig) -> tuple:
    """What the runs of one stack share: all that the loop and the kernel
    read but each run's N, initial data, ordering band and monitors."""
    b_ds = cfg.params.beta / cfg.grid.ds if cfg.form == "rescaled" else 0.0
    return (cfg.dt, cfg.snapshot_times.tobytes(), cfg.newton_tol, cfg.form, cfg.params,
            id(cfg.profile), cfg.boundary, cfg.grid.R, b_ds)


def run(cfg: EvolutionConfig, trunc: bool = False) -> Trajectory:
    """Advance a configured run, recording snapshots and, with cfg.monitors,
    the worst AB excess and ordering gaps over the accepted steps.  With
    trunc or cfg.monitors it also reduces trunc_time over the steps;
    otherwise trunc_time is None.  It is the batch of one of ``run_batch``."""
    return _advance([cfg], trunc)[0]


def run_batch(cfgs, trunc: bool = False) -> list:
    """[run(cfg, trunc) for cfg in cfgs], bit for bit.

    Runs that share dt, snapshot times, newton_tol, form, params, profile,
    boundary data and R (and, in the rescaled form, N) go through the one
    stepping loop together, stacked end to end: each step forms one
    predictor, reads one boundary table and makes one ``newton_step`` call.
    If any of them rejects a step or raises, the batch is abandoned and each
    run goes again alone, so every state, and every exception, is run's.
    """
    cfgs = list(cfgs)
    if len(cfgs) > 1 and len({_stack_key(cfg) for cfg in cfgs}) == 1:
        try:
            return _advance(cfgs, trunc)
        except Exception:  # any failure: the runs go again alone, and run raises its own
            pass
    return [run(cfg, trunc) for cfg in cfgs]


def _advance(cfgs: list, trunc: bool) -> list:
    """The stepping loop of ``run_batch``'s runs cfgs, which share its stack
    key; a stack of more than one raises _Rejected at a rejected step."""
    cfg = cfgs[0]  # the clock, form, params, profile, boundary and R of all
    c = derive_constants(cfg.params)
    r_ends = np.array([cfg.grid.r[0], cfg.grid.r[-1]])
    u0, bands = [], []
    for each in cfgs:
        u = each.initial.values(each.grid, each.profile, each.params)
        if not np.all((u > 0.0) & (u < math.inf)):
            raise EvolutionError("initial data must be finite and > 0")
        band = each.lam1 is not None and each.lam2 is not None
        if each.monitors and not band:
            raise EvolutionError("ordering monitors need lam1 and lam2")
        if band:
            lo, hi = _ordering_bounds(each, 0.0)
            slack0 = 1e-9 * float(np.max(hi))
            if np.any(u < lo - slack0) or np.any(u > hi + slack0):
                raise EvolutionError("initial data violates the ordering band f_lam1 <= u0 <= f_lam2")
        u0.append(u)
        bands.append((lo, hi) if band else None)

    n, m = cfg.params.n, cfg.params.m
    einv, ap, am = (np.concatenate(w) for w in zip(*(each.grid.coeffs(n) for each in cfgs)))
    c0 = (n - 1) / m
    rescaled = cfg.form == "rescaled"
    alpha = c.alpha if rescaled else 0.0
    b_ds = (cfg.params.beta / cfg.grid.ds) if rescaled else 0.0

    # the kernel record: one block of nodes per run, stacked end to end
    sizes = [each.grid.N for each in cfgs]
    blocks = Blocks(sizes)
    starts, ends = blocks.starts, blocks.ends

    # clamp initial endpoints to the boundary data so step 1 is consistent
    u = np.concatenate(u0)
    bc = _boundary_data(cfg, [0.0], r_ends)[0]
    for s, e in zip(starts, ends):
        u[s], u[e - 1] = bc

    fields = [np.empty((len(cfg.snapshot_times), N)) for N in sizes]
    for f, s, e in zip(fields, starts, ends):
        f[0] = u[s:e]

    K = len(cfgs)
    ab_max, lo_min, hi_min = [-math.inf] * K, [math.inf] * K, [math.inf] * K  # monitor extrema
    iters_total, rejections = [0] * K, 0
    watched = [(k, each) for k, each in enumerate(cfgs) if each.monitors]
    trunc_any = trunc or bool(watched)
    trunc_time = [0.0] * K
    u_prev = u_prev2 = None
    dt_prev = dt_prev2 = None

    t, sub, next_snap = 0.0, cfg.dt, 1
    table = {}  # step end time -> boundary values
    while (step := _next_step(cfg, t, sub, next_snap)) is not None:
        dt_try, t_new, sub_next, snap_next = step
        if t_new not in table:
            ends_t = _step_ends(cfg, t, sub, next_snap)
            table = dict(zip(ends_t, _boundary_data(cfg, ends_t, r_ends)))
        bc = table[t_new]
        # predictor: the linear extrapolation when dt repeats the last
        # accepted step's, the quadratic one when it repeats the last two;
        # the linear one is formed there too only where trunc_time reads it.
        # A block whose predictor is not positive starts from u.
        pred = lin = None
        if dt_prev == dt_try:
            if trunc_any or dt_prev2 != dt_try:
                pred = lin = 2.0 * u - u_prev
            if dt_prev2 == dt_try:
                pred = u - u_prev
                pred *= 3.0
                pred += u_prev2
        good = [False] * K if pred is None else (np.minimum.reduceat(pred, starts) > 0.0).tolist()
        blocks.from_pred = good
        U0 = (pred if all(good) else None if not any(good)
              else np.where(np.repeat(good, sizes), pred, u))
        U, iters, ok = newton_step(u, dt_try, bc[0], bc[1], m, c0, einv, ap, am,
                                   alpha, b_ds, cfg.newton_tol, 50, U0, blocks=blocks)
        for k, i in enumerate(blocks.iters if K > 1 else (iters,)):
            iters_total[k] += i
        if not ok:
            if K > 1:
                raise _Rejected
            rejections += 1
            sub = dt_try * 0.5
            if sub < 1e-12 * cfg.dt:
                raise EvolutionError(
                    f"time step underflow at t={float(t)!r}; last good snapshot at "
                    f"t={float(cfg.snapshot_times[next_snap - 1])!r}"
                )
            continue
        for k, kcfg in watched:
            Uk, uk = U[starts[k]:ends[k]], u[starts[k]:ends[k]]
            # short snapshot-clipped steps amplify Newton-tolerance noise in
            # the difference quotient by 1/dt; skip the AB excess there
            if dt_try >= 0.1 * cfg.dt:
                excess = (Uk[1:-1] - uk[1:-1]) / dt_try - Uk[1:-1] / ((1.0 - m) * t_new)
                ab_max[k] = max(ab_max[k], float(np.max(excess)))
            if not rescaled:  # the rescaled band does not depend on t
                bands[k] = _ordering_bounds(kcfg, t_new)
            lo, hi = bands[k]
            lo_min[k] = min(lo_min[k], float(np.min(Uk - lo)))
            hi_min[k] = min(hi_min[k], float(np.min(hi - Uk)))
        if trunc_any and lin is not None:
            err = U - lin
            worst = np.maximum.reduceat(np.abs(err, out=err), starts).tolist()
            trunc_time = [max(tt, w / dt_try) for tt, w in zip(trunc_time, worst)]
        u_prev2, dt_prev2 = u_prev, dt_prev
        u_prev, dt_prev, u = u, dt_try, U
        if snap_next > next_snap:  # the step ended on a snapshot time
            for f, s, e in zip(fields, starts, ends):
                f[next_snap] = u[s:e]
        t, sub, next_snap = t_new, sub_next, snap_next

    trajs = []
    for k, kcfg in enumerate(cfgs):
        f = fields[k]
        d2 = np.abs(f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2])
        trunc_space = float(np.max(d2)) if f.shape[1] > 2 else 0.0
        tt = trunc_time[k] if trunc or kcfg.monitors else None
        monitors = None
        if kcfg.monitors:
            if ab_max[k] == -math.inf:
                spacing = float(np.max(np.diff(cfg.snapshot_times)))
                raise EvolutionError(f"the Aronson-Benilan monitor needs a step >= 0.1*dt and "
                                     f"no step was: dt={cfg.dt!r}, snapshot spacing {spacing!r}")
            # the AB inequality is a property of the physical flow, so scheme
            # noise up to 10x the truncation estimates is expected, not a failure
            ab_slack, ord_slack = 10.0 * tt, 10.0 * (tt * cfg.dt + trunc_space)
            monitors = {
                "aronson_benilan": {"max_excess": ab_max[k], "slack": ab_slack,
                                    "ok": ab_max[k] <= ab_slack},
                "ordering": {"gap_lo_min": lo_min[k], "gap_hi_min": hi_min[k], "slack": ord_slack,
                             "ok": lo_min[k] >= -ord_slack and hi_min[k] >= -ord_slack},
            }
        trajs.append(Trajectory(fields=f, monitors=monitors, newton_iters_total=iters_total[k],
                                rejections=rejections, trunc_time=tt, trunc_space=trunc_space,
                                config=kcfg))
    return trajs
