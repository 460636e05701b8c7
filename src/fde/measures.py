"""Weighted L1 norms, contraction verdicts and convergence reports.

Three weight families (plus a free-form escape hatch) define the norms:

* power_mu:        |x|^{-mu},                    0 < mu <= mu1,
* profile_gamma2:  f_{lam3}^{m gamma2},
* radial_gamma3:   |x|^{(n-2)/m + (n-2) gamma3 - 2n} f_{lam3}^{m gamma3},
* custom_power_times_profile:  |x|^p f_{lam3}^q.

Norms are radial quadratures  omega_n * int |a-b| w(r) r^{n-1} dr  computed
with the trapezoid rule in s = log r (integrand * r^n in s), exact for
integrands constant in s.

Contraction verdicts separate PDE-level claims from scheme noise: a series
is PASS only when genuinely nonincreasing (up to a 1e-8 floor); violations
below the resolution-estimated slack are INCONCLUSIVE, above it FAIL.  Every
report carries the note that the annulus Dirichlet approximation, not the
whole-space problem, is being tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gamma as gamma_fn

from .evolution import AnnulusGrid, Trajectory
from .params import DerivedConstants, ModelParams, validate_regime
from .profile import Profile

__all__ = [
    "MeasureError",
    "WeightSpec",
    "unit_sphere_area",
    "weighted_l1",
    "contraction_report",
    "convergence_report",
    "ANNULUS_NOTE",
]

ANNULUS_NOTE = ("verdict tests the annulus Dirichlet approximation of the "
                "punctured-space problem, not the whole-space statement")


class MeasureError(ValueError):
    """Invalid weight or mismatched inputs."""


def unit_sphere_area(n: int) -> float:
    """Surface area of S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / gamma_fn(n / 2.0)


@dataclass(frozen=True)
class WeightSpec:
    """One weight family instance; evaluates to strictly positive node values.

    profile weights need the eta=1 Profile for f_{lam3}; construction
    enforces the validity regime of the corresponding contraction theorem
    (power_mu: the mu range including the mu = mu1 edge condition;
    profile_gamma2 / radial_gamma3: their (n, m) windows).
    """

    kind: str
    params: ModelParams
    constants: DerivedConstants
    mu: Optional[float] = None
    lam3: Optional[float] = None
    profile: Optional[Profile] = None
    power: Optional[float] = None      # custom: |x|^power
    exponent: Optional[float] = None   # custom: f_{lam3}^exponent

    def __post_init__(self):
        reg = validate_regime(self.params, self.mu)
        if self.kind == "power_mu":
            if self.mu is None:
                raise MeasureError("power_mu weight needs mu")
            ok, reason = reg.thm13_mu_range, reg.thm13_reason
        elif self.kind == "profile_gamma2":
            self._need_profile()
            ok, reason = reg.thm15_16, reg.thm15_16_reason
        elif self.kind == "radial_gamma3":
            self._need_profile()
            ok, reason = reg.thm17, reg.thm17_reason
        elif self.kind == "custom_power_times_profile":
            self._need_profile()
            ok = self.power is not None and self.exponent is not None
            reason = "needs power and exponent"
        else:
            raise MeasureError(f"unknown weight kind {self.kind!r}")
        if not ok:
            raise MeasureError(f"{self.kind} weight: {reason}")

    def _need_profile(self):
        if self.profile is None or self.lam3 is None or not self.lam3 > 0.0:
            raise MeasureError(f"{self.kind} weight needs the eta=1 profile and lam3 > 0")

    def values(self, r, lam3_override: Optional[float] = None) -> np.ndarray:
        """Weight at radii r (vectorized, strictly positive)."""
        r = np.asarray(r, dtype=float)
        n, m = self.params.n, self.params.m
        c = self.constants
        lam3 = self.lam3 if lam3_override is None else lam3_override
        if self.kind == "power_mu":
            return r ** (-self.mu)
        if self.kind == "profile_gamma2":
            lnf, _ = self.profile.eval_f_lambda_log(lam3, r, with_rat=False)
            return np.exp(m * c.gamma2 * lnf)
        if self.kind == "radial_gamma3":
            lnf, _ = self.profile.eval_f_lambda_log(lam3, r, with_rat=False)
            p = (n - 2) / m + (n - 2) * c.gamma3 - 2.0 * n
            return np.exp(p * np.log(r) + m * c.gamma3 * lnf)
        lnf, _ = self.profile.eval_f_lambda_log(lam3, r, with_rat=False)
        return np.exp(self.power * np.log(r) + self.exponent * lnf)


def _l1(diff, w, grid: AnnulusGrid, n: int) -> float:
    """omega_n * int |diff|(r) w(r) r^{n-1} dr by the trapezoid rule in s."""
    return unit_sphere_area(n) * float(np.trapezoid(np.abs(diff) * w * grid.r ** n, grid.s))


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


def _series(traj1: Trajectory, traj2: Trajectory, weight, grid, positive_part=False,
            lam3_of_t=None) -> np.ndarray:
    n = weight.params.n
    out = np.empty(len(traj1.times))
    for k, t in enumerate(traj1.times):
        w = weight.values(grid.r, lam3_override=lam3_of_t(t) if lam3_of_t else None)
        diff = traj1.fields[k] - traj2.fields[k]
        if positive_part:
            diff = np.maximum(diff, 0.0)
        out[k] = _l1(diff, w, grid, n)
    return out


def _verdict(series: np.ndarray, slack: np.ndarray) -> str:
    inc = np.diff(series)
    if np.all(inc <= 1e-8):
        return "PASS"
    if np.all(inc <= slack[1:]):
        return "INCONCLUSIVE"
    return "FAIL"


def contraction_report(traj1: Trajectory, traj2: Trajectory, weight: WeightSpec,
                       grid: AnnulusGrid,
                       half_pair: Optional[tuple] = None,
                       half_grid: Optional[AnnulusGrid] = None,
                       rescaled_variant: bool = False) -> dict:
    """Weighted-L1 distance series between two runs, with a verdict.

    Requires shared grid, snapshot times and boundary data.  When a
    half-resolution rerun pair is supplied, the per-snapshot slack is
    1e-8 + 10x the norm shift between resolutions; otherwise 1e-8 alone.
    With rescaled_variant=True (trajectories in rescaled form) the series
    uses the time-inflated weight lam3 -> e^{-beta t} lam3.
    """
    if traj1.form != traj2.form:
        raise MeasureError("trajectories must share the form")
    if len(traj1.times) != len(traj2.times) or np.max(np.abs(traj1.times - traj2.times)) > 1e-12:
        raise MeasureError("trajectories must share snapshot times")
    b1, b2 = traj1.config.boundary, traj2.config.boundary
    if b1 != b2:
        return {
            "verdict": "NOT_APPLICABLE",
            "note": "boundary data differ; contraction claim not applicable",
            "times": traj1.times,
        }
    lam3_of_t = None
    if rescaled_variant:
        if traj1.form != "rescaled":
            raise MeasureError("rescaled_variant needs rescaled-form trajectories")
        beta = weight.params.beta
        lam3_of_t = lambda t: weight.lam3 * math.exp(-beta * t)

    series = _series(traj1, traj2, weight, grid, lam3_of_t=lam3_of_t)
    series_pos = _series(traj1, traj2, weight, grid, positive_part=True,
                         lam3_of_t=lam3_of_t)

    slack = np.full_like(series, 1e-8)
    disc_err = None
    if half_pair is not None:
        h1, h2 = half_pair
        hgrid = half_grid if half_grid is not None else grid
        series_half = _series(h1, h2, weight, hgrid, lam3_of_t=lam3_of_t)
        disc_err = 10.0 * np.abs(series - series_half)
        slack = slack + disc_err

    return {
        "times": traj1.times,
        "series": series,
        "series_positive_part": series_pos,
        "slack": slack,
        "discretization_error": disc_err,
        "verdict": _verdict(series, slack),
        "verdict_positive_part": _verdict(series_pos, slack),
        "max_increase": float(np.max(np.diff(series))) if len(series) > 1 else 0.0,
        "note": ANNULUS_NOTE,
    }


def convergence_report(traj: Trajectory, profile: Profile, lam0: float,
                       weight: WeightSpec, grid: AnnulusGrid,
                       K_compact: tuple = (0.5, 2.0),
                       decrease_factor: float = 10.0,
                       e_inf_threshold: Optional[float] = None) -> dict:
    """Convergence of a rescaled run to f_{lam0}.

    e1(t) is the weighted-L1 distance, e_inf(t) the sup distance on the
    compact window K.  PASS needs both to drop by decrease_factor from t=0
    and the final e_inf to sit below the threshold (default
    1e-3 * max_K f_{lam0}).
    """
    if traj.form != "rescaled":
        raise MeasureError("convergence is a statement about the rescaled flow")
    cfg = traj.config
    lam1 = cfg.lam1 if cfg.lam1 is not None else lam0
    lam2 = cfg.lam2 if cfg.lam2 is not None else lam0
    if not (lam1 >= lam0 >= lam2):
        raise MeasureError(
            f"lam0={lam0!r} outside the ordering band [lam2, lam1]=[{lam2!r}, {lam1!r}]")
    target = profile.eval_f_lambda(lam0, grid.r)
    n = weight.params.n
    w = weight.values(grid.r)
    if len(K_compact) != 2:
        raise MeasureError(f"K_compact must hold two radii, got {K_compact!r}")
    sel = (grid.r >= K_compact[0]) & (grid.r <= K_compact[1])
    if not np.any(sel):
        raise MeasureError(f"compact window {K_compact!r} contains no grid nodes")

    e1 = np.empty(len(traj.times))
    e_inf = np.empty(len(traj.times))
    for k in range(len(traj.times)):
        diff = traj.fields[k] - target
        e1[k] = _l1(diff, w, grid, n)
        e_inf[k] = np.max(np.abs(diff[sel]))

    thresh = (1e-3 * float(np.max(target[sel]))
              if e_inf_threshold is None else e_inf_threshold)
    ok = (e1[-1] * decrease_factor <= e1[0]
          and e_inf[-1] * decrease_factor <= e_inf[0]
          and e_inf[-1] <= thresh)
    return {
        "times": traj.times,
        "e1": e1,
        "e_inf": e_inf,
        "e1_factor": float(e1[0] / max(e1[-1], 1e-300)),
        "e_inf_factor": float(e_inf[0] / max(e_inf[-1], 1e-300)),
        "e_inf_final": float(e_inf[-1]),
        "e_inf_threshold": thresh,
        "verdict": "PASS" if ok else "FAIL",
        "note": ANNULUS_NOTE,
    }
