"""Weighted L1 norms, contraction verdicts and convergence reports.

Three weight families (plus a free-form escape hatch) define the norms:

* power_mu:        |x|^{-mu},                    0 < mu <= mu1,
* profile_gamma2:  f_{lam3}^{m gamma2},
* radial_gamma3:   |x|^{(n-2)/m + (n-2) gamma3 - 2n} f_{lam3}^{m gamma3},
* custom_power_times_profile:  |x|^p f_{lam3}^q.

Norms are radial quadratures  omega_n * int |a-b| w(r) r^{n-1} dr  computed
with the trapezoid rule in s = log r (integrand * r^n in s), exact for
integrands constant in s.  A report integrates each series, one row per
snapshot, in one call.

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

from .evolution import AnnulusGrid, Trajectory
from .params import ModelParams, derive_constants, validate_regime
from .profile import Profile

__all__ = [
    "MeasureError",
    "WeightSpec",
    "check_weight",
    "unit_sphere_area",
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
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# kind -> the RegimeReport fields (flag, reason) of its contraction theorem
_REGIME = {"power_mu": ("thm13_mu_range", "thm13_reason"),
           "profile_gamma2": ("thm15_16", "thm15_16_reason"),
           "radial_gamma3": ("thm17", "thm17_reason"),
           "custom_power_times_profile": None}


def check_weight(params: ModelParams, kind: str, mu=None, power=None, exponent=None):
    """The checks of a WeightSpec that need no profile: a known kind, its
    keys, and (n, m, mu) inside the validity regime of the kind's
    contraction theorem; MeasureError otherwise."""
    if kind not in _REGIME:
        raise MeasureError(f"unknown weight kind {kind!r}")
    if kind == "power_mu" and mu is None:
        raise MeasureError("power_mu weight needs mu")
    if kind == "custom_power_times_profile" and (power is None or exponent is None):
        raise MeasureError(f"{kind} weight: needs power and exponent")
    if _REGIME[kind] is not None:
        ok, reason = (getattr(validate_regime(params, mu), f) for f in _REGIME[kind])
        if not ok:
            raise MeasureError(f"{kind} weight: {reason}")


@dataclass(frozen=True)
class WeightSpec:
    """One weight family instance; evaluates to strictly positive node values.

    profile weights need the eta=1 Profile for f_{lam3} and take their
    exponents from derive_constants(params); construction enforces the
    validity regime of the corresponding contraction theorem (power_mu: the
    mu range including the mu = mu1 edge condition; profile_gamma2 /
    radial_gamma3: their (n, m) windows) through ``check_weight``.
    """

    kind: str
    params: ModelParams
    mu: Optional[float] = None
    lam3: Optional[float] = None
    profile: Optional[Profile] = None
    power: Optional[float] = None      # custom: |x|^power
    exponent: Optional[float] = None   # custom: f_{lam3}^exponent

    def __post_init__(self):
        check_weight(self.params, self.kind, self.mu, self.power, self.exponent)
        if self.kind != "power_mu" and (self.profile is None or self.lam3 is None
                                        or not self.lam3 > 0.0):
            raise MeasureError(f"{self.kind} weight needs the eta=1 profile and lam3 > 0")

    def values(self, r) -> np.ndarray:
        """Weight at radii r (vectorized, strictly positive)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "power_mu":
            return r ** (-self.mu)
        # each profile weight is |x|^power f_{lam3}^exponent
        n, m, c = self.params.n, self.params.m, derive_constants(self.params)
        power, exponent = {
            "profile_gamma2": (0.0, m * c.gamma2),
            "radial_gamma3": ((n - 2) / m + (n - 2) * c.gamma3 - 2.0 * n, m * c.gamma3),
            "custom_power_times_profile": (self.power, self.exponent),
        }[self.kind]
        lnf, _ = self.profile.eval_f_lambda_log(self.lam3, r, with_rat=False)
        return np.exp(power * np.log(r) + exponent * lnf)


def _l1(diff, w, grid: AnnulusGrid, n: int):
    """omega_n * int |diff|(r) w(r) r^{n-1} dr by the trapezoid rule in s, for
    each row of diff (a float for one row).  The integrand is built in place
    and summed as np.trapezoid does, with one temporary for the pair sums."""
    y = np.abs(diff)
    y *= w
    y *= grid.r ** n
    y = y[..., 1:] + y[..., :-1]
    y *= np.diff(grid.s)
    y /= 2.0
    return unit_sphere_area(n) * np.add.reduce(y, axis=-1)


def _verdict(series: np.ndarray, slack: np.ndarray) -> str:
    inc = np.diff(series)
    if np.all(inc <= 1e-8):
        return "PASS"
    if np.all(inc <= slack[1:]):
        return "INCONCLUSIVE"
    return "FAIL"


def contraction_report(traj1: Trajectory, traj2: Trajectory, weight: WeightSpec,
                       half: Optional[tuple] = None) -> dict:
    """Weighted-L1 distance series between two runs, with a verdict.

    Runs that differ in form, grid, snapshot times or boundary data raise
    MeasureError; the norms are taken on traj1's grid.  When ``half`` gives
    a half-resolution rerun as the pair (traj1, traj2), the per-snapshot
    slack is 1e-8 + 10x the norm shift between resolutions; otherwise 1e-8
    alone.
    """
    if traj1.config.form != traj2.config.form:
        raise MeasureError("trajectories must share the form")
    for a, b in [(traj1, traj2)] + ([half] if half is not None else []):
        if not np.array_equal(a.config.grid.r, b.config.grid.r):
            raise MeasureError("trajectories must share the grid")
    if len(traj1.times) != len(traj2.times) or np.max(np.abs(traj1.times - traj2.times)) > 1e-12:
        raise MeasureError("trajectories must share snapshot times")
    if traj1.config.boundary != traj2.config.boundary:
        raise MeasureError("trajectories must share the boundary data")
    n, grid = weight.params.n, traj1.config.grid
    w = weight.values(grid.r)
    diff = traj1.fields - traj2.fields
    series = _l1(diff, w, grid, n)
    series_pos = _l1(np.maximum(diff, 0.0, out=diff), w, grid, n)

    slack = np.full_like(series, 1e-8)
    if half is not None:
        h1, h2 = half
        hgrid = h1.config.grid
        series_half = _l1(h1.fields - h2.fields, weight.values(hgrid.r), hgrid, n)
        slack = slack + 10.0 * np.abs(series - series_half)

    return {
        "times": traj1.times,
        "series": series,
        "series_positive_part": series_pos,
        "slack": slack,
        "verdict": _verdict(series, slack),
        "verdict_positive_part": _verdict(series_pos, slack),
        "max_increase": float(np.max(np.diff(series))) if len(series) > 1 else 0.0,
        "note": ANNULUS_NOTE,
    }


def convergence_report(traj: Trajectory, lam0: float, weight: WeightSpec,
                       K_compact: tuple = (0.5, 2.0),
                       decrease_factor: float = 10.0,
                       e_inf_threshold: Optional[float] = None) -> dict:
    """Convergence of a rescaled run to f_{lam0} of its profile, on its grid.

    e1(t) is the weighted-L1 distance, e_inf(t) the sup distance on the
    compact window K.  PASS needs both to drop by decrease_factor from t=0
    and the final e_inf to sit below the threshold (default
    1e-3 * max_K f_{lam0}).
    """
    cfg = traj.config
    if cfg.form != "rescaled":
        raise MeasureError("convergence is a statement about the rescaled flow")
    if cfg.profile is None:
        raise MeasureError("convergence needs the run's eta=1 profile for f_{lam0}")
    grid = cfg.grid
    lam1 = cfg.lam1 if cfg.lam1 is not None else lam0
    lam2 = cfg.lam2 if cfg.lam2 is not None else lam0
    if not (lam1 >= lam0 >= lam2):
        raise MeasureError(
            f"lam0={lam0!r} outside the ordering band [lam2, lam1]=[{lam2!r}, {lam1!r}]")
    target = cfg.profile.eval_f_lambda(lam0, grid.r)
    if len(K_compact) != 2:
        raise MeasureError(f"K_compact must hold two radii, got {K_compact!r}")
    sel = (grid.r >= K_compact[0]) & (grid.r <= K_compact[1])
    if not np.any(sel):
        raise MeasureError(f"compact window {K_compact!r} contains no grid nodes")

    diff = traj.fields - target
    e1 = _l1(diff, weight.values(grid.r), grid, weight.params.n)
    e_inf = np.max(np.abs(diff[:, sel]), axis=1)

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
