"""Parameter regime and derived constants.

Everything downstream (profile integration, expansions, the PDE solver and
the weighted norms) is driven by the triple (n, m, beta) with

    n >= 3,   0 < m < (n-2)/n,   beta < 0,

from which a family of exponents and coefficients is derived in closed form.
``derive_constants`` computes them all in float64.

Regime checks (``validate_regime``) are advisory: they report which of the
contraction / convergence theorems apply to a given (n, m, mu), but never
block a computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

__all__ = [
    "ParameterError",
    "ModelParams",
    "DerivedConstants",
    "RegimeReport",
    "derive_constants",
    "validate_regime",
    "YAMABE_TOL",
]

# |n-2-(n+2)m| below this counts as the conformal (Yamabe) borderline case,
# where every log-log coefficient degenerates to zero.  The tolerance absorbs
# float rounding of m given as e.g. 1/3.
YAMABE_TOL = 1e-12


class ParameterError(ValueError):
    """A parameter lies outside the admissible regime; message names the violated constraint."""


@dataclass(frozen=True)
class ModelParams:
    """The model triple (n, m, beta)."""

    n: int
    m: float
    beta: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ParameterError(f"n must be an integer dimension, got {self.n!r}")
        if self.n < 3:
            raise ParameterError(f"violated n >= 3: n={self.n}")
        m_max = (self.n - 2) / self.n
        if not (0.0 < self.m < m_max):
            raise ParameterError(
                f"violated 0 < m < (n-2)/n = {m_max!r}: m={self.m!r}"
            )
        if not self.beta < 0.0:
            raise ParameterError(f"violated beta < 0: beta={self.beta!r}")


@dataclass(frozen=True)
class DerivedConstants:
    """All closed-form constants derived from (n, m, beta).

    ``a1`` is the K-independent leading part of the 1/log series coefficient,
    i.e. the square of ``loglog_coeff``; the full coefficient also carries a
    term in the numerically extracted limit constant K(1,1) and lives in
    ``asymptotics.ExpansionCoefficients``.
    """

    alpha: float
    alpha_tilde: float
    beta_tilde: float
    q: float              # n-2-nm > 0
    gamma1: float
    gamma2: float
    gamma3: float
    delta0: float
    delta1: float
    mu1: float
    b0: float
    b1: float
    a0: float
    a1: float
    blowup_const: float
    farfield_slope: float
    loglog_coeff: float
    h1_slope: float
    h1_tail_coeff: float
    yamabe_case: bool
    cstar: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def derive_constants(p: ModelParams) -> DerivedConstants:
    """Derive every constant from a validated ``ModelParams``.

    The alpha_tilde/beta_tilde ratio identity
    ``alpha_tilde/beta_tilde + 2/(1-m) == (n-2)/m`` holds to relative 1e-14
    by construction and is asserted.
    """
    n, m, beta = p.n, p.m, p.beta
    one_m = 1.0 - m
    alpha = 2.0 * beta / one_m
    beta_tilde = -beta
    alpha_tilde = alpha - (n - 2) / m * beta
    # n-2-2m > 0 whenever m < (n-2)/n, used by the local startup series
    assert n - 2 - 2 * m > 0.0

    q = n - 2 - n * m          # > 0 in the admissible regime
    ys = n - 2 - (n + 2) * m   # sign splits the Yamabe trichotomy
    yamabe = abs(ys) < YAMABE_TOL
    if yamabe:
        ys = 0.0

    gamma1 = (n - 2) / m - 2.0 / one_m
    mu1 = n - 2.0 / one_m
    gamma2 = one_m / (2.0 * m) * mu1
    gamma3 = (n * beta_tilde / alpha_tilde - 1.0) / m
    delta1 = 1.0 - q / m
    delta0 = (1.0 - delta1) / 2.0
    b0 = ((n + 2) * m - (n - 2)) / one_m
    b1 = 2.0 * q / one_m
    a0 = (n - 1) * b1 / beta_tilde
    blowup_const = 2.0 * (n - 1) * q / (one_m * abs(beta))
    farfield_slope = 2.0 * (n - 1) * q / (one_m * beta_tilde)
    loglog_coeff = ys / (2.0 * q)
    h1_slope = (n - 1) * ys / (one_m * beta_tilde)
    h1_tail_coeff = (n - 1) * ys * ys / (2.0 * q * one_m * beta_tilde)
    a1 = ys * ys / (4.0 * q * q)
    cstar = 2.0 * (n - 1) * q / one_m

    ratio = alpha_tilde / beta_tilde
    assert abs(ratio + 2.0 / one_m - (n - 2) / m) <= 1e-14 * ((n - 2) / m)

    return DerivedConstants(
        alpha=alpha,
        alpha_tilde=alpha_tilde,
        beta_tilde=beta_tilde,
        q=q,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        delta0=delta0,
        delta1=delta1,
        mu1=mu1,
        b0=b0,
        b1=b1,
        a0=a0,
        a1=a1,
        blowup_const=blowup_const,
        farfield_slope=farfield_slope,
        loglog_coeff=loglog_coeff,
        h1_slope=h1_slope,
        h1_tail_coeff=h1_tail_coeff,
        yamabe_case=yamabe,
        cstar=cstar,
    )


@dataclass(frozen=True)
class RegimeReport:
    """Advisory applicability flags for the paper-level theorems.

    Each ``*_reason`` string names the violated inequality when the flag is
    False (empty string when it applies).  ``thm13_mu_range`` is None when no
    mu was supplied.
    """

    thm13_mu_range: Optional[bool]
    thm13_reason: str
    thm15_16: bool
    thm15_16_reason: str
    thm17: bool
    thm17_reason: str
    case_a_vs_b: str  # "a": m < (n-2)/(n+1); "b": otherwise
    mu_warning: str

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def validate_regime(p: ModelParams, mu: Optional[float] = None) -> RegimeReport:
    """Evaluate the theorem applicability flags for (n, m) and optionally mu.

    Purely advisory; nothing here blocks computation.
    """
    n, m = p.n, p.m
    mu1 = derive_constants(p).mu1

    thm13: Optional[bool] = None
    thm13_reason = ""
    mu_warning = ""
    if mu is not None:
        if mu <= 0.0:
            mu_warning = f"mu={mu!r} <= 0 is outside the weighted-contraction scope"
        elif mu > mu1:
            mu_warning = f"mu={mu!r} exceeds mu1={mu1!r}"
        if not 0.0 < mu <= mu1:
            thm13 = False
            thm13_reason = f"violated 0 < mu <= mu1={mu1!r}"
        elif mu < mu1:
            thm13 = True
        else:  # mu == mu1 needs the extra smallness of m
            m_cap = min((n - 2) / n, 0.5)
            thm13 = m < m_cap
            if not thm13:
                thm13_reason = (
                    f"mu = mu1 requires 0 < m < min((n-2)/n, 1/2) = {m_cap!r}; m={m!r}"
                )

    lo_16 = (n - 2) / (n + 2)
    thm15_16 = n in (3, 4) and lo_16 <= m < (n - 2) / n
    if not thm15_16:
        if n not in (3, 4):
            reason_16 = f"violated n in {{3,4}}: n={n}"
        else:
            reason_16 = f"violated (n-2)/(n+2) = {lo_16!r} <= m < (n-2)/n: m={m!r}"
    else:
        reason_16 = ""

    lo_17 = 1.0 - math.sqrt(2.0 / n)
    hi_17 = min(2.0 * (n - 2) / (3.0 * n), (n - 2) / (n + 2))
    thm17 = 3 <= n < 8 and lo_17 <= m < hi_17
    if not thm17:
        if not (3 <= n < 8):
            reason_17 = f"violated 3 <= n < 8: n={n}"
        else:
            reason_17 = (
                f"violated 1-sqrt(2/n) = {lo_17!r} <= m < "
                f"min(2(n-2)/(3n), (n-2)/(n+2)) = {hi_17!r}: m={m!r}"
            )
    else:
        reason_17 = ""

    case = "a" if m < (n - 2) / (n + 1) else "b"

    return RegimeReport(
        thm13_mu_range=thm13,
        thm13_reason=thm13_reason,
        thm15_16=thm15_16,
        thm15_16_reason=reason_16,
        thm17=thm17,
        thm17_reason=reason_17,
        case_a_vs_b=case,
        mu_warning=mu_warning,
    )
