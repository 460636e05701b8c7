"""Higher-order blow-up expansions and their verification against profiles.

The blow-up of f near the origin (equivalently the growth of g at infinity)
admits a closed-form series whose only non-explicit ingredient is the limit
constant K(1,1) of the normalized (eta=1, beta~=1) profile:

    g^{1-m}(r) = prefactor(r) * { log r
                                  + llc * log(log r)
                                  + K0 + (1/gamma1) log eta + (m/q) log beta~
                                  + a3/log r + llc^2 * log(log r)/log r
                                  + o(1/log r) },     q = n-2-nm,

and the f-form is the same series in log(1/r).  ``compute_K0`` extracts
K(1,1) numerically and assembles the coefficient record;
``expansion_series`` gives the braces truncated at every order, as the four
nested partial sums in |log r|; ``expansion_residual_report`` quantifies
the residual trend against an independently computed profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import profile
from .params import DerivedConstants, ModelParams, derive_constants
from .profile import Profile, ProfileRequest, _a2_const_part, estimate_K
from .profile import compute_profile  # noqa: F401  (looked up here by perfbench's tracer)

__all__ = [
    "ORDERS",
    "ExpansionCoefficients",
    "compute_K0",
    "expansion_series",
    "expansion_residual_report",
]

ORDERS = ("leading", "loglog", "constant", "one_over_log")


def _a2(n: int, m: float, K: float, beta_tilde: float) -> float:
    """a2(eta, beta~) evaluated literally as printed, given K(eta, beta~)."""
    return _a2_const_part(n, m) - (n - 2 - (n + 2) * m) / (1.0 - m) * K * beta_tilde


def _a1(n: int, m: float, q: float, a2: float) -> float:
    """a1 = ys^2/(4 q^2) - (1-m)^2 a2/(4 (n-1) q^2) with ys = n - 2 - (n+2) m."""
    ys = n - 2 - (n + 2) * m
    return ys * ys / (4.0 * q * q) - (1.0 - m) ** 2 * a2 / (4.0 * (n - 1) * q * q)


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Expansion constants of one (n, m), with a2 and a3 for one requested (eta, beta~).

    K_11 and K0 come from a fresh (1,1) profile run and carry the propagated
    extraction uncertainty K_error; a1 is the full series coefficient
    (K-dependent part included), a2_eta_beta / a3 are evaluated for the
    requested pair via the closed-form parameter shifts.  ``constants`` are
    those of the (1,1) profile; q and gamma1 do not depend on beta.
    """

    n: int
    m: float
    K0: float
    K_11: float
    a1: float
    a2_eta_beta: float
    a3: float
    K_error: float
    converged: bool
    constants: DerivedConstants

    def a3_for(self, A: float, beta_tilde: float) -> float:
        """a3(A, beta~) = a1 + (ys/(2 q gamma1)) log(A beta~^{1/(1-m)})."""
        n, m, c = self.n, self.m, self.constants
        ys = n - 2 - (n + 2) * m
        return self.a1 + ys / (2.0 * c.q * c.gamma1) * math.log(
            A * beta_tilde ** (1.0 / (1.0 - m)))

    def K_for(self, eta: float, beta_tilde: float) -> float:
        """K(eta, beta~) from K0 via the closed-form constant-block shift."""
        n, m, c = self.n, self.m, self.constants
        a0 = 2.0 * (n - 1) * c.q / ((1.0 - m) * beta_tilde)
        return a0 * (self.K0 + math.log(eta) / c.gamma1 + m / c.q * math.log(beta_tilde))


def compute_K0(params: ModelParams, eta: float = 1.0, s_max: float = 400.0,
               tol: float = 1e-10) -> ExpansionCoefficients:
    """Run the (1,1) pipeline of (n, m), extract K(1,1), and assemble the coefficients.

    The K extraction error decays like 1/s_max, so the default horizon is
    deeper than the profile default; eta and beta~ = -params.beta pick the
    pair for which a2 and a3 are reported.  K reads only the far trace, so
    the stages run without assembling a ``Profile`` and its interpolants.
    """
    n, m, beta_tilde = params.n, params.m, -params.beta
    req = ProfileRequest(params=ModelParams(n=n, m=m, beta=-1.0), eta=1.0,
                         s_max=s_max, tol=tol)
    far = profile.integrate_far_field(req, profile.integrate_inner(req))
    k, c = estimate_K(far, req.params), derive_constants(req.params)
    K0 = (1.0 - m) * k.K / (2.0 * (n - 1) * c.q)
    coeffs = ExpansionCoefficients(
        n=n, m=m, K0=K0, K_11=k.K, a1=_a1(n, m, c.q, _a2(n, m, k.K, 1.0)),
        a2_eta_beta=0.0, a3=0.0,
        K_error=k.error_estimate, converged=k.converged, constants=c,
    )
    return replace(coeffs, a2_eta_beta=_a2(n, m, coeffs.K_for(eta, beta_tilde), beta_tilde),
                   a3=coeffs.a3_for(eta, beta_tilde))


def expansion_series(L, coeffs: ExpansionCoefficients, A: float, beta_tilde: float) -> dict:
    """The braces content of the expansion in L = |log r| at every order: the
    nested partial sums keyed by ORDERS, each built on the one before.

    The constant block is (1/gamma1) log A + (m/q) log beta~; llc, q and
    gamma1, functions of (n, m) alone, are those of coeffs.constants.
    """
    c, m = coeffs.constants, coeffs.m
    llc = c.loglog_coeff
    log_amp = math.log(A) / c.gamma1 + m / c.q * math.log(beta_tilde)
    L = np.asarray(L, dtype=float)
    log_L = np.log(L)
    leading = L.copy()
    loglog = leading + llc * log_L
    constant = loglog + coeffs.K0 + log_amp
    a3 = coeffs.a3_for(A, beta_tilde)
    one_over_log = constant + a3 / L + llc ** 2 * log_L / L
    return dict(zip(ORDERS, (leading, loglog, constant, one_over_log)))


def expansion_residual_report(prof: Profile, coeffs: ExpansionCoefficients) -> dict:
    """Residuals of the normalized far-field series against partial sums.

    N(s) = w~(s)/a0 is the numeric normalized series on the far field's
    nodes with s >= s_max/2, s_max = far.s[-1]; the report gives, per order,
    the residual arrays and the trend statistics the acceptance gate uses:
    the least-squares slope of s*|residual at full order| over those nodes
    (must be negative), and the fitted constant-order coefficient a3_hat
    compared to the closed-form a3.  The a2 sign ambiguity flag is on
    whenever a3_hat only matches a3 with the opposite-sign K term.
    """
    req, c = prof.request, prof.constants
    n, m, q = req.params.n, req.params.m, c.q
    eta, bt = req.eta, c.beta_tilde
    far = prof.far
    sel = far.s >= far.s[-1] / 2.0
    s = far.s[sel]
    N = far.w[sel] / c.farfield_slope

    partial = expansion_series(s, coeffs, eta, bt)
    resid = {o: N - partial[o] for o in ORDERS}

    llc = c.loglog_coeff
    a3 = coeffs.a3_for(eta, bt)
    s_rem_full = s * np.abs(resid["one_over_log"])
    slope_full = float(np.polyfit(s, s_rem_full, 1)[0])

    a3_hat = float(np.mean(s * resid["constant"] - llc ** 2 * np.log(s)))
    a3_rel_dev = abs(a3_hat - a3) / max(abs(a3), 1e-300)

    # flag if only the flipped a2 sign matches
    a1_flip = _a1(n, m, q, _a2(n, m, -coeffs.K_for(eta, bt), bt))
    a3_flip = replace(coeffs, a1=a1_flip).a3_for(eta, bt)
    flip_flag = bool(a3_rel_dev > 0.05 and abs(a3_hat - a3_flip) < abs(a3_hat - a3))

    return {
        "s": s,
        "normalized": N,
        "partial_sums": partial,
        "residuals": resid,
        "slope_s_rem_full": slope_full,
        "full_order_decreasing": slope_full < 0.0,
        "a3": a3,
        "a3_hat": a3_hat,
        "a3_rel_dev": float(a3_rel_dev),
        "a2_sign_flip_suspected": flip_flag,
    }
