"""Derived-constant arithmetic, pinned by exact rational evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fde.params import (
    ModelParams,
    ParameterError,
    derive_constants,
    validate_regime,
)
from reference import derive_constants_exact


def test_example_n3_m02():
    c = derive_constants(ModelParams(n=3, m=0.2, beta=-1.0))
    assert c.alpha == pytest.approx(-2.5, abs=1e-15)
    assert c.alpha_tilde == pytest.approx(2.5, abs=1e-14)
    assert c.beta_tilde == 1.0
    assert c.gamma1 == pytest.approx(2.5, abs=1e-14)
    assert c.gamma2 == pytest.approx(1.0, abs=1e-14)
    assert c.gamma3 == pytest.approx(1.0, abs=1e-14)
    assert c.mu1 == pytest.approx(0.5, abs=1e-15)
    assert c.farfield_slope == pytest.approx(2.0, abs=1e-14)
    assert c.loglog_coeff == 0.0
    assert c.yamabe_case


def test_example_n3_m025():
    c = derive_constants(ModelParams(n=3, m=0.25, beta=-1.0))
    assert c.alpha == pytest.approx(-8.0 / 3.0, rel=1e-15)
    assert c.alpha_tilde == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert c.gamma1 == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert c.mu1 == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert 3 - 2 - 5 * 0.25 == pytest.approx(-0.25)
    assert not c.yamabe_case


def test_example_n4_m13_beta_minus2():
    c = derive_constants(ModelParams(n=4, m=1.0 / 3.0, beta=-2.0))
    assert c.alpha_tilde / c.beta_tilde == pytest.approx(3.0, rel=1e-14)
    assert c.beta_tilde == 2.0
    assert c.blowup_const == pytest.approx(3.0, rel=1e-14)
    # m = (n-2)/(n+2) for n=4: the conformal borderline
    assert c.yamabe_case


def test_exact_rational_matches_float():
    for n, m, beta in [(3, Fraction(1, 5), Fraction(-1)),
                       (3, Fraction(1, 4), Fraction(-1)),
                       (4, Fraction(1, 3), Fraction(-2)),
                       (5, Fraction(2, 5), Fraction(-1, 2))]:
        exact = derive_constants_exact(n, m, beta)
        c = derive_constants(ModelParams(n=n, m=float(m), beta=float(beta)))
        for name, val in exact.items():
            if isinstance(val, bool):
                assert getattr(c, name) == val, name
            else:
                assert getattr(c, name) == pytest.approx(float(val), rel=1e-13), name


@pytest.mark.parametrize("n,m,beta,frag", [
    (2, 0.1, -1.0, "n >= 3"),
    (3, 0.5, -1.0, "m"),
    (3, 0.0, -1.0, "m"),
    (3, -0.1, -1.0, "m"),
    (3, 0.2, 0.0, "beta"),
    (3, 0.2, 1.0, "beta"),
])
def test_invalid_params_rejected(n, m, beta, frag):
    with pytest.raises(ParameterError, match=frag):
        ModelParams(n=n, m=m, beta=beta)


@st.composite
def valid_params(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    m_max = (n - 2) / n
    m = draw(st.floats(min_value=1e-3, max_value=m_max * 0.999,
                       exclude_max=True, allow_nan=False))
    beta = draw(st.floats(min_value=-100.0, max_value=-1e-3, allow_nan=False))
    return ModelParams(n=n, m=m, beta=beta)


@given(valid_params())
@settings(max_examples=200, deadline=None)
def test_identities_hold(p):
    c = derive_constants(p)
    n, m = p.n, p.m
    lhs = c.alpha_tilde / c.beta_tilde + 2.0 / (1.0 - m)
    assert lhs == pytest.approx((n - 2) / m, rel=1e-13)
    assert c.gamma2 == pytest.approx((1.0 - m) * c.mu1 / (2.0 * m), rel=1e-13)
    assert m * c.gamma3 == pytest.approx(n * c.beta_tilde / c.alpha_tilde - 1.0, rel=1e-12)
    assert c.mu1 > 0.0
    assert c.gamma1 > 0.0
    assert c.delta0 == pytest.approx((1.0 - c.delta1) / 2.0, rel=1e-14)
    assert (0.0 <= c.delta1 < 1.0) == ((n - 2) / (n + 1) <= m < (n - 2) / n)
    assert c.alpha_tilde > 0.0 and c.beta_tilde > 0.0
    assert 0.0 < c.alpha_tilde / c.beta_tilde < (n - 2) / m


def test_regime_examples():
    rep = validate_regime(ModelParams(n=3, m=0.2, beta=-1.0), mu=0.4)
    assert rep.thm13_mu_range is True
    assert rep.thm15_16 is True  # m == (n-2)/(n+2)

    rep = validate_regime(ModelParams(n=3, m=0.19, beta=-1.0))
    assert rep.thm17 is True  # 1-sqrt(2/3) ~ 0.1835 <= 0.19 < 0.2
    assert rep.thm13_mu_range is None

    rep = validate_regime(ModelParams(n=5, m=0.2, beta=-1.0))
    assert rep.thm15_16 is False
    assert "n" in rep.thm15_16_reason
    assert rep.case_a_vs_b == "a"  # m = 0.2 < 3/6


def test_regime_mu_edge_cases():
    p = ModelParams(n=3, m=0.2, beta=-1.0)
    rep = validate_regime(p, mu=0.5)  # mu = mu1; m = 0.2 < 1/3
    assert rep.thm13_mu_range is True
    rep = validate_regime(p, mu=0.6)  # beyond mu1: flagged, not fatal
    assert rep.thm13_mu_range is False
    assert rep.mu_warning
    rep = validate_regime(p, mu=-1.0)
    assert rep.thm13_mu_range is False
    assert rep.mu_warning


def test_regime_determinism():
    p = ModelParams(n=4, m=0.3, beta=-2.0)
    assert validate_regime(p, mu=0.1) == validate_regime(p, mu=0.1)
