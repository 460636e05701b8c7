"""Shared fixtures: profiles are expensive enough to cache per session."""

import pytest

from fde import profile
from fde.params import ModelParams, derive_constants
from fde.profile import ProfileRequest, compute_profile


@pytest.fixture(scope="session")
def profile_cache():
    """Memoized profile pipeline keyed by (n, m, beta, eta, s_max, tol)."""
    cache = {}

    def get(n, m, beta=-1.0, eta=1.0, s_max=200.0, tol=1e-10):
        key = (n, m, beta, eta, s_max, tol)
        if key not in cache:
            p = ModelParams(n=n, m=m, beta=beta)
            cache[key] = compute_profile(
                ProfileRequest(params=p, eta=eta, s_max=s_max, tol=tol))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def constants_for():
    def get(n, m, beta=-1.0):
        return derive_constants(ModelParams(n=n, m=m, beta=beta))

    return get


@pytest.fixture
def profile_builds(monkeypatch):
    """The requests integrate_inner runs during the test, which starts with
    compute_profile's memo empty."""
    monkeypatch.setattr(profile, "_last", (None, None), raising=False)
    seen = []
    integrate = profile.integrate_inner

    def recorded(req):
        seen.append(req)
        return integrate(req)

    monkeypatch.setattr(profile, "integrate_inner", recorded)
    return seen
