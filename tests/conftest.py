"""Shared fixtures: the packaged decision problem and a reusable prior sample."""

import pytest

from voi.critical_event import CURRENT_SHARES, FIXED, MARKET, PRIORS, STUDIES
from voi.model import sample_prior


@pytest.fixture(scope="session")
def fixed():
    return FIXED


@pytest.fixture(scope="session")
def priors():
    return PRIORS


@pytest.fixture(scope="session")
def studies():
    return STUDIES


@pytest.fixture(scope="session")
def market_fn():
    return MARKET


@pytest.fixture(scope="session")
def current_shares():
    return CURRENT_SHARES


@pytest.fixture(scope="session")
def psa(priors, fixed):
    # One moderately sized prior sample shared across the unit test modules.
    return sample_prior(priors, fixed, 10_000, 123)


@pytest.fixture(params=[1, 2], ids=["1core", "2cores"])
def cores(request, monkeypatch):
    # The posterior work runs inline on one core and on a thread pool on more;
    # pinning the count runs both paths on any host.
    monkeypatch.setattr("voi.nmc._usable_cores", lambda: request.param)
    return request.param
