"""Shared fixtures: the shipped decision problem and a reusable prior sample."""

from pathlib import Path

import pytest

from voi.config import RunConfig
from voi.model import sample_prior

SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "critical_event.json"


@pytest.fixture(scope="session")
def case() -> RunConfig:
    """The shipped case study as read from its file; vary it with ``case.override``."""
    return RunConfig.from_file(SHIPPED)


@pytest.fixture(scope="session")
def fixed(case):
    return case.fixed


@pytest.fixture(scope="session")
def priors(case):
    return case.priors


@pytest.fixture(scope="session")
def studies(case):
    return case.studies


@pytest.fixture(scope="session")
def market_fn(case):
    return case.market


@pytest.fixture(scope="session")
def current_shares(case):
    return case.current_shares


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
