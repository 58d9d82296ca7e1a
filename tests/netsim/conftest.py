"""Shared fixtures: a small deterministic internet reused across tests."""

import pytest

from repro.netsim import Internet, InternetConfig, build_internet


@pytest.fixture(scope="session")
def small_built():
    return build_internet(InternetConfig(n_edge=40, cpe_customers_per_isp=250, seed=7))


@pytest.fixture()
def net(small_built):
    return Internet(small_built)
