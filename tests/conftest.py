import pytest

from paswipt.config import default_config
from paswipt.energy import _mean_harvest


@pytest.fixture(scope="session")
def lm_config():
    """Baseline setup with the linear harvester, 0.3 W transmit power."""
    return default_config(0.3)


@pytest.fixture(scope="session")
def nlm_config():
    """Baseline setup with the logistic harvester, 0.3 W transmit power."""
    return default_config(0.3, model="nlm")


@pytest.fixture(autouse=True)
def _empty_quadrature_memo():
    """Each test starts with the energy quadrature's one-entry memo empty, as
    a fresh process does, so the order tests run in cannot change what a
    test integrates."""
    _mean_harvest.cache_clear()
