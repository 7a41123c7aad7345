import pytest

from paswipt.config import default_config
from paswipt.energy import _mean_harvest
from paswipt.rate import _mean_log


@pytest.fixture(scope="session")
def lm_config():
    """Baseline setup with the linear harvester, 0.3 W transmit power."""
    return default_config(0.3)


@pytest.fixture(scope="session")
def nlm_config():
    """Baseline setup with the logistic harvester, 0.3 W transmit power."""
    return default_config(0.3, model="nlm")


@pytest.fixture(autouse=True)
def _empty_quadrature_memos():
    """Each test starts with both quadrature memos empty, as a fresh process
    does: the energy's one entry and the rate's last 256 mean logs.  So the
    order tests run in cannot change what a test integrates."""
    _mean_harvest.cache_clear()
    _mean_log.cache_clear()
