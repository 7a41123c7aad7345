"""Pinching-antenna SWIPT performance toolkit.

Average harvested energy and achievable rate of a randomly located user
served by an optimally placed pinching antenna, under edge / center /
diagonal waveguide deployments and a hybrid time-switching /
power-splitting protocol.  Every closed form ships with an independent
quadrature oracle and a seeded Monte-Carlo estimator.
"""

from paswipt.config import (
    Config,
    ConfigError,
    LinearHarvest,
    LogisticHarvest,
    ProtocolParams,
    RegionGeometry,
    SystemParams,
    dbm_to_watts,
    default_config,
    load_config,
    validate,
)
from paswipt.geometry import Scheme
from paswipt.distributions import SquaredDistanceDistribution
from paswipt.montecarlo import EstimateWithCI, estimate

__all__ = [
    "Config",
    "ConfigError",
    "EstimateWithCI",
    "LinearHarvest",
    "LogisticHarvest",
    "ProtocolParams",
    "RegionGeometry",
    "Scheme",
    "SquaredDistanceDistribution",
    "SystemParams",
    "dbm_to_watts",
    "default_config",
    "estimate",
    "load_config",
    "validate",
]
