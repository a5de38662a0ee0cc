"""Performance analysis toolkit for a mixed multicast/unicast NOMA downlink.

Closed-form outage and secrecy-throughput evaluators under imperfect,
perfect, and purely statistical channel knowledge, a Monte Carlo oracle
with confidence intervals, and a CSV sweep CLI.
"""

from .analytic import (
    outage_noma_imperfect,
    outage_noma_perfect,
    outage_noma_sos,
    outage_oma_imperfect,
    outage_oma_perfect,
    outage_oma_sos,
    secrecy_noma_imperfect,
    secrecy_noma_sos,
    secrecy_oma_imperfect,
    secrecy_oma_sos,
)
from .channel import (
    CSI_IMPERFECT,
    CSI_PERFECT,
    CSI_SOS,
    SystemConfig,
)
from .montecarlo import (
    METRIC_OUTAGE,
    METRIC_SECRECY,
    METRIC_SECRECY_SURROGATE,
    MetricEstimate,
    SCHEME_NOMA,
    SCHEME_OMA,
    simulate,
    simulate_many,
)
from .noma_core import (
    PowerSplit,
    multicast_rate,
    power_split,
)
from .specfun import (
    QuadratureRule,
    chebyshev_rule,
    expint_e1_scaled,
    expint_ei,
    gauss_legendre_rule,
    lower_incomplete_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "CSI_IMPERFECT",
    "CSI_PERFECT",
    "CSI_SOS",
    "METRIC_OUTAGE",
    "METRIC_SECRECY",
    "METRIC_SECRECY_SURROGATE",
    "MetricEstimate",
    "PowerSplit",
    "QuadratureRule",
    "SCHEME_NOMA",
    "SCHEME_OMA",
    "SystemConfig",
    "chebyshev_rule",
    "expint_e1_scaled",
    "expint_ei",
    "gauss_legendre_rule",
    "lower_incomplete_gamma",
    "multicast_rate",
    "outage_noma_imperfect",
    "outage_noma_perfect",
    "outage_noma_sos",
    "outage_oma_imperfect",
    "outage_oma_perfect",
    "outage_oma_sos",
    "power_split",
    "secrecy_noma_imperfect",
    "secrecy_noma_sos",
    "secrecy_oma_imperfect",
    "secrecy_oma_sos",
    "simulate",
    "simulate_many",
]
