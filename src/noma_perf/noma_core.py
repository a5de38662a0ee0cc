"""The NOMA power split and the multicast rate it delivers.

The transmitter superimposes a multicast stream (decoded by everyone) and a
unicast stream for the strongest user. The power split gives the multicast
stream exactly enough power that the weakest scheduled gain still decodes
rate R_M, and hands the remainder to unicast. Both functions work
elementwise on arrays of gains (the Monte Carlo kernel and `verify` pass
whole batches) and return plain floats and a bool for a scalar gain.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerSplit:
    """Power shares and the outage flag; arrays when the gain was an array."""
    theta_M: float
    theta_U: float
    outage: bool


def power_split(alpha_weakest, rho: float, R_M: float, out=None) -> PowerSplit:
    """Split total power so the weakest gain decodes R_M, rest to unicast.

    If even full power cannot support R_M (alpha_weakest < eps/rho) the slot
    is in multicast outage and everything goes to multicast. `out`, if
    given, is a (theta_M, theta_U, outage) triple of arrays shaped like the
    gains that the split is written into, as a ufunc's outputs are.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if not R_M > 0:
        raise ValueError("R_M must be positive")
    alpha = np.asarray(alpha_weakest, dtype=float)
    if alpha.min(initial=0.0) < 0:
        raise ValueError("alpha_weakest must be nonnegative")
    eps = 2.0 ** R_M - 1.0
    if out is None:
        out = np.empty_like(alpha), np.empty_like(alpha), np.empty(alpha.shape, dtype=bool)
    theta_M, theta_U, outage = out
    # theta_U = (a - eps/rho) / (a (1 + eps)) at a = max(alpha, eps/rho):
    # alpha itself where feasible, and in outage the threshold, whose share
    # is exactly 0, so a zero gain never divides by zero
    np.maximum(alpha, eps / rho, out=theta_U)
    np.multiply(theta_U, 1.0 + eps, out=theta_M)
    theta_U -= eps / rho
    theta_U /= theta_M
    np.subtract(1.0, theta_U, out=theta_M)
    np.less(alpha, eps / rho, out=outage)
    if alpha.ndim == 0:
        return PowerSplit(theta_M=float(theta_M), theta_U=float(theta_U), outage=bool(outage))
    return PowerSplit(theta_M=theta_M, theta_U=theta_U, outage=outage)


def multicast_rate(alpha, split: PowerSplit, rho: float):
    """Multicast rate seen by a gain alpha, with unicast power as interference."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    rate = np.log2(1.0 + split.theta_M * alpha / (split.theta_U * alpha + 1.0 / rho))
    return float(rate) if rate.ndim == 0 else rate
