"""The NOMA power split and the multicast rate it delivers.

The transmitter superimposes a multicast stream (decoded by everyone) and a
unicast stream for the strongest user. The power split gives the multicast
stream exactly enough power that the weakest scheduled gain still decodes
rate R_M, and hands the remainder to unicast. Both work elementwise on an
array of gains (`verify` passes one; Monte Carlo calls only `_unicast_share`)
and return plain floats and a bool for a scalar gain.
"""

from typing import NamedTuple

import numpy as np

from .channel import SystemConfig


class PowerSplit(NamedTuple):
    """Power shares and the outage flag; arrays when the gain was an array."""
    theta_M: float
    theta_U: float
    outage: bool


def _gains(alpha, name: str) -> np.ndarray:
    """`alpha` as a float array; a negative, NaN or infinite gain is a ValueError."""
    alpha = np.asarray(alpha, dtype=float)
    if not (alpha.min(initial=0.0) >= 0 and alpha.max(initial=0.0) < np.inf):  # NaN fails too
        raise ValueError(f"{name} must be nonnegative and finite, not NaN")
    return alpha


def power_split(alpha_weakest, rho: float, R_M: float) -> PowerSplit:
    """Split total power so the weakest gain decodes R_M, rest to unicast.

    If even full power cannot support R_M (alpha_weakest < eps/rho) the slot
    is in multicast outage and everything goes to multicast. `SystemConfig`
    owns the rules on rho and R_M: a value it refuses raises its ValueError."""
    eps = SystemConfig(rho=rho, R_M=R_M).eps_multicast
    alpha = _gains(alpha_weakest, "alpha_weakest")
    theta_U = _unicast_share(alpha, eps, rho, np.empty_like(alpha))
    theta_M = 1.0 - theta_U
    outage = alpha < eps / rho
    if alpha.ndim == 0:
        return PowerSplit(theta_M=float(theta_M), theta_U=float(theta_U), outage=bool(outage))
    return PowerSplit(theta_M=theta_M, theta_U=theta_U, outage=outage)


def _unicast_share(alpha, eps: float, rho: float, out):
    """Write power_split's theta_U for gains `alpha` into `out`, unchecked;
    the Monte Carlo scorer reads neither theta_M nor the outage flag.

    theta_U = (1 - z/a) / (1 + eps) with z = eps/rho at a = max(alpha, z):
    alpha where feasible, and in outage the threshold, whose share is
    exactly +0. So a zero gain never divides by zero, and as z/a <= 1 no
    step overflows at any R_M that SystemConfig accepts.
    """
    z = eps / rho
    np.maximum(alpha, z, out=out)
    np.divide(z, out, out=out)
    np.subtract(1.0, out, out=out)
    out /= 1.0 + eps
    return out


def multicast_rate(alpha, split: PowerSplit, rho: float):
    """Multicast rate seen by a gain alpha, with unicast power as interference."""
    SystemConfig(rho=rho)  # its rules and messages on rho, as in power_split
    alpha = _gains(alpha, "alpha")
    rate = np.log2(1.0 + split.theta_M * alpha / (split.theta_U * alpha + 1.0 / rho))
    return float(rate) if rate.ndim == 0 else rate
