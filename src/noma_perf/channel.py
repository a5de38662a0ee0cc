"""System parameters and batched channel sampling.

Users are dropped uniformly in a disk of radius D around the transmitter.
Small-scale fading is Rayleigh, so fading power is Exp(1), and the
effective gain of a user at distance d is fading * d^(-eta).
`sample_batch` draws snapshots in batches, as (size, K) arrays. Channel
knowledge comes in three flavors:

* "imperfect": the scheduler ranks users by MMSE channel estimates whose
  power is Exp with mean d^(-eta) - sigma2_zeta (error variance subtracted).
* "perfect": same pipeline with sigma2_zeta = 0; estimates equal the truth.
* "sos": only statistical knowledge; users are ranked by distance and no
  per-realization estimate exists.
"""

import numpy as np
from dataclasses import dataclass

CSI_IMPERFECT = "imperfect"
CSI_PERFECT = "perfect"
CSI_SOS = "sos"
CSI_MODES = (CSI_IMPERFECT, CSI_PERFECT, CSI_SOS)

# Quadrature orders (c, m, n, l, q) used by the analytic evaluators:
# c the outage integral under imperfect CSI, m/n the t and mapped-distance
# axes of the estimate-ranked secrecy kernel, l/q the mapped nearest-distance
# and t axes of the distance-ranked one. Each pair has the fewest nodes whose
# doubling moves every value of the default sweeps by less than 1e-9
# relative, except q = 48 over 46, which leaves 7e-10 in place of 9.9e-10.
DEFAULT_QUAD_ORDERS = (50, 44, 17, 24, 48)


@dataclass(frozen=True)
class SystemConfig:
    K: int = 8
    D: float = 5.0
    eta: float = 2.0
    rho: float = 1000.0
    R_M: float = 0.5
    sigma2_zeta: float = 0.01
    csi_mode: str = CSI_IMPERFECT
    quad_orders: tuple = DEFAULT_QUAD_ORDERS

    def __post_init__(self):
        if isinstance(self.K, bool) or not isinstance(self.K, (int, np.integer)) or self.K < 1:
            raise ValueError("K must be a positive integer")
        for name in ("D", "eta", "rho", "R_M", "sigma2_zeta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.D > 0:
            raise ValueError("D must be positive")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not self.rho > 0:
            raise ValueError("rho must be positive (linear SNR)")
        if not self.R_M > 0:
            raise ValueError("R_M must be positive")
        if self.sigma2_zeta < 0:
            raise ValueError("sigma2_zeta must be nonnegative")
        if self.csi_mode not in CSI_MODES:
            raise ValueError(f"csi_mode must be one of {CSI_MODES}")
        # cell-edge users must keep positive estimate power; statistical
        # CSI has no estimates and never reads sigma2_zeta
        if self.csi_mode != CSI_SOS and not self.sigma2_zeta < self.D ** (-self.eta):
            raise ValueError("sigma2_zeta must be below D^(-eta)")
        if len(self.quad_orders) != 5 or any(
            not isinstance(o, (int, np.integer)) or o < 1 for o in self.quad_orders
        ):
            raise ValueError("quad_orders must be five positive integers")
        if self.csi_mode == CSI_PERFECT and self.sigma2_zeta != 0.0:
            raise ValueError("perfect CSI requires sigma2_zeta = 0")

    @property
    def eps_multicast(self) -> float:
        """SINR threshold for decoding the multicast stream at rate R_M."""
        return 2.0 ** self.R_M - 1.0

    @property
    def eps_multicast_oma(self) -> float:
        """Threshold under OMA, where the multicast slot is halved."""
        return 2.0 ** (2.0 * self.R_M) - 1.0


def sample_batch(config: SystemConfig, rng: np.random.Generator, size: int):
    """Draw `size` independent snapshots as (size, K) arrays.

    Returns (distances, fading_powers, true_gains, est_gains); rows are
    sorted by distance and est_gains is None under statistical CSI.
    """
    K = config.K
    d = np.sort(config.D * np.sqrt(rng.random((size, K))), axis=1)
    fading = rng.exponential(1.0, (size, K))
    path_loss = d ** (-config.eta)
    true_gains = fading * path_loss
    if config.csi_mode == CSI_SOS:
        est_gains = None
    elif config.sigma2_zeta == 0.0:
        est_gains = true_gains
    else:
        path_loss -= config.sigma2_zeta  # now the mean estimate power, in place
        est_gains = rng.exponential(1.0, (size, K)) * path_loss
    return d, fading, true_gains, est_gains
