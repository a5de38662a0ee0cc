"""System parameters and batched channel sampling.

Users are dropped uniformly in a disk of radius D around the transmitter.
Small-scale fading is Rayleigh, so fading power is Exp(1), and the
effective gain of a user at distance d is fading * d^(-eta), computed as
fading * u^(-eta/2) from the squared distance u = d^2.
`sample_batch` draws snapshots in batches, as (size, K) arrays, and draws
only what the scheduler reads in each flavor of channel knowledge. Each
array is user-major, the transpose of a C-order (K, size) block, so each
user's gains are contiguous for the scorer's reductions over users:

* "imperfect": the scheduler ranks users by MMSE channel estimates. Given
  the squared distance u = d^2, uniform on [0, D^2], an estimate is Exp
  with mean u^(-eta/2) - sigma2_zeta (error variance subtracted), the
  variable `analytic._survival_est` integrates over. Only the estimates are
  drawn, in draw order; no distance or true fading is drawn.
* "perfect": the same draw with sigma2_zeta = 0, so the estimates are the
  true gains.
* "sos": only statistical knowledge; users are ranked by distance and no
  per-realization estimate exists. Distances and fading are drawn, and
  each row is nearest-first.

Batch rows are the caller's choice; `montecarlo` asks for at most 10k rows
and 80k gains per batch.
"""

import numpy as np
from dataclasses import dataclass

CSI_IMPERFECT = "imperfect"
CSI_PERFECT = "perfect"
CSI_SOS = "sos"
CSI_MODES = (CSI_IMPERFECT, CSI_PERFECT, CSI_SOS)

# Quadrature orders (c, m, n, l, q) used by the analytic evaluators:
# c the estimate survival at the outage threshold under imperfect CSI, m/n
# the t and mapped-distance axes of the estimate-ranked secrecy kernel, l/q
# the mapped nearest-distance and t axes of the distance-ranked one. Each
# pair has the fewest nodes whose doubling moves every value of the default
# sweeps by less than 1e-9 relative, except q = 48 over 46 (7e-10 in place
# of 9.9e-10). No config key sets them.
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

    Returns (distances, fading_powers, ranked_gains, est_gains). ranked_gains
    are the gains the scheduler ranks: the estimates under imperfect and
    perfect CSI, in draw order, and the true gains under statistical CSI,
    nearest-first. est_gains are the estimates, or None under statistical
    CSI; distances and fading_powers are None outside it.
    """
    K = config.K
    if config.csi_mode != CSI_SOS:
        u = rng.random((K, size))
        u *= config.D ** 2  # squared distance
        _path_loss(u, config.eta)  # mean gain
        u -= config.sigma2_zeta  # mean estimate power
        u *= rng.standard_exponential((K, size))
        est = u.T
        return None, None, est, est
    # D sqrt(u) is monotone in u, so sorting the uniforms sorts the distances
    if K == 2:
        u = rng.random((2, size))
        u[0], u[1] = np.minimum(u[0], u[1]), np.maximum(u[0], u[1])
    else:
        # a row sort of (size, K) beats a column sort of (K, size); one
        # transposing copy then makes each user's column contiguous
        u = rng.random((size, K))
        u.sort(axis=1)
        u = np.ascontiguousarray(u.T)
    u *= config.D ** 2  # squared distance
    d = np.sqrt(u)
    fading = rng.standard_exponential((K, size))
    _path_loss(u, config.eta)
    u *= fading
    return d.T, fading.T, u.T, None


def _path_loss(sq_dist: np.ndarray, eta: float) -> None:
    """Overwrite squared distances u with u^(-eta/2); eta = 2 takes 1/u,
    which is cheaper than the general power."""
    if eta == 2.0:
        np.reciprocal(sq_dist, out=sq_dist)
    else:
        sq_dist **= -0.5 * eta
