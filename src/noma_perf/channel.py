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
  per-realization estimate exists. Squared distances and fading are
  drawn, and each row is nearest-first; no distance sqrt(u) is taken.

Batch rows are the caller's choice; `montecarlo` asks for at most 10k rows
and BATCH_ELEMENTS (80k) gains per batch, and passes a workspace that every
batch of a job is drawn into, so a draw allocates nothing.
"""

import math
import numbers
from typing import NamedTuple

import numpy as np

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

# (K, size) float64 blocks a `sample_batch` workspace holds
SAMPLE_BLOCKS = 3

# Gains of a Monte Carlo batch at most, so K above it is refused: one row
# of K gains must fit a batch. Peak RSS of simulate_many, all six pairs,
# 3e4 trials, numpy 2.4: 10k-row batches 41.1 / 50.3 MB at K = 40 / 100
# (imperfect) and 47.8 / 66.3 MB (sos); 80k-gain batches 36.3-38.2 MB at
# both, as at K = 8.
BATCH_ELEMENTS = 80_000

# smallest path-loss exponent the analytic quadrature resolves: at the
# default point (K = 8, imperfect CSI, 30 dB) verify's all-order doubling
# drift is 3.6e-9 at eta = 1, but 5.0e-6 at 0.9, 2.7e-4 at 0.6 and 4.6e-3
# (a FAIL) at 0.5; further down the secrecy forms read nan or miss Monte
# Carlo by orders of magnitude
_ETA_FLOOR = 1.0


class _SystemFields(NamedTuple):
    K: int = 8
    D: float = 5.0
    eta: float = 2.0
    rho: float = 1000.0
    R_M: float = 0.5
    sigma2_zeta: float = 0.01
    csi_mode: str = CSI_IMPERFECT
    quad_orders: tuple = DEFAULT_QUAD_ORDERS


class SystemConfig(_SystemFields):
    """The fields above as an immutable, hashable tuple; an invalid field raises
    ValueError however it is built (calling it, `replace`, `_make`, unpickling).
    Only imperfect CSI has an estimation error: elsewhere sigma2_zeta is stored as 0."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        if self.csi_mode != CSI_IMPERFECT and self.sigma2_zeta != 0:
            return self.replace(sigma2_zeta=0.0)
        return self

    @classmethod
    def _make(cls, iterable):  # namedtuple's own, which `_replace` calls, skips __new__
        return cls(*iterable)

    replace = _SystemFields._replace  # a copy with the given fields changed, checked

    def _check(self):
        if not _integer(self.K, 1):
            raise ValueError("K must be a positive integer")
        if self.K > BATCH_ELEMENTS:
            raise ValueError(f"K must be at most {BATCH_ELEMENTS}")
        for name in ("D", "eta", "rho", "R_M", "sigma2_zeta"):
            value = getattr(self, name)  # a real number: not a bool, a complex or an array
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number")
            if not _finite_power(value, 1.0):  # an int too large for a float is not finite
                raise ValueError(f"{name} must be finite")
        if not self.D > 0:
            raise ValueError("D must be positive")
        if not self.eta >= _ETA_FLOOR:
            raise ValueError(f"eta must be at least {_ETA_FLOOR:g}: below it the analytic "
                             "quadrature cannot resolve the closed forms")
        # the sampler and the closed forms scale by these
        if not all(_finite_power(self.D, p) for p in (2.0, self.eta, -self.eta)):
            raise ValueError("D must keep D^2, D^eta and D^-eta finite")
        if not self.rho > 0:
            raise ValueError("rho must be positive (linear SNR)")
        if not self.R_M > 0:
            raise ValueError("R_M must be positive")
        if not _finite_power(2.0, 2.0 * self.R_M):  # the OMA threshold
            raise ValueError("R_M must be below 512, where 2^(2 R_M) overflows a float")
        if self.sigma2_zeta < 0:
            raise ValueError("sigma2_zeta must be nonnegative")
        if self.csi_mode not in CSI_MODES:
            raise ValueError(f"csi_mode must be one of {CSI_MODES}")
        # cell-edge users must keep positive estimate power
        if self.csi_mode == CSI_IMPERFECT and not self.sigma2_zeta < self.D ** (-self.eta):
            raise ValueError("sigma2_zeta must be below D^(-eta)")
        if not isinstance(self.quad_orders, tuple) or len(self.quad_orders) != 5 or not all(
                _integer(o, 1) for o in self.quad_orders):  # a tuple, so the config hashes
            raise ValueError("quad_orders must be a tuple of five positive integers")

    @property
    def eps_multicast(self) -> float:
        """SINR threshold for decoding the multicast stream at rate R_M."""
        return 2.0 ** self.R_M - 1.0

    @property
    def eps_multicast_oma(self) -> float:
        """Threshold under OMA, where the multicast slot is halved."""
        return 2.0 ** (2.0 * self.R_M) - 1.0


def _integer(value, low) -> bool:
    """Whether `value` is an integer, not a bool, of at least `low`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _finite_power(base, exponent) -> bool:
    """Whether base^exponent is a finite float (float power raises on overflow)."""
    try:
        return math.isfinite(float(base) ** float(exponent))
    except OverflowError:
        return False


def sample_batch(config: SystemConfig, rng, size: int, workspace=None):
    """Draw `size` independent snapshots as (size, K) arrays from `rng`,
    any object with `random(out=)` and `standard_exponential(out=)` that
    fill a C-contiguous float64 array: `montecarlo`'s batch generator or a
    `numpy.random.Generator`. (No annotation names the latter: evaluating
    it would import `numpy.random`.)

    Returns (squared_distances, fading_powers, ranked_gains, est_gains).
    ranked_gains are the gains the scheduler ranks: the estimates under
    imperfect and perfect CSI, in draw order, and the true gains under
    statistical CSI, nearest-first. est_gains are the estimates, or None
    under statistical CSI; squared_distances and fading_powers are None
    outside it.

    The arrays are views of `workspace`, a flat float64 array of at least
    SAMPLE_BLOCKS * K * size floats (allocated when None), valid until it
    is written again; the ranked gains fill its first K size floats.
    """
    K = config.K
    n = K * size
    if workspace is None:
        workspace = np.empty(SAMPLE_BLOCKS * n)
    gains, spare = workspace[:n].reshape(K, size), workspace[n:2 * n].reshape(K, size)
    if config.csi_mode != CSI_SOS:
        u = rng.random(out=gains)
        u *= config.D ** 2  # squared distance
        _path_loss(u, config.eta, out=u)  # mean gain
        u -= config.sigma2_zeta  # mean estimate power
        u *= rng.standard_exponential(out=spare)
        est = u.T
        return None, None, est, est
    # D sqrt(u) is monotone in u, so sorting the uniforms sorts the distances
    sq = workspace[2 * n:3 * n].reshape(K, size)
    if K == 2:
        u = rng.random(out=gains)
        np.minimum(u[0], u[1], out=sq[0])
        np.maximum(u[0], u[1], out=sq[1])
    else:
        # a row sort of (size, K) beats a column sort of (K, size); one
        # transposing copy then makes each user's column contiguous
        u = rng.random(out=gains.reshape(size, K))
        u.sort(axis=1)
        np.copyto(sq, u.T)
    sq *= config.D ** 2  # squared distance
    fading = rng.standard_exponential(out=spare)
    _path_loss(sq, config.eta, out=gains)
    gains *= fading
    return sq.T, fading.T, gains.T, None


def _path_loss(sq_dist: np.ndarray, eta: float, out: np.ndarray) -> None:
    """Write sq_dist^(-eta/2) of squared distances into `out`; eta = 2
    takes 1/u, which is cheaper than the general power."""
    if eta == 2.0:
        np.reciprocal(sq_dist, out=out)
    else:
        np.power(sq_dist, -0.5 * eta, out=out)
