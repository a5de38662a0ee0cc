"""Large-K secrecy limits at high SNR, which share no code with the
evaluators: test oracles for their quadrature maps.

Both rankings' secrecy throughput saturates as K grows at fixed high SNR,
whatever D and sigma2 (Resnick, Extreme Values, Regular Variation and
Point Processes, 1987):

* Estimate ranking. An estimated gain's survival has the regularly varying
  tail (D^-eta / t)^(2/eta), so the ratio of the two largest of K iid
  gains tends to a Pareto(2/eta) variable and the NOMA rate gap
  E log2(X_(1)/X_(2)) to eta / (2 ln 2); OMA halves it.
* Distance ranking. K r^2 / D^2 tends to a unit-rate Poisson process.
  Conditioning on its first point and integrating it out gives
  L(eta) = (1/ln 2) integral_0^inf e^-y / (y (1 + G(y))) dy with
  G(y) = (2/eta) y^(-2/eta) Gamma(2/eta, y), Gamma the upper incomplete
  gamma function; OMA halves it.
"""

from math import log

import mpmath


def estimate_ranked_limit(eta: float) -> float:
    """NOMA large-K high-SNR secrecy throughput under estimate ranking."""
    return eta / (2.0 * log(2.0))


def distance_ranked_limit(eta: float) -> float:
    """L(eta), the NOMA large-K high-SNR secrecy throughput of the nearest
    user over the strongest other one under distance ranking."""
    with mpmath.workdps(30):
        a = mpmath.mpf(2) / eta

        def integrand(y):
            G = a * y ** (-a) * mpmath.gammainc(a, y)
            return mpmath.exp(-y) / (y * (1 + G))

        return float(mpmath.quad(integrand, [0, 1, 10, mpmath.inf]) / mpmath.log(2))
