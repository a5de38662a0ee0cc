"""High-SNR outage series and large-K secrecy limits, which share no code
with the evaluators: test oracles for their quadrature maps.

* Outage. A user at distance d, uniform over the disc of radius D, has the
  gain CDF F(t) = E[1 - e^(-t/m)], m the mean gain: d^-eta for a true gain
  and d^-eta - sigma2 for an estimate. Expanding the exponential gives
  F(t) = sum_j>=1 (-1)^(j+1) t^j M_j / j!, M_j = E[m^-j], and the outage of
  K iid users is 1 - (1 - F)^K. A true gain has M_j = 2 D^(j eta) /
  (j eta + 2); an estimate's 1/m = d^eta / (1 - sigma2 d^eta) expands to
  M_j = sum_n>=0 C(n+j-1, n) sigma2^n 2 D^((n+j) eta) / ((n+j) eta + 2),
  geometric with ratio sigma2 D^eta < 1.

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

from math import comb, expm1, log, log1p

import mpmath

_SERIES_TOL = 1e-17  # a series stops at its first term below this share of its sum


def _series(term) -> float:
    """sum_i>=0 term(i), up to the first term below _SERIES_TOL of the sum."""
    total, i = 0.0, 0
    while True:
        value = term(i)
        total += value
        if abs(value) < _SERIES_TOL * abs(total):
            return total
        i += 1


def outage_series(config, threshold: float) -> float:
    """1 - (1 - F(t))^K at t = threshold / rho from F's power series: every
    user misses the gain `threshold / rho`, on estimates under imperfect
    CSI and on true gains otherwise (where sigma2 is 0)."""
    t, D, eta, s2 = threshold / config.rho, config.D, config.eta, config.sigma2_zeta

    def moment(j):  # E[m^-j]
        return _series(lambda n: comb(n + j - 1, n) * s2 ** n * 2.0 * D ** ((n + j) * eta)
                       / ((n + j) * eta + 2.0))

    factorial = [1.0]  # j!, built as the terms go

    def term(i):
        j = i + 1
        factorial.append(factorial[-1] * j)
        return (-1.0) ** (j + 1) * t ** j * moment(j) / factorial[j]

    return -expm1(config.K * log1p(-_series(term)))


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
