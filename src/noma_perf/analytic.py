"""Closed-form evaluators for outage probability and secrecy throughput.

Each function consumes a SystemConfig and returns a float. Multicast outage
is 1 - (single-user survival)^K, since the decision gains are iid: under
perfect and statistical CSI the survival probability is closed form through
the lower incomplete gamma function, and under imperfect CSI it is one
Gauss-Legendre integral over the user distance.

Secrecy throughput is the mean rate gap h(X_(1)) - h(X_(2)) between the two
strongest scheduled users, counted when the weakest decision gain clears
z = eps/rho (the outage indicator sits inside the mean). With the
estimated gains iid with single-user survival S, the order-statistic
identity (David & Nagaraja, Order Statistics)

    E[1{X_(K) >= z} (h(X_(1)) - h(X_(2)))]
        = K integral_z^inf h'(t) S(t) (S(z) - S(t))^(K-1) dt

turns it into two nested Gauss-Legendre integrals whose cost does not
depend on K. The two-user distance-ranked forms integrate the closed-form
fading expectation of the rate gap over the ordered distances. OMA
benchmarks use the half-slot rate gap with z = 0 and, for outage, the
threshold 2^(2 R_M) - 1.

Outage values are clamped to [0, 1]. Secrecy values are not clamped: each
is a quadrature of a nonnegative integrand.
"""

from math import log

import numpy as np

from .channel import SystemConfig
from .specfun import (
    expint_e1_scaled,
    gauss_legendre_rule,
    lower_incomplete_gamma,
)

LN2 = log(2.0)

# the survival integral drops distances whose exponent t/m(u) exceeds this;
# e^-45 < 3e-20 of the integrand's peak
_EXPONENT_CUTOFF = 45.0


def _clamp01(p: float) -> float:
    return float(min(1.0, max(0.0, p)))


# ---------------------------------------------------------------------------
# outage probability
# ---------------------------------------------------------------------------

def _outage_est_ranked(config: SystemConfig, threshold: float) -> float:
    # ranking by per-realization estimates: estimates are iid across users
    # given the distances, so non-outage factorizes over users
    rule = gauss_legendre_rule(config.quad_orders[0], config.D)
    x = rule.nodes
    est_mean = x ** (-config.eta) - config.sigma2_zeta
    density = 2.0 * x / config.D ** 2
    p_single = float(np.sum(rule.weights * density * np.exp(-threshold / (config.rho * est_mean))))
    return _clamp01(1.0 - p_single ** config.K)


def _outage_exact(config: SystemConfig, threshold: float) -> float:
    # outage when some user's true gain is below threshold/rho; that event
    # ignores the ranking, so it is exact under perfect and statistical CSI.
    # The single-user survival probability integrates in closed form through
    # the lower incomplete gamma function.
    z = threshold / config.rho
    a = 2.0 / config.eta
    surv = (a / (z ** a * config.D ** 2)) * lower_incomplete_gamma(
        a, z * config.D ** config.eta
    )
    return _clamp01(1.0 - surv ** config.K)


def outage_noma_imperfect(config: SystemConfig) -> float:
    """Multicast outage probability when users are ranked by noisy estimates."""
    return _outage_est_ranked(config, config.eps_multicast)


def outage_noma_perfect(config: SystemConfig) -> float:
    """Exact multicast outage probability under perfect CSI."""
    if config.sigma2_zeta != 0.0:
        raise ValueError("perfect-CSI outage requires sigma2_zeta = 0")
    return _outage_exact(config, config.eps_multicast)


def outage_noma_sos(config: SystemConfig) -> float:
    """Exact multicast outage probability when users are ranked by distance only."""
    return _outage_exact(config, config.eps_multicast)


def outage_oma_imperfect(config: SystemConfig) -> float:
    """OMA benchmark of outage_noma_imperfect (half slot, doubled threshold)."""
    return _outage_est_ranked(config, config.eps_multicast_oma)


def outage_oma_perfect(config: SystemConfig) -> float:
    """OMA benchmark of outage_noma_perfect."""
    if config.sigma2_zeta != 0.0:
        raise ValueError("perfect-CSI outage requires sigma2_zeta = 0")
    return _outage_exact(config, config.eps_multicast_oma)


def outage_oma_sos(config: SystemConfig) -> float:
    """OMA benchmark of outage_noma_sos."""
    return _outage_exact(config, config.eps_multicast_oma)


# ---------------------------------------------------------------------------
# secrecy throughput
# ---------------------------------------------------------------------------

def _gap_params(config: SystemConfig, oma: bool):
    """(z, s, scale) of the rate gap: h'(t) = scale / ((s - z + t) ln 2).

    NOMA: h(t) = log2(nu + rho t) with nu = 1 + eps, counted above
    z = eps/rho, so s = (1 + 2 eps)/rho. OMA: h(t) = log2(1 + rho t) / 2
    with no multicast coupling, so z = 0 and s = 1/rho.
    """
    if oma:
        return 0.0, 1.0 / config.rho, 0.5
    eps = config.eps_multicast
    return eps / config.rho, (1.0 + 2.0 * eps) / config.rho, 1.0


def _survival_est(config: SystemConfig, t: np.ndarray, n: int) -> np.ndarray:
    """P(X > t) at each t >= 0 for one user's estimated gain X.

    X is exponential with mean m(u) = u^(-eta/2) - sigma2 given the squared
    distance u, which is uniform on [0, D^2]. With R = min(1/m(D^2), 45/t),
    the map u = R^(2/eta) w^2 (1 + sigma2 R w^eta)^(-2/eta) sends w in
    [0, 1] onto the distances whose exponent t/m(u) = R t w^eta is at most
    45, and leaves the smooth integrand
    R^(2/eta)/D^2 * 2w e^(-R t w^eta) (1 + sigma2 R w^eta)^(-1-2/eta).
    """
    D, eta, s2 = config.D, config.eta, config.sigma2_zeta
    m_edge = D ** (-eta) - s2
    R = 1.0 / np.maximum(m_edge, t / _EXPONENT_CUTOFF)
    rule = gauss_legendre_rule(n, 1.0)
    w = rule.nodes
    we = w ** eta
    integrand = (2.0 * w) * np.exp(-np.outer(R * t, we)) * (
        1.0 + s2 * np.outer(R, we)
    ) ** (-1.0 - 2.0 / eta)
    return R ** (2.0 / eta) / D ** 2 * (integrand @ rule.weights)


def _secrecy_est_ranked_mean(config: SystemConfig, z: float, s: float, scale: float) -> float:
    """K integral_z^inf h'(t) S(t) (S(z) - S(t))^(K-1) dt for estimate ranking,
    with h'(t) = scale / ((s - z + t) ln 2) as in _gap_params.

    The t axis is mapped from v in [0, 1) by t = z + c v / (1 - v)^q with
    q = max(1, eta/2), which makes the t^(-1-2/eta) tail smooth in v; the
    scale c is the geometric mean of the rate knee s, the cell-edge mean
    estimate m_D and m_D K^(eta/2), where S falls to about 1/K. Orders:
    quad_orders[1] on v, quad_orders[2] on the mapped distance.
    """
    K, eta = config.K, config.eta
    if K < 2:
        raise ValueError("secrecy throughput needs K >= 2")
    m, n = config.quad_orders[1], config.quad_orders[2]
    m_edge = config.D ** (-eta) - config.sigma2_zeta

    q = max(1.0, eta / 2.0)
    c = (s * m_edge * m_edge * K ** (eta / 2.0)) ** (1.0 / 3.0)
    rule = gauss_legendre_rule(m, 1.0)
    v = rule.nodes
    t = z + c * v / (1.0 - v) ** q
    dt_dv = c * (1.0 - v + q * v) / (1.0 - v) ** (q + 1.0)

    surv = _survival_est(config, np.concatenate(([z], t)), n)
    s_z, s_t = surv[0], surv[1:]
    h_prime = scale / ((s - z + t) * LN2)
    return float(K * np.sum(rule.weights * dt_dv * h_prime * s_t * (s_z - s_t) ** (K - 1)))


def secrecy_noma_imperfect(config: SystemConfig) -> float:
    """Average secrecy unicast throughput with estimate-based ranking.

    Mean of the high-SNR power-split surrogate: the rate gap
    log2((nu + rho X_(1)) / (nu + rho X_(2))) between the two strongest
    estimated gains, counted when the weakest one clears eps/rho.
    """
    return _secrecy_est_ranked_mean(config, *_gap_params(config, oma=False))


def secrecy_oma_imperfect(config: SystemConfig) -> float:
    """OMA benchmark secrecy throughput with estimate-based ranking.

    Half-slot rate gap between the two strongest estimates; no power split,
    so the result does not depend on R_M.
    """
    return _secrecy_est_ranked_mean(config, *_gap_params(config, oma=True))


def _secrecy_distance_ranked_k2(config: SystemConfig, z: float, s: float, scale: float) -> float:
    """Mean rate gap of two distance-ranked users, (z, s, scale) as in _gap_params.

    Given the distances r1 < r2, with A = r1^eta and B = r2^eta, the gap
    counted when g1 >= g2 >= z has expectation
    scale e^(-z(A+B)) [G(sA) - G(s(A+B))] / ln 2, where
    G(x) = e^x E1(x) is expint_e1_scaled. That is integrated against the
    ordered-distance density 8 r1 r2 / D^4 by Gauss-Legendre quadrature,
    order l over the ratio r1/r2 and order q over r2.
    """
    if config.K != 2:
        raise ValueError("distance-ranked secrecy form needs exactly K = 2")
    D, eta = config.D, config.eta
    l, q = config.quad_orders[3], config.quad_orders[4]

    ratio = gauss_legendre_rule(l, 1.0)
    far = gauss_legendre_rule(q, D)
    kappa, r2 = ratio.nodes, far.nodes
    a = np.outer(kappa ** eta, r2 ** eta)  # r1^eta with r1 = kappa r2
    ab = a + r2[None, :] ** eta
    gap = np.exp(-z * ab) * (expint_e1_scaled(s * a) - expint_e1_scaled(s * ab))
    # dr1 = r2 dkappa turns 8 r1 r2 / D^4 into 8 kappa r2^3 / D^4
    density = np.outer(kappa, r2 ** 3)
    return float(scale * 8.0 / (D ** 4 * LN2) * (ratio.weights @ (density * gap) @ far.weights))


def secrecy_noma_sos_k2(config: SystemConfig) -> float:
    """Average secrecy unicast throughput for two distance-ranked users.

    Expectation of the high-SNR surrogate: SNR-free power split, rate gap
    log2((nu + rho g1)/(nu + rho g2)) of the nearer user over the farther
    one, counted when g1 >= g2 >= z = eps/rho.
    """
    return _secrecy_distance_ranked_k2(config, *_gap_params(config, oma=False))


def secrecy_oma_sos_k2(config: SystemConfig) -> float:
    """OMA benchmark secrecy throughput for two distance-ranked users.

    Half-slot rate gap of the nearer user over the farther one, clamped at
    zero; it does not depend on R_M.
    """
    return _secrecy_distance_ranked_k2(config, *_gap_params(config, oma=True))
