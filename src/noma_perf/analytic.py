"""Closed-form evaluators for outage probability and secrecy throughput.

Each evaluator takes a SystemConfig and returns a float, and closed_forms
picks the evaluator of each row Monte Carlo scores. Multicast outage is
1 - (single-user survival)^K, since the decision gains are iid: under
perfect and statistical CSI the survival probability is closed form through
the lower incomplete gamma function, and under imperfect CSI it is the
estimate survival S(threshold/rho) shared with estimate-ranked secrecy.

Secrecy throughput is the mean rate gap (h(target) - h(best other user))^+,
counted when every decision gain clears z = eps/rho (the outage indicator
sits inside the mean). With target survival S_1 and the other K - 1 gains
iid with survival S, it is the order-statistic integral (David & Nagaraja,
Order Statistics) K integral_z^inf h'(t) S_1(t) (S(z) - S(t))^(K-1) dt, one
kernel for both rankings and any K. Estimate ranking has S_1 = S; distance
ranking conditions on the nearest distance r, with S_1(t) = e^(-t r^eta)
and the others iid on the annulus [r, D]. OMA benchmarks use the half-slot
rate gap with z = 0 and, for outage, the threshold 2^(2 R_M) - 1.

Outage values are clamped to [0, 1], and a nan raises ArithmeticError
rather than reading 0. Secrecy values are not clamped: each is a
quadrature of a nonnegative integrand.
"""

from math import expm1, log, sqrt

import numpy as np

from .channel import CSI_IMPERFECT, CSI_SOS, SystemConfig
from .montecarlo import PAIRS
from .specfun import gauss_legendre_rule, lower_incomplete_gamma

LN2 = log(2.0)

# the distance integrals drop distances whose exponent t/m(u) exceeds this;
# e^-45 < 3e-20 of the integrand's peak
_EXPONENT_CUTOFF = 45.0


def _clamp01(p: float) -> float:
    if p != p:
        raise ArithmeticError("outage probability evaluated to nan")
    return float(min(1.0, max(0.0, p)))


# ---------------------------------------------------------------------------
# outage probability
# ---------------------------------------------------------------------------

def _distance_axis(config: SystemConfig, t: np.ndarray, n: int, s2: float, reach: float):
    """(R, rule, f) at each t >= 0 for a gain that is exponential with mean
    m(u) = u^(-eta/2) - s2 given the squared distance u, uniform on [0, D^2].

    With R = min(1/m(reach^2), 45/t), u = R^(2/eta) w^2 (1 + s2 R w^eta)^(-2/eta)
    maps w in [0, 1] (order-n Gauss-Legendre) onto the distances up to
    reach <= D whose exponent t/m(u) = R t w^eta is at most 45, and
    e^(-t/m(u)) du/D^2 is R^(2/eta)/D^2 f dw with
    f = 2w e^(-R t w^eta) (1 + s2 R w^eta)^(-1-2/eta) smooth, of shape
    (len(t), n). At s2 = 0 the distance is r = R^(1/eta) w.
    """
    eta = config.eta
    R = 1.0 / np.maximum(reach ** (-eta) - s2, t / _EXPONENT_CUTOFF)
    rule = gauss_legendre_rule(n, 1.0)
    we = rule.nodes ** eta
    f = (2.0 * rule.nodes) * np.exp(-np.outer(R * t, we))
    f *= (1.0 + s2 * np.outer(R, we)) ** (-1.0 - 2.0 / eta)
    return R, rule, f


def _survival_est(config: SystemConfig, t: np.ndarray, n: int) -> np.ndarray:
    """P(X > t) at each t >= 0 for one user's estimated gain X, whose mean
    given u is u^(-eta/2) - sigma2: the mapped distance axis, summed."""
    R, rule, f = _distance_axis(config, t, n, config.sigma2_zeta, config.D)
    return R ** (2.0 / config.eta) / config.D ** 2 * (f @ rule.weights)


def _outage_est_ranked(config: SystemConfig, threshold: float) -> float:
    # ranking by per-realization estimates: estimates are iid across users,
    # so non-outage is the estimate survival at threshold/rho to the power K
    surv = _survival_est(config, np.array([threshold / config.rho]), config.quad_orders[0])
    return _clamp01(1.0 - float(surv[0]) ** config.K)


def _annulus_survival(config: SystemConfig, t, r):
    """A_r(t) = P(g > t, d > r) for t > 0 and one user's true gain g.

    The distance d is uniform in the disk and g is Exp(1) fading times
    d^-eta, so A_r(t) = (a / (t^a D^2)) [gamma(a, t D^eta) - gamma(a, t r^eta)]
    with a = 2/eta. A_0 is the single-user survival.
    """
    a = 2.0 / config.eta
    return (a / (t ** a * config.D ** 2)) * (
        lower_incomplete_gamma(a, t * config.D ** config.eta)
        - lower_incomplete_gamma(a, t * r ** config.eta)
    )


def _outage_exact(config: SystemConfig, threshold: float) -> float:
    # outage when some user's true gain is below threshold/rho; that event
    # ignores the ranking, so it is exact under perfect and statistical CSI
    surv = _annulus_survival(config, threshold / config.rho, 0.0)
    return _clamp01(1.0 - surv ** config.K)


def outage_noma_imperfect(config: SystemConfig) -> float:
    """Multicast outage probability when users are ranked by noisy estimates."""
    return _outage_est_ranked(config, config.eps_multicast)


def outage_noma_sos(config: SystemConfig) -> float:
    """Exact multicast outage probability for every decision made on true
    gains, under perfect and statistical CSI alike: some user's true gain
    falls below eps/rho whatever the ranking. sigma2_zeta is not read."""
    return _outage_exact(config, config.eps_multicast)


def outage_oma_imperfect(config: SystemConfig) -> float:
    """OMA benchmark of outage_noma_imperfect (half slot, doubled threshold)."""
    return _outage_est_ranked(config, config.eps_multicast_oma)


def outage_oma_sos(config: SystemConfig) -> float:
    """OMA benchmark of outage_noma_sos (half slot, doubled threshold), exact
    under perfect and statistical CSI alike."""
    return _outage_exact(config, config.eps_multicast_oma)


# the perfect-CSI names of the true-gain outage forms, kept for existing callers
outage_noma_perfect = outage_noma_sos
outage_oma_perfect = outage_oma_sos


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


def _order_statistic_mean(config: SystemConfig, z: float, s: float, scale: float,
                          m: int, survivals) -> float:
    """K integral_z^inf h'(t) S_1(t) (S(z) - S(t))^(K-1) dt, (z, s, scale) as
    in _gap_params, averaged over an outer axis when there is one.

    survivals(t) returns (S_1(t) times the outer weights, S(z), S(t)),
    broadcastable to (len(t), outer). The t axis is mapped from v in [0, 1)
    by t = z + c v / (1 - v)^eta, so the t^(-1-2/eta) tail behaves as the
    whole power (1 - v) in v at every eta (t = z + c v / (1 - v) leaves
    2/eta - 1, on which Gauss-Legendre converges only algebraically). Under
    either ranking a gain's survival has the tail (g/t)^(2/eta), g = D^-eta
    the cell-edge mean gain whatever the estimation error, so S falls to
    about 1/K near g K^(eta/2). c is the geometric mean of the rate knee s,
    g and g K^(eta/2), and at least g K^(eta/2) / 10: at large K or high
    SNR the (1 - S)^(K-1) mass sits near g K^(eta/2), which the geometric
    mean alone maps beyond the last node. m is the order on v.
    """
    K, eta, g = config.K, config.eta, config.D ** (-config.eta)
    if K < 2:
        raise ValueError("secrecy throughput needs K >= 2")
    c = max((s * g * g * K ** (eta / 2.0)) ** (1.0 / 3.0), g * K ** (eta / 2.0) / 10.0)
    rule = gauss_legendre_rule(m, 1.0)
    v = rule.nodes
    t = z + c * v / (1.0 - v) ** eta
    dt_dv = c * (1.0 - v + eta * v) / (1.0 - v) ** (eta + 1.0)

    h_prime = scale / ((s - z + t) * LN2)
    target, rest_z, rest_t = survivals(t)
    terms = (rule.weights * dt_dv * h_prime)[:, None] * target * (rest_z - rest_t) ** (K - 1)
    return float(K * np.sum(terms.sum(axis=1)))


def _secrecy_est_ranked(config: SystemConfig, z: float, s: float, scale: float) -> float:
    # iid estimates; orders quad_orders[1] on t, quad_orders[2] on distance
    def survivals(t):
        surv = _survival_est(config, np.concatenate(([z], t)), config.quad_orders[2])
        return surv[1:, None], surv[0], surv[1:, None]

    return _order_statistic_mean(config, z, s, scale, config.quad_orders[1], survivals)


def _secrecy_distance_ranked(config: SystemConfig, z: float, s: float, scale: float) -> float:
    """The target is the nearest user. Its distance r has density
    K (2r/D^2) (1 - r^2/D^2)^(K-1), and given r the others are iid on the
    annulus [r, D] with survival A_r(t) / (1 - r^2/D^2), so the annulus
    factors cancel. At each t, r runs over _distance_axis without an
    estimation error, up to r_K = D sqrt(1 - e^(-45/(K-1))): beyond r_K,
    (1 - r^2/D^2)^(K-1) < e^-45. Orders: quad_orders[3] on r, quad_orders[4] on t.
    """
    def survivals(t):
        r_K = config.D * sqrt(-expm1(-_EXPONENT_CUTOFF / (config.K - 1)))
        R, rule, f = _distance_axis(config, t, config.quad_orders[3], 0.0, r_K)
        r = np.outer(R ** (1.0 / config.eta), rule.nodes)
        target = (R ** (2.0 / config.eta) / config.D ** 2)[:, None] * f * rule.weights
        rest_z = _annulus_survival(config, z, r) if z > 0 else 1.0 - (r / config.D) ** 2
        return target, rest_z, _annulus_survival(config, t[:, None], r)

    return _order_statistic_mean(config, z, s, scale, config.quad_orders[4], survivals)


def secrecy_noma_imperfect(config: SystemConfig) -> float:
    """Average secrecy unicast throughput with estimate-based ranking.

    Mean of the high-SNR power-split surrogate: the rate gap
    log2((nu + rho X_(1)) / (nu + rho X_(2))) between the two strongest
    estimated gains, counted when the weakest one clears eps/rho.
    """
    return _secrecy_est_ranked(config, *_gap_params(config, oma=False))


def secrecy_oma_imperfect(config: SystemConfig) -> float:
    """OMA benchmark secrecy throughput with estimate-based ranking.

    Half-slot rate gap between the two strongest estimates; no power split,
    so the result does not depend on R_M.
    """
    return _secrecy_est_ranked(config, *_gap_params(config, oma=True))


def secrecy_noma_sos(config: SystemConfig) -> float:
    """Average secrecy unicast throughput for distance-ranked users.

    Mean of the high-SNR surrogate: SNR-free power split, rate gap
    log2((nu + rho g1)/(nu + rho g)) of the nearest user over the strongest
    other one, clamped at zero and counted when every gain clears eps/rho.
    """
    return _secrecy_distance_ranked(config, *_gap_params(config, oma=False))


def secrecy_oma_sos(config: SystemConfig) -> float:
    """OMA benchmark of secrecy_noma_sos: half-slot rate gap, clamped at
    zero; it does not depend on R_M."""
    return _secrecy_distance_ranked(config, *_gap_params(config, oma=True))


# the two-user names of the paper's form, kept for existing callers
secrecy_noma_sos_k2 = secrecy_noma_sos
secrecy_oma_sos_k2 = secrecy_oma_sos


def closed_forms(config: SystemConfig) -> dict:
    """{(scheme, metric_kind): value} for the pairs montecarlo.simulate_many
    scores at `config`, in `PAIRS` order, each form run once per scheme
    through its public name: outage NOMA, outage OMA, then at K >= 2 secrecy
    NOMA and OMA. Both secrecy metrics read the surrogate's form (README, Caveats)."""
    # perfect CSI decides on true gains, as sos does, and ranks the users
    # like imperfect CSI, at sigma2 = 0
    forms = ((outage_noma_imperfect, outage_oma_imperfect) if config.csi_mode == CSI_IMPERFECT
             else (outage_noma_sos, outage_oma_sos))
    if config.K >= 2:
        forms += ((secrecy_noma_sos, secrecy_oma_sos) if config.csi_mode == CSI_SOS
                  else (secrecy_noma_imperfect, secrecy_oma_imperfect))
    values = [form(config) for form in forms]
    return dict(zip(PAIRS, values + values[2:]))  # the secrecy values fill both metrics
