"""The paper's forms of the secrecy means: test-only references.

The estimate-ranked form (`paper_gap_mean`): the paper expands F^(K-1)
in the K-fold order-statistics integral as a multinomial over the nodes of
two nested Gauss-Chebyshev rules, one weak composition of K - 1 per term,
so the sum has C(K - 1 + n, n) terms and grows as C(K + 9, 10) at the
paper's n = 10.
It gives the mean rate gap E[h(X_(1)) - h(X_(2))] with no outage
indicator; the paper then multiplies it by the non-outage probability,
which treats the outage event as independent of the gap.

The two-user distance-ranked form (`paper_sos_k2`) integrates the
closed-form fading expectation of the surrogate over the ordered
distances; the paper gives it only for K = 2.

`distance_order_pdf` is the density of the k-th nearest user distance
that such forms integrate over.
"""

import itertools
from math import comb, log

import numpy as np

from noma_perf.specfun import chebyshev_rule, expint_e1_scaled, gauss_legendre_rule

LN2 = log(2.0)


def distance_order_pdf(k: int, K: int, D: float, x):
    """Density of the k-th nearest of K uniform-in-disk distances at x.

    Standard order-statistic form with parent cdf (x/D)^2 on [0, D].
    """
    if not isinstance(k, (int, np.integer)) or not isinstance(K, (int, np.integer)):
        raise ValueError("k and K must be integers")
    if not 1 <= k <= K:
        raise ValueError("need 1 <= k <= K")
    if not D > 0:
        raise ValueError("D must be positive")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    if np.any((x_arr < 0) | (x_arr > D)):
        raise ValueError("x must lie in [0, D]")
    cdf = (x_arr / D) ** 2
    pdf = 2.0 * x_arr / D ** 2
    out = k * comb(K, k) * cdf ** (k - 1) * (1.0 - cdf) ** (K - k) * pdf
    return float(out) if scalar else out


def weak_compositions(total: int, parts: int):
    """Yield all tuples of `parts` nonnegative ints summing to `total`.

    Lexicographically increasing; there are C(total+parts-1, parts-1).
    """
    if not isinstance(total, (int, np.integer)) or total < 0:
        raise ValueError("total must be a nonnegative integer")
    if not isinstance(parts, (int, np.integer)) or parts < 1:
        raise ValueError("parts must be a positive integer")

    def gen():
        slots = total + parts - 1
        for bars in itertools.combinations(range(slots), parts - 1):
            prev = -1
            out = []
            for b in bars:
                out.append(b - prev - 1)
                prev = b
            out.append(slots - 1 - prev)
            yield tuple(out)

    return gen()


def paper_gap_mean(config, oma: bool) -> float:
    """E[h(X_(1)) - h(X_(2))] for estimate-ranked users, the paper's way.

    Orders m (outer) and n (inner) are quad_orders[1] and quad_orders[2].
    h(t) = log2(nu + rho t) with nu = 1 + eps for NOMA, and
    h(t) = log2(1 + rho t) / 2 for OMA.
    """
    K, D, eta = config.K, config.D, config.eta
    rho, s2 = config.rho, config.sigma2_zeta
    m, n = config.quad_orders[1], config.quad_orders[2]
    nu = 1.0 if oma else 1.0 + config.eps_multicast

    outer = chebyshev_rule(m, 1.0)
    tau = outer.nodes
    inner = chebyshev_rule(n, D)
    x = inner.nodes
    inv = 1.0 / (x ** (-eta) - s2)  # mean estimate power at each node

    # log(|sin_t| x_t) with the sine recovered from the weight
    sin_n = inner.weights * (2 * n) / (np.pi * D)
    log_sx = np.log(sin_n * x)
    log_node_factor = log(np.pi / (n * D))
    # log r! for r = 0 .. K-1
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, K, dtype=float)))))

    R = np.asarray(list(weak_compositions(K - 1, n + 1)), dtype=np.int64)
    Rn = R[:, 1:].astype(float)
    S = Rn.sum(axis=1)
    log_a = log_fact[K - 1] - log_fact[R].sum(axis=1) + S * log_node_factor + Rn @ log_sx
    a = np.where(S % 2 == 0, 1.0, -1.0) * np.exp(log_a)
    b_base = Rn @ inv
    all_zero = S == 0
    inner_sum = np.zeros(m)
    for u in range(m):
        rt = rho * tau[u]
        b = tau[u] * b_base
        mu = (b[:, None] + inv[None, :]) / rt
        # e^(nu mu) Ei(-nu mu) = -expint_e1_scaled(nu mu)
        g = 1.0 - b[:, None] / (rt * mu) - nu * expint_e1_scaled(nu * mu) * (
            mu - b[:, None] / rt
        )
        h = -(np.pi / (n * D * rt)) * (g @ (sin_n * x))
        h += np.where(all_zero, 1.0 / rt, 0.0)
        inner_sum[u] = a @ h

    sin_m = outer.weights * (2 * m) / np.pi
    bracket = 1.0 / (rho * tau) - inner_sum
    scale = 4.0 if oma else 2.0
    return float(K * np.pi * rho / (scale * m * LN2) * np.dot(sin_m, bracket))


def paper_sos_k2(config, oma: bool) -> float:
    """Mean surrogate rate gap of two distance-ranked users.

    NOMA: h(t) = log2(nu + rho t) with nu = 1 + eps, counted above
    z = eps/rho; OMA: h(t) = log2(1 + rho t) / 2 with z = 0. In both,
    h'(t) = scale / ((s - z + t) ln 2). Given the distances r1 < r2, with
    A = r1^eta and B = r2^eta, the gap counted when g1 >= g2 >= z has
    expectation scale e^(-z(A+B)) [G(sA) - G(s(A+B))] / ln 2, where
    G(x) = e^x E1(x). That is integrated against the ordered-distance
    density 8 r1 r2 / D^4 by Gauss-Legendre quadrature, order
    quad_orders[3] over the ratio r1/r2 and quad_orders[4] over r2.
    """
    if config.K != 2:
        raise ValueError("the two-user form needs K = 2")
    D, eta, rho = config.D, config.eta, config.rho
    if oma:
        z, s, scale = 0.0, 1.0 / rho, 0.5
    else:
        eps = config.eps_multicast
        z, s, scale = eps / rho, (1.0 + 2.0 * eps) / rho, 1.0
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
