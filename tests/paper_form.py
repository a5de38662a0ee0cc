"""The paper's multinomial form of the estimate-ranked secrecy mean.

Test-only reference. The paper expands F^(K-1) in the K-fold
order-statistics integral as a multinomial over the nodes of two nested
Gauss-Chebyshev rules, one weak composition of K - 1 per term, so the sum
has C(K - 1 + n, n) terms and grows as C(K + 9, 10) at the paper's n = 10.
It gives the mean rate gap E[h(X_(1)) - h(X_(2))] with no outage
indicator; the paper then multiplies it by the non-outage probability,
which treats the outage event as independent of the gap.
"""

import itertools
from math import log

import numpy as np

from noma_perf.specfun import chebyshev_rule, expint_e1_scaled

LN2 = log(2.0)


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
