"""Per-pair Monte Carlo scoring: the reference for `montecarlo._score_batch`.

Test-only. Each (scheme, metric) pair is scored on its own, with row
minima and maxima taken by np.min/np.max over the user axis and the
scheduling order recomputed per call. The kernel shares these
intermediates across pairs; since minima and maxima are exact, its
per-trial values must equal these bit for bit.
"""

import numpy as np

from noma_perf.channel import CSI_SOS
from noma_perf.montecarlo import (
    METRIC_OUTAGE,
    METRIC_SECRECY_SURROGATE,
    SCHEME_NOMA,
    SCHEME_OMA,
)


def ranked_gains(config, true_gains, est_gains):
    # scheduling order: estimates sorted descending, or distance order
    # (rows of sample_batch are already nearest-first) under statistical CSI
    if config.csi_mode == CSI_SOS:
        return true_gains
    return -np.sort(-est_gains, axis=1)


def metric_values(config, scheme, metric_kind, true_gains, est_gains):
    """Per-trial values of one (scheme, metric_kind) pair for a batch."""
    rho = config.rho
    sos = config.csi_mode == CSI_SOS
    threshold = config.eps_multicast if scheme == SCHEME_NOMA else config.eps_multicast_oma
    decision_gains = true_gains if sos else est_gains

    if metric_kind == METRIC_OUTAGE:
        return (np.min(decision_gains, axis=1) < threshold / rho).astype(float)

    if config.K < 2:
        raise ValueError("secrecy throughput needs K >= 2")
    ranked = ranked_gains(config, true_gains, est_gains)

    if scheme == SCHEME_OMA:
        # target is the top-ranked user, eavesdropper the best of the rest;
        # no power split, so surrogate and exact coincide
        target = ranked[:, 0]
        eave = np.max(ranked[:, 1:], axis=1) if sos else ranked[:, 1]
        gap = 0.5 * (np.log2(1.0 + rho * target) - np.log2(1.0 + rho * eave))
        return np.maximum(0.0, gap)

    eps = config.eps_multicast
    nu = 1.0 + eps
    target = ranked[:, 0]

    if metric_kind == METRIC_SECRECY_SURROGATE:
        if sos:
            # the nearest user over the best of the rest, clamped at zero,
            # counted when every gain clears the multicast threshold
            ok = np.min(true_gains, axis=1) >= eps / rho
            eave = np.max(ranked[:, 1:], axis=1)
            return ok * np.maximum(0.0, np.log2((nu + rho * target) / (nu + rho * eave)))
        second = ranked[:, 1]
        ok = ranked[:, -1] >= eps / rho
        return ok * np.log2((nu + rho * target) / (nu + rho * second))

    # exact secrecy: realized split driven by the weakest scheduled gain
    weakest = ranked[:, -1]
    ok = np.min(decision_gains, axis=1) >= eps / rho if sos else weakest >= eps / rho
    theta_u = np.where(ok, (weakest - eps / rho) / (weakest * nu), 0.0)
    eave = np.max(ranked[:, 1:], axis=1) if sos else ranked[:, 1]
    gap = np.log2((1.0 + rho * theta_u * target) / (1.0 + rho * theta_u * eave))
    return ok * np.maximum(0.0, gap)
