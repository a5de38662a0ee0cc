"""Reference scoring for `montecarlo._score_batch`. Test-only.

Per-pair form (`metric_values`): each (scheme, metric) pair is scored on
its own, with row minima and maxima taken by np.min/np.max over the user
axis and the scheduling order recomputed per call. The kernel shares these
intermediates across pairs; since minima and maxima are exact, its
per-trial values must equal these bit for bit.

Per-snapshot form (`secrecy_throughput_noma`, `oma_rates`): one snapshot
of true and estimated gains at a time, in scalar arithmetic through
`noma_core.power_split` and `unicast_rate`.
"""

import numpy as np

from noma_perf.channel import CSI_SOS, sample_batch
from noma_perf.montecarlo import (
    METRIC_OUTAGE,
    METRIC_SECRECY_SURROGATE,
    SCHEME_NOMA,
    SCHEME_OMA,
)
from noma_perf.noma_core import power_split


def snapshot(config, rng):
    """One snapshot: row 0 of every array of a one-row `sample_batch` draw.

    Returns (distances, fading_powers, true_gains, est_gains), sorted by
    distance; est_gains is None under statistical CSI.
    """
    return tuple(None if a is None else a[0] for a in sample_batch(config, rng, 1))


def unicast_rate(alpha: float, theta_U: float, rho: float) -> float:
    """Unicast rate after SIC has removed the multicast stream."""
    if alpha < 0 or theta_U < 0:
        raise ValueError("alpha and theta_U must be nonnegative")
    return float(np.log2(1.0 + rho * theta_U * alpha))


def secrecy_throughput_noma(true_gains, est_gains, config) -> float:
    """Secrecy unicast throughput of one snapshot under the config's CSI mode.

    With per-realization estimates the scheduler ranks estimated gains; the
    unicast target is the estimated-strongest user and the split is driven by
    the estimated-weakest. Under statistical CSI ranking falls back to
    distance, so the target is the nearest user and the split is driven by
    the farthest one's true gain.
    """
    rho, R_M = config.rho, config.R_M
    if config.csi_mode == CSI_SOS:
        if config.K < 2:
            raise ValueError("secrecy throughput needs K >= 2")
        gains = true_gains  # already distance-sorted
        split = power_split(float(gains[-1]), rho, R_M)
        eps = config.eps_multicast
        if np.min(gains) < eps / rho:  # some user cannot decode the multicast
            return 0.0
        target, eave = float(gains[0]), float(np.max(gains[1:]))
    else:
        gains = est_gains
        if gains is None or config.K < 2:
            raise ValueError("need estimated gains and K >= 2")
        ranked = np.sort(gains)[::-1]
        split = power_split(float(ranked[-1]), rho, R_M)
        if split.outage:
            return 0.0
        target, eave = float(ranked[0]), float(ranked[1])
    leak = unicast_rate(eave, split.theta_U, rho)
    return max(0.0, unicast_rate(target, split.theta_U, rho) - leak)


def oma_rates(true_gains, est_gains, config):
    """Benchmark rates when multicast and unicast get orthogonal half slots.

    Returns (per-user multicast rates, secrecy unicast throughput). Under
    statistical CSI the unicast target is the nearest user and the
    strongest of the others eavesdrops; otherwise ranking uses the
    estimates.
    """
    rho = config.rho
    if config.K < 2:
        raise ValueError("secrecy throughput needs K >= 2")
    if config.csi_mode == CSI_SOS:
        gains = true_gains
        target, eave = float(gains[0]), float(np.max(gains[1:]))
    else:
        gains = est_gains
        if gains is None:
            raise ValueError("need estimated gains outside statistical CSI")
        ranked = np.sort(gains)[::-1]
        target, eave = float(ranked[0]), float(ranked[1])
    mc = 0.5 * np.log2(1.0 + rho * gains)
    secrecy = max(0.0, 0.5 * (np.log2(1.0 + rho * target) - np.log2(1.0 + rho * eave)))
    return mc, secrecy


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
