"""Reference scoring for `montecarlo._score_batch`. Test-only.

Per-pair form (`metric_values`): each (scheme, metric) pair is scored on
its own, from scheduling roles (`roles`) taken by a full row sort and
np.min/np.max over the user axis, recomputed per call. The kernel shares
these intermediates across pairs and finds them without a sort
(`montecarlo.schedule`); since minima, maxima and order statistics are
exact, its roles and per-trial values must equal these bit for bit.

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

    Returns (squared_distances, fading_powers, ranked_gains, est_gains) as
    `sample_batch` does: ranked_gains are the estimates outside statistical
    CSI, where squared_distances and fading_powers are None, and the true gains,
    nearest-first, under it, where est_gains is None.
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


def roles(config, gains):
    """(weakest, driving, target, eavesdropper) of each row of a batch of
    the gains the scheduler ranks (`sample_batch` index 2), by a full sort.

    The weakest gain decides multicast outage and the driving gain sets the
    power split. Estimates are sorted descending: the strongest is the
    target, the runner-up eavesdrops and the weakest drives the split.
    Under statistical CSI rows are already nearest-first: the nearest user
    is the target, the best of the rest eavesdrops and the farthest drives
    the split. Target and eavesdropper are None at K = 1.
    """
    weakest = np.min(gains, axis=1)
    if config.csi_mode == CSI_SOS:
        driving = gains[:, -1]
        if config.K < 2:
            return weakest, driving, None, None
        return weakest, driving, gains[:, 0], np.max(gains[:, 1:], axis=1)
    ranked = -np.sort(-gains, axis=1)
    if config.K < 2:
        return weakest, ranked[:, -1], None, None
    return weakest, ranked[:, -1], ranked[:, 0], ranked[:, 1]


def metric_values(config, scheme, metric_kind, gains):
    """Per-trial values of one (scheme, metric_kind) pair for a batch of
    the gains the scheduler ranks (`sample_batch` index 2)."""
    rho = config.rho
    threshold = config.eps_multicast if scheme == SCHEME_NOMA else config.eps_multicast_oma
    weakest, driving, target, eave = roles(config, gains)

    if metric_kind == METRIC_OUTAGE:
        return (weakest < threshold / rho).astype(float)

    if config.K < 2:
        raise ValueError("secrecy throughput needs K >= 2")

    if scheme == SCHEME_OMA:
        # no power split, so surrogate and exact coincide
        gap = 0.5 * (np.log2(1.0 + rho * target) - np.log2(1.0 + rho * eave))
        return np.maximum(0.0, gap)

    eps = config.eps_multicast
    nu = 1.0 + eps
    # counted only when every gain clears the multicast threshold
    ok = weakest >= eps / rho

    if metric_kind == METRIC_SECRECY_SURROGATE:
        # the target over the eavesdropper, clamped at zero
        return ok * np.maximum(0.0, np.log2((nu + rho * target) / (nu + rho * eave)))

    # exact secrecy: realized split set by the driving gain, 0 in outage
    z = eps / rho
    theta_u = np.where(ok, (1.0 - z / np.maximum(driving, z)) / nu, 0.0)
    gap = np.log2((1.0 + rho * theta_u * target) / (1.0 + rho * theta_u * eave))
    return ok * np.maximum(0.0, gap)
