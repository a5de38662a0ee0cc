"""Monte Carlo oracle for the analytic evaluators.

Trials are generated in fixed-size batches; batch i of a stream uses a
generator seeded by SeedSequence(seed, spawn_key=(stream, i)), and batch
results are reduced in batch order. The estimate is therefore bit-identical
across runs and across worker counts for a fixed seed and stream.

`simulate_many` scores several (scheme, metric) pairs from one shared
sample: each batch is drawn once and every pair is reduced from it. The
sample does not depend on which pairs are scored, so each estimate equals
the one `simulate` gives for that pair on the same stream, bit for bit.

Two secrecy metrics exist side by side:

* "secrecy_throughput" scores each snapshot with the realized power split,
  mirroring noma_core exactly.
* "secrecy_throughput_surrogate" scores the high-SNR surrogate the analytic
  forms actually approximate (SNR-free split, rate gap of the two
  strongest scheduled gains, outage indicator inside the mean). Under OMA
  there is no power split and the two metrics coincide.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import CSI_SOS, SystemConfig, sample_batch

SCHEME_NOMA = "noma"
SCHEME_OMA = "oma"
SCHEMES = (SCHEME_NOMA, SCHEME_OMA)

METRIC_OUTAGE = "outage_prob"
METRIC_SECRECY = "secrecy_throughput"
METRIC_SECRECY_SURROGATE = "secrecy_throughput_surrogate"
METRIC_KINDS = (METRIC_OUTAGE, METRIC_SECRECY, METRIC_SECRECY_SURROGATE)

BATCH_SIZE = 10_000

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MetricEstimate:
    value: float
    half_width_95: float
    trials: int
    metric_kind: str
    scheme: str
    csi_mode: str


def _ranked_gains(config, true_gains, est_gains):
    # scheduling order: estimates sorted descending, or distance order
    # (rows of sample_batch are already nearest-first) under statistical CSI
    if config.csi_mode == CSI_SOS:
        return true_gains
    return -np.sort(-est_gains, axis=1)


def _metric_values(config: SystemConfig, scheme: str, metric_kind: str,
                   true_gains: np.ndarray, est_gains, ranked=None) -> np.ndarray:
    """Per-trial metric values for a batch of gain rows.

    `ranked` is the batch's scheduling order from `_ranked_gains`; it is
    computed here when not given.
    """
    rho = config.rho
    sos = config.csi_mode == CSI_SOS
    threshold = config.eps_multicast if scheme == SCHEME_NOMA else config.eps_multicast_oma
    decision_gains = true_gains if sos else est_gains

    if metric_kind == METRIC_OUTAGE:
        return (np.min(decision_gains, axis=1) < threshold / rho).astype(float)

    if config.K < 2:
        raise ValueError("secrecy throughput needs K >= 2")
    if ranked is None:
        ranked = _ranked_gains(config, true_gains, est_gains)

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
            if config.K != 2:
                raise ValueError("distance-ranked surrogate is defined for K = 2")
            second = ranked[:, 1]
            ok = (target >= second) & (second >= eps / rho)
        else:
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


def _run_batch(config, pairs, seed, stream, index, size):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))
    _, _, true_gains, est_gains = sample_batch(config, rng, size)
    # outage needs no scheduling order; secrecy pairs share one
    ranked = None
    if any(metric_kind != METRIC_OUTAGE for _, metric_kind in pairs):
        ranked = _ranked_gains(config, true_gains, est_gains)
    sums = []
    for scheme, metric_kind in pairs:
        v = _metric_values(config, scheme, metric_kind, true_gains, est_gains, ranked)
        sums.append((float(np.sum(v)), float(np.sum(v * v))))
    return sums


def _wilson_half_width(successes: float, n: int) -> float:
    p = successes / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    return _Z95 * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom


def simulate(config: SystemConfig, scheme: str, metric_kind: str, trials: int,
             seed: int, workers: int = 1, stream: int = 0) -> MetricEstimate:
    """Estimate one metric by simulation, with a 95% half width.

    Outage probabilities get a Wilson interval (stays informative when the
    empirical rate hits 0 or 1); throughputs get the normal approximation.
    `stream` selects an independent substream under the same seed.
    """
    pair = (scheme, metric_kind)
    return simulate_many(config, [pair], trials, seed, workers=workers, stream=stream)[pair]


def simulate_many(config: SystemConfig, pairs, trials: int, seed: int,
                  workers: int = 1, stream: int = 0) -> dict:
    """Estimate every (scheme, metric_kind) pair in `pairs` from one sample.

    Returns {(scheme, metric_kind): MetricEstimate}. Each batch is drawn
    once and scored for every pair, so a sweep can draw one stream per
    axis point; each entry is bit-identical to `simulate` for that pair on
    the same seed and stream.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must name at least one (scheme, metric_kind)")
    for scheme, metric_kind in pairs:
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if metric_kind not in METRIC_KINDS:
            raise ValueError(f"metric_kind must be one of {METRIC_KINDS}")
    if not isinstance(trials, (int, np.integer)) or trials < 2:
        raise ValueError("trials must be an integer >= 2")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not isinstance(stream, (int, np.integer)) or stream < 0:
        raise ValueError("stream must be a nonnegative integer")

    sizes = [BATCH_SIZE] * (trials // BATCH_SIZE)
    if trials % BATCH_SIZE:
        sizes.append(trials % BATCH_SIZE)

    def job(i):
        return _run_batch(config, pairs, seed, stream, i, sizes[i])

    if workers == 1:
        parts = [job(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, range(len(sizes))))

    totals = [[0.0, 0.0] for _ in pairs]
    for part in parts:  # fixed reduction order, independent of workers
        for acc, (s, s2) in zip(totals, part):
            acc[0] += s
            acc[1] += s2

    n = trials
    estimates = {}
    for (scheme, metric_kind), (total, total_sq) in zip(pairs, totals):
        if metric_kind == METRIC_OUTAGE:
            hw = _wilson_half_width(total, n)
        else:
            var = max(0.0, (total_sq - total * total / n) / (n - 1))
            hw = _Z95 * np.sqrt(var / n)
        estimates[(scheme, metric_kind)] = MetricEstimate(
            value=float(total / n),
            half_width_95=float(hw),
            trials=n,
            metric_kind=metric_kind,
            scheme=scheme,
            csi_mode=config.csi_mode,
        )
    return estimates
