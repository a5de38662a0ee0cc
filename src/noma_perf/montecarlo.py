"""Monte Carlo oracle for the analytic evaluators.

Trials are generated in fixed-size batches; batch i of a stream uses a
generator seeded by SeedSequence(seed, spawn_key=(stream, i)), and batch
results are reduced in batch order. The estimate is therefore bit-identical
across runs and across worker counts for a fixed seed and stream.

`simulate_many` scores several (scheme, metric) pairs from one shared
sample: each batch is drawn once and every pair is reduced from it. The
sample does not depend on which pairs are scored, so each estimate equals
the one `simulate` gives for that pair on the same stream, bit for bit.
One kernel (`_score_batch`) scores all pairs of a batch from shared
intermediates (scheduling order, weakest decision gain, target,
eavesdropper, unicast share); the per-trial values are the same bits as
scoring each pair on its own, since row minima and maxima are exact.

Two secrecy metrics exist side by side:

* "secrecy_throughput" scores each snapshot with the realized power split
  of `noma_core.power_split`, driven by the last scheduled gain.
* "secrecy_throughput_surrogate" scores the high-SNR surrogate the analytic
  forms actually approximate (SNR-free split, rate gap of the target over
  the best other user clamped at zero, outage indicator inside the mean).
  Under OMA there is no power split and the two metrics coincide.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import CSI_SOS, SystemConfig, sample_batch
from .noma_core import power_split

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


def _row_reduce(ufunc, gains):
    """Row-wise np.minimum or np.maximum of a (trials, k) batch.

    One ufunc call per column: over the short user axis this is exact and
    much cheaper than np.min/np.max(axis=1), which pay per row.
    """
    out = gains[:, 0].copy()
    for j in range(1, gains.shape[1]):
        ufunc(out, gains[:, j], out=out)
    return out


def _score_batch(config: SystemConfig, pairs, true_gains: np.ndarray, est_gains) -> dict:
    """Per-trial values of every (scheme, metric_kind) pair for one batch.

    Returns {pair: array}. The scheduling order, the weakest decision gain,
    the target, the eavesdropper and the NOMA unicast share are computed
    once for all pairs; both OMA secrecy pairs map to one array. Pairs
    are assumed valid (`simulate_many` checks them).
    """
    rho = config.rho
    sos = config.csi_mode == CSI_SOS
    eps = config.eps_multicast
    wanted = set(pairs)
    secrecy = any(metric_kind != METRIC_OUTAGE for _, metric_kind in wanted)

    if secrecy:
        # scheduling order: estimates sorted descending, or distance order
        # (rows of sample_batch are already nearest-first) under statistical CSI
        ranked = true_gains if sos else -np.sort(-est_gains, axis=1)
        target = ranked[:, 0]
        # best internal eavesdropper; under statistical CSI the target is
        # not the strongest user, so it is the best of the rest
        eave = _row_reduce(np.maximum, ranked[:, 1:]) if sos else ranked[:, 1]
    # weakest gain the scheduler decides on (the sorted estimates end with it)
    if sos:
        weakest = _row_reduce(np.minimum, true_gains)
    elif secrecy:
        weakest = ranked[:, -1]
    else:
        weakest = _row_reduce(np.minimum, est_gains)

    values = {}
    for scheme, threshold in ((SCHEME_NOMA, eps), (SCHEME_OMA, config.eps_multicast_oma)):
        if (scheme, METRIC_OUTAGE) in wanted:
            values[(scheme, METRIC_OUTAGE)] = (weakest < threshold / rho).astype(float)

    oma_pairs = wanted & {(SCHEME_OMA, METRIC_SECRECY), (SCHEME_OMA, METRIC_SECRECY_SURROGATE)}
    if oma_pairs:
        # no power split under OMA, so surrogate and exact coincide
        gap = 0.5 * (np.log2(1.0 + rho * target) - np.log2(1.0 + rho * eave))
        oma = np.maximum(0.0, gap)
        for pair in oma_pairs:
            values[pair] = oma

    if (SCHEME_NOMA, METRIC_SECRECY_SURROGATE) in wanted:
        nu = 1.0 + eps
        ok = weakest >= eps / rho
        gap = np.log2((nu + rho * target) / (nu + rho * eave))
        values[(SCHEME_NOMA, METRIC_SECRECY_SURROGATE)] = ok * np.maximum(0.0, gap)

    if (SCHEME_NOMA, METRIC_SECRECY) in wanted:
        # exact secrecy: realized split driven by the last scheduled gain
        # (the farthest user under statistical CSI); a trial that is not ok
        # scores 0 whatever share the split gives it
        ok = weakest >= eps / rho
        theta_u = power_split(ranked[:, -1], rho, config.R_M).theta_U
        gap = np.log2((1.0 + rho * theta_u * target) / (1.0 + rho * theta_u * eave))
        values[(SCHEME_NOMA, METRIC_SECRECY)] = ok * np.maximum(0.0, gap)
    return values


def _run_batch(config, pairs, seed, stream, index, size):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))
    _, _, true_gains, est_gains = sample_batch(config, rng, size)
    values = _score_batch(config, pairs, true_gains, est_gains)
    sums = {}  # keyed by array identity: a shared array is reduced once
    for pair in pairs:
        v = values[pair]
        if id(v) not in sums:
            sums[id(v)] = (float(np.sum(v)), float(np.sum(v * v)))
    return [sums[id(values[pair])] for pair in pairs]


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
        if metric_kind != METRIC_OUTAGE and config.K < 2:
            raise ValueError("secrecy throughput needs K >= 2")
    if not isinstance(trials, (int, np.integer)) or trials < 2:
        raise ValueError("trials must be an integer >= 2")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError("workers must be an integer >= 1")
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
