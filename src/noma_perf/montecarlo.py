"""Monte Carlo oracle for the analytic evaluators; no other module draws.

Trials are generated in batches of `batch_rows(K)` rows: 10k rows up to
K = 8, and 80k // K rows above it, so a batch holds at most 80k gains
(K above 80k is refused). Batch i of a stream uses a generator seeded by
SeedSequence(seed, spawn_key=(stream, i)), and batch results are reduced
in batch order. The estimate is therefore bit-identical across runs and
across worker counts for a fixed seed and stream.

Each batch draws only the gains the scheduler ranks (`channel.sample_batch`):
estimates, in draw order, under imperfect and perfect CSI; true gains,
nearest-first, under statistical CSI. The batch is user-major, so each
user's gains are contiguous for the scorer's reductions over users.

`simulate_many` scores several (scheme, metric) pairs from one shared
sample: each batch is drawn once and every pair is reduced from it. The
sample does not depend on which pairs are scored, so each estimate equals
the one `simulate` gives for that pair on the same stream, bit for bit.
One kernel (`_score_batch`) scores all pairs of a batch from the roles
`schedule` gives each row (weakest decision gain, the gain driving the
power split, target, eavesdropper).
Under estimate ranking the target and eavesdropper are the row maximum
and second maximum, found by one column loop without ranking the rest. The
per-trial values are the same bits as scoring each pair on its own, since
row minima, maxima and order statistics are exact copies of gains.

Two secrecy metrics exist side by side:

* "secrecy_throughput" scores each snapshot with the realized power split
  of `noma_core.power_split`, driven by the weakest scheduled gain (the
  farthest user's under statistical CSI).
* "secrecy_throughput_surrogate" scores the high-SNR surrogate the analytic
  forms actually approximate (SNR-free split, rate gap of the target over
  the best other user clamped at zero, outage indicator inside the mean).
  Under OMA there is no power split and the two metrics coincide.
"""

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

BATCH_SIZE = 10_000  # rows of a batch up to K = 8
# Gains of a batch above it. Peak RSS of simulate_many, all six pairs, 3e4
# trials, numpy 2.4: 10k-row batches 41.1 / 50.3 MB at K = 40 / 100
# (imperfect) and 47.8 / 66.3 MB (sos); 80k-gain batches 36.3-38.2 MB at
# both, as at K = 8.
BATCH_ELEMENTS = 80_000

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MetricEstimate:
    value: float
    half_width_95: float
    trials: int
    metric_kind: str
    scheme: str
    csi_mode: str


def batch_rows(K: int) -> int:
    """Rows per batch at K users: at most BATCH_SIZE and BATCH_ELEMENTS gains."""
    return max(1, min(BATCH_SIZE, BATCH_ELEMENTS // K))


def _top2(gains):
    """(max, second max) of each row of a (trials, K >= 2) batch.

    One column loop; np.partition along the user axis costs 3x (K = 40)
    to 20x (K = 3) as much. Both are elements of their row, so the bits
    equal those of a full row sort.
    """
    a, b = gains[:, 0], gains[:, 1]
    top, second = np.maximum(a, b), np.minimum(a, b)
    spare = np.empty_like(top)
    for j in range(2, gains.shape[1]):
        col = gains[:, j]
        np.minimum(top, col, out=spare)  # a new top pushes the old one down
        np.maximum(second, spare, out=second)
        np.maximum(top, col, out=top)
    return top, second


def schedule(config: SystemConfig, gains: np.ndarray, secrecy: bool):
    """(weakest, driving, target, eavesdropper) gains of each row.

    The weakest is the row minimum under either ranking. Estimates: the
    weakest drives the power split, the strongest is the target and the
    runner-up eavesdrops. Statistical CSI (rows nearest-first): the
    farthest drives, the nearest is the target and the best of the rest
    eavesdrops. Only the secrecy scores read the split, so driving, target
    and eavesdropper are None unless `secrecy` is set and K >= 2, and
    outage-only callers skip `_top2`.
    """
    weakest = gains.min(axis=1)
    if not secrecy or gains.shape[1] < 2:
        return weakest, None, None, None
    if config.csi_mode == CSI_SOS:
        return weakest, gains[:, -1], gains[:, 0], gains[:, 1:].max(axis=1)
    target, eave = _top2(gains)
    return weakest, weakest, target, eave


def _score_batch(config: SystemConfig, pairs, gains: np.ndarray) -> dict:
    """Per-trial values of every (scheme, metric_kind) pair for one batch.

    `gains` are the ranked gains of `sample_batch`: estimates in any order,
    or true gains nearest-first under statistical CSI. Returns
    {pair: array}. The scheduler's roles (`schedule`), the NOMA outage
    mask and the NOMA unicast share are computed once for all pairs; both
    OMA secrecy pairs map to one array. Pairs are assumed valid
    (`simulate_many` checks them).
    """
    rho = config.rho
    eps = config.eps_multicast
    wanted = set(pairs)
    secrecy = any(metric_kind != METRIC_OUTAGE for _, metric_kind in wanted)
    weakest, driving, target, eave = schedule(config, gains, secrecy)
    ok = weakest >= eps / rho  # every user decodes the NOMA multicast

    values = {}
    if (SCHEME_NOMA, METRIC_OUTAGE) in wanted:
        values[(SCHEME_NOMA, METRIC_OUTAGE)] = (~ok).astype(float)
    if (SCHEME_OMA, METRIC_OUTAGE) in wanted:
        oma_outage = weakest < config.eps_multicast_oma / rho
        values[(SCHEME_OMA, METRIC_OUTAGE)] = oma_outage.astype(float)

    oma_pairs = wanted & {(SCHEME_OMA, METRIC_SECRECY), (SCHEME_OMA, METRIC_SECRECY_SURROGATE)}
    if oma_pairs:
        # no power split under OMA, so surrogate and exact coincide
        gap = 0.5 * (np.log2(1.0 + rho * target) - np.log2(1.0 + rho * eave))
        oma = np.maximum(0.0, gap)
        for pair in oma_pairs:
            values[pair] = oma

    if (SCHEME_NOMA, METRIC_SECRECY_SURROGATE) in wanted:
        nu = 1.0 + eps
        gap = np.log2((nu + rho * target) / (nu + rho * eave))
        values[(SCHEME_NOMA, METRIC_SECRECY_SURROGATE)] = ok * np.maximum(0.0, gap)

    if (SCHEME_NOMA, METRIC_SECRECY) in wanted:
        # exact secrecy: realized split; a trial that is not ok scores 0
        # whatever share the split gives it
        theta_u = power_split(driving, rho, config.R_M).theta_U
        gap = np.log2((1.0 + rho * theta_u * target) / (1.0 + rho * theta_u * eave))
        values[(SCHEME_NOMA, METRIC_SECRECY)] = ok * np.maximum(0.0, gap)
    return values


def _run_batch(config, pairs, seed, stream, index, size):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))
    values = _score_batch(config, pairs, sample_batch(config, rng, size)[2])
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
    if config.K > BATCH_ELEMENTS:  # one row of K gains must fit a batch
        raise ValueError(f"K must be at most {BATCH_ELEMENTS}")
    for name, value, low, message in (("trials", trials, 2, "an integer >= 2"),
                                      ("seed", seed, 0, "a nonnegative integer"),
                                      ("workers", workers, 1, "an integer >= 1"),
                                      ("stream", stream, 0, "a nonnegative integer")):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be {message}")

    rows = batch_rows(config.K)
    sizes = [rows] * (trials // rows)
    if trials % rows:
        sizes.append(trials % rows)

    def job(i):
        return _run_batch(config, pairs, seed, stream, i, sizes[i])

    if workers == 1:
        parts = [job(i) for i in range(len(sizes))]
    else:
        # imported here: concurrent.futures pulls in logging, about 6 ms of
        # every one-worker start-up
        from concurrent.futures import ThreadPoolExecutor

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
