"""Monte Carlo oracle for the analytic evaluators; no other module draws.

Trials are generated in batches of `batch_rows(K)` rows: 10k rows up to
K = 8, and 80k // K rows above it, so a batch holds at most 80k gains
(K above 80k is refused). Batch i of a stream uses a generator seeded by
SeedSequence(seed, spawn_key=(stream, i)), and batch results are reduced
in batch order. The estimate is therefore bit-identical across runs and
across worker counts for a fixed seed and stream.

Each worker thread of a job draws and scores all of its batches in one
workspace (`_workspace`) of at most 3 * BATCH_ELEMENTS floats, so no batch
allocates an array; draws and ufuncs give the same bits into it as into new
arrays.

Each batch draws only the gains the scheduler ranks (`channel.sample_batch`):
estimates, in draw order, under imperfect and perfect CSI; true gains,
nearest-first, under statistical CSI. The batch is user-major, so each
user's gains are contiguous for the scorer's reductions over users.

Every batch scores every metric: one straight-line kernel (`_score_batch`)
gives each valid (scheme, metric) pair its per-trial values, from the
roles `schedule` gives each row (weakest decision gain, the gain driving
the power split, target, eavesdropper). `simulate_many` reduces all of
them and returns every pair; `simulate` returns one of those estimates.
Under estimate ranking the target and eavesdropper are the row maximum
and second maximum, found by one column loop without ranking the rest;
they are exact copies of gains, so the values are the bits of scoring
each pair on its own after a full sort.

Two secrecy metrics exist side by side:

* "secrecy_throughput" scores each snapshot with the realized power split
  of `noma_core.power_split`, driven by the weakest scheduled gain (the
  farthest user's under statistical CSI).
* "secrecy_throughput_surrogate" scores the high-SNR surrogate the analytic
  forms actually approximate (SNR-free split, rate gap of the target over
  the best other user clamped at zero, outage indicator inside the mean).
  Under OMA there is no power split and the two metrics coincide.
"""

import threading
from typing import NamedTuple

import numpy as np

from .channel import CSI_SOS, SAMPLE_BLOCKS, SystemConfig, sample_batch
from .noma_core import _unicast_share

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


class MetricEstimate(NamedTuple):
    value: float
    half_width_95: float
    trials: int


def batch_rows(K: int) -> int:
    """Rows per batch at K users: at most BATCH_SIZE and BATCH_ELEMENTS gains."""
    return max(1, min(BATCH_SIZE, BATCH_ELEMENTS // K))


def _top2(gains, top, second, spare):
    """Write the (max, second max) of each row of a (trials, K >= 2) batch
    into `top` and `second`; `spare` is scratch of the same length.

    One column loop; np.partition along the user axis costs 3x (K = 40)
    to 20x (K = 3) as much. Both are elements of their row, so the bits
    equal those of a full row sort.
    """
    a, b = gains[:, 0], gains[:, 1]
    np.maximum(a, b, out=top)
    np.minimum(a, b, out=second)
    for j in range(2, gains.shape[1]):
        col = gains[:, j]
        np.minimum(top, col, out=spare)  # a new top pushes the old one down
        np.maximum(second, spare, out=second)
        np.maximum(top, col, out=top)


def schedule(config: SystemConfig, gains: np.ndarray, out):
    """(weakest, driving, target, eavesdropper) gains of each row.

    The weakest is the row minimum under either ranking. Estimates: the
    weakest drives the power split, the strongest is the target and the
    runner-up eavesdrops. Statistical CSI (rows nearest-first): the
    farthest drives, the nearest is the target and the best of the rest
    eavesdrops. At K = 1 there is no eavesdropper, and driving, target and
    eavesdropper are None.

    Roles that are not columns of `gains` are written into `out`, the row
    vectors (weakest, top, second, spare); `spare` is `_top2`'s scratch.
    """
    weakest, top, second, spare = out
    gains.min(axis=1, out=weakest)
    if gains.shape[1] < 2:
        return weakest, None, None, None
    if config.csi_mode == CSI_SOS:
        return weakest, gains[:, -1], gains[:, 0], gains[:, 1:].max(axis=1, out=second)
    _top2(gains, top, second, spare)
    return weakest, weakest, top, second


# row vectors of `_score_batch`'s float scratch; the last holds the bytes
# of three bool row vectors (the NOMA multicast decodes and each scheme's
# outage)
_VECTORS = 6


def _score_batch(config: SystemConfig, gains: np.ndarray, scratch: np.ndarray) -> dict:
    """Per-trial values of every valid (scheme, metric_kind) pair for one batch.

    `gains` are the ranked gains of `sample_batch`: estimates in any order,
    or true gains nearest-first under statistical CSI. Returns
    {pair: array}, in a sweep's row order: bool flags for the two outage
    pairs and, at K >= 2, float scores for the four secrecy pairs
    (surrogate, then exact; NOMA before OMA), both OMA ones one array. The
    scheduler's roles (`schedule`), the NOMA outage mask and rho times the
    target and the eavesdropper are computed once for all pairs. Every
    array is a view of the flat `scratch` of `_VECTORS` row vectors.
    """
    rho = config.rho
    eps = config.eps_multicast
    rows = gains.shape[0]
    weakest, top, second, spare, exact, flags = scratch[:_VECTORS * rows].reshape(_VECTORS, rows)
    ok, noma_outage, oma_outage = flags.view(bool)[:3 * rows].reshape(3, rows)
    weakest, driving, target, eave = schedule(config, gains, (weakest, top, second, spare))
    np.greater_equal(weakest, eps / rho, out=ok)  # every user decodes the NOMA multicast
    values = {
        (SCHEME_NOMA, METRIC_OUTAGE): np.logical_not(ok, out=noma_outage),
        (SCHEME_OMA, METRIC_OUTAGE): np.less(weakest, config.eps_multicast_oma / rho,
                                             out=oma_outage),
    }
    if driving is None:  # K = 1: no eavesdropper, so no secrecy score
        return values

    # exact secrecy: the realized split's unicast share; a trial that is
    # not ok scores 0 whatever share the split gives it. `exact` is the
    # share's scratch, and holds the score from then on
    share = _unicast_share(driving, eps, rho, spare, exact)
    share *= rho
    np.multiply(share, target, out=exact)
    exact += 1.0
    share *= eave
    share += 1.0
    exact /= share
    noma_exact = _secrecy_rate(exact, ok)

    # from here on nothing reads the weakest gain, the eavesdropper or an
    # estimate-ranked target, so their vectors are overwritten
    rho_target = np.multiply(target, rho, out=weakest)
    rho_eave = np.multiply(eave, rho, out=eave)
    # no power split under OMA, so surrogate and exact coincide
    oma = np.log2(np.add(rho_target, 1.0, out=top), out=top)
    oma -= np.log2(np.add(rho_eave, 1.0, out=spare), out=spare)
    oma *= 0.5
    np.maximum(0.0, oma, out=oma)

    nu = 1.0 + eps
    rho_target += nu
    rho_eave += nu
    rho_target /= rho_eave
    values[(SCHEME_NOMA, METRIC_SECRECY_SURROGATE)] = _secrecy_rate(rho_target, ok)
    values[(SCHEME_OMA, METRIC_SECRECY_SURROGATE)] = oma
    values[(SCHEME_NOMA, METRIC_SECRECY)] = noma_exact
    values[(SCHEME_OMA, METRIC_SECRECY)] = oma
    return values


def _secrecy_rate(ratio, ok):
    """Overwrite SINR ratios with ok * max(0, log2(ratio)), the secrecy rate
    a trial scores (0 where the multicast is not decoded)."""
    np.log2(ratio, out=ratio)
    np.maximum(0.0, ratio, out=ratio)
    ratio *= ok
    return ratio


def _workspace(config: SystemConfig, rows: int) -> np.ndarray:
    """The flat float buffer a job's batches of up to `rows` rows are drawn
    (gains in front) and scored (behind the gains) in.

    Mapped from the OS, not taken from malloc: glibc raises its mmap
    threshold when it frees a block this large, and later jobs' workspaces
    then come from the heap and stay resident. In alternating perfbench
    pairs (BENCH_15.json) an `np.empty` workspace read about 1 MB more
    peak RSS on `verify-csi3` in four of five pairs, and 0.04-0.06 MB less
    on the sweeps.
    """
    import mmap  # 0.3 ms, paid by the first job only

    floats = max(SAMPLE_BLOCKS * config.K, config.K + _VECTORS) * rows
    return np.frombuffer(mmap.mmap(-1, 8 * floats), dtype=float)


def _run_batch(config, seed, stream, index, size, workspace):
    """{pair: (sum, sum of squares)} of every pair's per-trial values over
    batch `index`, drawn and scored in `workspace` (`_workspace`)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))
    gains = sample_batch(config, rng, size, workspace)[2]
    values = _score_batch(config, gains, workspace[config.K * size:])
    sums = {}  # keyed by array identity: a shared array is reduced once
    for v in values.values():
        if id(v) in sums:
            continue
        if v.dtype == bool:  # an exact count, and a flag squares to itself
            total = float(np.count_nonzero(v))
            sums[id(v)] = (total, total)
            continue
        total = float(np.add.reduce(v))
        v *= v  # read no more
        sums[id(v)] = (total, float(np.add.reduce(v)))
    return {pair: sums[id(v)] for pair, v in values.items()}


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
    `stream` selects an independent substream under the same seed. This is
    the (scheme, metric_kind) entry of `simulate_many`; an unknown pair, or
    secrecy at K < 2, is refused before any draw.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    if metric_kind not in METRIC_KINDS:
        raise ValueError(f"metric_kind must be one of {METRIC_KINDS}")
    if metric_kind != METRIC_OUTAGE and config.K < 2:
        raise ValueError("secrecy throughput needs K >= 2")
    return simulate_many(config, trials, seed, workers, stream)[(scheme, metric_kind)]


def simulate_many(config: SystemConfig, trials: int, seed: int,
                  workers: int = 1, stream: int = 0) -> dict:
    """Estimate every (scheme, metric_kind) pair from one sample.

    Returns {(scheme, metric_kind): MetricEstimate} for the two outage
    pairs and, at K >= 2, the four secrecy pairs, in `_score_batch`'s
    order. Each batch is drawn once and scored for every pair, so a sweep
    draws one stream per axis point.
    """
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

    # worker w runs batches w, w + workers, ... in one workspace; the
    # caller's thread is worker 0, and no worker is left without a batch
    workers = min(workers, len(sizes))
    parts = [None] * len(sizes)
    errors = []

    def work(w):
        try:
            workspace = _workspace(config, sizes[0])
            for i in range(w, len(sizes), workers):
                if errors:  # another worker failed; stop early
                    return
                parts[i] = _run_batch(config, seed, stream, i, sizes[i], workspace)
        except BaseException as exc:  # raised again in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    totals = {pair: [0.0, 0.0] for pair in parts[0]}
    for part in parts:  # fixed reduction order, independent of workers
        for pair, (s, s2) in part.items():
            acc = totals[pair]
            acc[0] += s
            acc[1] += s2

    n = trials
    estimates = {}
    for (scheme, metric_kind), (total, total_sq) in totals.items():
        if metric_kind == METRIC_OUTAGE:
            hw = _wilson_half_width(total, n)
        else:
            var = max(0.0, (total_sq - total * total / n) / (n - 1))
            hw = _Z95 * np.sqrt(var / n)
        estimates[(scheme, metric_kind)] = MetricEstimate(float(total / n), float(hw), n)
    return estimates
