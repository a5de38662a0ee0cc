"""Monte Carlo oracle for the analytic evaluators; no other module draws.

Trials are generated in batches of `batch_rows(K)` rows: 10k rows up to
K = 8, and 80k // K rows above it, so a batch holds at most 80k gains
(`SystemConfig` refuses K above 80k). Batch i of a stream draws from its
own counter-based generator (`_SplitMix64`), keyed by (seed, stream, i)
alone (`_batch_key`). A job is a plan (`batch_sizes`), a runner
(`run_batches`: the caller's thread draws and scores the batches in order,
in one `_workspace`, so no batch allocates an array) and a reducer
(`reduce_batches`, in batch order), so an estimate is bit-identical across
runs for a fixed seed and stream.

Every batch scores every metric from the gains the scheduler ranks
(`channel.sample_batch`): one straight-line kernel (`_score_batch`) gives
each distinct per-trial array once, from the roles `schedule` gives each
row (weakest decision gain, the gain driving the power split, target,
eavesdropper). `simulate_many` reduces all of them and returns every valid
(scheme, metric) pair; `simulate` returns one of those estimates.

Two secrecy metrics exist side by side:

* "secrecy_throughput" scores each snapshot with the realized power split
  of `noma_core.power_split`, driven by the weakest scheduled gain (the
  farthest user's under statistical CSI).
* "secrecy_throughput_surrogate" scores the high-SNR surrogate the analytic
  forms actually approximate (SNR-free split, rate gap of the target over
  the best other user clamped at zero, outage indicator inside the mean).
  Under OMA there is no power split and the two metrics coincide: the
  scorer gives OMA the surrogate only, and `simulate_many` returns its
  estimate under both names.
"""

from typing import NamedTuple

import numpy as np

from .channel import BATCH_ELEMENTS, CSI_SOS, SAMPLE_BLOCKS, SystemConfig, sample_batch
from .noma_core import _unicast_share

SCHEME_NOMA = "noma"
SCHEME_OMA = "oma"
SCHEMES = (SCHEME_NOMA, SCHEME_OMA)

METRIC_OUTAGE = "outage_prob"
METRIC_SECRECY = "secrecy_throughput"
METRIC_SECRECY_SURROGATE = "secrecy_throughput_surrogate"
METRIC_KINDS = (METRIC_OUTAGE, METRIC_SECRECY, METRIC_SECRECY_SURROGATE)

# the pairs `_score_batch` scores, in a sweep's row order; the first two at K = 1
_SCORED = ((SCHEME_NOMA, METRIC_OUTAGE), (SCHEME_OMA, METRIC_OUTAGE),
           (SCHEME_NOMA, METRIC_SECRECY_SURROGATE), (SCHEME_OMA, METRIC_SECRECY_SURROGATE),
           (SCHEME_NOMA, METRIC_SECRECY))

BATCH_SIZE = 10_000  # rows of a batch up to K = 8; BATCH_ELEMENTS gains above it

_Z95 = 1.959963984540054

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment gamma
# and the output mixer's two multipliers, as Python ints for `_mix64` and
# as numpy scalars for the vectorized stream
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX1_U64, _MIX2_U64 = np.uint64(_MIX1), np.uint64(_MIX2)
_MASK64 = (1 << 64) - 1
_CHUNK = 8192  # generator outputs per vectorized pass (two 64 KiB scratch vectors)
# j gamma mod 2^64 for j < _CHUNK. Little-endian, like the scratch, so a
# '<u4' view of an output holds its low 32 bits, then its high ones, on
# any host
_WEYL = np.arange(_CHUNK, dtype="<u8") * np.uint64(_GAMMA)


def _mix64(z: int) -> int:
    """SplitMix64's output mixer of a 64-bit Python int."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _batch_key(seed: int, stream: int, index: int) -> int:
    """The 64-bit key of batch `index` of `stream` under `seed`.

    Each of the three (nonnegative, unbounded) integers is absorbed as its
    number of 64-bit limbs, then its limbs, least significant first, so no
    two triples absorb the same words; absorbing w sets the key to
    mix64(key + gamma + w).
    """
    key = 0
    for value in (int(seed), int(stream), int(index)):
        limbs = [value & _MASK64]
        while value >> 64:
            value >>= 64
            limbs.append(value & _MASK64)
        for word in (len(limbs), *limbs):
            key = _mix64((key + _GAMMA + word) & _MASK64)
    return key


class _SplitMix64:
    """One batch's counter-based draws (Salmon et al., SC'11), as
    `channel.sample_batch` asks for them.

    Output j is mix64(key + j gamma mod 2^64). Each output gives two 32-bit
    halves h, its low then its high one; a uniform draw is the midpoint
    (h + 1/2) 2^-32, in (0, 1), and an exponential draw is -log of that.
    Each call starts at the next unused output, so a call of odd size leaves
    its last high half unused.

    Draws fill a C-contiguous float64 `out` in place, `_CHUNK` outputs at a
    time, through `scratch`: 2 `_CHUNK` floats' worth of memory, used as
    two uint64 vectors.
    """

    __slots__ = ("_counter", "_x", "_t")

    def __init__(self, key: int, scratch: np.ndarray):
        self._counter = key  # key + (outputs used) gamma mod 2^64
        words = scratch.view("<u8")
        self._x, self._t = words[:_CHUNK], words[_CHUNK:2 * _CHUNK]

    def random(self, out: np.ndarray) -> np.ndarray:
        if not out.flags.c_contiguous:
            raise ValueError("draws fill a C-contiguous array")
        flat = out.reshape(-1)
        for start in range(0, flat.size, 2 * _CHUNK):
            draws = flat[start:start + 2 * _CHUNK]
            m = (draws.size + 1) // 2
            x, t = self._x[:m], self._t[:m]
            np.add(_WEYL[:m], np.uint64(self._counter), out=x)
            self._counter = (self._counter + m * _GAMMA) & _MASK64
            np.right_shift(x, 30, out=t)
            x ^= t
            x *= _MIX1_U64
            np.right_shift(x, 27, out=t)
            x ^= t
            x *= _MIX2_U64
            np.right_shift(x, 31, out=t)
            x ^= t
            np.multiply(x.view("<u4")[:draws.size], 2.0 ** -32, out=draws)
            draws += 2.0 ** -33
        return out

    def standard_exponential(self, out: np.ndarray) -> np.ndarray:
        self.random(out)
        np.log(out, out=out)
        return np.negative(out, out=out)


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


def _score_batch(config: SystemConfig, gains: np.ndarray, scratch: np.ndarray) -> tuple:
    """Per-trial values of every distinct (scheme, metric_kind) array for one batch.

    `gains` are the ranked gains of `sample_batch`: estimates in any order,
    or true gains nearest-first under statistical CSI. Returns one array
    per pair of `_SCORED`, in its order: bool flags for the two outage
    pairs and, at K >= 2, float scores for the NOMA and OMA surrogates and
    the NOMA exact secrecy; OMA's exact secrecy is its surrogate. The
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
    outages = (np.logical_not(ok, out=noma_outage),
               np.less(weakest, config.eps_multicast_oma / rho, out=oma_outage))
    if driving is None:  # K = 1: no eavesdropper, so no secrecy score
        return outages

    # exact secrecy: the realized split's unicast share; a trial that is
    # not ok scores 0 whatever share the split gives it
    share = _unicast_share(driving, eps, rho, spare)
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
    oma = np.log2(np.add(rho_target, 1.0, out=top), out=top)
    oma -= np.log2(np.add(rho_eave, 1.0, out=spare), out=spare)
    oma *= 0.5
    np.maximum(0.0, oma, out=oma)

    nu = 1.0 + eps
    rho_target += nu
    rho_eave += nu
    rho_target /= rho_eave
    return (*outages, _secrecy_rate(rho_target, ok), oma, noma_exact)


def _secrecy_rate(ratio, ok):
    """Overwrite SINR ratios with ok * max(0, log2(ratio)), the secrecy rate
    a trial scores (0 where the multicast is not decoded)."""
    np.log2(ratio, out=ratio)
    np.maximum(0.0, ratio, out=ratio)
    ratio *= ok
    return ratio


def _workspace(config: SystemConfig, rows: int) -> np.ndarray:
    """The one flat float buffer in which a job draws (gains in front) and
    scores (behind the gains) each of its batches of up to `rows` rows, one
    after another.

    Mapped from the OS, not taken from malloc: glibc raises its mmap
    threshold when it frees a block this large, and later jobs' workspaces
    then come from the heap and stay resident. In alternating perfbench
    pairs (BENCH_15.json) an `np.empty` workspace read about 1 MB more
    peak RSS on `verify-csi3` in four of five pairs, and 0.04-0.06 MB less
    on the sweeps.
    """
    import mmap  # 0.3 ms, paid by the first job only

    floats = max(SAMPLE_BLOCKS * config.K, config.K + _VECTORS) * rows + 2 * _CHUNK
    return np.frombuffer(mmap.mmap(-1, 8 * floats), dtype=float)


def _run_batch(config, seed, stream, index, size, workspace, out):
    """Draw and score batch `index` in `workspace` (`_workspace`), whose last
    2 `_CHUNK` floats are the generator's scratch, and write each scored
    pair's (sum, sum of squares) of per-trial values into its row of `out`,
    a (pairs, 2) float array in `_SCORED` order."""
    rng = _SplitMix64(_batch_key(seed, stream, index), workspace[-2 * _CHUNK:])
    gains = sample_batch(config, rng, size, workspace)[2]
    for row, v in zip(out, _score_batch(config, gains, workspace[config.K * size:])):
        if v.dtype == bool:  # an exact count, and a flag squares to itself
            row[:] = np.count_nonzero(v)
            continue
        row[0] = np.add.reduce(v)
        v *= v  # read no more
        row[1] = np.add.reduce(v)


def check_run(trials, seed, workers, stream=0) -> None:
    """Raise ValueError naming the first run parameter out of its range.

    `workers` is checked but drives nothing: every batch runs on the
    caller's thread, and configs and callers that set it keep working."""
    for name, value, low, message in (("trials", trials, 2, "an integer >= 2"),
                                      ("seed", seed, 0, "a nonnegative integer"),
                                      ("workers", workers, 1, "an integer >= 1"),
                                      ("stream", stream, 0, "a nonnegative integer")):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be {message}")


def simulate(config: SystemConfig, scheme: str, metric_kind: str, trials: int,
             seed: int, workers: int = 1, stream: int = 0) -> MetricEstimate:
    """Estimate one metric by simulation, with a 95% half width.

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
    pairs and, at K >= 2, the four secrecy pairs: `_score_batch`'s order,
    then OMA's exact secrecy. Each batch is drawn once and scored for
    every pair, so a sweep draws one stream per axis point.
    """
    check_run(trials, seed, workers, stream)
    return reduce_batches(*run_batches(config, batch_sizes(config.K, trials), seed, stream),
                          trials)


def batch_sizes(K: int, trials: int) -> list:
    """Rows of each batch of a `trials`-row job: `batch_rows(K)`, the last partial."""
    rows = batch_rows(K)
    return [rows] * (trials // rows) + ([trials % rows] if trials % rows else [])


def run_batches(config: SystemConfig, sizes, seed: int, stream: int = 0):
    """(pairs, sums) of `stream`'s batches of `sizes` rows: `_score_batch`'s
    pairs, in its order, and a (batches, pairs, 2) float64 array of each
    batch's (sum, sum of squares) of each pair's values. The batches are
    drawn and scored in order, in one workspace, on the caller's thread."""
    pairs = _SCORED if config.K >= 2 else _SCORED[:2]
    sums = np.empty((len(sizes), len(pairs), 2))
    workspace = _workspace(config, sizes[0])
    for i, size in enumerate(sizes):
        _run_batch(config, seed, stream, i, size, workspace, sums[i])
    return pairs, sums


def reduce_batches(pairs, sums, trials: int) -> dict:
    """{pair: MetricEstimate} of `trials` trials from `run_batches`' (pairs, sums),
    added in batch order from 0. An outage gets a Wilson interval (informative
    at a rate of 0 or 1), a throughput the normal one; OMA's exact secrecy,
    when scored, is its surrogate's estimate."""
    n, z2 = trials, _Z95 * _Z95
    estimates = {}
    for (scheme, metric_kind), (total, total_sq) in zip(pairs, sum(sums).tolist()):
        if metric_kind == METRIC_OUTAGE:
            p = total / n
            hw = _Z95 * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / (1.0 + z2 / n)
        else:
            var = max(0.0, (total_sq - total * total / n) / (n - 1))
            hw = _Z95 * np.sqrt(var / n)
        estimates[(scheme, metric_kind)] = MetricEstimate(float(total / n), float(hw), n)
    if len(pairs) > 2:  # no power split under OMA, so its exact secrecy is its surrogate
        estimates[(SCHEME_OMA, METRIC_SECRECY)] = estimates[(SCHEME_OMA, METRIC_SECRECY_SURROGATE)]
    return estimates
