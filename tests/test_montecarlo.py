"""Simulation oracle: determinism, interval quality, reference equivalence."""

import inspect
import math
import sys

import numpy as np
import pytest
from scipy import stats

from noma_perf import analytic, channel, montecarlo
from noma_perf.channel import SystemConfig, sample_batch
from noma_perf.montecarlo import (
    BATCH_ELEMENTS,
    BATCH_SIZE,
    METRIC_OUTAGE,
    METRIC_SECRECY,
    METRIC_SECRECY_SURROGATE,
    MetricEstimate,
    SCHEME_NOMA,
    SCHEME_OMA,
    _score_batch,
    batch_rows,
    schedule,
    simulate,
    simulate_many,
)
from pair_scoring import metric_values, oma_rates, roles, secrecy_throughput_noma, snapshot


def cfg(K=8, rho_db=30.0, R_M=0.5, sigma2=0.01, csi="imperfect"):
    return SystemConfig(
        K=K, D=5.0, eta=2.0, rho=10.0 ** (rho_db / 10.0), R_M=R_M,
        sigma2_zeta=sigma2, csi_mode=csi,
    )


class TestDeterminism:
    def test_bitwise_repeatable(self):
        c = cfg()
        a = simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 30_000, seed=42)
        b = simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 30_000, seed=42)
        assert a == b

    def test_worker_count_does_not_change_bits(self):
        c = cfg()
        serial = simulate(c, SCHEME_NOMA, METRIC_SECRECY, 25_000, seed=42)
        for workers in (2, 3, 7):
            parallel = simulate(c, SCHEME_NOMA, METRIC_SECRECY, 25_000, seed=42,
                                workers=workers)
            assert serial == parallel

    def test_partial_batch_handled(self):
        # trials deliberately not a multiple of the batch size
        c = cfg(K=2)
        est = simulate(c, SCHEME_OMA, METRIC_OUTAGE, BATCH_SIZE + 123, seed=1)
        assert est.trials == BATCH_SIZE + 123

    def test_seed_and_stream_matter(self):
        c = cfg()
        base = simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 20_000, seed=1)
        assert base != simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 20_000, seed=2)
        assert base != simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 20_000, seed=1, stream=5)


ALL_PAIRS = [(scheme, metric)
             for metric in (METRIC_OUTAGE, METRIC_SECRECY_SURROGATE, METRIC_SECRECY)
             for scheme in (SCHEME_NOMA, SCHEME_OMA)]
# OMA has no power split, so the scorer gives it the surrogate array only
OMA_EXACT = (SCHEME_OMA, METRIC_SECRECY)
OMA_SURROGATE = (SCHEME_OMA, METRIC_SECRECY_SURROGATE)


# simulate_many(cfg(K, rho_db, csi="sos"), 20_077, seed=31, stream=2)
# as (value, half_width_95) float hex per pair in ALL_PAIRS order, recorded
# when batches first drew from the counter-based SplitMix64 generator
SOS_PINNED = {
    (2, 0.0): [
        ("0x1.fb006bb83ce60p-1", "0x1.6555c88410996p-10"),
        ("0x1.ff42acac3d416p-1", "0x1.17e6e26d3ca91p-11"),
        ("0x1.0303b4bdd73f7p-7", "0x1.0b6a5053b94c9p-9"),
        ("0x1.13cfe22574af9p-3", "0x1.0df2c781a0d37p-8"),
        ("0x1.1c5048a39d805p-8", "0x1.6c800c1a4854bp-10"),
        ("0x1.13cfe22574af9p-3", "0x1.0df2c781a0d37p-8"),
    ],
    (2, 40.0): [
        ("0x1.2c4f3569deec9p-10", "0x1.f4b21b4b4b333p-12"),
        ("0x1.2c4f3569deec9p-9", "0x1.5e4763ca1c684p-11"),
        ("0x1.fb30e5715c512p+0", "0x1.f97096b8ebc94p-6"),
        ("0x1.fe071e5f08314p-1", "0x1.fcfb59e3e0612p-7"),
        ("0x1.fab014ab29303p+0", "0x1.f86876c307759p-6"),
        ("0x1.fe071e5f08314p-1", "0x1.fcfb59e3e0612p-7"),
    ],
    (3, 0.0): [
        ("0x1.ff9e12b15d7a1p-1", "0x1.98ba8249a3691p-12"),
        ("0x1.fff978b67db2dp-1", "0x1.1e96b2e4a7be1p-13"),
        ("0x1.9bdc49806fd85p-11", "0x1.6d09e9a472e76p-11"),
        ("0x1.3efb676ae2feep-3", "0x1.2e54de8aefe54p-8"),
        ("0x1.e2eaa047d0bb6p-12", "0x1.0ab0650c975fdp-11"),
        ("0x1.3efb676ae2feep-3", "0x1.2e54de8aefe54p-8"),
    ],
    (3, 40.0): [
        ("0x1.12320f60aa25fp-10", "0x1.df5e12ed7804dp-12"),
        ("0x1.bbef869c81313p-9", "0x1.a83ce52e0f4d4p-11"),
        ("0x1.6b0422f08af36p+0", "0x1.987fc785ca7b1p-6"),
        ("0x1.6bd1577a47f04p-1", "0x1.991713f3bb901p-7"),
        ("0x1.6afd76ea26e12p+0", "0x1.987587fc855a4p-6"),
        ("0x1.6bd1577a47f04p-1", "0x1.991713f3bb901p-7"),
    ],
    (8, 0.0): [
        ("0x1.0000000000000p+0", "0x1.912f3db44ad27p-14"),
        ("0x1.0000000000000p+0", "0x1.912f3db44ad27p-14"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.dd4f7d9bde098p-3", "0x1.8ce36baaa2604p-8"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.dd4f7d9bde098p-3", "0x1.8ce36baaa2604p-8"),
    ],
    (8, 40.0): [
        ("0x1.290b90a8b853cp-8", "0x1.e99f0d639edbfp-11"),
        ("0x1.3aff9acf0c9c5p-7", "0x1.62a149726d569p-10"),
        ("0x1.1d2bf45b9c3c5p+0", "0x1.61a4a2434a00fp-6"),
        ("0x1.1e849d34bdeeap-1", "0x1.61f4c963810d7p-7"),
        ("0x1.1d2ba8fda2d54p+0", "0x1.61a4685db087ep-6"),
        ("0x1.1e849d34bdeeap-1", "0x1.61f4c963810d7p-7"),
    ],
}


class TestStreams:
    """What each batch draws, and how many rows it holds."""

    @pytest.mark.parametrize("K,rho_db", sorted(SOS_PINNED))
    def test_distance_ranked_bits_pinned(self, K, rho_db):
        many = simulate_many(cfg(K=K, rho_db=rho_db, csi="sos"), 20_077, seed=31, stream=2)
        got = [(many[p].value.hex(), many[p].half_width_95.hex()) for p in ALL_PAIRS]
        assert got == [tuple(x) for x in SOS_PINNED[(K, rho_db)]]

    def test_batch_rows_bounded_in_k(self):
        assert [batch_rows(K) for K in (1, 8, 9, 40, BATCH_ELEMENTS + 1)] == \
            [BATCH_SIZE, BATCH_SIZE, BATCH_ELEMENTS // 9, 2_000, 1]

    def test_large_k_batches_hold_bounded_elements(self, monkeypatch):
        elements = []

        def recording_sample_batch(config, rng, size, *workspace):
            elements.append(size * config.K)
            return sample_batch(config, rng, size, *workspace)

        monkeypatch.setattr(montecarlo, "sample_batch", recording_sample_batch)
        simulate_many(cfg(K=40), 12_345, seed=27)
        assert max(elements) <= BATCH_ELEMENTS
        assert sum(elements) == 12_345 * 40

    def test_k_above_batch_elements_refused_before_any_draw(self):
        # one row of K gains would not fit a batch, so SystemConfig refuses
        # such a K and no simulation can be asked for one
        assert BATCH_ELEMENTS == channel.BATCH_ELEMENTS
        assert cfg(K=BATCH_ELEMENTS).K == BATCH_ELEMENTS
        with pytest.raises(ValueError, match=f"K must be at most {BATCH_ELEMENTS}"):
            cfg(K=BATCH_ELEMENTS + 1)

class TestSharedSample:
    """simulate_many scores every pair from one draw per batch."""

    @pytest.mark.parametrize("csi,K", [("imperfect", 8), ("perfect", 4), ("sos", 2)])
    def test_each_entry_equals_simulate(self, csi, K):
        c = cfg(K=K, rho_db=20.0, csi=csi)
        trials = 2 * BATCH_SIZE + 77
        many = simulate_many(c, trials, seed=21, stream=3)
        assert list(many) == ALL_PAIRS
        for scheme, metric in ALL_PAIRS:
            assert many[(scheme, metric)] == simulate(c, scheme, metric, trials,
                                                      seed=21, stream=3)

    def test_distance_ranked_outage_only_for_any_k(self):
        pairs = [(SCHEME_NOMA, METRIC_OUTAGE), (SCHEME_OMA, METRIC_OUTAGE)]
        for K in (1, 3):
            c = cfg(K=K, csi="sos")
            many = simulate_many(c, 5_000, seed=23)
            assert set(many) == set(valid_pairs(c))  # the outage pairs alone at K = 1
            for scheme, metric in pairs:
                assert many[(scheme, metric)] == simulate(c, scheme, metric, 5_000, seed=23)

    def test_distance_ranked_surrogate_needs_two_users(self):
        with pytest.raises(ValueError, match="needs K >= 2"):
            simulate(cfg(K=1, csi="sos"), SCHEME_NOMA, METRIC_SECRECY_SURROGATE, 5_000, seed=24)
        # any K >= 2 scores every pair
        c = cfg(K=3, csi="sos")
        many = simulate_many(c, 5_000, seed=24)
        for scheme, metric in ALL_PAIRS:
            assert many[(scheme, metric)] == simulate(c, scheme, metric, 5_000, seed=24)

    @pytest.mark.parametrize("K,csi,pair,message", [
        (1, "imperfect", (SCHEME_NOMA, METRIC_SECRECY), "needs K >= 2"),
        (1, "sos", (SCHEME_OMA, METRIC_SECRECY_SURROGATE), "needs K >= 2"),
        (1, "sos", (SCHEME_NOMA, METRIC_SECRECY_SURROGATE), "needs K >= 2"),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pairs_checked_before_any_draw(self, monkeypatch, K, csi, pair, message, workers):
        draws = []
        monkeypatch.setattr(montecarlo, "sample_batch",
                            lambda *args: draws.append(args) or sample_batch(*args))
        with pytest.raises(ValueError, match=message):
            simulate(cfg(K=K, csi=csi), *pair, 3 * BATCH_SIZE, seed=25, workers=workers)
        assert draws == []

    @pytest.mark.parametrize("workers", [True, 1.5, 0, "2", None])
    def test_rejects_non_integer_workers(self, workers):
        # simulate takes workers for the callers that set it: checked, then ignored
        with pytest.raises(ValueError, match="^workers must be an integer >= 1$"):
            simulate(cfg(), SCHEME_NOMA, METRIC_OUTAGE, 1000, seed=0, workers=workers)

    @pytest.mark.parametrize("pair", [
        ("tdma", METRIC_OUTAGE), (SCHEME_NOMA, "throughput"), (SCHEME_OMA, "throughput"),
    ])
    def test_rejects_bad_pairs(self, pair):
        with pytest.raises(ValueError):
            simulate(cfg(), *pair, 1000, seed=0)


# SplitMix64 with Python ints, written apart from montecarlo's constants
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MASK64 = 2 ** 64 - 1


def splitmix64_output(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
    return z ^ (z >> 31)


def oracle_halves(key, first, count):
    """`count` 32-bit halves from output `first` on: output j is
    mix64(key + j gamma), low half first."""
    halves = []
    j = first
    while len(halves) < count:
        x = splitmix64_output((key + j * GOLDEN_GAMMA) % 2 ** 64)
        halves += [x % 2 ** 32, x >> 32]
        j += 1
    return halves[:count]


def generator(seed, stream=0, index=0):
    """A batch generator with a scratch of its own."""
    return montecarlo._SplitMix64(montecarlo._batch_key(seed, stream, index),
                                  np.empty(2 * montecarlo._CHUNK))


class TestGenerator:
    """The counter-based batch generator against an integer oracle, its
    distributions and its keys."""

    # around 8192 halves and one 8192-output chunk (16384 halves), and a third chunk
    @pytest.mark.parametrize("size", [1, 2, 3, 8191, 8192, 8193, 16383, 16384, 16385, 32769])
    def test_matches_integer_oracle(self, size):
        key = montecarlo._batch_key(5, 1, 2)
        gen = montecarlo._SplitMix64(key, np.empty(2 * montecarlo._CHUNK))
        # consecutive calls, each from the next unused output, into dirty arrays
        uniforms = gen.random(out=np.full(size, np.nan))
        exponentials = gen.standard_exponential(out=np.full(size, np.nan))
        tail = gen.random(out=np.full((3, 1), np.nan))
        used = (size + 1) // 2
        expected = [(h + 0.5) * 2.0 ** -32 for h in oracle_halves(key, 0, size)]
        assert uniforms.tolist() == expected
        second = [(h + 0.5) * 2.0 ** -32 for h in oracle_halves(key, used, size)]
        np.testing.assert_allclose(exponentials, [-math.log(u) for u in second],
                                   rtol=1e-15, atol=0)
        third = [(h + 0.5) * 2.0 ** -32 for h in oracle_halves(key, 2 * used, 3)]
        assert tail.ravel().tolist() == third

    def test_refuses_non_contiguous_out(self):
        out = np.empty((4, 6))
        with pytest.raises(ValueError, match="C-contiguous"):
            generator(1).random(out=out.T)

    @pytest.mark.parametrize("seed", [11, 2 ** 70 + 3])
    def test_uniform_passes_kolmogorov_smirnov(self, seed):
        u = generator(seed, 2, 9).random(out=np.empty(1_000_000))
        assert stats.kstest(u, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("seed", [12, 2 ** 70 + 4])
    def test_exponential_passes_kolmogorov_smirnov(self, seed):
        e = generator(seed, 3, 1).standard_exponential(out=np.empty(1_000_000))
        assert stats.kstest(e, "expon").pvalue > 1e-3

    def test_no_key_collisions(self):
        seeds = [0, 1, 2, 3, 1234567, 2 ** 32, 2 ** 63, MASK64, 2 ** 64, 2 ** 64 + 1,
                 2 ** 64 + 2, 2 ** 128, 2 ** 128 + 1, 2 ** 64 * 3 + 1]
        streams = [0, 1, 2, 3, 2 ** 64, 2 ** 64 + 1]
        indices = [*range(64), 2 ** 64]
        keys = {montecarlo._batch_key(seed, stream, index)
                for seed in seeds for stream in streams for index in indices}
        assert len(keys) == len(seeds) * len(streams) * len(indices)
        for seed in (0, 1, 1234567, MASK64):  # each limb of the seed counts
            assert montecarlo._batch_key(seed, 0, 0) != montecarlo._batch_key(seed + 2 ** 64, 0, 0)
        # simulate_many takes numpy integers too
        assert montecarlo._batch_key(np.int64(9), np.uint8(1), 2) == montecarlo._batch_key(9, 1, 2)


def valid_pairs(c):
    """The pairs simulate_many returns for config c."""
    return ALL_PAIRS[:2] if c.K < 2 else ALL_PAIRS


def score(c, gains):
    """{pair: array} of _score_batch on a (rows, K) batch in a scratch of its own."""
    return dict(zip(montecarlo._SCORED,
                    _score_batch(c, gains, np.empty(montecarlo._VECTORS * len(gains)))))


class TestWorkspace:
    """One workspace serves every batch of a job and carries nothing over."""

    @pytest.mark.parametrize("K", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_reuse_leaks_no_state(self, csi, K):
        c = cfg(K=K, rho_db=20.0, csi=csi)
        rows = batch_rows(K)
        workspace = montecarlo._workspace(c, rows)
        # a full batch, then the partial one of rows + 137 trials, three times;
        # the sums start as NaN, so a row left unwritten shows
        for _ in range(3):
            for index, size in ((0, rows), (1, 137)):
                reused, fresh = np.full((2, len(valid_pairs(c)) - (K >= 2), 2), np.nan)
                montecarlo._run_batch(c, 28, 1, index, size, workspace, reused)
                montecarlo._run_batch(c, 28, 1, index, size, montecarlo._workspace(c, size),
                                      fresh)
                assert not np.isnan(reused).any()
                assert reused.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_scoring_leaves_gains_alone(self, csi, K):
        c = cfg(K=K, csi=csi)
        gains = sample_batch(c, np.random.default_rng(8), 1_000)[2]
        before = gains.copy()
        score(c, gains)
        assert np.array_equal(gains, before)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page faults are counted as Linux counts them")
    @pytest.mark.parametrize("csi,K", [("sos", 2), ("imperfect", 8)])
    def test_batches_fault_no_pages_in(self, csi, K):
        # a batch that allocated its arrays afresh faulted 200-340 pages in
        import resource

        c = cfg(K=K, csi=csi)
        batches = 40
        simulate_many(c, batches * batch_rows(K), seed=29)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        simulate_many(c, batches * batch_rows(K), seed=30)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / batches < 20


class TestPlanRunnerReducer:
    """simulate_many is the runner and the reducer in turn."""

    def test_a_job_takes_trials_seed_stream_checked_once(self, monkeypatch):
        # a job takes no workers, and run_batches alone checks its run parameters
        for job in (simulate_many, montecarlo.run_batches):
            assert list(inspect.signature(job).parameters) == \
                ["config", "trials", "seed", "stream"]
        check, calls = montecarlo.check_run, []
        monkeypatch.setattr(montecarlo, "check_run",
                            lambda *args, **kw: calls.append((args, kw)) or check(*args, **kw))
        simulate_many(cfg(K=2), 2_000, seed=5, stream=1)
        assert calls == [((2_000, 5, 1), {})]

    def test_plan(self, monkeypatch):
        # batch_rows(K)-row batches, the last one partial
        draw = montecarlo.sample_batch
        drawn = []

        def record(config, rng, size, *rest):
            drawn.append(size)
            return draw(config, rng, size, *rest)

        monkeypatch.setattr(montecarlo, "sample_batch", record)
        for K, trials, sizes in ((8, 5_000, [5_000]), (8, 2 * BATCH_SIZE, [BATCH_SIZE] * 2),
                                 (40, 4_123, [2_000, 2_000, 123])):
            drawn.clear()
            montecarlo.run_batches(cfg(K=K), trials, 37)
            assert drawn == sizes

    @pytest.mark.parametrize("csi,K", [("imperfect", 8), ("perfect", 3), ("sos", 2),
                                       ("sos", 1), ("imperfect", 40)])
    def test_sums_keep_their_bits_and_fold_to_simulate_many(self, csi, K):
        c = cfg(K=K, csi=csi)
        trials = 3 * batch_rows(K) + 137  # a partial last batch
        pairs = [p for p in valid_pairs(c) if p != OMA_EXACT]
        sums = montecarlo.run_batches(c, trials, 35, stream=4)
        assert sums.shape == (4, len(pairs), 2) and sums.dtype == np.float64
        redrawn = montecarlo.run_batches(c, trials, 35, stream=4)
        assert redrawn.tobytes() == sums.tobytes()
        totals = 0
        for batch in sums:  # a left fold from 0, in batch order
            totals = totals + batch
        many = simulate_many(c, trials, 35, stream=4)
        assert montecarlo.reduce_batches(sums, trials) == many
        assert list(many) == valid_pairs(c)
        for pair, (total, _) in zip(pairs, totals):
            assert many[pair].value == total / trials

    def test_each_batch_is_its_own_job(self):
        # a batch's sums depend on (seed, stream, index) and its rows alone
        c = cfg(K=4)
        sums = montecarlo.run_batches(c, 2 * BATCH_SIZE + 77, 36)
        first_two = montecarlo.run_batches(c, 2 * BATCH_SIZE, 36)
        assert first_two.tobytes() == sums[:2].tobytes()

    @pytest.mark.parametrize("trials,seed,stream,message", [
        (1_000, -1, 0, "seed must be a nonnegative integer"),
        (1_000, 0, -1, "stream must be a nonnegative integer"),
        (1, 0, 0, "trials must be an integer >= 2"),
        (True, 0, 0, "trials must be an integer >= 2"),
    ])
    def test_runner_refuses_run_parameters_before_any_draw(self, monkeypatch, trials, seed,
                                                           stream, message):
        # the runner is a job of its own: a negative key never reaches
        # _batch_key, and a trial count it cannot cut is not cut
        def no_draw(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(montecarlo, "sample_batch", no_draw)
        with pytest.raises(ValueError, match=f"^{message}$"):
            montecarlo.run_batches(cfg(K=3), trials, seed, stream)

    @pytest.mark.parametrize("failing", [0, 2])  # the first batch, the last
    def test_batch_exception_reaches_caller(self, monkeypatch, failing):
        # raised as it happens: no batch after the failing one is drawn
        run_batch = montecarlo._run_batch
        ran = []

        def run(config, seed, stream, index, *rest):
            ran.append(index)
            if index == failing:
                raise RuntimeError(f"batch {index} failed")
            return run_batch(config, seed, stream, index, *rest)

        monkeypatch.setattr(montecarlo, "_run_batch", run)
        with pytest.raises(RuntimeError, match=f"batch {failing} failed"):
            simulate_many(cfg(K=2), 3 * BATCH_SIZE, seed=31)
        assert ran == list(range(failing + 1))


class TestSchedule:
    """montecarlo.schedule against the sorted roles in tests/pair_scoring.py."""

    @staticmethod
    def buffers(rows, dirty):
        """schedule's `out`; dirty ones hold NaN, as a reused workspace holds
        stale values, so a role element left unwritten or read before it is
        written shows."""
        return np.full((4, rows), np.nan) if dirty else np.zeros((4, rows))

    @pytest.mark.parametrize("dirty", [False, True])
    @pytest.mark.parametrize("K", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_bit_identical_to_sorted_roles(self, csi, K, dirty):
        c = cfg(K=K, csi=csi)
        gains = sample_batch(c, np.random.default_rng(K), 3_000)[2]
        weakest, driving, target, eave = schedule(c, gains, self.buffers(len(gains), dirty))
        ref_weakest, ref_driving, ref_target, ref_eave = roles(c, gains)
        assert np.array_equal(weakest, ref_weakest)
        if K >= 2:
            assert np.array_equal(driving, ref_driving)
            assert np.array_equal(target, ref_target)
            assert np.array_equal(eave, ref_eave)
            if csi == "sos":
                # the farthest user often fades less than a nearer one
                assert np.any(driving > weakest)
        else:  # no eavesdropper, so no secrecy roles
            assert driving is None and target is None and eave is None

    @pytest.mark.parametrize("dirty", [False, True])
    def test_farthest_user_drives_the_split_under_sos(self, dirty):
        c = cfg(K=3, csi="sos")
        gains = np.array([[2.0, 0.5, 1.0], [3.0, 1.5, 0.7]])  # nearest-first
        weakest, driving, target, eave = schedule(c, gains, self.buffers(2, dirty))
        assert weakest.tolist() == [0.5, 0.7]
        assert driving.tolist() == [1.0, 0.7]
        assert target.tolist() == [2.0, 3.0] and eave.tolist() == [1.0, 1.5]


class TestScoreKernel:
    """_score_batch against the per-pair formulas in tests/pair_scoring.py."""

    @pytest.mark.parametrize("rho_db", [0.0, 20.0, 40.0])
    @pytest.mark.parametrize("K", [1, 2, 3, 8, 15, 16, 17, 40])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_bit_identical_to_per_pair_oracle(self, csi, K, rho_db):
        c = cfg(K=K, rho_db=rho_db, csi=csi)
        gains = sample_batch(c, np.random.default_rng(K), 3_000)[2]
        values = score(c, gains)
        # every valid pair but OMA's exact secrecy, every batch
        assert set(values) == set(valid_pairs(c)) - {OMA_EXACT}
        for pair in valid_pairs(c):
            v = values[OMA_SURROGATE if pair == OMA_EXACT else pair]
            assert np.array_equal(v, metric_values(c, *pair, gains))

    @pytest.mark.parametrize("csi,K", [("imperfect", 8), ("sos", 3)])
    def test_oma_secrecy_pairs_share_one_array(self, csi, K):
        c = cfg(K=K, csi=csi)
        gains = sample_batch(c, np.random.default_rng(5), 1_000)[2]
        values = score(c, gains)
        assert OMA_EXACT not in values and OMA_SURROGATE in values
        many = simulate_many(c, BATCH_SIZE + 11, seed=26)
        assert list(many) == ALL_PAIRS  # the alias comes last, in sweep order
        assert many[OMA_EXACT] == many[OMA_SURROGATE]


class TestIntervals:
    def test_wilson_width_positive_at_certain_outage(self):
        # at very low SNR every trial is an outage; the interval must not
        # collapse to zero
        c = cfg(rho_db=-30.0)
        est = simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 20_000, seed=3)
        assert est.value == 1.0
        assert est.half_width_95 > 0.0

    def test_wilson_hand_value(self):
        # p_hat = 0, n = 100: interval is [0, z^2/(n + z^2)], half width
        # z^2 / (2 (n + z^2))
        c = cfg(rho_db=80.0)  # outage never happens at 80 dB in 100 draws
        est = simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 100, seed=4)
        assert est.value == 0.0
        z2 = 1.959963984540054 ** 2
        assert est.half_width_95 == pytest.approx(z2 / (2 * (100 + z2)), rel=1e-12)

    def test_width_shrinks_like_root_n(self):
        c = cfg()
        small = simulate(c, SCHEME_NOMA, METRIC_SECRECY, 10_000, seed=5)
        large = simulate(c, SCHEME_NOMA, METRIC_SECRECY, 40_000, seed=5)
        ratio = small.half_width_95 / large.half_width_95
        assert 1.6 < ratio < 2.4

    def test_estimate_metadata(self):
        c = cfg(csi="sos", K=2)
        est = simulate(c, SCHEME_OMA, METRIC_SECRECY, 5_000, seed=6)
        assert est == MetricEstimate(
            value=est.value, half_width_95=est.half_width_95, trials=5_000,
        )


class TestReferenceEquivalence:
    """The vectorized kernels must agree with the per-snapshot references."""

    @pytest.mark.parametrize("csi,K", [("imperfect", 4), ("perfect", 4), ("sos", 2), ("sos", 5)])
    def test_exact_secrecy_matches_noma_core(self, csi, K):
        c = cfg(K=K, rho_db=20.0, csi=csi)
        rng = np.random.default_rng(2718)
        for _ in range(300):
            _, _, gains, est_g = snapshot(c, rng)
            ref = secrecy_throughput_noma(gains, est_g, c)
            got = score(c, gains[None, :])[(SCHEME_NOMA, METRIC_SECRECY)][0]
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("csi,K", [("imperfect", 4), ("sos", 3)])
    def test_oma_secrecy_matches_noma_core(self, csi, K):
        c = cfg(K=K, rho_db=20.0, csi=csi)
        rng = np.random.default_rng(31415)
        for _ in range(300):
            _, _, gains, est_g = snapshot(c, rng)
            _, ref = oma_rates(gains, est_g, c)
            got = score(c, gains[None, :])[OMA_SURROGATE][0]
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_outage_indicator_definition(self):
        c = cfg(K=4, rho_db=10.0)
        rng = np.random.default_rng(999)
        for _ in range(200):
            _, _, gains, est_g = snapshot(c, rng)
            got = score(c, gains[None, :])[(SCHEME_NOMA, METRIC_OUTAGE)][0]
            expected = float(np.min(est_g) < c.eps_multicast / c.rho)
            assert got == expected

    def test_oma_secrecy_metrics_coincide(self):
        # no power split under OMA, so surrogate and exact are the same metric
        c = cfg(K=4)
        a = simulate(c, SCHEME_OMA, METRIC_SECRECY, 20_000, seed=8)
        b = simulate(c, SCHEME_OMA, METRIC_SECRECY_SURROGATE, 20_000, seed=8)
        assert a.value == b.value

    def test_surrogate_upper_bounds_exact_on_average(self):
        # the surrogate split never allocates less unicast power
        c = cfg(K=8, rho_db=20.0)
        sur = simulate(c, SCHEME_NOMA, METRIC_SECRECY_SURROGATE, 50_000, seed=9)
        exact = simulate(c, SCHEME_NOMA, METRIC_SECRECY, 50_000, seed=9)
        assert sur.value >= exact.value


class TestAgreementSmoke:
    """Cheap analytic-vs-simulation consistency; the full grid runs in the
    acceptance suite."""

    def test_outage_imperfect(self):
        c = cfg(K=4, rho_db=20.0)
        est = simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 40_000, seed=10)
        assert abs(analytic.outage_noma_imperfect(c) - est.value) <= \
            3 * est.half_width_95 + 1e-3

    def test_outage_full_csi_exact_form(self):
        c = cfg(K=4, rho_db=20.0, sigma2=0.0, csi="perfect")
        est = simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 40_000, seed=11)
        assert abs(analytic.outage_noma_perfect(c) - est.value) <= 3 * est.half_width_95

    def test_secrecy_surrogate_imperfect(self):
        c = cfg(K=4, rho_db=30.0)
        est = simulate(c, SCHEME_NOMA, METRIC_SECRECY_SURROGATE, 60_000, seed=12)
        ref = analytic.secrecy_noma_imperfect(c)
        assert abs(ref - est.value) / est.value < 0.05


class TestValidation:
    def test_bad_arguments(self):
        c = cfg()
        with pytest.raises(ValueError):
            simulate(c, "tdma", METRIC_OUTAGE, 1000, seed=0)
        with pytest.raises(ValueError):
            simulate(c, SCHEME_NOMA, "throughput", 1000, seed=0)
        with pytest.raises(ValueError):
            simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 1, seed=0)
        with pytest.raises(ValueError):
            simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 1000, seed=-1)
        with pytest.raises(ValueError):
            simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 1000, seed=0, workers=0)
        with pytest.raises(ValueError):
            simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 1000, seed=0, stream=-1)
        # a bool is an int to Python, but not a count, a seed or a stream
        with pytest.raises(ValueError, match="trials must be"):
            simulate(c, SCHEME_NOMA, METRIC_OUTAGE, True, seed=0)
        with pytest.raises(ValueError, match="seed must be"):
            simulate(c, SCHEME_NOMA, METRIC_OUTAGE, 1000, seed=True)
        with pytest.raises(ValueError, match="stream must be"):
            simulate_many(c, 1000, seed=0, stream=True)

    def test_surrogate_distance_ranked_needs_two_users(self):
        with pytest.raises(ValueError, match="needs K >= 2"):
            simulate(cfg(K=1, csi="sos"), SCHEME_NOMA, METRIC_SECRECY_SURROGATE, 1000, seed=0)
        # both secrecy metrics work for any K >= 2
        c = cfg(K=5, csi="sos")
        simulate(c, SCHEME_NOMA, METRIC_SECRECY_SURROGATE, 1000, seed=0)
        simulate(c, SCHEME_NOMA, METRIC_SECRECY, 1000, seed=0)

    def test_secrecy_needs_two_users(self):
        c = cfg(K=1)
        with pytest.raises(ValueError):
            simulate(c, SCHEME_NOMA, METRIC_SECRECY, 1000, seed=0)
