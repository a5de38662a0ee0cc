"""Simulation oracle: determinism, interval quality, reference equivalence."""

import sys
import threading

import numpy as np
import pytest

from noma_perf import analytic
from noma_perf import montecarlo
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


# simulate_many(cfg(K, rho_db, csi="sos"), 20_077, seed=31, stream=2)
# as (value, half_width_95) float hex per pair in ALL_PAIRS order, recorded
# when batches were first drawn user-major, with 1/u path loss at eta = 2
SOS_PINNED = {
    (2, 0.0): [
        ("0x1.faab8cfc9efa7p-1", "0x1.70d193566988dp-10"),
        ("0x1.ff4933f5bf8e9p-1", "0x1.1332a9bcf2fd7p-11"),
        ("0x1.cb5d366cdabffp-8", "0x1.ea905a3f5c630p-10"),
        ("0x1.1495ec0a5a295p-3", "0x1.12788e1bc87ebp-8"),
        ("0x1.0cb8b81ab0008p-8", "0x1.7841149956b25p-10"),
        ("0x1.1495ec0a5a295p-3", "0x1.12788e1bc87ebp-8"),
    ],
    (2, 40.0): [
        ("0x1.6d981480e2dd4p-11", "0x1.8bba0e421f008p-12"),
        ("0x1.12320f60aa25fp-9", "0x1.4f0ff0a4e00d1p-11"),
        ("0x1.f875a289eacf6p+0", "0x1.fa211d0ed0b55p-6"),
        ("0x1.fa6ab7d8cef6ep-1", "0x1.fcb99ce76fbf7p-7"),
        ("0x1.f7ccce7ae03fap+0", "0x1.f884ca2065407p-6"),
        ("0x1.fa6ab7d8cef6ep-1", "0x1.fcb99ce76fbf7p-7"),
    ],
    (3, 0.0): [
        ("0x1.ff83f58b54455p-1", "0x1.c90a5a93038e4p-12"),
        ("0x1.fff2f16cfb65ap-1", "0x1.602be1097e817p-13"),
        ("0x1.1548a880b6f7ep-10", "0x1.67a4155be0997p-11"),
        ("0x1.44751dd0f8fd9p-3", "0x1.33a80a2dcf1e2p-8"),
        ("0x1.37d59e3825e02p-11", "0x1.00a2b26f2c07bp-11"),
        ("0x1.44751dd0f8fd9p-3", "0x1.33a80a2dcf1e2p-8"),
    ],
    (3, 40.0): [
        ("0x1.e31b3faa505b3p-10", "0x1.3b000f90af786p-11"),
        ("0x1.1575b421d0becp-8", "0x1.d9733c99fa01fp-11"),
        ("0x1.6eb72c50b555dp+0", "0x1.9ac3261027633p-6"),
        ("0x1.6f90d70b32a1dp-1", "0x1.9b3d0f5b9b8fcp-7"),
        ("0x1.6eaec231d392dp+0", "0x1.9ab46bc0b352cp-6"),
        ("0x1.6f90d70b32a1dp-1", "0x1.9b3d0f5b9b8fcp-7"),
    ],
    (8, 0.0): [
        ("0x1.0000000000000p+0", "0x1.912f3db44ad27p-14"),
        ("0x1.0000000000000p+0", "0x1.912f3db44ad27p-14"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.eaa99f300d89bp-3", "0x1.9d31f990d5e2fp-8"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.eaa99f300d89bp-3", "0x1.9d31f990d5e2fp-8"),
    ],
    (8, 40.0): [
        ("0x1.0eee6a9f838d1p-8", "0x1.d3eef06cf50f3p-11"),
        ("0x1.361a23ad52b71p-7", "0x1.5fe7410880494p-10"),
        ("0x1.1fbe8037bb309p+0", "0x1.66382acd958a8p-6"),
        ("0x1.21216477c9d86p-1", "0x1.66f592ec4ec25p-7"),
        ("0x1.1fbe55b1e09bbp+0", "0x1.6638070033191p-6"),
        ("0x1.21216477c9d86p-1", "0x1.66f592ec4ec25p-7"),
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
        c = cfg(K=40)
        serial = simulate_many(c, 12_345, seed=27)
        assert max(elements) <= BATCH_ELEMENTS
        assert sum(elements) == 12_345 * 40
        assert simulate_many(c, 12_345, seed=27, workers=2) == serial

    def test_k_above_batch_elements_refused_before_any_draw(self, monkeypatch):
        # one row of K gains would not fit a batch; never draw at such a K
        draws = []
        monkeypatch.setattr(montecarlo, "sample_batch",
                            lambda *args: draws.append(args) or sample_batch(*args))
        with pytest.raises(ValueError, match=f"K must be at most {BATCH_ELEMENTS}"):
            simulate_many(cfg(K=BATCH_ELEMENTS + 1), 1000, seed=0)
        assert draws == []

class TestSharedSample:
    """simulate_many scores every pair from one draw per batch."""

    @pytest.mark.parametrize("csi,K", [("imperfect", 8), ("perfect", 4), ("sos", 2)])
    def test_each_entry_equals_simulate(self, csi, K):
        c = cfg(K=K, rho_db=20.0, sigma2=0.0 if csi == "perfect" else 0.01, csi=csi)
        trials = 2 * BATCH_SIZE + 77
        many = simulate_many(c, trials, seed=21, stream=3)
        assert list(many) == ALL_PAIRS
        for scheme, metric in ALL_PAIRS:
            assert many[(scheme, metric)] == simulate(c, scheme, metric, trials,
                                                      seed=21, stream=3)

    def test_worker_count_does_not_change_bits(self):
        c = cfg(K=4)
        serial = simulate_many(c, 3 * BATCH_SIZE + 5, seed=22)
        assert simulate_many(c, 3 * BATCH_SIZE + 5, seed=22, workers=2) == serial

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
        with pytest.raises(ValueError, match="workers"):
            simulate_many(cfg(), 1000, seed=0, workers=workers)

    @pytest.mark.parametrize("pair", [
        ("tdma", METRIC_OUTAGE), (SCHEME_NOMA, "throughput"), (SCHEME_OMA, "throughput"),
    ])
    def test_rejects_bad_pairs(self, pair):
        with pytest.raises(ValueError):
            simulate(cfg(), *pair, 1000, seed=0)


def valid_pairs(c):
    """The pairs simulate_many returns for config c."""
    return ALL_PAIRS[:2] if c.K < 2 else ALL_PAIRS


def score(c, gains):
    """_score_batch of a (rows, K) batch in a scratch of its own."""
    return _score_batch(c, gains, np.empty(montecarlo._VECTORS * len(gains)))


class TestWorkspace:
    """One workspace serves every batch of a job and carries nothing over."""

    @pytest.mark.parametrize("K", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_reuse_leaks_no_state(self, csi, K):
        c = cfg(K=K, rho_db=20.0, sigma2=0.0 if csi == "perfect" else 0.01, csi=csi)
        rows = batch_rows(K)
        workspace = montecarlo._workspace(c, rows)
        # a full batch, then the partial one of rows + 137 trials, three times
        for _ in range(3):
            for index, size in ((0, rows), (1, 137)):
                reused = montecarlo._run_batch(c, 28, 1, index, size, workspace).values()
                fresh = montecarlo._run_batch(c, 28, 1, index, size,
                                              montecarlo._workspace(c, size)).values()
                assert [(s.hex(), s2.hex()) for s, s2 in reused] == \
                    [(s.hex(), s2.hex()) for s, s2 in fresh]

    def test_scoring_leaves_gains_alone(self):
        c = cfg(K=3, csi="sos")
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


def record_threads(monkeypatch):
    """The threads simulate_many starts from here on, in start order."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(montecarlo.threading, "Thread", Recorded)
    return started


class TestWorkerThreads:
    """The caller's thread is worker 0; batch i runs on worker i mod workers."""

    @pytest.mark.parametrize("failing", [3, 4])  # worker 0 (the caller), worker 1
    def test_batch_exception_reaches_caller_after_every_join(self, monkeypatch, failing):
        run_batch = montecarlo._run_batch

        def run(config, seed, stream, index, *rest):
            if index == failing:
                raise RuntimeError(f"batch {index} failed")
            return run_batch(config, seed, stream, index, *rest)

        monkeypatch.setattr(montecarlo, "_run_batch", run)
        started = record_threads(monkeypatch)
        with pytest.raises(RuntimeError, match=f"batch {failing} failed"):
            simulate_many(cfg(K=2), 6 * BATCH_SIZE, seed=31, workers=3)
        assert len(started) == 2
        assert not any(thread.is_alive() for thread in started)

    def test_no_thread_without_a_batch(self, monkeypatch):
        c = cfg(K=2)
        serial = simulate_many(c, 3 * BATCH_SIZE, seed=32)
        started = record_threads(monkeypatch)
        assert simulate_many(c, 3 * BATCH_SIZE, seed=32, workers=8) == serial
        assert len(started) <= 2

    def test_worker_count_keeps_every_bit(self):
        c = cfg(K=8)
        trials = 3 * BATCH_SIZE + 137  # a partial last batch

        def bits(workers):
            many = simulate_many(c, trials, seed=33, workers=workers)
            return [(e.value.hex(), e.half_width_95.hex()) for e in many.values()]

        serial = bits(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a lost part would show
        try:
            for workers in (2, 3, 4):
                assert bits(workers) == serial
        finally:
            sys.setswitchinterval(interval)


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
        c = cfg(K=K, sigma2=0.0 if csi == "perfect" else 0.01, csi=csi)
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
        c = cfg(K=K, rho_db=rho_db, sigma2=0.0 if csi == "perfect" else 0.01, csi=csi)
        gains = sample_batch(c, np.random.default_rng(K), 3_000)[2]
        values = score(c, gains)
        assert set(values) == set(valid_pairs(c))  # every valid pair, every batch
        for pair, v in values.items():
            assert np.array_equal(v, metric_values(c, *pair, gains))

    @pytest.mark.parametrize("csi,K", [("imperfect", 8), ("sos", 3)])
    def test_oma_secrecy_pairs_share_one_array(self, csi, K):
        c = cfg(K=K, csi=csi)
        oma = [(SCHEME_OMA, METRIC_SECRECY), (SCHEME_OMA, METRIC_SECRECY_SURROGATE)]
        gains = sample_batch(c, np.random.default_rng(5), 1_000)[2]
        values = score(c, gains)
        assert values[oma[0]] is values[oma[1]]
        many = simulate_many(c, BATCH_SIZE + 11, seed=26)
        exact, surrogate = many[oma[0]], many[oma[1]]
        assert (exact.value, exact.half_width_95) == (surrogate.value, surrogate.half_width_95)


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
        c = cfg(K=K, rho_db=20.0, sigma2=0.0 if csi == "perfect" else 0.01, csi=csi)
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
            got = score(c, gains[None, :])[(SCHEME_OMA, METRIC_SECRECY)][0]
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
