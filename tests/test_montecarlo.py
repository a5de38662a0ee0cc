"""Simulation oracle: determinism, interval quality, reference equivalence."""

import numpy as np
import pytest

from noma_perf import analytic
from noma_perf import montecarlo
from noma_perf.channel import CSI_SOS, SystemConfig, sample_batch, sample_realization
from noma_perf.montecarlo import (
    BATCH_SIZE,
    METRIC_OUTAGE,
    METRIC_SECRECY,
    METRIC_SECRECY_SURROGATE,
    MetricEstimate,
    SCHEME_NOMA,
    SCHEME_OMA,
    _score_batch,
    simulate,
    simulate_many,
)
from noma_perf.noma_core import oma_rates, secrecy_throughput_noma
from pair_scoring import metric_values


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


class TestSharedSample:
    """simulate_many scores every pair from one draw per batch."""

    @pytest.mark.parametrize("csi,K", [("imperfect", 8), ("perfect", 4), ("sos", 2)])
    def test_each_entry_equals_simulate(self, csi, K):
        c = cfg(K=K, rho_db=20.0, sigma2=0.0 if csi == "perfect" else 0.01, csi=csi)
        trials = 2 * BATCH_SIZE + 77
        many = simulate_many(c, ALL_PAIRS, trials, seed=21, stream=3)
        assert list(many) == ALL_PAIRS
        for scheme, metric in ALL_PAIRS:
            assert many[(scheme, metric)] == simulate(c, scheme, metric, trials,
                                                      seed=21, stream=3)

    def test_worker_count_does_not_change_bits(self):
        c = cfg(K=4)
        serial = simulate_many(c, ALL_PAIRS, 3 * BATCH_SIZE + 5, seed=22)
        assert simulate_many(c, ALL_PAIRS, 3 * BATCH_SIZE + 5, seed=22, workers=2) == serial

    def test_distance_ranked_outage_only_for_any_k(self):
        c = cfg(K=3, csi="sos")
        pairs = [(SCHEME_NOMA, METRIC_OUTAGE), (SCHEME_OMA, METRIC_OUTAGE)]
        many = simulate_many(c, pairs, 5_000, seed=23)
        assert set(many) == set(pairs)
        for scheme, metric in pairs:
            assert many[(scheme, metric)] == simulate(c, scheme, metric, 5_000, seed=23)

    def test_distance_ranked_surrogate_needs_two_users(self):
        with pytest.raises(ValueError, match="needs K >= 2"):
            simulate_many(cfg(K=1, csi="sos"), ALL_PAIRS, 5_000, seed=24)
        # any K >= 2 scores every pair
        c = cfg(K=3, csi="sos")
        many = simulate_many(c, ALL_PAIRS, 5_000, seed=24)
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
        pairs = [(SCHEME_NOMA, METRIC_OUTAGE), pair]
        with pytest.raises(ValueError, match=message):
            simulate_many(cfg(K=K, csi=csi), pairs, 3 * BATCH_SIZE, seed=25, workers=workers)
        assert draws == []

    @pytest.mark.parametrize("workers", [True, 1.5, 0, "2", None])
    def test_rejects_non_integer_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            simulate_many(cfg(), [(SCHEME_NOMA, METRIC_OUTAGE)], 1000, seed=0, workers=workers)

    @pytest.mark.parametrize("pairs", [
        [], [("tdma", METRIC_OUTAGE)], [(SCHEME_NOMA, "throughput")],
        [(SCHEME_NOMA, METRIC_OUTAGE), (SCHEME_OMA, "throughput")],
    ])
    def test_rejects_bad_pairs(self, pairs):
        with pytest.raises(ValueError):
            simulate_many(cfg(), pairs, 1000, seed=0)


def valid_pairs(c):
    """The pairs simulate_many accepts for config c."""
    return ALL_PAIRS[:2] if c.K < 2 else ALL_PAIRS


class TestScoreKernel:
    """_score_batch against the per-pair formulas in tests/pair_scoring.py."""

    @pytest.mark.parametrize("rho_db", [0.0, 20.0, 40.0])
    @pytest.mark.parametrize("K", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("csi", ["imperfect", "perfect", "sos"])
    def test_bit_identical_to_per_pair_oracle(self, csi, K, rho_db):
        c = cfg(K=K, rho_db=rho_db, sigma2=0.0 if csi == "perfect" else 0.01, csi=csi)
        _, _, true_gains, est_gains = sample_batch(c, np.random.default_rng(K), 3_000)
        pairs = valid_pairs(c)
        together = _score_batch(c, pairs, true_gains, est_gains)
        assert set(together) == set(pairs)
        for pair in pairs:
            expected = metric_values(c, *pair, true_gains, est_gains)
            assert np.array_equal(together[pair], expected)
            # scored alone the kernel takes other paths (no shared ranking)
            alone = _score_batch(c, [pair], true_gains, est_gains)
            assert np.array_equal(alone[pair], expected)

    @pytest.mark.parametrize("csi,K", [("imperfect", 8), ("sos", 3)])
    def test_oma_secrecy_pairs_share_one_array(self, csi, K):
        c = cfg(K=K, csi=csi)
        oma = [(SCHEME_OMA, METRIC_SECRECY), (SCHEME_OMA, METRIC_SECRECY_SURROGATE)]
        _, _, true_gains, est_gains = sample_batch(c, np.random.default_rng(5), 1_000)
        values = _score_batch(c, oma, true_gains, est_gains)
        assert values[oma[0]] is values[oma[1]]
        many = simulate_many(c, valid_pairs(c), BATCH_SIZE + 11, seed=26)
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
            metric_kind=METRIC_SECRECY, scheme=SCHEME_OMA, csi_mode=CSI_SOS,
        )


class TestReferenceEquivalence:
    """The vectorized kernels must agree with the per-realization logic."""

    @pytest.mark.parametrize("csi,K", [("imperfect", 4), ("perfect", 4), ("sos", 2), ("sos", 5)])
    def test_exact_secrecy_matches_noma_core(self, csi, K):
        c = cfg(K=K, rho_db=20.0, sigma2=0.0 if csi == "perfect" else 0.01, csi=csi)
        rng = np.random.default_rng(2718)
        for _ in range(300):
            r = sample_realization(c, rng)
            ref = secrecy_throughput_noma(r, c)
            got = _score_batch(
                c, [(SCHEME_NOMA, METRIC_SECRECY)],
                r.true_gains[None, :],
                None if r.est_gains is None else r.est_gains[None, :],
            )[(SCHEME_NOMA, METRIC_SECRECY)][0]
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("csi,K", [("imperfect", 4), ("sos", 3)])
    def test_oma_secrecy_matches_noma_core(self, csi, K):
        c = cfg(K=K, rho_db=20.0, csi=csi)
        rng = np.random.default_rng(31415)
        for _ in range(300):
            r = sample_realization(c, rng)
            _, ref = oma_rates(r, c)
            got = _score_batch(
                c, [(SCHEME_OMA, METRIC_SECRECY)],
                r.true_gains[None, :],
                None if r.est_gains is None else r.est_gains[None, :],
            )[(SCHEME_OMA, METRIC_SECRECY)][0]
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_outage_indicator_definition(self):
        c = cfg(K=4, rho_db=10.0)
        rng = np.random.default_rng(999)
        for _ in range(200):
            r = sample_realization(c, rng)
            got = _score_batch(c, [(SCHEME_NOMA, METRIC_OUTAGE)], r.true_gains[None, :],
                               r.est_gains[None, :])[(SCHEME_NOMA, METRIC_OUTAGE)][0]
            expected = float(np.min(r.est_gains) < c.eps_multicast / c.rho)
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
