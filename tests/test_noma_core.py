"""Power split and multicast rate, scalar and array-valued, and the
per-snapshot secrecy and OMA references in `pair_scoring`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_perf.channel import CSI_SOS, SystemConfig
from noma_perf.noma_core import PowerSplit, multicast_rate, power_split
from pair_scoring import oma_rates, secrecy_throughput_noma, snapshot, unicast_rate


def realization(true_gains, est_gains=None):
    """(true_gains, est_gains) of one snapshot, as the references take them."""
    return (np.asarray(true_gains, dtype=float),
            None if est_gains is None else np.asarray(est_gains, dtype=float))


def gain_grid(rho, R_M):
    """Gains at 0, below, exactly at and just around eps/rho, and above it."""
    z = (2.0 ** R_M - 1.0) / rho
    return np.array([0.0, 1e-300, 0.5 * z, np.nextafter(z, 0.0), z,
                     np.nextafter(z, 1.0), 2.0 * z, 1.0, 1e3])


def assert_bitwise_equal(array, scalars):
    expected = np.array(scalars, dtype=float)
    assert array.shape == expected.shape
    assert np.array_equal(array.view(np.int64), expected.view(np.int64))


class TestPowerSplit:
    def test_hand_computed_split(self):
        # alpha = 1, rho = 100, R_M = 1: eps = 1,
        # theta_U = (1 - 1/100) / (1 * 2) = 0.495
        split = power_split(1.0, 100.0, 1.0)
        assert not split.outage
        assert abs(split.theta_U - 0.495) < 1e-15
        assert split.theta_M == 1.0 - split.theta_U

    def test_outage_when_infeasible(self):
        # eps/rho = 1/100; anything weaker is outage
        split = power_split(0.009, 100.0, 1.0)
        assert split.outage and split.theta_U == 0.0 and split.theta_M == 1.0

    def test_boundary_gain_is_feasible_with_zero_unicast(self):
        rho, R_M = 50.0, 0.75
        eps = 2.0 ** R_M - 1.0
        split = power_split(eps / rho, rho, R_M)
        assert not split.outage
        assert split.theta_U == 0.0

    def test_high_snr_limit(self):
        # theta_U ->  1/(1+eps) as rho grows
        R_M = 1.2
        eps = 2.0 ** R_M - 1.0
        split = power_split(1.0, 1e9, R_M)
        assert abs(split.theta_U - 1.0 / (1.0 + eps)) < 1e-8

    @given(
        alpha=st.floats(min_value=1e-6, max_value=100.0),
        rho=st.floats(min_value=0.1, max_value=1e5),
        R_M=st.floats(min_value=0.05, max_value=6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_properties(self, alpha, rho, R_M):
        split = power_split(alpha, rho, R_M)
        assert split.theta_M + split.theta_U == 1.0
        assert 0.0 <= split.theta_U < 1.0
        if not split.outage:
            # driving gain decodes the multicast stream at exactly R_M
            assert abs(multicast_rate(alpha, split, rho) - R_M) < 1e-9
            # any stronger gain does at least as well
            assert multicast_rate(2.0 * alpha, split, rho) >= R_M - 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho,R_M", [(100.0, 1.0), (50.0, 0.75), (1e9, 1.2), (0.5, 3.0)])
    def test_array_matches_scalar_calls(self, rho, R_M):
        alpha = gain_grid(rho, R_M)
        split = power_split(alpha, rho, R_M)
        scalar = [power_split(float(a), rho, R_M) for a in alpha]
        for one in scalar:
            assert type(one.theta_M) is float and type(one.theta_U) is float
            assert type(one.outage) is bool
        assert split.outage.dtype == bool
        assert np.array_equal(split.outage, [one.outage for one in scalar])
        assert_bitwise_equal(split.theta_M, [one.theta_M for one in scalar])
        assert_bitwise_equal(split.theta_U, [one.theta_U for one in scalar])
        # 0, 1e-300 and 0.5 eps/rho are in outage, eps/rho is not
        assert list(split.outage[:5]) == [True, True, True, True, False]

    @pytest.mark.parametrize("rho,R_M", [(100.0, 1.0), (50.0, 0.75), (1e9, 1.2), (0.5, 3.0)])
    def test_matches_masked_quotient(self, rho, R_M):
        # reference: (alpha - eps/rho) / (alpha (1 + eps)), formed only where
        # feasible and 0 elsewhere, as first written
        eps = 2.0 ** R_M - 1.0
        alpha = np.concatenate([gain_grid(rho, R_M),
                                eps / rho * np.logspace(-3.0, 12.0, 2_001)])
        feasible = alpha >= eps / rho
        expected = np.divide(alpha - eps / rho, alpha * (1.0 + eps),
                             out=np.zeros_like(alpha), where=feasible)
        split = power_split(alpha, rho, R_M)
        assert_bitwise_equal(split.theta_U, expected)
        assert np.array_equal(split.outage, ~feasible)

    def test_zero_gain_has_zero_share_without_warning(self):
        with np.errstate(all="raise"):
            split = power_split(np.array([0.0, 1e-300, 0.0]), 100.0, 1.0)
            scalar = power_split(0.0, 100.0, 1.0)
        assert_bitwise_equal(split.theta_U, [0.0, 0.0, 0.0])  # +0, not -0
        assert split.outage.all() and scalar.outage
        assert scalar.theta_U == 0.0 and scalar.theta_M == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            power_split(-1.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            power_split(np.array([1.0, -1.0]), 100.0, 1.0)
        with pytest.raises(ValueError):
            power_split(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            power_split(1.0, 100.0, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.array([1.0, np.nan, 0.0])])
    def test_rejects_nan_gain(self, alpha):
        # a NaN gain fails both alpha < 0 and alpha >= 0, and used to come
        # back as a NaN split with outage False
        with pytest.raises(ValueError, match="NaN"):
            power_split(alpha, 100.0, 0.5)

    @pytest.mark.parametrize("alpha", [np.inf, np.array([1.0, np.inf, 0.0])],
                             ids=["scalar", "array"])
    def test_rejects_infinite_gain(self, alpha):
        # inf / inf in the unicast share used to give a NaN split with
        # outage False, and a NaN multicast rate
        with pytest.raises(ValueError, match="finite"):
            power_split(alpha, 100.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            multicast_rate(alpha, PowerSplit(1.0, 0.0, False), 10.0)


class TestRates:
    def test_unicast_rate_formula(self):
        assert unicast_rate(0.5, 0.4, 10.0) == np.log2(1.0 + 10.0 * 0.4 * 0.5)
        assert unicast_rate(0.5, 0.0, 10.0) == 0.0

    def test_multicast_rate_full_power(self):
        split = PowerSplit(theta_M=1.0, theta_U=0.0, outage=True)
        assert abs(multicast_rate(0.3, split, 20.0) - np.log2(1.0 + 20.0 * 0.3)) < 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho,R_M", [(100.0, 1.0), (50.0, 0.75), (1e9, 1.2), (0.5, 3.0)])
    def test_multicast_rate_array_matches_scalar_calls(self, rho, R_M):
        alpha = gain_grid(rho, R_M)
        rate = multicast_rate(alpha, power_split(alpha, rho, R_M), rho)
        scalar = [multicast_rate(float(a), power_split(float(a), rho, R_M), rho) for a in alpha]
        assert all(type(r) is float for r in scalar)
        assert_bitwise_equal(rate, scalar)

    def test_validation(self):
        split = PowerSplit(1.0, 0.0, False)
        with pytest.raises(ValueError):
            multicast_rate(-0.1, split, 10.0)
        with pytest.raises(ValueError):
            multicast_rate(np.array([0.1, -0.1]), split, 10.0)
        for alpha in (np.nan, np.array([0.1, np.nan])):
            with pytest.raises(ValueError, match="NaN"):
                multicast_rate(alpha, split, 10.0)
        with pytest.raises(ValueError):
            unicast_rate(-0.1, 0.5, 10.0)
        with pytest.raises(ValueError):
            unicast_rate(0.1, -0.5, 10.0)


class TestSecrecyThroughputNoma:
    def cfg(self, **kw):
        base = dict(K=3, rho=100.0, R_M=1.0, sigma2_zeta=0.01)
        base.update(kw)
        return SystemConfig(**base)

    def test_matches_hand_computation(self):
        cfg = self.cfg()
        est = [2.0, 0.5, 1.0]
        r = realization([1.8, 0.6, 0.9], est_gains=est)
        # weakest estimate 0.5 drives the split: theta_U = (0.5 - 0.01) / 1.0
        theta_u = (0.5 - 1.0 / 100.0) / (0.5 * 2.0)
        expected = np.log2(1.0 + 100.0 * theta_u * 2.0) - np.log2(1.0 + 100.0 * theta_u * 1.0)
        assert abs(secrecy_throughput_noma(*r, cfg) - expected) < 1e-12

    def test_zero_on_outage(self):
        cfg = self.cfg()
        r = realization([1.0, 1.0, 1.0], est_gains=[2.0, 0.005, 1.0])
        assert secrecy_throughput_noma(*r, cfg) == 0.0

    def test_nonnegative(self):
        cfg = self.cfg()
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = snapshot(cfg, rng)[2:]  # (ranked_gains, est_gains)
            assert secrecy_throughput_noma(*r, cfg) >= 0.0

    def test_sos_targets_nearest_user(self):
        cfg = self.cfg(csi_mode=CSI_SOS)
        # nearest user strongest: positive secrecy
        r = realization([3.0, 1.0, 0.8])
        v = secrecy_throughput_noma(*r, cfg)
        split_theta = (0.8 - 0.01) / (0.8 * 2.0)
        expected = np.log2(1.0 + 100.0 * split_theta * 3.0) - np.log2(1.0 + 100.0 * split_theta * 1.0)
        assert abs(v - expected) < 1e-12
        # nearest user outgained by a farther one: clipped to zero
        r = realization([1.0, 3.0, 0.8])
        assert secrecy_throughput_noma(*r, cfg) == 0.0

    def test_sos_zero_if_any_user_in_outage(self):
        cfg = self.cfg(csi_mode=CSI_SOS)
        r = realization([3.0, 0.005, 0.8])  # middle user cannot decode
        assert secrecy_throughput_noma(*r, cfg) == 0.0

    def test_validation(self):
        cfg = self.cfg()
        r = realization([1.0, 2.0, 3.0])  # no estimates
        with pytest.raises(ValueError):
            secrecy_throughput_noma(*r, cfg)
        k1 = SystemConfig(K=1, rho=100.0, R_M=1.0, sigma2_zeta=0.01)
        with pytest.raises(ValueError):
            secrecy_throughput_noma(*snapshot(k1, np.random.default_rng(0))[2:], k1)


class TestOmaRates:
    def cfg(self, **kw):
        base = dict(K=3, rho=100.0, R_M=1.0, sigma2_zeta=0.01)
        base.update(kw)
        return SystemConfig(**base)

    def test_half_slot_rates(self):
        cfg = self.cfg()
        r = realization([1.8, 0.6, 0.9], est_gains=[2.0, 0.5, 1.0])
        mc, secrecy = oma_rates(*r, cfg)
        np.testing.assert_allclose(mc, 0.5 * np.log2(1.0 + 100.0 * np.array([2.0, 0.5, 1.0])))
        expected = 0.5 * (np.log2(1.0 + 200.0) - np.log2(1.0 + 100.0))
        assert abs(secrecy - expected) < 1e-12

    def test_independent_of_multicast_target(self):
        r = realization([1.8, 0.6, 0.9], est_gains=[2.0, 0.5, 1.0])
        _, s1 = oma_rates(*r, self.cfg(R_M=0.3))
        _, s2 = oma_rates(*r, self.cfg(R_M=2.5))
        assert s1 == s2

    def test_sos_clips_negative_gap(self):
        cfg = self.cfg(csi_mode=CSI_SOS)
        r = realization([0.5, 3.0, 0.8])
        mc, secrecy = oma_rates(*r, cfg)
        assert secrecy == 0.0
        np.testing.assert_allclose(mc, 0.5 * np.log2(1.0 + 100.0 * np.array([0.5, 3.0, 0.8])))

    def test_validation(self):
        cfg = self.cfg()
        with pytest.raises(ValueError):
            oma_rates(*realization([1.0, 2.0, 3.0]), cfg)  # estimates missing
        k1 = SystemConfig(K=1, rho=100.0, R_M=1.0, sigma2_zeta=0.01)
        with pytest.raises(ValueError):
            oma_rates(*snapshot(k1, np.random.default_rng(0))[2:], k1)
