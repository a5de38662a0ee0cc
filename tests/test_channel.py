"""Configuration invariants and sampling statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from noma_perf.analytic import _survival_est
from noma_perf.channel import (
    CSI_IMPERFECT,
    CSI_PERFECT,
    CSI_SOS,
    SystemConfig,
    sample_batch,
)
from pair_scoring import snapshot
from paper_form import distance_order_pdf


def make_config(**kw):
    base = dict(K=8, D=5.0, eta=2.0, rho=1000.0, R_M=0.5, sigma2_zeta=0.01)
    base.update(kw)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.K == 8 and cfg.csi_mode == CSI_IMPERFECT
        assert cfg.quad_orders == (50, 44, 17, 24, 48)

    def test_thresholds(self):
        cfg = make_config(R_M=1.0)
        assert cfg.eps_multicast == 1.0
        assert cfg.eps_multicast_oma == 3.0
        cfg = make_config(R_M=0.5)
        assert abs(cfg.eps_multicast - (2 ** 0.5 - 1)) < 1e-15
        assert abs(cfg.eps_multicast_oma - 1.0) < 1e-15

    @pytest.mark.parametrize("kw", [
        dict(K=0), dict(K=-1), dict(D=0.0), dict(D=-5.0), dict(eta=0.0),
        dict(rho=0.0), dict(rho=-1.0), dict(R_M=0.0), dict(R_M=-0.5),
        dict(sigma2_zeta=-0.01), dict(csi_mode="statistical"),
        dict(quad_orders=(50, 5, 10, 100)), dict(quad_orders=(50, 5, 0, 100, 10)),
        dict(K=True), dict(D=float("inf")), dict(eta=float("inf")),
        dict(rho=float("inf")), dict(R_M=float("inf")), dict(sigma2_zeta=float("nan")),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            make_config(**kw)

    def test_estimate_error_bound(self):
        # error variance must stay below the weakest possible mean gain
        edge = 5.0 ** -2.0
        with pytest.raises(ValueError):
            make_config(sigma2_zeta=edge)
        with pytest.raises(ValueError):
            make_config(sigma2_zeta=edge + 0.01)
        make_config(sigma2_zeta=edge - 1e-6)  # fine
        # statistical CSI has no estimates, so the bound does not apply
        make_config(csi_mode=CSI_SOS, eta=3.0, sigma2_zeta=0.01)
        make_config(csi_mode=CSI_SOS, sigma2_zeta=edge + 0.01)
        with pytest.raises(ValueError, match="below D"):
            make_config(eta=3.0, sigma2_zeta=0.01)

    def test_perfect_requires_zero_error(self):
        with pytest.raises(ValueError):
            make_config(csi_mode=CSI_PERFECT, sigma2_zeta=0.01)
        make_config(csi_mode=CSI_PERFECT, sigma2_zeta=0.0)


class TestSampling:
    def test_shapes_and_ordering(self):
        cfg = make_config(csi_mode=CSI_SOS)
        sq, fading, true_g, est_g = snapshot(cfg, np.random.default_rng(7))
        d = np.sqrt(sq)  # the draw keeps squared distances
        assert d.shape == (8,)
        assert np.all(np.diff(d) >= 0)
        assert np.all((d > 0) & (d < cfg.D))
        assert np.all(fading >= 0)
        np.testing.assert_allclose(true_g, fading * d ** -cfg.eta, rtol=1e-15)
        assert est_g is None
        # estimate modes draw the estimates alone, which are also the ranked gains
        d, fading, ranked, est_g = sample_batch(make_config(), np.random.default_rng(7), 5)
        assert d is None and fading is None
        assert est_g is ranked and est_g.shape == (5, 8) and np.all(est_g >= 0)

    def test_sos_has_no_estimates(self):
        _, _, _, est_g = snapshot(make_config(csi_mode=CSI_SOS), np.random.default_rng(7))
        assert est_g is None

    def test_perfect_estimates_equal_truth(self):
        cfg = make_config(csi_mode=CSI_PERFECT, sigma2_zeta=0.0)
        _, _, true_g, est_g = snapshot(cfg, np.random.default_rng(7))
        assert np.array_equal(est_g, true_g)
        # the draw is the imperfect one with no error variance subtracted
        no_error = snapshot(make_config(sigma2_zeta=0.0), np.random.default_rng(7))[3]
        assert np.array_equal(est_g, no_error)

    def test_deterministic_given_seed(self):
        for cfg in (make_config(), make_config(csi_mode=CSI_SOS)):
            first = sample_batch(cfg, np.random.default_rng(123), 50)
            second = sample_batch(cfg, np.random.default_rng(123), 50)
            for a, b in zip(first, second):
                assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("kw", [
        dict(), dict(csi_mode=CSI_SOS), dict(csi_mode=CSI_SOS, K=2), dict(K=1),
    ])
    def test_draw_into_a_used_workspace(self, kw):
        # a workspace left full of an earlier batch's values gives the bits
        # of a fresh draw, as views of the workspace with the gains in front
        cfg = make_config(**kw)
        workspace = np.full(3 * cfg.K * 50 + 7, np.nan)
        got = sample_batch(cfg, np.random.default_rng(123), 50, workspace)
        fresh = sample_batch(cfg, np.random.default_rng(123), 50)
        for a, b in zip(got, fresh):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert np.shares_memory(got[2], workspace[:cfg.K * 50])

    @pytest.mark.parametrize("kw", [
        dict(), dict(csi_mode=CSI_PERFECT, sigma2_zeta=0.0), dict(csi_mode=CSI_SOS),
        dict(csi_mode=CSI_SOS, K=2), dict(eta=3.0, sigma2_zeta=0.001),
        dict(csi_mode=CSI_SOS, eta=3.0),
    ])
    def test_sorted_draws_match_argsort_form(self, kw):
        # reference: each mode's draw written out. Draws are user-major, one
        # (K, rows) block per variate, except the uniforms of statistical
        # CSI above K = 2, which are drawn row-major; squared distances are
        # ordered by a stable argsort, as first written. The estimate modes draw
        # squared distances D^2 U and one Exp(1) per user, and neither sort
        # nor keep distances. The path loss is u^(-eta/2)
        cfg = make_config(**kw)
        rng = np.random.default_rng(77)
        if cfg.csi_mode == CSI_SOS:
            u = rng.random((cfg.K, 500)).T if cfg.K == 2 else rng.random((500, cfg.K))
            sq = cfg.D ** 2 * np.take_along_axis(u, np.argsort(u, axis=1, kind="stable"), axis=1)
            fading = rng.exponential(1.0, (cfg.K, 500)).T
            expected = (sq, fading, fading * sq ** (-cfg.eta / 2), None)
        else:
            mean = (cfg.D ** 2 * rng.random((cfg.K, 500)).T) ** (-cfg.eta / 2) - cfg.sigma2_zeta
            est = rng.exponential(1.0, (cfg.K, 500)).T * mean
            expected = (None, None, est, est)
        got = sample_batch(cfg, np.random.default_rng(77), 500)
        for a, b in zip(got, expected):
            if b is None:
                assert a is None
            else:
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("kw", [
        dict(), dict(csi_mode=CSI_PERFECT, sigma2_zeta=0.0), dict(csi_mode=CSI_SOS),
        dict(csi_mode=CSI_SOS, K=2), dict(csi_mode=CSI_SOS, K=3),
        dict(K=3, eta=3.0, sigma2_zeta=0.001),
    ])
    def test_each_user_is_contiguous(self, kw):
        # the scorer reads gains column by column
        cfg = make_config(**kw)
        gains = sample_batch(cfg, np.random.default_rng(3), 100)[2]
        assert gains.shape == (100, cfg.K)
        for j in range(cfg.K):
            assert gains[:, j].flags.c_contiguous

    @pytest.mark.parametrize("kw", [
        dict(), dict(csi_mode=CSI_PERFECT, sigma2_zeta=0.0), dict(csi_mode=CSI_SOS),
        dict(csi_mode=CSI_SOS, K=2),
    ])
    def test_eta_two_reciprocal_matches_general_power(self, kw):
        # eta = 2 takes 1/u; an array exponent runs numpy's general power
        # on the squared distances (under sos, the ones the draw returns)
        cfg = make_config(**kw)
        sq, fading, gains, _ = sample_batch(cfg, np.random.default_rng(9), 2_000)
        if cfg.csi_mode == CSI_SOS:
            expected = fading * np.power(sq, np.full_like(sq, -0.5 * cfg.eta))
        else:
            rng = np.random.default_rng(9)
            sq = (cfg.D ** 2 * rng.random((cfg.K, 2_000))).T
            mean = np.power(sq, np.full_like(sq, -0.5 * cfg.eta)) - cfg.sigma2_zeta
            expected = rng.standard_exponential((cfg.K, 2_000)).T * mean
        np.testing.assert_allclose(gains, expected, rtol=1e-15)

    def test_nearest_distance_mean(self):
        # E[min of two uniform-in-disk radii] = 8 D / 15
        cfg = make_config(K=2, csi_mode=CSI_SOS)
        d = np.sqrt(sample_batch(cfg, np.random.default_rng(2024), 200_000)[0])
        mean = d[:, 0].mean()
        se = d[:, 0].std() / np.sqrt(d.shape[0])
        assert abs(mean - 8.0 * cfg.D / 15.0) < 4 * se

    @pytest.mark.parametrize("kw", [
        dict(sigma2_zeta=0.02), dict(csi_mode=CSI_PERFECT, sigma2_zeta=0.0),
    ], ids=["imperfect", "perfect"])
    def test_estimate_survival_matches_analytic(self, kw):
        # P(est > t) of the draw against the survival the analytic layer
        # integrates, from the bulk to the tail
        cfg = make_config(K=4, **kw)
        est = sample_batch(cfg, np.random.default_rng(5), 100_000)[3].ravel()
        t = np.array([0.01, 0.03, 0.1, 0.3, 1.0, 3.0])
        expected = _survival_est(cfg, t, cfg.quad_orders[0])
        empirical = (est[:, None] > t).mean(axis=0)
        se = np.sqrt(expected * (1.0 - expected) / est.size)
        assert np.all(np.abs(empirical - expected) < 4 * se)


class TestDistanceOrderPdf:
    @pytest.mark.parametrize("k,K", [(1, 1), (1, 4), (3, 4), (8, 8)])
    def test_normalizes(self, k, K):
        total = integrate.quad(lambda x: distance_order_pdf(k, K, 5.0, x), 0.0, 5.0)[0]
        assert abs(total - 1.0) < 1e-10

    def test_matches_sampled_mean(self):
        cfg = make_config(K=4, csi_mode=CSI_SOS)
        d = np.sqrt(sample_batch(cfg, np.random.default_rng(11), 150_000)[0])
        for k in (1, 2, 4):
            ref = integrate.quad(
                lambda x: x * distance_order_pdf(k, cfg.K, cfg.D, x), 0.0, cfg.D
            )[0]
            col = d[:, k - 1]
            se = col.std() / np.sqrt(col.size)
            assert abs(col.mean() - ref) < 4 * se

    @given(
        k=st.integers(min_value=1, max_value=6),
        K=st.integers(min_value=1, max_value=6),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_inside_support(self, k, K, frac):
        if k > K:
            with pytest.raises(ValueError):
                distance_order_pdf(k, K, 2.0, 1.0)
        else:
            assert distance_order_pdf(k, K, 2.0, 2.0 * frac) >= 0.0

    def test_vectorized(self):
        x = np.linspace(0.0, 5.0, 11)
        vec = distance_order_pdf(2, 5, 5.0, x)
        scal = np.array([distance_order_pdf(2, 5, 5.0, float(v)) for v in x])
        assert np.allclose(vec, scal, rtol=1e-14, atol=1e-300)

    def test_validation(self):
        with pytest.raises(ValueError):
            distance_order_pdf(0, 3, 5.0, 1.0)
        with pytest.raises(ValueError):
            distance_order_pdf(4, 3, 5.0, 1.0)
        with pytest.raises(ValueError):
            distance_order_pdf(1, 3, -1.0, 0.5)
        with pytest.raises(ValueError):
            distance_order_pdf(1, 3, 5.0, 6.0)
