"""Configuration invariants and sampling statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from noma_perf.channel import (
    CSI_IMPERFECT,
    CSI_PERFECT,
    CSI_SOS,
    SystemConfig,
    distance_order_pdf,
    sample_batch,
    sample_realization,
)


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
        cfg = make_config()
        rng = np.random.default_rng(7)
        r = sample_realization(cfg, rng)
        assert r.distances.shape == (8,)
        assert np.all(np.diff(r.distances) >= 0)
        assert np.all((r.distances > 0) & (r.distances < cfg.D))
        assert np.all(r.fading_powers >= 0)
        np.testing.assert_allclose(
            r.true_gains, r.fading_powers * r.distances ** -cfg.eta, rtol=1e-15
        )
        assert r.est_gains is not None and r.est_gains.shape == (8,)

    def test_sos_has_no_estimates(self):
        r = sample_realization(make_config(csi_mode=CSI_SOS), np.random.default_rng(7))
        assert r.est_gains is None

    def test_perfect_estimates_equal_truth(self):
        cfg = make_config(csi_mode=CSI_PERFECT, sigma2_zeta=0.0)
        r = sample_realization(cfg, np.random.default_rng(7))
        assert np.array_equal(r.est_gains, r.true_gains)

    def test_deterministic_given_seed(self):
        cfg = make_config()
        r1 = sample_realization(cfg, np.random.default_rng(123))
        r2 = sample_realization(cfg, np.random.default_rng(123))
        assert np.array_equal(r1.distances, r2.distances)
        assert np.array_equal(r1.est_gains, r2.est_gains)

    def test_single_draw_matches_batch_row(self):
        cfg = make_config()
        r = sample_realization(cfg, np.random.default_rng(99))
        d, fading, true_g, est_g = sample_batch(cfg, np.random.default_rng(99), 1)
        assert np.array_equal(r.distances, d[0])
        assert np.array_equal(r.true_gains, true_g[0])
        assert np.array_equal(r.est_gains, est_g[0])

    @pytest.mark.parametrize("kw", [
        dict(), dict(csi_mode=CSI_PERFECT, sigma2_zeta=0.0), dict(csi_mode=CSI_SOS),
    ])
    def test_sorted_draws_match_argsort_form(self, kw):
        # reference: distances ordered by a stable argsort, as first written
        cfg = make_config(**kw)
        rng = np.random.default_rng(77)
        d = cfg.D * np.sqrt(rng.random((500, cfg.K)))
        d = np.take_along_axis(d, np.argsort(d, axis=1, kind="stable"), axis=1)
        fading = rng.exponential(1.0, (500, cfg.K))
        true_g = fading * d ** (-cfg.eta)
        if cfg.csi_mode == CSI_SOS:
            est_g = None
        elif cfg.sigma2_zeta == 0.0:
            est_g = true_g
        else:
            est_g = rng.exponential(1.0, (500, cfg.K)) * (d ** (-cfg.eta) - cfg.sigma2_zeta)
        got = sample_batch(cfg, np.random.default_rng(77), 500)
        for a, b in zip(got, (d, fading, true_g, est_g)):
            if b is None:
                assert a is None
            else:
                assert np.array_equal(a, b)

    def test_nearest_distance_mean(self):
        # E[min of two uniform-in-disk radii] = 8 D / 15
        cfg = make_config(K=2)
        d, _, _, _ = sample_batch(cfg, np.random.default_rng(2024), 200_000)
        mean = d[:, 0].mean()
        se = d[:, 0].std() / np.sqrt(d.shape[0])
        assert abs(mean - 8.0 * cfg.D / 15.0) < 4 * se

    def test_estimates_are_exponential_with_claimed_mean(self):
        cfg = make_config(K=4, sigma2_zeta=0.02)
        d, _, _, est = sample_batch(cfg, np.random.default_rng(5), 100_000)
        normalized = est / (d ** -cfg.eta - cfg.sigma2_zeta)
        flat = normalized.ravel()
        n = flat.size
        assert abs(flat.mean() - 1.0) < 4.0 / np.sqrt(n)
        # exponential: var = mean^2 and P(X > 1) = 1/e
        assert abs(flat.var() - 1.0) < 0.02
        assert abs((flat > 1.0).mean() - np.exp(-1.0)) < 0.01


class TestDistanceOrderPdf:
    @pytest.mark.parametrize("k,K", [(1, 1), (1, 4), (3, 4), (8, 8)])
    def test_normalizes(self, k, K):
        total = integrate.quad(lambda x: distance_order_pdf(k, K, 5.0, x), 0.0, 5.0)[0]
        assert abs(total - 1.0) < 1e-10

    def test_matches_sampled_mean(self):
        cfg = make_config(K=4)
        d, _, _, _ = sample_batch(cfg, np.random.default_rng(11), 150_000)
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
