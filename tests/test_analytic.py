"""Closed-form evaluators: oracles, invariants, and convergence behavior.

Oracles here are adaptive quadrature built from first principles (user
geometry plus exponential fading), so they share no code path with the
evaluators under test. Monte Carlo agreement lives in the acceptance suite.
"""

from math import comb, exp, log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from noma_perf import analytic, montecarlo
from noma_perf.channel import DEFAULT_QUAD_ORDERS, SystemConfig
from noma_perf.config import Settings, system_config
from paper_form import distance_order_pdf, paper_gap_mean, paper_sos_k2, weak_compositions


def db(x):
    return 10.0 ** (x / 10.0)


def cfg(K=8, rho_db=30.0, R_M=0.5, sigma2=0.01, csi="imperfect", eta=2.0, **orders):
    quad = dict(zip("cmnlq", DEFAULT_QUAD_ORDERS))
    quad.update(orders)
    return SystemConfig(
        K=K, D=5.0, eta=eta, rho=db(rho_db), R_M=R_M, sigma2_zeta=sigma2,
        csi_mode=csi,
        quad_orders=(quad["c"], quad["m"], quad["n"], quad["l"], quad["q"]),
    )


class TestWeakCompositions:
    def test_documented_count(self):
        assert sum(1 for _ in weak_compositions(7, 11)) == comb(17, 10) == 19448

    def test_enumeration_small(self):
        got = list(weak_compositions(2, 3))
        assert got == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        ]

    def test_lexicographic_and_unique(self):
        got = list(weak_compositions(4, 4))
        assert got == sorted(set(got))
        assert len(got) == comb(7, 3)

    @given(total=st.integers(0, 6), parts=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_count_and_sums(self, total, parts):
        got = list(weak_compositions(total, parts))
        assert len(got) == comb(total + parts - 1, parts - 1)
        assert all(len(t) == parts and sum(t) == total for t in got)
        assert all(all(v >= 0 for v in t) for t in got)

    def test_validation(self):
        with pytest.raises(ValueError):
            weak_compositions(-1, 3)
        with pytest.raises(ValueError):
            weak_compositions(3, 0)


# -- outage ----------------------------------------------------------------

def survival_oracle(config, threshold, estimate_based):
    """Single-user survival probability by adaptive quadrature."""
    def integrand(r):
        if estimate_based:
            mean = r ** -config.eta - config.sigma2_zeta
            return (2.0 * r / config.D ** 2) * exp(-threshold / (config.rho * mean))
        return (2.0 * r / config.D ** 2) * exp(-threshold * r ** config.eta / config.rho)

    return integrate.quad(integrand, 0.0, config.D, epsabs=1e-13, epsrel=1e-12)[0]


class TestOutage:
    def test_perfect_matches_quadrature_oracle(self):
        for K in (1, 4, 8):
            for rho_db in (10.0, 30.0):
                c = cfg(K=K, rho_db=rho_db, sigma2=0.0)
                s = survival_oracle(c, c.eps_multicast, estimate_based=False)
                assert abs(analytic.outage_noma_perfect(c) - (1.0 - s ** K)) < 1e-12

    def test_imperfect_matches_quadrature_oracle_at_high_order(self):
        # the Gauss-Legendre survival integral reaches roundoff long before
        # 3200 nodes; this order checks that a large rule stays accurate
        for K in (1, 8):
            for rho_db in (10.0, 30.0):
                c = cfg(K=K, rho_db=rho_db, c=3200)
                s = survival_oracle(c, c.eps_multicast, estimate_based=True)
                assert abs(analytic.outage_noma_imperfect(c) - (1.0 - s ** K)) < 1e-6

    def test_imperfect_reduces_to_perfect_without_estimation_error(self):
        for K in (1, 4):
            for rho_db in (10.0, 30.0):
                c = cfg(K=K, rho_db=rho_db, sigma2=0.0)
                assert abs(
                    analytic.outage_noma_imperfect(c) - analytic.outage_noma_perfect(c)
                ) < 1e-3

    def test_distance_ranked_matches_rank_marginal_oracle(self):
        # outage is "some user's gain below threshold", which ignores the
        # ranking; the average of the K rank marginals is the parent
        # distance density, so the oracle is 1 - (single-user survival)^K,
        # integrated adaptively instead of through the gamma reduction
        for K in (2, 5):
            c = cfg(K=K, rho_db=20.0, csi="sos")
            z = c.eps_multicast / c.rho

            def parent_pdf(x):
                return sum(distance_order_pdf(k, K, c.D, x) for k in range(1, K + 1)) / K

            s = integrate.quad(
                lambda x: parent_pdf(x) * exp(-z * x ** c.eta), 0.0, c.D, epsabs=1e-13,
            )[0]
            assert abs(analytic.outage_noma_sos(c) - (1.0 - s ** K)) < 1e-10

    def test_distance_ranked_near_exact_at_high_snr(self):
        # outage does not depend on the ranking, so the distance-ranked
        # form is the exact weakest-gain outage
        c = cfg(K=8, rho_db=30.0, csi="sos")
        exact = analytic.outage_noma_perfect(c.replace(sigma2_zeta=0.0))
        assert abs(analytic.outage_noma_sos(c) - exact) < 5e-3

    def test_oma_uses_doubled_rate_threshold(self):
        c_noma = cfg(R_M=0.5)
        c_half = cfg(R_M=1.0)
        # half-slot OMA at target 0.5 faces the same threshold as a full
        # slot at rate 1
        assert analytic.outage_oma_imperfect(c_noma) == analytic.outage_noma_imperfect(c_half)

    def test_oma_never_beats_noma(self):
        for csi, noma_fn, oma_fn in (
            ("imperfect", analytic.outage_noma_imperfect, analytic.outage_oma_imperfect),
            ("sos", analytic.outage_noma_sos, analytic.outage_oma_sos),
        ):
            for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
                for R_M in (0.5, 1.2):
                    c = cfg(rho_db=rho_db, R_M=R_M, csi=csi)
                    assert oma_fn(c) >= noma_fn(c)

    def test_monotone_in_snr_and_rate(self):
        for fn in (analytic.outage_noma_imperfect, analytic.outage_noma_sos):
            vals = [fn(cfg(rho_db=r)) for r in (0.0, 10.0, 20.0, 30.0, 40.0)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            vals = [fn(cfg(R_M=rm)) for rm in (0.25, 0.5, 1.0, 2.0)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_range_and_extremes(self):
        deep_fade = cfg(rho_db=-60.0)
        assert analytic.outage_noma_imperfect(deep_fade) == 1.0
        assert analytic.outage_noma_sos(deep_fade) == 1.0
        strong = cfg(rho_db=80.0)
        assert 0.0 <= analytic.outage_noma_imperfect(strong) < 1e-6

    def test_estimation_error_hurts(self):
        for rho_db in (10.0, 30.0):
            noisy = analytic.outage_noma_imperfect(cfg(rho_db=rho_db, sigma2=0.01))
            clean = analytic.outage_noma_imperfect(cfg(rho_db=rho_db, sigma2=0.0))
            assert noisy > clean

    def test_perfect_rejects_nonzero_error(self):
        with pytest.raises(ValueError):
            analytic.outage_noma_perfect(cfg(sigma2=0.01))
        with pytest.raises(ValueError):
            analytic.outage_oma_perfect(cfg(sigma2=0.01))

    def test_order_doubling_drift_small(self):
        # doubling the quadrature order moves outage by < 1e-3 absolute
        for R_M in (0.5, 1.2):
            for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
                for fn in (analytic.outage_noma_imperfect, analytic.outage_oma_imperfect):
                    v1 = fn(cfg(R_M=R_M, rho_db=rho_db, c=50))
                    v2 = fn(cfg(R_M=R_M, rho_db=rho_db, c=100))
                    assert abs(v1 - v2) < 1e-3
        # at other path-loss exponents, with and without estimation error
        # (half of D^-eta), it moves by less than 1e-9 relative
        for eta in (2.5, 3.0, 4.0):
            for sigma2 in (0.0, 0.5 * 5.0 ** -eta):
                for R_M in (0.5, 1.2):
                    for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
                        for fn in (analytic.outage_noma_imperfect,
                                   analytic.outage_oma_imperfect):
                            point = dict(R_M=R_M, rho_db=rho_db, sigma2=sigma2, eta=eta)
                            v1 = fn(cfg(c=50, **point))
                            v2 = fn(cfg(c=100, **point))
                            assert abs(v1 - v2) <= 1e-9 * v2


# -- secrecy, estimate-ranked ----------------------------------------------

def order_gap_oracle_k2(config, nu, half, z=0.0):
    """E[1{smaller est >= z} (h(larger est) - h(smaller est))] for two users
    by nested quadrature.

    h(x) = log2(nu + rho x); for an iid pair the gap integrand is
    2 f(x) (2F(x) - 1 - F(z)) h(x) on x >= z, with f, F the single-user
    estimate law.
    """
    def layer(x):
        # for large x the inner integrand lives in r < x^(-1/eta)
        return [min(config.D * 0.999, x ** (-1.0 / config.eta))] if x > 0 else []

    def pdf(x):
        def inner(r):
            mean = r ** -config.eta - config.sigma2_zeta
            return (2.0 * r / config.D ** 2) / mean * exp(-x / mean)
        return integrate.quad(inner, 0.0, config.D, epsabs=1e-12,
                              points=layer(x), limit=200)[0]

    def cdf(x):
        def inner(r):
            mean = r ** -config.eta - config.sigma2_zeta
            return (2.0 * r / config.D ** 2) * (1.0 - exp(-x / mean))
        return integrate.quad(inner, 0.0, config.D, epsabs=1e-12,
                              points=layer(x), limit=200)[0]

    cdf_z = cdf(z)

    def outer(x):
        return 2.0 * pdf(x) * (2.0 * cdf(x) - 1.0 - cdf_z) * log2(nu + config.rho * x)

    # the estimate law has a 1/x^2 tail, so truncating at 1e5 discards
    # about (2/D^2) log2(rho x)/x ~ 2e-5; the split keeps the
    # extrapolation away from inner-quadrature noise
    gap = integrate.quad(outer, z, 1.0, epsabs=1e-7, limit=300)[0]
    gap += integrate.quad(outer, 1.0, 1e5, epsabs=1e-7, limit=300)[0]
    return 0.5 * gap if half else gap


class TestSecrecyEstRanked:
    def test_two_user_case_against_oracle(self):
        # the outage indicator sits inside the mean, as in the surrogate;
        # the oracle's truncation at 1e5 leaves about 2e-5 relative
        c = cfg(K=2, rho_db=20.0)
        nu = 1.0 + c.eps_multicast
        ref = order_gap_oracle_k2(c, nu, half=False, z=c.eps_multicast / c.rho)
        got = analytic.secrecy_noma_imperfect(c)
        assert abs(got - ref) / ref < 1e-4

    def test_two_user_oma_against_oracle(self):
        c = cfg(K=2, rho_db=20.0)
        ref = order_gap_oracle_k2(c, 1.0, half=True)
        got = analytic.secrecy_oma_imperfect(c)
        assert abs(got - ref) / ref < 3e-2

    def test_regression_values(self):
        # pinned from this implementation to guard refactors; a 1e6-trial
        # surrogate Monte Carlo (seed 1234567, stream 900) gives
        # 1.46444 +- 0.00292 (NOMA) and 0.771360 +- 0.00146 (OMA) here
        assert analytic.secrecy_noma_imperfect(cfg()) == pytest.approx(
            1.4637754563653012, rel=1e-9
        )
        assert analytic.secrecy_oma_imperfect(cfg()) == pytest.approx(
            0.7709117620120677, rel=1e-9
        )

    def test_oma_ignores_multicast_target(self):
        assert analytic.secrecy_oma_imperfect(cfg(R_M=0.3)) == analytic.secrecy_oma_imperfect(
            cfg(R_M=2.0)
        )

    def test_nonnegative_over_snr(self):
        for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            assert analytic.secrecy_noma_imperfect(cfg(rho_db=rho_db)) >= -1e-12

    def test_noma_beats_oma_at_high_snr_only(self):
        assert analytic.secrecy_noma_imperfect(cfg(rho_db=40.0)) > analytic.secrecy_oma_imperfect(
            cfg(rho_db=40.0)
        )
        assert analytic.secrecy_noma_imperfect(cfg(rho_db=0.0)) < analytic.secrecy_oma_imperfect(
            cfg(rho_db=0.0)
        )

    def test_order_doubling_converged(self):
        # the default (m, n) are chosen so that this holds on every point
        # of the default snr, sigma2 and k sweeps
        s = Settings()
        points = [system_config(s, rho_db=float(r)) for r in s.snr_db]
        points += [system_config(s, sigma2=float(v)) for v in s.sigma2_values]
        points += [system_config(s, k=int(k)) for k in s.k_values]
        for c in points:
            m, n = c.quad_orders[1:3]
            doubled = c.replace(quad_orders=(c.quad_orders[0], 2 * m, 2 * n) + c.quad_orders[3:])
            for fn in (analytic.secrecy_noma_imperfect, analytic.secrecy_oma_imperfect):
                v1, v2 = fn(c), fn(doubled)
                assert abs(v2 - v1) < 1e-9 * abs(v2)

    def test_large_k_matches_surrogate_mc(self):
        c = cfg(K=40)
        for scheme, fn in (("noma", analytic.secrecy_noma_imperfect),
                           ("oma", analytic.secrecy_oma_imperfect)):
            est = montecarlo.simulate(c, scheme, montecarlo.METRIC_SECRECY_SURROGATE,
                                      200_000, 1234567, stream=40)
            assert abs(fn(c) - est.value) <= 3.0 * est.half_width_95

    def test_paper_form_converges_to_product_not_to_evaluator(self):
        # the paper multiplies the mean gap by the non-outage probability,
        # i.e. it takes the outage event as independent of the gap; its
        # Chebyshev sums converge like order^-2 to that product, which sits
        # 11% below the indicator-inside mean at K = 2, 10 dB
        for K, rho_db, orders in ((2, 10.0, 4), (2, 30.0, 4), (3, 30.0, 3)):
            c = cfg(K=K, rho_db=rho_db)
            eps = c.eps_multicast
            p_ok = 1.0 - analytic.outage_noma_imperfect(c)
            product = p_ok * analytic._secrecy_est_ranked(c, 0.0, (1.0 + eps) / c.rho, 1.0)
            oma = analytic.secrecy_oma_imperfect(c)
            errs, oma_errs = [], []
            for i in range(orders):
                paper = cfg(K=K, rho_db=rho_db, m=5 << i, n=10 << i)
                errs.append(abs(p_ok * paper_gap_mean(paper, oma=False) / product - 1.0))
                oma_errs.append(abs(paper_gap_mean(paper, oma=True) / oma - 1.0))
            for e in (errs, oma_errs):
                assert e[0] < 2.5e-2
                assert all(b < 0.3 * a for a, b in zip(e, e[1:]))
            if rho_db == 10.0:
                # the paper form ends far closer to the product than the
                # product is to the evaluator
                assert abs(analytic.secrecy_noma_imperfect(c) / product - 1.0) > 0.1
                assert errs[-1] < 1e-3

    def test_needs_two_users(self):
        with pytest.raises(ValueError):
            analytic.secrecy_noma_imperfect(cfg(K=1))


# -- secrecy, distance-ranked ----------------------------------------------

def sos_cfg(K=2, rho_db=30.0, eta=2.0, **kw):
    return cfg(K=K, rho_db=rho_db, csi="sos", **kw).replace(eta=eta)


class TestSecrecyDistanceRanked:
    def test_regression_values(self):
        # pinned from this implementation to guard refactors; a 2e6-trial
        # surrogate Monte Carlo (seed 1234567, stream 901) gives
        # 1.84995 +- 0.00288 (NOMA) and 0.957734 +- 0.00148 (OMA) here
        assert analytic.secrecy_noma_sos(sos_cfg()) == pytest.approx(
            1.8472314903615064, rel=1e-9
        )
        assert analytic.secrecy_oma_sos(sos_cfg()) == pytest.approx(
            0.9562406953430199, rel=1e-9
        )

    def test_requires_two_users(self):
        for fn in (analytic.secrecy_noma_sos, analytic.secrecy_oma_sos):
            with pytest.raises(ValueError, match="needs K >= 2"):
                fn(sos_cfg(K=1))
            for K in (3, 8, 64):
                assert fn(sos_cfg(K=K)) > 0.0

    def test_matches_two_user_paper_form(self):
        # the paper's closed-form fading expectation over the ordered
        # distances, run at (800, 80) nodes, where it has converged
        for rho_db in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0):
            ref_cfg = sos_cfg(rho_db=rho_db, l=800, q=80)
            for oma, fn in ((False, analytic.secrecy_noma_sos), (True, analytic.secrecy_oma_sos)):
                ref = paper_sos_k2(ref_cfg, oma=oma)
                assert abs(fn(sos_cfg(rho_db=rho_db)) - ref) < 1e-6 * ref

    @pytest.mark.parametrize("K", [3, 8])
    @pytest.mark.parametrize("eta", [2.0, 3.0])
    def test_matches_surrogate_mc(self, K, eta):
        pairs = [("noma", montecarlo.METRIC_SECRECY_SURROGATE),
                 ("oma", montecarlo.METRIC_SECRECY_SURROGATE)]
        for rho_db in (10.0, 30.0):
            c = sos_cfg(K=K, rho_db=rho_db, eta=eta)
            many = montecarlo.simulate_many(c, 200_000, 1234567, stream=910 + K + int(rho_db))
            for pair, fn in zip(pairs, (analytic.secrecy_noma_sos, analytic.secrecy_oma_sos)):
                est = many[pair]
                assert abs(fn(c) - est.value) <= 3.0 * est.half_width_95

    def test_ignores_estimation_error(self):
        # statistical CSI has no estimates, so sigma2_zeta is never read,
        # even where it is above D^-eta
        for eta in (2.0, 3.0):
            for fn in (analytic.secrecy_noma_sos, analytic.secrecy_oma_sos,
                       analytic.outage_noma_sos, analytic.outage_oma_sos):
                clean = fn(sos_cfg(K=8, eta=eta, sigma2=0.0))
                assert fn(sos_cfg(K=8, eta=eta, sigma2=0.01)) == clean

    def test_positive_on_supported_grid(self):
        # the surrogate's expectation is nonnegative at every SNR; this
        # checks that it stays strictly positive on the high-SNR grid
        for K in (2, 8):
            for rho_db in (20.0, 25.0, 30.0, 35.0, 40.0):
                for R_M in (0.3, 0.6, 0.9, 1.2):
                    assert analytic.secrecy_noma_sos(sos_cfg(K=K, rho_db=rho_db, R_M=R_M)) > 0.0

    def test_oma_ignores_multicast_target(self):
        for K in (2, 8):
            a = analytic.secrecy_oma_sos(sos_cfg(K=K, R_M=0.3))
            assert analytic.secrecy_oma_sos(sos_cfg(K=K, R_M=1.2)) == a

    def test_noma_beats_oma_at_high_snr_only(self):
        for K in (2, 8):
            hi, lo = sos_cfg(K=K, rho_db=40.0), sos_cfg(K=K, rho_db=0.0)
            assert analytic.secrecy_noma_sos(hi) > analytic.secrecy_oma_sos(hi)
            assert analytic.secrecy_noma_sos(lo) < analytic.secrecy_oma_sos(lo)

    def test_estimate_ranking_beats_distance_ranking_at_high_snr(self):
        # per-realization estimates pick the truly strongest user far more often
        for K in (2, 8):
            imp = analytic.secrecy_noma_imperfect(cfg(K=K, rho_db=40.0, R_M=1.2))
            assert imp > analytic.secrecy_noma_sos(sos_cfg(K=K, rho_db=40.0, R_M=1.2))

    def test_order_doubling_bounded_and_shrinking(self):
        # the mapped nearest-distance axis keeps the drift small at every
        # path-loss exponent, including the non-even ones
        for eta in (2.0, 2.5, 3.0, 4.0):
            for K in (2, 8):
                for rho_db in (0.0, 30.0):
                    for fn in (analytic.secrecy_noma_sos, analytic.secrecy_oma_sos):
                        v1, v2, v4 = (fn(sos_cfg(K=K, rho_db=rho_db, eta=eta, l=24 * k, q=48 * k))
                                      for k in (1, 2, 4))
                        d2 = abs(v2 - v1) / abs(v2)
                        d4 = abs(v4 - v2) / abs(v4)
                        assert d2 < 1e-4
                        assert d4 < 1e-12 or d4 < 0.6 * d2

    def test_order_doubling_converged(self):
        # the default (l, q) are chosen so that this holds on the sos snr
        # sweeps at K = 8 (the default) and K = 2 and on the default k sweep
        s = Settings()
        s.csi = "sos"
        points = [system_config(s, rho_db=float(r), k=k) for r in s.snr_db for k in (2, 8)]
        points += [system_config(s, k=int(k)) for k in s.k_values]
        for c in points:
            l, q = c.quad_orders[3:]
            doubled = c.replace(quad_orders=c.quad_orders[:3] + (2 * l, 2 * q))
            for fn in (analytic.secrecy_noma_sos, analytic.secrecy_oma_sos):
                v1, v2 = fn(c), fn(doubled)
                assert abs(v2 - v1) < 1e-9 * abs(v2)


# -- secrecy at large K ------------------------------------------------------

class TestSecrecyLargeK:
    """The t map's scale has a floor, m_edge K^(eta/2) / 100, so that its
    nodes reach the order statistic's peak at any K the CLI accepts."""

    # (NOMA, OMA) at eta = 2, sigma2 = 0.01, before the floor existed
    PINNED = {
        ("imperfect", 2, 0.0): ("0x1.bb2c2d28d9efcp-8", "0x1.2900f27fe096bp-3"),
        ("imperfect", 2, 10.0): ("0x1.52667447b934bp-2", "0x1.0707107542b2cp-1"),
        ("imperfect", 2, 40.0): ("0x1.4bbe7073c2ec3p+1", "0x1.4e18b04214494p+0"),
        ("imperfect", 8, 0.0): ("0x1.8fbc0bd908300p-28", "0x1.213332d2f2fffp-2"),
        ("imperfect", 8, 30.0): ("0x1.76b9fd01c6c50p+0", "0x1.8ab4f24be31b1p-1"),
        ("imperfect", 8, 40.0): ("0x1.89dd8ea4dcd41p+0", "0x1.8bebe0e5e3a2dp-1"),
        ("sos", 2, 0.0): ("0x1.b04fa381c67d2p-8", "0x1.1222bb485c3e8p-3"),
        ("sos", 2, 30.0): ("0x1.d8e429b73e776p+0", "0x1.e998616334841p-1"),
        ("sos", 8, 10.0): ("0x1.6470a77019c0dp-6", "0x1.deedc59dca082p-2"),
        ("sos", 8, 40.0): ("0x1.20d38ac3c8c6ep+0", "0x1.220e6a0c13918p-1"),
    }
    EVALUATORS = {
        "imperfect": (analytic.secrecy_noma_imperfect, analytic.secrecy_oma_imperfect),
        "sos": (analytic.secrecy_noma_sos, analytic.secrecy_oma_sos),
    }

    @staticmethod
    def point(csi, K, rho_db, eta=2.0):
        if csi == "sos":
            return sos_cfg(K=K, rho_db=rho_db, eta=eta)
        return cfg(K=K, rho_db=rho_db, eta=eta, sigma2=0.01 if eta == 2.0 else 0.005)

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_small_k_keeps_its_bits(self, key):
        csi, K, rho_db = key
        c = self.point(csi, K, rho_db)
        got = tuple(fn(c).hex() for fn in self.EVALUATORS[csi])
        assert got == self.PINNED[key]

    @pytest.mark.parametrize("K", [1000, 4000, 20_000, 80_000])
    @pytest.mark.parametrize("csi", ["imperfect", "sos"])
    def test_order_doubling_converged(self, csi, K):
        # without the floor the imperfect OMA value drifted 4.7e-3 at
        # K = 4000 and 16x its value at K = 80000 (30 dB)
        oma = self.EVALUATORS[csi][1]
        for eta in (2.0, 3.0):
            for rho_db in (0.0, 10.0, 30.0, 40.0):
                c = self.point(csi, K, rho_db, eta)
                doubled = c.replace(quad_orders=tuple(2 * o for o in c.quad_orders))
                v1, v2 = oma(c), oma(doubled)
                assert abs(v2 - v1) <= 1e-6 * abs(v2)

    @pytest.mark.parametrize("csi", ["imperfect", "sos"])
    def test_matches_high_order_reference_at_largest_k(self, csi):
        # the OMA value approaches its K -> inf limit; before the floor the
        # imperfect one read 0.0378 at 30 dB against a reference of 0.7214
        for rho_db in (10.0, 30.0, 40.0):
            c = self.point(csi, 80_000, rho_db)
            ref = c.replace(quad_orders=(50, 800, 100, 100, 800))
            for fn in self.EVALUATORS[csi]:
                v, r = fn(c), fn(ref)
                assert abs(v - r) <= 1e-6 * abs(r)
