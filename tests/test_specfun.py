"""Quadrature and special functions against independent oracles.

Oracles: mpmath at 60 digits for the exponential integral and the
incomplete gamma recurrence, a Newton step in exact rational arithmetic
for Gauss-Legendre rules, scipy adaptive quadrature for integral
cross-checks. Nothing here trusts the implementation under test.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from noma_perf import specfun
from noma_perf.specfun import (
    QuadratureRule,
    _leggauss,
    chebyshev_rule,
    expint_e1_scaled,
    expint_ei,
    gauss_legendre_rule,
    lower_incomplete_gamma,
)

mp.mp.dps = 60


def ei_series_oracle(x: float) -> float:
    """Ei(x) for x < 0 by the defining power series in 60-digit arithmetic."""
    xm = mp.mpf(x)
    total = mp.euler + mp.log(abs(xm))
    term = mp.mpf(1)
    for k in range(1, 500):
        term = term * xm / k
        inc = term / k
        total += inc
        if abs(inc) < mp.mpf(10) ** (-55) * max(1, abs(total)):
            break
    return float(total)


def legendre_reference(n):
    """Nonnegative Gauss-Legendre nodes of order n, ascending, and their
    weights, as exact fractions good to about 1e-25.

    Each of numpy's `leggauss` nodes, good to about 1e-16, takes one Newton
    step on P_n, which leaves it within about 1e-27 of its root; the weight
    2 (1 - x^2) / (n (P_{n-1}(x) - x P_n(x)))^2 = 2 / ((1 - x^2) P_n'(x)^2)
    is then evaluated there. P_n runs its three-term recurrence in integers
    with 160 fraction bits, which rounds by 2^-160 a step.
    """
    from numpy.polynomial.legendre import leggauss

    bits = 160
    one = 1 << bits

    def legendre(x):
        # (P_{n-1}, P_n) at a fraction x whose denominator divides 2^160
        xi = int(x * one)
        p0, p1 = one, xi
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * (xi * p1 >> bits) - (j - 1) * p0) // j
        return Fraction(p0, one), Fraction(p1, one)

    nodes, weights = [], []
    for start in leggauss(n)[0][n // 2:]:
        x = Fraction(float(start))
        prev, p = legendre(x)
        step = p * (x * x - 1) / (n * (x * p - prev))
        assert abs(step) < 1e-14  # the start was already next to its root
        x = Fraction(round((x - step) * one), one)
        prev, p = legendre(x)
        nodes.append(x)
        weights.append(2 * (1 - x * x) / (n * (prev - x * p)) ** 2)
    return nodes, weights


class TestChebyshevRule:
    def test_basic_fields(self):
        rule = chebyshev_rule(7, 3.0)
        assert rule.order == 7
        assert rule.upper_limit == 3.0
        assert rule.nodes.shape == (7,)
        assert rule.weights.shape == (7,)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 3.0)
        assert np.all(rule.weights > 0)
        # nodes come out in decreasing order for this construction
        assert np.all(np.diff(rule.nodes) < 0)

    def test_linear_integral(self):
        # integral of x over [0, 5] is 12.5
        rule = chebyshev_rule(50, 5.0)
        approx = rule.integrate(lambda x: x)
        assert abs(approx - 12.5) / 12.5 < 1e-3

    def test_against_adaptive_quadrature(self):
        rule = chebyshev_rule(200, 4.0)
        for f in (np.exp, lambda x: np.exp(-x) * x ** 2, lambda x: 1.0 / (1.0 + x)):
            ref = integrate.quad(f, 0.0, 4.0, epsabs=1e-13)[0]
            assert abs(rule.integrate(f) - ref) / abs(ref) < 1e-4

    def test_error_decreases_with_order(self):
        ref = integrate.quad(np.exp, 0.0, 2.0, epsabs=1e-13)[0]
        errs = [
            abs(chebyshev_rule(order, 2.0).integrate(np.exp) - ref)
            for order in (25, 50, 100, 200)
        ]
        assert errs[0] > errs[1] > errs[2] > errs[3]

    @given(
        upper=st.floats(min_value=0.1, max_value=100.0),
        slope=st.floats(min_value=-5.0, max_value=5.0),
        offset=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_property(self, upper, slope, offset):
        rule = chebyshev_rule(64, upper)
        ref = offset * upper + slope * upper ** 2 / 2.0
        approx = rule.integrate(lambda x: offset + slope * x)
        assert abs(approx - ref) <= 1e-3 * (abs(ref) + 1.0)

    def test_validation(self):
        # a bool is not an order, and an infinite limit gave infinite nodes
        for order, upper in ((0, 1.0), (True, 1.0), (10, 0.0), (10, -2.0), (10, math.inf)):
            with pytest.raises(ValueError):
                chebyshev_rule(order, upper)


class TestGaussLegendreRule:
    def test_basic_fields(self):
        rule = gauss_legendre_rule(7, 3.0)
        assert (rule.order, rule.upper_limit) == (7, 3.0)
        assert rule.nodes.shape == rule.weights.shape == (7,)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 3.0)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(3.0, rel=1e-14)

    def test_exact_for_polynomials_below_twice_the_order(self):
        # N nodes integrate x^j exactly for j <= 2N - 1
        rule = gauss_legendre_rule(6, 2.0)
        for j in range(12):
            ref = 2.0 ** (j + 1) / (j + 1)
            assert abs(rule.integrate(lambda x: x ** j) - ref) <= 1e-13 * ref

    def test_spectral_convergence_on_smooth_integrand(self):
        ref = integrate.quad(np.exp, 0.0, 2.0, epsabs=1e-14)[0]
        assert abs(gauss_legendre_rule(10, 2.0).integrate(np.exp) - ref) < 1e-13
        # the cancelled-weight Chebyshev rule at 20x the nodes is far worse
        assert abs(chebyshev_rule(200, 2.0).integrate(np.exp) - ref) > 1e-6

    def test_memoised_and_read_only(self):
        rule = gauss_legendre_rule(12, 4.0)
        assert gauss_legendre_rule(12, 4.0) is rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_validation(self):
        # the memo holds the order-1 rule, which must not answer for True (== 1)
        gauss_legendre_rule(1, 1.0)
        for order, upper in ((0, 1.0), (2.5, 1.0), (True, 1.0), (10, 0.0), (10, -2.0),
                             (10, math.inf)):
            with pytest.raises(ValueError):
                gauss_legendre_rule(order, upper)

    def test_nodes_and_weights_match_an_exact_reference(self):
        # nodes within 2.3e-16 (about an ulp of 1), weights within
        # max(3e-14, 4e-17 n^2) relative; the nonnegative half only, as
        # mirroring is checked below. numpy's eigensolver rule is off by
        # 9.6e-13 at n = 50 and 2.1e-11 at n = 256
        for order in (*range(1, 65), 100, 256):
            nodes, weights = (a[order // 2:] for a in _leggauss(order))
            ref_nodes, ref_weights = legendre_reference(order)
            bound = max(3e-14, 4e-17 * order ** 2)
            for x, w, rx, rw in zip(nodes, weights, ref_nodes, ref_weights, strict=True):
                assert abs(Fraction(float(x)) - rx) <= 2.3e-16, order
                assert abs(Fraction(float(w)) / rw - 1) <= bound, order

    def test_exact_on_monomials_up_to_order_3200(self):
        # integral_0^1 x^j = 1/(j + 1) for every j < 2N
        for order in (1, 2, 3, 17, 50, 101, 400, 800, 3200):
            rule = gauss_legendre_rule(order, 1.0)
            power = np.ones(order)
            for j in range(2 * order):
                approx = float(rule.weights @ power)
                assert abs(approx * (j + 1) - 1.0) <= 5e-16 * order, (order, j)
                power *= rule.nodes

    def test_mirrored_exactly_with_a_positive_zero_middle(self):
        for order in (*range(1, 40), 255, 256, 801):
            nodes, weights = _leggauss(order)
            assert nodes.shape == weights.shape == (order,)
            assert np.all(np.diff(nodes) > 0)
            assert np.all(nodes == -nodes[::-1]) and np.all(weights == weights[::-1])
            if order % 2:
                middle = nodes[order // 2]
                assert middle == 0.0 and math.copysign(1.0, middle) == 1.0

    def test_unconverged_nodes_raise(self, monkeypatch):
        monkeypatch.setattr(specfun, "_NEWTON_TOL", -1.0)
        with pytest.raises(ArithmeticError):
            _leggauss(10)


class TestLowerIncompleteGamma:
    def test_against_mpmath_grid(self):
        for a in (1.0 / 3.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0):
            for b in (1e-4, 0.1, 1.0, 8.0, 33.0):
                ref = float(mp.gammainc(mp.mpf(a), 0, mp.mpf(b)))
                assert abs(lower_incomplete_gamma(a, b) - ref) < 1e-12 * max(1.0, ref)

    def test_against_quadrature(self):
        for a, b in ((0.5, 2.0), (1.0, 7.0), (4.0, 4.0), (2.0, 30.0)):
            ref = integrate.quad(
                lambda t: t ** (a - 1) * math.exp(-t), 0.0, b, epsabs=1e-13
            )[0]
            assert abs(lower_incomplete_gamma(a, b) - ref) < 1e-10

    def test_limits(self):
        assert lower_incomplete_gamma(2.5, 0.0) == 0.0
        # gamma(a, inf-ish) -> Gamma(a)
        assert abs(lower_incomplete_gamma(3.0, 200.0) - math.gamma(3.0)) < 1e-12

    @given(
        a=st.floats(min_value=0.1, max_value=10.0),
        b=st.floats(min_value=1e-3, max_value=40.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_recurrence_property(self, a, b):
        # gamma(a+1, b) = a gamma(a, b) - b^a e^(-b)
        lhs = lower_incomplete_gamma(a + 1.0, b)
        rhs = a * lower_incomplete_gamma(a, b) - b ** a * math.exp(-b)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))

    @given(
        a=st.floats(min_value=0.1, max_value=8.0),
        b1=st.floats(min_value=1e-3, max_value=30.0),
        b2=st.floats(min_value=1e-3, max_value=30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_b(self, a, b1, b2):
        lo, hi = sorted((b1, b2))
        assert lower_incomplete_gamma(a, lo) <= lower_incomplete_gamma(a, hi) + 1e-14

    def test_saturated_and_infinite_thresholds(self):
        # an overflowed threshold is inf, and a huge one leaves an upper
        # tail below the float range: both give Gamma(a) without a
        # floating-point warning, and an array keeps its shape; b = 0 gives
        # +0.0, and a scalar b a float (a = 1 takes the closed form)
        with np.errstate(all="raise"):
            for a in (1.0 / 3.0, 1.0, 2.0):
                assert lower_incomplete_gamma(a, math.inf) == math.gamma(a)
                assert lower_incomplete_gamma(a, 1e300) == math.gamma(a)
                zero = lower_incomplete_gamma(a, 0.0)
                assert type(zero) is float and math.copysign(1.0, zero) == 1.0 and zero == 0.0
                got = lower_incomplete_gamma(a, np.array([[0.0, 2.0], [1e300, math.inf]]))
                assert got.shape == (2, 2) and np.all(got[1] == math.gamma(a))
                assert got[0, 0] == 0.0 and math.copysign(1.0, got[0, 0]) == 1.0
                assert got[0, 1] == lower_incomplete_gamma(a, 2.0)

    def test_closed_form_at_one_against_mpmath(self):
        # at a = 1 (eta = 2) gamma(1, b) = 1 - e^-b is taken in closed form,
        # which keeps full relative precision down to tiny b
        b = np.logspace(-12.0, math.log10(700.0), 200)
        got = lower_incomplete_gamma(1.0, b)
        ref = np.array([float(-mp.expm1(-mp.mpf(float(v)))) for v in b])
        assert np.all(np.abs(got - ref) <= 2.3e-16 * ref)
        for v, r in zip(b[::40], ref[::40]):
            assert abs(lower_incomplete_gamma(1.0, float(v)) - r) <= 2.3e-16 * r

    def test_continuous_across_closed_form(self):
        # the series and continued fraction just off a = 1 meet the closed
        # form; d ln gamma(a, b) / da = ln b - 1 near b = 0, so a step of
        # 1e-9 in a alone moves the value by 7.9e-9 at b = 1e-3 and by more
        # than 1e-8 below b = 1e-4
        b = np.logspace(-3.0, math.log10(700.0), 60)
        at_one = lower_incomplete_gamma(1.0, b)
        for a in (1.0 - 1e-9, 1.0 + 1e-9):
            assert np.all(np.abs(lower_incomplete_gamma(a, b) - at_one) <= 1e-8 * at_one)

    def test_vector_matches_scalar(self):
        # early-exit iteration counts depend on the batch, so agreement is
        # to a couple of ulps rather than bitwise
        b = np.array([1e-4, 0.5, 3.0, 12.0, 33.0])
        vec = lower_incomplete_gamma(2.5, b)
        scal = np.array([lower_incomplete_gamma(2.5, float(v)) for v in b])
        assert np.allclose(vec, scal, rtol=1e-14, atol=1e-300)

    def test_validation(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, -0.5)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, math.nan)


class TestExpintEi:
    def test_against_series_oracle(self):
        grid = -np.logspace(np.log10(1e-6), np.log10(50.0), 45)
        for x in grid:
            ref = ei_series_oracle(float(x))
            assert abs(expint_ei(float(x)) - ref) < 1e-12

    def test_against_mpmath(self):
        for x in (-0.01, -0.9999, -1.0001, -3.9, -4.1, -20.0, -49.5):
            assert abs(expint_ei(x) - float(mp.ei(x))) < 1e-13

    def test_vector_matches_scalar(self):
        x = -np.array([1e-5, 0.3, 1.0, 2.5, 7.0, 45.0])
        vec = expint_ei(x)
        scal = np.array([expint_ei(float(v)) for v in x])
        assert np.allclose(vec, scal, rtol=1e-14, atol=1e-300)

    def test_validation(self):
        for bad in (0.0, 1.0, np.array([-1.0, 0.5])):
            with pytest.raises(ValueError):
                expint_ei(bad)


class TestExpintE1Scaled:
    def test_against_mpmath(self):
        for z in (1e-6, 0.5, 1.0, 2.0, 3.9999, 4.0001, 10.0, 50.0, 700.0, 3700.0):
            ref = float(mp.exp(z) * mp.e1(z))
            assert abs(expint_e1_scaled(z) - ref) <= 1e-12 * max(1.0, ref)

    def test_consistent_with_ei(self):
        # e^z E1(z) = -e^z Ei(-z)
        z = np.array([0.01, 0.5, 2.0, 5.0, 20.0])
        lhs = expint_e1_scaled(z)
        rhs = -np.exp(z) * expint_ei(-z)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)

    def test_large_argument_asymptote(self):
        # z e^z E1(z) -> 1 from below
        for z in (500.0, 3700.0, 50000.0):
            v = z * expint_e1_scaled(z)
            assert 0.99 < v < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expint_e1_scaled(0.0)
        with pytest.raises(ValueError):
            expint_e1_scaled(-3.0)


def test_quadrature_rule_is_plain_data():
    rule = chebyshev_rule(5, 1.0)
    assert isinstance(rule, QuadratureRule)
    clone = QuadratureRule(rule.order, rule.upper_limit, rule.nodes.copy(), rule.weights.copy())
    assert clone.integrate(lambda x: x ** 2) == rule.integrate(lambda x: x ** 2)
