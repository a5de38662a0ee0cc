"""Special functions and quadrature rules shared by the analytic evaluators.

Two rules on [0, U] are provided: Gauss-Legendre, which converges
spectrally on smooth integrands, and first-kind Gauss-Chebyshev with the
Chebyshev weight cancelled by |sin|, which leaves a kink at the ends and
converges like order^-2. The special functions are pure and accept
scalars or numpy arrays elementwise.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_MAX_ITER = 300
_EPS = 1e-15  # series termination
_CF_EPS = 4.5e-16  # continued fractions stall at the roundoff floor below ~2 ulp

# series/continued-fraction crossover for E1; chosen so both branches
# converge in ~30 terms (the fraction is slow near 1, the series loses
# log10(e^z) ~ 1.7 digits of cancellation at 4, still well inside target)
_E1_SERIES_MAX = 4.0


class QuadratureRule(NamedTuple):
    """Quadrature rule mapped to [0, upper_limit].

    Weights absorb the substitution Jacobian, so
    ``sum(weights * f(nodes))`` approximates ``integral_0^U f(x) dx``
    directly.
    """
    order: int
    upper_limit: float
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.nodes)))


def _check_rule_args(order, upper_limit):
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("quadrature order must be a positive integer")
    if not upper_limit > 0:
        raise ValueError("quadrature upper_limit must be positive")


def chebyshev_rule(order: int, upper_limit: float) -> QuadratureRule:
    """Build the Chebyshev rule of a given order on [0, upper_limit].

    Nodes are x_i = (U/2)(1 + cos((2i-1)pi/(2N))) and the weight of node i
    is (pi*U)/(2N) * |sin((2i-1)pi/(2N))|.
    """
    _check_rule_args(order, upper_limit)
    i = np.arange(1, order + 1)
    ang = (2 * i - 1) * np.pi / (2 * order)
    nodes = (upper_limit / 2.0) * (1.0 + np.cos(ang))
    weights = (np.pi * upper_limit / (2 * order)) * np.abs(np.sin(ang))
    return QuadratureRule(int(order), float(upper_limit), nodes, weights)


def _legendre_series(x, c):
    """sum_k c[k] P_k(x) by Clenshaw recursion, step for step as numpy's
    `legval`, so the bits are the same; c[k] may broadcast against x."""
    c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0)
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _leggauss(n):
    """Gauss-Legendre (nodes, weights) of order n on [-1, 1], computed step
    for step as `numpy.polynomial.legendre.leggauss`, bit for bit, without
    importing `numpy.polynomial` (about 4 ms of every start-up).

    The nodes are the eigenvalues of P_n's symmetric scaled companion
    matrix, refined by one Newton step; the weights are 1 / (P_n' P_{n-1})
    at the nodes, symmetrised and normalised to sum to 2.
    """
    k = np.arange(n)
    scl = 1.0 / np.sqrt(2 * k + 1)
    mat = np.zeros((n, n))
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    mat.reshape(-1)[1::n + 1] = off
    mat.reshape(-1)[n::n + 1] = off
    x = np.linalg.eigvalsh(mat)
    # P_n' (sum of (2k + 1) P_k over k = n - 1, n - 3, ..., padded by a zero
    # that leaves its bits alone) and P_n in one Clenshaw pass
    c = np.zeros((n + 1, 2, 1))
    c[:n, 0, 0] = (2.0 * k + 1) * ((n - 1 - k) % 2 == 0)
    c[n, 1, 0] = 1.0
    df, p = _legendre_series(x, c)
    x -= p / df
    fm = _legendre_series(x, c[1:, 1, 0])  # P_{n-1}
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


@functools.lru_cache(maxsize=64)
def gauss_legendre_rule(order: int, upper_limit: float) -> QuadratureRule:
    """Build the Gauss-Legendre rule of a given order on [0, upper_limit].

    Exact for polynomials of degree below 2N. Rules are memoised per
    (order, upper_limit) because high orders are slow to build: on a 2-core
    Xeon, 0.05 s at N = 800, and at N = 3200 about 2 s with two BLAS
    threads and 3-4 s with one, nearly all in the dense eigensolver. Every
    caller shares one rule, so its arrays are read-only.
    """
    _check_rule_args(order, upper_limit)
    t, w = _leggauss(int(order))
    nodes = (upper_limit / 2.0) * (1.0 + t)
    weights = (upper_limit / 2.0) * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(int(order), float(upper_limit), nodes, weights)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _gamma_series(a, b):
    # regularized P(a,b) by power series, for b < a+1
    total = np.full_like(b, 1.0 / a)
    term = np.full_like(b, 1.0 / a)
    denom = np.full_like(b, a)
    for _ in range(_MAX_ITER):
        denom += 1.0
        term = term * b / denom
        total += term
        if np.all(np.abs(term) < np.abs(total) * _EPS):
            break
    return total * np.exp(-b + a * np.log(np.where(b > 0, b, 1.0)) - math.lgamma(a))


def _gamma_cf_scaled(a, b):
    # e^b b^(-a) Gamma(a, b) by modified Lentz continued fraction, for
    # b >= a+1; at a = 0 this is e^b E1(b)
    tiny = 1e-300
    f = b + 1.0 - a
    c = np.full_like(b, 1e300)
    d = 1.0 / f
    h = d.copy()
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        f = f + 2.0
        d = an * d + f
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = f + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < _CF_EPS):
            break
    return h


def lower_incomplete_gamma(a: float, b):
    """gamma(a, b) = integral_0^b t^(a-1) e^(-t) dt, for a > 0 and b >= 0.

    Series expansion below b = a+1, continued fraction on the complement
    above it. Accuracy is near machine precision in the relative sense.
    """
    if not a > 0:
        raise ValueError("lower_incomplete_gamma requires a > 0")
    b_arr, scalar = _as_array(b)
    if np.any(b_arr < 0):
        raise ValueError("lower_incomplete_gamma requires b >= 0")
    p = np.empty_like(b_arr)
    lo = b_arr < a + 1.0
    if np.any(lo):
        p[lo] = _gamma_series(a, b_arr[lo])
    if np.any(~lo):
        hi = b_arr[~lo]
        p[~lo] = 1.0 - _gamma_cf_scaled(a, hi) * np.exp(-hi + a * np.log(hi) - math.lgamma(a))
    out = p * math.gamma(a)
    out = np.where(b_arr == 0.0, 0.0, out)
    return float(out) if scalar else out


def _e1_series(z):
    # E1(z) = -gamma - ln z + sum_{k>=1} (-1)^(k+1) z^k / (k k!)
    total = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(1, 80):
        term = term * (-z) / k
        total -= term / k
        if np.all(np.abs(term) < 1e-18):
            break
    return -EULER_GAMMA - np.log(z) + total


def _e1(z, scaled):
    # E1(z), or e^z E1(z) if scaled, for an array z > 0: series up to
    # _E1_SERIES_MAX, the continued fraction of Gamma(0, z) above it
    out = np.empty_like(z)
    lo = z <= _E1_SERIES_MAX
    if np.any(lo):
        series = _e1_series(z[lo])
        out[lo] = np.exp(z[lo]) * series if scaled else series
    if np.any(~lo):
        frac = _gamma_cf_scaled(0.0, z[~lo])
        out[~lo] = frac if scaled else np.exp(-z[~lo]) * frac
    return out


def expint_e1_scaled(z):
    """exp(z) * E1(z) for z > 0, safe for very large z.

    Needed wherever a closed form pairs exp(z) with Ei(-z): the product is
    well scaled even when exp(z) alone overflows.
    """
    z_arr, scalar = _as_array(z)
    if np.any(z_arr <= 0):
        raise ValueError("expint_e1_scaled requires z > 0")
    out = _e1(z_arr, scaled=True)
    return float(out) if scalar else out


def expint_ei(x):
    """Exponential integral Ei(x) for x < 0.

    Computed as -E1(-x): convergent series for |x| <= 4, continued
    fraction beyond.
    """
    x_arr, scalar = _as_array(x)
    if np.any(x_arr >= 0):
        raise ValueError("expint_ei is defined here for x < 0 only")
    out = -_e1(-x_arr, scaled=False)
    return float(out) if scalar else out
