"""Special functions and quadrature rules shared by the analytic evaluators.

Two rules on [0, U] are provided: Gauss-Legendre, which converges
spectrally on smooth integrands, and first-kind Gauss-Chebyshev with the
Chebyshev weight cancelled by |sin|, which leaves a kink at the ends and
converges like order^-2. Gauss-Legendre nodes are found by Newton's method
on the Legendre recurrence, so no linear algebra (and no LAPACK) runs here.
The special functions are pure and accept scalars or numpy arrays
elementwise.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .channel import _finite_power, _integer

EULER_GAMMA = 0.5772156649015328606

_MAX_ITER = 300
_EPS = 1e-15  # series termination
_CF_EPS = 4.5e-16  # continued fractions stall at the roundoff floor below ~2 ulp

# Gauss-Legendre Newton iteration: it stalls at the same floor, and from
# the starting nodes below it takes at most three steps to get there
_NEWTON_TOL = 4.5e-16
_NEWTON_MAX_ITER = 10
# the first zeros of the Bessel function J_0, for the outermost starting nodes
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013, 11.79153443901428)

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
    if not _integer(order, 1):
        raise ValueError("quadrature order must be a positive integer")
    if not (upper_limit > 0 and _finite_power(upper_limit, 1.0)):
        raise ValueError("quadrature upper_limit must be positive and finite")


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


def _scaled_legendre(y, gains):
    """(R_{n-1}, R_n) at x = y/2, where R_j = P_j 4^j / C(2j, j) is the
    Legendre polynomial scaled to leading coefficient 2^j; gains[j - 2] is
    (j-1)^2 / ((j-1)^2 - 1/4). The three-term recurrence
    R_j = y R_{j-1} - g_j R_{j-2} is that of P_j with the scale taken out,
    three array operations a step, and |R_j| stays near sqrt(pi j) |P_j|.
    """
    r0, r1 = np.ones_like(y), y
    for g in gains:
        r0, r1 = r1, y * r1 - g * r0
    return r0, r1


def _leggauss(n):
    """Gauss-Legendre (nodes, weights) of order n on [-1, 1], ascending.

    Newton's method on P_n over the ceil(n/2) nonnegative nodes, with P_n
    and P_n' from the three-term recurrence (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013), so no linear algebra is needed. The starting nodes
    are Tricomi's expansion cos(theta_k) (1 - (n-1)/(8n^3)
    - (39 - 28/sin^2 theta_k)/(384n^4)), theta_k = pi(4k - 1)/(4n + 2),
    and for the four outermost, where it is worst, Gatteschi's Bessel-zero
    form; both are near enough that two steps converge from n = 26 up
    (three below). The weights 2 / ((1 - x^2) P_n'(x)^2) come from one more
    evaluation at the converged nodes: the last step's derivative is off by
    2x/(1 - x^2) times that step in relative terms, which near the ends put
    1.5e-11 into the weights at n = 400.
    Nodes and weights are mirrored exactly; an odd order's middle node is
    +0.0, where P_n vanishes exactly, so no step moves it.
    """
    half = (n + 1) // 2
    theta = (np.arange(1, half + 1) - 0.25) * (np.pi / (n + 0.5))
    x = np.cos(theta) * (
        1.0 - (n - 1) / (8.0 * n ** 3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)
    )
    nu2 = (n + 0.5) ** 2 + 1.0 / 12.0
    for k, j in enumerate(_J0_ZEROS[:half]):
        x[k] = math.cos(j / math.sqrt(nu2) * (1.0 - (j * j / 2.0 - 1.0) / (180.0 * nu2 * nu2)))
    if n % 2:
        x[-1] = 0.0
    gains = [m * m / (m * m - 0.25) for m in range(1, n)]
    ratio = 2.0 * n / (2.0 * n - 1.0)  # (P_{n-1}/P_n) / (R_{n-1}/R_n)
    for _ in range(_NEWTON_MAX_ITER):
        r0, r1 = _scaled_legendre(x + x, gains)
        # P_n / P_n', with P_n' = n (x P_n - P_{n-1}) / (x^2 - 1)
        dx = r1 * ((x - 1.0) * (x + 1.0)) / (n * (x * r1 - ratio * r0))
        x -= dx
        if np.abs(dx).max() <= _NEWTON_TOL:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre nodes of order {n} did not converge")
    r0, r1 = _scaled_legendre(x + x, gains)
    # (1 - x^2) P_n' = n c (R_{n-1} - x R_n / ratio) with P_{n-1} = c R_{n-1},
    # c = C(2n - 2, n - 1) / 4^(n - 1) rounded once by the integer division
    dp = (n * math.comb(2 * n - 2, n - 1) / 4 ** (n - 1)) * (r0 - x * r1 / ratio)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (dp * dp)
    m = n // 2
    return np.concatenate((-x[:m], x[::-1])), np.concatenate((w[:m], w[::-1]))


@functools.lru_cache(maxsize=64, typed=True)
def gauss_legendre_rule(order: int, upper_limit: float) -> QuadratureRule:
    """Build the Gauss-Legendre rule of a given order on [0, upper_limit].

    Exact for polynomials of degree below 2N. Building takes about 0.14 ms
    at N = 17, 0.25 ms at N = 50, 2 ms at N = 400 and 50 ms at N = 3200 on
    a 2-core Xeon, while the evaluators ask for the same few rules at every
    call, so rules are memoised per typed (order, upper_limit), where True is
    not 1. Every caller shares one rule, so its arrays are read-only.
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

    At a = 1 (path-loss exponent eta = 2) this is 1 - e^(-b) in closed
    form. Otherwise a series expansion below b = a+1, continued fraction
    on the complement above it, Gamma(a) at b = inf. Accuracy is near
    machine precision in the relative sense.
    """
    if not a > 0:
        raise ValueError("lower_incomplete_gamma requires a > 0")
    b_arr, scalar = _as_array(b)
    if not np.all(b_arr >= 0):
        raise ValueError("lower_incomplete_gamma requires b >= 0")
    if a == 1.0:
        # exact to rounding, with +0.0 at b = 0 and Gamma(1) = 1 at b = inf
        out = -np.expm1(-b_arr)
        return float(out) if scalar else out
    b_flat = b_arr.reshape(-1)
    p = np.ones_like(b_flat)
    lo = b_flat < a + 1.0
    if np.any(lo):
        p[lo] = _gamma_series(a, b_flat[lo])
    # above it the upper tail Gamma(a, b)/Gamma(a) is the continued fraction
    # (at most 1 there) times e^x, x = -b + a ln b - ln Gamma(a). Below
    # x = -40, 1 minus the tail rounds to 1, so those b skip the fraction and
    # an exp that underflows, as does b = inf, where a threshold overflowed
    hi = np.flatnonzero(~lo & (b_flat < np.inf))
    x = -b_flat[hi] + a * np.log(b_flat[hi]) - math.lgamma(a)
    hi, x = hi[x > -40.0], x[x > -40.0]
    if hi.size:
        p[hi] = 1.0 - _gamma_cf_scaled(a, b_flat[hi]) * np.exp(x)
    out = p.reshape(b_arr.shape) * math.gamma(a)
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
