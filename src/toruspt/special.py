"""Special-function evaluators backing the closed-form solutions.

Everything here is self-contained (recurrences and truncated series), so each
evaluator can be checked against an independent brute-force oracle: the test
suite compares the Jacobi recurrence against a term-by-term hypergeometric
sum, the incomplete beta against adaptive quadrature and mpmath, and the
double-variable hypergeometric series against its single-variable reductions.
The two grid stencils take at least 5 sample points and read their step
from uniform_step, which rejects a zero step or a grid that is not uniform.

Each series is summed one way, and every value is the term-by-term loop's
bit for bit, with its errors.  The incomplete beta takes scalar s and w and
is one loop per region: the series in z finds its stop term at the largest
z on Python floats and then sums every point to it, and the integral past
z0 tests its t-free bound as it sums.  incomplete_beta_series is its series
in z alone, on every point.  F1 takes scalar parameters and points, and is
the term-by-term loop itself, on Python floats.

All operations are pure and deterministic; there is no shared state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence

__all__ = [
    "JacobiParams",
    "jacobi_poly",
    "incomplete_beta",
    "incomplete_beta_series",
    "appell_f1",
    "numeric_derivative",
    "uniform_step",
    "grid_derivative",
    "grid_second_derivative",
]


# The one truncation budget of both series, read by the kernels when they are
# called: at most _MAX_TERMS terms (diagonals, for F1), and a term counts as
# negligible once it is within _ABS_TOL + _REL_TOL |partial sum|.
_MAX_TERMS = 2048
_ABS_TOL = 1e-16
_REL_TOL = 1e-14


@dataclass(frozen=True)
class JacobiParams:
    """Degree and exponent pair (n, alpha, beta) of a Jacobi polynomial."""

    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 0:
            raise DomainError("degree n must be a non-negative integer")
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise DomainError("exponents alpha and beta must be finite")


def _as_negative_integer(x, bound):
    """Return m if x == -m for an integer 1 <= m <= bound, else None."""
    r = round(x)
    if abs(x - r) < 1e-12 and -bound <= r <= -1:
        return -int(r)
    return None


def _recurrence_degenerate(n, a, b):
    # Leading coefficient 2k(k+a+b)(2k+a+b-2) vanishes for some k in 2..n
    # exactly when a+b is an integer in [-(2n-2), -2].
    s = a + b
    r = round(s)
    return abs(s - r) < 1e-12 and -(2 * n - 2) <= r <= -2


def _jacobi_recurrence(n, a, b, z):
    """P_n^(a,b)(z), n >= 1, at an array z or a Python float z.  The steps use
    only + - * /, which round a float as they round each array entry, so a
    float z (the 0-d case) gives the array's bits at a fraction of the cost
    of 0-d array steps.  None where a leading coefficient rounds to 0 off
    _recurrence_degenerate's test (huge exponents of opposite sign)."""
    p_prev = 1.0 if isinstance(z, float) else np.ones_like(z)
    p = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * z
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 2.0) * (2.0 * k + a + b - 1.0) * (2.0 * k + a + b)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        if c1 == 0.0:
            return None
        p, p_prev = ((c2 + c3 * z) * p - c4 * p_prev) / c1, p
    return p


def _binom(x, j):
    """Generalized binomial coefficient C(x, j) for real x, integer j >= 0."""
    out = 1.0
    for i in range(j):
        out *= (x - i) / (i + 1.0)
    return out


def _jacobi_binomial_sum(n, a, b, z):
    # P_n^(a,b)(z) = sum_s C(n+a, n-s) C(n+b, s) ((z-1)/2)^s ((z+1)/2)^(n-s),
    # valid for every a, b.  Both powers are at most 1 in size on [-1, 1], so
    # the sum does not cancel the way the series in (1-z)/2 alone does.
    zm, zp = 0.5 * (z - 1.0), 0.5 * (z + 1.0)
    acc = np.zeros_like(z)
    for s in range(n + 1):
        acc += _binom(n + a, n - s) * _binom(n + b, s) * zm ** s * zp ** (n - s)
    return acc


def jacobi_poly(params: JacobiParams, z):
    """Evaluate the Jacobi polynomial P_n^(alpha,beta)(z).

    Forward three-term recurrence; z may be a scalar or an ndarray and may
    lie outside [-1, 1], and a scalar z gives the bits of a 1-point array.
    Negative-integer alpha (or beta) and the recurrence-degenerate manifold
    alpha+beta in {-2, -3, ...} are routed through the parameter-limit
    identity / a sum over binomial coefficients, and so is a recurrence
    whose leading coefficient rounds to 0 off that manifold, so the function
    is total.
    """
    n, a, b = params.n, float(params.alpha), float(params.beta)
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    if n == 0:
        return 1.0 if scalar else np.ones_like(z_arr)

    m = _as_negative_integer(a, n)
    if m is None and _as_negative_integer(b, n) is None \
            and not _recurrence_degenerate(n, a, b):
        out = _jacobi_recurrence(n, a, b, float(z_arr) if scalar else z_arr)
        if out is not None:
            return float(out) if scalar else out
    # The branches below take powers, and numpy's power of a scalar can
    # differ in the last bit from its power of an array, so a scalar z runs
    # as a 1-point array: every scalar value is the array's entry.
    zs = z_arr.reshape(1) if scalar else z_arr
    if m is not None:
        # limit identity for alpha = -m, n >= m:
        # P_n^(-m,b) = [(n+b-m+1)_m / (n-m+1)_m] * ((z-1)/2)^m * P_{n-m}^(m,b)
        num = 1.0
        den = 1.0
        for j in range(m):
            num *= n + b - m + 1.0 + j
            den *= n - m + 1.0 + j
        inner = jacobi_poly(JacobiParams(n - m, float(m), b), zs)
        out = (num / den) * (0.5 * (zs - 1.0)) ** m * inner
    elif _as_negative_integer(b, n) is not None:
        # mirror symmetry P_n^(a,b)(z) = (-1)^n P_n^(b,a)(-z)
        out = (-1.0) ** n * jacobi_poly(JacobiParams(n, b, a), -zs)
    else:
        out = _jacobi_binomial_sum(n, a, b, zs)
    return float(out[0]) if scalar else out


def _incbeta_unconverged():
    return NonConvergence(
        f"incomplete beta series did not converge in {_MAX_TERMS} terms")


# The Python floats' + - * / do not warn; numpy's would only repeat the
# NonConvergence that an overflowing series raises.
@np.errstate(over="ignore", invalid="ignore")
def _incbeta_series(z, s, w):
    """sum form B(z;s,w) = z^s sum_k (1-w)_k z^k / (k! (s+k)) at the 1-D points z.

    The largest z converges last (its terms are the largest and its sum, for
    w >= 1, the smallest), so every point stops with it.  Its loop runs
    first, on Python floats, whose + - * / round as numpy's do; the array
    loop then runs exactly as many terms with no stop test.  At one point
    the first loop's sum is the array loop's, so the array loop is not run.
    NonConvergence if the sum at the largest z is not finite (an inf sum
    passes the stop test, inf <= inf)."""
    top = float(z.max())
    f, head = 1.0, 1.0 / s
    for j in range(1, _MAX_TERMS + 1):
        f = f * ((j - w) / j) * top
        term = f / (s + j)
        head += term
        if abs(term) <= _ABS_TOL + _REL_TOL * abs(head):
            break
    else:
        raise _incbeta_unconverged()
    if not math.isfinite(head):
        raise NonConvergence("incomplete beta series overflowed before converging")
    if z.size == 1:
        return np.power(z, s) * head
    acc = np.full_like(z, 1.0 / s)
    f = np.ones_like(z)
    term = np.empty_like(z)
    for k in range(1, j + 1):
        np.multiply(f, (k - w) / k, out=f)
        f *= z
        acc += np.divide(f, s + k, out=term)
    return np.power(z, s) * acc


_INCBETA_Z0 = 0.75  # the series in z serves z <= z0; past it, it crawls


# expm1(x)/x is computed and then replaced where x = 0
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _incbeta_upper(t, s, w, floor):
    """int_t^T (1-v)^(s-1) v^(w-1) dv for T = 1 - z0 > t, summed over the
    binomial series of (1-v)^(s-1): sum_k (1-s)_k/k! (T^e - t^e)/e, e = w + k.
    For the one k with |e| <= 1/2 the difference is -T^e ln(t/T) expm1(x)/x,
    x = e ln(t/T), with expm1(x)/x = 1 at x = 0, so no term has a pole in w
    and none divides by e: a subnormal e, whose x is 0 or subnormal, gives
    the limit T^e ln(T/t).  A term with e > 0 is at most |(1-s)_k/k!| T^e/e,
    a bound that does not depend on t: the sum stops once it is within the
    tolerances of floor = B(z0) > 0, to which the result is added.

    NonConvergence where T^w, by Python's pow, is out of range of a double
    (w <= -512): the series for B(z0) mostly raises first, but at a huge s
    (1e19) it stops at its first term."""
    big_t = 1.0 - _INCBETA_Z0
    try:
        big_te = big_t ** w
    except OverflowError:
        raise NonConvergence(
            f"incomplete beta series overflowed: {big_t} ** w is out of range "
            "of a double") from None
    t_e = np.power(t, w)
    pole = round(-w)   # the k with |e| <= 1/2
    coef, acc = 1.0, 0.0
    for k in range(_MAX_TERMS):
        e = w + k
        if k == pole:
            log_ratio = np.log(t / big_t)
            x = e * log_ratio
            acc += coef * -big_te * log_ratio * np.where(x == 0.0, 1.0, np.expm1(x) / x)
        else:
            acc += (coef / e) * (big_te - t_e)
        if e > 0.5 and abs(coef) * big_te / e <= _ABS_TOL + _REL_TOL * floor:
            return acc
        coef *= (k + 1.0 - s) / (k + 1.0)
        big_te *= big_t
        t_e *= t
    raise _incbeta_unconverged()


def _incbeta_args(z, s, w):
    """(z as an array, s, w as Python floats) for both incomplete beta entry
    points; DomainError outside their domain (see incomplete_beta)."""
    z_arr = np.asarray(z, dtype=float)
    if not np.all((z_arr > 0.0) & (z_arr < 1.0)):
        raise DomainError("incomplete beta requires 0 < z < 1")
    if np.ndim(s) or np.ndim(w):
        raise DomainError("incomplete beta requires scalar s and w")
    s, w = float(s), float(w)
    if not (math.isfinite(s) and math.isfinite(w)):
        raise DomainError("incomplete beta requires finite parameters")
    if not s > 0.0:
        raise DomainError("incomplete beta requires s > 0")
    return z_arr, s, w


def incomplete_beta_series(z, s, w):
    """B(z; s, w) by its series in z alone (DLMF 8.17.7), at every point.

    The series incomplete_beta sums up to z0, with the same argument checks
    and errors, summed at every z: past z0 it takes more terms, and as z -> 1
    it exhausts the term budget (NonConvergence), where incomplete_beta
    switches to the integral from z0.
    """
    z_arr, s, w = _incbeta_args(z, s, w)
    if not z_arr.size:
        return np.empty(z_arr.shape)
    out = _incbeta_series(z_arr.ravel(), s, w)
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def incomplete_beta(z, s, w):
    """Incomplete beta function B(z; s, w) = int_0^z u^(s-1) (1-u)^(w-1) du.

    Requires 0 < z < 1 and s > 0 (integrability at the lower endpoint);
    w may be any finite real.  z may be a scalar or an ndarray, the points;
    s and w are scalars.  Monotone non-decreasing in z, and for s, w > 0 it
    approaches the complete beta function as z -> 1.  One algorithm for
    every w, in two regions (DLMF 8.17): the series in z up to z0 = 0.75;
    past z0, B(z0), one more point of the same series call, plus the
    integral from z0, summed in powers of 1 - u with no pole at
    w = 0, -1, -2, ...  Every point stops when the largest z passes its
    test (the one that converges last) and the integral from z0 stops on
    its own t-free bound, so a call on many z costs one series.

    Raises DomainError outside the domain (at any point) or for an array or
    non-finite s or w, NonConvergence if either series exhausts the term
    budget, the series in z overflows or (1 - z0)^w overflows a double.
    """
    z_arr, s, w = _incbeta_args(z, s, w)
    if not z_arr.size:
        return np.empty(z_arr.shape)

    flat = z_arr.ravel()
    upper = flat > _INCBETA_Z0
    if not upper.any():
        out = _incbeta_series(flat, s, w)
    else:
        # B(z0) is the series at z0, one more point of the same call
        lower = ~upper
        low = _incbeta_series(np.append(flat[lower], _INCBETA_Z0), s, w)
        floor = float(low[-1])
        out = np.empty_like(flat)
        out[lower] = low[:-1]
        out[upper] = floor + _incbeta_upper(1.0 - flat[upper], s, w, floor)
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def _f1_overflowed():
    return NonConvergence("appell_f1 series overflowed before converging")


def appell_f1(a, b1, b2, c, x, y):
    """Appell F1(a; b1, b2; c; x, y) by truncated double series, a float.

    Terms T(m,n) = (a)_{m+n} (b1)_m (b2)_n / ((c)_{m+n} m! n!) x^m y^n
    (DLMF 16.13.1) are summed by anti-diagonals m+n = k on Python floats,
    x = y included.  Diagonal k sums to s_k = (a)_k/(c)_k e_k, where e_k is
    the t^k coefficient of (1 - xt)^(-b1) (1 - yt)^(-b2); its logarithmic
    derivative gives, with g_k = (a+k-1)/(c+k-1),
    s_k = g_k/k [((k-1)(x+y) + b1 x + b2 y) s_{k-1}
                 - g_{k-1} (k-2+b1+b2) x y s_{k-2}].
    The sum stops at the partial sum where two consecutive diagonal sums are
    both within _ABS_TOL + _REL_TOL |partial sum|.

    Parameters and points are scalars (an array is a DomainError), with
    |x| < 1, |y| < 1, finite parameters and c not a non-positive integer.
    NonConvergence after _MAX_TERMS diagonals, or if a diagonal sum or the
    value is not finite.
    """
    if any(np.ndim(v) for v in (a, b1, b2, c, x, y)):
        raise DomainError("appell_f1 requires scalar parameters and points")
    a, b1, b2, c, x, y = (float(v) for v in (a, b1, b2, c, x, y))
    if not (abs(x) < 1.0 and abs(y) < 1.0):
        raise DomainError("appell_f1 requires |x| < 1 and |y| < 1")
    if not all(math.isfinite(v) for v in (a, b1, b2, c)):
        raise DomainError("appell_f1 requires finite parameters")
    if c <= 0.0 and abs(c - round(c)) < 1e-12:
        raise DomainError("appell_f1 requires c not a non-positive integer")

    xpy, bxy, xy = x + y, b1 * x + b2 * y, x * y
    s_prev2, s_prev, g_prev, partial = 0.0, 1.0, 0.0, 1.0
    prev_small = 1.0 <= _ABS_TOL + _REL_TOL
    for k in range(1, _MAX_TERMS + 1):
        g = (a + k - 1.0) / (c + k - 1.0)
        s = ((k - 1.0) * xpy + bxy) * s_prev
        s -= (g_prev * (k - 2.0 + b1 + b2)) * xy * s_prev2
        s *= g / k
        if not math.isfinite(s):
            raise _f1_overflowed()
        partial += s
        small = abs(s) <= _ABS_TOL + _REL_TOL * abs(partial)
        if small and prev_small:
            # a partial sum can overflow from finite diagonal sums
            if not math.isfinite(partial):
                raise _f1_overflowed()
            return partial
        prev_small, s_prev2, s_prev, g_prev = small, s_prev, s, g
    raise NonConvergence(
        f"appell_f1 did not converge within {_MAX_TERMS} diagonals")


def numeric_derivative(f, x, h=1e-5):
    """Central difference (f(x+h) - f(x-h)) / 2h of a callable, error O(h^2)."""
    if not h > 0.0:
        raise DomainError("step h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


# Spacings of a uniform grid differ only by rounding, about ulp(x)/step
# relative (np.linspace: 1.6e-10 for a million points of [0.3, 2.4]), so a
# grid whose spacings differ by more than this is not uniform.
_UNIFORM_RTOL = 1e-6


def uniform_step(x):
    """The step x[1] - x[0] of the uniform grid x, the one place a grid step
    is taken; DomainError if x has fewer than 2 points, if the step is 0 or
    if a spacing differs from it by more than 1e-6 relative, since every
    stencil that reads the step assumes it."""
    if np.size(x) < 2:
        raise DomainError("a grid step needs at least 2 points")
    step = x[1] - x[0]
    if step == 0.0:
        raise DomainError("grid step must be nonzero")
    if not np.max(np.abs(np.diff(x) - step)) <= _UNIFORM_RTOL * abs(step):
        raise DomainError("grid must be uniform: its spacings differ by more "
                          "than 1e-6 relative")
    return step


# 4th-order one-sided first-derivative row: f'(x0) h ~ sum_j w_j f(x0 + j h)
_ONE_SIDED_D1 = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25])


def _stencil_step(name, f, x):
    """uniform_step(x) for a 5-point stencil on the samples f of the grid x;
    DomainError unless f and x have one shape and at least 5 samples."""
    if np.shape(f) != np.shape(x):
        raise DomainError(f"{name} needs samples f of the grid x's shape, "
                          f"got {np.shape(f)} and {np.shape(x)}")
    if f.size < 5:
        raise DomainError(f"{name} needs at least 5 samples")
    return uniform_step(x)


def grid_derivative(f, x):
    """First derivative of samples f on the uniform grid x, error O(step^4).

    The 4th-order central stencil (-f[i+2] + 8f[i+1] - 8f[i-1] + f[i-2]) / 12h
    inside, the 4th-order one-sided stencil at the two nodes on each edge.
    Needs at least 5 samples, one per node of x; the step is uniform_step(x).
    """
    step = _stencil_step("grid_derivative", f, x)
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * step)
    for i in (0, 1):
        out[i] = (_ONE_SIDED_D1 @ f[i:i + 5]) / step
        out[-1 - i] = -(_ONE_SIDED_D1 @ f[-1 - i - 4:f.size - i][::-1]) / step
    return out


def grid_second_derivative(f, x):
    """Second derivative of samples f at the interior nodes 2..n-3 of the
    uniform grid x.

    The 5-point stencil (-f[i+2] + 16f[i+1] - 30f[i] + 16f[i-1] - f[i-2]) / 12h^2,
    error O(step^4), with the step uniform_step(x); the result has n - 4
    entries, aligned with f[2:-2].  Needs at least 5 samples, one per node.
    """
    step = _stencil_step("grid_second_derivative", f, x)
    return (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) \
        / (12.0 * step * step)
