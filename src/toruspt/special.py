"""Special-function evaluators backing the closed-form solutions.

Everything here is self-contained (recurrences and truncated series), so each
evaluator can be checked against an independent brute-force oracle: the test
suite compares the Jacobi recurrence against a term-by-term hypergeometric
sum, the incomplete beta against adaptive quadrature and mpmath, and the
double-variable hypergeometric series against its single-variable reductions.

All operations are pure and deterministic; there is no shared state.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence

__all__ = [
    "SeriesControl",
    "JacobiParams",
    "DEFAULT_CONTROL",
    "jacobi_poly",
    "incomplete_beta",
    "appell_f1",
    "numeric_derivative",
    "grid_derivative",
    "grid_second_derivative",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation budget and tolerances for series summation."""

    max_terms: int = 512
    abs_tol: float = 1e-15
    rel_tol: float = 1e-13

    def __post_init__(self):
        if not isinstance(self.max_terms, numbers.Integral):
            raise DomainError("max_terms must be an integer")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise DomainError("tolerances must be non-negative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise DomainError("at least one of abs_tol, rel_tol must be positive")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class JacobiParams:
    """Degree and exponent pair (n, alpha, beta) of a Jacobi polynomial."""

    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 0:
            raise DomainError("degree n must be a non-negative integer")


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
    p_prev = np.ones_like(z)
    if n == 0:
        return p_prev
    p = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * z
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b - 2.0) * (2.0 * k + a + b - 1.0) * (2.0 * k + a + b)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
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
    lie outside [-1, 1].  Negative-integer alpha (or beta) and the
    recurrence-degenerate manifold alpha+beta in {-2, -3, ...} are routed
    through the parameter-limit identity / a sum over binomial coefficients,
    so the function is total.
    """
    n, a, b = params.n, params.alpha, params.beta
    z_arr = np.asarray(z, dtype=float)
    if n == 0:
        out = np.ones_like(z_arr)
        return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out

    m = _as_negative_integer(a, n)
    if m is not None:
        # limit identity for alpha = -m, n >= m:
        # P_n^(-m,b) = [(n+b-m+1)_m / (n-m+1)_m] * ((z-1)/2)^m * P_{n-m}^(m,b)
        num = 1.0
        den = 1.0
        for j in range(m):
            num *= n + b - m + 1.0 + j
            den *= n - m + 1.0 + j
        inner = jacobi_poly(JacobiParams(n - m, float(m), b), z_arr)
        out = (num / den) * (0.5 * (z_arr - 1.0)) ** m * np.asarray(inner)
    elif _as_negative_integer(b, n) is not None:
        # mirror symmetry P_n^(a,b)(z) = (-1)^n P_n^(b,a)(-z)
        out = (-1.0) ** n * np.asarray(jacobi_poly(JacobiParams(n, b, a), -z_arr))
    elif _recurrence_degenerate(n, a, b):
        out = _jacobi_binomial_sum(n, a, b, z_arr)
    else:
        out = _jacobi_recurrence(n, a, b, z_arr)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(out)
    return out


def _incbeta_series(z, s, w, ctl):
    """sum form B(z;s,w) = z^s sum_k (1-w)_k z^k / (k! (s+k)), vectorized in z.
    The largest z converges last (its terms are the largest and its sum, for
    w >= 1, the smallest), so the stop test looks at that point only."""
    acc = np.full_like(z, 1.0 / s)
    f = np.ones_like(z)
    term = np.empty_like(z)
    top = int(np.argmax(z))
    for k in range(1, ctl.max_terms + 1):
        np.multiply(f, (k - w) / k, out=f)
        f *= z
        acc += np.divide(f, s + k, out=term)
        if abs(term[top]) <= ctl.abs_tol + ctl.rel_tol * abs(acc[top]):
            return np.power(z, s) * acc
    raise NonConvergence(
        f"incomplete beta series did not converge in {ctl.max_terms} terms")


_INCBETA_Z0 = 0.75  # the series in z serves z <= z0; past it, it crawls


def _incbeta_upper(t, s, w, floor, ctl):
    """int_t^T (1-v)^(s-1) v^(w-1) dv for T = 1 - z0 > t, summed over the
    binomial series of (1-v)^(s-1): sum_k (1-s)_k/k! (T^e - t^e)/e, e = w + k.
    For the one k with |e| <= 1/2 the difference is -T^e expm1(e ln(t/T))/e,
    or ln(T/t) at e = 0, so no term has a pole in w.  A term with e > 0 is at
    most |(1-s)_k/k!| T^e/e; the sum stops once that is within the tolerances
    of floor = B(z0) > 0, to which the result is added."""
    big_t = 1.0 - _INCBETA_Z0
    coef, big_te, t_e = 1.0, big_t ** w, np.power(t, w)
    acc = np.zeros_like(t)
    for k in range(ctl.max_terms):
        e = w + k
        if k == round(-w):
            log_ratio = np.log(t / big_t)
            acc += coef * (-log_ratio if e == 0.0
                           else np.expm1(e * log_ratio) * (-big_te / e))
        else:
            acc += (coef / e) * (big_te - t_e)
        if e > 0.5 and abs(coef) * big_te / e <= ctl.abs_tol + ctl.rel_tol * floor:
            return acc
        coef *= (k + 1.0 - s) / (k + 1.0)
        big_te *= big_t
        t_e *= t
    raise NonConvergence(
        f"incomplete beta series did not converge in {ctl.max_terms} terms")


def incomplete_beta(z, s, w, ctl: SeriesControl = DEFAULT_CONTROL):
    """Incomplete beta function B(z; s, w) = int_0^z u^(s-1) (1-u)^(w-1) du.

    Requires 0 < z < 1 and s > 0 (integrability at the lower endpoint);
    w may be any finite real.  z may be a scalar or an ndarray.  Monotone
    non-decreasing in z, and for s, w > 0 it approaches the complete beta
    function as z -> 1.  One algorithm for every w, in two regions (DLMF
    8.17): the series in z up to z0 = 0.75; past z0, B(z0), one more point
    of the same series call, plus the integral from z0, summed in powers of
    1 - u with no pole at w = 0, -1, -2, ...

    Raises DomainError outside the domain, NonConvergence if either series
    exhausts the term budget.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0.0) or np.any(z_arr >= 1.0):
        raise DomainError("incomplete beta requires 0 < z < 1")
    if not (s > 0.0 and np.isfinite(w)):
        raise DomainError("incomplete beta requires s > 0 and a finite w")
    if not z_arr.size:
        return np.empty(z_arr.shape)

    flat = z_arr.ravel()
    upper = flat > _INCBETA_Z0
    if not upper.any():
        out = _incbeta_series(flat, s, w, ctl)
    else:
        low = _incbeta_series(np.append(flat[~upper], _INCBETA_Z0), s, w, ctl)
        out = np.empty_like(flat)
        out[~upper] = low[:-1]
        out[upper] = low[-1] + _incbeta_upper(1.0 - flat[upper], s, w, low[-1], ctl)
    return float(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


# once a product overflows, inf - inf is nan: both are reported as overflow
@np.errstate(invalid="ignore")
def _appell_f1_recurrence(a, b1, b2, c, x, y, ctl):
    """F1 at the 1-D points x, y, in O(1) work per diagonal and point.

    Diagonal k sums to s_k = (a)_k/(c)_k e_k, where e_k is the t^k coefficient
    of (1 - xt)^(-b1) (1 - yt)^(-b2).  Its logarithmic derivative gives
    k e_k = ((k-1)(x+y) + b1 x + b2 y) e_{k-1} - (k-2+b1+b2) x y e_{k-2},
    so with g_k = (a+k-1)/(c+k-1)
    s_k = g_k/k [((k-1)(x+y) + b1 x + b2 y) s_{k-1}
                 - g_{k-1} (k-2+b1+b2) x y s_{k-2}].
    A point leaves the loop (its entries are compacted away) once it
    converges.
    """
    out = np.empty(x.size)
    live = np.arange(x.size)
    xpy, bxy, xy = x + y, b1 * x + b2 * y, x * y
    s_prev, s_prev2 = np.ones(x.size), np.zeros(x.size)
    partial = np.ones(x.size)
    prev_small = np.full(x.size, 1.0 <= ctl.abs_tol + ctl.rel_tol)
    g_prev = 0.0
    for k in range(1, ctl.max_terms + 1):
        g = (a + k - 1.0) / (c + k - 1.0)
        s = ((k - 1.0) * xpy + bxy) * s_prev
        s -= (g_prev * (k - 2.0 + b1 + b2)) * xy * s_prev2
        s *= g / k
        if not np.all(np.isfinite(s)):
            raise NonConvergence("appell_f1 series overflowed before converging")
        partial += s
        small = np.abs(s) <= ctl.abs_tol + ctl.rel_tol * np.abs(partial)
        done = small & prev_small
        prev_small, s_prev2, s_prev, g_prev = small, s_prev, s, g
        if done.any():
            out[live[done]] = partial[done]
            keep = ~done
            if not keep.any():
                return out
            live, xpy, bxy, xy, s_prev, s_prev2, partial, prev_small = (
                v[keep] for v in
                (live, xpy, bxy, xy, s_prev, s_prev2, partial, prev_small))
    raise _f1_unconverged(ctl, live.size)


def _f1_unconverged(ctl, points):
    return NonConvergence(
        f"appell_f1 did not converge within {ctl.max_terms} diagonals "
        f"at {points} point(s)")


def _appell_f1_diagonal(a, b, c, x, ctl):
    """F1 at the 1-D points x = y, with b = b1 + b2: diagonal k sums to
    (a)_k (b)_k / ((c)_k k!) x^k (Chu-Vandermonde), one term of 2F1(a, b; c; x),
    built from term k-1 for all points at once.  Same stop rule, compaction
    and budget as _appell_f1_recurrence."""
    out = np.empty(x.size)
    live = np.arange(x.size)
    term = np.ones(x.size)
    partial = np.ones(x.size)
    prev_small = np.full(x.size, 1.0 <= ctl.abs_tol + ctl.rel_tol)
    for k in range(1, ctl.max_terms + 1):
        term *= (a + k - 1.0) * (b + k - 1.0) / ((c + k - 1.0) * k) * x
        if not np.all(np.isfinite(term)):
            raise NonConvergence("appell_f1 series overflowed before converging")
        partial += term
        small = np.abs(term) <= ctl.abs_tol + ctl.rel_tol * np.abs(partial)
        done = small & prev_small
        prev_small = small
        if done.any():
            out[live[done]] = partial[done]
            keep = ~done
            if not keep.any():
                return out
            live, x, term, partial, prev_small = (
                v[keep] for v in (live, x, term, partial, prev_small))
    raise _f1_unconverged(ctl, live.size)


def appell_f1(a, b1, b2, c, x, y, ctl: SeriesControl = DEFAULT_CONTROL):
    """Appell F1(a; b1, b2; c; x, y) by truncated double series.

    Terms T(m,n) = (a)_{m+n} (b1)_m (b2)_n / ((c)_{m+n} m! n!) x^m y^n are
    summed by anti-diagonals m+n = k, each diagonal sum built from the ones
    before it for all points at once, in O(max_terms) work per point.  x and
    y are scalars or arrays of one shape; the result has that shape, and a
    0-d input gives a float.  Each point converges on its own: once two
    consecutive diagonal sums are both within abs_tol + rel_tol |partial sum|,
    it returns its partial sum and leaves the loop.  Requires |x| < 1,
    |y| < 1 at every point and c not a non-positive integer.  Raises
    NonConvergence if any point is still unconverged after max_terms
    diagonals, or if a diagonal sum is not finite.

    Where x and y differ, the diagonal sums follow a three-term recurrence
    (see _appell_f1_recurrence).  When they are equal element for element
    (the Appell tail's case), diagonal k collapses to one term,
    (a)_k (b1+b2)_k / ((c)_k k!) x^k, by Chu-Vandermonde:
    F1(a; b1, b2; c; x, x) = 2F1(a, b1+b2; c; x), and that one-variable
    series, cheaper per term, is summed instead.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape != y_arr.shape:
        raise DomainError("appell_f1 requires x and y of one shape")
    if not (np.all(np.abs(x_arr) < 1.0) and np.all(np.abs(y_arr) < 1.0)):
        raise DomainError("appell_f1 requires |x| < 1 and |y| < 1")
    if c <= 0.0 and abs(c - round(c)) < 1e-12:
        raise DomainError("appell_f1 requires c not a non-positive integer")

    xf, yf = x_arr.ravel(), y_arr.ravel()
    if not xf.size:
        out = np.empty(0)
    elif np.array_equal(xf, yf):
        out = _appell_f1_diagonal(a, b1 + b2, c, xf, ctl)
    else:
        out = _appell_f1_recurrence(a, b1, b2, c, xf, yf, ctl)
    if x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


def numeric_derivative(f, x, order=1, h=1e-5):
    """Central finite-difference derivative of a callable, error O(h^2).

    order 1: (f(x+h) - f(x-h)) / 2h;  order 2: standard second difference.
    """
    if h <= 0.0:
        raise DomainError("step h must be positive")
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise DomainError("order must be 1 or 2")


# 4th-order one-sided first-derivative row: f'(x0) h ~ sum_j w_j f(x0 + j h)
_ONE_SIDED_D1 = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25])


def grid_derivative(f, step):
    """First derivative of samples on a uniform grid, error O(step^4).

    The 4th-order central stencil (-f[i+2] + 8f[i+1] - 8f[i-1] + f[i-2]) / 12h
    inside, the 4th-order one-sided stencil at the two nodes on each edge.
    Needs at least 5 samples.
    """
    if f.size < 5:
        raise DomainError("grid_derivative needs at least 5 samples")
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * step)
    for i in (0, 1):
        out[i] = (_ONE_SIDED_D1 @ f[i:i + 5]) / step
        out[-1 - i] = -(_ONE_SIDED_D1 @ f[-1 - i - 4:f.size - i][::-1]) / step
    return out


def grid_second_derivative(f, step):
    """Second derivative at the interior nodes 2..n-3 of a uniform grid.

    The 5-point stencil (-f[i+2] + 16f[i+1] - 30f[i] + 16f[i-1] - f[i-2]) / 12h^2,
    error O(step^4); the result has n - 4 entries, aligned with f[2:-2].
    """
    return (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) \
        / (12.0 * step * step)
