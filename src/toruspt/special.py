"""Special-function evaluators backing the closed-form solutions.

Everything here is self-contained (recurrences and truncated series), so each
evaluator can be checked against an independent brute-force oracle: the test
suite compares the Jacobi recurrence against a term-by-term hypergeometric
sum, the incomplete beta against adaptive quadrature and mpmath, and the
double-variable hypergeometric series against its single-variable reductions.
The two grid stencils take the sample points and read their step from
uniform_step, which rejects a grid that is not uniform.

Each series is summed one way, and every value is the term-by-term loop's
bit for bit, with its errors.  The incomplete beta takes scalar s and w; its
stop loops run on Python floats, whose + - * / round as numpy's do, and give
the term count for an array loop over all points (and, at one point, the
sum itself).  incomplete_beta_series is its series in z alone, on every
point.  F1's recurrence runs a block of terms per numpy call, in the loop's
order; each point stops at its own term.

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


def _per_point(p, shape, name):
    """A series parameter as a Python float if it is a scalar (numpy is
    slower with a numpy float operand), else broadcast to the points' shape
    and flattened; DomainError unless every value is finite."""
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} requires finite parameters")
    if arr.ndim == 0:
        return float(arr)
    try:
        return np.broadcast_to(arr, shape).ravel()
    except ValueError:
        raise DomainError(
            f"{name} parameters must broadcast to the points' shape") from None


def _pick(v, mask):
    """v at the masked points if it is per point; a scalar serves them all."""
    return v[mask] if isinstance(v, np.ndarray) else v


def _any(b):
    """any() of a mask, or the truth of a bool (a numpy bool's .any() is slow)."""
    return b.any() if isinstance(b, np.ndarray) else bool(b)


def _incbeta_unconverged():
    return NonConvergence(
        f"incomplete beta series did not converge in {_MAX_TERMS} terms")


def _incbeta_overflowed():
    return NonConvergence("incomplete beta series overflowed before converging")


def _incbeta_series_terms(z, s, w):
    """The term after which the series at the one point z stops and its sum
    there, or None if it has not stopped within the budget, by the array
    loop's own + - * / on Python floats, which round as numpy's do: the sum
    is the array loop's entry for z bit for bit.  NonConvergence if the sum
    there is not finite (an inf sum passes the stop test, inf <= inf)."""
    f, acc = 1.0, 1.0 / s
    for k in range(1, _MAX_TERMS + 1):
        f = f * ((k - w) / k) * z
        term = f / (s + k)
        acc += term
        if abs(term) <= _ABS_TOL + _REL_TOL * abs(acc):
            if not math.isfinite(acc):
                raise _incbeta_overflowed()
            return k, acc
    return None


# The Python floats' + - * / do not warn; numpy's would only repeat the
# NonConvergence that an overflowing series raises.
@np.errstate(over="ignore", invalid="ignore")
def _incbeta_series(z, s, w):
    """sum form B(z;s,w) = z^s sum_k (1-w)_k z^k / (k! (s+k)) at the 1-D points z.

    The largest z converges last (its terms are the largest and its sum, for
    w >= 1, the smallest), so every point stops with it: its loop
    (_incbeta_series_terms) gives the number of terms, and the array loop
    runs exactly that many with no stop test.  At one point that loop's sum
    is the array loop's, so the array loop is not run."""
    stop = _incbeta_series_terms(float(z.max()), s, w)
    if stop is None:
        raise _incbeta_unconverged()
    if z.size == 1:
        return np.power(z, s) * stop[1]
    acc = np.full_like(z, 1.0 / s)
    f = np.ones_like(z)
    term = np.empty_like(z)
    for k in range(1, stop[0] + 1):
        np.multiply(f, (k - w) / k, out=f)
        f *= z
        acc += np.divide(f, s + k, out=term)
    return np.power(z, s) * acc


_INCBETA_Z0 = 0.75  # the series in z serves z <= z0; past it, it crawls


def _upper_power(w):
    """(1 - z0) ** w by Python's pow.  NonConvergence where it is out of
    range of a double (w <= -512): the series for B(z0) mostly raises first,
    but at a huge s (1e19) it stops at its first term."""
    big_t = 1.0 - _INCBETA_Z0
    try:
        return big_t ** w
    except OverflowError:
        raise NonConvergence(
            f"incomplete beta series overflowed: {big_t} ** w is out of range "
            "of a double") from None


def _incbeta_upper_steps(s, w, floor, big_te):
    """(coef, T^e) of each term of _incbeta_upper's sum at one (s, w, floor),
    up to the one whose t-free bound stops it, on Python floats; big_te is
    T^w.  NonConvergence if none does within the budget."""
    big_t = 1.0 - _INCBETA_Z0
    steps = []
    coef = 1.0
    for k in range(_MAX_TERMS):
        steps.append((coef, big_te))
        e = w + k
        if e > 0.5 and abs(coef) * big_te / e <= _ABS_TOL + _REL_TOL * floor:
            return steps
        coef *= (k + 1.0 - s) / (k + 1.0)
        big_te *= big_t
    raise _incbeta_unconverged()


def _pole_factors(t, e):
    """ln(t/T) and expm1(x)/x at x = e ln(t/T), 1 where x = 0: the factors of
    the term whose exponent e is within 1/2 of 0."""
    log_ratio = np.log(t / (1.0 - _INCBETA_Z0))
    x = e * log_ratio
    return log_ratio, np.where(x == 0.0, 1.0, np.expm1(x) / x)


def _incbeta_upper_sum(steps, w, t, t_e, pole, factors):
    """The terms of steps summed at the points t, where t_e = t^w.  Term pole
    takes the pole form with factors, the _pole_factors at that term."""
    acc = 0.0
    for k, (coef, big_te) in enumerate(steps):
        if k == pole:
            log_ratio, exprel = factors
            acc += coef * -big_te * log_ratio * exprel
        else:
            acc += (coef / (w + k)) * (big_te - t_e)
        t_e *= t
    return acc


# expm1(x)/x is computed and then replaced where x = 0
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _incbeta_upper(t, s, w, floor):
    """int_t^T (1-v)^(s-1) v^(w-1) dv for T = 1 - z0 > t, summed over the
    binomial series of (1-v)^(s-1): sum_k (1-s)_k/k! (T^e - t^e)/e, e = w + k.
    For the one k with |e| <= 1/2 the difference is -T^e ln(t/T) expm1(x)/x,
    x = e ln(t/T), with expm1(x)/x = 1 at x = 0, so no term has a pole in w
    and none divides by e: a subnormal e, whose x is 0 or subnormal, gives
    the limit T^e ln(T/t).  A term with e > 0 is at most |(1-s)_k/k!| T^e/e;
    the sum stops once that is within the tolerances of floor = B(z0) > 0,
    to which the result is added.

    The bound does not depend on t, so its loop (_incbeta_upper_steps) runs
    once, and the sum runs exactly that many terms on the array of points
    with no stop test; the pole term's log and expm1 are taken only if it is
    among them."""
    t_e = np.power(t, w)
    steps = _incbeta_upper_steps(s, w, floor, _upper_power(w))
    pole = round(-w)   # the k with |e| <= 1/2
    factors = _pole_factors(t, w + pole) if 0 <= pole < len(steps) else None
    return _incbeta_upper_sum(steps, w, t, t_e, pole, factors)


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


# Block summation.  The F1 recurrence advances a block of terms per numpy
# call: row j of a (rows, points) array is term k0 + j at every live point.
# The partial sums are a running sum down the rows, which numpy's accumulate
# takes in sequence, so every row holds the bits the term-by-term loop would
# hold at that term.  Each point then stops at its first row that passes the
# stop test, exactly where the loop would have stopped it; the rows a block
# computes past a point's stop are discarded (under errstate, since they may
# overflow).  A block is at most _BLOCK_TERMS terms and at most _BLOCK
# term x point entries (64 KB of doubles), but at least one term.  A row is
# taken before a mask selects from it (v[-1][keep]): numpy's mixed index
# v[-1, keep] takes a slow path, about 10x on 100001 points.
_BLOCK_TERMS = 64
_BLOCK = 8192


def _block_rows(left, points):
    """Terms in the next block: at most _BLOCK_TERMS and the left terms of
    the budget, at most _BLOCK entries, but at least one."""
    return min(_BLOCK_TERMS, left, max(1, _BLOCK // points))


_NONE = np.empty(0, dtype=np.intp)


def _first_rows(done):
    """For a (rows, points) stop mask: the columns with a row set, their
    first set rows, and what selects the other columns (all of them, as a
    slice and without a copy, if none is set)."""
    hit = done.any(axis=0)
    if not hit.any():
        return _NONE, _NONE, slice(None)
    cols = np.flatnonzero(hit)
    return cols, done.take(cols, axis=1).argmax(axis=0), ~hit


def _f1_unconverged(points):
    return NonConvergence(
        f"appell_f1 did not converge within {_MAX_TERMS} diagonals "
        f"at {points} point(s)")


def _f1_overflowed():
    return NonConvergence("appell_f1 series overflowed before converging")


# An overflowing series is reported as NonConvergence, so numpy's warnings
# would only repeat it; once a product overflows, inf - inf is nan, which is
# reported as overflow too.
@np.errstate(over="ignore", invalid="ignore")
def _appell_f1_recurrence(a, b1, b2, c, x, y):
    """F1 at the 1-D points x, y (at least one), in O(1) work per diagonal
    and point.

    Diagonal k sums to s_k = (a)_k/(c)_k e_k, where e_k is the t^k coefficient
    of (1 - xt)^(-b1) (1 - yt)^(-b2).  Its logarithmic derivative gives
    k e_k = ((k-1)(x+y) + b1 x + b2 y) e_{k-1} - (k-2+b1+b2) x y e_{k-2},
    so with g_k = (a+k-1)/(c+k-1)
    s_k = g_k/k [((k-1)(x+y) + b1 x + b2 y) s_{k-1}
                 - g_{k-1} (k-2+b1+b2) x y s_{k-2}].
    a, b1, b2 and c are scalars or one value per point.  Each block takes
    its three coefficient rows in one numpy call each and then runs the
    recurrence's in-place row operations term by term.

    A point stops at the first row where this diagonal sum and the one
    before it are both small, with its partial sum there.  NonConvergence
    if a point has a non-finite diagonal sum at or before its stop row,
    where the term-by-term loop would have raised; a non-finite term leaves
    every later partial sum non-finite, so finite last sums rule that out.
    """
    out = np.empty(x.size)
    live = np.arange(x.size)
    partial = np.ones(x.size)
    prev_small = np.full(x.size, 1.0 <= _ABS_TOL + _REL_TOL)
    s_prev2, s_prev, g_prev = np.zeros(x.size), np.ones(x.size), 0.0
    xpy, bxy, xy = x + y, b1 * x + b2 * y, x * y
    k = 1
    while k <= _MAX_TERMS:
        rows = _block_rows(_MAX_TERMS + 1 - k, live.size)
        kk = np.arange(k, k + rows, dtype=float)[:, None]
        # g_{k-1} and g_k: one column if a and c are scalars, whose last row
        # is carried as a scalar
        g = np.empty((rows + 1, np.broadcast(a, c).size))
        g[0] = g_prev
        g[1:] = (a + kk - 1.0) / (c + kk - 1.0)
        lead = (kk - 1.0) * xpy + bxy
        back = (g[:-1] * (kk - 2.0 + b1 + b2)) * xy
        scale = g[1:] / kk
        s = np.empty((rows + 2, live.size))
        s[0], s[1] = s_prev2, s_prev
        for j in range(rows):
            row = s[j + 2]
            np.multiply(lead[j], s[j + 1], out=row)
            row -= np.multiply(back[j], s[j], out=back[j])
            row *= scale[j]
        terms = s[2:]
        sums = np.add.accumulate(np.vstack((partial, terms)), axis=0)[1:]
        small = np.abs(terms) <= _ABS_TOL + _REL_TOL * np.abs(sums)
        done = np.empty_like(small)
        np.logical_and(small[0], prev_small, out=done[0])
        np.logical_and(small[1:], small[:-1], out=done[1:])
        cols, first, keep = _first_rows(done)
        if not np.isfinite(sums[-1]).all():
            stop = np.full(live.size, rows - 1)
            stop[cols] = first
            if (~np.isfinite(terms) & (np.arange(rows)[:, None] <= stop)).any():
                raise _f1_overflowed()
        out[live[cols]] = sums[first, cols]
        if cols.size == live.size:
            return out
        live, partial, prev_small = live[keep], sums[-1][keep], small[-1][keep]
        s_prev2, s_prev = s[-2][keep], s[-1][keep]
        g_prev = g[-1] if g.shape[1] > 1 else g[-1, 0]
        xpy, bxy, xy, a, b1, b2, c, g_prev = (
            _pick(v, keep) for v in (xpy, bxy, xy, a, b1, b2, c, g_prev))
        k += rows
    raise _f1_unconverged(live.size)


def appell_f1(a, b1, b2, c, x, y):
    """Appell F1(a; b1, b2; c; x, y) by truncated double series.

    Terms T(m,n) = (a)_{m+n} (b1)_m (b2)_n / ((c)_{m+n} m! n!) x^m y^n are
    summed by anti-diagonals m+n = k, each diagonal sum built from the two
    before it by a three-term recurrence for all points at once (see
    _appell_f1_recurrence), in O(_MAX_TERMS) work per point, x = y included.
    x and y are scalars or arrays of one shape, the points; the result has
    that shape, and a 0-d input gives a float.  a, b1, b2 and c are each a
    scalar or an array that broadcasts to the points' shape (one value per
    point).  Each point converges on its own: once two consecutive diagonal
    sums are both within _ABS_TOL + _REL_TOL |partial sum|, it returns its
    partial sum and leaves the loop.  So whether the parameters are scalars
    or per point, each value is bit for bit that of the matching scalar call.
    Requires |x| < 1, |y| < 1, finite parameters and c not a non-positive
    integer at every point.  Raises NonConvergence if any point is still
    unconverged after _MAX_TERMS diagonals, or if a diagonal sum or a value
    is not finite.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape != y_arr.shape:
        raise DomainError("appell_f1 requires x and y of one shape")
    if not (np.all(np.abs(x_arr) < 1.0) and np.all(np.abs(y_arr) < 1.0)):
        raise DomainError("appell_f1 requires |x| < 1 and |y| < 1")
    a, b1, b2, c = (_per_point(p, x_arr.shape, "appell_f1") for p in (a, b1, b2, c))
    if _any((c <= 0.0) & (abs(c - np.rint(c)) < 1e-12)):
        raise DomainError("appell_f1 requires c not a non-positive integer")
    if not x_arr.size:
        return np.empty(x_arr.shape)

    out = _appell_f1_recurrence(a, b1, b2, c, x_arr.ravel(), y_arr.ravel())
    # a partial sum can overflow from finite diagonal sums
    if not np.isfinite(out).all():
        raise _f1_overflowed()
    if x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


def numeric_derivative(f, x, h=1e-5):
    """Central difference (f(x+h) - f(x-h)) / 2h of a callable, error O(h^2)."""
    if h <= 0.0:
        raise DomainError("step h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


# Spacings of a uniform grid differ only by rounding, about ulp(x)/step
# relative (np.linspace: 1.6e-10 for a million points of [0.3, 2.4]), so a
# grid whose spacings differ by more than this is not uniform.
_UNIFORM_RTOL = 1e-6


def uniform_step(x):
    """The step x[1] - x[0] of the uniform grid x, the one place a grid step
    is taken; DomainError where a spacing differs from it by more than 1e-6
    relative, since every stencil that reads the step assumes it."""
    step = x[1] - x[0]
    if not np.max(np.abs(np.diff(x) - step)) <= _UNIFORM_RTOL * abs(step):
        raise DomainError("grid must be uniform: its spacings differ by more "
                          "than 1e-6 relative")
    return step


# 4th-order one-sided first-derivative row: f'(x0) h ~ sum_j w_j f(x0 + j h)
_ONE_SIDED_D1 = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25])


def grid_derivative(f, x):
    """First derivative of samples f on the uniform grid x, error O(step^4).

    The 4th-order central stencil (-f[i+2] + 8f[i+1] - 8f[i-1] + f[i-2]) / 12h
    inside, the 4th-order one-sided stencil at the two nodes on each edge.
    Needs at least 5 samples; the step is uniform_step(x).
    """
    if f.size < 5:
        raise DomainError("grid_derivative needs at least 5 samples")
    step = uniform_step(x)
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
    entries, aligned with f[2:-2].
    """
    step = uniform_step(x)
    return (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) \
        / (12.0 * step * step)
