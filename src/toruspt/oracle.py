"""Independent Sturm-Liouville eigensolver: Gauss-Jacobi collocation.

It reads only samples of the potential V and shares no code with the
analytic side, so it can check every closed-form spectrum and eigenfunction
claim.  It returns levels and eigenfunctions and nothing else: the verify
suite and the spectrum and algebra commands compare them with the closed
forms and write their own reports.

The solver estimates each wall's 1/x^2 coefficient c from V alone, by
Neville extrapolation of d^2 V(d) to d = 0 from d = 5e-2 2^-k, k = 0..5, and
takes the principal Frobenius exponent s = 1/2 + sqrt(1/4 + c) (the
Friedrichs realisation, including the log case c = -1/4).  Writing
psi = sin(x/2)^p cos(x/2)^q phi with those exponents leaves
-(1/w)(w phi')' + R phi = eps phi, w = sin(x/2)^2p cos(x/2)^2q: in t = cos x
the Jacobi operator of alpha = p - 1/2, beta = q - 1/2, which is
diag n(n + p + q) on the orthonormal Jacobi polynomials P_n, plus R.  One
symmetric eigensolve of their N = 32 Jacobi matrix gives the Gauss-Jacobi
nodes t_k and E[n, k] = P_n(t_k) sqrt(w_k) (Golub and Welsch, Math. Comp. 23
(1969) 221), and H = diag n(n + p + q) + E diag R(x_k) E^T is collocation at
those nodes in Lagrange-mesh form (Baye, Phys. Rep. 565 (2015) 1): symmetric,
so its levels are real.  A polynomial phi cannot hold the second Frobenius
solution, so the exponents alone choose the realisation.  For every
Poschl-Teller well R is a constant and H diagonal, so only the exponent
estimates limit the levels: the 8 lowest of A = -1000, B = 990 (exponents
10 and 1990) and of A = -1e5, B = 3e4 are right to a few 1e-12 relative.
Where V is analytic after its 1/x^2 terms the levels are right to about
1e-12, at about 0.3 ms a solve (2 vCPU Xeon).  Coefficients below the
Friedrichs bound -1/4 are rejected: the operator then has no distinguished
self-adjoint realisation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    IllPosedPotential,
    NonFinitePotential,
    NormalizationFailure,
)

__all__ = ["COLLOCATION_NODES", "collocation_levels", "collocation_eigenpairs"]

COLLOCATION_NODES = 32
_PI_LO = 1.2246467991473532e-16     # pi - math.pi: where sin(x) puts the wall
_WALL_STEPS = 5e-2 * 2.0 ** -np.arange(6)


def _wall_exponent(d, v_d) -> float:
    """Principal Frobenius exponent at a wall from V at distances d from it.

    The 1/d^2 coefficient c is the value at d = 0 of the polynomial through
    (d, d^2 V(d)) (Neville's scheme); s = 1/2 + sqrt(1/4 + c).
    """
    p = d * d * v_d
    for m in range(1, d.size):
        p = (d[m:] * p[:-1] - d[:-m] * p[1:]) / (d[m:] - d[:-m])
    c = float(p[0])
    # the estimate is good to a few 1e-13, so the log case c = -1/4 passes
    if c < -0.25 - 1e-9:
        raise IllPosedPotential(
            f"endpoint 1/x^2 coefficient {c:.4f} below Friedrichs bound -1/4")
    return 0.5 + math.sqrt(max(0.25 + c, 0.0))


def _half_angles(x):
    """(sin(x/2), cos(x/2)), the cosine from the wall distance pi - x."""
    return np.sin(0.5 * x), np.sin(0.5 * (math.pi - x + _PI_LO))


def _samples(v, x):
    """V at x, which must be finite there."""
    vals = np.asarray(v(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinitePotential("potential has non-finite samples")
    return vals


def _jacobi_matrix(p, q):
    """Diagonal and off-diagonal of the Jacobi matrix of P_n^(p - 1/2, q - 1/2)."""
    a, b = p - 0.5, q - 0.5
    n = np.arange(1.0, COLLOCATION_NODES)
    s = 2.0 * n + a + b
    diag = np.concatenate([[(b - a) / (a + b + 2.0)],
                           (b * b - a * a) / (s * (s + 2.0))])
    off = np.sqrt(4.0 * n * (n + a) * (n + b) * (n + a + b)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    return diag, off


def _collocate(v, n_levels: int, vectors: bool):
    """(levels, C or None, p, q) for psi = sin(x/2)^p cos(x/2)^q phi with
    phi_j = sum_n C[n, j] P_n(cos x), P_n orthonormal."""
    if not 1 <= n_levels <= COLLOCATION_NODES // 4:
        raise DomainError(
            f"need 1 <= n_levels <= {COLLOCATION_NODES // 4} for collocation")
    x_hi = math.pi - _WALL_STEPS
    vals = _samples(v, np.concatenate([_WALL_STEPS, x_hi]))
    k = _WALL_STEPS.size
    p = _wall_exponent(_WALL_STEPS, vals[:k])
    q = _wall_exponent(math.pi - x_hi + _PI_LO, vals[k:])
    diag, off = _jacobi_matrix(p, q)
    try:
        # Golub-Welsch: the nodes t_k = cos x_k, and E[n, k] = P_n(t_k) sqrt(w_k)
        t, e = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
        x = np.arccos(t)
        s, c = _half_angles(x)
        # R of -(1/w)(w phi')' + R phi, w = s^2p c^2q, s = sin(x/2), c = cos(x/2)
        rest = _samples(v, x) - p * (p - 1.0) / (4.0 * s * s) \
            - q * (q - 1.0) / (4.0 * c * c) + 0.25 * (p + q) ** 2
        h = (e * rest) @ e.T
        n = np.arange(COLLOCATION_NODES)
        h[n, n] += n * (n + p + q)
        levels, vecs = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"collocation eigensolver failed: {exc}") from exc
    return levels[:n_levels], None if vecs is None else vecs[:, :n_levels], p, q


def collocation_levels(v, n_levels: int) -> np.ndarray:
    """The n_levels lowest levels of -d^2/dx^2 + V on (0, pi), ascending.

    v is a callable that takes an array of x and returns V there; the
    solver reads V only through it.  Raises IllPosedPotential when a wall's
    1/x^2 coefficient is below -1/4, NonFinitePotential on a non-finite
    sample, DomainError unless 1 <= n_levels <= COLLOCATION_NODES // 4.
    """
    return _collocate(v, n_levels, vectors=False)[0]


def collocation_eigenpairs(v, n_levels: int, x):
    """(levels, psi): the lowest levels and their eigenfunctions at x.

    psi[:, j] is sin(x/2)^p cos(x/2)^q phi_j, with phi_j summed from the
    Jacobi polynomials by their three-term recurrence, scaled to unit maximum
    with its first sample above a tenth of that maximum positive.  x, a
    non-empty 1-D array, must lie in (0, pi).  Raises NormalizationFailure
    when an eigenfunction has no nonzero sample at x.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("x must be a non-empty 1-D array of points")
    # NaN fails both comparisons, so it is rejected too
    if not np.all((x > 0.0) & (x < math.pi)):
        raise DomainError("x must lie in the open interval (0, pi)")
    levels, coef, p, q = _collocate(v, n_levels, vectors=True)
    diag, off = _jacobi_matrix(p, q)
    t = np.cos(x)
    basis = np.empty((COLLOCATION_NODES, x.size))
    basis[0] = 1.0
    basis[1] = (t - diag[0]) / off[0]
    for n in range(1, COLLOCATION_NODES - 1):
        basis[n + 1] = ((t - diag[n]) * basis[n] - off[n - 1] * basis[n - 1]) / off[n]
    phi_x = basis.T @ coef
    s, c = _half_angles(x)
    psi = (s**p * c**q)[:, None] * phi_x
    for j in range(n_levels):
        peak = np.max(np.abs(psi[:, j]))
        # where the wall factor underflows at every point of x
        if not peak > 0.0:
            raise NormalizationFailure(
                f"eigenfunction {j} vanishes at every point of x")
        col = psi[:, j] / peak
        big = np.nonzero(np.abs(col) > 0.1)[0][0]
        psi[:, j] = col if col[big] > 0.0 else -col
    return levels, psi
