"""Independent Sturm-Liouville eigensolver: Chebyshev collocation.

It reads only samples of the potential V and shares no code with the
analytic side, so it can check every closed-form spectrum and eigenfunction
claim.  It returns levels and eigenfunctions and nothing else: the verify
suite and the spectrum and algebra commands compare them with the closed
forms and write their own reports.

The solver estimates each wall's 1/x^2 coefficient c from V alone, by
Neville extrapolation of d^2 V(d) to d = 0 from d = 1e-2 2^-k, k = 0..7, and
takes the principal Frobenius exponent s = 1/2 + sqrt(1/4 + c) (the
Friedrichs realisation, including the log case c = -1/4).  Writing
psi = sin(x/2)^p cos(x/2)^q phi with those exponents leaves an equation for a
smooth phi, collocated at N = 32 Chebyshev-Gauss points with barycentric
differentiation matrices (Berrut and Trefethen, SIAM Review 46 (2004) 501)
and solved as one dense eigenproblem.  A polynomial phi cannot hold the
second Frobenius solution, so the exponents alone choose the realisation.
Where V is analytic after its 1/x^2 terms the levels are right to about
1e-12 (4.9e-15 for levels 1-4 of the PT family A = -2, B = 0.5) at about
0.25 ms a solve (2 vCPU Xeon).  For every Poschl-Teller well the half-angle
factor leaves a constant in place of V, so deep wells keep their accuracy:
the 8 lowest levels of A = -500, B = 150 are right to about 1e-8 relative.
Wells whose two wall exponents are far apart lose it, since phi then spans
many decades across (0, pi): 1.6e-4 at A = -1000, B = 799.6.
Coefficients below the Friedrichs bound -1/4 are rejected: the operator then
has no distinguished self-adjoint realisation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    IllPosedPotential,
    NonFinitePotential,
)

__all__ = ["COLLOCATION_NODES", "collocation_levels", "collocation_eigenpairs"]

COLLOCATION_NODES = 32
_PI_LO = 1.2246467991473532e-16     # pi - math.pi: where sin(x) puts the wall
_WALL_STEPS = 1e-2 * 2.0 ** -np.arange(8)
_THETA = (2.0 * np.arange(COLLOCATION_NODES) + 1.0) * math.pi \
    / (2.0 * COLLOCATION_NODES)
_NODES = 0.5 * math.pi * (1.0 - np.cos(_THETA))     # ascending in (0, pi)
_BARY = (-1.0) ** np.arange(COLLOCATION_NODES) * np.sin(_THETA)


def _differentiation_matrices():
    """First and second barycentric differentiation matrices on _NODES."""
    gap = _NODES[:, None] - _NODES[None, :]
    np.fill_diagonal(gap, 1.0)
    d1 = _BARY[None, :] / _BARY[:, None] / gap
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    return d1, d1 @ d1


_D1, _D2 = _differentiation_matrices()


def _wall_exponent(d, v_d) -> float:
    """Principal Frobenius exponent at a wall from V at distances d from it.

    The 1/d^2 coefficient c is the value at d = 0 of the polynomial through
    (d, d^2 V(d)) (Neville's scheme); s = 1/2 + sqrt(1/4 + c).
    """
    p = d * d * v_d
    for m in range(1, d.size):
        p = (d[m:] * p[:-1] - d[:-m] * p[1:]) / (d[m:] - d[:-m])
    c = float(p[0])
    # the estimate is good to about 1e-13, so the log case c = -1/4 passes
    if c < -0.25 - 1e-9:
        raise IllPosedPotential(
            f"endpoint 1/x^2 coefficient {c:.4f} below Friedrichs bound -1/4")
    return 0.5 + math.sqrt(max(0.25 + c, 0.0))


def _half_angles(x):
    """(sin(x/2), cos(x/2)), the cosine from the wall distance pi - x."""
    return np.sin(0.5 * x), np.sin(0.5 * (math.pi - x + _PI_LO))


def _collocate(v, n_levels: int, vectors: bool):
    """(levels, phi at the nodes or None, p, q) for
    psi = sin(x/2)^p cos(x/2)^q phi."""
    if not 1 <= n_levels <= COLLOCATION_NODES // 4:
        raise DomainError(
            f"need 1 <= n_levels <= {COLLOCATION_NODES // 4} for collocation")
    x_hi = math.pi - _WALL_STEPS
    vals = np.asarray(v(np.concatenate([_WALL_STEPS, x_hi, _NODES])), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFinitePotential("potential has non-finite samples")
    k = _WALL_STEPS.size
    p = _wall_exponent(_WALL_STEPS, vals[:k])
    q = _wall_exponent(math.pi - x_hi + _PI_LO, vals[k:2 * k])
    s, c = _half_angles(_NODES)
    # with g = (p cot(x/2) - q tan(x/2)) / 2:
    # -phi'' - 2 g phi' + (V - g' - g^2) phi = eps phi, and
    # g' + g^2 = p(p - 1)/(4 s^2) + q(q - 1)/(4 c^2) - (p + q)^2/4
    drift = p * c / s - q * s / c
    rest = vals[2 * k:] - p * (p - 1.0) / (4.0 * s * s) \
        - q * (q - 1.0) / (4.0 * c * c) + 0.25 * (p + q) ** 2
    op = -_D2 - drift[:, None] * _D1
    op[np.diag_indices_from(op)] += rest
    try:
        if vectors:
            levels, vecs = np.linalg.eig(op)
        else:
            levels = np.linalg.eigvals(op)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"collocation eigensolver failed: {exc}") from exc
    keep = np.argsort(levels.real)[:n_levels]
    levels = levels[keep]
    if np.any(np.abs(levels.imag) > 1e-8 * np.maximum(np.abs(levels.real), 1.0)):
        raise ConvergenceFailure("collocation levels are not real")
    return levels.real, vecs[:, keep].real if vectors else None, p, q


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

    psi[:, j] is sin(x/2)^p cos(x/2)^q times the barycentric interpolant of
    the collocated phi_j, scaled to unit maximum with its first sample above
    a tenth of that maximum positive.  x, a non-empty 1-D array, must lie in
    (0, pi).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("x must be a non-empty 1-D array of points")
    # NaN fails both comparisons, so it is rejected too
    if not np.all((x > 0.0) & (x < math.pi)):
        raise DomainError("x must lie in the open interval (0, pi)")
    levels, phi, p, q = _collocate(v, n_levels, vectors=True)
    weights = x[:, None] - _NODES
    hit = weights == 0.0
    weights[hit] = 1.0
    np.divide(_BARY, weights, out=weights)
    on_node = hit.any(axis=1)
    weights[on_node] = hit[on_node]     # a sample on a node takes its value
    phi_x = (weights @ phi) / weights.sum(axis=1)[:, None]
    s, c = _half_angles(x)
    psi = (s**p * c**q)[:, None] * phi_x
    for j in range(n_levels):
        col = psi[:, j] / np.max(np.abs(psi[:, j]))
        big = np.nonzero(np.abs(col) > 0.1)[0][0]
        psi[:, j] = col if col[big] > 0.0 else -col
    return levels, psi
