"""Torus surface geometry and the reduction to 1D Schrodinger form.

The profile radius is R(x) = c + a cos x.  After separating the angular and
time dependence, each spinor component obeys a second-order equation whose
first-derivative term is removed by the substitution psi = f(x) F(g(x)); the
slope g' doubles as the inverse Fermi-velocity profile, V_F = 1/g'.

The transform solver works in w = 1/g'^2, where the defining condition
"reduced potential == target" becomes a linear first-order ODE.  It is solved
exactly across each grid interval by its integrating factor, with the two
integrals of that propagator taken by 8-point Gauss-Legendre, so the only
error is the quadrature's (order 16 in the interval length) and rounding, on
any strictly increasing grid.  Its output is validated by the round-trip
residual, which re-derives the reduced potential from the sampled slope with
finite differences on a uniform grid, and in the tests by a manufactured
solution: the closed-form reduced potential of a chosen g' is solved back to
that g'.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUp,
    DegenerateMode,
    DomainError,
    InvalidVelocity,
    SingularGeometry,
)
from .special import grid_derivative

__all__ = [
    "TorusGeometry",
    "ModeParams",
    "TransformResult",
    "profile_radius",
    "christoffel",
    "spin_connection_coeff",
    "effective_coefficients",
    "solve_g_transform",
    "reduced_potential_grid",
    "prefactor_f",
]

_W_FLOOR = 1e-280
_W_CEIL = 1e280
_GL_POINTS = 8


@dataclass(frozen=True)
class TorusGeometry:
    """Tube radius a > 0 and inner radius c (either sign, nonzero)."""

    a: float
    c: float

    def __post_init__(self):
        if not (self.a > 0.0):
            raise DomainError("tube radius a must be positive")
        if self.c == 0.0:
            raise DomainError("inner radius c must be nonzero")

    def radius(self, x):
        """Profile radius R(x) = c + a cos x, the only place it is computed."""
        return self.c + self.a * np.cos(x)

    def checked_radius(self, x):
        """radius(x), raising SingularGeometry where R vanishes."""
        r = self.radius(x)
        if np.any(np.asarray(r) == 0.0):
            raise SingularGeometry("profile radius R(x) vanishes at a requested point")
        return r


@dataclass(frozen=True)
class ModeParams:
    """Conserved angular wavenumber k and spinor component selector (1 or 2)."""

    k: float
    component: int = 1

    def __post_init__(self):
        if self.component not in (1, 2):
            raise DomainError("component must be 1 or 2")


@dataclass(frozen=True)
class TransformResult:
    """Sampled point-canonical transform: g', V_F = 1/g' and the prefactor f."""

    x: np.ndarray
    g_prime: np.ndarray
    fermi_velocity: np.ndarray
    prefactor: np.ndarray

    def __post_init__(self):
        if np.any(self.g_prime <= 0.0):
            raise BlowUp("g' must stay positive on the grid")


def profile_radius(geom: TorusGeometry, x):
    """R, R', R'' of the profile R(x) = c + a cos x."""
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    return geom.radius(x), -geom.a * np.sin(x), -geom.a * np.cos(x)


def christoffel(geom: TorusGeometry, x):
    """Nonzero Christoffel symbols (Gamma^1_22, Gamma^2_12) of the surface metric."""
    r = geom.checked_radius(x)
    g1_22 = (1.0 / geom.a) * r * np.sin(x)
    g2_12 = -geom.a * np.sin(x) / r
    return g1_22, g2_12


def spin_connection_coeff(geom: TorusGeometry, x):
    """Scalar s(x) with Gamma_2 = gamma_1 gamma_2 s(x); equals Gamma^2_12 / 2."""
    return -geom.a * np.sin(x) / (2.0 * geom.checked_radius(x))


def effective_coefficients(geom, mode: ModeParams, x, vf, vf_prime):
    """Zeroth-order coefficient U_1(x) or U_2(x) of the separated equation.

    vf is the Fermi-velocity profile V_F(x) and vf_prime its derivative (both
    callables).  The two components differ in the signs of the two k-linear
    terms; the last term carries 1/V_F only for component 2.
    """
    r = geom.checked_radius(x)
    _, rp, rpp = profile_radius(geom, x)
    v = vf(x)
    if np.any(np.asarray(v) <= 0.0):
        raise InvalidVelocity("Fermi velocity must be positive")
    vp = vf_prime(x)
    a, k = geom.a, mode.k
    common = (- rp**2 * a**2 / (4.0 * r**4)
              - rp**2 * a / r**3
              + rp * vp * a / (2.0 * r**2 * v)
              + k**2 * a**4 / r**4)
    if mode.component == 1:
        return (common
                - 2.0 * k * rp * a**2 / r**3
                + k * vp * a**2 / (r**2 * v)
                + rpp * a / (2.0 * r**2))
    return (common
            + 2.0 * k * rp * a**2 / r**3
            - k * vp * a**2 / (r**2 * v)
            + rpp * a / (2.0 * r**2 * v))


def solve_g_transform(geom, mode: ModeParams, target, grid, h0=1.0):
    """Find g with g' > 0 whose reduced potential matches the target on the grid.

    In w = 1/g'^2 the defining condition is linear:
        component 1:  w' = -2 p(x) w + 2 V R^2 / (a^2 k),  p = a^2 k/R^2 - 2R'/R
        component 2:  w' = +2 q(x) w - 2 V R^2 / (a^2 k),  q = a^2 k/R^2 + 2R'/R
    that is w' = alpha w + beta, with w = 1/h0^2 at the grid midpoint.  It is
    solved exactly across each grid interval by its integrating factor,
        w(x1) = e^(int_x0^x1 alpha) w(x0) + int_x0^x1 e^(int_t^x1 alpha) beta(t) dt,
    both integrals by 8-point Gauss-Legendre (see _interval_maps), and the
    interval maps are chained outward from the midpoint.  target is any
    callable of an array of points; it is called once.  k = 0 makes every
    term of the reduced potential vanish, so only a target that is 0 at every
    grid point is representable (DegenerateMode otherwise), and g' = h0.
    BlowUp is raised as soon as w leaves (1e-280, 1e280).  The grid must be
    finite, strictly increasing and interior to (0, pi), and h0 finite and
    positive (DomainError otherwise); it need not be uniform.
    """
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise DomainError("grid must be a 1D array with at least 3 points")
    if not np.all(np.isfinite(x)):
        raise DomainError("grid points must be finite")
    if np.any(x <= 0.0) or np.any(x >= math.pi):
        raise DomainError("grid must be interior to (0, pi)")
    if np.any(np.diff(x) <= 0.0):
        raise DomainError("grid must be strictly increasing")
    if not (0.0 < h0 < math.inf):
        raise DomainError("initial slope h0 must be finite and positive")

    if mode.k == 0.0:
        if not np.all(target(x) == 0.0):
            raise DegenerateMode(
                "k = 0 zeroes the reduced potential; nonzero targets unreachable")
        h = np.full_like(x, h0)
    else:
        nodes, weights, left = _gauss_legendre()
        half = 0.5 * np.diff(x)
        alpha, beta = _ode_coefficients(
            geom, mode, target, 0.5 * (x[:-1] + x[1:])[:, None] + half[:, None] * nodes)

        # rightward from the midpoint each interval is left by its right end;
        # leftward it is left by its left end, with the step taken negative
        i_mid = x.size // 2
        up, down = slice(i_mid, None), slice(None, i_mid)
        gain_up, force_up = _interval_maps(alpha[up], beta[up], half[up],
                                           weights - left, weights)
        gain_down, force_down = _interval_maps(alpha[down], beta[down],
                                               -half[down], left, weights)

        w_mid = 1.0 / (h0 * h0)
        w = np.array(_chain(w_mid, gain_down[::-1], force_down[::-1])[::-1]
                     + [w_mid] + _chain(w_mid, gain_up, force_up))
        h = 1.0 / np.sqrt(w)
    return TransformResult(x=x, g_prime=h, fermi_velocity=1.0 / h,
                           prefactor=prefactor_f(geom, x))


def _ode_coefficients(geom, mode, target, t):
    """alpha and beta of w' = alpha w + beta at the points t."""
    a, k = geom.a, mode.k
    sign = 1.0 if mode.component == 1 else -1.0
    beta = sign * 2.0 * target(t)
    r = geom.checked_radius(t)
    # -sign 2 (a^2 k / R^2 - sign 2 R'/R) and sign 2 V R^2 / (a^2 k)
    term = np.sin(t) * -a * (sign * 2.0) / r
    alpha = (a * a * k / (r * r) - term) * (-sign * 2.0)
    return alpha, beta * r * r / (a * a * k)


@functools.cache
def _gauss_legendre():
    """8-point Gauss-Legendre nodes and weights on [-1, 1], and left[i, m],
    the integral from -1 to node i of the Lagrange basis polynomial of node m.

    Built on first use, so importing the package does not load
    numpy.polynomial.  Each Lagrange polynomial is expanded in Legendre
    polynomials by the rule itself, which is exact for their degree.
    """
    from numpy.polynomial import legendre

    nodes, weights = legendre.leggauss(_GL_POINTS)
    vander = legendre.legvander(nodes, _GL_POINTS - 1)
    coef = vander.T * weights * (np.arange(_GL_POINTS) + 0.5)[:, None]
    left = legendre.legvander(nodes, _GL_POINTS) @ legendre.legint(coef, lbnd=-1)
    return nodes, weights, left


def _interval_maps(alpha, beta, half, part, weights):
    """Gain e^(int alpha) and forcing int e^(int_t^end alpha) beta dt of
    w' = alpha w + beta across each interval, from the values at its nodes.

    half is half of each interval's length, negative for a map that runs
    leftward, and part[i, m] the integral of the Lagrange polynomial of node
    m over the stretch of [-1, 1] between node i and the end the map leaves
    by.  Overflow gives inf or nan, which _chain reports as BlowUp.
    """
    inner = (alpha @ part.T) * half[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        gain = np.exp(half * (alpha @ weights))
        forcing = half * ((np.exp(inner) * beta) @ weights)
    return gain.tolist(), forcing.tolist()


def _chain(w, gains, forces):
    """w carried through the interval maps in turn, one value per map;
    BlowUp as soon as it leaves (1e-280, 1e280)."""
    out = []
    for gain, force in zip(gains, forces):
        w = gain * w + force
        if not _W_FLOOR < w < _W_CEIL:
            raise BlowUp("g' left (0, inf) inside the grid")
        out.append(w)
    return out


def reduced_potential_grid(geom, mode: ModeParams, transform: TransformResult):
    """Reduced potential on the interior nodes, g'' from special.grid_derivative,
    so the transform's grid must be uniform (DomainError otherwise).

    Component 1:  V = a^4 k^2/(R^4 g'^2) - 2 a^2 k R'/(R^3 g'^2) - a^2 k g''/(R^2 g'^3);
    component 2 flips the signs of the last two terms.
    """
    x, h = transform.x, transform.g_prime
    gpp = grid_derivative(h, x)[1:-1]
    x, h = x[1:-1], h[1:-1]
    a, k = geom.a, mode.k
    r = geom.checked_radius(x)
    rp = -a * np.sin(x)
    sign = 1.0 if mode.component == 1 else -1.0
    return (a**4 * k**2 / (r**4 * h**2)
            - sign * 2.0 * a**2 * k * rp / (r**3 * h**2)
            - sign * a**2 * k * gpp / (r**2 * h**3))


def prefactor_f(geom: TorusGeometry, x):
    """Row-reduction prefactor f(x) = e^(-a/2R); with V_F = 1/g' the C1 e/sqrt
    form collapses to this pure exponential."""
    return np.exp(-geom.a / (2.0 * geom.checked_radius(x)))
