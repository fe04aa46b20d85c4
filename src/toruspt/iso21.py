"""Modified iso(2,1) generators, closure constraints, and the Casimir spectrum.

The algebra is realized on sectors psi(x) e^{i mu phi} by first-order
operators

    J+-^(nu) = i [ +-d/dx + ((nu +- 1/2) S(x) - T(x)) + U(x, nu +- 1/2) ],

with S = -cot x, T = B1 csc x and the rational modification functions
U(x, mu+1/2) = U1 = -K1 sin x / (c + a cos x),
U(x, mu-1/2) = U2 = +K2 sin x / (c + a cos x),
which are susy.sin_tail at lambda = -K1 and lambda = +K2.

Note the sign in front of ((nu +- 1/2) S - T): the printed form of the
operators carries the opposite sign, which fails its own commutation
relations for the printed S and T; the sign used here is the one under
which [J+, J-] = -2 J3 closes and the Casimir potential reproduces its
published closed form (both are verified numerically in the suite).

Closure with the modification terms holds iff the pair of Riccati
identities

    R1 = U1^2 - U1' + 2 U1 ((mu  + 1/2) S - T) = 0
    R2 = U2^2 + U2' + 2 U2 ((mu1 + 1/2) S - T) = 0,   mu1 = mu + 1,

vanishes; the closure conditions tie B1 = -(c+K1)/(2c), mu = K1/(2c) - 1/2,
a = c, K2 = -K1 - 2c, and make both identities exact.

The Casimir spectrum is the SUSY partner tower of the sin-tail family under
A = -mu - 1/2, B = -B1, lambda = -K1 (susy_family), shifted by
(mu + 1/2)^2 - 1/4 (casimir_shift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooCoarse
from .geometry import TorusGeometry
from .special import uniform_step
from .susy import RationalSin, analytic_spectrum, sin_tail

__all__ = [
    "AlgebraParams",
    "st_functions",
    "constraint_residual_77",
    "closure_riccati_residuals",
    "casimir_potential",
    "susy_family",
    "casimir_shift",
    "sector_operator",
    "commutator_residual",
    "algebra_spectrum",
    "energy_scalings",
]


@dataclass(frozen=True)
class AlgebraParams:
    """Parameters (B1, mu, K1, K2) of the modified generators on geom."""

    B1: float
    mu: float
    K1: float
    K2: float
    geom: TorusGeometry

    @property
    def mu1(self) -> float:
        """mu + 1, the label in the second Riccati identity."""
        return self.mu + 1.0

    @classmethod
    def from_closure(cls, c: float, K1: float) -> "AlgebraParams":
        """Build the unique closing parameter set for given c and K1."""
        mu = K1 / (2.0 * c) - 0.5
        return cls(B1=-(c + K1) / (2.0 * c), mu=mu, K1=K1, K2=-K1 - 2.0 * c,
                   geom=TorusGeometry(a=c, c=c))


def st_functions(B1: float, x):
    """(S, T) = (-cot x, B1 csc x); S' - S^2 = 1 and T' - S T = 0 identically."""
    sx = np.sin(x)
    return -np.cos(x) / sx, B1 / sx


def closure_riccati_residuals(p: AlgebraParams, grid):
    """Max of |R1| and |R2| over the grid (the two identities behind closure)."""
    r1, r2 = _riccati_fields(p, grid)
    return float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))


def constraint_residual_77(p: AlgebraParams, grid) -> float:
    """Max grid residual of the closure constraint (difference form R1 - R2).

    The printed constraint reads
      U1^2 - U1' + 2U1(F(mu+1/2) - G) - (U2^2 - U2' + 2U2(F mu1 - G)) = 0
    with undefined F, G; taking F := S, G := T and correcting the inner sign
    on U2' and the coefficient mu1 -> mu1 + 1/2 yields R1 - R2, which
    vanishes exactly under the closure conditions and is O(perturbation)
    otherwise.
    """
    r1, r2 = _riccati_fields(p, grid)
    return float(np.max(np.abs(r1 - r2)))


def _riccati_fields(p: AlgebraParams, grid):
    x = np.asarray(grid, dtype=float)
    s, t = st_functions(p.B1, x)
    u1, u1p = sin_tail(-p.K1, p.geom, x)
    u2, u2p = sin_tail(p.K2, p.geom, x)
    r1 = u1 * u1 - u1p + 2.0 * u1 * ((p.mu + 0.5) * s - t)
    r2 = u2 * u2 + u2p + 2.0 * u2 * ((p.mu1 + 0.5) * s - t)
    return r1, r2


def casimir_potential(p: AlgebraParams, x):
    """Potential part of the Casimir operator J^2 = -d^2/dx^2 + V(x):

    V = -1/4 + 2 B1 mu cot x csc x + (mu^2 + B1^2 - 1/4) csc^2 x
        + 2 K1 (B1 + (mu+1) cos x)/(c + a cos x)
        + K1 (a + K1) sin^2 x/(c + a cos x)^2.
    """
    a = p.geom.a
    r = p.geom.checked_radius(x)
    sx = np.sin(x)
    return (-0.25
            + 2.0 * p.B1 * p.mu * np.cos(x) / sx**2
            + (p.mu * p.mu + p.B1 * p.B1 - 0.25) / sx**2
            + 2.0 * p.K1 * (p.B1 + (p.mu + 1.0) * np.cos(x)) / r
            + p.K1 * (a + p.K1) * sx**2 / r**2)


def susy_family(p: AlgebraParams) -> RationalSin:
    """The sin-tail family whose minus partner is the Casimir potential up to
    a constant: A = -mu - 1/2, B = -B1, lambda = -K1 on the same torus."""
    return RationalSin(A=-p.mu - 0.5, B=-p.B1, lam=-p.K1, geom=p.geom)


def casimir_shift(p: AlgebraParams) -> float:
    """Constant (mu + 1/2)^2 - 1/4 by which the Casimir potential exceeds the
    minus partner of susy_family(p); subtracting it puts the ground level at 0."""
    half = p.mu + 0.5
    return half * half - 0.25


def _u_for_label(p: AlgebraParams, label: float):
    """The sin-tail lambda of U(x, q): q = mu + 1/2 names U1 (lambda = -K1),
    q = mu - 1/2 names U2 (lambda = +K2)."""
    if abs(label - (p.mu + 0.5)) < 1e-9:
        return -p.K1
    if abs(label - (p.mu - 0.5)) < 1e-9:
        return p.K2
    raise DomainError(
        "modification function is defined only for labels mu +- 1/2")


def sector_operator(p: AlgebraParams, mu_sector: float, direction: str, grid):
    """J+ or J- restricted to the e^{i mu_sector phi} sector, as a function of psi.

    The derivative is a central difference (one-sided second order at the
    two boundary rows) with the step special.uniform_step(grid), so the grid
    must be uniform (DomainError otherwise); at least 256 points are
    required.  The returned function applies i (+-D + diag(label S - T + U))
    to psi by numpy slices and builds no matrix, so importing or calling it
    loads no scipy.  Each
    row sums its three products in column order (i-1, i, i+1), the end rows
    with the diagonal stencil weight and multiplication term added first,
    as a CSR matvec of the same matrix does, so the two agree bit for bit.
    A 2-D psi is applied column by column: op(np.eye(n)) is the dense matrix.
    J3 is the scalar mu_sector on the sector, so [J3, J+-] = +-J+- holds by
    bookkeeping.
    """
    x = np.asarray(grid, dtype=float)
    n = x.size
    if n < 256:
        raise GridTooCoarse("sector operators need at least 256 grid points")
    step = uniform_step(x)
    if direction == "raise":
        sgn, label = 1.0, mu_sector + 0.5
    elif direction == "lower":
        sgn, label = -1.0, mu_sector - 0.5
    else:
        raise DomainError("direction must be 'raise' or 'lower'")
    s, t = st_functions(p.B1, x)
    diag = label * s - t + sin_tail(_u_for_label(p, label), p.geom, x)[0]
    lo, hi = sgn * (-0.5 / step), sgn * (0.5 / step)
    first = (sgn * (-1.5 / step) + diag[0], sgn * (2.0 / step), sgn * (-0.5 / step))
    last = (sgn * (0.5 / step), sgn * (-2.0 / step), sgn * (1.5 / step) + diag[-1])

    def apply(psi):
        psi = np.asarray(psi)
        mid = diag[1:-1] if psi.ndim == 1 else diag[1:-1, None]
        out = np.empty(psi.shape, dtype=np.result_type(psi, 1.0))
        out[1:-1] = lo * psi[:-2] + mid * psi[1:-1] + hi * psi[2:]
        out[0] = first[0] * psi[0] + first[1] * psi[1] + first[2] * psi[2]
        out[-1] = last[0] * psi[-3] + last[1] * psi[-2] + last[2] * psi[-1]
        return 1j * out

    return apply


def commutator_residual(p: AlgebraParams, n_points: int, build=sector_operator):
    """(raw, after_defect): relative residuals ||r|| / ||psi|| of the sector
    commutator, r = ([J+, J-] + 2 J3) psi on the mu sector, before and after
    removing the 4 S U2 psi multiplication defect the modification terms
    leave.  On the backbone (K2 = 0) the defect is 0 and the two are equal.

    The sector operators act on a fixed smooth bump psi that vanishes at both
    ends of [lo, hi] = [0.2, pi - 0.2] (n_points nodes).  build(p, mu_sector,
    direction, grid) makes each of the four; sector_operator by default.
    """
    lo, hi = 0.2, math.pi - 0.2
    xg = np.linspace(lo, hi, n_points)
    jp_m1 = build(p, p.mu - 1.0, "raise", xg)
    jm_mu = build(p, p.mu, "lower", xg)
    jm_p1 = build(p, p.mu + 1.0, "lower", xg)
    jp_mu = build(p, p.mu, "raise", xg)
    psi = np.sin(np.pi * (xg - lo) / (hi - lo)) ** 2 \
        * (0.7 + 0.3 * np.sin(3.0 * (xg - lo) + 1.0))
    lhs = jp_m1(jm_mu(psi)) - jm_p1(jp_mu(psi))
    resid = lhs + 2.0 * p.mu * psi
    s, _ = st_functions(p.B1, xg)
    defect = 4.0 * s * sin_tail(p.K2, p.geom, xg)[0] * psi
    norm = np.linalg.norm(psi)
    return (float(np.linalg.norm(resid) / norm),
            float(np.linalg.norm(resid - defect) / norm))


def algebra_spectrum(p: AlgebraParams, n: int):
    """(eps, E): eps(n) = susy.analytic_spectrum(susy_family(p), n), which is
    (n + mu + 1/2)^2 - (mu + 1/2)^2, and E = sqrt(eps)/a, energy_scalings'
    E_eq89, the published 1/a scaling.

    eps is the 1D operator eigenvalue (the Casimir spectrum shifted so the
    ground level sits at zero).  The partner tower's rules hold: a level
    n < 0 is a DomainError and a negative eps is OutOfRange.  For K1 != 0,
    p must be the closing set from_closure(c, K1) within rounding (_closes),
    and closure implies the tower's cancellation conditions.  Cancellation
    alone is not enough: off closure at its free-c root (A = 1/2, B = 0)
    the Casimir potential is not the tower's.  The DomainError of a set
    that fails names the closing set of its K1 and c.  K1 = 0 leaves no
    rational part, and no gate.
    """
    if p.K1 != 0.0 and not _closes(p):
        q = AlgebraParams.from_closure(p.geom.c, p.K1)
        raise DomainError(
            f"the parameters fail the closure conditions; the closing set for "
            f"K1 = {p.K1!r} and c = {p.geom.c!r} is mu = K1/(2c) - 1/2 = "
            f"{q.mu!r}, B1 = -(c + K1)/(2c) = {q.B1!r}, a = c = {q.geom.a!r}, "
            f"K2 = -K1 - 2c = {q.K2!r}")
    eps = analytic_spectrum(susy_family(p), n)
    return eps, energy_scalings(eps, p.geom.a)["E_eq89"]


def _closes(p: AlgebraParams) -> bool:
    """True if a, mu, B1 and K2 are those of from_closure(c, K1), each equal
    or within 1e-12 of the size of the terms that make it up."""
    q = AlgebraParams.from_closure(p.geom.c, p.K1)
    c, half_r = abs(p.geom.c), abs(p.K1 / (2.0 * p.geom.c))
    return all(mine == want or abs(mine - want) <= 1e-12 * size < math.inf
               for mine, want, size in ((p.geom.a, q.geom.a, c),
                                        (p.mu, q.mu, half_r + 0.5),
                                        (p.B1, q.B1, half_r + 0.5),
                                        (p.K2, q.K2, abs(p.K1) + 2.0 * c)))


def energy_scalings(eps: float, a: float) -> dict:
    """Both published physical-energy scalings of the same eps, side by side.

    DomainError where E_eq37 = sqrt(eps)/a^2 has no double value: a * a
    underflows to 0 (|a| below about 1.6e-162), or a finite sqrt(eps) over
    a * a overflows (a tiny a, such as 1e-160, at eps > 0)."""
    if a * a == 0.0:
        raise DomainError(f"a = {a!r}: a * a underflows, so sqrt(eps)/a^2 is "
                          "not a double")
    root = math.sqrt(max(eps, 0.0))
    e37 = root / (a * a)
    if e37 == math.inf and root < math.inf:
        raise DomainError(f"a = {a!r}: sqrt(eps)/a^2 overflows, so it is not "
                          "a double")
    return {"E_eq37": e37, "E_eq89": root / a}
