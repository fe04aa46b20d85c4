"""Independent Sturm-Liouville eigensolvers: Chebyshev collocation and finite
differences.

Both read only samples of the potential V and share no code with the analytic
side, so they can check every closed-form spectrum and eigenfunction claim.

Chebyshev collocation is the oracle of the verify suite.  It estimates each
wall's 1/x^2 coefficient c from V alone, by Neville extrapolation of
d^2 V(d) to d = 0 from d = 1e-2 2^-k, k = 0..7, and takes the principal
Frobenius exponent s = 1/2 + sqrt(1/4 + c) (the Friedrichs realisation,
including the log case c = -1/4).  Writing psi = x^p (pi - x)^q phi with
those exponents leaves an equation for a smooth phi, collocated at N = 32
Chebyshev-Gauss points with barycentric differentiation matrices (Berrut and
Trefethen, SIAM Review 46 (2004) 501) and solved as one dense eigenproblem.
A polynomial phi cannot hold the second Frobenius solution, so the exponents
alone choose the realisation.  Where V is analytic after its 1/x^2 terms the
levels are right to about 1e-12 (9.3e-15 for levels 1-4 of the PT family
A = -2, B = 0.5) at about 0.5 ms a solve.  Coefficients below the Friedrichs
bound -1/4 are rejected: the operator then has no distinguished self-adjoint
realisation.

The finite-difference solver serves the spectrum command, whose
--x-lo/--x-hi/--n-points flags define its grid: the operator
-d^2/dx^2 + V is discretized with the standard second-order stencil under
Dirichlet conditions, and the lowest eigenvalues come from LAPACK stebz
(Sturm-count bisection) through scipy.linalg.eigh_tridiagonal, imported on
the first solve.  The singular walls are handled by truncating the domain
slightly inside (0, pi), and the cutoff sets the accuracy: the level error
grows as x_lo^2 and, at x_lo = 0.002, plateaus near 1e-5 relative however
fine the grid (1.15e-5 at 4000 nodes, 1.30e-5 at 16000, for the PT family
A = -2, B = 0.5).  Its Friedrichs gate reads the two nodes nearest each wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DomainError,
    IllPosedPotential,
    NonFinitePotential,
)

__all__ = [
    "Grid1D",
    "SymTridiagonal",
    "EigenReport",
    "build_hamiltonian",
    "lowest_eigenvalues",
    "solve_potential",
    "spectrum_report",
    "check_friedrichs",
    "COLLOCATION_NODES",
    "collocation_levels",
    "collocation_eigenpairs",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid with Dirichlet endpoints at x_lo and x_hi.

    n_points counts the interior nodes (the matrix dimension); spacing is
    h = (x_hi - x_lo) / (n_points + 1).
    """

    x_lo: float
    x_hi: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.x_lo < self.x_hi < math.pi):
            raise DomainError("grid must satisfy 0 < x_lo < x_hi < pi")
        if self.n_points < 64:
            raise DomainError("grid needs at least 64 interior points")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n_points + 1)

    @property
    def points(self) -> np.ndarray:
        return self.x_lo + self.h * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if self.offdiag.shape[0] != self.diag.shape[0] - 1:
            raise DomainError("offdiag must have length n-1")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def toarray(self) -> np.ndarray:
        m = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        return m


@dataclass
class EigenReport:
    """Comparison of a reference spectrum against the finite-difference one."""

    case: str
    params: dict
    levels: list  # rows {n, eps_analytic, eps_numeric, abs_err, rel_err}
    rel_tol: float
    abs_tol: float
    max_rel_err: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        rels = [row["rel_err"] for row in self.levels if row["rel_err"] is not None]
        self.max_rel_err = max(rels) if rels else 0.0
        ok = True
        for row in self.levels:
            if row["rel_err"] is None:
                ok &= row["abs_err"] <= self.abs_tol
            else:
                ok &= row["rel_err"] <= self.rel_tol
        self.passed = ok

    def to_json_obj(self) -> dict:
        return {
            "case": self.case,
            "params": self.params,
            "levels": self.levels,
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
        }


def build_hamiltonian(v_vals, grid: Grid1D) -> SymTridiagonal:
    """Central-difference matrix of -d^2/dx^2 + V with Dirichlet conditions."""
    v = np.asarray(v_vals, dtype=float)
    if v.shape != (grid.n_points,):
        raise DomainError("potential samples must match the interior grid")
    if not np.all(np.isfinite(v)):
        raise NonFinitePotential("potential has non-finite samples on the grid")
    h2 = grid.h * grid.h
    return SymTridiagonal(diag=2.0 / h2 + v,
                          offdiag=np.full(grid.n_points - 1, -1.0 / h2))


def check_friedrichs(v_vals, grid: Grid1D) -> None:
    """Reject potentials below the -1/4 endpoint bound (ill-posed oracle input).

    The 1/x^2 coefficient is estimated from the two grid nodes nearest each
    singular endpoint (0 and pi); for a regular potential the estimate is
    ~V*x^2 -> 0 and the gate passes.  Coefficients within 0.01 of the bound
    are rejected too.
    """
    v = np.asarray(v_vals, dtype=float)
    x = grid.points
    c_lo = min(v[0] * x[0] ** 2, v[1] * x[1] ** 2)
    c_hi = min(v[-1] * (math.pi - x[-1]) ** 2, v[-2] * (math.pi - x[-2]) ** 2)
    c = min(c_lo, c_hi)
    if c < -0.25 + 0.01:
        raise IllPosedPotential(
            f"endpoint 1/x^2 coefficient {c:.4f} below Friedrichs bound -1/4")


def lowest_eigenvalues(m: SymTridiagonal, n_eigs: int):
    """The n_eigs smallest eigenvalues, ascending, by Sturm-count bisection.

    Deterministic.  Raises ConvergenceFailure if LAPACK reports that the
    bisection failed to converge.
    """
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    if not 1 <= n_eigs <= m.n:
        raise DomainError("need 1 <= n_eigs <= matrix dimension")
    try:
        return eigh_tridiagonal(m.diag, m.offdiag, eigvals_only=True,
                                select="i", select_range=(0, n_eigs - 1),
                                lapack_driver="stebz")
    except LinAlgError as exc:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc


def solve_potential(v_vals, grid: Grid1D, n_eigs: int):
    """Convenience path: gate, build, and solve for the lowest eigenvalues."""
    check_friedrichs(v_vals, grid)
    return lowest_eigenvalues(build_hamiltonian(v_vals, grid), n_eigs)


def spectrum_report(case: str, params: dict, eps_analytic, v_vals, grid: Grid1D,
                    rel_tol: float = 5e-3, abs_tol: float = 0.01) -> EigenReport:
    """EigenReport for an analytic eps list against the oracle spectrum."""
    eps_analytic = [float(e) for e in eps_analytic]
    eps_numeric = solve_potential(v_vals, grid, len(eps_analytic))
    rows = []
    for n, (ref, got) in enumerate(zip(eps_analytic, eps_numeric)):
        abs_err = abs(got - ref)
        rel = abs_err / abs(ref) if abs(ref) > 1e-9 else None
        rows.append({"n": n, "eps_analytic": ref, "eps_numeric": float(got),
                     "abs_err": float(abs_err),
                     "rel_err": float(rel) if rel is not None else None})
    return EigenReport(case=case, params=params, levels=rows,
                       rel_tol=rel_tol, abs_tol=abs_tol)


# --------------------------------------------------------------------------
# Chebyshev collocation on the Frobenius-factored problem
# --------------------------------------------------------------------------

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


def _collocate(v, n_levels: int, vectors: bool):
    """(levels, phi at the nodes or None, p, q) for psi = x^p (pi - x)^q phi."""
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
    x, y = _NODES, math.pi - _NODES + _PI_LO
    # -phi'' - 2 (p/x - q/y) phi' + (V - c0/x^2 - c1/y^2 + 2pq/(xy)) phi
    # = eps phi, with c0 = p(p - 1) and c1 = q(q - 1)
    drift = 2.0 * (p / x - q / y)
    rest = vals[2 * k:] - p * (p - 1.0) / x**2 - q * (q - 1.0) / y**2 \
        + 2.0 * p * q / (x * y)
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

    psi[:, j] is x^p (pi - x)^q times the barycentric interpolant of the
    collocated phi_j, scaled to unit maximum with its first sample above a
    tenth of that maximum positive.  x must lie in (0, pi).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= math.pi):
        raise DomainError("x must lie in the open interval (0, pi)")
    levels, phi, p, q = _collocate(v, n_levels, vectors=True)
    weights = x[:, None] - _NODES
    hit = weights == 0.0
    weights[hit] = 1.0
    np.divide(_BARY, weights, out=weights)
    on_node = hit.any(axis=1)
    weights[on_node] = hit[on_node]     # a sample on a node takes its value
    phi_x = (weights @ phi) / weights.sum(axis=1)[:, None]
    psi = (x**p * (math.pi - x + _PI_LO) ** q)[:, None] * phi_x
    for j in range(n_levels):
        col = psi[:, j] / np.max(np.abs(psi[:, j]))
        big = np.nonzero(np.abs(col) > 0.1)[0][0]
        psi[:, j] = col if col[big] > 0.0 else -col
    return levels, psi
