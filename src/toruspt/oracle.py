"""Independent finite-difference Sturm-Liouville eigensolver.

This module is the ground truth against which every closed-form spectrum and
eigenfunction claim is checked, so it deliberately shares no code with the
analytic side: the operator -d^2/dx^2 + V is discretized with the standard
second-order stencil under Dirichlet conditions.  The lowest eigenvalues come
from Sturm-count bisection and the eigenvectors from inverse iteration, both
compiled: LAPACK stebz and stein through scipy.linalg.eigh_tridiagonal.

Singular potential endpoints (the csc^2 walls at 0 and pi) are handled by
truncating the domain slightly inside (0, pi).  The cutoff sets the accuracy:
the level error grows as x_lo^2 and, at x_lo = 0.002, plateaus near 1e-5
relative however fine the grid (1.15e-5 at 4000 nodes, 1.30e-5 at 16000, for
the PT family A = -2, B = 0.5).  Potentials whose endpoint 1/x^2 coefficient
falls below the Friedrichs bound -1/4 are rejected: below the bound the
operator has no unique self-adjoint extension and a Dirichlet spectrum would
be an artifact of the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

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
    "eigenpairs",
    "solve_potential",
    "isospectral_check",
    "spectrum_report",
    "check_friedrichs",
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

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


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


def _lowest(m: SymTridiagonal, n_eigs: int, eigvals_only: bool):
    """LAPACK stebz (Sturm bisection), plus stein (inverse iteration) for vectors."""
    if not 1 <= n_eigs <= m.n:
        raise DomainError("need 1 <= n_eigs <= matrix dimension")
    try:
        return eigh_tridiagonal(m.diag, m.offdiag, eigvals_only=eigvals_only,
                                select="i", select_range=(0, n_eigs - 1),
                                lapack_driver="stebz")
    except LinAlgError as exc:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc


def lowest_eigenvalues(m: SymTridiagonal, n_eigs: int):
    """The n_eigs smallest eigenvalues, ascending, by Sturm-count bisection.

    Deterministic.  Raises ConvergenceFailure if LAPACK reports that the
    bisection failed to converge.
    """
    return _lowest(m, n_eigs, eigvals_only=True)


def eigenpairs(m: SymTridiagonal, n_eigs: int, grid: Grid1D):
    """Lowest eigenvalues with inverse-iteration eigenvectors.

    Vectors have unit discrete L2 norm (h-weighted), first component of
    appreciable size positive, and relative residual ||Mv - eps v|| / ||v||
    below 1e-10 * ||M||.
    """
    vals, vecs = _lowest(m, n_eigs, eigvals_only=False)
    h = grid.h
    scale = float(np.max(np.abs(m.diag)) + 2.0 * np.max(np.abs(m.offdiag)))
    for j, lam in enumerate(vals):
        v = vecs[:, j] / np.linalg.norm(vecs[:, j])
        resid = np.linalg.norm(m.matvec(v) - lam * v)
        if resid > 1e-10 * scale:
            raise ConvergenceFailure(
                f"inverse iteration residual {resid:.2e} too large for level {j}")
        big = np.nonzero(np.abs(v) > 0.1 * np.max(np.abs(v)))[0][0]
        if v[big] < 0.0:
            v = -v
        vecs[:, j] = v / math.sqrt(h)
    return vals, vecs


def solve_potential(v_vals, grid: Grid1D, n_eigs: int):
    """Convenience path: gate, build, and solve for the lowest eigenvalues."""
    check_friedrichs(v_vals, grid)
    return lowest_eigenvalues(build_hamiltonian(v_vals, grid), n_eigs)


def isospectral_check(v_minus, v_plus, grid: Grid1D, n_levels: int) -> EigenReport:
    """Compare spec(V+)[0..m-1] with spec(V-)[1..m] level by level, with
    relative and absolute tolerance 5e-3."""
    return spectrum_report("isospectral", {"levels": n_levels},
                           solve_potential(v_minus, grid, n_levels + 1)[1:],
                           v_plus, grid, 5e-3, 5e-3)


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
