"""Finite-difference eigensolver against textbook and dense-solver oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from toruspt import oracle
from toruspt.errors import (
    ConvergenceFailure,
    DomainError,
    IllPosedPotential,
    NonFinitePotential,
)
from toruspt.oracle import (
    Grid1D,
    SymTridiagonal,
    build_hamiltonian,
    check_friedrichs,
    eigenpairs,
    isospectral_check,
    lowest_eigenvalues,
    solve_potential,
    spectrum_report,
)

BOX = Grid1D(1e-6, math.pi - 1e-6, 2000)


def test_grid_invariants():
    with pytest.raises(DomainError):
        Grid1D(0.0, 1.0, 100)
    with pytest.raises(DomainError):
        Grid1D(0.1, math.pi, 100)
    with pytest.raises(DomainError):
        Grid1D(0.1, 1.0, 32)
    g = Grid1D(0.5, 1.5, 100)
    assert g.points.shape == (100,)
    assert g.points[0] == pytest.approx(0.5 + g.h)


def test_box_spectrum():
    # particle in a box: eps_n = (n+1)^2 up to the tiny endpoint truncation
    vals = lowest_eigenvalues(build_hamiltonian(np.zeros(2000), BOX), 4)
    for n in range(4):
        assert vals[n] == pytest.approx((n + 1.0) ** 2, rel=1e-3)


def test_box_convergence_order():
    # error against the truncated-domain value falls ~4x per refinement
    length = BOX.x_hi - BOX.x_lo
    exact = (math.pi / length) ** 2
    errs = []
    for n_pts in (500, 1000, 2000):
        g = Grid1D(BOX.x_lo, BOX.x_hi, n_pts)
        val = lowest_eigenvalues(build_hamiltonian(np.zeros(n_pts), g), 1)[0]
        errs.append(abs(val - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_two_by_two_analytic():
    m = SymTridiagonal(np.array([2.0, 2.0]), np.array([-1.0]))
    np.testing.assert_allclose(lowest_eigenvalues(m, 2), [1.0, 3.0], atol=1e-12)


def test_matrix_symmetry_and_finite_check():
    m = build_hamiltonian(np.zeros(100), Grid1D(0.1, 3.0, 100))
    dense = m.toarray()
    assert np.array_equal(dense, dense.T)
    with pytest.raises(NonFinitePotential):
        build_hamiltonian(np.full(100, np.inf), Grid1D(0.1, 3.0, 100))


def test_dense_oracle_agreement():
    rng = np.random.default_rng(17)
    d = rng.standard_normal(200) * 3.0
    e = rng.standard_normal(199)
    m = SymTridiagonal(d, e)
    mine = lowest_eigenvalues(m, 8)
    dense = np.linalg.eigvalsh(m.toarray())[:8]
    np.testing.assert_allclose(mine, dense, atol=1e-10)
    assert np.all(np.diff(mine) >= 0.0)


def test_pt_hamiltonian_dense_solver_agreement():
    grid = Grid1D(0.002, math.pi - 0.002, 2000)
    x = grid.points
    m = build_hamiltonian(2.25 / np.sin(x) ** 2 - 1.5 * np.cos(x) / np.sin(x) ** 2,
                          grid)
    mine = lowest_eigenvalues(m, 6)
    dense = np.linalg.eigvalsh(m.toarray())[:6]
    # bisection to full precision: a few ulps of the matrix norm
    norm = float(np.max(np.abs(m.diag)) + 2.0 * np.max(np.abs(m.offdiag)))
    np.testing.assert_allclose(mine, dense, rtol=0.0,
                               atol=64.0 * np.finfo(float).eps * norm)


def test_lapack_failure_maps_to_convergence_failure(monkeypatch):
    def failing(*args, **kwargs):
        raise LinAlgError("stein did not converge")

    monkeypatch.setattr(oracle, "eigh_tridiagonal", failing)
    grid = Grid1D(0.1, 3.0, 100)
    m = build_hamiltonian(np.zeros(100), grid)
    with pytest.raises(ConvergenceFailure):
        eigenpairs(m, 3, grid)
    with pytest.raises(ConvergenceFailure):
        lowest_eigenvalues(m, 3)
    with pytest.raises(DomainError):
        lowest_eigenvalues(m, 0)


def test_eigenpairs_box_shape_residual_orthogonality():
    grid = Grid1D(1e-6, math.pi - 1e-6, 1000)
    m = build_hamiltonian(np.zeros(1000), grid)
    vals, vecs = eigenpairs(m, 3, grid)
    s = np.sin(grid.points)
    cos = abs(s @ vecs[:, 0]) / (np.linalg.norm(s) * np.linalg.norm(vecs[:, 0]))
    assert 1.0 - cos < 1e-6
    for j in range(3):
        v = vecs[:, j]
        assert np.linalg.norm(m.matvec(v) - vals[j] * v) / np.linalg.norm(v) < 1e-8
        # unit discrete L2 norm and positive leading lobe
        assert grid.h * (v @ v) == pytest.approx(1.0, rel=1e-12)
    assert abs(vecs[:, 0] @ vecs[:, 1]) * grid.h < 1e-8
    assert abs(vecs[:, 1] @ vecs[:, 2]) * grid.h < 1e-8


def test_pt_reference_spectrum():
    grid = Grid1D(0.002, math.pi - 0.002, 4000)
    x = grid.points
    v = 2.25 / np.sin(x) ** 2 - 1.5 * np.cos(x) / np.sin(x) ** 2 - 4.0
    eps = solve_potential(v, grid, 5)
    assert abs(eps[0]) < 0.01
    for n in range(1, 5):
        assert eps[n] == pytest.approx(n * (n + 4.0), rel=5e-3)


def test_isospectral_positive_and_negative_controls():
    grid = Grid1D(0.002, math.pi - 0.002, 2000)
    x = grid.points
    vm = 2.25 / np.sin(x) ** 2 - 1.5 * np.cos(x) / np.sin(x) ** 2 - 4.0
    vp = 6.25 / np.sin(x) ** 2 - 2.5 * np.cos(x) / np.sin(x) ** 2 - 4.0
    rep = isospectral_check(vm, vp, grid, 4)
    assert rep.passed and rep.max_rel_err < 5e-3
    # same potential on both sides keeps its ground state: must fail
    assert not isospectral_check(vm, vm, grid, 4).passed
    # box against itself shifted by an index: must fail
    box = np.zeros(2000)
    g2 = Grid1D(1e-6, math.pi - 1e-6, 2000)
    assert not isospectral_check(box, box, g2, 3).passed


def test_friedrichs_gate():
    grid = Grid1D(0.002, math.pi - 0.002, 1000)
    x = grid.points
    with pytest.raises(IllPosedPotential):
        check_friedrichs(-0.3 / x ** 2, grid)
    check_friedrichs(np.zeros(1000), grid)          # regular potential passes
    check_friedrichs(2.25 / np.sin(x) ** 2, grid)   # repulsive wall passes


def test_spectrum_report_schema():
    grid = Grid1D(1e-6, math.pi - 1e-6, 500)
    rep = spectrum_report("box", {"note": "free"}, [1.0, 4.0],
                          np.zeros(500), grid, rel_tol=1e-2)
    obj = rep.to_json_obj()
    assert set(obj) == {"case", "params", "levels", "max_rel_err", "pass"}
    assert set(obj["levels"][0]) == {"n", "eps_analytic", "eps_numeric",
                                     "abs_err", "rel_err"}
    assert obj["pass"] is True
