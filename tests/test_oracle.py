"""The finite-difference and collocation eigensolvers against textbook,
dense-solver and closed-form oracles."""

import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError

from toruspt import susy
from toruspt.errors import (
    ConvergenceFailure,
    DomainError,
    IllPosedPotential,
    NonFinitePotential,
)
from toruspt.oracle import (
    COLLOCATION_NODES,
    Grid1D,
    SymTridiagonal,
    build_hamiltonian,
    check_friedrichs,
    collocation_eigenpairs,
    collocation_levels,
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
        raise LinAlgError("stebz did not converge")

    # the solve imports eigh_tridiagonal from scipy.linalg when it runs
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failing)
    grid = Grid1D(0.1, 3.0, 100)
    m = build_hamiltonian(np.zeros(100), grid)
    with pytest.raises(ConvergenceFailure):
        lowest_eigenvalues(m, 3)
    with pytest.raises(DomainError):
        lowest_eigenvalues(m, 0)


def test_pt_reference_spectrum():
    grid = Grid1D(0.002, math.pi - 0.002, 4000)
    x = grid.points
    v = 2.25 / np.sin(x) ** 2 - 1.5 * np.cos(x) / np.sin(x) ** 2 - 4.0
    eps = solve_potential(v, grid, 5)
    assert abs(eps[0]) < 0.01
    for n in range(1, 5):
        assert eps[n] == pytest.approx(n * (n + 4.0), rel=5e-3)


def _shifted_rel_err(v_minus, v_plus, n_levels):
    """Largest relative gap between spec(V+)[n] and spec(V-)[n + 1]."""
    minus = collocation_levels(v_minus, n_levels + 1)[1:]
    plus = collocation_levels(v_plus, n_levels)
    return float(np.max(np.abs(plus / minus - 1.0)))


def test_isospectral_positive_and_negative_controls():
    def vm(x):
        return 2.25 / np.sin(x) ** 2 - 1.5 * np.cos(x) / np.sin(x) ** 2 - 4.0

    def vp(x):
        return 6.25 / np.sin(x) ** 2 - 2.5 * np.cos(x) / np.sin(x) ** 2 - 4.0

    assert _shifted_rel_err(vm, vp, 4) < 1e-12
    # same potential on both sides keeps its ground state: must fail
    assert _shifted_rel_err(vm, vm, 4) > 5e-3
    # box against itself shifted by an index: must fail
    assert _shifted_rel_err(np.zeros_like, np.zeros_like, 3) > 5e-3


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


# --- Chebyshev collocation ----------------------------------------------------

def _pt_minus(A, B):
    """V- = W^2 - W' of W = A cot x + B csc x, written out from W."""
    def v(x):
        w = A / np.tan(x) + B / np.sin(x)
        dw = -(A + B * np.cos(x)) / np.sin(x) ** 2
        return w * w - dw
    return v


def _eps_friedrichs(A, B, n):
    u, v = A + B + 0.5, A - B + 0.5
    return (n + 0.5 + 0.5 * (abs(u) + abs(v))) ** 2 - A * A


def _away_from_the_log_case(ab):
    A, B = ab
    return abs(A + B + 0.5) >= 0.05 and abs(A - B + 0.5) >= 0.05


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
                  .filter(_away_from_the_log_case))
def test_collocation_levels_match_the_friedrichs_pt_spectrum(ab):
    # every PT regime: limit-point and limit-circle walls, and V- with or
    # without a zero-energy ground state
    A, B = ab
    got = collocation_levels(_pt_minus(A, B), 4)
    for n in range(4):
        ref = _eps_friedrichs(A, B, n)
        assert abs(got[n] - ref) <= 1e-10 * max(abs(ref), 1.0), (n, got[n], ref)


@pytest.mark.parametrize("v, expect", [
    # limit-circle wall at 0: c = -0.21
    (_pt_minus(-0.6, 0.3), [0.28, 2.88, 7.48, 14.08]),
    # the iso(2,1) closure family K1 = -0.5, c = 1 as a Casimir potential
    (_pt_minus(0.25, 0.25), [1.5, 5.0, 10.5, 18.0]),
    # the log case c = -1/4 at 0, which a Dirichlet cut cannot express
    (_pt_minus(-0.25, -0.25), [_eps_friedrichs(-0.25, -0.25, n) for n in range(4)]),
    # the box: regular walls, eps = (n + 1)^2
    (np.zeros_like, [1.0, 4.0, 9.0, 16.0]),
])
def test_collocation_fixed_levels(v, expect):
    np.testing.assert_allclose(collocation_levels(v, 4), expect,
                               rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("A, B", [(-2.0, 0.5), (-1.5, -0.2), (-0.75, 0.1)])
def test_collocation_eigenfunctions_match_eigenfunction_minus(A, B):
    h = (math.pi - 0.1) / 6002
    x = 0.05 + h * np.arange(1, 6002)
    levels, psi = collocation_eigenpairs(_pt_minus(A, B), 4, x)
    assert psi.shape == (x.size, 4)
    for n in range(4):
        ref = _eps_friedrichs(A, B, n)
        assert levels[n] == pytest.approx(ref, rel=1e-11, abs=1e-11)
        f = susy.eigenfunction_minus(A, B, n, x)
        col = psi[:, n]
        assert 1.0 - abs(f @ col) / (np.linalg.norm(f) * np.linalg.norm(col)) < 1e-12
        # unit maximum, first sample above a tenth of it positive
        assert np.max(np.abs(col)) == 1.0
        assert col[np.nonzero(np.abs(col) > 0.1)[0][0]] > 0.0


def test_collocation_eigenfunctions_on_the_nodes_and_off_the_interval():
    from toruspt.oracle import _NODES

    v = _pt_minus(-2.0, 0.5)
    x = np.concatenate([_NODES[:3], [1.0]])
    _, psi = collocation_eigenpairs(v, 2, x)
    ref = np.stack([susy.eigenfunction_minus(-2.0, 0.5, n, x) for n in range(2)], 1)
    np.testing.assert_allclose(psi / psi[-1], ref / ref[-1], rtol=1e-10)
    for bad in ([0.0, 1.0], [1.0, math.pi]):
        with pytest.raises(DomainError):
            collocation_eigenpairs(v, 2, np.array(bad))


def test_collocation_gates():
    # c = -0.3 at 0: below the Friedrichs bound -1/4
    with pytest.raises(IllPosedPotential):
        collocation_levels(lambda x: -0.3 / x ** 2, 2)
    # c = -0.26 at pi only
    with pytest.raises(IllPosedPotential):
        collocation_levels(lambda x: -0.26 / (math.pi - x) ** 2, 2)
    with pytest.raises(NonFinitePotential):
        collocation_levels(lambda x: np.where(x > 3.0, np.inf, 0.0), 2)
    with pytest.raises(NonFinitePotential):
        collocation_levels(lambda x: np.full_like(x, np.nan), 2)
    for n_levels in (0, COLLOCATION_NODES // 4 + 1):
        with pytest.raises(DomainError):
            collocation_levels(np.zeros_like, n_levels)
