"""The collocation eigensolver against textbook and closed-form oracles."""

import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from toruspt import susy
from toruspt.errors import (
    ConvergenceFailure,
    DomainError,
    IllPosedPotential,
    NonFinitePotential,
    NormalizationFailure,
)
from toruspt.oracle import (
    COLLOCATION_NODES,
    collocation_eigenpairs,
    collocation_levels,
)


def test_box_spectrum():
    # particle in a box: eps_n = (n+1)^2
    vals = collocation_levels(np.zeros_like, 4)
    np.testing.assert_allclose(vals, (np.arange(4) + 1.0) ** 2, rtol=1e-12)


def test_lapack_failure_maps_to_convergence_failure(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("syevd did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceFailure):
        collocation_levels(np.zeros_like, 3)
    with pytest.raises(ConvergenceFailure):
        collocation_eigenpairs(np.zeros_like, 3, np.array([1.0]))


def test_pt_reference_spectrum():
    def v(x):
        return 2.25 / np.sin(x) ** 2 - 1.5 * np.cos(x) / np.sin(x) ** 2 - 4.0

    eps = collocation_levels(v, 5)
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
    # one gate, on the Neville estimate of each wall's 1/x^2 coefficient
    with pytest.raises(IllPosedPotential):
        collocation_levels(lambda x: -0.3 / x ** 2, 1)
    collocation_levels(np.zeros_like, 1)                     # regular potential
    collocation_levels(lambda x: 2.25 / np.sin(x) ** 2, 1)  # repulsive wall


# --- Gauss-Jacobi collocation -------------------------------------------------

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


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(st.floats(math.log(3.0), math.log(1000.0)),
                  st.floats(-0.99, 0.99))
def test_collocation_levels_of_deep_wells(log_depth, skew):
    # A in [-1000, -3], |B| <= 0.99 (-A - 1/2): the half-angle factor is exact
    # for PT, so N = 32 holds all 8 levels of a deep well
    A = -math.exp(log_depth)
    B = skew * (-A - 0.5)
    _assert_deep_well_levels(A, B, 1e-6)


def _assert_deep_well_levels(A, B, rtol):
    n = np.arange(8)
    ref = n * (n - 2.0 * A)
    got = collocation_levels(_pt_minus(A, B), 8)
    # relative to each level, and to level 1 for the zero ground level
    np.testing.assert_array_less(np.abs(got - ref),
                                 rtol * np.maximum(ref, 1.0 - 2.0 * A))


@pytest.mark.parametrize("A, B", [(-1000.0, 990.0), (-1e5, 3e4)])
def test_collocation_levels_of_skewed_and_deeper_wells(A, B):
    # the wall exponents 10 and 1990 at (-1000, 990), where a
    # non-symmetric collocation matrix gave complex levels
    _assert_deep_well_levels(A, B, 1e-9)


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


def test_collocation_eigenfunctions_at_points_and_off_the_interval():
    v = _pt_minus(-2.0, 0.5)
    # near each wall and inside, against the closed form pointwise
    x = np.array([0.05, 2.0, 3.1, 1.0])
    _, psi = collocation_eigenpairs(v, 2, x)
    ref = np.stack([susy.eigenfunction_minus(-2.0, 0.5, n, x) for n in range(2)], 1)
    np.testing.assert_allclose(psi / psi[-1], ref / ref[-1], rtol=1e-10)
    # an end point, a scalar, a 2-D array and no point at all: the last three
    # raised IndexError, ValueError and ValueError
    for bad in ([0.0, 1.0], [1.0, math.pi], 1.0, [[1.0, 2.0]], []):
        with pytest.raises(DomainError):
            collocation_eigenpairs(v, 2, np.array(bad))


@pytest.mark.filterwarnings("error")
def test_collocation_eigenfunction_that_underflows_at_every_point():
    # sin(x/2)^p cos(x/2)^q of (-1e5, 3e4) underflows to 0 on the whole grid;
    # the unit-maximum scaling divided by it (a RuntimeWarning) and then
    # raised IndexError
    x = np.linspace(0.01, math.pi - 0.01, 201)
    with pytest.raises(NormalizationFailure):
        collocation_eigenpairs(_pt_minus(-1e5, 3e4), 3, x)
    # a deep well whose factor stays representable on the same grid
    levels, psi = collocation_eigenpairs(_pt_minus(-400.0, 100.0), 3, x)
    np.testing.assert_allclose(levels[1:], [n * (n + 800.0) for n in (1, 2)],
                               rtol=1e-9)
    assert np.all(np.max(np.abs(psi), axis=0) == 1.0)


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
