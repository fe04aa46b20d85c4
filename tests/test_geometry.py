"""Torus geometry, reduction coefficients, and the transform round trip."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from toruspt.errors import (
    BlowUp,
    DegenerateMode,
    DomainError,
    InvalidVelocity,
    SingularGeometry,
)
from toruspt.geometry import (
    ModeParams,
    TorusGeometry,
    _gauss_legendre,
    christoffel,
    effective_coefficients,
    prefactor_f,
    profile_radius,
    reduced_potential_grid,
    solve_g_transform,
    spin_connection_coeff,
)
from toruspt.susy import PTCoefficients

VF_ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))
VF_ZERO = lambda x: np.zeros_like(np.asarray(x, dtype=float))


def test_profile_radius_direct():
    r, rp, rpp = profile_radius(TorusGeometry(1.0, 1.0), 0.0)
    assert (r, rp, rpp) == (2.0, 0.0, -1.0)
    r, rp, rpp = profile_radius(TorusGeometry(1.0, 2.0), math.pi / 2.0)
    assert r == pytest.approx(2.0)
    assert rp == pytest.approx(-1.0)
    assert rpp == pytest.approx(0.0, abs=1e-15)


def test_horn_torus_degenerate_point():
    r, _, _ = profile_radius(TorusGeometry(1.0, 1.0), math.pi)
    assert r == pytest.approx(0.0, abs=1e-15)


def test_christoffel_values():
    g1_22, g2_12 = christoffel(TorusGeometry(1.0, 2.0), math.pi / 2.0)
    assert g2_12 == pytest.approx(-0.5)
    assert g1_22 == pytest.approx(2.0)


def test_christoffel_vanishes_at_zero():
    g1_22, g2_12 = christoffel(TorusGeometry(1.3, 2.7), 0.0)
    assert g1_22 == 0.0 and g2_12 == 0.0


def test_christoffel_odd():
    xs = np.linspace(0.1, 1.4, 37)
    g = TorusGeometry(1.3, 2.7)
    f1, f2 = christoffel(g, xs)
    m1, m2 = christoffel(g, -xs)
    np.testing.assert_allclose(m1, -f1, atol=1e-15)
    np.testing.assert_allclose(m2, -f2, atol=1e-15)


def test_christoffel_singular_geometry():
    with pytest.raises(SingularGeometry):
        christoffel(TorusGeometry(1.0, 1.0), math.pi)


def test_spin_connection_value_and_identity():
    assert spin_connection_coeff(TorusGeometry(1.0, 1.0), math.pi / 2.0) == \
        pytest.approx(-0.5)
    assert spin_connection_coeff(TorusGeometry(2.0, 3.0), 0.0) == 0.0
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.05, math.pi - 0.05, 100)
    g = TorusGeometry(1.0, 2.0)
    _, g2_12 = christoffel(g, xs)
    np.testing.assert_allclose(spin_connection_coeff(g, xs), g2_12 / 2.0,
                               atol=1e-15)


def test_effective_coefficients_k0():
    g = TorusGeometry(1.0, 1.0)
    u1 = effective_coefficients(g, ModeParams(0.0, 1), math.pi / 2.0, VF_ONE, VF_ZERO)
    u2 = effective_coefficients(g, ModeParams(0.0, 2), math.pi / 2.0, VF_ONE, VF_ZERO)
    assert u1 == pytest.approx(-1.25)
    assert u2 == pytest.approx(-1.25)


def test_effective_coefficients_k_linear_difference():
    g = TorusGeometry(1.0, 2.0)
    x = math.pi / 3.0
    u1 = effective_coefficients(g, ModeParams(1.0, 1), x, VF_ONE, VF_ZERO)
    u2 = effective_coefficients(g, ModeParams(1.0, 2), x, VF_ONE, VF_ZERO)
    # independent re-evaluation of the two k-linear terms with V_F' = 0
    expect = -4.0 * 1.0 * (-math.sqrt(3.0) / 2.0) / 2.5 ** 3
    assert u1 - u2 == pytest.approx(expect, rel=1e-12)


def test_effective_coefficients_rejects_bad_velocity():
    g = TorusGeometry(1.0, 1.0)
    with pytest.raises(InvalidVelocity):
        effective_coefficients(g, ModeParams(1.0, 1), 1.0, VF_ZERO, VF_ZERO)


PT_TARGET = PTCoefficients(2.25, -1.5, -4.0)  # the A=-2, B=0.5 family


@pytest.mark.parametrize("component,n_points,h0,budget", [
    (1, 4001, 0.1, 1e-6),
    (2, 6001, 0.3, 1e-6),
])
def test_roundtrip_reproduces_target(component, n_points, h0, budget):
    g = TorusGeometry(1.0, 1.0)
    xs = np.linspace(0.3, 2.4, n_points)
    mode = ModeParams(1.0, component)
    tr = solve_g_transform(g, mode, PT_TARGET, xs, h0=h0)
    got = reduced_potential_grid(g, mode, tr)
    want = PT_TARGET(xs[1:-1])
    assert np.max(np.abs(got - want)) < budget


def test_transform_invariants():
    g = TorusGeometry(1.0, 1.0)
    xs = np.linspace(0.3, 2.4, 1001)
    tr = solve_g_transform(g, ModeParams(1.0, 1), PT_TARGET, xs, h0=0.1)
    assert np.all(tr.g_prime > 0.0)
    np.testing.assert_allclose(tr.fermi_velocity * tr.g_prime, 1.0, atol=1e-12)
    assert np.all(tr.prefactor > 0.0)


def test_component_sign_identity():
    # V1 + V2 at fixed transform equals twice the k^2 term
    g = TorusGeometry(1.0, 1.0)
    xs = np.linspace(0.3, 2.4, 1001)
    tr = solve_g_transform(g, ModeParams(1.0, 1), PT_TARGET, xs, h0=0.1)
    v1 = reduced_potential_grid(g, ModeParams(1.0, 1), tr)
    v2 = reduced_potential_grid(g, ModeParams(1.0, 2), tr)
    x_in = xs[1:-1]
    r = 1.0 + np.cos(x_in)
    expect = 2.0 / (r ** 4 * tr.g_prime[1:-1] ** 2)
    np.testing.assert_allclose(v1 + v2, expect, rtol=1e-10)


def test_k0_rejects_nonzero_target():
    g = TorusGeometry(1.0, 1.0)
    xs = np.linspace(0.3, 2.4, 101)
    with pytest.raises(DegenerateMode):
        solve_g_transform(g, ModeParams(0.0, 1), PT_TARGET, xs)


def test_k0_zero_target_trivial_transform():
    g = TorusGeometry(1.0, 1.0)
    xs = np.linspace(0.3, 2.4, 101)
    tr = solve_g_transform(g, ModeParams(0.0, 1), PTCoefficients(0.0, 0.0, 0.0),
                           xs, h0=0.7)
    np.testing.assert_allclose(tr.g_prime, 0.7)
    v = reduced_potential_grid(g, ModeParams(0.0, 1), tr)
    np.testing.assert_allclose(v, 0.0, atol=1e-12)


def test_k0_takes_any_callable_target():
    g = TorusGeometry(1.0, 1.0)
    xs = np.linspace(0.3, 2.4, 11)
    tr = solve_g_transform(g, ModeParams(0.0, 2), lambda t: 0.0 * t, xs, h0=0.7)
    np.testing.assert_array_equal(tr.g_prime, 0.7)
    with pytest.raises(DegenerateMode):
        solve_g_transform(g, ModeParams(0.0, 1), lambda t: 0.0 * t + 1e-300, xs)


def test_blowup_detected():
    # default slope drives 1/g'^2 through zero for this target
    g = TorusGeometry(1.0, 1.0)
    xs = np.linspace(0.3, 2.4, 1001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUp):
            solve_g_transform(g, ModeParams(1.0, 1), PT_TARGET, xs, h0=1.0)


def test_nan_target_is_blowup():
    g = TorusGeometry(1.0, 1.0)
    xs = np.linspace(0.3, 2.4, 1001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUp):
            solve_g_transform(g, ModeParams(1.0, 1),
                              PTCoefficients(math.nan, -1.5, -4.0), xs, h0=0.1)


def test_grid_validation():
    g = TorusGeometry(1.0, 1.0)
    with pytest.raises(DomainError):
        solve_g_transform(g, ModeParams(1.0, 1), PT_TARGET,
                          np.linspace(-0.1, 2.0, 101))


def _bad_grid(case):
    xs = np.linspace(0.3, 2.4, 101)
    if case == "nan":
        xs[40] = math.nan
    elif case == "inf":
        xs[-1] = math.inf
    elif case == "unsorted":
        xs[[40, 41]] = xs[[41, 40]]
    elif case == "repeated":
        xs[41] = xs[40]
    else:
        xs = xs[::-1].copy()
    return xs


@pytest.mark.parametrize("case", ["nan", "inf", "unsorted", "repeated",
                                  "decreasing"])
def test_grid_must_be_finite_and_strictly_increasing(case):
    with pytest.raises(DomainError):
        solve_g_transform(TorusGeometry(1.0, 1.0), ModeParams(1.0, 1),
                          PT_TARGET, _bad_grid(case), h0=0.1)


@pytest.mark.parametrize("h0", [math.nan, math.inf, 0.0, -0.1])
def test_initial_slope_must_be_finite_and_positive(h0):
    with pytest.raises(DomainError):
        solve_g_transform(TorusGeometry(1.0, 1.0), ModeParams(1.0, 1),
                          PT_TARGET, np.linspace(0.3, 2.4, 101), h0=h0)


def test_gauss_legendre_partial_integrals_are_exact_to_degree_7():
    nodes, weights, left = _gauss_legendre()
    for deg in range(8):
        got = left @ nodes ** deg
        want = (nodes ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(weights.sum(), 2.0, rtol=1e-15)


def _reference_w(geom, component, target, xs, h0):
    """1/g'^2 from DOP853 at rtol 3e-14, outward from the midpoint."""
    a, sign = geom.a, (1.0 if component == 1 else -1.0)

    def rhs(t, w):
        r = geom.c + a * math.cos(t)
        p = a * a / (r * r) + sign * 2.0 * a * math.sin(t) / r
        return sign * (-2.0 * p * w[0] + 2.0 * target(t) * r * r / (a * a))

    i_mid = xs.size // 2
    w = np.empty_like(xs)
    w[i_mid] = 1.0 / (h0 * h0)
    for sl in (slice(i_mid, None), slice(i_mid, None, -1)):
        pts = xs[sl]
        sol = solve_ivp(rhs, (pts[0], pts[-1]), [w[i_mid]], t_eval=pts,
                        method="DOP853", rtol=3e-14, atol=0.0)
        assert sol.success
        w[sl] = sol.y[0]
    return w


@pytest.mark.parametrize("a,c,component,n_points,h0", [
    (1.0, 1.0, 1, 4001, 0.1),
    (1.0, 1.0, 2, 6001, 0.3),
    (1.0, 2.0, 1, 2001, 0.1),
])
def test_transform_matches_tight_reference(a, c, component, n_points, h0):
    geom = TorusGeometry(a, c)
    xs = np.linspace(0.3, 2.4, n_points)
    tr = solve_g_transform(geom, ModeParams(1.0, component), PT_TARGET, xs,
                           h0=h0)
    want = _reference_w(geom, component, PT_TARGET, xs, h0)
    np.testing.assert_allclose(1.0 / tr.g_prime ** 2, want, rtol=1e-10, atol=0.0)


def test_prefactor_values_and_identity():
    g = TorusGeometry(1.0, 1.0)
    assert prefactor_f(g, 0.0) == pytest.approx(math.exp(-0.25), rel=1e-15)
    # essential decay toward the horn point
    assert prefactor_f(g, math.pi - 1e-3) < 1e-100
    xs = np.linspace(0.3, 2.4, 301)
    tr = solve_g_transform(g, ModeParams(1.0, 1), PT_TARGET, xs, h0=0.1)
    r = 1.0 + np.cos(xs)
    ident = tr.prefactor * np.sqrt(tr.g_prime * tr.fermi_velocity) \
        * np.exp(1.0 / (2.0 * r))
    np.testing.assert_allclose(ident, 1.0, atol=1e-12)


def test_geometry_validation():
    with pytest.raises(DomainError):
        TorusGeometry(-1.0, 1.0)
    with pytest.raises(DomainError):
        TorusGeometry(1.0, 0.0)
    with pytest.raises(DomainError):
        ModeParams(1.0, 3)


# --- manufactured solution (Roache 1998; Salari & Knupp, SAND2000-1444) ------

def _manufactured_slope(x):
    return 0.5 + 0.3 * np.cos(x)


def _manufactured_target(geom, mode):
    """Closed-form reduced potential of g' = 1/2 + 0.3 cos x, as a plain callable."""
    a, k = geom.a, mode.k
    sign = 1.0 if mode.component == 1 else -1.0

    def target(x):
        r, rp, _ = profile_radius(geom, x)
        h, hp = _manufactured_slope(x), -0.3 * np.sin(x)
        return (a**4 * k**2 / (r**4 * h**2)
                - sign * 2.0 * a**2 * k * rp / (r**3 * h**2)
                - sign * a**2 * k * hp / (r**2 * h**3))

    return target


def _stretched(lo, hi, n):
    """n points of [lo, hi] whose spacings grow linearly, 1 : 3 end to end."""
    t = np.linspace(0.0, 1.0, n)
    return lo + (hi - lo) * t * (1.0 + t) / 2.0


@pytest.mark.parametrize("a,c,k", [(1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (0.7, 1.5, 2.0)])
@pytest.mark.parametrize("component", [1, 2])
@pytest.mark.parametrize("grid", [
    np.linspace(0.3, 2.4, 401), np.linspace(0.3, 2.4, 4001), _stretched(0.3, 2.4, 401),
], ids=["uniform401", "uniform4001", "stretched401"])
def test_manufactured_slope_is_recovered(a, c, k, component, grid):
    # the solver is exact per interval up to its order-16 quadrature, so the
    # chosen g' comes back to rounding, on a non-uniform grid too
    g, mode = TorusGeometry(a, c), ModeParams(k, component)
    h0 = _manufactured_slope(grid[grid.size // 2])
    tr = solve_g_transform(g, mode, _manufactured_target(g, mode), grid, h0=h0)
    want = _manufactured_slope(grid)
    assert np.max(np.abs(tr.g_prime / want - 1.0)) < 1e-12
