"""Superpotential families: identities, cancellation, spectra, eigenfunctions."""

import dataclasses
import math
import warnings

import hypothesis
import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from toruspt import iso21, special, susy
from toruspt.errors import (
    DegenerateJacobiWarning,
    DomainError,
    GridTooCoarse,
    InconsistentConditions,
    OutOfRange,
    SingularGeometry,
)
from toruspt.geometry import TorusGeometry, prefactor_f
from toruspt.oracle import collocation_eigenpairs, collocation_levels
from toruspt.special import JacobiParams, jacobi_poly
from toruspt.susy import (
    AppellTail,
    BetaTail,
    PTCoefficients,
    PureTrigPT,
    RationalSin,
    analytic_spectrum,
    eigenfunction_minus,
    eigenfunction_plus,
    lambda_bracket,
    ladder_apply,
    normalize,
    partner_potentials,
    psi2_integrable,
    pt_coefficients,
    rational_part_cancels,
    require_cancellation,
    solve_parameter_conditions,
    spinor_psi1,
    spinor_psi2,
    superpotential_deriv,
    superpotential_eval,
    susy_residual,
)

PT = PureTrigPT(-2.0, 0.5)


# --- superpotential values ----------------------------------------------------

def test_pt_superpotential_at_midpoint():
    # cot(pi/2) = 0, csc(pi/2) = 1
    assert superpotential_eval(PT, math.pi / 2.0) == pytest.approx(0.5, abs=1e-14)


def test_rational_superpotential_at_midpoint():
    spec = RationalSin(-2.0, 0.5, -4.0, TorusGeometry(1.0, 1.0))
    assert superpotential_eval(spec, math.pi / 2.0) == pytest.approx(-3.5, abs=1e-14)


def test_vanishing_radius_raises_singular_geometry():
    # c = -cos x0 puts R = c + a cos x exactly at 0 on the grid node x0 = 1
    spec = RationalSin(-2.0, 0.5, 0.3, TorusGeometry(1.0, -math.cos(1.0)))
    with pytest.raises(SingularGeometry):
        partner_potentials(spec, np.array([0.5, 1.0, 1.5]))


def test_beta_tail_c1_dominant_limit():
    xs = np.linspace(0.2, math.pi - 0.2, 101)
    big = BetaTail(1.0, 0.25, 1e9, TorusGeometry(1.0, 1.5))
    w_big = superpotential_eval(big, xs)
    w_pt = superpotential_eval(PureTrigPT(1.0, 0.25), xs)
    assert np.max(np.abs(w_big - w_pt)) < 1e-7


def test_beta_tail_domain_restriction():
    with pytest.raises(DomainError):
        BetaTail(-2.0, 0.5, 1.0, TorusGeometry(1.0, 1.0))  # 1/2+A-B = -2


def test_superpotential_rejects_exterior_points():
    with pytest.raises(DomainError):
        superpotential_eval(PT, -0.1)
    with pytest.raises(DomainError):
        superpotential_eval(PT, math.pi)


# --- partner potentials and the defining identity ------------------------------

def test_partner_values_at_midpoint():
    vm, vp = partner_potentials(PT, math.pi / 2.0)
    assert vm == pytest.approx(-1.75, abs=1e-14)
    assert vp == pytest.approx(2.25, abs=1e-14)


def test_susy_identity_pt_analytic():
    xs = np.linspace(0.05, math.pi - 0.05, 2001)
    rm, rp = susy_residual(PT, xs, "analytic")
    assert max(rm, rp) < 1e-9


@pytest.mark.parametrize("spec,grid", [
    (solve_parameter_conditions("equal_radii", a=2.0, B=-1.5, branch="-"),
     np.linspace(0.15, math.pi - 0.25, 1501)),
    (BetaTail(1.0, 0.25, 1.0, TorusGeometry(1.0, 1.5)),
     np.linspace(0.15, math.pi - 0.25, 1001)),
    (solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+", C1=-1.0),
     np.linspace(0.15, 2.0, 801)),
], ids=["rational", "beta", "appell"])
def test_susy_identity_extended_fd(spec, grid):
    rm, rp = susy_residual(spec, grid, "fd")
    assert max(rm, rp) < 1e-6


def test_susy_identity_analytic_derivative_extended():
    # analytic W' drives the residual to float noise for every family
    for spec in (RationalSin(-2.0, 0.5, -4.0, TorusGeometry(1.0, 1.0)),
                 BetaTail(1.0, 0.25, 1.0, TorusGeometry(1.0, 1.5)),
                 solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+",
                                            C1=-1.0)):
        xs = np.linspace(0.2, 2.0, 301)
        rm, rp = susy_residual(spec, xs, "analytic")
        assert max(rm, rp) < 1e-10


def test_analytic_derivative_matches_fd():
    xs = np.linspace(0.3, 2.0, 51)
    spec = BetaTail(1.0, 0.25, 1.0, TorusGeometry(1.0, 1.5))
    h = 1e-6
    fd = (superpotential_eval(spec, xs + h) - superpotential_eval(spec, xs - h)) \
        / (2.0 * h)
    np.testing.assert_allclose(superpotential_deriv(spec, xs), fd, atol=1e-7)


# --- parameter conditions -------------------------------------------------------

def test_equal_radii_conditions_branch_minus():
    spec = solve_parameter_conditions("equal_radii", a=2.0, B=-1.5, branch="-")
    assert spec.A == pytest.approx(2.0)
    assert spec.lam == pytest.approx(8.0)
    assert spec.geom.c == pytest.approx(2.0)
    assert abs(spec.geom.c) == pytest.approx(spec.geom.a)


def test_equal_radii_conditions_branch_plus():
    spec = solve_parameter_conditions("equal_radii", a=1.0, B=0.5, branch="+")
    assert spec.A == pytest.approx(1.0)
    assert spec.lam == pytest.approx(2.0)
    assert spec.geom.c == pytest.approx(-1.0)


def test_equal_radii_rejects_b_zero():
    # the conditions leave c free there: the root A = 1/2, lambda = a
    for b in (0.0, -0.0):
        with pytest.raises(InconsistentConditions, match="leave c free"):
            solve_parameter_conditions("equal_radii", a=1.0, B=b, branch="-")


def _mirrored(spec):
    """The second spinor component's sin-tail family (the component2 case)."""
    return RationalSin(spec.A, -spec.B, spec.lam,
                       TorusGeometry(spec.geom.a, -spec.geom.c))


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(log_a=st.floats(-150.0, 150.0), log_b=st.floats(-300.0, 150.0),
                  b_sign=st.sampled_from((1.0, -1.0)), branch=st.sampled_from("+-"))
# 1 - 2A rounded to a relative error far above 1e-12: the solver once raised
# InconsistentConditions here, or returned a family the gate rejected
@hypothesis.example(log_a=0.0, log_b=-6.0, b_sign=-1.0, branch="-")
@hypothesis.example(log_a=0.0, log_b=-10.0, b_sign=-1.0, branch="-")
@hypothesis.example(log_a=0.0, log_b=math.log10(3e-5), b_sign=-1.0, branch="-")
@hypothesis.example(log_a=0.0, log_b=-300.0, b_sign=-1.0, branch="+")
# A = 1e300 is a double, 2aA is not (once "solved c = -inf violates a = |c|")
@hypothesis.example(log_a=10.0, log_b=300.0, b_sign=1.0, branch="+")
def test_equal_radii_solution_passes_the_cancellation_gate(log_a, log_b, b_sign, branch):
    a, b = 10.0 ** log_a, b_sign * 10.0 ** log_b
    try:
        spec = solve_parameter_conditions("equal_radii", a=a, B=b, branch=branch)
    except DomainError as exc:   # only where 2aA overflows a double
        assert str(exc) == "solved lambda = 2aA = inf is not a double"
        assert a * abs(b) > 1e307
        return
    assert spec.geom.c == (a if branch == "-" else -a)
    assert rational_part_cancels(spec)
    assert rational_part_cancels(_mirrored(spec))


def test_equal_radii_rejects_a_nonpositive_radius():
    # the geometry's error, whatever the size of 2aA (a = -1 was once
    # InconsistentConditions)
    for a in (0.0, -1.0):
        with pytest.raises(DomainError, match="tube radius a must be positive"):
            solve_parameter_conditions("equal_radii", a=a, B=1e308, branch="+")


def test_cancellation_gate_needs_a_finite_scale():
    # where the size S of the terms overflows, their differences are inf or
    # nan, which would pass against the bound 1e-12 S = inf; such a family
    # is refused, like a non-finite one (lambda = inf passed at 0.9.3)
    for spec in (RationalSin(1e308, 1e308, 1.0, TorusGeometry(1.0, 1.0)),
                 RationalSin(1e308, -1e308, math.inf, TorusGeometry(1.0, 1.0)),
                 RationalSin(0.5, 0.5, math.nan, TorusGeometry(1.0, 1.0))):
        assert not rational_part_cancels(spec)


def test_cancellation_gate_divides_by_the_tube_radius():
    # the free-c root A = 1/2, B = 0, lambda = a near the top of the double
    # range: 2aA and S overflowed before anything was scaled
    for a, c in ((1e308, 1e307), (1e307, 1e308), (1e308, -1e308)):
        geom = TorusGeometry(a, c)
        assert rational_part_cancels(RationalSin(0.5, 0.0, a, geom))
        assert not rational_part_cancels(RationalSin(0.5, 0.0, 0.5 * a, geom))


def test_closure_families_pass_the_cancellation_gate():
    # susy_family of every closing parameter set solves the conditions; the
    # rounded A, B and lambda must pass on the scale of their terms
    families = [(c, s * k1) for c in np.logspace(-3.0, 3.0, 13)
                for k1 in np.logspace(-12.0, 3.0, 16) for s in (1.0, -1.0)]
    families += [(c, -c) for c in np.logspace(-3.0, 3.0, 13)]
    # K1 = -c up to an ulp: B rounds to 5.8e-17 and 1 - 2A to 0
    families.append((0.9615384615384616, -0.9615384615384615))
    for c, k1 in families:
        spec = iso21.susy_family(iso21.AlgebraParams.from_closure(float(c), float(k1)))
        assert rational_part_cancels(spec), (c, k1)


def test_appell_conditions():
    spec = solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+")
    assert spec.A == pytest.approx(1.0)
    assert spec.B == pytest.approx(-0.5)
    assert spec.geom.c == pytest.approx(1.0)
    with pytest.raises(DomainError):
        solve_parameter_conditions("appell", a=1.0, lam=0.5, branch="+")
    # A = lambda / (2a) is never divided by a = +-0 or a < 0
    for a in (0.0, -0.0, -1.0):
        with pytest.raises(DomainError, match="tube radius a must be positive"):
            solve_parameter_conditions("appell", a=a, lam=2.0, branch="+")


@pytest.mark.parametrize("a,b,br", [(2.0, -1.5, "-"), (1.0, 0.5, "+"),
                                    (1.0, 0.25, "-")])
def test_rational_cancellation(a, b, br):
    spec = solve_parameter_conditions("equal_radii", a=a, B=b, branch=br)
    xs = np.linspace(0.1, math.pi - 0.1, 2001)
    vm, _ = partner_potentials(spec, xs)
    assert np.max(np.abs(vm - pt_coefficients(spec, "minus")(xs))) < 1e-10


def test_appell_g_functional_vanishes():
    spec = solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+", C1=-1.0)
    a, c = spec.geom.a, spec.geom.c
    xs = np.linspace(0.15, 2.0, 801)

    def g_of(x):
        core = (spec.A * np.cos(x) + spec.B) / np.sin(x)
        p = c + a * np.cos(x)
        return (superpotential_eval(spec, x) - core) * p - spec.lam * np.sin(x)

    h = 3e-5
    gv = g_of(xs)
    gp = (g_of(xs + h) - g_of(xs - h)) / (2.0 * h)
    p = c + a * np.cos(xs)
    q = ((4.0 * a * spec.B + 4.0 * spec.A * c) * np.cos(xs) / np.sin(xs)
         + 4.0 * a * spec.A * np.cos(xs) ** 2 / np.sin(xs)
         + 4.0 * spec.B * c / np.sin(xs)
         + (4.0 * spec.lam - 2.0 * a) * np.sin(xs))
    cal_g = 2.0 * gv ** 2 + gv * q - 2.0 * p * gp
    assert np.max(np.abs(cal_g)) < 1e-6


# Appell sets from the benchmark catalogue's range (a in [0.5, 1.5],
# lambda/a in [1.05, 3], C1 in [-3, -0.25]) and beta sets from its beta range
# (B in [-1, 1], A >= B - 0.45, c in [1.2, 3], C1 in [0.5, 2]), with w = 1/2+A+B
# on both sides of 0
_M_TAILS = [
    *((solve_parameter_conditions("appell", a=a, lam=a * r, branch="+", C1=c1),
       susy._appell_integrand, 2.0)
      for a, r, c1 in ((0.5, 1.05, -0.25), (1.0, 2.0, -1.0), (1.5, 3.0, -3.0),
                       (0.8, 1.6, -1.7))),
    *((BetaTail(A, B, c1, TorusGeometry(1.0, c)), susy._beta_integrand,
       math.pi - 0.05)
      for A, B, c, c1 in ((1.0, 0.25, 1.5, 1.0), (-0.3, 0.1, 2.0, 0.5),
                          (-1.4, -1.0, 1.2, 2.0), (2.0, 1.0, 3.0, 1.3))),
]


@pytest.mark.parametrize("spec,integrand,x_hi", _M_TAILS)
def test_integral_tail_d_is_minus_the_integral_of_m(spec, integrand, x_hi):
    # D' = -m: D from the incomplete beta (its series in z, for Appell) against
    # adaptive quadrature of the elementary integrand m alone
    x_lo = 0.05
    d_lo, d_hi = integrand(spec, np.array([x_lo, x_hi]))[2]
    area = quad(lambda t: float(integrand(spec, t)[0]), x_lo, x_hi,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert abs((d_hi - d_lo) + area) <= 1e-10 * abs(area)


def test_appell_tail_batched_matches_scalar_calls(monkeypatch):
    # the served M, one series call on the grid, against the paper's F1
    # form, one scalar call per grid point: B(s; pw, w) =
    # s^pw/pw F1(pw; 1/2-A+B, 2 lam/a; pw+1; s, 2a s/(a+c)), whose two
    # variables are equal at c = a.  C1 = 0 makes D = -M exactly.
    spec = solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+", C1=0.0)
    x = np.linspace(0.002, 2.0, 501)
    served = susy._appell_integrand(spec, x)[2]

    a, c = spec.geom.a, spec.geom.c
    line = (0.5 - spec.A + spec.B, 2.0 * spec.lam / a)

    def per_point(z, pw, w):
        assert line[0] + line[1] == 1.0 - w
        return np.array([u ** pw / pw * special.appell_f1(
            pw, *line, pw + 1.0, u, 2.0 * a / (a + c) * u) for u in z])

    monkeypatch.setattr(susy, "incomplete_beta_series", per_point)
    np.testing.assert_allclose(served, susy._appell_integrand(spec, x)[2],
                               rtol=1e-13, atol=0.0)


# --- spectra --------------------------------------------------------------------

def test_analytic_spectrum_values():
    assert [analytic_spectrum(PT, n) for n in range(5)] == [0.0, 5.0, 12.0, 21.0, 32.0]


def test_spectrum_out_of_range():
    with pytest.raises(OutOfRange):
        analytic_spectrum(PureTrigPT(2.0, 0.5), 1)  # (1-2)^2 - 4 < 0
    # n (n - 2A) at n = -1, A = 1 is 3.0, a level of no tower
    with pytest.raises(DomainError, match="non-negative"):
        analytic_spectrum(PureTrigPT(1.0, 0.5), -1)


def test_spectrum_vs_oracle():
    eps = collocation_levels(pt_coefficients(PT, "minus"), 5)
    assert abs(eps[0]) < 0.01
    for n in range(1, 5):
        assert eps[n] == pytest.approx(n * (n + 4.0), rel=5e-3)


def test_spectrum_b_independence():
    for b in (0.0, 0.25, 0.5):
        eps = collocation_levels(pt_coefficients(PureTrigPT(-2.0, b), "minus"), 4)
        for n in range(1, 4):
            assert eps[n] == pytest.approx(n * (n + 4.0), rel=5e-3)


def test_formal_spectrum_is_computed_without_a_warning():
    # normalizable is the one signal of the formal regime
    spec = PureTrigPT(2.0, 0.5)
    assert not spec.normalizable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analytic_spectrum(spec, 5) == 5.0  # (5-2)^2 - 4
        eps0 = analytic_spectrum(spec, 0)  # 0 (0 - 4) is -0.0
    assert eps0 == 0.0 and math.copysign(1.0, eps0) == 1.0


# --- eigenfunctions --------------------------------------------------------------

def test_eigenfunction_ground_state_value():
    # P0 = 1 and both weights are 1 at x = pi/2
    assert eigenfunction_minus(-2.0, 0.5, 0, math.pi / 2.0) == pytest.approx(1.0)


def test_eigenfunction_schrodinger_residual():
    xs = np.linspace(0.25, math.pi - 0.25, 2001)
    d = xs[1] - xs[0]
    v = pt_coefficients(PT, "minus")(xs)
    for n in range(5):
        f = eigenfunction_minus(-2.0, 0.5, n, xs)
        fpp = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) \
            / (12.0 * d * d)
        eps = analytic_spectrum(PT, n)
        resid = np.max(np.abs(-fpp + (v[2:-2] - eps) * f[2:-2]))
        assert resid / np.abs(f).max() < 1e-6
        # susy.substitution_residual is this assembly; at a shifted eps it is O(1)
        assert susy.substitution_residual(f, v, eps, xs) == resid / np.abs(f).max()
        assert susy.substitution_residual(f, v, eps + 1.0, xs) > 0.5


def test_eigenfunction_node_counts():
    xs = np.linspace(0.002, math.pi - 0.002, 20001)
    for n in range(5):
        f = eigenfunction_minus(-2.0, 0.5, n, xs)
        assert int(np.sum(np.sign(f[1:]) * np.sign(f[:-1]) < 0)) == n


def test_eigenfunction_orthogonality():
    xs = np.linspace(0.002, math.pi - 0.002, 20001)
    fs = [eigenfunction_minus(-2.0, 0.5, n, xs) for n in range(5)]
    norms = [math.sqrt(trapezoid(f * f, xs)) for f in fs]
    for m in range(5):
        for n in range(m + 1, 5):
            assert abs(trapezoid(fs[m] * fs[n], xs)) / (norms[m] * norms[n]) < 1e-6


def test_formal_eigenfunctions_are_computed_without_a_warning():
    spec = solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    assert not PureTrigPT(1.0, 0.5).normalizable and not spec.normalizable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # P_0 = 1 leaves the weight (1-cos x)^(-3/4) (1+cos x)^(-1/4)
        f0 = eigenfunction_minus(1.0, 0.5, 0, 1.0)
        psi = spinor_psi1(spec, 0, np.array([0.5, 1.5]))
    assert f0 == pytest.approx((1.0 - math.cos(1.0)) ** -0.75
                               * (1.0 + math.cos(1.0)) ** -0.25, rel=1e-14)
    assert np.all(np.isfinite(psi)) and np.all(psi > 0.0)


# --- ladder structure -------------------------------------------------------------

@pytest.fixture(scope="module")
def ladder_grid():
    x = np.linspace(0.05, math.pi - 0.05, 6001)
    vals, vecs = collocation_eigenpairs(pt_coefficients(PT, "plus"), 3, x)
    return x, vals, vecs


def test_ladder_annihilates_ground_state(ladder_grid):
    x, _, _ = ladder_grid
    f0 = eigenfunction_minus(-2.0, 0.5, 0, x)
    out = ladder_apply(PT, f0, x)
    assert np.max(np.abs(out)) / np.max(np.abs(f0)) < 1e-6


def test_ladder_maps_to_partner_eigenvectors(ladder_grid):
    x, _, vecs = ladder_grid
    for n in range(3):
        img = ladder_apply(PT, eigenfunction_minus(-2.0, 0.5, n + 1, x), x)
        v = vecs[:, n]
        cos = abs(float(img @ v)) / (np.linalg.norm(img) * np.linalg.norm(v))
        assert 1.0 - cos < 1e-6
    # the lowest level meets the tighter oracle-eigenfunction bound
    img = ladder_apply(PT, eigenfunction_minus(-2.0, 0.5, 1, x), x)
    cos = abs(float(img @ vecs[:, 0])) / (np.linalg.norm(img)
                                          * np.linalg.norm(vecs[:, 0]))
    assert 1.0 - cos < 1e-8


def test_ladder_norm_ratio(ladder_grid):
    x, _, _ = ladder_grid
    for n in range(3):
        f = eigenfunction_minus(-2.0, 0.5, n + 1, x)
        img = ladder_apply(PT, f, x)
        ratio = trapezoid(img * img, x) / trapezoid(f * f, x)
        assert ratio == pytest.approx(analytic_spectrum(PT, n + 1), rel=1e-4)


def test_ladder_is_derivative_plus_w(ladder_grid):
    # F' + W F against the analytic derivative of F = sin^3 x, to the O(h^4)
    # error of the grid stencil
    x, _, _ = ladder_grid
    f = np.sin(x) ** 3
    want = 3.0 * np.sin(x) ** 2 * np.cos(x) + superpotential_eval(PT, x) * f
    np.testing.assert_allclose(ladder_apply(PT, f, x), want, atol=1e-10)


def test_ladder_grid_too_coarse():
    x = np.linspace(0.5, 2.5, 32)
    with pytest.raises(GridTooCoarse):
        ladder_apply(PT, np.sin(x), x)


def test_partner_closed_form_vs_ladder():
    spec = solve_parameter_conditions("equal_radii", a=2.0, B=-1.5, branch="-")
    xs = np.linspace(0.3, math.pi - 0.3, 3001)
    for n in (1, 2):
        fm = eigenfunction_minus(spec.A, spec.B, n, xs)
        img = ladder_apply(spec, fm, xs)
        closed = eigenfunction_plus(spec, n, xs)
        cos = abs(float(img @ closed)) / (np.linalg.norm(img)
                                          * np.linalg.norm(closed))
        assert 1.0 - cos < 1e-6


def test_rational_part_cancels_iff_v_minus_is_its_pt_part():
    xs = np.linspace(0.25, math.pi - 0.25, 401)

    def rational_part(spec):
        return float(np.max(np.abs(partner_potentials(spec, xs)[0]
                                   - pt_coefficients(spec, "minus")(xs))))

    solved = [solve_parameter_conditions("equal_radii", a=a, B=b, branch=br)
              for a, b, br in ((2.0, -1.5, "-"), (1.0, 0.5, "+"), (1.0, 0.25, "-"),
                               (0.7, 40.0, "+"), (1.3, -0.5 + 1e-9, "+"),
                               (1.0, -1e-6, "-"), (1.0, -3e-5, "-"), (1.0, 1e-10, "+"))]
    # the second spinor component's mirrored family, and lambda = 0
    mirrored = [_mirrored(s) for s in solved]
    for spec in solved + mirrored + [RationalSin(-2.0, 0.5, 0.0, TorusGeometry(1.0, 2.0))]:
        assert rational_part_cancels(spec)
        assert rational_part(spec) < 1e-8 * (1.0 + abs(spec.lam)) ** 2
        assert analytic_spectrum(spec, 0) == 0.0   # no DomainError
    unsolved = [RationalSin(-2.0, 0.5, 0.3, TorusGeometry(1.0, 2.0)),
                RationalSin(0.25, 0.25, 0.5, TorusGeometry(1.0, 1.0 + 1e-9))]
    # solved families moved off the conditions by more than rounding
    for s in solved[:3]:
        unsolved += [dataclasses.replace(s, geom=TorusGeometry(s.geom.a, s.geom.c * (1 + 1e-9))),
                     dataclasses.replace(s, lam=s.lam * (1 + 1e-10)),
                     dataclasses.replace(s, B=s.B + 1e-10)]
    for spec in unsolved:
        assert not rational_part_cancels(spec)
        assert rational_part(spec) > 1e-10
        with pytest.raises(DomainError):
            eigenfunction_plus(spec, 1, 1.0)
        with pytest.raises(DomainError):
            analytic_spectrum(spec, 1)


def test_partner_closed_form_lambda_zero_reduction():
    spec = RationalSin(-2.0, 0.5, 0.0, TorusGeometry(1.0, 1.0))
    x = 1.1
    got = eigenfunction_plus(spec, 2, x)
    cx = math.cos(x)
    weight = (1 - cx) ** 0.75 * (1 + cx) ** 1.25
    expect = weight * 0.5 * (2.0 * -2.0 - 2.0) * math.sin(x) \
        * jacobi_poly(JacobiParams(1, 0.5 + 1.5, 0.5 + 2.5), cx)
    assert got == pytest.approx(expect, rel=1e-12)


def test_partner_endpoint_vanishing_in_normalizable_regime():
    xs = np.array([1e-3, math.pi - 1e-3])
    vals = eigenfunction_plus(PureTrigPT(-2.0, 0.5), 1, xs)
    assert np.max(np.abs(vals)) < 1e-6


# --- spinors ------------------------------------------------------------------------

def test_psi1_prefactor_and_normalization():
    spec = solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    xs = np.linspace(0.0, math.pi, 20001)[1:-1]
    psi = normalize(spinor_psi1(spec, 0, xs), xs)
    assert trapezoid(psi * psi, xs) == pytest.approx(1.0, abs=1e-10)
    # prefactor at small x approaches e^{-1/4} for a = 1
    bare = spinor_psi1(spec, 0, np.array([1e-6]))
    f0 = eigenfunction_minus(spec.A, spec.B, 0, np.array([1e-6]))
    assert bare[0] / f0[0] == pytest.approx(math.exp(-0.25), rel=1e-5)


def test_psi1_decays_at_horn_point():
    spec = solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    vals = spinor_psi1(spec, 0, np.array([math.pi - 1e-3]))
    assert abs(vals[0]) < 1e-100


def test_psi2_normalization_and_warning():
    spec = solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    xs = np.linspace(0.0, math.pi, 20001)[1:-1]
    with pytest.warns(DegenerateJacobiWarning):
        psi = normalize(spinor_psi2(spec.geom, spec.lam, 0, xs), xs)
    assert trapezoid(psi * psi, xs) == pytest.approx(1.0, abs=1e-6)


def _psi2_mp(r, n, x):
    """The printed psi2 in mpmath, which depends on a only through r = lam/a;
    its Jacobi polynomial is the binomial sum (the package takes alpha = -1 through the limit identity):
    P_n^(al, be)(z) = sum_s C(n+al, n-s) C(n+be, s) ((z-1)/2)^s ((z+1)/2)^(n-s).
    1 - cos x is 2 sin^2(x/2), so that tiny x keeps its digits."""
    s2, c2 = mpmath.sin(x / 2) ** 2, mpmath.cos(x / 2) ** 2
    jac = mpmath.fsum(mpmath.binomial(n - 1, n - k) * mpmath.binomial(n - r, k)
                      * (-s2) ** k * c2 ** (n - k) for k in range(n + 1))
    return (mpmath.exp(-1 / (4 * c2)) * (2 * s2) ** (mpmath.mpf(1) / 4 - r / 2)
            * (2 * c2) ** (-mpmath.mpf(1) / 4) * jac)


@pytest.mark.parametrize("r, n", [(0.9, 0), (1.1, 0), (2.9, 1), (3.1, 1),
                                  (2.9, 2), (3.1, 2)])
def test_psi2_integrable_matches_mpmath_quadrature(r, n):
    # psi2^2 = x^e h(x) near 0 with h smooth: split the singular part
    # h(0) x^e off and integrate the rest, O(x^(e+2)), with mpmath.quad.  The
    # integral on (0, 0.3] is finite iff e > -1; e is measured from psi2
    # itself, at 40 digits, not taken from the rule
    geom = TorusGeometry(2.0, 2.0)   # lam/a = r at a = 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateJacobiWarning)
        served = spinor_psi2(geom, 2.0 * r, n, np.array([0.1, 1.0, 2.5]))
    with mpmath.workdps(40):
        r_mp = mpmath.mpf(r)
        f2 = lambda x: _psi2_mp(r_mp, n, x) ** 2
        ref = [_psi2_mp(r_mp, n, mpmath.mpf(x)) for x in (0.1, 1.0, 2.5)]
        np.testing.assert_allclose(served, [float(v) for v in ref], rtol=1e-12)
        x1, x2 = mpmath.mpf("1e-12"), mpmath.mpf("1e-13")
        e = mpmath.log(f2(x1) / f2(x2)) / mpmath.log(x1 / x2)
        h0 = f2(x1) / x1 ** e
        rest = mpmath.quad(lambda x: f2(x) - h0 * x ** e, [0, 0.3])
        assert mpmath.isfinite(rest) and h0 > 0
        left = e > -1
        if left:
            total = rest + h0 * mpmath.mpf(0.3) ** (e + 1) / (e + 1)
            assert total > 0 and mpmath.isfinite(total)
        # toward pi the prefactor wins over (1 + cos x)^(-1/2)
        right = mpmath.quad(f2, [mpmath.pi - 0.3, mpmath.pi])
        assert mpmath.isfinite(right) and right > 0
    assert psi2_integrable(geom, 2.0 * r, n) == (left, True)
    assert float(e) == pytest.approx(1.0 - 2.0 * r + 4.0 * (n >= 1), abs=1e-9)


def test_psi2_integrable_zero_profile():
    # P_n^(-1, -n) vanishes identically: no end is normalizable
    xs = np.linspace(0.1, 3.0, 64)
    with pytest.warns(DegenerateJacobiWarning):
        assert not np.any(spinor_psi2(TorusGeometry(1.0, 1.0), 2.0, 2, xs))
    assert psi2_integrable(TorusGeometry(1.0, 1.0), 2.0, 2) == (False, False)
    assert psi2_integrable(TorusGeometry(1.0, 1.0), 2.0, 0) == (False, True)
    assert psi2_integrable(TorusGeometry(1.0, 1.0), 2.0, 1) == (True, True)


def test_pt_spinor_lives_on_the_printed_torus():
    spec = PureTrigPT(-2.0, 0.5)
    assert spec.geom == TorusGeometry(1.0, 1.0)
    # a property, not a field: repr and equality are the two parameters'
    assert repr(spec) == "PureTrigPT(A=-2.0, B=0.5)"
    assert spec == PureTrigPT(-2.0, 0.5)
    xs = np.array([0.5, 1.0, 2.5])
    assert np.array_equal(spinor_psi1(spec, 2, xs),
                          prefactor_f(TorusGeometry(1.0, 1.0), xs)
                          * eigenfunction_minus(-2.0, 0.5, 2, xs))


def test_unsolved_rational_psi1_is_a_domain_error():
    # the Poschl-Teller functions do not solve this V-: no psi1 to serve
    spec = RationalSin(-2.0, 0.5, 0.3, TorusGeometry(1.0, 2.0))
    with pytest.raises(DomainError):
        spinor_psi1(spec, 1, np.array([0.5, 1.0]))


def test_beta_tail_psi1_is_served():
    spec = BetaTail(-0.25, -0.25, 1.0, TorusGeometry(1.0, 1.5))
    xs = np.array([0.3, 1.2, 2.8])
    got = spinor_psi1(spec, 1, xs)
    assert np.array_equal(got, prefactor_f(spec.geom, xs)
                          * eigenfunction_minus(-0.25, -0.25, 1, xs))
    assert spinor_psi1(spec, 1, 1.2) == got[1]


def test_unsolved_appell_spectrum_is_a_domain_error():
    spec = AppellTail(0.2, 0.1, 1.3, -1.0, TorusGeometry(1.0, 1.7))
    xs = np.linspace(0.2, 2.0, 401)
    # the remainder lambda_bracket / (2 P^2) of its V- does not vanish
    assert np.max(np.abs(lambda_bracket(0.2, 0.1, 1.3, 1.0, 1.7, xs)
                         / (2.0 * spec.geom.radius(xs) ** 2))) > 0.6
    assert not rational_part_cancels(spec)
    with pytest.raises(DomainError):
        analytic_spectrum(spec, 1)
    with pytest.raises(DomainError):
        spinor_psi1(spec, 1, xs)


def test_unequal_radii_appell_tail_is_not_served():
    # M is served on the equal-radii line c = a only: the c != a family
    # above is built, but evaluating its tail raises
    spec = AppellTail(0.2, 0.1, 1.3, -1.0, TorusGeometry(1.0, 1.7))
    xs = np.linspace(0.2, 2.0, 5)
    for evaluate in (superpotential_eval, superpotential_deriv, partner_potentials):
        with pytest.raises(DomainError, match="equal-radii line c = a only"):
            evaluate(spec, xs)


def _mp_partner_potentials(spec, x, big_m):
    """(V-, V+) = W^2 -+ W' of an Appell tail in mpmath at the double x, from
    the closed-form pieces and M = big_m(s), s = sin^2(x/2), and the size
    of the terms they are summed from."""
    A, B, lam, C1 = (mpmath.mpf(v) for v in (spec.A, spec.B, spec.lam, spec.C1))
    a, c = mpmath.mpf(spec.geom.a), mpmath.mpf(spec.geom.c)
    x = mpmath.mpf(x)
    sx, cx = mpmath.sin(x), mpmath.cos(x)
    p = c + a * cx
    core = (A * cx + B) / sx
    tail = lam * sx / p
    m = sx ** (2 * A) * mpmath.tan(x / 2) ** (2 * B) * p ** (-2 * lam / a)
    q = m / (C1 - big_m(mpmath.sin(x / 2) ** 2))
    w = core + q + tail
    wp_terms = (-(A + B * cx) / sx ** 2, q * 2 * (core + tail), q * q,
                lam * (cx * p + a * sx ** 2) / p ** 2)
    wp = sum(wp_terms)
    size = (abs(core) + abs(q) + abs(tail)) ** 2 + sum(abs(t) for t in wp_terms)
    return w * w - wp, w * w + wp, size


_ELEMENTARY_APPELL = [(0.5, 1.05, -0.25), (1.0, 2.0, -1.0), (1.5, 3.0, -3.0),
                      (0.8, 1.6, -1.7), (1.33, 2.12, -0.6)]
# c = a, A + B != 1/2 and 1/2 + A + B > 0: no solved set, so M has no
# elementary form, and V- keeps its rational remainder
_UNSOLVED_APPELL = [(1.0, -0.25, 1.3, -1.0, 1.0), (0.75, 0.5, 0.9, -2.0, 1.4),
                    (-0.2, 0.45, 2.5, -0.5, 0.6)]


@pytest.mark.parametrize("spec", [
    *(solve_parameter_conditions("appell", a=a, lam=a * r, branch="+", C1=c1)
      for a, r, c1 in _ELEMENTARY_APPELL),
    *(AppellTail(A, B, lam, c1, TorusGeometry(a, a)) for A, B, lam, c1, a in
      _UNSOLVED_APPELL),
])
def test_appell_tail_matches_mpmath_at_exact_arguments(spec):
    # M within 1e-13 relative of 40 digits on [0.002, 2], at the doubles x
    # and the parameters as given: a solved set (A + B = 1/2) against
    # M = 4^A (2a)^(-2r) expm1(-r log1p(-s))/r with r = lam/a, an unsolved
    # one against mpmath's incomplete beta.  V-+ within 1e-13 of the size of
    # the terms they are summed from, which cancel: V+ passes through 0
    A, B, lam, a = spec.A, spec.B, spec.lam, spec.geom.a
    x = np.linspace(0.002, 2.0, 201)
    with mpmath.workdps(40):
        mA, mB, r = mpmath.mpf(A), mpmath.mpf(B), mpmath.mpf(lam) / a
        pref = 4 ** mA * (2 * mpmath.mpf(a)) ** (-2 * r)
        if A + B == 0.5:
            def big_m(s):
                return pref * mpmath.expm1(-r * mpmath.log1p(-s)) / r
        else:
            def big_m(s):
                return pref * mpmath.betainc(0.5 + mA + mB, 0.5 + mA - mB - 2 * r, 0, s)
        want_m = [float(big_m(mpmath.sin(mpmath.mpf(u) / 2) ** 2)) for u in x]
        want = np.array([[float(v) for v in _mp_partner_potentials(spec, u, big_m)]
                         for u in x])
    got_m = -susy._appell_integrand(dataclasses.replace(spec, C1=0.0), x)[2]
    np.testing.assert_allclose(got_m, want_m, rtol=1e-13, atol=0.0)
    got_v = np.column_stack(partner_potentials(spec, x))
    assert np.all(np.abs(got_v - want[:, :2]) <= 1e-13 * want[:, 2:])


def test_solved_appell_sets_pass_the_cancellation_gate():
    rng = np.random.default_rng(19)
    xs = np.linspace(0.2, 2.0, 101)
    # the branch '+' sets, the root A = 1/2, B = 0 (lambda = a) and lambda = 0
    solved = [solve_parameter_conditions("appell", a=a, lam=a * t, branch="+")
              for a, t in zip(rng.uniform(0.1, 5.0, 200), rng.uniform(1.0, 6.0, 200))]
    solved.append(AppellTail(0.5, 0.0, 1.3, -1.0, TorusGeometry(1.3, 1.3)))
    solved.append(AppellTail(0.2, 0.1, 0.0, -1.0, TorusGeometry(1.0, 1.7)))
    for spec in solved:
        require_cancellation(spec)   # no DomainError
        a, c = spec.geom.a, spec.geom.c
        bracket = lambda_bracket(spec.A, spec.B, spec.lam, a, c, xs)
        assert np.max(np.abs(bracket)) < 1e-12 * (1.0 + spec.lam) ** 2 * (a + abs(c))


def test_psi2_substitution_exposes_parameter_swap():
    # the printed form solves the equation at n = 0 but not at n = 1
    spec = solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    lam, aq, bq = spec.lam, spec.A, spec.B
    v2 = PTCoefficients(aq * (aq + 1) + bq * bq, -(1 + 2 * aq) * bq, -aq * aq)
    xs = np.linspace(0.3, math.pi - 0.3, 2001)
    d = xs[1] - xs[0]
    resids = []
    for n in (0, 1):
        cx = np.cos(xs)
        f = ((1 - cx) ** ((1 - 2 * lam) / 4.0) * (1 + cx) ** -0.25
             * jacobi_poly(JacobiParams(n, -1.0, -lam), cx))
        fpp = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) \
            / (12.0 * d * d)
        eps = (n - aq) ** 2 - aq ** 2
        resids.append(np.max(np.abs(-fpp + (v2(xs) - eps)[2:-2] * f[2:-2]))
                      / np.abs(f).max())
    assert resids[0] < 1e-6
    assert resids[1] > 0.1
