"""Special-function evaluators against independent brute-force oracles."""

import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from scipy.integrate import quad

from toruspt import special
from toruspt.errors import DomainError, NonConvergence
from toruspt.special import (
    JacobiParams,
    SeriesControl,
    appell_f1,
    grid_derivative,
    grid_second_derivative,
    incomplete_beta,
    jacobi_poly,
    numeric_derivative,
)
from toruspt.susy import solve_parameter_conditions


# Parameter-domain properties: derandomized, so tier-1 stays deterministic.
_PROPERTY = hypothesis.settings(derandomize=True, max_examples=100, deadline=None)


# --- independent oracles ----------------------------------------------------

def poch(q, k):
    out = 1.0
    for i in range(k):
        out *= q + i
    return out


def jacobi_series_oracle(n, a, b, z):
    """Terminating hypergeometric sum, term by term."""
    tot = 0.0
    for k in range(n + 1):
        tot += (poch(-n, k) * poch(n + a + b + 1.0, k)
                / (poch(a + 1.0, k) * math.factorial(k)) * ((1.0 - z) / 2.0) ** k)
    return poch(a + 1.0, n) / math.factorial(n) * tot


def incbeta_quad_oracle(z, s, w):
    return quad(lambda u: u ** (s - 1.0) * (1.0 - u) ** (w - 1.0), 0.0, z,
                epsabs=1e-14, epsrel=1e-13, limit=400)[0]


def gauss_2f1_oracle(a, b, c, z):
    t, tot = 1.0, 1.0
    for k in range(1, 800):
        t *= (a + k - 1.0) * (b + k - 1.0) / ((c + k - 1.0) * k) * z
        tot += t
        if abs(t) < 1e-17 * abs(tot):
            break
    return tot


def appell_brute_oracle(a, b1, b2, c, x, y, terms=170):
    tot = 0.0
    row_head = 1.0
    for m in range(terms):
        t = row_head
        tot += t
        for n in range(1, terms - m):
            t *= (a + m + n - 1.0) * (b2 + n - 1.0) * y / ((c + m + n - 1.0) * n)
            tot += t
        row_head *= (a + m) * (b1 + m) * x / ((c + m) * (m + 1.0))
    return tot


# --- jacobi ------------------------------------------------------------------

def test_jacobi_degree_zero_is_one():
    assert jacobi_poly(JacobiParams(0, 1.7, -0.3), 0.3) == 1.0


def test_jacobi_degree_one_explicit():
    # (alpha - beta)/2 + (alpha + beta + 2) z / 2 at z = 0
    assert jacobi_poly(JacobiParams(1, 2.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_jacobi_matches_series_oracle():
    val = jacobi_poly(JacobiParams(3, -1.25, 0.75), 0.5)
    ref = jacobi_series_oracle(3, -1.25, 0.75, 0.5)
    assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("n,a,b,z", [
    (5, 1.7, -0.3, -0.4),
    (8, 2.3, 1.1, 0.9),
    (2, 0.0, 0.0, 0.7),       # Legendre slice
])
def test_jacobi_random_points_vs_oracle(n, a, b, z):
    # the alternating series oracle keeps full accuracy up to moderate degree
    assert jacobi_poly(JacobiParams(n, a, b), z) == pytest.approx(
        jacobi_series_oracle(n, a, b, z), rel=1e-12, abs=1e-13)


def test_jacobi_vs_library_evaluator():
    from scipy.special import eval_jacobi
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(0, 16))
        a, b = rng.uniform(-0.95, 3.0, 2)
        z = rng.uniform(-1.0, 1.0)
        assert jacobi_poly(JacobiParams(n, a, b), z) == pytest.approx(
            eval_jacobi(n, a, b, z), rel=1e-10, abs=1e-11)


@_PROPERTY
@hypothesis.given(n=st.integers(2, 12), a=st.floats(-3.0, 3.0),
                  b=st.floats(-3.0, 3.0), z=st.floats(-0.9, 0.9))
@hypothesis.example(n=2, a=-1.0, b=-0.5, z=0.3)      # alpha = -1 limit identity
@hypothesis.example(n=7, a=0.25, b=-1.25, z=-0.6)    # a + b = -1
def test_jacobi_recurrence_property(n, a, b, z):
    # 2n(n+a+b)(2n+a+b-2) P_n = (2n+a+b-1)[(2n+a+b)(2n+a+b-2) z + a^2-b^2] P_{n-1}
    #                           - 2(n+a-1)(n+b-1)(2n+a+b) P_{n-2},
    # off the manifold a + b in {-2, -3, ...}, where the leading factor can vanish
    s = a + b
    hypothesis.assume(abs(s - round(s)) > 1e-3 or round(s) > -2)
    p2 = jacobi_poly(JacobiParams(n, a, b), z)
    p1 = jacobi_poly(JacobiParams(n - 1, a, b), z)
    p0 = jacobi_poly(JacobiParams(n - 2, a, b), z)
    c1 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
    c2 = (2 * n + a + b - 1) * (a * a - b * b)
    c3 = (2 * n + a + b - 2) * (2 * n + a + b - 1) * (2 * n + a + b)
    c4 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
    scale = max(abs(c1 * p2), abs(c4 * p0), 1.0)
    assert abs(c1 * p2 - (c2 + c3 * z) * p1 + c4 * p0) / scale < 1e-12


# alpha = -1, -2 (limit identity), beta = -2.5, the mirrored beta = -1, the
# degenerate manifold alpha + beta = -2 and generic pairs on either side
_JACOBI_MPMATH_PAIRS = [(-1.0, 0.5), (-1.0, -2.5), (-2.0, 0.3), (-2.0, -2.5),
                        (0.7, -2.5), (0.4, -1.0), (-1.25, -0.75), (-0.5, -1.5),
                        (-3.3, 1.3), (1.5, -3.5), (-0.4, 0.9), (2.2, 1.7)]


@pytest.mark.parametrize("alpha,beta", _JACOBI_MPMATH_PAIRS)
def test_jacobi_matches_mpmath(alpha, beta):
    # 30-digit mpmath.jacobi on 41 points of [-1, 1], n = 0..12.  Near a root
    # no double-precision value has a small error relative to itself, so the
    # error is measured against the polynomial's largest value on the points.
    import mpmath

    zs = np.linspace(-1.0, 1.0, 41)
    for n in range(13):
        got = jacobi_poly(JacobiParams(n, alpha, beta), zs)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.jacobi(n, alpha, beta, z)) for z in zs])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale, (n, alpha, beta)


def test_jacobi_negative_integer_alpha_matches_parameter_limit():
    # alpha = -1 is the degenerate family used by the second spinor component
    for n in (1, 2, 3):
        lim = jacobi_poly(JacobiParams(n, -1.0 + 1e-7, -0.5), 0.3)
        val = jacobi_poly(JacobiParams(n, -1.0, -0.5), 0.3)
        assert val == pytest.approx(lim, abs=1e-5)


def test_jacobi_degenerate_recurrence_manifold():
    # a + b = -2 breaks the three-term recurrence but not the polynomial
    lim = jacobi_poly(JacobiParams(2, -1.25 + 1e-6, -0.75), 0.4)
    val = jacobi_poly(JacobiParams(2, -1.25, -0.75), 0.4)
    assert val == pytest.approx(lim, abs=1e-4)
    assert val == pytest.approx(-0.22875, abs=1e-12)


def test_jacobi_vectorized_matches_scalar():
    zs = np.linspace(-0.9, 0.9, 11)
    arr = jacobi_poly(JacobiParams(4, 0.3, -0.6), zs)
    for z, v in zip(zs, arr):
        assert v == pytest.approx(jacobi_poly(JacobiParams(4, 0.3, -0.6), float(z)))


def test_jacobi_rejects_negative_degree():
    with pytest.raises(DomainError):
        JacobiParams(-1, 0.0, 0.0)


# --- incomplete beta ----------------------------------------------------------

def test_incbeta_unit_integrand():
    assert incomplete_beta(0.7, 1.0, 1.0) == pytest.approx(0.7, abs=1e-14)


def test_incbeta_arcsin_closed_form():
    # 2*arcsin(sqrt(z)) at z = 1/4 is pi/3
    assert incomplete_beta(0.25, 0.5, 0.5) == pytest.approx(math.pi / 3.0, rel=1e-13)


def test_incbeta_complete_limit():
    # z -> 1 approaches the complete value Gamma(2)Gamma(3)/Gamma(5) = 1/12
    assert incomplete_beta(1.0 - 1e-13, 2.0, 3.0) == pytest.approx(1.0 / 12.0,
                                                                   rel=1e-10)


@pytest.mark.parametrize("z,s,w", [
    (0.3, 0.7, 2.5),
    (0.9, 1.2, 0.4),
    (0.5, 2.0, -1.7),
    (0.95, 0.3, 3.0),
    (0.6, 1.5, 0.0),
    (0.85, 3.1, -0.4),
])
def test_incbeta_vs_quadrature(z, s, w):
    assert incomplete_beta(z, s, w) == pytest.approx(incbeta_quad_oracle(z, s, w),
                                                     rel=1e-11, abs=1e-12)


def test_incbeta_random_triples_vs_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.15, 4.0)
        w = rng.uniform(-2.5, 4.0)
        ref = incbeta_quad_oracle(z, s, w)
        assert incomplete_beta(z, s, w) == pytest.approx(ref, rel=1e-10, abs=1e-10)


@_PROPERTY
@hypothesis.given(s=st.floats(0.15, 4.0), w=st.floats(-2.5, 4.0))
@hypothesis.example(s=1.3, w=2.1)
@hypothesis.example(s=1.0, w=0.0)
@hypothesis.example(s=0.5, w=-1.0)
@hypothesis.example(s=1.0, w=4.7e-172)
@hypothesis.example(s=1.0, w=-1e-12)
def test_incbeta_monotone_in_z(s, w):
    # the integrand u^(s-1) (1-u)^(w-1) is positive on (0, 1)
    zs = np.linspace(0.02, 0.999, 193)
    vals = incomplete_beta(zs, s, w)
    assert np.all(np.diff(vals) > 0.0)


def _incbeta_mpmath_draw(rng, i):
    """(z, s, w): every odd draw within 1e-15..1e-2 of w = 0, -1 or -2, every
    tenth draw on it; half the z within 1e-6..0.1 of 1."""
    s = rng.uniform(0.15, 4.0)
    if i % 2:
        w = float(rng.choice([0.0, -1.0, -2.0]))
        if i % 10 != 1:
            w += float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-15.0, -2.0)
    else:
        w = rng.uniform(-2.5, 4.0)
    if i % 4 < 2:
        z = 1.0 - 10.0 ** rng.uniform(-6.0, -1.0)
    else:
        z = rng.uniform(0.01, 0.9)
    return z, s, w


def test_incbeta_matches_mpmath():
    import mpmath

    rng = np.random.default_rng(606)
    worst, at = 0.0, None
    with mpmath.workdps(30):
        for i in range(640):
            z, s, w = _incbeta_mpmath_draw(rng, i)
            ref = float(mpmath.betainc(s, w, 0, z))
            err = abs(incomplete_beta(z, s, w) - ref) / abs(ref)
            if err > worst:
                worst, at = err, (z, s, w)
    assert worst <= 1e-12, at


def test_incbeta_domain_errors():
    with pytest.raises(DomainError):
        incomplete_beta(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        incomplete_beta(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        incomplete_beta(0.5, -0.2, 1.0)
    with pytest.raises(DomainError):
        incomplete_beta(0.5, 1.0, math.nan)


def test_incbeta_nonconvergence_budget():
    ctl = SeriesControl(max_terms=4, abs_tol=1e-16, rel_tol=1e-15)
    with pytest.raises(NonConvergence):
        incomplete_beta(0.9, 0.5, -1.5, ctl)


# --- two-variable hypergeometric series ---------------------------------------

def test_appell_origin_is_one():
    assert appell_f1(0.5, 1.0, 2.0, 3.0, 0.0, 0.0) == 1.0


# the domain of test_appell_vs_brute_force
_F1_PARAMS = dict(a=st.floats(0.2, 2.0), b1=st.floats(-1.5, 2.0),
                  b2=st.floats(-1.5, 2.0), c=st.floats(0.5, 3.5),
                  x=st.floats(-0.6, 0.6))


@_PROPERTY
@hypothesis.given(**_F1_PARAMS)
@hypothesis.example(a=0.5, b1=0.25, b2=1.5, c=2.0, x=0.4)
def test_appell_reduces_to_gauss_at_y0(a, b1, b2, c, x):
    val = appell_f1(a, b1, b2, c, x, 0.0)
    assert val == pytest.approx(gauss_2f1_oracle(a, b1, c, x), abs=1e-10)


def test_appell_reduces_on_diagonal():
    val = appell_f1(0.5, 0.25, 1.5, 2.0, 0.3, 0.3)
    assert val == pytest.approx(gauss_2f1_oracle(0.5, 1.75, 2.0, 0.3), abs=1e-9)


def test_appell_vs_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = rng.uniform(0.2, 2.0)
        b1, b2 = rng.uniform(-1.5, 2.0, 2)
        c = rng.uniform(0.5, 3.5)
        x, y = rng.uniform(-0.6, 0.6, 2)
        ref = appell_brute_oracle(a, b1, b2, c, x, y)
        assert appell_f1(a, b1, b2, c, x, y) == pytest.approx(ref, rel=1e-9,
                                                              abs=1e-9)


@_PROPERTY
@hypothesis.given(y=st.floats(-0.6, 0.6), **_F1_PARAMS)
@hypothesis.example(a=0.5, b1=0.25, b2=1.5, c=2.0, x=0.4, y=0.2)
def test_appell_symmetry(a, b1, b2, c, x, y):
    # F1(a; b1, b2; c; x, y) = F1(a; b2, b1; c; y, x)
    v1 = appell_f1(a, b1, b2, c, x, y)
    v2 = appell_f1(a, b2, b1, c, y, x)
    assert abs(v1 - v2) < 1e-12


def test_appell_domain_errors():
    with pytest.raises(DomainError):
        appell_f1(0.5, 1.0, 1.0, 2.0, 1.0, 0.3)
    with pytest.raises(DomainError):
        appell_f1(0.5, 1.0, 1.0, -2.0, 0.3, 0.3)


def test_appell_budget_exhaustion():
    ctl = SeriesControl(max_terms=8, abs_tol=1e-16, rel_tol=1e-15)
    with pytest.raises(NonConvergence):
        appell_f1(0.5, 1.0, 1.0, 2.0, 0.9, 0.9, ctl)


def _gauss_abs_sum(a, b, c, x):
    """sum_k |(a)_k (b)_k / ((c)_k k!) x^k|: the rounding scale of the series."""
    t, tot = 1.0, 1.0
    for k in range(1, 4000):
        t *= abs((a + k - 1.0) * (b + k - 1.0) / ((c + k - 1.0) * k) * x)
        tot += t
        if t < 1e-17 * tot:
            break
    return tot


_TIGHT = SeriesControl(max_terms=2048, abs_tol=1e-18, rel_tol=1e-16)


@_PROPERTY
@hypothesis.given(**{**_F1_PARAMS, "x": st.floats(-0.85, 0.85)})
@hypothesis.example(a=0.5, b1=0.25, b2=1.5, c=2.0, x=0.3)
@hypothesis.example(a=1.98, b1=1.49, b2=1.41, c=1.24, x=-0.844)  # F1 = 0.0148
def test_appell_recurrence_agrees_with_diagonal_series(a, b1, b2, c, x):
    # appell_f1 sums x = y as the one-variable series; the three-term
    # recurrence for x != y must give the same value there.  A tight budget
    # makes both stop past rounding, so what is left is the rounding of the
    # two summations, within 1e-13 of the sum of |terms| (|F1| itself when no
    # term is negative).
    pts = np.array([x])
    rec = special._appell_f1_recurrence(a, b1, b2, c, pts, pts, _TIGHT)
    diag = appell_f1(a, b1, b2, c, x, x, _TIGHT)
    assert abs(rec[0] - diag) <= 1e-13 * _gauss_abs_sum(a, b1 + b2, c, x)


def test_appell_diagonal_skips_the_recurrence(monkeypatch):
    def no_recurrence(*args):
        raise AssertionError("the two-variable recurrence ran on x = y")

    monkeypatch.setattr(special, "_appell_f1_recurrence", no_recurrence)
    x = np.linspace(-0.8, 0.8, 9).reshape(3, 3)
    got = appell_f1(0.5, 0.25, 1.5, 2.0, x, x.copy())
    assert got.shape == (3, 3)
    for u, v in zip(x.ravel(), got.ravel()):
        assert v == pytest.approx(gauss_2f1_oracle(0.5, 1.75, 2.0, u), rel=1e-13)
    assert appell_f1(0.5, 0.25, 1.5, 2.0, 0.4, 0.4) == pytest.approx(
        gauss_2f1_oracle(0.5, 1.75, 2.0, 0.4), rel=1e-13)


def test_appell_budget_message_is_the_same_on_both_paths():
    ctl = SeriesControl(max_terms=40, abs_tol=1e-16, rel_tol=1e-15)
    x = np.array([0.05, 0.95, 0.0, 0.9])
    with pytest.raises(NonConvergence) as rec:
        special._appell_f1_recurrence(0.5, 1.0, 1.0, 2.0, x, x, ctl)
    with pytest.raises(NonConvergence) as diag:
        appell_f1(0.5, 1.0, 1.0, 2.0, x, x, ctl)
    assert str(diag.value) == str(rec.value) == (
        "appell_f1 did not converge within 40 diagonals at 2 point(s)")


def test_appell_overflow_is_nonconvergence_on_both_paths():
    x = np.array([0.1, 0.99])
    with np.errstate(over="ignore"):
        for y in (x, np.array([0.1, 0.98])):  # the diagonal, then the recurrence
            with pytest.raises(NonConvergence, match="overflowed"):
                appell_f1(300.0, 300.0, 300.0, 0.5, x, y)


def test_appell_empty_arrays():
    out = appell_f1(0.5, 0.25, 1.5, 2.0, np.empty((0, 3)), np.empty((0, 3)))
    assert out.shape == (0, 3)


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_incbeta_empty_arrays(shape):
    out = incomplete_beta(np.empty(shape), 0.5, 0.5)
    assert out.shape == shape
    with pytest.raises(DomainError):
        incomplete_beta(np.empty(shape), -0.5, 0.5)


def _appell_grid(n):
    rng = np.random.default_rng(29)
    return rng.uniform(-0.85, 0.85, n), rng.uniform(-0.85, 0.85, n)


def test_appell_array_equals_scalar_calls_bitwise():
    x, y = _appell_grid(301)
    got = appell_f1(0.7, -0.4, 1.3, 1.9, x, y)
    ref = np.array([appell_f1(0.7, -0.4, 1.3, 1.9, float(u), float(v))
                    for u, v in zip(x, y)])
    assert np.array_equal(got, ref)


def test_appell_array_shapes():
    x, y = _appell_grid(12)
    flat = appell_f1(0.5, 0.25, 1.5, 2.0, x, y)
    assert flat.shape == (12,)
    grid = appell_f1(0.5, 0.25, 1.5, 2.0, x.reshape(3, 4), y.reshape(3, 4))
    assert grid.shape == (3, 4)
    assert np.array_equal(grid.ravel(), flat)
    scalar = appell_f1(0.5, 0.25, 1.5, 2.0, np.array(x[0]), np.array(y[0]))
    assert type(scalar) is float
    assert scalar == flat[0]


def test_appell_origin_inside_array_is_one():
    out = appell_f1(0.5, 1.0, 2.0, 3.0, np.array([0.4, 0.0, -0.3]),
                    np.array([0.1, 0.0, 0.6]))
    assert out[1] == 1.0


def test_appell_array_domain_errors():
    with pytest.raises(DomainError):
        appell_f1(0.5, 1.0, 1.0, 2.0, np.array([0.1, 1.0, 0.2]), np.zeros(3))
    with pytest.raises(DomainError):
        appell_f1(0.5, 1.0, 1.0, 2.0, np.zeros(3), np.array([0.1, -1.2, 0.2]))
    with pytest.raises(DomainError):
        appell_f1(0.5, 1.0, 1.0, 2.0, np.zeros(3), np.zeros(4))


def test_appell_one_slow_point_exhausts_budget():
    ctl = SeriesControl(max_terms=40, abs_tol=1e-16, rel_tol=1e-15)
    x = np.array([0.05, 0.1, 0.95, 0.0])
    appell_f1(0.5, 1.0, 1.0, 2.0, x[[0, 1, 3]], x[[0, 1, 3]], ctl)  # these converge
    with pytest.raises(NonConvergence):
        appell_f1(0.5, 1.0, 1.0, 2.0, x, x, ctl)


def test_appell_matches_mpmath():
    import mpmath

    rng = np.random.default_rng(31)
    cases = []
    for _ in range(12):
        a, b1, b2 = rng.uniform(0.2, 2.0), *rng.uniform(-1.5, 2.0, 2)
        cases.append((a, b1, b2, rng.uniform(0.5, 3.5),
                      rng.uniform(-0.6, 0.6, 1), rng.uniform(-0.6, 0.6, 1)))
    # the AppellTail parameter line that susy sums at every grid point
    spec = solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+")
    a, c = spec.geom.a, spec.geom.c
    pw = spec.A + spec.B + 0.5
    s = np.sin(0.5 * np.linspace(0.002, 2.0, 8)) ** 2
    cases.append((pw, 0.5 - spec.A + spec.B, 2.0 * spec.lam / a, pw + 1.0,
                  s, 2.0 * a / (a + c) * s))
    for a, b1, b2, c, x, y in cases:
        got = appell_f1(a, b1, b2, c, x, y)
        for g, u, v in zip(got, x, y):
            with mpmath.workdps(30):
                ref = float(mpmath.appellf1(a, b1, b2, c, u, v))
            assert g == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("b1", [0.0, -1.0, -2.0])
def test_appell_recurrence_matches_mpmath_where_it_is_weakest(b1):
    # For b1 in {0, -1, -2} F1 is a polynomial in x, so its diagonal sums
    # decay like y^k while the recurrence also carries a solution growing like
    # x^k: with |x| >> |y| rounding feeds that solution at every step.  Mixed
    # signs make the diagonal sums cancel.
    import mpmath

    points = [(0.85, 0.05), (0.9, -0.01), (0.6, 1e-4), (-0.8, 0.3),
              (0.7, -0.6), (-0.5, 0.45)]
    x, y = (np.array(v) for v in zip(*points))
    for a, b2, c in ((0.5, 1.5, 2.0), (1.7, -0.6, 0.8), (1.2, 2.0, 3.1)):
        got = appell_f1(a, b1, b2, c, x, y)
        for g, u, v in zip(got, x, y):
            with mpmath.workdps(30):
                ref = float(mpmath.appellf1(a, b1, b2, c, u, v))
            assert g == pytest.approx(ref, rel=1e-12, abs=0.0), (a, b1, b2, c, u, v)


# --- numeric derivative --------------------------------------------------------

def test_derivative_identity():
    assert numeric_derivative(lambda u: u, 1.0, 1, 1e-4) == pytest.approx(1.0,
                                                                          abs=1e-9)


def test_derivative_cos_first_order():
    got = numeric_derivative(np.cos, math.pi / 3.0, 1, 1e-4)
    assert got == pytest.approx(-math.sin(math.pi / 3.0), abs=1e-7)


def test_derivative_cos_second_order():
    got = numeric_derivative(np.cos, math.pi / 3.0, 2, 1e-3)
    assert got == pytest.approx(-math.cos(math.pi / 3.0), abs=1e-5)


def test_derivative_h2_scaling():
    f, x0 = np.sin, 0.7
    e1 = abs(numeric_derivative(f, x0, 1, 2e-3) - math.cos(x0))
    e2 = abs(numeric_derivative(f, x0, 1, 1e-3) - math.cos(x0))
    assert 3.0 < e1 / e2 < 5.0


# --- grid stencils ------------------------------------------------------------

def test_grid_derivative_exact_on_quartic():
    # 4th order everywhere: exact to rounding on a quartic, on the interior
    # rows and on both pairs of one-sided edge rows
    x = np.linspace(-1.0, 2.0, 31)
    step = x[1] - x[0]
    f = 0.3 - 1.2 * x + 0.7 * x**2 + 0.4 * x**3 - 0.25 * x**4
    want = -1.2 + 1.4 * x + 1.2 * x**2 - x**3
    err = np.abs(grid_derivative(f, step) - want)
    tol = 1e-14 * np.abs(f).max() / step
    for rows in (slice(2, -2), slice(0, 2), slice(-2, None)):
        assert err[rows].max() < tol


def test_grid_derivative_is_not_exact_on_quintic():
    x = np.linspace(-1.0, 2.0, 31)
    err = np.abs(grid_derivative(x**5, x[1] - x[0]) - 5.0 * x**4)
    assert err[:2].min() > 1e-4 and err[2:-2].min() > 1e-4


def test_grid_derivative_needs_five_samples():
    with pytest.raises(DomainError):
        grid_derivative(np.ones(4), 0.1)


def test_grid_second_derivative_exact_on_quintic():
    x = np.linspace(-1.0, 2.0, 31)
    step = x[1] - x[0]
    f = 0.3 - 1.2 * x + 0.7 * x**2 + 0.4 * x**3 - 0.25 * x**4 + 0.1 * x**5
    want = 1.4 + 2.4 * x - 3.0 * x**2 + 2.0 * x**3
    got = grid_second_derivative(f, step)
    assert got.shape == (x.size - 4,)
    assert np.abs(got - want[2:-2]).max() < 1e-14 * np.abs(f).max() / step**2


def test_series_control_invariants():
    with pytest.raises(DomainError):
        SeriesControl(max_terms=0)
    for bad in (10.5, 10.0, "10"):
        with pytest.raises(DomainError, match="integer"):
            SeriesControl(max_terms=bad)
    assert SeriesControl(max_terms=np.int64(40)).max_terms == 40
    with pytest.raises(DomainError):
        SeriesControl(abs_tol=0.0, rel_tol=0.0)
