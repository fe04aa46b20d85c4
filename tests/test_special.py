"""Special-function evaluators against independent brute-force oracles."""

import contextlib
import math
import tracemalloc
import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from scipy.integrate import quad

from toruspt import geometry, iso21, special, susy, verify
from toruspt.errors import DomainError, NonConvergence
from toruspt.special import (
    JacobiParams,
    appell_f1,
    grid_derivative,
    grid_second_derivative,
    incomplete_beta,
    incomplete_beta_series,
    jacobi_poly,
    numeric_derivative,
)
from toruspt.susy import solve_parameter_conditions


# Parameter-domain properties: derandomized, so tier-1 stays deterministic.
_PROPERTY = hypothesis.settings(derandomize=True, max_examples=100, deadline=None)


@contextlib.contextmanager
def _budget(max_terms, abs_tol, rel_tol):
    """Run the series under another truncation budget than the module's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_MAX_TERMS", max_terms)
        mp.setattr(special, "_ABS_TOL", abs_tol)
        mp.setattr(special, "_REL_TOL", rel_tol)
        yield


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


def incbeta_qaws_oracle(z, s, w):
    """QUADPACK QAWS: the weight u^(s-1) is integrated exactly."""
    return quad(lambda u: (1.0 - u) ** (w - 1.0), 0.0, z, weight="alg",
                wvar=(s - 1.0, 0.0), epsabs=1e-14, epsrel=1e-13, limit=400)[0]


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


# an exponent drawn from [-3, 3] or a negative integer (the limit identity)
_JACOBI_EXPONENT = st.one_of(st.floats(-3.0, 3.0), st.integers(-12, -1).map(float))


@_PROPERTY
@hypothesis.given(n=st.integers(0, 12), a=_JACOBI_EXPONENT, b=_JACOBI_EXPONENT,
                  degenerate=st.integers(-22, -2) | st.none(),
                  z=st.floats(-1.0, 1.0))
@hypothesis.example(n=4, a=-2.0, b=0.5, degenerate=None, z=0.3)     # alpha = -2
@hypothesis.example(n=5, a=0.7, b=-3.0, degenerate=None, z=-0.6)    # beta = -3
@hypothesis.example(n=6, a=0.25, b=0.0, degenerate=-3, z=0.45)      # a + b = -3
@hypothesis.example(n=12, a=1.3, b=-0.4, degenerate=None, z=0.9)    # recurrence
def test_jacobi_scalar_is_the_array_entry(n, a, b, degenerate, z):
    # a 0-d z runs the recurrence on Python floats; every branch (recurrence,
    # limit identity, mirror, binomial sum) gives the bits of a 1-point array
    if degenerate is not None:   # a + b on the manifold {-2, -3, ...}
        b = degenerate - a
    params = JacobiParams(n, a, b)
    got = jacobi_poly(params, z)
    assert type(got) is float
    want = jacobi_poly(params, np.array([z]))[0]
    assert got == want or (math.isnan(got) and math.isnan(want))


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


def test_jacobi_leading_coefficient_rounding_to_zero():
    # k + a + b rounds to 0 at k = 2 although a + b is not near an integer
    # of the degenerate manifold: the binomial sum, not a 0/0 recurrence step
    import mpmath

    params = JacobiParams(3, -1e17, 1e17)
    zs = np.array([0.3, -0.5, 0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = jacobi_poly(params, 0.3)
        arr = jacobi_poly(params, zs)
    assert type(scalar) is float and scalar == arr[0]
    with mpmath.workdps(60):
        ref = [float(mpmath.jacobi(3, mpmath.mpf(-1e17), mpmath.mpf(1e17),
                                   mpmath.mpf(float(z)))) for z in zs]
    np.testing.assert_allclose(arr, ref, rtol=1e-14, atol=0.0)


def test_jacobi_vectorized_matches_scalar():
    zs = np.linspace(-0.9, 0.9, 11)
    arr = jacobi_poly(JacobiParams(4, 0.3, -0.6), zs)
    for z, v in zip(zs, arr):
        assert v == pytest.approx(jacobi_poly(JacobiParams(4, 0.3, -0.6), float(z)))


def test_jacobi_rejects_negative_degree():
    with pytest.raises(DomainError):
        JacobiParams(-1, 0.0, 0.0)


def test_jacobi_rejects_a_non_integral_degree():
    for bad in (3.0, 2.5, "3"):
        with pytest.raises(DomainError, match="integer"):
            JacobiParams(bad, 0.5, 0.5)
    assert jacobi_poly(JacobiParams(np.int64(3), 0.5, 0.5), 0.3) == \
        jacobi_poly(JacobiParams(3, 0.5, 0.5), 0.3)


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


def test_beta_quadrature_reference_matches_mpmath():
    # verify's reference, scipy's compiled 2F1, on the check's 100 draws
    # against the same DLMF 8.17.7 form, B(z; s, w) = z^s/s 2F1(s, 1 - w;
    # s + 1; z), in 40-digit mpmath
    import mpmath

    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        z, s, w = rng.uniform(0.05, 0.95), rng.uniform(0.15, 4.0), rng.uniform(-2.5, 4.0)
        with mpmath.workdps(40):
            zm, sm, wm = (mpmath.mpf(float(v)) for v in (z, s, w))
            ref = zm ** sm / sm * mpmath.hyp2f1(sm, 1 - wm, sm + 1, zm)
            worst = max(worst, float(abs((verify._beta_reference(z, s, w) - ref) / ref)))
    assert worst < 1e-14


def test_beta_quadrature_reference_matches_qaws():
    # QUADPACK QAWS, a quadrature independent of any 2F1 code, agrees with
    # verify's 2F1 reference on the check's 100 draws
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        z, s, w = rng.uniform(0.05, 0.95), rng.uniform(0.15, 4.0), rng.uniform(-2.5, 4.0)
        ref = verify._beta_reference(z, s, w)
        worst = max(worst, abs(incbeta_qaws_oracle(z, s, w) - ref) / abs(ref))
    assert worst < 1e-14


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


@pytest.mark.parametrize("entry", [incomplete_beta, incomplete_beta_series])
def test_incbeta_entry_points_share_their_argument_checks(entry):
    for z, s, w, match in ((0.0, 1.0, 1.0, "0 < z < 1"),
                           (np.array([0.5, 1.0]), 1.0, 1.0, "0 < z < 1"),
                           (0.5, np.ones(2), 1.0, "scalar s and w"),
                           (0.5, 1.0, math.inf, "finite"),
                           (0.5, 0.0, 1.0, "s > 0")):
        with pytest.raises(DomainError, match=match):
            entry(z, s, w)
    assert entry(np.empty((0, 2)), 0.5, 0.5).shape == (0, 2)


def test_incbeta_series_is_the_series_at_every_point():
    # up to z0 the series incomplete_beta sums there, bit for bit; past z0
    # the same series where incomplete_beta takes the integral from z0, so
    # the two agree to rounding and truncation (the tail past the stop term
    # grows like 1/(1 - z)); near 1 it exhausts the budget
    z = np.linspace(0.05, 0.75, 29)
    assert np.array_equal(incomplete_beta_series(z, 1.5, -0.5),
                          incomplete_beta(z, 1.5, -0.5))
    assert incomplete_beta_series(0.3, 1.5, -0.5) == incomplete_beta(0.3, 1.5, -0.5)
    for s, w in ((1.0, -2.0), (1.25, 0.7), (0.5, -3.25)):
        for u in (0.8, 0.9):
            got = incomplete_beta_series(np.array([0.2, u]), s, w)
            assert _assert_same(incomplete_beta_series, np.array([0.2, u]), s, w) \
                == np.asarray(got).view(np.int64).tolist()
            assert got[1] == pytest.approx(incomplete_beta(u, s, w), rel=1e-13)
    with pytest.raises(NonConvergence, match="did not converge in 2048 terms"):
        incomplete_beta_series(np.array([0.5, 1.0 - 1e-6]), 1.0, -2.0)


@pytest.mark.parametrize("z, s", [(0.875, 1.0), (0.99, 2.5), (0.5, 0.7)])
def test_incbeta_subnormal_w_is_the_w0_value(z, s):
    # the pole term at e = w near 0 is taken without dividing by e, so a
    # subnormal w does not overflow to inf; B is continuous in w
    ref = incomplete_beta(z, s, 0.0)
    for w in (2.2250738585e-313, 5e-324, -5e-324, np.nextafter(0.0, 1.0) * 3):
        got = incomplete_beta(z, s, w)
        assert abs(got - ref) <= special._ABS_TOL + special._REL_TOL * abs(ref)


def test_incbeta_nonconvergence_budget():
    with _budget(4, 1e-16, 1e-15), pytest.raises(NonConvergence):
        incomplete_beta(0.9, 0.5, -1.5)


def test_incbeta_overflowing_series_is_nonconvergence():
    # (1 - w)_k z^k / k! overflows at w = -600; an inf sum once passed the
    # stop test (inf <= inf) and came out as inf, with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (0.7, np.array([0.3, 0.7])):
            with pytest.raises(NonConvergence, match="overflowed"):
                incomplete_beta(z, 0.5, -600.0)


def test_incbeta_overflowing_z0_series_is_nonconvergence():
    # at an upper point the series for B(z0) overflows at w = -100000.5; it
    # raises the same under the errstate the CLI evaluates tails in
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonConvergence, match="overflowed"):
        incomplete_beta(0.9, 99999.5, -100000.5)


_UPPER_POWER_OVERFLOW = "overflowed: 0.25 \\*\\* w is out of range of a double"


def test_incbeta_overflowing_upper_power_is_nonconvergence():
    # (1 - z0) ** w = 0.25 ** w overflows a double for w <= -512.  At a huge
    # s the series for B(z0) stops at its first term, (1 - w) z0 / s <= 1e-16,
    # so the upper region starts and its power overflows: NonConvergence, not
    # Python's OverflowError, at one point and at several
    z = np.array([0.3, 0.9])
    for s, w in ((1e19, -600.0), (1e19, -512.0), (1e300, -1e5)):
        for args in ((0.9, s, w), (z, s, w)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonConvergence, match=_UPPER_POWER_OVERFLOW):
                    incomplete_beta(*args)


@pytest.mark.parametrize("points", [False, True])
def test_incbeta_past_the_upper_power_range_is_nonconvergence(points):
    # near w = -512 every s raises NonConvergence, as the 0.9.0 loops do: the
    # series for B(z0) exhausts its budget or overflows up to s = 1e17, and
    # at s = 1e19 the upper power overflows where w <= -512 (the upper
    # series exhausts its budget above that); at one point or at two
    z = np.array([0.3, 0.9]) if points else 0.9
    for w in (-520.0, -513.0, -512.0, -511.5, -511.0):
        for s in (0.05, 7.5, 99999.5, 1e17, 1e19):
            with pytest.raises(NonConvergence) as info:
                incomplete_beta(z, s, w)
            assert ("out of range" in str(info.value)) == (s == 1e19 and w <= -512.0)
            assert _assert_same(incomplete_beta, z, s, w)[0] is NonConvergence


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


def _appell_brute_draws():
    """The 25 (a, b1, b2, c, x, y) of verify's appell_brute check, in its order."""
    rng = np.random.default_rng(303)
    bounds = ((0.2, 2.0), (-1.5, 2.0), (-1.5, 2.0), (0.5, 3.5), (-0.6, 0.6), (-0.6, 0.6))
    return [tuple(rng.uniform(lo, hi) for lo, hi in bounds) for _ in range(25)]


def test_verify_brute_f1_is_the_loop_bit_for_bit():
    # verify's array reference sums the loop's terms in the loop's order
    for draw in _appell_brute_draws():
        assert verify._brute_f1(*draw, terms=170) == appell_brute_oracle(*draw)


@_PROPERTY
@hypothesis.given(y=st.floats(-0.6, 0.6), **_F1_PARAMS)
def test_verify_brute_f1_is_the_loop_bit_for_bit_property(a, b1, b2, c, x, y):
    assert (verify._brute_f1(a, b1, b2, c, x, y, terms=170)
            == appell_brute_oracle(a, b1, b2, c, x, y))


def test_appell_brute_check_builds_one_draw_at_a_time():
    # one terms x terms array per draw (205 KB at 160 terms), never all 25
    check = verify.CHECKS["appell_brute"][1]
    check(verify.Context())   # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        check(verify.Context())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
    with _budget(8, 1e-16, 1e-15), pytest.raises(NonConvergence):
        appell_f1(0.5, 1.0, 1.0, 2.0, 0.9, 0.9)


def test_appell_budget_message_names_the_unconverged_points():
    x = np.array([0.05, 0.95, 0.0, 0.9])
    with _budget(40, 1e-16, 1e-15), pytest.raises(NonConvergence) as info:
        appell_f1(0.5, 1.0, 1.0, 2.0, x, x)
    assert str(info.value) == (
        "appell_f1 did not converge within 40 diagonals at 2 point(s)")


def test_appell_overflow_is_nonconvergence():
    x = np.array([0.1, 0.99])
    for y in (x, np.array([0.1, 0.98])):  # on the diagonal x = y, then off it
        with pytest.raises(NonConvergence, match="overflowed"):
            appell_f1(300.0, 300.0, 300.0, 0.5, x, y)


def test_appell_overflowing_partial_sum_is_nonconvergence():
    # every diagonal sum is finite and their partial sum overflows: the same
    # NonConvergence at x = y (scalar and array) as for x != y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in ((0.999, 0.999), (np.array([0.5, 0.999]),) * 2, (0.999, 0.998)):
            with pytest.raises(NonConvergence) as info:
                appell_f1(300.0, 1.0, 0.75, 2.0, x, y)
            assert str(info.value) == "appell_f1 series overflowed before converging"


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
    x = np.array([0.05, 0.1, 0.95, 0.0])
    with _budget(40, 1e-16, 1e-15):
        appell_f1(0.5, 1.0, 1.0, 2.0, x[[0, 1, 3]], x[[0, 1, 3]])  # these converge
        with pytest.raises(NonConvergence):
            appell_f1(0.5, 1.0, 1.0, 2.0, x, x)


def test_appell_matches_mpmath():
    import mpmath

    rng = np.random.default_rng(31)
    cases = []
    for _ in range(12):
        a, b1, b2 = rng.uniform(0.2, 2.0), *rng.uniform(-1.5, 2.0, 2)
        cases.append((a, b1, b2, rng.uniform(0.5, 3.5),
                      rng.uniform(-0.6, 0.6, 1), rng.uniform(-0.6, 0.6, 1)))
    # the served AppellTail parameter line, where x = y (susy sums it as an
    # incomplete beta, tests/test_susy.py checks the two agree)
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


# --- per-point parameters -----------------------------------------------------
#
# appell_f1 takes its parameters as scalars or one value per point.  A call
# with per-point parameters gives each point the value of its own scalar call,
# bit for bit: each point keeps that call's stop test.  incomplete_beta takes
# scalar s and w only.

_F1_DRAW = st.tuples(st.floats(0.2, 2.0), st.floats(-1.5, 2.0), st.floats(-1.5, 2.0),
                     st.floats(0.5, 3.5), st.floats(-0.85, 0.85), st.floats(-0.85, 0.85),
                     st.booleans())


@_PROPERTY
@hypothesis.given(draws=st.lists(_F1_DRAW, min_size=1, max_size=12))
@hypothesis.example(draws=[(0.5, 0.25, 1.5, 2.0, 0.4, 0.2, False),
                           (1.2, -0.7, 0.3, 2.5, -0.5, 0.0, True),
                           (0.8, 1.1, 2.2, 3.0, 0.84, 0.0, False),
                           (0.8, 1.1, 2.2, 3.0, 0.0, 0.0, False)])
@hypothesis.example(draws=[(0.5, 0.25, 1.5, 2.0, 0.4, 0.2, True),   # the Appell
                           (1.2, -0.7, 0.3, 2.5, -0.5, 0.0, True)])  # tail's case
def test_appell_per_point_parameters_are_the_scalar_calls(draws):
    # the last field puts a draw on x = y; a draw at x = 0.84 takes far more
    # diagonals than one at x = 0
    rows = [(a, b1, b2, c, x, x if on_diag else y)
            for a, b1, b2, c, x, y, on_diag in draws]
    got = appell_f1(*(np.array(col) for col in zip(*rows)))
    assert np.array_equal(got, [appell_f1(*row) for row in rows])


def test_incbeta_array_parameters_are_domain_errors():
    z = np.linspace(0.1, 0.9, 3)
    for s, w in ((np.ones(3), 1.0), (1.0, np.ones(3)), (np.ones(1), 1.0),
                 (1.0, [1.0]), (np.ones((1, 1)), np.ones(3))):
        for points in (z, 0.5):
            with pytest.raises(DomainError, match="scalar s and w"):
                incomplete_beta(points, s, w)
    # a numpy scalar or a 0-d array is a scalar
    assert incomplete_beta(z, np.float64(1.5), np.array(0.5)).tolist() == \
        incomplete_beta(z, 1.5, 0.5).tolist()


def test_per_point_parameters_broadcast():
    z = np.linspace(0.1, 0.9, 12).reshape(3, 4)
    s = np.array([0.5, 1.5, 2.5, 3.5])
    x = z - 0.5
    f1 = appell_f1(0.7, s, 0.3, 1.9, x, 0.5 * x)
    assert f1.shape == (3, 4)
    assert f1[1, 3] == appell_f1(0.7, 3.5, 0.3, 1.9, x[1, 3], 0.5 * x[1, 3])
    with pytest.raises(DomainError, match="broadcast"):
        appell_f1(np.ones(5), 1.0, 1.0, 2.0, x, x)


@pytest.mark.parametrize("call", [
    lambda: appell_f1(math.nan, 1.0, 1.0, 2.0, 0.3, 0.2),
    lambda: appell_f1(0.5, math.inf, 1.0, 2.0, 0.3, 0.2),
    lambda: appell_f1(0.5, 1.0, -math.inf, 2.0, 0.3, 0.3),
    lambda: appell_f1(0.5, 1.0, 1.0, math.nan, 0.3, 0.2),
    lambda: incomplete_beta(math.nan, 1.0, 1.0),
    lambda: incomplete_beta(0.3, math.inf, 1.0),
    lambda: incomplete_beta(0.3, 1.0, -math.inf),
    lambda: jacobi_poly(JacobiParams(3, math.nan, 1.0), 0.3),
    lambda: jacobi_poly(JacobiParams(3, 0.5, math.inf), 0.3),
])
def test_non_finite_parameters_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


@_PROPERTY
@hypothesis.given(n=st.integers(1, 8), data=st.data())
def test_per_point_domain_errors(n, data):
    # one bad point in an array of good ones is a DomainError, not a value
    at = data.draw(st.integers(0, n - 1))
    x = np.linspace(-0.5, 0.5, n)
    z = np.linspace(0.1, 0.9, n)

    def spoil(good, bad):
        v = np.full(n, good)
        v[at] = bad
        return v

    bad_c = data.draw(st.sampled_from([0.0, -1.0, -3.0, math.nan, math.inf]))
    with pytest.raises(DomainError):
        appell_f1(0.5, 1.0, 1.0, spoil(2.0, bad_c), x, x[::-1])
    with pytest.raises(DomainError):
        appell_f1(spoil(0.5, math.nan), 1.0, 1.0, 2.0, x, x)
    with pytest.raises(DomainError):
        incomplete_beta(z, data.draw(st.sampled_from(
            [0.0, -0.5, math.nan, math.inf])), 1.0)
    with pytest.raises(DomainError):
        incomplete_beta(z, 1.0, data.draw(st.sampled_from(
            [math.nan, math.inf, -math.inf])))
    with pytest.raises(DomainError):
        incomplete_beta(spoil(0.5, data.draw(st.sampled_from(
            [0.0, 1.0, math.nan]))), 1.0, 1.0)


def _incbeta_stop_indices(z, s, w):
    """For scalar (s, w): the first k at which each z passes its own stop
    test under the module's budget, taken up to the k at which the largest z
    passes (-1: not by then)."""
    f, acc = np.ones_like(z), np.full_like(z, 1.0 / s)
    first = np.full(z.size, -1)
    for k in range(1, special._MAX_TERMS + 1):
        f = f * ((k - w) / k) * z
        term = f / (s + k)
        acc = acc + term
        passed = np.abs(term) <= special._ABS_TOL + special._REL_TOL * np.abs(acc)
        first[passed & (first < 0)] = k
        if passed[np.argmax(z)]:
            return first
    raise AssertionError("the largest z did not converge")


@_PROPERTY
@hypothesis.given(s=st.floats(0.15, 4.0), w=st.floats(-2.5, 4.0),
                  z=st.lists(st.floats(1e-3, 0.75), min_size=1, max_size=16))
@hypothesis.example(s=0.5, w=0.5, z=[0.01, 0.3, 0.75])
@hypothesis.example(s=4.0, w=-2.5, z=[0.001, 0.74, 0.75])
def test_incbeta_largest_z_converges_last(s, w, z):
    # With scalar (s, w) incomplete_beta stops every z when the largest z
    # passes its stop test; that never stops a z before its own test has
    # passed, because the largest z's test passes last.
    first = _incbeta_stop_indices(np.array(z + [0.75]), s, w)
    assert np.all(first > 0)


# verify's batched checks: the draws, in the loop's order, and its value

def _appell_brute_loop():
    worst, draws = 0.0, _appell_brute_draws()
    for draw in draws:
        mine = appell_f1(*draw)
        ref = verify._brute_f1(*draw)
        worst = max(worst, abs(mine - ref) / max(1.0, abs(ref)))
    return worst, draws


def _appell_symmetry_loop():
    rng = np.random.default_rng(404)
    worst, draws = 0.0, []
    for _ in range(20):
        a = rng.uniform(0.2, 2.0)
        b1, b2 = rng.uniform(-1.0, 2.0, 2)
        c = rng.uniform(0.5, 3.0)
        x, y = rng.uniform(-0.6, 0.6, 2)
        draws += [(a, b1, b2, c, x, y), (a, b2, b1, c, y, x)]
        worst = max(worst, abs(appell_f1(a, b1, b2, c, x, y)
                               - appell_f1(a, b2, b1, c, y, x)))
    return worst, draws


@pytest.mark.parametrize("name,loop,fn", [
    ("appell_brute", _appell_brute_loop, "appell_f1"),
    ("appell_symmetry", _appell_symmetry_loop, "appell_f1"),
])
def test_batched_check_is_the_per_draw_loop(monkeypatch, name, loop, fn):
    calls = []

    def record(*args):
        calls.append(args)
        return getattr(special, fn)(*args)

    worst, draws = loop()
    monkeypatch.setattr(verify, fn, record)
    result = verify.CHECKS[name][1](verify.Context())
    assert type(result.measured) is float
    assert result.measured == worst
    # every draw in one array call (two for the exchange), in the loop's order
    assert len(calls) == (2 if name == "appell_symmetry" else 1)
    batched = [tuple(map(float, row)) for args in calls for row in zip(*args)]
    if name == "appell_symmetry":   # the loop alternates the two calls
        batched = [d for pair in zip(batched[:20], batched[20:]) for d in pair]
    assert batched == draws


@pytest.mark.parametrize("name", ["beta_quadrature", "appell_symmetry"])
def test_batched_check_peak_memory(name):
    # 100 scalar calls, or one array per parameter for 20 draws: far from
    # the 2 MB bound
    check = verify.CHECKS[name][1]
    check(verify.Context())   # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        check(verify.Context())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# --- block summation -----------------------------------------------------------
#
# The series kernels sum a block of terms per numpy call.  Their specification
# is the term-by-term loops below (the kernels of version 0.9.0): each keeps
# one array entry per live point, advances every entry one term per pass, and
# drops a point from the arrays once it stops.  The kernels must give their
# bits, and raise their exceptions with their messages.  The loops read the
# module's budget when they are called, as the kernels do.

def _ref_pick(v, mask):
    return v[mask] if isinstance(v, np.ndarray) else v


@np.errstate(over="ignore", invalid="ignore")
def ref_incbeta_series(z, s, w):
    # scalar (s, w): every point stops when the largest z passes its test
    acc = np.full_like(z, 1.0 / s)
    f = np.ones_like(z)
    term = np.empty_like(z)
    watch = int(np.argmax(z))
    for k in range(1, special._MAX_TERMS + 1):
        np.multiply(f, (k - w) / k, out=f)
        f *= z
        acc += np.divide(f, s + k, out=term)
        if abs(term[watch]) <= special._ABS_TOL + special._REL_TOL * abs(acc[watch]):
            if not np.isfinite(acc[watch]):
                raise NonConvergence("incomplete beta series overflowed before "
                                     "converging")
            return np.power(z, s) * acc
    raise NonConvergence(
        f"incomplete beta series did not converge in {special._MAX_TERMS} terms")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def ref_incbeta_upper(t, s, w, floor):
    big_t = 1.0 - special._INCBETA_Z0
    try:
        big_te = big_t ** w
    except OverflowError:
        raise NonConvergence(
            f"incomplete beta series overflowed: {big_t} ** w is out of range "
            "of a double") from None
    coef, t_e = 1.0, np.power(t, w)
    pole = np.rint(-w)
    acc = np.zeros_like(t)
    for k in range(special._MAX_TERMS):
        e = w + k
        if k == pole:
            log_ratio = np.log(t / big_t)
            x = e * log_ratio
            exprel = np.where(x == 0.0, 1.0, np.expm1(x) / x)
            acc += coef * -big_te * log_ratio * exprel
        else:
            acc += (coef / e) * (big_te - t_e)
        if e > 0.5 and abs(coef) * big_te / e <= (special._ABS_TOL
                                                  + special._REL_TOL * floor):
            return acc
        coef *= (k + 1.0 - s) / (k + 1.0)
        big_te *= big_t
        t_e *= t
    raise NonConvergence(
        f"incomplete beta series did not converge in {special._MAX_TERMS} terms")


def _ref_f1_unconverged(points):
    return NonConvergence(
        f"appell_f1 did not converge within {special._MAX_TERMS} diagonals "
        f"at {points} point(s)")


@np.errstate(over="ignore", invalid="ignore")
def ref_appell_f1_recurrence(a, b1, b2, c, x, y):
    out = np.empty(x.size)
    live = np.arange(x.size)
    xpy, bxy, xy = x + y, b1 * x + b2 * y, x * y
    s_prev, s_prev2 = np.ones(x.size), np.zeros(x.size)
    partial = np.ones(x.size)
    tol = special._ABS_TOL, special._REL_TOL
    prev_small = np.full(x.size, 1.0 <= tol[0] + tol[1])
    g_prev = 0.0
    for k in range(1, special._MAX_TERMS + 1):
        g = (a + k - 1.0) / (c + k - 1.0)
        s = ((k - 1.0) * xpy + bxy) * s_prev
        s -= (g_prev * (k - 2.0 + b1 + b2)) * xy * s_prev2
        s *= g / k
        if not np.all(np.isfinite(s)):
            raise NonConvergence("appell_f1 series overflowed before converging")
        partial += s
        small = np.abs(s) <= tol[0] + tol[1] * np.abs(partial)
        done = small & prev_small
        prev_small, s_prev2, s_prev, g_prev = small, s_prev, s, g
        if done.any():
            out[live[done]] = partial[done]
            keep = ~done
            if not keep.any():
                return out
            live, xpy, bxy, xy, s_prev, s_prev2, partial, prev_small = (
                v[keep] for v in
                (live, xpy, bxy, xy, s_prev, s_prev2, partial, prev_small))
            a, b1, b2, c, g_prev = (_ref_pick(v, keep) for v in (a, b1, b2, c, g_prev))
    raise _ref_f1_unconverged(live.size)


_LOOPS = {"_appell_f1_recurrence": ref_appell_f1_recurrence,
          "_incbeta_series": ref_incbeta_series,
          "_incbeta_upper": ref_incbeta_upper}


def _outcome(fn, *args):
    """fn's value as int64 bits, or its exception's class and message."""
    args = [v.copy() if isinstance(v, np.ndarray) else v for v in args]
    try:
        return np.asarray(fn(*args), dtype=float).view(np.int64).tolist()
    except NonConvergence as exc:
        return type(exc), str(exc)


def _on_loops(fn, *args):
    """_outcome of fn with the reference loops in place of the kernels."""
    with pytest.MonkeyPatch.context() as mp:
        for name, loop in _LOOPS.items():
            mp.setattr(special, name, loop)
        return _outcome(fn, *args)


def _assert_same(fn, *args):
    got = _outcome(fn, *args)
    assert got == _on_loops(fn, *args)
    return got


# 1 to 300 points: a block's height is 64 rows down to 8192 // points.  The
# block heights drawn below put block ends at more terms; budgets of 3 to 70
# terms and a loose tolerance make some points exhaust the budget
_BLOCK_PROPERTY = hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
_POINTS = st.integers(1, 300)
_HEIGHT = st.sampled_from([64] * 3 + [1, 2, 7])
_BUDGET = st.sampled_from([(2048, 1e-16, 1e-14)] * 3 + [(3, 1e-16, 1e-14),
                                                         (70, 1e-16, 1e-10)])


def _params(data, n, per_point, bounds):
    """One scalar, or n values, for each (lo, hi)."""
    return [np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
            if per_point and data.draw(st.booleans()) else data.draw(st.floats(lo, hi))
            for lo, hi in bounds]


@contextlib.contextmanager
def _blocks(block_terms, budget):
    with _budget(*budget), pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_BLOCK_TERMS", block_terms)
        yield


@_BLOCK_PROPERTY
@hypothesis.given(n=_POINTS, per_point=st.booleans(), height=_HEIGHT,
                  budget=_BUDGET, data=st.data())
def test_appell_blocks_are_the_loop(n, per_point, height, budget, data):
    # the recurrence's values and errors, x = y on some points
    a, b1, b2, c = _params(data, n, per_point,
                           ((0.2, 3.0), (-2.0, 3.0), (-2.0, 3.0), (0.3, 4.0)))
    x = np.array(data.draw(st.lists(st.floats(-0.95, 0.95), min_size=n, max_size=n)))
    y = np.where(np.arange(n) % 3 == 0, x, x[::-1])
    with _blocks(height, budget):
        _assert_same(appell_f1, a, b1, b2, c, x, y)


@_BLOCK_PROPERTY
@hypothesis.given(n=_POINTS, height=_HEIGHT, budget=_BUDGET, data=st.data())
def test_incbeta_blocks_are_the_loop(n, height, budget, data):
    # both regions: w on the poles of the upper region's terms at times
    s, w = data.draw(st.floats(0.05, 5.0)), data.draw(st.floats(-3.0, 5.0))
    if data.draw(st.booleans()):
        w = np.rint(w)
    z = np.array(data.draw(st.lists(st.floats(0.001, 0.999), min_size=n, max_size=n)))
    with _blocks(height, budget):
        _assert_same(incomplete_beta, z, s, w)


@_BLOCK_PROPERTY
@hypothesis.given(z=st.one_of(st.floats(0.001, 0.75),
                              st.floats(0.75, 0.999, exclude_min=True)),
                  s=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 5.0)),
                  w=st.one_of(st.sampled_from([0.0, -1.0, -2.0]), st.floats(-3.0, 5.0)),
                  shape=st.sampled_from([(), (1,)]), budget=_BUDGET)
@hypothesis.example(z=0.75, s=0.5, w=0.0, shape=(), budget=(2048, 1e-16, 1e-14))
@hypothesis.example(z=0.9, s=2.0, w=-1.0, shape=(1,), budget=(2048, 1e-16, 1e-14))
@hypothesis.example(z=0.99, s=0.5, w=-2.0, shape=(), budget=(2048, 1e-16, 1e-14))
def test_incbeta_one_point_is_the_loop(z, s, w, shape, budget):
    # a one-point series call returns its stop loop's sum and runs no array
    # loop: at z <= z0 the point itself, past z0 the point z0 of B(z0)
    with _budget(*budget):
        _assert_same(incomplete_beta, np.full(shape, z), s, w)


@pytest.mark.parametrize("shape", [(), (1,), (2, 1)])
def test_zero_d_and_small_inputs_are_the_loop(shape):
    x = np.full(shape, 0.6)
    z = np.full(shape, 0.9)
    for call in ((appell_f1, 0.5, 0.25, 1.5, 2.0, x, x),
                 (appell_f1, 0.5, 0.25, 1.5, 2.0, x, 0.5 * x),
                 (incomplete_beta, z, 0.5, -1.0)):
        _assert_same(*call)
    assert type(appell_f1(0.5, 0.25, 1.5, 2.0, 0.6, 0.6)) is float
    assert type(incomplete_beta(0.9, 0.5, -1.0)) is float


def test_many_points_are_the_loop():
    # 2500 points: blocks of 8192 // 2500 = 3 terms.  The budget leaves
    # three points unconverged; a point whose terms overflow raises first, as
    # in the loop, which raises it before its budget runs out
    x = np.linspace(-0.9, 0.9, 2500)
    x[[5, 2200, 2400]] = 0.999
    a = np.full(x.size, 0.5)
    args = (a, 1.0, 0.75, 2.0, x, x)
    assert _assert_same(special._appell_f1_recurrence, *args) == (
        NonConvergence, "appell_f1 did not converge within 2048 diagonals "
                        "at 3 point(s)")
    a[2200] = 600.0
    assert _assert_same(special._appell_f1_recurrence, *args) == (
        NonConvergence, "appell_f1 series overflowed before converging")
    z = np.linspace(0.01, 0.99, 2500)
    _assert_same(incomplete_beta, z, 0.7, -1.5)
    _assert_same(incomplete_beta, z, 2.0, 1.0)


def _recurrence_stop(a, b1, b2, c, x):
    """The term at which the recurrence stops at the one point x = y, by the
    loop's operations on Python floats."""
    s_prev2, s_prev, g_prev, partial = 0.0, 1.0, 0.0, 1.0
    prev_small = False
    for k in range(1, special._MAX_TERMS + 1):
        g = (a + k - 1.0) / (c + k - 1.0)
        s = ((k - 1.0) * (x + x) + (b1 * x + b2 * x)) * s_prev
        s -= (g_prev * (k - 2.0 + b1 + b2)) * (x * x) * s_prev2
        s *= g / k
        partial += s
        small = abs(s) <= special._ABS_TOL + special._REL_TOL * abs(partial)
        if small and prev_small:
            return k
        prev_small, s_prev2, s_prev, g_prev = small, s_prev, s, g
    return None


@pytest.mark.parametrize("stop", [64, 65, 66, 128])
def test_appell_point_stopping_on_a_block_edge_is_the_loop(stop):
    # one point: blocks of 64 rows, the first ending at term 64; x is the
    # first grid point whose series stops at that term
    xs = np.linspace(0.3, 0.95, 20001)
    x = next(u for u in xs.tolist() if _recurrence_stop(0.5, 1.0, 0.75, 2.0, u) == stop)
    for pts in ([x], [x, 0.1], [0.1, x, -x]):
        pts = np.array(pts)
        _assert_same(special._appell_f1_recurrence, 0.5, 1.0, 0.75, 2.0, pts, pts)


def test_overflow_after_a_point_stops_is_the_loop():
    # a stop test loose enough (|term| <= 1e300) that a point stops at its
    # first term, about 1e200; its next terms overflow inside the block,
    # where the loop had already returned: a value, and no warning
    x, z = np.array([0.99]), np.array([0.7])
    with _budget(2048, 1e300, 1e-14), warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel, args in ((special._appell_f1_recurrence,
                              (1e100, 1e100, 1e100, 0.5, x, 0.99 * x)),
                             (special._incbeta_series, (z, 0.5, -1e200)),
                             (special._incbeta_series, (np.array([0.3, 0.7]), 0.5,
                                                        -1e200))):
            assert isinstance(_assert_same(kernel, *args), list)


def test_overflow_before_a_point_stops_is_the_loop():
    # terms that overflow before the point stops: NonConvergence, on every
    # path, where the loop raises it
    x = np.array([0.5, 0.999])
    for y in (x, x[::-1]):
        assert _assert_same(appell_f1, 300.0, 300.0, 300.0, 0.5, x, y) == (
            NonConvergence, "appell_f1 series overflowed before converging")
    for z in (np.array([0.7]), np.array([0.3, 0.7])):
        assert _assert_same(incomplete_beta, z, 0.5, -600.0) == (
            NonConvergence, "incomplete beta series overflowed before converging")


def test_incbeta_overflow_outranks_the_budget_at_any_point():
    # under a budget of 40 terms w = -1.5 exhausts it at z = 0.7, while at
    # w = -1e200 the terms overflow within it: the loop raises the overflow,
    # at one point and at several
    with _budget(40, 1e-16, 1e-15):
        for z in (np.array([0.7]), np.array([0.7, 0.3]), np.array([0.3, 0.7])):
            assert _assert_same(incomplete_beta, z, 0.5, -1.5) == (
                NonConvergence, "incomplete beta series did not converge in 40 terms")
            assert _assert_same(incomplete_beta, z, 0.5, -1e200) == (
                NonConvergence, "incomplete beta series overflowed before converging")


def test_budget_exhaustion_is_the_loop():
    # the same count of unconverged points in the same message
    x = np.array([0.05, 0.95, 0.0, 0.9, 0.99])
    z = np.array([0.05, 0.7, 0.3])
    with _budget(40, 1e-16, 1e-15):
        assert _assert_same(appell_f1, 0.5, 1.0, 1.0, 2.0, x, x) == (
            NonConvergence, "appell_f1 did not converge within 40 diagonals at 3 point(s)")
        assert _assert_same(special._appell_f1_recurrence, 0.5, 1.0, 1.0, 2.0,
                            x, x[::-1])[0] is NonConvergence
        assert _assert_same(incomplete_beta, z, 0.5, -1.5) == (
            NonConvergence, "incomplete beta series did not converge in 40 terms")


# --- numeric derivative --------------------------------------------------------

def test_derivative_identity():
    assert numeric_derivative(lambda u: u, 1.0, h=1e-4) == pytest.approx(1.0,
                                                                         abs=1e-9)


def test_derivative_cos_first_order():
    got = numeric_derivative(np.cos, math.pi / 3.0, h=1e-4)
    assert got == pytest.approx(-math.sin(math.pi / 3.0), abs=1e-7)


def test_derivative_h2_scaling():
    f, x0 = np.sin, 0.7
    e1 = abs(numeric_derivative(f, x0, h=2e-3) - math.cos(x0))
    e2 = abs(numeric_derivative(f, x0, h=1e-3) - math.cos(x0))
    assert 3.0 < e1 / e2 < 5.0


# --- grid stencils ------------------------------------------------------------

def test_grid_derivative_exact_on_quartic():
    # 4th order everywhere: exact to rounding on a quartic, on the interior
    # rows and on both pairs of one-sided edge rows
    x = np.linspace(-1.0, 2.0, 31)
    step = x[1] - x[0]
    f = 0.3 - 1.2 * x + 0.7 * x**2 + 0.4 * x**3 - 0.25 * x**4
    want = -1.2 + 1.4 * x + 1.2 * x**2 - x**3
    err = np.abs(grid_derivative(f, x) - want)
    tol = 1e-14 * np.abs(f).max() / step
    for rows in (slice(2, -2), slice(0, 2), slice(-2, None)):
        assert err[rows].max() < tol


def test_grid_derivative_is_not_exact_on_quintic():
    x = np.linspace(-1.0, 2.0, 31)
    err = np.abs(grid_derivative(x**5, x) - 5.0 * x**4)
    assert err[:2].min() > 1e-4 and err[2:-2].min() > 1e-4


def test_grid_derivative_needs_five_samples():
    with pytest.raises(DomainError):
        grid_derivative(np.ones(4), np.linspace(0.0, 0.3, 4))


def test_grid_second_derivative_exact_on_quintic():
    x = np.linspace(-1.0, 2.0, 31)
    step = x[1] - x[0]
    f = 0.3 - 1.2 * x + 0.7 * x**2 + 0.4 * x**3 - 0.25 * x**4 + 0.1 * x**5
    want = 1.4 + 2.4 * x - 3.0 * x**2 + 2.0 * x**3
    got = grid_second_derivative(f, x)
    assert got.shape == (x.size - 4,)
    assert np.abs(got - want[2:-2]).max() < 1e-14 * np.abs(f).max() / step**2


def _stretched(lo, hi, n):
    """n points of [lo, hi] whose spacings grow linearly, 1 : 3 end to end."""
    t = np.linspace(0.0, 1.0, n)
    return lo + (hi - lo) * t * (1.0 + t) / 2.0


def _derivative_error(x):
    return np.abs(grid_derivative(np.sin(x), x) - np.cos(x)).max()


def _second_derivative_error(x):
    return np.abs(grid_second_derivative(np.sin(x), x) + np.sin(x[2:-2])).max()


def _roundtrip_error(x):
    g, mode = geometry.TorusGeometry(1.0, 1.0), geometry.ModeParams(1.0, 1)
    target = susy.pt_coefficients(susy.PureTrigPT(-2.0, 0.5), "minus")
    tr = geometry.solve_g_transform(g, mode, target, x, h0=0.1)
    return np.abs(geometry.reduced_potential_grid(g, mode, tr) - target(x[1:-1])).max()


def _annihilation(x):
    f0 = susy.eigenfunction_minus(-2.0, 0.5, 0, x)
    return np.abs(susy.ladder_apply(susy.PureTrigPT(-2.0, 0.5), f0, x)).max() \
        / np.abs(f0).max()


def _raise_error(x):
    # K1 = 0: J+ on the mu = 0.3 sector is i (psi' - (0.8 cot x + B1 csc x) psi),
    # which maps psi = sin^2 x to i (0.6 sin 2x + 0.8 sin x) at B1 = -0.8
    p = iso21.AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                            geom=geometry.TorusGeometry(1.0, 1.0))
    got = iso21.sector_operator(p, 0.3, "raise", x)(np.sin(x) ** 2)
    return np.abs(got - 1j * (0.6 * np.sin(2.0 * x) + 0.8 * np.sin(x))).max()


@pytest.mark.parametrize("measure, lo, hi, n, bound", [
    (_derivative_error, 0.3, 2.4, 401, 1e-8),
    (_second_derivative_error, 0.3, 2.4, 401, 1e-8),
    (_roundtrip_error, 0.3, 2.4, 4001, 1e-8),
    (_annihilation, 0.05, math.pi - 0.05, 6001, 1e-8),
    (_raise_error, 0.2, math.pi - 0.2, 2048, 1e-4),
], ids=["grid_derivative", "grid_second_derivative", "reduced_potential_grid",
        "ladder_apply", "sector_operator"])
def test_grid_consumers_need_a_uniform_grid(measure, lo, hi, n, bound):
    # each reads its step from uniform_step: small on np.linspace, and a
    # DomainError on a stretched grid, where a step read as x[1] - x[0]
    # gave a silently wrong value
    assert measure(np.linspace(lo, hi, n)) < bound
    with pytest.raises(DomainError, match="uniform"):
        measure(_stretched(lo, hi, n))


def test_uniform_step_is_the_first_spacing():
    x = np.linspace(0.3, 2.4, 1_000_001)
    assert special.uniform_step(x) == x[1] - x[0]
    y = x.copy()
    y[500_000] += 2e-6 * (x[1] - x[0])
    with pytest.raises(DomainError):
        special.uniform_step(y)

