"""Superpotential families, partner potentials, spectra and eigenfunctions.

Four families share the trigonometric core W = A cot x + B csc x:

  * PureTrigPT      - the bare core.
  * RationalSin     - core + lambda sin x / (c + a cos x).
  * BetaTail        - core + G(x)/(c + a cos x), where G is built from an
                      incomplete beta function so that the rational part of
                      V- = W^2 - W' cancels identically for any mixing
                      constant C1.
  * AppellTail      - core + (G(x) + lambda sin x)/(c + a cos x), where G is
                      built from the paper's Appell F1 integral, served on
                      the equal-radii line c = a, where it is an incomplete
                      beta summed as its series in sin^2(x/2); G kills its
                      own contribution to V-, and the remaining lambda part
                      cancels under solve_parameter_conditions.

Every tail is built from two shared pieces: the sin tail lambda sin x / P
(sin_tail: RationalSin, AppellTail, and the iso(2,1) modification terms) and
the integral tail G/P = m/D with D' = -m (BetaTail, AppellTail), for which
each family supplies only m, (ln m)' and D.  P = c + a cos x is
TorusGeometry.radius.

Parameters produced by the cancellation conditions violate the normalizable
regime A < -|B|; such spectra are algebraically exact but formal.  Each
family's normalizable property is the one signal for this: the evaluators
compute the formal values without a warning, and the CLI reports the regime
on stderr.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    DegenerateJacobiWarning,
    GridTooCoarse,
    InconsistentConditions,
    NonFinitePotential,
    OutOfRange,
)
from .geometry import TorusGeometry, prefactor_f
from .special import (
    JacobiParams,
    grid_derivative,
    grid_second_derivative,
    incomplete_beta,
    incomplete_beta_series,
    jacobi_poly,
    numeric_derivative,
)

__all__ = [
    "PTCoefficients",
    "PureTrigPT",
    "RationalSin",
    "BetaTail",
    "AppellTail",
    "pt_coefficients",
    "superpotential_eval",
    "superpotential_deriv",
    "partner_potentials",
    "sin_tail",
    "susy_residual",
    "lambda_bracket",
    "solve_parameter_conditions",
    "rational_part_cancels",
    "require_cancellation",
    "analytic_spectrum",
    "eigenfunction_minus",
    "eigenfunction_plus",
    "ladder_apply",
    "normalize",
    "spinor_psi1",
    "spinor_psi2",
    "psi2_substitution_residual",
    "substitution_residual",
    "psi2_integrable",
]

class _SuperpotentialBase:
    @property
    def normalizable(self) -> bool:
        """True in the bound-state regime A < -|B| (both edge exponents positive)."""
        return self.A < -abs(self.B)


@dataclass(frozen=True)
class PureTrigPT(_SuperpotentialBase):
    A: float
    B: float

    @property
    def geom(self) -> TorusGeometry:
        """The printed torus a = c = 1, on which the spinor prefactor lives."""
        return TorusGeometry(1.0, 1.0)


@dataclass(frozen=True)
class RationalSin(_SuperpotentialBase):
    A: float
    B: float
    lam: float
    geom: TorusGeometry


@dataclass(frozen=True)
class BetaTail(_SuperpotentialBase):
    A: float
    B: float
    C1: float
    geom: TorusGeometry

    def __post_init__(self):
        if not (0.5 + self.A - self.B > 0.0):
            raise DomainError(
                "beta tail requires 1/2 + A - B > 0 (incomplete beta domain)")


@dataclass(frozen=True)
class AppellTail(_SuperpotentialBase):
    A: float
    B: float
    lam: float
    C1: float
    geom: TorusGeometry

    def __post_init__(self):
        if not (self.geom.a + self.geom.c > 0.0):
            raise DomainError("appell tail requires a + c > 0")


@dataclass(frozen=True)
class PTCoefficients:
    """Coefficients of coeff_csc2 * csc^2 x + coeff_cotcsc * cot x csc x + eps_const."""

    coeff_csc2: float
    coeff_cotcsc: float
    eps_const: float

    def __call__(self, x):
        sx = np.sin(x)
        return (self.coeff_csc2 + self.coeff_cotcsc * np.cos(x)) / sx**2 + self.eps_const


def pt_coefficients(spec, partner: str = "minus") -> PTCoefficients:
    """Trigonometric part of the partner potential for any family."""
    A, B = spec.A, spec.B
    if partner == "minus":
        return PTCoefficients(A * (A + 1.0) + B * B, (1.0 + 2.0 * A) * B, -A * A)
    if partner == "plus":
        return PTCoefficients(A * (A - 1.0) + B * B, (2.0 * A - 1.0) * B, -A * A)
    raise DomainError("partner must be 'minus' or 'plus'")


def _check_open_interval(x):
    arr = np.asarray(x, dtype=float)
    # NaN fails both comparisons, so it is rejected too
    if not np.all((arr > 0.0) & (arr < math.pi)):
        raise DomainError("x must lie in the open interval (0, pi)")
    return arr


def _core(A, B, x):
    sx = np.sin(x)
    return (A * np.cos(x) + B) / sx


def _core_deriv(A, B, x):
    sx = np.sin(x)
    return -(A + B * np.cos(x)) / sx**2


def sin_tail(lam: float, geom: TorusGeometry, x):
    """(lam sin x/P, its derivative) with P = c + a cos x; SingularGeometry
    where P vanishes."""
    p = geom.checked_radius(x)
    tail = lam * np.sin(x) / p
    tail_p = lam * (np.cos(x) * p + geom.a * np.sin(x) ** 2) / p**2
    return tail, tail_p


def _integral_tail(m, dlogm, d):
    """(q, q') for the integral tail q = m/D with D' = -m: q' = q (ln m)' + q^2."""
    return m / d, m * dlogm / d + m * m / (d * d)


def _tail_power(base: float, exponent: float) -> float:
    """base ** exponent for a tail prefactor; NonFinitePotential where the
    Python float power overflows (every finite value is the plain power)."""
    try:
        return base ** exponent
    except OverflowError:
        raise NonFinitePotential(
            f"tail prefactor {base!r} ** {exponent!r} overflows a double") from None


def _beta_integrand(spec: BetaTail, x):
    """(m, (ln m)', D) of the beta tail: m = sin^2A x tan^2B(x/2) and
    D = C1 + 4^A B(cos^2(x/2); 1/2+A-B, 1/2+A+B)."""
    A, B = spec.A, spec.B
    m = np.sin(x) ** (2.0 * A) * np.tan(0.5 * x) ** (2.0 * B)
    bz = incomplete_beta(np.cos(0.5 * x) ** 2, 0.5 + A - B, 0.5 + A + B)
    d = spec.C1 + _tail_power(4.0, A) * bz
    return m, 2.0 * (A * np.cos(x) + B) / np.sin(x), d


def _appell_integrand(spec: AppellTail, x):
    """(m, (ln m)', D) of the Appell tail: m = sin^2A x tan^2B(x/2) P^(-2 lam/a),
    D = C1 - M with M = int_0^x m, served on the equal-radii line c = a only.

    The paper's M is 4^A (a+c)^(-r) s^pw/pw F1(pw; 1/2-A+B, r; pw+1; s, 2a s/(a+c))
    with r = 2 lam/a, pw = 1/2+A+B and s = sin^2(x/2).  At c = a its two
    variables are equal, F1 is 2F1(pw, 1/2-A+B+r; pw+1; s), and by DLMF
    8.17.7 M = 4^A (2a)^(-r) B(s; 1/2+A+B, 1/2+A-B-r), which
    special.incomplete_beta_series sums (NonConvergence near x = pi).
    """
    A, B, lam = spec.A, spec.B, spec.lam
    a, c = spec.geom.a, spec.geom.c
    if c != a:
        raise DomainError(
            "appell tail: M is served on the equal-radii line c = a only; the "
            "unequal-radii root of the conditions is not served yet")
    sx, cx = np.sin(x), np.cos(x)
    p = spec.geom.radius(x)
    r = 2.0 * lam / a
    m = sx ** (2.0 * A) * np.tan(0.5 * x) ** (2.0 * B) * p ** -r
    big_m = _tail_power(4.0, A) * _tail_power(2.0 * a, -r) * incomplete_beta_series(
        np.sin(0.5 * x) ** 2, 0.5 + A + B, 0.5 + A - B - r)
    return m, 2.0 * (A * cx + B) / sx + 2.0 * lam * sx / p, spec.C1 - big_m


def _tail(spec, x):
    if isinstance(spec, PureTrigPT):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z
    if isinstance(spec, RationalSin):
        return sin_tail(spec.lam, spec.geom, x)
    if isinstance(spec, BetaTail):
        return _integral_tail(*_beta_integrand(spec, x))
    if isinstance(spec, AppellTail):
        q, q_p = _integral_tail(*_appell_integrand(spec, x))
        s, s_p = sin_tail(spec.lam, spec.geom, x)
        return q + s, q_p + s_p
    raise DomainError(f"unknown superpotential family: {type(spec).__name__}")


def superpotential_eval(spec, x):
    """W(x) for the selected family; x scalar or array in (0, pi)."""
    arr = _check_open_interval(x)
    out = _core(spec.A, spec.B, arr) + _tail(spec, arr)[0]
    return float(out) if np.asarray(x).ndim == 0 else out


def superpotential_deriv(spec, x):
    """Analytic W'(x) (chain rule through the special functions)."""
    arr = _check_open_interval(x)
    out = _core_deriv(spec.A, spec.B, arr) + _tail(spec, arr)[1]
    return float(out) if np.asarray(x).ndim == 0 else out


def lambda_bracket(A, B, lam, a, c, x):
    """Rational numerator of the Appell-tail V-, over 2P^2, left after the G-part
    cancels; solve_parameter_conditions('appell') makes it vanish."""
    return (lam * (2.0 * a * (A - 1.0) + 4.0 * B * c + lam)
            + 2.0 * lam * (2.0 * a * B + c * (2.0 * A - 1.0)) * np.cos(x)
            + lam * (2.0 * a * A - lam) * np.cos(2.0 * x))


def partner_potentials(spec, x):
    """(V-, V+) in closed form; V-+ = W^2 -+ W' holds by construction."""
    arr = _check_open_interval(x)
    vm_pt = pt_coefficients(spec, "minus")(arr)
    scalar = np.asarray(x).ndim == 0

    if isinstance(spec, PureTrigPT):
        vm, vp = vm_pt, pt_coefficients(spec, "plus")(arr)
    elif isinstance(spec, RationalSin):
        a, lam = spec.geom.a, spec.lam
        p = spec.geom.checked_radius(arr)
        s2 = np.sin(arr) ** 2
        vm = vm_pt + lam * (lam - a) * s2 / p**2 + lam * (
            2.0 * spec.B + (2.0 * spec.A - 1.0) * np.cos(arr)) / p
        vp = pt_coefficients(spec, "plus")(arr) + lam * (a + lam) * s2 / p**2 + lam * (
            2.0 * spec.B + (2.0 * spec.A + 1.0) * np.cos(arr)) / p
    elif isinstance(spec, BetaTail):
        vm = vm_pt  # the beta tail is built to cancel exactly
        vp = vm + 2.0 * superpotential_deriv(spec, arr)
    else:
        a, c = spec.geom.a, spec.geom.c
        # W' first: it raises unless c = a, where P = a (1 + cos x) > 0, so
        # P needs no check here
        wp = superpotential_deriv(spec, arr)
        p = spec.geom.radius(arr)
        vm = vm_pt + lambda_bracket(spec.A, spec.B, spec.lam, a, c, arr) / (2.0 * p**2)
        vp = vm + 2.0 * wp
    if scalar:
        return float(vm), float(vp)
    return vm, vp


def susy_residual(spec, grid, derivative: str):
    """Max grid residual of the definitional identity V-+ = W^2 -+ W'.

    derivative 'analytic' uses the closed-form W'; 'fd' the central
    difference of special.numeric_derivative (step 1e-5).
    """
    x = _check_open_interval(grid)
    w = superpotential_eval(spec, x)
    if derivative == "analytic":
        wp = superpotential_deriv(spec, x)
    elif derivative == "fd":
        wp = numeric_derivative(lambda t: superpotential_eval(spec, t), x)
    else:
        raise DomainError("derivative must be 'analytic' or 'fd'")
    vm, vp = partner_potentials(spec, x)
    return (float(np.max(np.abs(vm - (w * w - wp)))),
            float(np.max(np.abs(vp - (w * w + wp)))))


def solve_parameter_conditions(case: str, *, a: float, B: float | None = None,
                               lam: float | None = None, branch: str = "-",
                               C1: float = 1.0):
    """Complete a parameter set that kills the rational part of V-.

    case 'equal_radii' (inputs a, B, branch): A = (1 +- 2B)/2, lambda = 2aA
    and c = 2aB/(1-2A), which is exactly -+a since 1 - 2A = -+2B: branch '-'
    gives c = +a, branch '+' gives c = -a.  The family passes
    rational_part_cancels, which alone decides the conditions.  B = 0 is
    InconsistentConditions: there the conditions leave c free (A = 1/2,
    lambda = a).  A lambda = 2aA that is not a double is a DomainError.

    case 'appell' (inputs a, lam, branch): A = lambda/(2a) and, resolving the
    stray constant in the printed conditions against the numeric
    cancellation oracle, B = +-(1 - lambda/a)/2 with c = +-a.  The '-'
    branch has c = -a, which AppellTail rejects (a + c > 0), so only branch
    '+' yields a usable family.
    """
    if branch not in ("+", "-"):
        raise DomainError("branch must be '+' or '-'")
    sign = 1.0 if branch == "+" else -1.0
    if case == "equal_radii":
        if B is None:
            raise DomainError("equal_radii case needs B")
        if B == 0.0:
            raise InconsistentConditions(
                "at B = 0 the conditions leave c free (the root A = 1/2, "
                "lambda = a); request it with --case rational --A 0.5 --B 0 "
                "--lambda <a> --a <a> --c <c>")
        geom = TorusGeometry(a=a, c=-sign * a)
        A = 0.5 * (1.0 + sign * 2.0 * B)
        lam_out = 2.0 * a * A
        if not math.isfinite(lam_out):
            raise DomainError(f"solved lambda = 2aA = {lam_out} is not a double")
        return RationalSin(A=A, B=B, lam=lam_out, geom=geom)
    if case == "appell":
        if lam is None:
            raise DomainError("appell case needs lam")
        if not (-2.0 * a + 2.0 * lam > 0.0):
            raise DomainError("appell conditions need -2a + 2*lambda > 0")
        if not a > 0.0:   # as TorusGeometry would, before A divides by a
            raise DomainError("tube radius a must be positive")
        A = lam / (2.0 * a)
        B_out = sign * 0.5 * (1.0 - lam / a)
        c = sign * a
        return AppellTail(A=A, B=B_out, lam=lam, C1=C1,
                          geom=TorusGeometry(a=a, c=c))
    raise DomainError("case must be 'equal_radii' or 'appell'")


def rational_part_cancels(spec) -> bool:
    """True if the V- of a sin-tail family (RationalSin or AppellTail) is its
    trigonometric part alone, so that the Poschl-Teller eigenfunctions solve it.

    The rational part of V-, times P^2, is
    lambda [(lambda - a) sin^2 x + (2B + (2A - 1) cos x) P]; it vanishes for
    every x iff lambda = 0 or the bracket's coefficients in sin^2 x, cos x
    and 1 do: lambda - 2aA, 2aB - (1 - 2A) c and 2Bc - (1 - 2A) a.  The
    Appell tail's remainder, lambda_bracket, is 2 lambda times the same
    bracket.  Each coefficient, divided by a > 0 (so that a family near the
    top of the double range does not overflow), must be at most 1e-12 S in
    size, with S = |lambda|/a + (1 + 2|A| + 2|B|)(1 + |c|/a) the size of the
    terms that make it up; a family within rounding of the conditions
    passes, such as every one solve_parameter_conditions returns, and an S
    that is not a double certifies nothing.
    """
    A, B, lam, a, c = spec.A, spec.B, spec.lam, spec.geom.a, spec.geom.c
    bound = 1e-12 * (abs(lam) / a
                     + (1.0 + 2.0 * abs(A) + 2.0 * abs(B)) * (1.0 + abs(c) / a))
    return lam == 0.0 or all(
        abs(t) <= bound < math.inf
        for t in (lam / a - 2.0 * A, 2.0 * B - (1.0 - 2.0 * A) * c / a,
                  2.0 * B * c / a - (1.0 - 2.0 * A)))


def require_cancellation(spec):
    """DomainError for a sin-tail family (RationalSin or AppellTail) that fails
    rational_part_cancels: the Poschl-Teller closed forms do not solve its V-."""
    if isinstance(spec, (RationalSin, AppellTail)) and not rational_part_cancels(spec):
        raise DomainError("V- keeps a rational part: the parameters fail the "
                          "cancellation conditions")


def analytic_spectrum(spec, n: int) -> float:
    """Closed-form eps(n) = (n - A)^2 - A^2 of the minus partner of the given
    family, computed as n (n - 2A) so that a huge A gives a huge value, not
    the OverflowError of A ** 2; the physical energies are
    iso21.energy_scalings.  The value is formal when spec.normalizable is
    False.  A sin-tail family must pass require_cancellation: its V- is
    otherwise not the Poschl-Teller potential of this spectrum.  A level
    n < 0 is a DomainError, and a negative eps OutOfRange."""
    if n < 0:
        raise DomainError("level index must be non-negative")
    require_cancellation(spec)
    val = n * (n - 2.0 * spec.A)
    if val < -1e-12:
        raise OutOfRange(f"eps({n}) < 0: level outside the valid range")
    # 0.0 first: max keeps it on a tie, so eps(0) is 0.0, never -0.0
    return max(0.0, val)


def eigenfunction_minus(A: float, B: float, n: int, x):
    """Unnormalized bound-state solution of the minus partner.

    F_n = (1-cos x)^((-A-B)/2) (1+cos x)^((-A+B)/2)
          * P_n^(-A-B-1/2, -A+B-1/2)(cos x).
    """
    arr = _check_open_interval(x)
    cx = np.cos(arr)
    out = ((1.0 - cx) ** (0.5 * (-A - B)) * (1.0 + cx) ** (0.5 * (-A + B))
           * jacobi_poly(JacobiParams(n, -A - B - 0.5, -A + B - 0.5), cx))
    return float(out) if np.asarray(x).ndim == 0 else np.asarray(out)


def eigenfunction_plus(spec, n: int, x):
    """Closed-form partner eigenfunction (level n >= 1 of the minus tower).

    Proportional to the ladder image of F-_n: the weight of F-_n times
    [ (a(2A-n)/2) sin x P_{n-1}^(1/2-A-B, 1/2-A+B)
      + lambda tan(x/2) P_n^(-1/2-A-B, -1/2-A+B) ] / a.
    """
    if n < 1:
        raise OutOfRange("partner levels are indexed from n = 1")
    if not isinstance(spec, (PureTrigPT, RationalSin)):
        raise DomainError("closed form available for the trigonometric families")
    require_cancellation(spec)
    arr = _check_open_interval(x)
    A, B, a = spec.A, spec.B, spec.geom.a
    lam = spec.lam if isinstance(spec, RationalSin) else 0.0
    cx = np.cos(arr)
    weight = (1.0 - cx) ** (0.5 * (-A - B)) * (1.0 + cx) ** (0.5 * (B - A))
    term1 = (0.5 * a * (2.0 * A - n) * np.sin(arr)
             * jacobi_poly(JacobiParams(n - 1, 0.5 - A - B, 0.5 - A + B), cx))
    term2 = lam * np.tan(0.5 * arr) * jacobi_poly(
        JacobiParams(n, -0.5 - A - B, -0.5 - A + B), cx)
    out = weight * (term1 + term2) / a
    return float(out) if np.asarray(x).ndim == 0 else np.asarray(out)


def ladder_apply(spec, f_vals, grid):
    """Apply the lowering operator F -> F' + W F to a sampled function; it
    annihilates the minus ground state.  The derivative is grid_derivative's,
    so the grid must be uniform (DomainError otherwise); at least 64 points
    are required.
    """
    x = np.asarray(grid, dtype=float)
    f = np.asarray(f_vals, dtype=float)
    if x.size < 64:
        raise GridTooCoarse("ladder_apply needs at least 64 grid points")
    if f.shape != x.shape:
        raise DomainError("function samples must match the grid")
    w = superpotential_eval(spec, x)
    return grid_derivative(f, x) + w * f


def normalize(vals, xs):
    """vals over its trapezoid L2 norm on the grid xs.  A column whose squares
    overflow (or underflow to a zero norm) is first divided by its largest
    |value|; a column holding NaN or inf stays non-finite, and an all-zero
    column is returned as it is."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = math.sqrt(np.trapezoid(vals * vals, xs))
        if not 0.0 < norm < math.inf:
            peak = float(np.max(np.abs(vals)))
            if 0.0 < peak < math.inf:
                vals = vals / peak
                norm = math.sqrt(np.trapezoid(vals * vals, xs))
        return vals / norm if norm > 0.0 else vals


def psi2_integrable(geom: TorusGeometry, lam: float, n: int):
    """(left, right): whether spinor_psi2(geom, lam, n, .)^2 is integrable
    toward x = 0 and toward x = pi, read from its endpoint exponents.

    With r = lam/a: near 0, (1 - cos x)^((a - 2 lam)/(4a)) squares to
    x^(1 - 2r), and P_n^(-1, -r)(cos x) = (n - r)/(2n) (cos x - 1)
    P_{n-1}^(1, -r)(cos x) vanishes like x^2 for n >= 1 (P_{n-1}^(1, -r)(1)
    = n), so psi2^2 ~ x^(1 - 2r + 4 [n >= 1]): integrable iff r < 1 (n = 0)
    or r < 3 (n >= 1).  Near pi the printed-torus prefactor
    e^(-1/(2 (1 + cos x))) vanishes faster than any power, so that end is
    always integrable.  For n >= 1 and r = n the profile is identically 0,
    which no scaling normalizes: (False, False).
    """
    r = lam / geom.a
    if n >= 1 and r == n:
        return False, False
    return r < (3.0 if n >= 1 else 1.0), True


def spinor_psi1(spec, n: int, x):
    """First spinor component e^{-a/(2 R)} F_n, unnormalized (see normalize):
    prefactor_f on spec.geom (the printed torus a = c = 1 for PureTrigPT)
    times eigenfunction_minus.  A sin-tail family must pass
    require_cancellation; outside the normalizable regime the value is formal.
    """
    require_cancellation(spec)
    arr = _check_open_interval(x)
    out = prefactor_f(spec.geom, arr) * eigenfunction_minus(spec.A, spec.B, n, arr)
    return float(out) if np.asarray(x).ndim == 0 else np.asarray(out)


def spinor_psi2(geom: TorusGeometry, lam: float, n: int, x):
    """Second spinor component, unnormalized, evaluated verbatim from its
    printed form without N2:

        e^{-a/(2(a + a cos x))} (1-cos x)^((a-2 lam)/(4a))
           (1+cos x)^(-1/4) P_n^(-1, -lam/a)(cos x).

    The Jacobi parameter alpha = -1 is degenerate (DegenerateJacobiWarning);
    the polynomial is evaluated through its parameter-limit identity.  The
    claimed form fails the Schroedinger substitution test for n >= 1, which
    the verification suite reports rather than hides.  The exponential is
    prefactor_f on the printed torus c = a, whatever the sign of geom.c.
    Whether it is square-integrable is psi2_integrable's question.
    """
    warnings.warn("Jacobi parameter alpha = -1 is degenerate in psi2",
                  DegenerateJacobiWarning, stacklevel=2)
    a = geom.a
    arr = _check_open_interval(x)
    cx = np.cos(arr)
    out = (prefactor_f(TorusGeometry(a, a), arr)
           * (1.0 - cx) ** ((a - 2.0 * lam) / (4.0 * a))
           * (1.0 + cx) ** (-0.25)
           * jacobi_poly(JacobiParams(n, -1.0, -lam / a), cx))
    return float(out) if np.asarray(x).ndim == 0 else np.asarray(out)


def substitution_residual(f, v, eps: float, x) -> float:
    """Relative residual of the samples f in -f'' + (v - eps) f = 0.

    f and v are samples on the uniform grid x; f'' is grid_second_derivative's
    5-point stencil, so the residual runs over the interior nodes 2..n-3.
    The result is max |residual| / max |f|.
    """
    fpp = grid_second_derivative(f, x)
    return float(np.max(np.abs(-fpp + (v[2:-2] - eps) * f[2:-2]))
                 / np.abs(f).max())


def psi2_substitution_residual(spec: RationalSin, n: int) -> float:
    """Relative residual of the printed second-component solution, level n.

    Substitutes F = (1-cos x)^((a-2 lam)/(4a)) (1+cos x)^(-1/4)
    P_n^(-1, -lam/a)(cos x), the printed form without its e^{-a/2R} prefactor,
    into -F'' + (V2 - eps_n) F = 0, with V2 the minus partner of the mirrored
    family (A, -B) and eps_n = analytic_spectrum(spec, n): the
    substitution_residual of F on 2001 nodes of [0.3, pi - 0.3].
    Small at n = 0, O(1) for n >= 1 (the printed Jacobi pair is transposed).
    """
    A, B, lam, a = spec.A, spec.B, spec.lam, spec.geom.a
    v2 = pt_coefficients(PureTrigPT(A, -B), "minus")
    xs = np.linspace(0.3, math.pi - 0.3, 2001)
    cx = np.cos(xs)
    f = ((1.0 - cx) ** ((a - 2.0 * lam) / (4.0 * a)) * (1.0 + cx) ** -0.25
         * jacobi_poly(JacobiParams(n, -1.0, -lam / a), cx))
    return substitution_residual(f, v2(xs), analytic_spectrum(spec, n), xs)
