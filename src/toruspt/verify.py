"""Named verification checks grouped into suites.

Each check measures one invariant (special-function oracle agreement, SUSY
identities, oracle spectra, algebra closure, ...) and reports a measured
value against a fixed tolerance.  Checks are pure and independent of one
another; each quantity that several checks read is computed once per run, by
one call, and cached on the Context: the ladder grid's eigenfunctions and the
ladder images of F_1..F_3, the reference eigenfunctions, the V- levels, and
the backbone commutator residuals at N = 1024 and 2048.  Output rows are
emitted in registration order, so two runs of the same suite produce
identical reports.

Every oracle spectrum and eigenfunction comes from oracle's Gauss-Jacobi
collocation, which reads only samples of the potential; each such check's
detail names the solver and its node count.

The random-draw checks are loops of scalar calls, one per draw:
beta_quadrature evaluates one incomplete beta call per draw, against one
continued fraction per triple (DLMF 8.17.22, summed by modified Lentz on
Python floats); appell_brute one F1 call and one brute-force array per draw;
appell_symmetry two F1 calls per draw, one on each side of the exchange.
The package imports no scipy, so verify runs on numpy alone.

The Appell F1 reference of appell_brute is its own double sum, not the
package's recurrence: one terms x terms numpy array per draw, products by
cumprod along each row and the sum by cumsum in row-major order.  Both run
in sequence, so the value is bit for bit the per-term loop the test suite
keeps (tests/test_special.py, appell_brute_oracle).

The Gauss reference of appell_reduce_y0 and appell_reduce_xy is that same
double sum at y = 0, where it is the 2F1 series term by term: code
independent of the package's F1 recurrence, which sums y = 0 and x = y as it
sums every other point.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry, iso21, oracle, susy
from .errors import NonConvergence
from .geometry import ModeParams, TorusGeometry
from .special import JacobiParams, appell_f1, incomplete_beta, jacobi_poly, \
    numeric_derivative

__all__ = ["CheckResult", "VerifyReport", "run_suite", "SUITES", "CHECKS"]

PT_A, PT_B = -2.0, 0.5  # reference solvable family used throughout
PT_SPEC = susy.PureTrigPT(PT_A, PT_B)
COLLOCATION = f"Gauss-Jacobi collocation, N={oracle.COLLOCATION_NODES}"


@dataclass
class CheckResult:
    passed: bool
    measured: float | None
    tolerance: float | None
    detail: str = ""
    info: bool = False
    name: str = ""   # name and suite are stamped by run_suite from @_check
    suite: str = ""

    @property
    def status(self) -> str:
        if self.info:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


@dataclass
class VerifyReport:
    suite: str
    results: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if not r.info)

    def render_text(self) -> str:
        lines = []
        for r in self.results:
            meas = "-" if r.measured is None else f"{r.measured:.3e}"
            tol = "-" if r.tolerance is None else f"{r.tolerance:.1e}"
            lines.append(f"{r.status:4s} {r.suite}/{r.name}: measured={meas} "
                         f"tol={tol}  {r.detail}".rstrip())
        n_fail = sum(1 for r in self.results if not r.info and not r.passed)
        lines.append(f"suite={self.suite}: {len(self.results)} checks, "
                     f"{n_fail} failures")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {"name": r.name, "suite": r.suite, "status": r.status,
                 "measured": r.measured, "tolerance": r.tolerance,
                 "detail": r.detail}
                for r in self.results
            ],
            "pass": self.passed,
        }


class Context:
    """Per-run cache of the artifacts several checks share."""

    @functools.cached_property
    def ladder(self):
        """(x, vecs): the 6001 interior points of a uniform 6003-point grid on
        [0.05, pi - 0.05] and the oracle's three lowest eigenfunctions of the
        reference V+ there."""
        h = (math.pi - 0.05 - 0.05) / 6002
        x = 0.05 + h * np.arange(1, 6002)
        _, vecs = oracle.collocation_eigenpairs(
            susy.pt_coefficients(PT_SPEC, "plus"), 3, x)
        return x, vecs

    @functools.cached_property
    def pt_levels(self):
        """(x, [F_0, ..., F_4]): 20001 points of [0.002, pi - 0.002] and the
        reference family's eigenfunctions there."""
        xs = np.linspace(0.002, math.pi - 0.002, 20001)
        return xs, [susy.eigenfunction_minus(PT_A, PT_B, n, xs) for n in range(5)]

    @functools.cached_property
    def pt_spectrum(self):
        """(eps, seconds): the oracle's five lowest levels of the reference V-
        and the time the solve took."""
        t0 = time.perf_counter()
        eps = oracle.collocation_levels(susy.pt_coefficients(PT_SPEC, "minus"), 5)
        return eps, time.perf_counter() - t0

    @functools.cached_property
    def ladder_images(self):
        """[(F_n, ladder_apply of F_n)] for n = 1, 2, 3 on the ladder grid."""
        x, _ = self.ladder
        fs = (susy.eigenfunction_minus(PT_A, PT_B, n, x) for n in (1, 2, 3))
        return [(f, susy.ladder_apply(PT_SPEC, f, x)) for f in fs]

    @functools.cached_property
    def backbone_residuals(self):
        """{N: residual} of the commutator on the unmodified generators
        (K1 = K2 = 0, where raw and after-defect are equal), N = 1024, 2048."""
        p = iso21.AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                                geom=TorusGeometry(1.0, 1.0))
        return {n: iso21.commutator_residual(p, n)[0] for n in (1024, 2048)}


_REGISTRY: list = []


def _check(name, suite):
    def deco(fn):
        _REGISTRY.append((name, suite, fn))
        return fn
    return deco


def _result(measured, tol, detail="", compare="le"):
    ok = measured <= tol if compare == "le" else measured >= tol
    return CheckResult(passed=ok, measured=measured, tolerance=tol, detail=detail)


def _cosine_deficit(u, v) -> float:
    """1 - |cos| of the angle between the sample vectors u and v, as
    |u/|u| - s v/|v||^2 / 2 with s the sign of u.v: free of cancellation, so
    never negative and accurate to rounding for nearly parallel vectors."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    d = u - math.copysign(1.0, float(u @ v)) * v
    return 0.5 * float(d @ d)


# --------------------------------------------------------------------------
# special functions
# --------------------------------------------------------------------------

@_check("jacobi_recurrence", "special")
def _jacobi_recurrence(ctx):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        while True:
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(-3.0, 3.0)
            s = a + b
            if abs(s - round(s)) > 1e-3 or round(s) > -2:
                break
        z = rng.uniform(-0.9, 0.9)
        p2 = jacobi_poly(JacobiParams(n, a, b), z)
        p1 = jacobi_poly(JacobiParams(n - 1, a, b), z)
        p0 = jacobi_poly(JacobiParams(n - 2, a, b), z)
        c1 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
        c2 = (2.0 * n + a + b - 1.0) * (a * a - b * b)
        c3 = (2.0 * n + a + b - 2.0) * (2.0 * n + a + b - 1.0) * (2.0 * n + a + b)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
        scale = max(abs(c1 * p2), abs(c4 * p0), 1.0)
        worst = max(worst, abs(c1 * p2 - (c2 + c3 * z) * p1 + c4 * p0) / scale)
    return _result(worst, 1e-12,
                   "three-term recurrence on 200 random draws")


def _beta_reference(z, s, w):
    # DLMF 8.17.22 by modified Lentz (Thompson & Barnett, J. Comput. Phys. 64
    # (1986) 490) on Python floats, code independent of the package's series:
    # B = z^s (1 - z)^w / s over 1 + d1/(1 + d2/(1 + ...)).  The fraction
    # converges fast below z = (s + 1)/(s + w + 2); above it, for w > 1, the
    # complement B(s, w) - B(1 - z; w, s) is summed, whose inner call never
    # switches again.  For w <= 1 the fraction is summed as it stands, since
    # B(s, w) ~ 1/w would cancel as w -> 0
    if w > 1.0 and z > (s + 1.0) / (s + w + 2.0):
        return (math.gamma(s) * math.gamma(w) / math.gamma(s + w)
                - _beta_reference(1.0 - z, w, s))
    c, d, f = 1.0, 0.0, 1.0
    for j in range(1, 300):
        m = j // 2
        if j % 2:
            dj = -(s + m) * (s + w + m) * z / ((s + 2 * m) * (s + 2 * m + 1.0))
        else:
            dj = m * (w - m) * z / ((s + 2 * m - 1.0) * (s + 2 * m))
        d = 1.0 + dj * d
        d = 1.0 / (d if d != 0.0 else 1e-300)
        c = 1.0 + dj / c
        c = c if c != 0.0 else 1e-300
        f *= c * d
        if abs(c * d - 1.0) < 1e-16:
            return z ** s * (1.0 - z) ** w / s / f
    raise NonConvergence(f"continued fraction for B({z}; {s}, {w}) did not converge")


@_check("beta_quadrature", "special")
def _beta_quadrature(ctx):
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        z, s, w = rng.uniform(0.05, 0.95), rng.uniform(0.15, 4.0), rng.uniform(-2.5, 4.0)
        ref = _beta_reference(z, s, w)
        worst = max(worst, abs(incomplete_beta(z, s, w) - ref) / max(1.0, abs(ref)))
    return _result(worst, 1e-10,
                   "100 random triples vs continued fraction (DLMF 8.17.22)")


@_check("beta_monotone", "special")
def _beta_monotone(ctx):
    zs = np.linspace(0.02, 0.98, 97)
    worst = 0.0
    for (s, w) in ((0.5, 0.5), (2.0, 3.0), (1.2, 0.4)):
        vals = incomplete_beta(zs, s, w)
        worst = max(worst, -float(np.min(np.diff(vals))))
    return _result(worst, 0.0,
                   "non-decreasing in z for s, w > 0")


def _brute_f1(a, b1, b2, c, x, y, terms=160):
    # the loop's ratios in the loop's operation order: row heads T(m, 0) by
    # the b1/x ratio, then along each row by the b2/y ratio; m + n < terms is
    # summed row by row (see the module docstring)
    k = np.arange(terms, dtype=float)
    h, m, n = k[:-1], k[:, None], k[1:]
    t = np.empty((terms, terms))
    t[0, 0] = 1.0
    t[1:, 0] = (a + h) * (b1 + h) * x / ((c + h) * (h + 1.0))
    t[:, 1:] = (a + m + n - 1.0) * (b2 + n - 1.0) * y / ((c + m + n - 1.0) * n)
    np.cumprod(t[:, 0], out=t[:, 0])
    np.cumprod(t, axis=1, out=t)
    return float(np.cumsum(t[m + k < terms])[-1])


@_check("appell_brute", "special")
def _appell_brute(ctx):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(25):
        draw = (rng.uniform(0.2, 2.0), rng.uniform(-1.5, 2.0), rng.uniform(-1.5, 2.0),
                rng.uniform(0.5, 3.5), rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        ref = _brute_f1(*draw)
        worst = max(worst, abs(appell_f1(*draw) - ref) / max(1.0, abs(ref)))
    return _result(worst, 1e-9,
                   "25 random points vs brute-force double sum")


@_check("appell_reduce_y0", "special")
def _appell_reduce_y0(ctx):
    worst = 0.0
    for (a, b1, b2, c, x) in ((0.5, 0.25, 1.5, 2.0, 0.4), (1.2, -0.7, 0.3, 2.5, -0.5),
                              (0.8, 1.1, 2.2, 3.0, 0.7)):
        worst = max(worst, abs(appell_f1(a, b1, b2, c, x, 0.0)
                               - _brute_f1(a, b1, 0.0, c, x, 0.0)))
    return _result(worst, 1e-10,
                   "y = 0 reduction to the Gauss series")


@_check("appell_reduce_xy", "special")
def _appell_reduce_xy(ctx):
    worst = 0.0
    for (a, b1, b2, c, x) in ((0.5, 0.25, 1.5, 2.0, 0.3), (1.2, -0.7, 0.3, 2.5, -0.4),
                              (0.8, 1.1, 2.2, 4.2, 0.55)):
        worst = max(worst, abs(appell_f1(a, b1, b2, c, x, x)
                               - _brute_f1(a, b1 + b2, 0.0, c, x, 0.0)))
    return _result(worst, 1e-9,
                   "x = y reduction to the Gauss series")


@_check("appell_symmetry", "special")
def _appell_symmetry(ctx):
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.2, 2.0)
        b1, b2 = rng.uniform(-1.0, 2.0, 2)
        c = rng.uniform(0.5, 3.0)
        x, y = rng.uniform(-0.6, 0.6, 2)
        worst = max(worst, abs(appell_f1(a, b1, b2, c, x, y)
                               - appell_f1(a, b2, b1, c, y, x)))
    return _result(worst, 1e-12,
                   "(b1,x) <-> (b2,y) exchange")


@_check("derivative_h2", "special")
def _derivative_h2(ctx):
    ratios = []
    for (f, df, x0) in ((np.cos, lambda u: -math.sin(u), math.pi / 3),
                        (np.tanh, lambda u: 1.0 - math.tanh(u) ** 2, 0.4)):
        e1 = abs(numeric_derivative(f, x0, h=1e-3) - df(x0))
        e2 = abs(numeric_derivative(f, x0, h=5e-4) - df(x0))
        ratios.append(e1 / e2)
    worst = min(ratios)
    detail = "halving h: error ratios " + ", ".join(f"{r:.2f}" for r in ratios)
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    return CheckResult(ok, worst, 4.0, detail)


# --------------------------------------------------------------------------
# geometry
# --------------------------------------------------------------------------

@_check("spin_connection_identity", "geometry")
def _spin_identity(ctx):
    rng = np.random.default_rng(505)
    xs = rng.uniform(0.05, math.pi - 0.05, 200)
    worst = 0.0
    for (a, c) in ((1.0, 1.0), (1.0, 2.0), (2.0, -3.0)):
        g = TorusGeometry(a, c)
        s = geometry.spin_connection_coeff(g, xs)
        _, g2 = geometry.christoffel(g, xs)
        worst = max(worst, float(np.max(np.abs(s - 0.5 * g2))))
    return _result(worst, 1e-15,
                   "s(x) = Gamma^2_12 / 2 on random grids")


@_check("christoffel_odd", "geometry")
def _christoffel_odd(ctx):
    xs = np.linspace(0.1, 1.5, 57)
    g = TorusGeometry(1.3, 2.1)
    f1, f2 = geometry.christoffel(g, xs)
    m1, m2 = geometry.christoffel(g, -xs)
    worst = float(max(np.max(np.abs(f1 + m1)), np.max(np.abs(f2 + m2))))
    return _result(worst, 1e-14,
                   "componentwise odd in x")


def _roundtrip(component, n_points, h0):
    g = TorusGeometry(1.0, 1.0)
    target = susy.pt_coefficients(PT_SPEC, "minus")
    xs = np.linspace(0.3, 2.4, n_points)
    mode = ModeParams(1.0, component)
    tr = geometry.solve_g_transform(g, mode, target, xs, h0=h0)
    got = geometry.reduced_potential_grid(g, mode, tr)
    want = target(xs[1:-1])
    return float(np.max(np.abs(got - want)))


@_check("roundtrip_component1", "geometry")
def _roundtrip_c1(ctx):
    return _result(_roundtrip(1, 4001, 0.1),
                   1e-6, "transform then reduced potential, k=1, a=c=1")


@_check("roundtrip_component2", "geometry")
def _roundtrip_c2(ctx):
    return _result(_roundtrip(2, 6001, 0.3),
                   1e-6, "second component, sign-flipped reduction")


@_check("u1_eq_u2_at_k0", "geometry")
def _u1u2k0(ctx):
    g = TorusGeometry(1.0, 2.0)
    xs = np.linspace(0.2, math.pi - 0.2, 301)
    vf = lambda x: np.ones_like(np.asarray(x, dtype=float))
    vfp = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    u1 = geometry.effective_coefficients(g, ModeParams(0.0, 1), xs, vf, vfp)
    u2 = geometry.effective_coefficients(g, ModeParams(0.0, 2), xs, vf, vfp)
    worst = float(np.max(np.abs(u1 - u2)))
    return _result(worst, 1e-12,
                   "k = 0 and V_F' = 0 collapse the two components")


@_check("prefactor_identity", "geometry")
def _prefactor_identity(ctx):
    g = TorusGeometry(1.0, 1.0)
    target = susy.PTCoefficients(0.0, 0.0, 0.0)
    xs = np.linspace(0.3, 2.4, 501)
    tr = geometry.solve_g_transform(g, ModeParams(0.0, 1), target, xs, h0=0.7)
    r = g.c + g.a * np.cos(xs)
    ident = tr.prefactor * np.sqrt(tr.g_prime * tr.fermi_velocity) * np.exp(g.a / (2.0 * r))
    worst = float(np.max(np.abs(ident - 1.0)))
    return _result(worst, 1e-12,
                   "f sqrt(g' V_F) e^{a/2R} = 1 by construction")


# --------------------------------------------------------------------------
# susy
# --------------------------------------------------------------------------

@_check("identity_pt_analytic", "susy")
def _identity_pt(ctx):
    xs = np.linspace(0.05, math.pi - 0.05, 2001)
    rm, rp = susy.susy_residual(PT_SPEC, xs, "analytic")
    return _result(max(rm, rp), 1e-9,
                   "V-+ = W^2 -+ W' with closed-form W'")


def _fd_grid():
    return np.linspace(0.15, math.pi - 0.25, 1501)


@_check("identity_rational_fd", "susy")
def _identity_rational(ctx):
    spec = susy.solve_parameter_conditions("equal_radii", a=2.0, B=-1.5, branch="-")
    rm, rp = susy.susy_residual(spec, _fd_grid(), "fd")
    return _result(max(rm, rp), 1e-6,
                   "sin-tail family, central-difference W'")


@_check("identity_beta_fd", "susy")
def _identity_beta(ctx):
    spec = susy.BetaTail(1.0, 0.25, 1.0, TorusGeometry(1.0, 1.5))
    rm, rp = susy.susy_residual(spec, _fd_grid(), "fd")
    return _result(max(rm, rp), 1e-6,
                   "beta-tail family (exercises the incomplete beta)")


@_check("identity_appell_fd", "susy")
def _identity_appell(ctx):
    spec = susy.solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+",
                                           C1=-1.0)
    xs = np.linspace(0.15, 2.0, 801)
    rm, rp = susy.susy_residual(spec, xs, "fd")
    return _result(max(rm, rp), 1e-6,
                   "two-variable-series tail family")


@_check("cancellation_rational", "susy")
def _cancellation_rational(ctx):
    worst = 0.0
    xs = np.linspace(0.1, math.pi - 0.1, 2001)
    for (a, b, br) in ((2.0, -1.5, "-"), (1.0, 0.5, "+"), (1.0, 0.25, "-")):
        spec = susy.solve_parameter_conditions("equal_radii", a=a, B=b, branch=br)
        vm, _ = susy.partner_potentials(spec, xs)
        pt = susy.pt_coefficients(spec, "minus")(xs)
        worst = max(worst, float(np.max(np.abs(vm - pt))))
    return _result(worst, 1e-10,
                   "rational part of V- vanishes under the solved conditions")


@_check("appell_g_functional", "susy")
def _appell_g_functional(ctx):
    spec = susy.solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+",
                                           C1=-1.0)
    A, B, lam = spec.A, spec.B, spec.lam
    a, c = spec.geom.a, spec.geom.c
    xs = np.linspace(0.15, 2.0, 801)

    def g_of(x):
        w = susy.superpotential_eval(spec, x)
        core = (A * np.cos(x) + B) / np.sin(x)
        p = c + a * np.cos(x)
        return (w - core) * p - lam * np.sin(x)

    gv = g_of(xs)
    gp = numeric_derivative(g_of, xs, h=3e-5)
    p = c + a * np.cos(xs)
    q = ((4.0 * a * B + 4.0 * A * c) * np.cos(xs) / np.sin(xs)
         + 4.0 * a * A * np.cos(xs) ** 2 / np.sin(xs)
         + 4.0 * B * c / np.sin(xs) + (4.0 * lam - 2.0 * a) * np.sin(xs))
    cal_g = 2.0 * gv ** 2 + gv * q - 2.0 * p * gp
    worst = float(np.max(np.abs(cal_g)))
    return _result(worst, 1e-6,
                   "tail functional vanishes for the series-built G")


@_check("spectrum_pt_oracle", "susy")
def _spectrum_pt(ctx):
    eps, elapsed = ctx.pt_spectrum
    expect = [n * (n + 4.0) for n in range(5)]
    abs0 = abs(eps[0])
    rel = max(abs(eps[n] / expect[n] - 1.0) for n in range(1, 5))
    ok = abs0 < 0.01 and rel < 5e-3 and elapsed < 5.0
    # no seconds in the detail, so that reruns print the same bytes
    detail = f"|eps0|={abs0:.2e}, max rel={rel:.2e}, {COLLOCATION}" + \
        ("" if elapsed < 5.0 else ", solve took 5 s or more")
    return CheckResult(ok, rel, 5e-3, detail)


@_check("isospectral_pt", "susy")
def _isospectral_pt(ctx):
    eps_minus, _ = ctx.pt_spectrum
    eps_plus = oracle.collocation_levels(susy.pt_coefficients(PT_SPEC, "plus"), 4)
    worst = max(abs(eps_plus[n] / eps_minus[n + 1] - 1.0) for n in range(4))
    return _result(worst, 5e-3,
                   f"spec(V+) vs spec(V-) shifted by one level, {COLLOCATION}")


@_check("spectrum_b_independence", "susy")
def _b_independence(ctx):
    eps_ref, _ = ctx.pt_spectrum
    worst = 0.0
    for b in (0.0, 0.25, PT_B):
        eps = eps_ref if b == PT_B else oracle.collocation_levels(
            susy.pt_coefficients(susy.PureTrigPT(PT_A, b), "minus"), 5)
        for n in range(1, 5):
            worst = max(worst, abs(eps[n] / (n * (n + 4.0)) - 1.0))
    return _result(worst, 5e-3, f"eps(n) = (n-A)^2 - A^2 for B in "
                                f"{{0, 0.25, 0.5}}, {COLLOCATION}")


@_check("eigenfunction_residual", "susy")
def _eigenfunction_residual(ctx):
    xs = np.linspace(0.25, math.pi - 0.25, 2001)
    v = susy.pt_coefficients(PT_SPEC, "minus")(xs)
    worst = 0.0
    for n in range(5):
        f = susy.eigenfunction_minus(PT_A, PT_B, n, xs)
        eps = susy.analytic_spectrum(PT_SPEC, n)
        worst = max(worst, susy.substitution_residual(f, v, eps, xs))
    return _result(worst, 1e-6,
                   "Schroedinger substitution, n = 0..4")


@_check("eigenfunction_nodes", "susy")
def _eigenfunction_nodes(ctx):
    bad = 0
    counts = []
    for n, f in enumerate(ctx.pt_levels[1]):
        k = int(np.sum(np.sign(f[1:]) * np.sign(f[:-1]) < 0))
        counts.append(k)
        bad += k != n
    return CheckResult(bad == 0, float(bad), 0.0,
                       f"node counts {counts} for n = 0..4")


@_check("eigenfunction_orthogonality", "susy")
def _eigenfunction_orth(ctx):
    xs, fs = ctx.pt_levels
    norms = [math.sqrt(np.trapezoid(f * f, xs)) for f in fs]
    worst = 0.0
    for m in range(5):
        for n in range(m + 1, 5):
            ip = np.trapezoid(fs[m] * fs[n], xs) / (norms[m] * norms[n])
            worst = max(worst, abs(ip))
    return _result(worst, 1e-6,
                   "pairwise overlaps, n <= 4")


@_check("ladder_annihilation", "susy")
def _ladder_annihilation(ctx):
    x, _ = ctx.ladder
    f0 = susy.eigenfunction_minus(PT_A, PT_B, 0, x)
    out = susy.ladder_apply(PT_SPEC, f0, x)
    worst = float(np.max(np.abs(out)) / np.max(np.abs(f0)))
    return _result(worst, 1e-6,
                   "lowering operator kills the ground state")


@_check("ladder_partner_cosine", "susy")
def _ladder_cosine(ctx):
    _, vecs = ctx.ladder
    deficits = [_cosine_deficit(img, vecs[:, n])
                for n, (_, img) in enumerate(ctx.ladder_images)]
    detail = "1-cos = " + ", ".join(f"{d:.1e}" for d in deficits)
    return _result(max(deficits), 1e-6, f"{detail}, {COLLOCATION}")


@_check("ladder_partner_cosine_ground", "susy")
def _ladder_cosine_ground(ctx):
    _, vecs = ctx.ladder
    _, img = ctx.ladder_images[0]
    return _result(_cosine_deficit(img, vecs[:, 0]), 1e-8,
                   f"lowest partner level against the oracle eigenfunction, "
                   f"{COLLOCATION}")


@_check("ladder_norm_ratio", "susy")
def _ladder_norm_ratio(ctx):
    x, _ = ctx.ladder
    worst = 0.0
    for n, (f, img) in enumerate(ctx.ladder_images):
        ratio = np.trapezoid(img * img, x) / np.trapezoid(f * f, x)
        eps = susy.analytic_spectrum(PT_SPEC, n + 1)
        worst = max(worst, abs(ratio / eps - 1.0))
    return _result(worst, 1e-4,
                   "||lowered||^2/||F||^2 = eps(n+1)")


@_check("partner_closed_form", "susy")
def _partner_closed_form(ctx):
    spec = susy.solve_parameter_conditions("equal_radii", a=2.0, B=-1.5, branch="-")
    xs = np.linspace(0.3, math.pi - 0.3, 3001)
    worst = 0.0
    for n in (1, 2):
        fm = susy.eigenfunction_minus(spec.A, spec.B, n, xs)
        img = susy.ladder_apply(spec, fm, xs)
        closed = susy.eigenfunction_plus(spec, n, xs)
        worst = max(worst, _cosine_deficit(img, closed))
    return _result(worst, 1e-6,
                   "closed-form partner eigenfunction vs ladder image")


@_check("psi1_normalization", "susy")
def _psi1_normalization(ctx):
    spec = susy.solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    xs = np.linspace(0.0, math.pi, 20001)[1:-1]
    psi = susy.normalize(susy.spinor_psi1(spec, 0, xs), xs)
    err = abs(float(np.trapezoid(psi * psi, xs)) - 1.0)
    return _result(err, 1e-8,
                   "unit L2 norm under the fixed quadrature convention")


@_check("psi2_integrability", "susy")
def _psi2_integrability(ctx):
    spec = susy.solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    left, right = susy.psi2_integrable(spec.geom, spec.lam, 0)
    return CheckResult(True, None, None,
                       f"L2-integrable: left={left}, right={right}", info=True)


@_check("psi2_substitution", "susy")
def _psi2_substitution(ctx):
    # report-only: the printed second-component solution passes at n = 0 and
    # fails for n >= 1 (its Jacobi parameter pair is transposed)
    spec = susy.solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    resids = [susy.psi2_substitution_residual(spec, n) for n in (0, 1)]
    detail = f"relative residuals: n=0 {resids[0]:.1e}, n=1 {resids[1]:.1e}"
    return CheckResult(True, resids[1], None,
                       detail, info=True)


# --------------------------------------------------------------------------
# algebra
# --------------------------------------------------------------------------

def _closure_params():
    return iso21.AlgebraParams.from_closure(c=1.0, K1=0.6)


def _algebra_grid():
    return np.linspace(0.1, math.pi - 0.4, 2001)


@_check("st_constraints", "algebra")
def _st_constraints(ctx):
    xs = np.linspace(0.05, math.pi - 0.05, 2001)
    s, t = iso21.st_functions(-2.5, xs)
    sp = 1.0 / np.sin(xs) ** 2
    tp = 2.5 * np.cos(xs) / np.sin(xs) ** 2
    worst = float(max(np.max(np.abs(sp - s * s - 1.0)), np.max(np.abs(tp - s * t))))
    return _result(worst, 1e-10,
                   "S' - S^2 = 1 and T' - S T = 0")


@_check("constraint77_closure", "algebra")
def _constraint77_closure(ctx):
    r = iso21.constraint_residual_77(_closure_params(), _algebra_grid())
    return _result(r, 1e-10,
                   "difference form under the closure conditions")


@_check("closure_riccati_pair", "algebra")
def _closure_riccati(ctx):
    r1, r2 = iso21.closure_riccati_residuals(_closure_params(), _algebra_grid())
    return _result(max(r1, r2), 1e-10,
                   "both Riccati identities vanish individually")


@_check("constraint77_negative", "algebra")
def _constraint77_negative(ctx):
    import dataclasses
    p = _closure_params()
    xs = _algebra_grid()
    worst = math.inf
    for fieldname in ("K2", "mu", "B1"):
        q = dataclasses.replace(p, **{fieldname: getattr(p, fieldname) + 0.1})
        worst = min(worst, iso21.constraint_residual_77(q, xs))
    return _result(worst, 1e-3,
                   "0.1 perturbation of any single parameter", compare="ge")


@_check("commutator_backbone", "algebra")
def _commutator_backbone(ctx):
    return _result(ctx.backbone_residuals[2048], 1e-4,
                   "[J+, J-] = -2 J3 on the unmodified generators, N=2048")


@_check("commutator_h2_decay", "algebra")
def _commutator_decay(ctx):
    ratio = ctx.backbone_residuals[1024] / ctx.backbone_residuals[2048]
    ok = 3.0 <= ratio <= 5.5
    return CheckResult(ok, ratio, 4.0,
                       f"residual ratio N=1024/N=2048 = {ratio:.2f}")


@_check("commutator_modified_defect", "algebra")
def _commutator_modified(ctx):
    # With the rational modification terms the operator commutator retains a
    # 4 S U2 multiplication defect; verify the defect is exactly that.
    raw, clean = iso21.commutator_residual(_closure_params(), 2048)
    return _result(clean, 1e-3,
                   f"raw residual {raw:.2f}; after subtracting 4 S U2 psi")


@_check("casimir_susy_constant", "algebra")
def _casimir_constant(ctx):
    p = _closure_params()
    xs = np.linspace(0.05, math.pi - 0.3, 2001)
    diff = iso21.casimir_potential(p, xs) \
        - susy.partner_potentials(iso21.susy_family(p), xs)[0]
    detail = f"mean {np.mean(diff):.6f} vs A^2 - 1/4 = {iso21.casimir_shift(p):.6f}"
    return _result(float(np.std(diff)), 1e-10,
                   detail)


@_check("eps_identity", "algebra")
def _eps_identity(ctx):
    p = iso21.AlgebraParams(B1=-0.5, mu=1.5, K1=0.0, K2=0.0,
                            geom=TorusGeometry(1.0, 1.0))
    # the partner tower that algebra_spectrum serves, against the printed
    # Casimir form (n + mu + 1/2)^2 - (mu + 1/2)^2
    half = p.mu + 0.5
    worst = 0.0
    for n in range(6):
        eps_alg, _ = iso21.algebra_spectrum(p, n)
        worst = max(worst, abs(eps_alg - ((n + half) ** 2 - half ** 2)))
    return _result(worst, 1e-12,
                   "algebra and partner-tower eps agree under A = -mu - 1/2")


@_check("casimir_spectrum_oracle", "algebra")
def _casimir_oracle(ctx):
    p = iso21.AlgebraParams(B1=-0.5, mu=1.5, K1=0.0, K2=0.0,
                            geom=TorusGeometry(1.0, 1.0))
    evals = oracle.collocation_levels(
        functools.partial(iso21.casimir_potential, p), 4)
    shift = iso21.casimir_shift(p)
    worst = 0.0
    for n in range(4):
        eps, _ = iso21.algebra_spectrum(p, n)
        got = evals[n] - shift
        worst = max(worst, abs(got - eps) / max(abs(eps), 1.0))
    return _result(worst, 5e-3,
                   f"Casimir potential spectrum matches eps(n) + const, "
                   f"{COLLOCATION}")


@_check("scaling_routes", "algebra")
def _scaling_routes(ctx):
    p = _closure_params()
    eps, e89 = iso21.algebra_spectrum(p, 2)
    scalings = iso21.energy_scalings(eps, p.geom.a)
    lam_a = -p.K1                       # via the Casimir comparison
    lam_b = 2.0 * p.geom.a * (-p.mu - 0.5)  # via the cancellation conditions
    detail = (f"E_eq37={scalings['E_eq37']:.6f}, E_eq89={scalings['E_eq89']:.6f}; "
              f"lambda via mapping {lam_a:.3f}, via conditions {lam_b:.3f}")
    return CheckResult(True, None, None, detail,
                       info=True)


SUITES = ("special", "geometry", "susy", "algebra")
CHECKS = {name: (suite, fn) for (name, suite, fn) in _REGISTRY}


def run_suite(suite: str = "all") -> VerifyReport:
    """Execute one named suite (or all of them) and collect the report."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {('all',) + SUITES}")
    ctx = Context()
    report = VerifyReport(suite=suite)
    t0 = time.perf_counter()
    for (name, sname, fn) in _REGISTRY:
        if suite != "all" and sname != suite:
            continue
        result = fn(ctx)
        result.name, result.suite = name, sname
        report.results.append(result)
    report.elapsed = time.perf_counter() - t0
    return report
