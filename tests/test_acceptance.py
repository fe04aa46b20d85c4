"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and match the package's own verification
suite (`toruspt verify --suite all`).
"""

import dataclasses
import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np
from scipy.integrate import quad, trapezoid

from toruspt import geometry, iso21, oracle, susy
from toruspt.geometry import ModeParams, TorusGeometry
from toruspt.special import appell_f1, incomplete_beta

A0, B0 = -2.0, 0.5
PT = susy.PureTrigPT(A0, B0)
PKG_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_spectrum_reproduction():
    t0 = time.perf_counter()
    eps = oracle.collocation_levels(susy.pt_coefficients(PT, "minus"), 5)
    elapsed = time.perf_counter() - t0
    abs0 = abs(eps[0])
    rels = [abs(eps[n] / (n * (n + 4.0)) - 1.0) for n in range(1, 5)]
    ok = abs0 < 0.01 and max(rels) < 5e-3 and elapsed < 5.0
    report(1, ok, f"eps vs n(n+4): |eps0|={abs0:.2e} (<0.01), "
                  f"max rel={max(rels):.2e} (<5e-3), runtime {elapsed:.2f} s (<5)")


def test_criterion_2_isospectrality():
    minus = oracle.collocation_levels(susy.pt_coefficients(PT, "minus"), 5)
    plus = oracle.collocation_levels(susy.pt_coefficients(PT, "plus"), 4)
    worst = max(abs(plus[n] / minus[n + 1] - 1.0) for n in range(4))
    report(2, worst < 5e-3,
           f"spec(V+) vs shifted spec(V-): max rel={worst:.2e} (<5e-3)")


def test_criterion_3_susy_identity():
    xs_pt = np.linspace(0.05, math.pi - 0.05, 2001)
    r_pt = max(susy.susy_residual(PT, xs_pt, "analytic"))
    fd_grid = np.linspace(0.15, math.pi - 0.25, 1501)
    worst_fd = 0.0
    for spec, grid in (
        (susy.solve_parameter_conditions("equal_radii", a=2.0, B=-1.5,
                                         branch="-"), fd_grid),
        (susy.BetaTail(1.0, 0.25, 1.0, TorusGeometry(1.0, 1.5)), fd_grid),
        (susy.solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+",
                                         C1=-1.0), np.linspace(0.15, 2.0, 801)),
    ):
        worst_fd = max(worst_fd, max(susy.susy_residual(spec, grid, "fd")))
    ok = r_pt < 1e-9 and worst_fd < 1e-6
    report(3, ok, f"|V-+ - (W^2 -+ W')|: analytic PT {r_pt:.2e} (<1e-9), "
                  f"extended families FD {worst_fd:.2e} (<1e-6)")


def test_criterion_4_rational_cancellation():
    xs = np.linspace(0.1, math.pi - 0.1, 2001)
    worst_rs = 0.0
    for (a, b, br) in ((2.0, -1.5, "-"), (1.0, 0.5, "+")):
        spec = susy.solve_parameter_conditions("equal_radii", a=a, B=b, branch=br)
        vm, _ = susy.partner_potentials(spec, xs)
        worst_rs = max(worst_rs, float(np.max(np.abs(
            vm - susy.pt_coefficients(spec, "minus")(xs)))))

    spec = susy.solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+",
                                           C1=-1.0)
    xs_a = np.linspace(0.15, 2.0, 801)

    def g_of(x):
        core = (spec.A * np.cos(x) + spec.B) / np.sin(x)
        p = spec.geom.c + spec.geom.a * np.cos(x)
        return (susy.superpotential_eval(spec, x) - core) * p \
            - spec.lam * np.sin(x)

    h = 3e-5
    gv = g_of(xs_a)
    gp = (g_of(xs_a + h) - g_of(xs_a - h)) / (2.0 * h)
    p = spec.geom.c + spec.geom.a * np.cos(xs_a)
    q = ((4.0 * spec.geom.a * spec.B + 4.0 * spec.A * spec.geom.c)
         * np.cos(xs_a) / np.sin(xs_a)
         + 4.0 * spec.geom.a * spec.A * np.cos(xs_a) ** 2 / np.sin(xs_a)
         + 4.0 * spec.B * spec.geom.c / np.sin(xs_a)
         + (4.0 * spec.lam - 2.0 * spec.geom.a) * np.sin(xs_a))
    g_func = float(np.max(np.abs(2.0 * gv ** 2 + gv * q - 2.0 * p * gp)))
    ok = worst_rs < 1e-10 and g_func < 1e-6
    report(4, ok, f"sin-tail V- vs pure form {worst_rs:.2e} (<1e-10); "
                  f"series-tail functional {g_func:.2e} (<1e-6)")


def test_criterion_5_eigenfunction_substitution():
    xs = np.linspace(0.25, math.pi - 0.25, 2001)
    d = xs[1] - xs[0]
    v = susy.pt_coefficients(PT, "minus")(xs)
    worst = 0.0
    for n in range(5):
        f = susy.eigenfunction_minus(A0, B0, n, xs)
        fpp = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) \
            / (12.0 * d * d)
        eps = susy.analytic_spectrum(PT, n)
        worst = max(worst, float(np.max(np.abs(-fpp + (v[2:-2] - eps) * f[2:-2]))
                                 / np.abs(f).max()))
    xs_fine = np.linspace(0.002, math.pi - 0.002, 20001)
    nodes_ok = True
    fs = []
    for n in range(5):
        f = susy.eigenfunction_minus(A0, B0, n, xs_fine)
        fs.append(f)
        nodes_ok &= int(np.sum(np.sign(f[1:]) * np.sign(f[:-1]) < 0)) == n
    norms = [math.sqrt(trapezoid(f * f, xs_fine)) for f in fs]
    orth = max(abs(trapezoid(fs[m] * fs[n], xs_fine)) / (norms[m] * norms[n])
               for m in range(5) for n in range(m + 1, 5))
    ok = worst < 1e-6 and nodes_ok and orth < 1e-6
    report(5, ok, f"substitution residual {worst:.2e} (<1e-6); node counts "
                  f"{'ok' if nodes_ok else 'BAD'}; orthogonality {orth:.2e} (<1e-6)")


def test_criterion_6_ladder_structure():
    x = np.linspace(0.05, math.pi - 0.05, 6001)
    _, vecs = oracle.collocation_eigenpairs(susy.pt_coefficients(PT, "plus"), 3, x)
    f0 = susy.eigenfunction_minus(A0, B0, 0, x)
    annihilation = float(np.max(np.abs(susy.ladder_apply(PT, f0, x)))
                         / np.max(np.abs(f0)))
    worst_cos, worst_ratio = 0.0, 0.0
    for n in range(3):
        f = susy.eigenfunction_minus(A0, B0, n + 1, x)
        img = susy.ladder_apply(PT, f, x)
        v = vecs[:, n]
        cos = abs(float(img @ v)) / (np.linalg.norm(img) * np.linalg.norm(v))
        worst_cos = max(worst_cos, 1.0 - cos)
        ratio = trapezoid(img * img, x) / trapezoid(f * f, x)
        worst_ratio = max(worst_ratio,
                          abs(ratio / susy.analytic_spectrum(PT, n + 1) - 1.0))
    ok = annihilation < 1e-6 and worst_cos < 1e-6 and worst_ratio < 1e-4
    report(6, ok, f"annihilation {annihilation:.2e} (<1e-6); partner cosine "
                  f"deficit {worst_cos:.2e} (<1e-6); norm ratio {worst_ratio:.2e} "
                  f"(<1e-4)")


def test_criterion_7_algebra_closure():
    xs = np.linspace(0.05, math.pi - 0.05, 2001)
    s, t = iso21.st_functions(-2.5, xs)
    sp = 1.0 / np.sin(xs) ** 2
    tp = 2.5 * np.cos(xs) / np.sin(xs) ** 2
    r76 = float(max(np.max(np.abs(sp - s * s - 1.0)), np.max(np.abs(tp - s * t))))

    closed = iso21.AlgebraParams.from_closure(c=1.0, K1=0.6)
    grid77 = np.linspace(0.1, math.pi - 0.4, 2001)
    r77 = iso21.constraint_residual_77(closed, grid77)
    r77_neg = min(
        iso21.constraint_residual_77(
            dataclasses.replace(closed, **{f: getattr(closed, f) + 0.1}), grid77)
        for f in ("K2", "mu", "B1"))

    backbone = iso21.AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                                   geom=TorusGeometry(1.0, 1.0))

    def commutator(n_pts):
        lo, hi = 0.2, math.pi - 0.2
        xg = np.linspace(lo, hi, n_pts)
        jp_m1 = iso21.sector_operator(backbone, backbone.mu - 1.0, "raise", xg)
        jm_mu = iso21.sector_operator(backbone, backbone.mu, "lower", xg)
        jm_p1 = iso21.sector_operator(backbone, backbone.mu + 1.0, "lower", xg)
        jp_mu = iso21.sector_operator(backbone, backbone.mu, "raise", xg)
        psi = np.sin(np.pi * (xg - lo) / (hi - lo)) ** 2 \
            * (0.7 + 0.3 * np.sin(3.0 * (xg - lo) + 1.0))
        lhs = jp_m1(jm_mu(psi)) - jm_p1(jp_mu(psi))
        return float(np.linalg.norm(lhs + 2.0 * backbone.mu * psi)
                     / np.linalg.norm(psi))

    c2048 = commutator(2048)
    decay = commutator(1024) / c2048
    ok = (r76 < 1e-10 and r77 < 1e-10 and r77_neg > 1e-3 and c2048 < 1e-4
          and 3.0 < decay < 5.5)
    report(7, ok, f"trig constraints {r76:.1e} (<1e-10); closure constraint "
                  f"{r77:.1e} (<1e-10), perturbed {r77_neg:.1e} (>1e-3); "
                  f"commutator {c2048:.1e} (<1e-4), decay x{decay:.2f}")


def test_criterion_8_casimir_susy_reconciliation():
    closed = iso21.AlgebraParams.from_closure(c=1.0, K1=0.6)
    xs = np.linspace(0.05, math.pi - 0.3, 2001)
    mapped = susy.RationalSin(A=-closed.mu - 0.5, B=-closed.B1, lam=-closed.K1,
                              geom=closed.geom)
    diff = iso21.casimir_potential(closed, xs) \
        - susy.partner_potentials(mapped, xs)[0]
    spread = float(np.std(diff))

    p = iso21.AlgebraParams(B1=-0.5, mu=1.5, K1=0.0, K2=0.0,
                            geom=TorusGeometry(1.0, 1.0))
    mapped_pt = susy.PureTrigPT(A=-p.mu - 0.5, B=-p.B1)
    ident = max(abs(iso21.algebra_spectrum(p, n)[0]
                    - susy.analytic_spectrum(mapped_pt, n)) for n in range(6))
    evals = oracle.collocation_levels(lambda x: iso21.casimir_potential(p, x), 4)
    shift = (p.mu + 0.5) ** 2 - 0.25
    worst_oracle = max(abs((evals[n] - shift) - iso21.algebra_spectrum(p, n)[0])
                       / max(iso21.algebra_spectrum(p, n)[0], 1.0)
                       for n in range(4))
    ok = spread < 1e-10 and ident == 0.0 and worst_oracle < 5e-3
    report(8, ok, f"Casimir minus mapped V- constant: std {spread:.1e} (<1e-10); "
                  f"eps formulas identical ({ident:.1e}); oracle rel "
                  f"{worst_oracle:.2e} (<5e-3)")


def test_criterion_9_special_functions():
    rng = np.random.default_rng(42)
    worst_beta = 0.0
    for _ in range(100):
        z = rng.uniform(0.05, 0.95)
        s = rng.uniform(0.15, 4.0)
        w = rng.uniform(-2.5, 4.0)
        ref = quad(lambda u: u ** (s - 1.0) * (1.0 - u) ** (w - 1.0), 0.0, z,
                   epsabs=1e-14, epsrel=1e-13, limit=400)[0]
        worst_beta = max(worst_beta,
                         abs(incomplete_beta(z, s, w) - ref) / max(1.0, abs(ref)))
    worst_f1 = 0.0
    for _ in range(20):
        a = rng.uniform(0.2, 2.0)
        b1, b2 = rng.uniform(-1.5, 2.0, 2)
        c = rng.uniform(0.5, 3.5)
        x, y = rng.uniform(-0.6, 0.6, 2)
        ref = float(mpmath.appellf1(a, b1, b2, c, x, y))
        worst_f1 = max(worst_f1, abs(appell_f1(a, b1, b2, c, x, y) - ref))
    red1 = abs(appell_f1(0.5, 0.25, 1.5, 2.0, 0.4, 0.0)
               - float(mpmath.hyp2f1(0.5, 0.25, 2.0, 0.4)))
    red2 = abs(appell_f1(0.5, 0.25, 1.5, 2.0, 0.3, 0.3)
               - float(mpmath.hyp2f1(0.5, 1.75, 2.0, 0.3)))
    ok = worst_beta < 1e-10 and worst_f1 < 1e-9 and max(red1, red2) < 1e-9
    report(9, ok, f"incomplete beta vs quadrature {worst_beta:.2e} (<1e-10); "
                  f"double series vs mpmath {worst_f1:.2e} (<1e-9); "
                  f"reductions {max(red1, red2):.2e} (<1e-9)")


def test_criterion_10_geometry_roundtrip():
    g = TorusGeometry(1.0, 1.0)
    target = susy.pt_coefficients(PT, "minus")
    worst = {}
    for comp, n_pts, h0 in ((1, 4001, 0.1), (2, 6001, 0.3)):
        xs = np.linspace(0.3, 2.4, n_pts)
        mode = ModeParams(1.0, comp)
        tr = geometry.solve_g_transform(g, mode, target, xs, h0=h0)
        got = geometry.reduced_potential_grid(g, mode, tr)
        worst[comp] = float(np.max(np.abs(got - target(xs[1:-1]))))
    ok = worst[1] < 1e-6 and worst[2] < 1e-6
    report(10, ok, f"round-trip residual: component 1 {worst[1]:.2e}, "
                   f"component 2 {worst[2]:.2e} (both <1e-6, k=1, a=c=1)")


def _cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "toruspt", *argv],
                          capture_output=True, text=True, env=env)


def test_criterion_11_cli_black_box(tmp_path):
    matrix_ok = (
        _cli("spectrum", "--case", "pt", "--A", "-2", "--B", "0.5",
             "--levels", "3").returncode == 0
        and _cli("spectrum", "--case", "pt", "--A", "-2", "--B", "0.5",
                 "--levels", "50").returncode == 2
        and _cli("potential", "--case", "bogus").returncode == 2
        and _cli("spectrum", "--case", "pt", "--A", "2", "--B", "0.5",
                 "--levels", "4").returncode == 1
        and _cli("wavefunction", "--case", "pt", "--A", "-2", "--B", "0.5",
                 "--n", "1", "--n-points", "256").returncode == 0
    )
    args = ("potential", "--case", "pt", "--A", "-2", "--B", "0.5",
            "--n-points", "301", "--output", str(tmp_path / "pot.csv"))
    _cli(*args)
    first = (tmp_path / "pot.csv").read_bytes()
    _cli(*args)
    identical = (tmp_path / "pot.csv").read_bytes() == first

    t0 = time.perf_counter()
    res = _cli("verify", "--suite", "all")
    elapsed = time.perf_counter() - t0
    verify_ok = res.returncode == 0 and elapsed < 60.0
    ok = matrix_ok and identical and verify_ok
    report(11, ok, f"exit-code matrix {'ok' if matrix_ok else 'BAD'}; "
                   f"byte-identical rerun {'ok' if identical else 'BAD'}; "
                   f"verify --suite all exit {res.returncode} in {elapsed:.1f} s "
                   f"(<60)")
