"""Machine-checked errata for the source derivation.

Each entry records one internal inconsistency found in the published
derivation this package reconstructs, the resolution adopted here, and a
small numeric computation substantiating it.  Entries cross-reference the
verification-suite checks that exercise the same resolution at full
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import iso21, susy
from .errors import DomainError
from .geometry import TorusGeometry
from .special import numeric_derivative

__all__ = ["ErrataEntry", "ENTRIES", "render_text"]


@dataclass
class ErrataEntry:
    key: str
    summary: str
    resolution: str
    check_refs: tuple
    evidence_fn: object  # lazy: computed only when rendering

    def evidence(self) -> dict:
        return self.evidence_fn()


def _ev_eq36():
    spec = susy.PureTrigPT(-2.0, 0.5)
    pc = susy.pt_coefficients(spec, "minus")
    return {"coeff_csc2 (A(A+1)+B^2)": pc.coeff_csc2,
            "coeff_cotcsc ((1+2A)B)": pc.coeff_cotcsc}


def _ev_eq37_vs_eq89():
    scal = iso21.energy_scalings(5.0, 2.0)
    return {"eps": 5.0, "a": 2.0, **scal}


def _ev_eq54():
    # the numbers of the susy/psi2_substitution check, from its own function
    spec = susy.solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    return {f"substitution_residual_n{n}": susy.psi2_substitution_residual(spec, n)
            for n in (0, 1)}


def _ev_eq57_coeff():
    # V- = W^2 - W' of the served beta tail (denominator C1 + 4^A B) and of
    # the printed C1 + 4^B B; since m/(C1 + 4^B B) = k m/(C1 k + 4^A B) with
    # k = 4^(A-B), the printed W is the core plus k times the tail served
    # for C1 k
    A, B, C1, geom = 1.0, 0.25, 1.0, TorusGeometry(1.0, 1.5)
    spec = susy.BetaTail(A, B, C1, geom)
    xs = np.linspace(0.2, math.pi - 0.2, 401)
    k = 4.0 ** (A - B)
    scaled, core = susy.BetaTail(A, B, C1 * k, geom), susy.PureTrigPT(A, B)

    def w_printed(x):
        w_core = susy.superpotential_eval(core, x)
        return w_core + k * (susy.superpotential_eval(scaled, x) - w_core)

    vm = susy.pt_coefficients(spec, "minus")(xs)
    printed = vm - (w_printed(xs) ** 2 - numeric_derivative(w_printed, xs))
    return {"identity_residual_with_4^A": susy.susy_residual(spec, xs, "fd")[0],
            "identity_residual_with_4^B (printed)": float(np.max(np.abs(printed)))}


def _ev_eq57_domain():
    a_bad, b_bad = -2.0, 0.5
    try:
        susy.BetaTail(a_bad, b_bad, 1.0, TorusGeometry(1.0, 1.5))
        accepted = True
    except DomainError:
        accepted = False
    return {"example (A, B)": (a_bad, b_bad),
            "first beta argument 1/2+A-B": 0.5 + a_bad - b_bad,
            "accepted": accepted}


def _ev_eq67_eq68():
    a, lam = 1.0, 2.0
    # printed radical values (inherit the stray "1 +")
    rad = math.sqrt((1.0 - 2.0 * a + 2.0 * lam) / (-2.0 * a + 2.0 * lam))
    b_printed, c_printed = 0.5 * (1.0 - lam / a) * rad, a * rad
    # corrected values (terminate the rational part exactly)
    b_fixed, c_fixed = 0.5 * (1.0 - lam / a), a
    xs = np.linspace(0.1, math.pi - 0.1, 501)

    def numerator_max(b_val, c_val):
        return float(np.max(np.abs(
            susy.lambda_bracket(lam / (2.0 * a), b_val, lam, a, c_val, xs))))

    return {
        "rational numerator, printed B,c": numerator_max(b_printed, c_printed),
        "rational numerator, corrected B,c": numerator_max(b_fixed, c_fixed),
        "resolution A": "A = lambda/(2a)",
    }


def _printed_sign_operator(p, mu_sector, direction, grid):
    # the printed bracket sign -((nu +- 1/2) S - T): U = 0 on the backbone
    # (K1 = K2 = 0), so this is the sector operator minus 2i ((nu +- 1/2) S - T)
    used = iso21.sector_operator(p, mu_sector, direction, grid)
    s, t = iso21.st_functions(p.B1, grid)
    bracket = (mu_sector + 0.5 if direction == "raise" else mu_sector - 0.5) * s - t
    return lambda f: used(f) - 2j * bracket * f


def _ev_eq73():
    # the backbone at N = 1024, as in the algebra/commutator_backbone check
    p = iso21.AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                            geom=TorusGeometry(1.0, 1.0))
    return {"commutator residual, corrected sign":
            iso21.commutator_residual(p, 1024)[0],
            "commutator residual, printed sign":
            iso21.commutator_residual(p, 1024, _printed_sign_operator)[0]}


def _ev_eq77():
    p = iso21.AlgebraParams.from_closure(c=1.0, K1=0.6)
    xs = np.linspace(0.1, math.pi - 0.4, 801)
    r1, r2 = iso21.closure_riccati_residuals(p, xs)
    # verbatim reading: -U2' inside the bracket and coefficient mu1 (not mu1+1/2)
    s, t = iso21.st_functions(p.B1, xs)
    u1, u1p = susy.sin_tail(-p.K1, p.geom, xs)
    u2, u2p = susy.sin_tail(p.K2, p.geom, xs)
    verbatim = (u1 * u1 - u1p + 2.0 * u1 * ((p.mu + 0.5) * s - t)
                - (u2 * u2 - u2p + 2.0 * u2 * (p.mu1 * s - t)))
    return {"riccati pair (corrected)": max(r1, r2),
            "verbatim reading residual": float(np.max(np.abs(verbatim)))}


def _ev_eq65():
    # the cos 2x term of the rational numerator carries a lambda factor;
    # partner_potentials uses lambda*(2aA - lambda) cos 2x
    spec = susy.RationalSin(0.7, 0.3, 1.3, TorusGeometry(1.0, 1.7))
    xs = np.linspace(0.2, math.pi - 0.2, 601)
    return {"V- identity residual with lambda factor":
            susy.susy_residual(spec, xs, "fd")[0]}


def _ev_eq17():
    return {"note": "mixed powers of a across terms are implemented verbatim; "
                    "the acceptance suite runs in units a = 1 where the "
                    "ambiguity is inert"}


def _ev_commutator_defect():
    p = iso21.AlgebraParams.from_closure(c=1.0, K1=0.6)
    # N = 2048, as in the algebra/commutator_modified_defect check
    raw, after = iso21.commutator_residual(p, 2048)
    return {"raw residual": raw, "after subtracting 4*S*U2*psi": after}


ENTRIES = [
    ErrataEntry(
        key="eq36",
        summary="The constant names attached to the csc^2 and cot csc terms are "
                "swapped between the transform target and the solved family.",
        resolution="Internal names are explicit: coeff_csc2 = A(A+1)+B^2, "
                   "coeff_cotcsc = (1+2A)B, eps_const = -A^2.",
        check_refs=("susy/identity_pt_analytic", "susy/spectrum_pt_oracle"),
        evidence_fn=_ev_eq36,
    ),
    ErrataEntry(
        key="eq37_vs_eq89",
        summary="Two physical-energy formulas scale the same eps by 1/a^2 and "
                "by 1/a respectively.",
        resolution="The dimensionless eps is canonical; both scalings are "
                   "emitted side by side as E_eq37 and E_eq89.",
        check_refs=("algebra/scaling_routes",),
        evidence_fn=_ev_eq37_vs_eq89,
    ),
    ErrataEntry(
        key="eq54",
        summary="The printed second-component solution uses the degenerate "
                "Jacobi parameter alpha = -1 and transposes the parameter "
                "pair; only its n = 0 member solves the equation.",
        resolution="Evaluated verbatim through the parameter-limit identity; "
                   "the substitution residual is reported, not hidden. The "
                   "solving pair is (-lambda/a, -1).",
        check_refs=("susy/psi2_substitution",),
        evidence_fn=_ev_eq54,
    ),
    ErrataEntry(
        key="eq57",
        summary="The beta-tail denominator coefficient reads 4^B where only "
                "4^A cancels the rational term.",
        resolution="Denominator C1 + 4^A * B(cos^2(x/2); 1/2+A-B, 1/2+A+B); "
                   "C1 generalizes the printed constant 4^-A.",
        check_refs=("susy/identity_beta_fd",),
        evidence_fn=_ev_eq57_coeff,
    ),
    ErrataEntry(
        key="eq57_domain",
        summary="For solvable-regime parameters the first beta-function "
                "argument 1/2+A-B is negative and the defining integral "
                "diverges at its lower endpoint.",
        resolution="The beta-tail family requires 1/2+A-B > 0 and rejects "
                   "other parameter sets.",
        check_refs=("special/beta_quadrature",),
        evidence_fn=_ev_eq57_domain,
    ),
    ErrataEntry(
        key="eq65",
        summary="The cos 2x term of the rational numerator is missing its "
                "lambda factor.",
        resolution="Implemented as lambda*(2aA - lambda) cos 2x, under which "
                   "the identity V- = W^2 - W' holds.",
        check_refs=("susy/identity_rational_fd",),
        evidence_fn=_ev_eq65,
    ),
    ErrataEntry(
        key="eq67",
        summary="The first termination condition carries a stray '1 +' that "
                "leaves a -lambda/(2P^2) rational remainder.",
        resolution="Condition taken as 2a(A-1) + 4Bc + lambda = 0, which "
                   "terminates the rational part exactly.",
        check_refs=("susy/cancellation_rational", "susy/identity_appell_fd"),
        evidence_fn=_ev_eq67_eq68,
    ),
    ErrataEntry(
        key="eq68",
        summary="'A = lambda/2A' is circular, and the printed radicals for B "
                "and c inherit the stray constant so they do not cancel the "
                "rational term.",
        resolution="A = lambda/(2a); B = +-(1 - lambda/a)/2 and c = +-a, "
                   "validated by the numeric cancellation oracle.",
        check_refs=("susy/identity_appell_fd", "susy/appell_g_functional"),
        evidence_fn=_ev_eq67_eq68,
    ),
    ErrataEntry(
        key="eq73",
        summary="With the printed sign of ((J3 +- 1/2)S - T) the generators "
                "contradict the printed constraints S'-S^2 = 1, T'-ST = 0.",
        resolution="The bracket enters with a plus sign; the backbone "
                   "commutator then closes to -2 J3.",
        check_refs=("algebra/commutator_backbone", "algebra/st_constraints"),
        evidence_fn=_ev_eq73,
    ),
    ErrataEntry(
        key="eq77",
        summary="The closure constraint leaves F and G undefined, flips the "
                "sign of U2' and truncates the coefficient of the U2 bracket.",
        resolution="F := S, G := T; constraint read as the pair "
                   "U1^2 - U1' + 2U1((mu+1/2)S - T) = 0 and "
                   "U2^2 + U2' + 2U2((mu1+1/2)S - T) = 0, each exact under "
                   "the closure conditions.",
        check_refs=("algebra/closure_riccati_pair", "algebra/constraint77_closure"),
        evidence_fn=_ev_eq77,
    ),
    ErrataEntry(
        key="eq75_modified",
        summary="With the rational modification terms the operator commutator "
                "[J+, J-] is not -2 J3: a 4 S U2 multiplication defect "
                "remains even under the closure conditions.",
        resolution="Closure holds in the Riccati/Casimir sense (the spectrum "
                   "construction is unaffected); the defect is measured and "
                   "matches 4 S U2 exactly.",
        check_refs=("algebra/commutator_modified_defect",),
        evidence_fn=_ev_commutator_defect,
    ),
    ErrataEntry(
        key="eq17_eq45",
        summary="The zeroth-order coefficients mix powers of a across terms "
                "(a^2/R^4 against a/R^3).",
        resolution="Implemented verbatim; all quantitative checks run in "
                   "units a = 1 where the mix is inert.",
        check_refs=("geometry/roundtrip_component1",),
        evidence_fn=_ev_eq17,
    ),
]


def render_text() -> str:
    lines = ["machine-checked errata (resolutions backed by the verify suite)", ""]
    evidence = {}  # entries that share an evidence function compute it once
    for e in ENTRIES:
        if e.evidence_fn not in evidence:
            evidence[e.evidence_fn] = e.evidence()
        lines.append(f"[{e.key}]")
        lines.append(f"  issue:      {e.summary}")
        lines.append(f"  resolution: {e.resolution}")
        for k, v in evidence[e.evidence_fn].items():
            if isinstance(v, float):
                lines.append(f"  evidence:   {k} = {v:.6e}")
            else:
                lines.append(f"  evidence:   {k} = {v}")
        lines.append(f"  checks:     {', '.join(e.check_refs)}")
        lines.append("")
    return "\n".join(lines)
