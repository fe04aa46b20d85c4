"""Errata entries that restate a verify check show that check's own numbers,
and compute only the printed forms they refute."""

import math

import numpy as np
import pytest

from toruspt import errata, susy, verify
from toruspt.geometry import TorusGeometry
from toruspt.special import incomplete_beta, numeric_derivative


def _evidence(key):
    return next(e for e in errata.ENTRIES if e.key == key).evidence()


def _check(name):
    return verify.CHECKS[name][1](verify.Context())


def test_eq54_evidence_is_the_psi2_substitution_check():
    ev = _evidence("eq54")
    res = _check("psi2_substitution")
    assert ev["substitution_residual_n1"] == res.measured
    assert (f"n=0 {ev['substitution_residual_n0']:.1e}, "
            f"n=1 {ev['substitution_residual_n1']:.1e}") in res.detail


def test_eq75_evidence_is_the_commutator_defect_check():
    ev = _evidence("eq75_modified")
    res = _check("commutator_modified_defect")
    assert ev["after subtracting 4*S*U2*psi"] == res.measured
    assert f"raw residual {ev['raw residual']:.2f}" in res.detail


def test_eq73_corrected_evidence_is_the_backbone_residual():
    ev = _evidence("eq73")
    assert ev["commutator residual, corrected sign"] \
        == verify.Context().backbone_residuals[1024]
    assert ev["commutator residual, printed sign"] > 1.0


def test_eq57_evidence_is_the_served_identity_residual():
    spec = susy.BetaTail(1.0, 0.25, 1.0, TorusGeometry(1.0, 1.5))
    xs = np.linspace(0.2, math.pi - 0.2, 401)
    assert _evidence("eq57")["identity_residual_with_4^A"] \
        == susy.susy_residual(spec, xs, "fd")[0]


def test_eq57_printed_evidence_is_the_printed_denominator():
    # W with the printed C1 + 4^B B(cos^2(x/2); 1/2+A-B, 1/2+A+B), by hand
    A, B, C1 = 1.0, 0.25, 1.0
    xs = np.linspace(0.2, math.pi - 0.2, 401)

    def w(x):
        m = np.sin(x) ** (2.0 * A) * np.tan(0.5 * x) ** (2.0 * B)
        bz = incomplete_beta(np.cos(0.5 * x) ** 2, 0.5 + A - B, 0.5 + A + B)
        return (A * np.cos(x) + B) / np.sin(x) + m / (C1 + 4.0 ** B * bz)

    vm = susy.pt_coefficients(susy.PureTrigPT(A, B), "minus")(xs)
    want = float(np.max(np.abs(vm - (w(xs) ** 2 - numeric_derivative(w, xs)))))
    assert _evidence("eq57")["identity_residual_with_4^B (printed)"] \
        == pytest.approx(want, rel=1e-9)


def test_errata_binds_no_incomplete_beta():
    # the beta tail is built in one place, susy._beta_integrand
    assert not hasattr(errata, "incomplete_beta")


def test_eq57_domain_acceptance_is_the_beta_tail_gate(monkeypatch):
    assert _evidence("eq57_domain")["accepted"] is False
    monkeypatch.setattr(susy.BetaTail, "__post_init__", lambda self: None)
    assert _evidence("eq57_domain")["accepted"] is True


def test_every_check_ref_names_a_verify_check():
    # a check_refs entry is "suite/name" of a registered check
    refs = [ref for e in errata.ENTRIES for ref in e.check_refs]
    assert refs
    for ref in refs:
        suite, name = ref.split("/")
        assert name in verify.CHECKS, ref
        assert verify.CHECKS[name][0] == suite, ref
