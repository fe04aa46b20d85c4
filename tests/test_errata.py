"""Errata entries that restate a verify check show that check's own numbers."""

from toruspt import errata, verify


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



def test_every_check_ref_names_a_verify_check():
    # a check_refs entry is "suite/name" of a registered check
    refs = [ref for e in errata.ENTRIES for ref in e.check_refs]
    assert refs
    for ref in refs:
        suite, name = ref.split("/")
        assert name in verify.CHECKS, ref
        assert verify.CHECKS[name][0] == suite, ref
