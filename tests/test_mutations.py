"""Each check of verify's special suite, and each check that reads the
collocation oracle, reads FAIL under one named defect.

A defect is a one-token edit of the source of the function a check exercises
(a mutant).  The mutant is compiled in that function's module and put in
place of every binding of it that verify reads.  A check that passes under
every plausible defect of its code would show nothing.
"""

import inspect
import textwrap

import pytest

from toruspt import oracle, special, verify

# (check, function, defect, text, mutated text)
_MUTANTS = [
    ("jacobi_recurrence", special._jacobi_recurrence,
     "c4 takes alpha for beta", "(k + b - 1.0)", "(k + a - 1.0)"),
    ("beta_quadrature", special._incbeta_series_terms,
     "(1 - w)_k taken as (1 + w)_k", "(k - w)", "(k + w)"),
    ("beta_monotone", special.incomplete_beta,
     "the integral from z0 subtracted", "floor + _incbeta_upper", "floor - _incbeta_upper"),
    ("appell_brute", special.appell_f1,
     "(a)_k one step ahead of (c)_k", "(a + k - 1.0)", "(a + k)"),
    ("appell_reduce_y0", special.appell_f1,
     "b1 and b2 exchanged in b1 x + b2 y", "b1 * x + b2 * y", "b2 * x + b1 * y"),
    ("appell_reduce_xy", special.appell_f1,
     "b1 - b2 in place of b1 + b2", "(k - 2.0 + b1 + b2)", "(k - 2.0 + b1 - b2)"),
    ("appell_symmetry", special.appell_f1,
     "b1 y in place of b2 y", "b1 * x + b2 * y", "b1 * x + b1 * y"),
    ("derivative_h2", special.numeric_derivative,
     "one-sided difference", "(f(x + h) - f(x - h)) / (2.0 * h)", "(f(x + h) - f(x)) / h"),
]

# the checks that read the collocation oracle share one defect of its
# Frobenius-factored operator
_ORACLE_CHECKS = ("spectrum_pt_oracle", "isospectral_pt", "spectrum_b_independence",
                  "casimir_spectrum_oracle", "ladder_partner_cosine",
                  "ladder_partner_cosine_ground")
_MUTANTS += [(check, oracle._collocate, "wall term p(p - 1) taken as p(p + 1)",
              "p * (p - 1.0)", "p * (p + 1.0)") for check in _ORACLE_CHECKS]


def _mutant(fn, text, mutated):
    """fn compiled from its source with the one occurrence of text mutated."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(text) == 1, (fn.__name__, text)
    space = {}
    exec(compile(src.replace(text, mutated), f"<mutant of {fn.__name__}>", "exec"),
         fn.__globals__, space)
    return space[fn.__name__]


def test_every_special_check_has_a_defect():
    # and so has every check that reads the collocation oracle
    special_checks = [name for name, (suite, _) in verify.CHECKS.items()
                      if suite == "special"]
    assert set(_ORACLE_CHECKS) <= set(verify.CHECKS)
    assert [row[0] for row in _MUTANTS] == special_checks + list(_ORACLE_CHECKS)


@pytest.mark.parametrize("check, fn, defect, text, mutated", _MUTANTS,
                         ids=[row[0] for row in _MUTANTS])
def test_check_fails_under_its_defect(monkeypatch, check, fn, defect, text, mutated):
    run = verify.CHECKS[check][1]
    assert run(verify.Context()).status == "PASS"
    mutant = _mutant(fn, text, mutated)
    bound = [m for m in (special, oracle, verify)
             if getattr(m, fn.__name__, None) is fn]
    assert bound
    for module in bound:
        monkeypatch.setattr(module, fn.__name__, mutant)
    assert run(verify.Context()).status == "FAIL", defect
