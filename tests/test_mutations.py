"""Each check of verify's special suite, each check that reads the
collocation oracle, and each PASS check of the algebra suite reads FAIL under
one named defect.

A defect is a one-token edit of the source of the function a check exercises
(a mutant).  The mutant is compiled in that function's module and put in
place of every binding of it that verify reads, a default argument included.
A check that passes under every plausible defect of its code would show
nothing.
"""

import inspect
import textwrap

import pytest

from toruspt import iso21, oracle, special, verify

# (check, function, defect, text, mutated text)
_MUTANTS = [
    ("jacobi_recurrence", special._jacobi_recurrence,
     "c4 takes alpha for beta", "(k + b - 1.0)", "(k + a - 1.0)"),
    ("beta_quadrature", special._incbeta_series,
     "(1 - w)_k taken as (1 + w)_k at the largest z", "(j - w) / j", "(j + w) / j"),
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

# the algebra suite's PASS checks; casimir_spectrum_oracle reads the oracle
# (above), and scaling_routes is INFO
_MUTANTS += [
    ("st_constraints", iso21.st_functions,
     "S taken as +cot x", "-np.cos(x) / sx", "np.cos(x) / sx"),
    ("constraint77_closure", iso21._riccati_fields,
     "R1's mu + 1/2 taken as mu - 1/2", "((p.mu + 0.5) * s", "((p.mu - 0.5) * s"),
    ("closure_riccati_pair", iso21._riccati_fields,
     "R2's U2' with the sign of R1's", "u2 * u2 + u2p", "u2 * u2 - u2p"),
    ("constraint77_negative", iso21.constraint_residual_77,
     "R1 - R2 taken as R1 - R1", "np.abs(r1 - r2)", "np.abs(r1 - r1)"),
    ("commutator_backbone", iso21.sector_operator,
     "the upper central weight 10% heavy",
     "sgn * (-0.5 / step), sgn * (0.5 / step)", "sgn * (-0.5 / step), sgn * (0.55 / step)"),
    ("commutator_h2_decay", iso21.sector_operator,
     "the lower central neighbour read on the diagonal", "lo * psi[:-2]", "lo * psi[1:-1]"),
    ("commutator_modified_defect", iso21.commutator_residual,
     "the 4 S U2 defect halved", "4.0 * s", "2.0 * s"),
    ("casimir_susy_constant", iso21.casimir_potential,
     "(mu + 1) cos x taken as (mu + 1/2) cos x",
     "(p.mu + 1.0) * np.cos(x)", "(p.mu + 0.5) * np.cos(x)"),
    ("eps_identity", iso21.susy_family,
     "A = -mu - 1/2 taken as -mu + 1/2", "A=-p.mu - 0.5", "A=-p.mu + 0.5"),
]


def _mutant(fn, text, mutated):
    """fn compiled from its source with the one occurrence of text mutated."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(text) == 1, (fn.__name__, text)
    space = {}
    # the globals of fn itself, not of a decorator's wrapper (np.errstate's)
    exec(compile(src.replace(text, mutated), f"<mutant of {fn.__name__}>", "exec"),
         inspect.unwrap(fn).__globals__, space)
    return space[fn.__name__]


def test_every_special_check_has_a_defect():
    # and so has every check that reads the collocation oracle, and every
    # other algebra check but the INFO one
    def suite_checks(name):
        return [check for check, (suite, _) in verify.CHECKS.items()
                if suite == name and check not in _ORACLE_CHECKS]

    assert set(_ORACLE_CHECKS) <= set(verify.CHECKS)
    assert verify.CHECKS["scaling_routes"][1](verify.Context()).status == "INFO"
    algebra = [check for check in suite_checks("algebra") if check != "scaling_routes"]
    assert [row[0] for row in _MUTANTS] == (suite_checks("special") + list(_ORACLE_CHECKS)
                                            + algebra)


@pytest.mark.parametrize("check, fn, defect, text, mutated", _MUTANTS,
                         ids=[row[0] for row in _MUTANTS])
def test_check_fails_under_its_defect(monkeypatch, check, fn, defect, text, mutated):
    run = verify.CHECKS[check][1]
    assert run(verify.Context()).status == "PASS"
    mutant = _mutant(fn, text, mutated)
    bound = [m for m in (special, oracle, iso21, verify)
             if getattr(m, fn.__name__, None) is fn]
    assert bound
    for module in bound:
        monkeypatch.setattr(module, fn.__name__, mutant)
    # a default bound when its function was defined
    if iso21.commutator_residual.__defaults__ == (fn,):
        monkeypatch.setattr(iso21.commutator_residual, "__defaults__", (mutant,))
    assert run(verify.Context()).status == "FAIL", defect
