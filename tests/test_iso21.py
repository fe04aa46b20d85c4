"""Modified iso(2,1) generators, closure constraints, Casimir reconciliation."""

import dataclasses
import math

import numpy as np
import pytest

from toruspt.errors import DomainError, GridTooCoarse, OutOfRange
from toruspt.geometry import TorusGeometry
from toruspt.iso21 import (
    AlgebraParams,
    algebra_spectrum,
    casimir_potential,
    closure_riccati_residuals,
    commutator_residual,
    constraint_residual_77,
    energy_scalings,
    sector_operator,
    st_functions,
    susy_family,
)
from toruspt.oracle import collocation_levels
from toruspt.susy import PureTrigPT, RationalSin, analytic_spectrum, \
    partner_potentials, rational_part_cancels, sin_tail

GRID = np.linspace(0.1, math.pi - 0.4, 2001)
CLOSED = AlgebraParams.from_closure(c=1.0, K1=0.6)


def test_st_values():
    s, t = st_functions(-2.5, math.pi / 2.0)
    assert s == pytest.approx(0.0, abs=1e-15)
    assert t == pytest.approx(-2.5)


def test_st_constraints_are_trig_identities():
    xs = np.linspace(0.05, math.pi - 0.05, 2001)
    s, t = st_functions(-2.5, xs)
    sp = 1.0 / np.sin(xs) ** 2            # analytic S'
    tp = 2.5 * np.cos(xs) / np.sin(xs) ** 2  # analytic T'
    assert np.max(np.abs(sp - s * s - 1.0)) < 1e-10
    assert np.max(np.abs(tp - s * t)) < 1e-10


def test_modification_values():
    # U1 = -K1 sin x / P and U2 = +K2 sin x / P: the sin tail at -K1 and +K2
    g = TorusGeometry(1.0, 1.0)
    assert sin_tail(-2.0, g, math.pi / 2.0)[0] == pytest.approx(-2.0)
    assert sin_tail(-2.0, g, 0.0)[0] == 0.0
    xs = np.linspace(0.3, 2.8, 101)
    u1 = sin_tail(-1.7, g, xs)[0]
    u2 = sin_tail(0.9, g, xs)[0]
    np.testing.assert_allclose(u2 / u1, -0.9 / 1.7, atol=1e-14)


def test_closure_parameter_relations():
    assert CLOSED.B1 == pytest.approx(-0.8)
    assert CLOSED.mu == pytest.approx(-0.2)
    assert CLOSED.K2 == pytest.approx(-2.6)
    assert CLOSED.mu1 == pytest.approx(0.8)


def test_constraint77_closure_residual():
    assert constraint_residual_77(CLOSED, GRID) < 1e-10
    r1, r2 = closure_riccati_residuals(CLOSED, GRID)
    assert max(r1, r2) < 1e-10


def test_constraint77_vanishes_without_modification():
    p = AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                      geom=TorusGeometry(1.0, 1.0))
    assert constraint_residual_77(p, GRID) == 0.0


@pytest.mark.parametrize("fieldname", ["K2", "mu", "B1", "K1"])
def test_constraint77_negative_controls(fieldname):
    bad = dataclasses.replace(CLOSED, **{fieldname: getattr(CLOSED, fieldname) + 0.1})
    assert constraint_residual_77(bad, GRID) > 1e-3


def test_casimir_point_value():
    p = AlgebraParams(B1=-2.5, mu=1.5, K1=0.0, K2=0.0,
                      geom=TorusGeometry(1.0, 1.0))
    assert casimir_potential(p, math.pi / 2.0) == pytest.approx(8.0, abs=1e-13)


def test_casimir_k1_zero_is_pure_pt():
    p = AlgebraParams(B1=-2.5, mu=1.5, K1=0.0, K2=0.0,
                      geom=TorusGeometry(1.0, 1.0))
    xs = np.linspace(0.2, math.pi - 0.2, 301)
    v = casimir_potential(p, xs)
    expect = (-0.25 + 2.0 * p.B1 * p.mu * np.cos(xs) / np.sin(xs) ** 2
              + (p.mu ** 2 + p.B1 ** 2 - 0.25) / np.sin(xs) ** 2)
    np.testing.assert_allclose(v, expect, atol=1e-12)


def test_casimir_minus_mapped_partner_is_constant():
    # map lambda = -K1, B = -B1, A = -mu - 1/2: difference is A^2 - 1/4
    xs = np.linspace(0.05, math.pi - 0.3, 2001)
    mapped = RationalSin(A=-CLOSED.mu - 0.5, B=-CLOSED.B1, lam=-CLOSED.K1,
                         geom=CLOSED.geom)
    diff = casimir_potential(CLOSED, xs) - partner_potentials(mapped, xs)[0]
    aa = (-CLOSED.mu - 0.5) ** 2
    assert np.std(diff) < 1e-10
    assert np.mean(diff) == pytest.approx(aa - 0.25, abs=1e-12)


def test_algebra_spectrum_matches_partner_tower():
    p = AlgebraParams(B1=-0.5, mu=1.5, K1=0.0, K2=0.0,
                      geom=TorusGeometry(1.0, 1.0))
    mapped = PureTrigPT(A=-p.mu - 0.5, B=-p.B1)
    for n in range(6):
        eps, e89 = algebra_spectrum(p, n)
        assert eps == analytic_spectrum(mapped, n)
        assert e89 == pytest.approx(math.sqrt(eps) / p.geom.a)
    assert algebra_spectrum(p, 0)[0] == 0.0
    # n (n - 2A) is -0.0 at n = 0 when mu < -1/2; eps(0) stays +0.0
    below = dataclasses.replace(p, mu=-3.0)
    assert math.copysign(1.0, algebra_spectrum(below, 0)[0]) == 1.0


def test_algebra_spectrum_has_the_partner_tower_rules():
    # one rule for a negative level and a negative eps: analytic_spectrum's
    # (once eps(1) = -1.0 and E = 0.0 here)
    neg = AlgebraParams.from_closure(c=1.0, K1=-2.0)
    assert (neg.B1, neg.mu) == (0.5, -1.5)
    assert algebra_spectrum(neg, 0) == (0.0, 0.0)
    with pytest.raises(OutOfRange, match=r"eps\(1\) < 0"):
        algebra_spectrum(neg, 1)
    with pytest.raises(DomainError, match="non-negative"):
        algebra_spectrum(CLOSED, -1)
    # off the closure relations with K1 != 0 the closure gate fails
    off = AlgebraParams(B1=-0.5, mu=1.5, K1=0.3, K2=-4.3,
                        geom=TorusGeometry(1.0, 2.0))
    with pytest.raises(DomainError, match="closure conditions"):
        algebra_spectrum(off, 0)
    for k1 in (0.6, 2.0, -0.5):
        p = AlgebraParams.from_closure(c=1.0, K1=k1)
        assert algebra_spectrum(p, 3)[0] == pytest.approx(3.0 * (3.0 + k1))


def test_free_c_root_off_closure_is_a_domain_error():
    # A = 1/2, B = 0, lambda = a passes the cancellation conditions for every
    # c, but off closure the Casimir potential is not the tower's: once
    # eps 0, 0, 2 against the oracle's 2, 6, 12
    root = AlgebraParams(B1=0.0, mu=-1.0, K1=-1.0, K2=-3.0, geom=TorusGeometry(1.0, 2.0))
    assert rational_part_cancels(susy_family(root))
    msg = ("the parameters fail the closure conditions; the closing set for "
           "K1 = -1.0 and c = 2.0 is mu = K1/(2c) - 1/2 = -0.75, "
           "B1 = -(c + K1)/(2c) = -0.25, a = c = 2.0, K2 = -K1 - 2c = -3.0")
    with pytest.raises(DomainError) as info:
        algebra_spectrum(root, 0)
    assert str(info.value) == msg
    # a closing set with another K2 does not close either
    closed = AlgebraParams.from_closure(c=2.0, K1=-1.0)
    with pytest.raises(DomainError, match="closure conditions"):
        algebra_spectrum(dataclasses.replace(closed, K2=-2.5), 0)
    # K1 = 0 has no gate: every B1, mu and c give the tower
    bare = dataclasses.replace(root, K1=0.0)
    assert algebra_spectrum(bare, 2)[0] == analytic_spectrum(susy_family(bare), 2)


def _eps2(eps):
    """eps(2), or OutOfRange where it is negative."""
    try:
        return eps(2)
    except OutOfRange:
        return OutOfRange


@pytest.mark.parametrize("c", [0.5, 1.354528566983464, 2.0, 1e-3, 1e6])
@pytest.mark.parametrize("k1", [0.3, -0.5, -2.0, 1e-8, 40.0])
def test_closing_sets_pass_the_closure_gate(c, k1):
    # from_closure's set, and the same set typed to 15 digits (-0.425 for
    # K1/(2c) - 1/2 = -0.42499999999999999), are the tower's as before the
    # closure gate; a set 1e-9 relative off in mu or B1 is a DomainError
    q = AlgebraParams.from_closure(c=c, K1=k1)
    typed = AlgebraParams(B1=float(f"{q.B1:.15g}"), mu=float(f"{q.mu:.15g}"), K1=k1,
                          K2=-k1 - 2.0 * c, geom=TorusGeometry(c, c))
    assert rational_part_cancels(susy_family(q))
    want = _eps2(lambda n: analytic_spectrum(susy_family(q), n))
    assert _eps2(lambda n: algebra_spectrum(q, n)[0]) == want
    assert _eps2(lambda n: algebra_spectrum(typed, n)[0]) == (
        want if want is OutOfRange else pytest.approx(want, rel=1e-12))
    for field in ("mu", "B1"):
        v = getattr(q, field)
        off = dataclasses.replace(q, **{field: v + 1e-9 * (1.0 + abs(v))})
        with pytest.raises(DomainError, match="closure conditions"):
            algebra_spectrum(off, 0)


def test_mu1_is_derived_from_mu():
    assert "mu1" not in {f.name for f in dataclasses.fields(AlgebraParams)}
    moved = dataclasses.replace(CLOSED, mu=CLOSED.mu + 0.1)
    assert moved.mu1 == moved.mu + 1.0


def test_algebra_spectrum_oracle():
    p = AlgebraParams(B1=-0.5, mu=1.5, K1=0.0, K2=0.0,
                      geom=TorusGeometry(1.0, 1.0))
    evals = collocation_levels(lambda x: casimir_potential(p, x), 4)
    shift = (p.mu + 0.5) ** 2 - 0.25
    for n in range(4):
        eps, _ = algebra_spectrum(p, n)
        got = evals[n] - shift
        assert got == pytest.approx(eps, rel=5e-3, abs=0.01)


def test_energy_scalings():
    s = energy_scalings(5.0, 2.0)
    assert s["E_eq37"] == pytest.approx(math.sqrt(5.0) / 4.0)
    assert s["E_eq89"] == pytest.approx(math.sqrt(5.0) / 2.0)
    # a * a, not a ** 2: a huge radius gives 0, not an OverflowError
    assert energy_scalings(5.0, 1e200)["E_eq37"] == 0.0
    # a tiny radius whose a * a underflows is a DomainError, not a division by 0
    with pytest.raises(DomainError, match="underflows"):
        energy_scalings(0.0, 1e-300)
    # its overflow twin: a * a is a double, sqrt(eps)/a^2 is not
    with pytest.raises(DomainError, match="overflows"):
        energy_scalings(5.0, 1e-160)
    assert energy_scalings(0.0, 1e-160) == {"E_eq37": 0.0, "E_eq89": 0.0}


# --- sector operators -----------------------------------------------------------

def _commutator_residual(p, n, lo=0.2, hi=math.pi - 0.2):
    xg = np.linspace(lo, hi, n)
    jp_m1 = sector_operator(p, p.mu - 1.0, "raise", xg)
    jm_mu = sector_operator(p, p.mu, "lower", xg)
    jm_p1 = sector_operator(p, p.mu + 1.0, "lower", xg)
    jp_mu = sector_operator(p, p.mu, "raise", xg)
    psi = np.sin(np.pi * (xg - lo) / (hi - lo)) ** 2 \
        * (0.7 + 0.3 * np.sin(3.0 * (xg - lo) + 1.0))
    lhs = jp_m1(jm_mu(psi)) - jm_p1(jp_mu(psi))
    return lhs, psi, xg


def test_commutator_closes_on_backbone():
    p = AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                      geom=TorusGeometry(1.0, 1.0))
    lhs, psi, _ = _commutator_residual(p, 2048)
    assert np.linalg.norm(lhs + 2.0 * p.mu * psi) / np.linalg.norm(psi) < 1e-4


def test_commutator_second_order_decay():
    p = AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                      geom=TorusGeometry(1.0, 1.0))
    rs = []
    for n in (1024, 2048):
        lhs, psi, _ = _commutator_residual(p, n)
        rs.append(np.linalg.norm(lhs + 2.0 * p.mu * psi) / np.linalg.norm(psi))
    assert 3.0 < rs[0] / rs[1] < 5.5


def test_commutator_modified_defect_is_4su2():
    # with the rational modification the commutator keeps a 4 S U2 term
    lhs, psi, xg = _commutator_residual(CLOSED, 2048)
    s, _ = st_functions(CLOSED.B1, xg)
    u2 = sin_tail(CLOSED.K2, CLOSED.geom, xg)[0]
    raw = np.linalg.norm(lhs + 2.0 * CLOSED.mu * psi) / np.linalg.norm(psi)
    clean = np.linalg.norm(lhs + 2.0 * CLOSED.mu * psi - 4.0 * s * u2 * psi) \
        / np.linalg.norm(psi)
    assert raw > 1.0
    assert clean < 1e-3


BACKBONE = AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                         geom=TorusGeometry(1.0, 1.0))


@pytest.mark.parametrize("p", [BACKBONE, CLOSED], ids=["backbone", "closed"])
def test_commutator_residual_is_the_assembled_pair(p):
    # (raw, after subtracting 4 S U2 psi), bit for bit the assembly above
    lhs, psi, xg = _commutator_residual(p, 2048)
    s, _ = st_functions(p.B1, xg)
    resid = lhs + 2.0 * p.mu * psi
    defect = 4.0 * s * sin_tail(p.K2, p.geom, xg)[0] * psi
    norm = np.linalg.norm(psi)
    want = (float(np.linalg.norm(resid) / norm),
            float(np.linalg.norm(resid - defect) / norm))
    assert commutator_residual(p, 2048) == want
    if p is BACKBONE:   # K2 = 0: no defect to remove
        assert want[0] == want[1]


def test_sector_operator_guards():
    xg = np.linspace(0.2, 2.0, 300)
    with pytest.raises(DomainError):
        sector_operator(CLOSED, CLOSED.mu + 5.0, "raise", xg)
    with pytest.raises(GridTooCoarse):
        sector_operator(CLOSED, CLOSED.mu, "raise", np.linspace(0.2, 2.0, 100))


def test_sector_bookkeeping_j3():
    # J3 is the scalar mu on a sector; [J3, J+-] = +-J+- is index bookkeeping:
    # raising from mu acts with label mu + 1/2 and lands on sector mu + 1
    xg = np.linspace(0.2, math.pi - 0.2, 300)
    eye = np.eye(xg.size)
    op_up = sector_operator(CLOSED, CLOSED.mu, "raise", xg)(eye)
    op_same = sector_operator(CLOSED, CLOSED.mu + 1.0, "lower", xg)(eye)
    # the two share the modification label mu + 1/2, hence the same
    # multiplication part (interior rows; boundary rows carry stencil terms)
    d_up = op_up.diagonal()[1:-1]
    d_same = op_same.diagonal()[1:-1]
    np.testing.assert_allclose(d_up - d_same, 0.0, atol=1e-14)


@pytest.mark.parametrize("direction", ["raise", "lower"])
def test_sector_operator_matches_dense_stencil(direction):
    # dense reference: central interior rows, one-sided second-order boundary rows
    xg = np.linspace(0.2, math.pi - 0.2, 300)
    n, step = xg.size, xg[1] - xg[0]
    d = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    d[idx, idx + 1] = 1.0 / (2.0 * step)
    d[idx, idx - 1] = -1.0 / (2.0 * step)
    d[0, 0:3] = np.array([-1.5, 2.0, -0.5]) / step
    d[n - 1, n - 3:n] = np.array([0.5, -2.0, 1.5]) / step
    sgn, label, lam = ((1.0, CLOSED.mu + 0.5, -CLOSED.K1)
                       if direction == "raise"
                       else (-1.0, CLOSED.mu - 0.5, CLOSED.K2))
    s, t = st_functions(CLOSED.B1, xg)
    u = sin_tail(lam, CLOSED.geom, xg)[0]
    dense = 1j * (sgn * d + np.diag(label * s - t + u))
    op = sector_operator(CLOSED, CLOSED.mu, direction, xg)(np.eye(n))
    assert np.count_nonzero(op) == 3 * n
    np.testing.assert_array_equal(op, dense)


def _csr_reference(p, mu_sector, direction, xg):
    # the operator as the scipy.sparse matrix it once was:
    # 1j (sgn D + diags(label S - T + U)), D in CSR
    from scipy import sparse

    n, step = xg.size, xg[1] - xg[0]
    sgn, label = (1.0, mu_sector + 0.5) if direction == "raise" \
        else (-1.0, mu_sector - 0.5)
    lam = -p.K1 if direction == "raise" else p.K2
    s, t = st_functions(p.B1, xg)
    idx = np.arange(1, n - 1)
    rows = np.concatenate([idx, idx, [0, 0, 0, n - 1, n - 1, n - 1]])
    cols = np.concatenate([idx + 1, idx - 1, [0, 1, 2, n - 3, n - 2, n - 1]])
    vals = np.concatenate([np.full(n - 2, 0.5), np.full(n - 2, -0.5),
                           [-1.5, 2.0, -0.5, 0.5, -2.0, 1.5]]) / step
    d = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    diag = label * s - t + sin_tail(lam, p.geom, xg)[0]
    return (1j * (sgn * d + sparse.diags(diag))).tocsr()


@pytest.mark.parametrize("direction", ["raise", "lower"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_sector_operator_equals_the_csr_matvec(direction, kind):
    # the apply sums each row in CSR's column order, so the commutator
    # values are those of the sparse-matrix form
    xg = np.linspace(0.2, math.pi - 0.2, 2048)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(xg.size)
    if kind == "complex":
        psi = psi + 1j * rng.standard_normal(xg.size)
    for p in (CLOSED, AlgebraParams(B1=-0.8, mu=0.3, K1=0.0, K2=0.0,
                                    geom=TorusGeometry(1.0, 1.0))):
        got = sector_operator(p, p.mu, direction, xg)(psi)
        want = _csr_reference(p, p.mu, direction, xg) @ psi
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.real, want.real)
        np.testing.assert_array_equal(got.imag, want.imag)
