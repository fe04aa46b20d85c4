"""verify and errata compute each shared quantity once, by one call; the
cosine deficit the eigenfunction checks read."""

import collections
import math

import numpy as np
import pytest

from toruspt import errata, iso21, susy, verify


def _count_calls(monkeypatch, targets, run):
    counts = collections.Counter()
    for module, name in targets:
        fn = getattr(module, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    run()
    return counts


def test_run_suite_all_shares_ladder_images_and_backbone_residuals(monkeypatch):
    # ladder_apply: the ground state, F_1..F_3 once (ctx.ladder_images) and
    # the two partner_closed_form levels; commutator_residual: the backbone
    # at N = 1024 and 2048 (ctx.backbone_residuals) and one closure call
    counts = _count_calls(monkeypatch, [(susy, "ladder_apply"),
                                        (susy, "eigenfunction_minus"),
                                        (iso21, "commutator_residual")],
                          lambda: verify.run_suite("all"))
    assert counts == {"ladder_apply": 6, "eigenfunction_minus": 17,
                      "commutator_residual": 3}


def test_errata_takes_both_defect_residuals_from_one_call(monkeypatch):
    # eq75's raw and after-defect residuals come from one call
    entry = next(e for e in errata.ENTRIES if e.key == "eq75_modified")
    counts = _count_calls(monkeypatch, [(iso21, "commutator_residual")],
                          entry.evidence)
    assert counts == {"commutator_residual": 1}


def test_errata_renders_the_shared_eq67_eq68_evidence_once(monkeypatch):
    # eq67 and eq68 print one evidence function's values: one evaluation per
    # render, one lambda_bracket call for each of the printed and corrected
    # (B, c)
    counts = _count_calls(monkeypatch, [(susy, "lambda_bracket")],
                          errata.render_text)
    assert counts == {"lambda_bracket": 2}


@pytest.mark.parametrize("names", [
    ("ladder_partner_cosine", "ladder_partner_cosine_ground", "ladder_norm_ratio"),
    ("commutator_backbone", "commutator_h2_decay"),
])
def test_a_shared_artifact_gives_each_check_its_own_value(names):
    # one Context shared by the checks measures what a fresh one per check does
    ctx = verify.Context()
    shared = [verify.CHECKS[n][1](ctx) for n in names]
    alone = [verify.CHECKS[n][1](verify.Context()) for n in names]
    assert [(r.measured, r.detail) for r in shared] \
        == [(r.measured, r.detail) for r in alone]


def test_cosine_deficit_is_never_negative_and_resolves_a_small_tilt():
    u = np.sin(np.linspace(0.1, 3.0, 1001)) * np.linspace(1.0, 2.0, 1001)
    for v in (u, -u, 3.0 * u):
        assert 0.0 <= verify._cosine_deficit(u, v) < 1e-30
    # a tilt of t = 1e-6: 1 - cos t = 2 sin^2(t/2), which 1 - cos rounds to
    # 5.0004e-13
    t = 1e-6
    tilted = np.array([math.cos(t), math.sin(t)])
    got = verify._cosine_deficit(np.array([1.0, 0.0]), tilted)
    assert got == pytest.approx(2.0 * math.sin(0.5 * t) ** 2, rel=1e-9)
