"""Tests of the benchmark itself:  python -m pytest bench/tests -q"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from bench import calibration, checker, tracing, workloads
from bench.client import Outcome, invoke

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _span(name, start, end, parent, layer="special"):
    return tracing.Span(name, layer, start, end, parent, 0)


# -- self time ---------------------------------------------------------------

def test_self_time_nested_spans():
    spans = [_span("cli.main", 0.0, 10.0, -1, "cli"),
             _span("susy.partner_potentials", 1.0, 6.0, 0, "susy"),
             _span("special.appell_f1", 2.0, 3.0, 1),
             _span("special.appell_f1", 4.0, 5.5, 1),
             _span("oracle.lowest_eigenvalues", 7.0, 9.0, 0, "oracle")]
    np.testing.assert_allclose(tracing.self_times(spans), [3.0, 2.5, 1.0, 1.5, 2.0])


def test_self_time_recursive_spans():
    # jacobi_poly -> jacobi_poly -> jacobi_poly, each level doing its own work
    spans = [_span("special.jacobi_poly", 0.0, 6.0, -1),
             _span("special.jacobi_poly", 1.0, 5.0, 0),
             _span("special.jacobi_poly", 2.0, 3.0, 1)]
    selfs = tracing.self_times(spans)
    np.testing.assert_allclose(selfs, [2.0, 3.0, 1.0])
    assert selfs.sum() == pytest.approx(6.0)  # recursion is not double counted


def test_self_time_overlapping_children_are_merged():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 5.0, 0), _span("c", 3.0, 8.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


# -- calibration -------------------------------------------------------------

def test_calibration_rates_a_request_by_the_samples_near_it():
    cal = calibration.Calibration("sample")
    cal.starts = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    cal.seconds = [0.01, 0.01, 0.01, 0.02, 0.02, 0.02]
    assert cal.task_seconds(10.5, 0.2) == 0.02
    assert cal.units(0.5, 1.0) == pytest.approx(100.0)
    # no sample within the window: the nearest ones
    assert cal.task_seconds(6.0, 0.0) == 0.01


def test_calibration_task_time_keeps_its_share():
    cal = calibration.Calibration("sample")
    cal.after_request(0.2)
    cal.after_request(0.2)
    assert sum(cal.seconds) >= calibration.SHARE * 0.4
    assert sum(cal.seconds[:-1]) < calibration.SHARE * 0.4


# -- wrapping ----------------------------------------------------------------

def _bindings(tracer, fn):
    """Every (module, attribute) of the layer modules that binds fn."""
    return [(name, attr) for name, mod in tracer.modules.items()
            for attr, obj in vars(mod).items() if obj is fn]


def test_every_binding_is_wrapped_and_restored():
    tracer = tracing.Tracer()
    targets = tracer.traced_functions()
    special, susy, verify = (tracer.modules[n] for n in ("special", "susy", "verify"))
    appell = special.appell_f1
    assert appell in targets and targets[appell] == "special.appell_f1"
    originals = {fn: _bindings(tracer, fn) for fn in targets}
    assert ("susy", "appell_f1") in originals[appell]
    assert ("verify", "appell_f1") in originals[appell]
    registry = list(verify._REGISTRY)
    evidence = tracer.modules["errata"].ErrataEntry.evidence

    with tracer:
        for fn, binds in originals.items():
            for mod_name, attr in binds:
                wrapped = getattr(tracer.modules[mod_name], attr)
                assert wrapped is not fn and wrapped.__wrapped__ is fn, (mod_name, attr)
        assert susy.appell_f1 is verify.appell_f1 is special.appell_f1
        assert all(a[2] is not b[2] for a, b in zip(verify._REGISTRY, registry))
        assert tracer.modules["errata"].ErrataEntry.evidence is not evidence
        special.jacobi_poly(special.JacobiParams(3, -2.0, 0.5), np.linspace(-0.5, 0.5, 7))
        special.incomplete_beta(np.array([0.2, 0.4, 0.9]), 1.5, -1.5)

    for fn, binds in originals.items():
        for mod_name, attr in binds:
            assert getattr(tracer.modules[mod_name], attr) is fn, (mod_name, attr)
    assert verify._REGISTRY == registry
    assert all(verify.CHECKS[n][1] is fn for n, _, fn in registry)
    assert tracer.modules["errata"].ErrataEntry.evidence is evidence
    names = [s.name for s in tracer.spans]
    # alpha = -2 routes jacobi_poly through its own limit identity: a nested span
    assert names.count("special.jacobi_poly") == 2
    assert tracer.spans[1].parent == 0
    # w < 0 recurses once; the points are counted for the outer call only
    assert names.count("special.incomplete_beta") == 3
    assert tracer.counters["special.incomplete_beta.points"] == 3


def test_untraced_functions_are_plain_functions_after_a_traced_run():
    tracer = tracing.Tracer()
    with tracer:
        invoke(["potential", "--case", "pt", "--A", "-2", "--B", "0.5", "--n-points", "64"])
    assert tracer.spans and tracer.spans[0].name == "cli.main"
    for fn in tracer.traced_functions():
        assert isinstance(fn, types.FunctionType) and not hasattr(fn, "__wrapped__")


def test_layer_metrics_cover_benchmark_per_layer_list():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    tracer = tracing.Tracer()
    produced = set(tracing.layer_metrics(tracer))
    produced |= {"cli.output_bytes", "oracle.max_rel_err", "trace.wall_s",
                 "trace.untraced_wall_s", "trace.overhead_ratio", "trace.accounted_share"}
    assert {m["name"] for m in spec["per_layer"]} == produced


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, reference):
    a = workloads.generate(workload, 7, reference)[1]
    b = workloads.generate(workload, 7, reference)[1]
    assert workloads.request_hash(a) == workloads.request_hash(b)
    if workload != "certify":
        c = workloads.generate(workload, 8, reference)[1]
        assert workloads.request_hash(a) != workloads.request_hash(c)


def test_sample_mix(reference):
    reqs = workloads.sample(3, reference)[1]
    assert len(reqs) >= 100
    cases = {r["meta"]["case"] for r in reqs}
    assert cases == {"pt", "rational", "beta", "appell", "component2", "iso21"}
    appell = sum(r["cls"].startswith("appell") for r in reqs)
    assert 0.11 < appell / len(reqs) < 0.3  # p90 inside the Appell cluster
    # every catalogue entry is sent once, so the seed-commit verdicts of a list
    # do not depend on the seed
    keys = sorted(r["meta"]["ref_key"] for r in reqs
                  if r["meta"]["case"] != "pt" and r["cls"] != "appell_edge")
    assert keys == sorted(e["key"] for items in reference["catalogue"].values()
                          for e in items)


def test_sample_cost_mix_does_not_depend_on_the_seed(reference):
    def mix(seed):
        reqs = workloads.sample(seed, reference)[1]
        tails = {r["meta"]["ref_key"]: (r["meta"]["n_points"], r["meta"]["format"])
                 for r in reqs if r["meta"]["case"] != "pt" and r["cls"] != "appell_edge"}
        pt = sorted((r["cls"], r["meta"]["n_points"], r["meta"]["format"],
                     str(r["meta"].get("level")), r["meta"].get("with_plus", False))
                    for r in reqs if r["meta"]["case"] == "pt")
        return tails, pt

    assert mix(3) == mix(4)


# -- checker -----------------------------------------------------------------

def test_pt_eigenfunctions_match_the_program():
    from toruspt import susy
    x = np.linspace(0.1, 3.0, 301)
    f, lowered = checker.pt_eigenfunctions(-2.3, 0.4, 2, x)
    assert checker.shape_error(susy.eigenfunction_minus(-2.3, 0.4, 2, x), f) < 1e-10
    plus = susy.eigenfunction_plus(susy.PureTrigPT(-2.3, 0.4), 2, x)
    assert checker.shape_error(plus, lowered) < 1e-10


def _catalogue_request(reference, cls, fmt="csv", **params):
    entry = next(e for e in reference["catalogue"][cls]
                 if all(e["params"][k] == v for k, v in params.items()))
    return workloads.catalogue_request(entry, 501, fmt)


def test_checker_flags_a_verdict_that_turned_to_fail(reference):
    req = _catalogue_request(reference, "beta_potential")
    assert reference["entries"][req["meta"]["ref_key"]]["code"] == 0
    out = Outcome(1, "", "error: NonConvergence: series did not converge\n", 0.1)
    verdict = checker.check(req, out, reference)
    assert verdict.broken and "seed commit exited 0" in verdict.reason
    pt = workloads._request("pt_potential", "potential", "pt", {"A": -2.0, "B": 0.5},
                            n_points=501, fmt="csv")
    assert checker.check(pt, out, reference).broken


def test_checker_flags_an_exit_code_that_differs_from_the_seed(reference):
    entry = reference["catalogue"]["appell_potential"][0]
    edge = workloads.catalogue_request(entry, workloads.APPELL_EDGE_POINTS, "csv",
                                       cls="appell_edge", key_suffix=workloads.EDGE_SUFFIX)
    assert reference["entries"][edge["meta"]["ref_key"]]["code"] == 1
    error = Outcome(1, "", "error: NonConvergence: series did not converge\n", 0.1)
    assert not checker.check(edge, error, reference).broken
    x = np.linspace(edge["meta"]["x_lo"], edge["meta"]["x_hi"], edge["meta"]["n_points"])
    table = "x,V_minus,V_plus\n" + "".join(f"{v!r},1.0,2.0\n" for v in x.tolist())
    verdict = checker.check(edge, Outcome(0, table, "", 0.1), reference)
    assert verdict.broken and "seed commit exited 1" in verdict.reason
    # the seed printed NaN here: rejecting the input is accepted, finite output is not
    defect = _catalogue_request(reference, "rational_wavefunction", branch="+")
    rejected = Outcome(1, "", "error: DomainError: R < 0 on the grid\n", 0.1)
    assert not checker.check(defect, rejected, reference).broken
    header = checker._expected_header(defect["meta"])
    x = np.linspace(defect["meta"]["x_lo"], defect["meta"]["x_hi"], 501)
    psi = np.sin(x) / np.sqrt(np.trapezoid(np.sin(x) ** 2, x))
    rows = "".join(",".join([repr(v)] + [repr(p)] * (len(header) - 1)) + "\n"
                   for v, p in zip(x.tolist(), psi.tolist()))
    finite = Outcome(0, ",".join(header) + "\n" + rows, "", 0.1)
    verdict = checker.check(defect, finite, reference)
    assert verdict.broken and not verdict.known and "no reference" in verdict.reason


def test_checker_flags_a_verify_check_that_turned_to_fail(reference):
    status = reference["verify_status"]
    checks = [{"name": n, "status": s, "measured": None} for n, s in status.items()]
    req = workloads.certify(1)[1][0]

    def outcome(checks):
        ok = all(c["status"] != "FAIL" for c in checks)
        return Outcome(0 if ok else 1, json.dumps({"pass": ok, "checks": checks}),
                       "", 1.0)

    verdict = checker.check(req, outcome(checks), reference)
    assert not verdict.broken and verdict.passes == verdict.units == len(status)
    passed = next(n for n, s in status.items() if s == "PASS")
    flipped = [dict(c, status="FAIL") if c["name"] == passed else c for c in checks]
    verdict = checker.check(req, outcome(flipped), reference)
    assert verdict.broken and passed in verdict.reason


def test_checker_flags_non_finite_output():
    req = workloads._request("pt_potential", "potential", "pt", {"A": -2.0, "B": 0.5},
                             n_points=501, fmt="csv")
    out = invoke(req["argv"])
    assert not checker.check(req, out, {}).broken
    lines = out.stdout.split("\n")
    lines[5] = ",".join(lines[5].split(",")[:2] + ["nan"])
    out.stdout = "\n".join(lines)
    verdict = checker.check(req, out, {})
    assert verdict.broken and "non-finite" in verdict.reason


# -- smoke runs --------------------------------------------------------------

SMOKE = {
    "certify": lambda reqs: [r for r in reqs if r["cls"] == "errata"],
    "sample": lambda reqs: [r for r in reqs if not r["cls"].startswith("appell")
                            and r["meta"]["n_points"] <= 1001][:8],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_known_nan_defect_is_reported_as_broken(reference, fmt):
    """wavefunction --case rational --branch + prints inf/NaN with exit 0."""
    req = _catalogue_request(reference, "rational_wavefunction", fmt, branch="+")
    assert reference["entries"][req["meta"]["ref_key"]]["defect"]
    verdict = checker.check(req, invoke(req["argv"]), reference)
    assert verdict.broken and verdict.known and "non-finite" in verdict.reason


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, reference):
    warmup, reqs = workloads.generate(workload, 11, reference)
    for req in [warmup] + SMOKE[workload](reqs):
        verdict = checker.check(req, invoke(req["argv"]), reference)
        assert not verdict.broken or verdict.known, (req["argv"], verdict.reason)


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".bench_build", "bench-only-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "sample",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert res.returncode != 0
    assert res.stdout == ""
