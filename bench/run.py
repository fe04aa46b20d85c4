"""toruspt benchmark: one seeded workload, end-to-end or traced.

    python3 bench/run.py --workload certify|sample \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A single client sends the seeded
request list through ``toruspt.cli.main(argv)`` in this process, in a closed
loop (the next request starts when the previous one has returned and been
checked), in as many whole passes as fit in S seconds and at least two.
Every output is checked by ``bench/checker.py``; an output identical to one
already checked for the same request keeps that verdict.  Between requests
the benchmark times the workload's calibration task (``bench/calibration.py``),
and the timing metrics are given in calibration units, which cancels the slow
phases of a shared host; the raw wall times are in the summary line.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass and
one traced pass and prints the per-layer metrics.  The last stdout line is
the result object; the line before it is a summary with the provenance, the
request-list hash and every issue-level figure.  The full result, with the
request list and (traced runs) the spans, is written to .bench_build/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# One single-client run uses one BLAS/OpenMP thread (at most nproc), which keeps
# runs on a shared machine steady; set before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the thread pinning above

SETUP_REPEATS = 2     # at the start of the run and again at its end
MIN_PASSES = 2
RUN_BUDGET_S = 150.0   # never start a pass that would end past this
SETUP_CODE = "import toruspt.cli as c; c.build_parser()"
OUT_DIR = os.path.join(ROOT, ".bench_build")


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _check_checkout():
    for rel in ("src/toruspt/cli.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            _fail(f"{rel} not found: run from the root of a toruspt source checkout")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def build():
    """Byte-compile the package from source, as a first CLI call would."""
    res = subprocess.run([sys.executable, "-m", "compileall", "-q",
                          os.path.join(ROOT, "src")], env=_env(),
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        _fail(f"build failed: {res.stdout}{res.stderr}")


def measure_setup():
    """Wall times of fresh interpreters importing toruspt.cli and building the
    parser: the start-up cost every CLI call pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                             capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            _fail(f"setup probe failed: {res.stderr}")
    return times


def _git(*args):
    # the ceiling keeps git from reporting a repository that encloses a
    # checkout which is not itself a git repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance():
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpu_model": cpu,
        "git_sha": sha or "unavailable (not a git checkout)",
        "git_dirty": None if dirty is None else bool(dirty),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Tally:
    """Outcomes of the checked requests of one run."""

    def __init__(self):
        self.attempted = self.failed = self.known_failed = 0
        self.units = self.passes = 0
        self.rel_errs = []
        self.timings: dict[int, list] = {}   # request index -> (start, seconds) per pass
        self.pass_walls = []
        self.output_bytes = 0
        self.broken = []
        self.log = []    # (class, n_points, exit code, start, seconds) per request
        self.checked = {}   # request index -> (output digest, verdict)

    def add(self, index, request, start, outcome, verdict):
        self.attempted += 1
        self.timings.setdefault(index, []).append((start, outcome.seconds))
        self.log.append((request["cls"], request["meta"].get("n_points"),
                         outcome.code, start, outcome.seconds))
        self.output_bytes += len(outcome.stdout)
        self.units += verdict.units
        self.passes += verdict.passes
        self.rel_errs += verdict.rel_errs
        if verdict.broken:
            self.failed += 1
            self.known_failed += verdict.known
            self.broken.append({"argv": request["argv"], "reason": verdict.reason,
                                "known": verdict.known})


def _digest(out) -> bytes:
    h = hashlib.sha256(f"{out.code}\0{out.exception}\0".encode())
    h.update(out.stdout.encode())
    h.update(b"\0")
    h.update(out.stderr.encode())
    return h.digest()


def run_pass(reqs, reference, tally, calibration=None, tracer=None):
    from bench.checker import check
    from bench.client import invoke

    wall = 0.0
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        out = invoke(req["argv"])
        wall += out.seconds
        # an output identical to one already checked for this request gets
        # the same verdict
        digest = _digest(out)
        if tally.checked.get(i, (None,))[0] != digest:
            tally.checked[i] = (digest, check(req, out, reference))
        tally.add(i, req, start, out, tally.checked[i][1])
        if calibration is not None:
            calibration.after_request(out.seconds)
    tally.pass_walls.append(wall)
    return wall


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_checkout()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    build()
    setup_samples = measure_setup()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    import resource

    from bench import tracing, workloads
    from bench.calibration import MIN_SAMPLES, Calibration
    from bench.client import invoke

    reference = workloads.load_reference()
    warmup, reqs = workloads.generate(args.workload, args.seed, reference)
    invoke(warmup["argv"])
    # Leave everything that exists after the warm-up (modules, reference data)
    # out of later collections, so the client's collection before each
    # request costs little.
    gc.collect()
    gc.freeze()

    tally = Tally()
    calibration = Calibration(args.workload)
    calibration.sample(MIN_SAMPLES)
    started = time.perf_counter()
    spans_out = None
    if args.trace == 0:
        # as many whole passes as fit in the measuring time, and at least two
        first = run_pass(reqs, reference, tally, calibration)
        passes = max(MIN_PASSES, int(args.seconds // first))
        while len(tally.pass_walls) < passes and \
                time.perf_counter() - started + 1.5 * first < RUN_BUDGET_S:
            run_pass(reqs, reference, tally, calibration)
    else:
        untraced = run_pass(reqs, reference, tally)
        tracer = tracing.Tracer()
        with tracer:
            traced = run_pass(reqs, reference, tally, tracer=tracer)
        layer = tracing.layer_metrics(tracer)
        layer["cli.output_bytes"] = tally.output_bytes / 2
        layer["oracle.max_rel_err"] = max(tally.rel_errs, default=0.0)
        layer["trace.wall_s"] = traced
        layer["trace.untraced_wall_s"] = untraced
        layer["trace.overhead_ratio"] = traced / untraced
        layer["trace.accounted_share"] = sum(
            layer[f"{name}.self_s"] for name in tracing.LAYERS) / traced
        spans_out = [s.__dict__ for s in tracer.spans]
    setup_samples += measure_setup()

    # Each request's latency is its best over the run's passes: other tenants of
    # a shared host only ever add time, so the best of two filters a burst that
    # hits one pass, and the calibration cancels the longer slow phases.
    raw_best = [min(s for _, s in t) for t in tally.timings.values()]
    cal_best = [min(calibration.units(start, s) for start, s in t)
                for t in tally.timings.values()]
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "wall_cal": sum(cal_best),
        "request_p50_cal": percentile(cal_best, 50),
        "request_p90_cal": percentile(cal_best, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdict_pass_ratio": tally.passes / tally.units,
    }
    raw = {
        "wall_s": sum(raw_best),
        "request_p50_ms": 1e3 * percentile(raw_best, 50),
        "request_p90_ms": 1e3 * percentile(raw_best, 90),
        "calibration_task_ms": 1e3 * statistics.median(calibration.seconds),
        "calibration_samples": len(calibration.seconds),
    }
    if args.trace == 0:
        wanted = spec["end_to_end"]
        values = e2e
    else:
        wanted = spec["per_layer"]
        values = layer
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "requests": len(reqs), "request_hash": workloads.request_hash(reqs),
        "passes": len(tally.pass_walls), "pass_walls_s": tally.pass_walls,
        "setup_samples_s": setup_samples,
        "fail_ratio": tally.failed / tally.attempted,
        "failed_known_defect": tally.known_failed,
        "failed_outside_seed_defects": tally.failed - tally.known_failed,
        "broken": tally.broken[:20],
        "oracle_max_rel_err": max(tally.rel_errs) if tally.rel_errs else None,
        **e2e, **raw,
        # on a list of a few requests the percentiles say little: each one
        "request_best_ms": {f"{i}:{req['cls']}": 1e3 * t
                            for i, (req, t) in enumerate(zip(reqs, raw_best))}
        if len(reqs) < 10 else None,
        "provenance": provenance(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"summary": summary, "metrics": metrics,
                   "request_list": [r["argv"] for r in reqs],
                   "request_log": tally.log,
                   "calibration_parts": calibration.part_names,
                   "calibration": [[t, s, *p] for t, s, p in zip(
                       calibration.starts, calibration.seconds, calibration.parts)],
                   "spans": spans_out}, handle)
    print(json.dumps(summary))
    # correct: nothing broke outside the defects recorded at the seed commit
    correct = tally.failed == tally.known_failed
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
