"""Seeded request generators for the benchmark workloads.

Every request is a plain argv list for ``toruspt.cli.main`` plus a ``meta``
dict holding what the benchmark asked for, so the checker never has to trust
the program's echo of its own inputs.

Continuous parameters are drawn by Latin-hypercube stratification over each
family's documented domain: every seed covers the whole domain evenly, so the
share of requests that land in a known weak region (limit-circle endpoints,
large K1, formal regimes) is nearly the same for every seed.  Nothing is ever
filtered by outcome.  The tail-family requests send every entry of the fixed
catalogue in ``reference/tails.json``, each with a fixed grid size and output
format.  The seed draws the pt parameters, the edge probe's catalogue entry
and the order of the list; the pairing of requests with grid sizes, formats
and wavefunction levels is fixed, so neither the cost mix of a list nor its
seed-commit verdicts depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "tails.json")

DEFAULT_X_LO = 0.002
DEFAULT_X_HI = math.pi - 0.002
# The Appell series converges ever more slowly as x -> pi when c = a, so the
# sampled Appell requests stop at x = 2; one request per list probes the edge.
APPELL_X_HI = 2.0
APPELL_POINTS = 501
APPELL_EDGE_POINTS = 201
# (n_points - 1) is a multiple of REF_INTERVALS, so the reference nodes
# x_lo + j (x_hi - x_lo) / REF_INTERVALS are grid nodes of every request.
REF_INTERVALS = 10
EDGE_SUFFIX = "@edge"
SAMPLE_POINTS = (501, 1001, 2001, 5001, 10001, 20001)

WORKLOADS = ("certify", "sample")


def _fmt(v: float) -> str:
    return repr(float(v))


def lhs(rng, m: int, dims: int) -> np.ndarray:
    """m Latin-hypercube points in [0, 1)^dims: one per stratum per axis."""
    u = np.empty((m, dims))
    for d in range(dims):
        u[:, d] = (rng.permutation(m) + rng.random(m)) / m
    return u


def _span(u, lo, hi):
    return lo + (hi - lo) * u


# --------------------------------------------------------------------------
# parameter domains (README / susy / iso21 docstrings)
# --------------------------------------------------------------------------

def draw_pt(u):
    """pt bound-state regime A < -|B| (both edge exponents positive)."""
    b = _span(u[0], -1.5, 1.5)
    a_cap = -abs(b)
    return {"A": _span(u[1], -3.5, a_cap), "B": b}


def draw_equal_radii(u):
    """rational / component2 from the cancellation conditions (a, B, branch)."""
    b = _span(u[1], 0.05, 1.5) * (1.0 if u[2] < 0.5 else -1.0)
    return {"a": _span(u[0], 0.5, 2.0), "B": b,
            "branch": "+" if u[3] < 0.5 else "-"}


def draw_beta(u):
    """beta tail: 1/2 + A - B > 0, C1 > 0, regular profile c > a = 1."""
    b = _span(u[0], -1.0, 1.0)
    return {"A": _span(u[1], b - 0.45, 2.0), "B": b, "a": 1.0,
            "c": _span(u[2], 1.2, 3.0), "C1": _span(u[3], 0.5, 2.0)}


def draw_appell(u):
    """appell tail, usable branch '+': lambda > a, C1 < 0 keeps C1 - M away from 0."""
    a = _span(u[0], 0.5, 1.5)
    return {"a": a, "lambda": a * _span(u[1], 1.05, 3.0), "branch": "+",
            "C1": _span(u[2], -3.0, -0.25)}


def draw_iso21(u, k1_zero: bool):
    """iso21: K1 = 0 is the bare algebra; K1 != 0 uses the closure conditions."""
    if k1_zero:
        mu = _span(u[0], 0.0, 2.5)
        half = mu + 0.5
        return {"B1": _span(u[1], -half, half) * 0.999, "mu": mu, "K1": 0.0,
                "a": 1.0, "c": 1.0}
    c = _span(u[0], 0.5, 2.0)
    k1 = _span(u[1], 0.1, 1.5)
    return {"B1": -(c + k1) / (2.0 * c), "mu": k1 / (2.0 * c) - 0.5, "K1": k1,
            "a": c, "c": c}


def _flags(params: dict) -> list:
    argv = []
    for key, val in params.items():
        flag = "--lambda" if key == "lambda" else f"--{key}"
        argv += [flag, val if isinstance(val, str) else _fmt(val)]
    return argv


def _request(cls, command, case, params, *, n_points, fmt=None, x_lo=None,
             x_hi=None, extra=(), **meta):
    argv = [command, "--case", case] + _flags(params)
    if x_lo is not None:
        argv += ["--x-lo", _fmt(x_lo), "--x-hi", _fmt(x_hi)]
    argv += ["--n-points", str(n_points)]
    argv += list(extra)
    if fmt is not None:
        argv += ["--format", fmt]
    m = {"command": command, "case": case, "params": dict(params),
         "n_points": n_points, "format": fmt or "csv",
         "x_lo": DEFAULT_X_LO if x_lo is None else x_lo,
         "x_hi": DEFAULT_X_HI if x_hi is None else x_hi}
    m.update(meta)
    return {"cls": cls, "argv": argv, "meta": m}


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------

def certify(seed: int):
    """The paper-reproduction job.  The verify suite has fixed inputs, so the
    list is the same for every seed."""
    del seed
    reqs = [{"cls": "verify", "argv": ["verify", "--suite", "all", "--format", "json"],
             "meta": {"command": "verify"}},
            {"cls": "errata", "argv": ["errata"], "meta": {"command": "errata"}}]
    warmup = {"cls": "errata", "argv": ["errata"], "meta": {"command": "errata"}}
    return warmup, reqs


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------

# (class, count).  Each of the nine other classes sends every (grid size,
# format) pair once, and the two pt classes also send the PT_EXTRA_PAIRS: 116
# requests whose cost mix is the same for every seed.  The seven tail classes
# send each of their 12 catalogue entries once.  The 17 Appell requests (each
# catalogue entry once, plus the edge probe; about 13 %) are the slow cluster,
# so p90 falls inside it.  The others come in clusters of about nine requests
# of one (grid size, format) pair; the eight extra small pt requests put p50
# in the middle of the 5001-point CSV cluster rather than on its upper edge.
SAMPLE_FORMATS = ("csv", "json")
SIZE_FORMAT_PAIRS = [(n, f) for n in SAMPLE_POINTS for f in SAMPLE_FORMATS]
PT_EXTRA_PAIRS = [(n, f) for n in SAMPLE_POINTS[:2] for f in SAMPLE_FORMATS]
SAMPLE_CLASSES = (
    ("appell_potential", 16),
    ("appell_edge", 1),
    ("pt_potential", 16),
    ("pt_wavefunction", 16),
    ("rational_potential", 12),
    ("rational_wavefunction", 12),
    ("component2_potential", 12),
    ("component2_wavefunction", 12),
    ("beta_potential", 12),
    ("beta_wavefunction", 12),
    ("iso21_potential", 12),
)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def catalogue_request(entry, n_points, fmt, x_lo=None, x_hi=None, cls=None,
                       key_suffix=""):
    extra = []
    if entry["command"] == "wavefunction":
        extra = ["--n", str(entry["level"])]
        if entry.get("with_plus"):
            extra.append("--with-plus")
    return _request(cls or entry["cls"], entry["command"], entry["case"],
                    entry["params"], n_points=n_points, fmt=fmt, x_lo=x_lo,
                    x_hi=x_hi, extra=extra, ref_key=entry["key"] + key_suffix,
                    level=entry.get("level"), with_plus=entry.get("with_plus", False))


def _pt_sample_request(cls, u, i, n_points, fmt):
    """The i-th pt request of its class; the level and --with-plus follow i."""
    params = draw_pt(u)
    if cls == "pt_potential":
        return _request(cls, "potential", "pt", params, n_points=n_points, fmt=fmt)
    level = i % 5
    with_plus = level >= 1 and (i // 2) % 2 == 1
    extra = ["--n", str(level)] + (["--with-plus"] if with_plus else [])
    return _request(cls, "wavefunction", "pt", params, n_points=n_points, fmt=fmt,
                    extra=extra, level=level, with_plus=with_plus)


def sample(seed: int, reference: dict | None = None):
    reference = reference or load_reference()
    catalogue = reference["catalogue"]
    rng = np.random.default_rng([seed, 2])
    reqs = []
    for cls, m in SAMPLE_CLASSES:
        if cls.startswith("pt_"):
            u = lhs(rng, m, 2)
            reqs += [_pt_sample_request(cls, u[i], i, n, f)
                     for i, (n, f) in enumerate(SIZE_FORMAT_PAIRS + PT_EXTRA_PAIRS)]
            continue
        entries = catalogue["appell_potential" if cls == "appell_edge" else cls]
        if cls == "appell_edge":
            pick = entries[int(rng.integers(len(entries)))]
            reqs.append(catalogue_request(pick, APPELL_EDGE_POINTS, "csv",
                                           cls="appell_edge", key_suffix=EDGE_SUFFIX))
        elif cls == "appell_potential":
            reqs += [catalogue_request(e, APPELL_POINTS, SAMPLE_FORMATS[i % 2],
                                       DEFAULT_X_LO, APPELL_X_HI)
                     for i, e in enumerate(entries)]
        else:
            reqs += [catalogue_request(e, n, f)
                     for e, (n, f) in zip(entries, SIZE_FORMAT_PAIRS, strict=True)]
    order = rng.permutation(len(reqs))
    reqs = [reqs[i] for i in order]
    warmup = _pt_sample_request("pt_potential", rng.random(2), 0, 501, "csv")
    return warmup, reqs


def generate(workload: str, seed: int, reference: dict | None = None):
    """(warm-up request, request list) for a workload and seed."""
    seed %= 2 ** 63  # numpy seed sequences take non-negative integers only
    if workload == "certify":
        return certify(seed)
    if workload == "sample":
        return sample(seed, reference)
    raise ValueError(f"unknown workload {workload!r}")


def request_hash(reqs) -> str:
    blob = json.dumps([r["argv"] for r in reqs], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
