"""Independent output checker.

Classifies every request outcome and checks its output without importing the
package's numerics (only its error types): the pt partner potentials
V-+ = W^2 -+ W' with W = A cot x + B csc x and the pt eigenfunctions through
scipy's Jacobi polynomials are computed here.  Tail families are compared
with the seed-commit reference in ``reference/tails.json`` within a numeric
tolerance, and so are the verify check statuses.

An operation is *broken* when an exception escapes main, when it exits 2 on
valid input, when it exits 0 with non-finite output, when its output
disagrees with the independent check, when its exit code differs from the
seed commit's, or when a verify check is FAIL where it was PASS or INFO at the
seed commit.  Every pt request has a closed form, so exits 0.  An exit 0 where
the seed commit exited 1, or finite output where it printed NaN/inf, has no
reference to be checked against and so counts as broken; the one change of
exit code allowed is exit 1 with a TorusPTError message on a request whose
seed-commit output was NaN/inf, which rejects an input the program cannot
evaluate.  Exit 1 with a TorusPTError message is a completed request whose
verdict is a fail.  A broken request whose reference entry records the same
defect at the seed commit is marked ``known``: it still counts as failed,
and the run reports separately whether anything outside that set broke.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_jacobi
from toruspt import errors

from .workloads import REF_INTERVALS

POT_RTOL = 1e-9       # pointwise closed-form / reference agreement
SHAPE_RTOL = 1e-7     # eigenfunction shape, up to the normalization constant
NORM_TOL = 1e-9       # trapezoid norm of a normalized column
ORACLE_CHECKS = ("spectrum_pt_oracle", "spectrum_b_independence",
                 "casimir_spectrum_oracle")
_ERROR_LINE = re.compile(r"^error: ([A-Za-z]+): ", re.M)
_NON_FINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.I)
TORUSPT_ERRORS = frozenset(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.TorusPTError))


@dataclass
class Verdict:
    broken: bool = False
    reason: str = ""
    units: int = 1            # verdict units (a request, or each verify check)
    passes: int = 0           # units whose scientific verdict is a pass
    rel_errs: list = field(default_factory=list)  # oracle vs closed form
    known: bool = False       # broken the same way at the seed commit


def _broken(reason, units=1, known=False):
    return Verdict(broken=True, reason=reason, units=units, known=known)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def parse_table(text: str, fmt: str):
    """(header, float array rows x columns); ValueError if malformed."""
    if fmt == "json":
        obj = json.loads(text)
        rows = obj["rows"]
        header = list(rows[0].keys())
        data = np.array([[row[h] for h in header] for row in rows], dtype=float)
        return header, data, obj
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    flat = ",".join(lines[1:]).split(",")
    data = np.array(flat, dtype=float).reshape(len(lines) - 1, len(header))
    return header, data, None


def error_class_of(outcome) -> str:
    """The TorusPTError subclass named on the stderr error line, or ''."""
    found = _ERROR_LINE.search(outcome.stderr)
    return found.group(1) if found and found.group(1) in TORUSPT_ERRORS else ""


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def pt_potentials(A, B, x):
    s, c = np.sin(x), np.cos(x)
    w = (A * c + B) / s
    wp = -(A + B * c) / s ** 2
    return w * w - wp, w * w + wp


def pt_eigenfunctions(A, B, n, x):
    """(F_minus, F_minus' + W F_minus) for the pt family, unnormalized."""
    c, s = np.cos(x), np.sin(x)
    p, q = 0.5 * (-A - B), 0.5 * (-A + B)
    al, be = -A - B - 0.5, -A + B - 0.5
    weight = (1.0 - c) ** p * (1.0 + c) ** q
    poly = eval_jacobi(n, al, be, c)
    dpoly = 0.5 * (n + al + be + 1.0) * eval_jacobi(n - 1, al + 1.0, be + 1.0, c) \
        if n >= 1 else np.zeros_like(c)
    f = weight * poly
    df_dc = weight * (poly * (-p / (1.0 - c) + q / (1.0 + c)) + dpoly)
    w = (A * c + B) / s
    return f, -s * df_dc + w * f


def shape_error(got, want) -> float:
    """Relative misfit of got against the best multiple of want."""
    denom = float(want @ want)
    if denom == 0.0:
        return 0.0 if not np.any(got) else math.inf
    scale = float(got @ want) / denom
    ref = scale * want
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


def close(got, want, rtol=POT_RTOL) -> bool:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return bool(np.all(np.abs(got - want) <= rtol * (np.abs(want) + 1e-6 * scale)))


# --------------------------------------------------------------------------
# per-command checks
# --------------------------------------------------------------------------

def check_verify(outcome, seed_status: dict) -> Verdict:
    try:
        obj = json.loads(outcome.stdout)
        checks = obj["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return _broken(f"verify output unparseable: {exc}")
    units = len(checks)
    names = [c["name"] for c in checks]
    if sorted(names) != sorted(seed_status):
        return _broken("verify check list differs from the seed commit's", units)
    statuses = [c["status"] for c in checks]
    if any(s not in ("PASS", "FAIL", "INFO") for s in statuses):
        return _broken("unknown verify status", units)
    for c in checks:
        if c["measured"] is not None and not math.isfinite(c["measured"]):
            return _broken(f"non-finite measured value in {c['name']}", units)
    n_fail = statuses.count("FAIL")
    if (outcome.code == 0) != (n_fail == 0) or obj["pass"] != (n_fail == 0):
        return _broken("verify exit status disagrees with its check list", units)
    flipped = [c["name"] for c in checks
               if c["status"] == "FAIL" and seed_status[c["name"]] != "FAIL"]
    if flipped:
        return _broken(f"verify checks FAIL that passed at the seed commit: {flipped}",
                       units)
    rel = [c["measured"] for c in checks if c["name"] in ORACLE_CHECKS]
    return Verdict(units=units, passes=units - n_fail, rel_errs=rel)


def check_errata(outcome, expected_keys) -> Verdict:
    if outcome.code != 0:
        return _broken(f"errata exited {outcome.code}")
    text = outcome.stdout
    missing = [k for k in expected_keys if f"[{k}]" not in text]
    if missing:
        return _broken(f"errata entries missing: {missing}")
    for line in text.splitlines():
        if line.strip().startswith("evidence:") and re.search(r"\b(nan|inf)\b", line):
            return _broken(f"non-finite errata evidence: {line.strip()}")
    return Verdict(passes=1)


def _expected_header(meta):
    if meta["command"] == "potential":
        return ["x", "V_minus", "V_plus"] + (["V_casimir"] if meta["case"] == "iso21" else [])
    if meta["case"] == "component2":
        return ["x", "psi2"]
    return ["x", "F_minus", "psi1"] + (["F_plus"] if meta.get("with_plus") else [])


def _check_pt(meta, header, data) -> str:
    A, B = meta["params"]["A"], meta["params"]["B"]
    x = data[:, 0]
    if meta["command"] == "potential":
        vm, vp = pt_potentials(A, B, x)
        if not (close(data[:, 1], vm) and close(data[:, 2], vp)):
            return "pt partner potentials differ from the closed form"
        return ""
    f, lowered = pt_eigenfunctions(A, B, meta["level"], x)
    want = {"F_minus": f, "psi1": np.exp(-1.0 / (2.0 * (1.0 + np.cos(x)))) * f,
            "F_plus": lowered}
    for j, name in enumerate(header[1:], 1):
        if shape_error(data[:, j], want[name]) > SHAPE_RTOL:
            return f"pt {name} differs from the closed form"
    return ""


def _check_reference(meta, header, data, entry, obj, stderr) -> str:
    n = data.shape[0]
    idx = [j * (n - 1) // REF_INTERVALS for j in range(REF_INTERVALS + 1)]
    wavefunction = meta["command"] == "wavefunction"
    for j, name in enumerate(header[1:], 1):
        ref = np.asarray(entry["nodes"][name], dtype=float)
        got = data[idx, j]
        if wavefunction:
            if shape_error(got, ref) > SHAPE_RTOL:
                return f"{name} differs from the seed-commit reference"
        elif not close(got, ref):
            return f"{name} differs from the seed-commit reference"
    if "normalizable" in entry:
        flag = obj.get("normalizable") if obj is not None else \
            ("normalizable = True" in stderr)
        if flag != entry["normalizable"]:
            return "normalizability probe differs from the seed-commit reference"
    return ""


def check_table(outcome, meta, reference) -> Verdict:
    entry = reference["entries"].get(meta["ref_key"]) if "ref_key" in meta else None
    if "ref_key" in meta and entry is None:
        return _broken("no seed-commit reference for this request")
    # the seed commit printed NaN/inf here with exit 0
    known = entry is not None and "defect" in entry
    if outcome.code == 1:
        if not error_class_of(outcome):
            return _broken("exit 1 without a TorusPTError message")
        if entry is None or (entry["code"] == 0 and not known):
            return _broken("exit 1 where the seed commit exited 0")
        return Verdict()
    if outcome.code != 0:
        return _broken(f"exit {outcome.code}")
    if entry is not None and entry["code"] != 0:
        return _broken("exit 0 where the seed commit exited 1: no reference for the output")
    try:
        header, data, obj = parse_table(outcome.stdout, meta["format"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        known &= bool(_NON_FINITE_TOKEN.search(outcome.stdout))
        return _broken(f"output unparseable (non-finite token?): {exc}", known=known)
    if header != _expected_header(meta):
        return _broken(f"unexpected columns {header}")
    if data.shape[0] != meta["n_points"]:
        return _broken("wrong number of rows")
    if not np.all(np.isfinite(data)):
        return _broken("non-finite values with exit 0", known=known)
    xs = np.linspace(meta["x_lo"], meta["x_hi"], meta["n_points"])
    if not close(data[:, 0], xs, 1e-12):
        return _broken("x column is not the requested grid")
    if meta["command"] == "wavefunction":
        for j in range(1, data.shape[1]):
            norm = float(np.trapezoid(data[:, j] ** 2, data[:, 0]))
            if abs(norm - 1.0) > NORM_TOL:
                return _broken(f"{header[j]} is not unit-normalized ({norm})")
    if entry is None:
        reason = _check_pt(meta, header, data)
    elif known:
        reason = "finite output where the seed commit printed NaN/inf: no reference for it"
    else:
        reason = _check_reference(meta, header, data, entry, obj, outcome.stderr)
    if reason:
        return _broken(reason)
    return Verdict(passes=1)


def check(request, outcome, reference) -> Verdict:
    """Classify one request outcome (see the module docstring)."""
    meta = request["meta"]
    if outcome.code is None:
        return _broken(f"exception escaped main: {outcome.exception}")
    if outcome.code == 2:
        return _broken(f"exit 2 on valid input: {outcome.stderr.strip()[:200]}")
    command = meta["command"]
    if command == "verify":
        return check_verify(outcome, reference["verify_status"])
    if command == "errata":
        return check_errata(outcome, reference.get("errata_keys", ()))
    return check_table(outcome, meta, reference)
