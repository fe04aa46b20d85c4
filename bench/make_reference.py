"""Build ``reference/tails.json``: the tail-family catalogue and its outputs.

The catalogue holds a fixed number of parameter sets per tail-family class
(``workloads.SAMPLE_CLASSES``), drawn once by Latin-hypercube stratification
over each family's documented domain.  For each set it records what the
program printed at the commit this script runs on: the exit code, the error
class, and every output column at the REF_INTERVALS + 1 reference nodes of
the 501-point grid, or, where that output held NaN/inf with exit 0, the
known defect instead.  It also records the status of every verify check.
The sample workload sends every catalogue entry, and the checker compares
the outputs with these values within a numeric tolerance.

Run from the repository root:  PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import checker, workloads  # noqa: E402
from bench.client import invoke  # noqa: E402

DESIGN_SEED = 1707_06136
PER_CLASS = dict(workloads.SAMPLE_CLASSES)
NON_FINITE = "non-finite output with exit 0"

CATALOGUE_CLASSES = (
    ("appell_potential", "potential", "appell", workloads.draw_appell),
    ("rational_potential", "potential", "rational", workloads.draw_equal_radii),
    ("rational_wavefunction", "wavefunction", "rational", workloads.draw_equal_radii),
    ("component2_potential", "potential", "component2", workloads.draw_equal_radii),
    ("component2_wavefunction", "wavefunction", "component2",
     workloads.draw_equal_radii),
    ("beta_potential", "potential", "beta", workloads.draw_beta),
    ("beta_wavefunction", "wavefunction", "beta", workloads.draw_beta),
    ("iso21_potential", "potential", "iso21", None),
)


def build_catalogue():
    rng = np.random.default_rng(DESIGN_SEED)
    catalogue = {}
    for cls, command, case, draw in CATALOGUE_CLASSES:
        u = workloads.lhs(rng, PER_CLASS[cls], 5)
        entries = []
        for i in range(PER_CLASS[cls]):
            if case == "iso21":
                # half the entries are the bare algebra, half carry K1 != 0
                params = workloads.draw_iso21(u[i], k1_zero=u[i, 4] < 0.5)
            else:
                params = draw(u[i])
            entry = {"key": f"{cls}/{i:02d}", "cls": cls, "command": command,
                     "case": case, "params": params}
            if command == "wavefunction":
                entry["level"] = int(u[i, 4] * 4)
                if case == "rational":
                    entry["with_plus"] = bool(entry["level"] >= 1 and u[i, 3] < 0.5)
            entries.append(entry)
        catalogue[cls] = entries
    return catalogue


def record(request) -> dict:
    meta = request["meta"]
    out = invoke(request["argv"])
    rec = {"argv": request["argv"], "code": out.code}
    if out.code != 0:
        rec["error_class"] = checker.error_class_of(out)
        return rec
    header, data, obj = checker.parse_table(out.stdout, meta["format"])
    if not np.all(np.isfinite(data)):
        rec["defect"] = NON_FINITE
        return rec
    n = data.shape[0]
    idx = [j * (n - 1) // workloads.REF_INTERVALS
           for j in range(workloads.REF_INTERVALS + 1)]
    rec["nodes"] = {h: [float(v) for v in data[idx, j]]
                    for j, h in enumerate(header) if j > 0}
    if meta["case"] == "component2" and meta["command"] == "wavefunction":
        rec["normalizable"] = "normalizable = True" in out.stderr
    return rec


def _git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def verify_statuses() -> dict:
    out = invoke(["verify", "--suite", "all", "--format", "json"])
    return {c["name"]: c["status"] for c in json.loads(out.stdout)["checks"]}


def main():
    from toruspt import errata

    catalogue = build_catalogue()
    entries = {}
    for cls, items in catalogue.items():
        for entry in items:
            if cls == "appell_potential":
                req = workloads.catalogue_request(
                    entry, workloads.APPELL_POINTS, "csv",
                    workloads.DEFAULT_X_LO, workloads.APPELL_X_HI)
                edge = workloads.catalogue_request(
                    entry, workloads.APPELL_EDGE_POINTS, "csv",
                    key_suffix=workloads.EDGE_SUFFIX)
                entries[edge["meta"]["ref_key"]] = record(edge)
            else:
                req = workloads.catalogue_request(entry, 501, "csv")
            entries[entry["key"]] = record(req)
            print(entry["key"], entries[entry["key"]]["code"], file=sys.stderr)
    ref = {
        "made_at_commit": _git_sha(),
        "ref_intervals": workloads.REF_INTERVALS,
        "verify_status": verify_statuses(),
        "errata_keys": [e.key for e in errata.ENTRIES],
        "catalogue": catalogue,
        "entries": entries,
    }
    os.makedirs(os.path.dirname(workloads.REFERENCE_PATH), exist_ok=True)
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
