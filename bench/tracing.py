"""Spans around calls into each toruspt layer, recorded from outside the package.

``Tracer.install()`` replaces every public function of the layer modules with
a timing wrapper at *every* name that binds it: ``from .special import
appell_f1`` leaves a second binding in ``susy`` and ``verify``, and both are
wrapped.  Verify checks are wrapped in the check registry, errata entries at
``ErrataEntry.evidence``.  ``uninstall()`` puts every original back.

Spans (name, layer, start, end, parent, request id) are kept in memory; the
self time of a span is its duration minus the part covered by its children,
which keeps the recursive ``jacobi_poly`` and ``incomplete_beta`` honest.
"""

from __future__ import annotations

import hashlib
import importlib
import time
import types
from dataclasses import dataclass

import numpy as np

LAYERS = ("special", "geometry", "susy", "oracle", "iso21", "verify", "errata", "cli")
# private functions that other modules import by name
EXTRA_TRACED = {"verify": ("_commutator_residual",)}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root span
    request: int
    error: bool = False
    tag: str = ""    # "tail" for partner_potentials on a tail family


def _size(x) -> int:
    return int(np.size(x))


def _matrix_key(m, n_eigs):
    h = hashlib.sha1(np.ascontiguousarray(m.diag).tobytes())
    h.update(np.ascontiguousarray(m.offdiag).tobytes())
    return (h.hexdigest(), int(n_eigs))


class Tracer:
    """Installs wrappers, records spans and counters, and restores originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.counters: dict[str, float] = {}
        self.solves: list = []      # (matrix hash, k) per eigenvalue solve
        self.operators: list = []   # (params, sector, direction, grid) per operator
        self._undo: list = []       # closures that put each replaced binding back
        self.modules = {name: importlib.import_module(f"toruspt.{name}")
                        for name in LAYERS}

    # -- counters --------------------------------------------------------

    def add(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def _count(self, qualname, args, kwargs, parent_name):
        """Work counters measured where the work happens."""
        if qualname == "special.incomplete_beta" and parent_name != qualname:
            self.add("special.incomplete_beta.points", _size(args[0]))
        elif qualname == "susy.partner_potentials":
            self.add("susy.partner_potentials.points", _size(args[1]))
            if type(args[0]).__name__ != "PureTrigPT":
                self.add("susy.tail_points", _size(args[1]))
                return "tail"
        elif qualname == "oracle.lowest_eigenvalues":
            m, n_eigs = args[0], args[1] if len(args) > 1 else kwargs["n_eigs"]
            self.add("oracle.lowest_eigenvalues.nodes", m.n)
            self.solves.append(_matrix_key(m, n_eigs))
        elif qualname == "iso21.sector_operator":
            p, mu_sector, direction, grid = args[:4]
            x = np.asarray(grid, dtype=float)
            self.add("iso21.sector_operator.bytes_computed", x.size * x.size * 16)
            self.operators.append(
                (repr(p), float(mu_sector), direction,
                 hashlib.sha1(x.tobytes()).hexdigest()))
        return ""

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, fn, name, layer):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            parent_name = tracer.spans[parent].name if parent >= 0 else ""
            tag = tracer._count(name, args, kwargs, parent_name)
            idx = len(tracer.spans)
            span = Span(name, layer, time.perf_counter(), 0.0, parent,
                        tracer.request, tag=tag or "")
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def traced_functions(self):
        """{original function: qualified span name} for every public function."""
        targets = {}
        for layer, mod in self.modules.items():
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names = ["main", "build_parser"]
            names += EXTRA_TRACED.get(layer, ())
            for n in names:
                obj = getattr(mod, n, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    targets[obj] = f"{layer}.{n}"
        return targets

    def _set_attr(self, obj, name, new):
        old = getattr(obj, name)
        self._undo.append(lambda: setattr(obj, name, old))
        setattr(obj, name, new)

    def _set_item(self, container, key, new):
        old = container[key]
        self._undo.append(lambda: container.__setitem__(key, old))
        container[key] = new

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets = self.traced_functions()
        wrappers = {fn: self._wrapper(fn, name, name.split(".")[0])
                    for fn, name in targets.items()}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._set_attr(mod, attr, wrappers[obj])
        verify = self.modules["verify"]
        for i, (cname, suite, fn) in enumerate(list(verify._REGISTRY)):
            wrapped = self._wrapper(fn, f"verify.check.{cname}", "verify")
            self._set_item(verify._REGISTRY, i, (cname, suite, wrapped))
            self._set_item(verify.CHECKS, cname, (suite, wrapped))
        entry_cls = self.modules["errata"].ErrataEntry
        original = entry_cls.evidence
        tracer = self

        def evidence(entry):
            return tracer._wrapper(original, f"errata.entry.{entry.key}",
                                   "errata")(entry)

        self._set_attr(entry_cls, "evidence", evidence)
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> np.ndarray:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = np.empty(len(spans))
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (s.end - s.start) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json, per_layer)."""
    spans = tracer.spans
    selfs = self_times(spans)
    incl = np.array([s.end - s.start for s in spans])
    by_name: dict[str, list] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return float(selfs[by_name.get(name, [])].sum())

    def incl_s(name):
        return float(incl[by_name.get(name, [])].sum())

    m = dict(tracer.counters)
    for name in ("special.appell_f1", "special.jacobi_poly", "susy.partner_potentials",
                 "susy.superpotential_eval", "oracle.lowest_eigenvalues",
                 "oracle.eigenpairs", "geometry.solve_g_transform",
                 "iso21.sector_operator", "cli.main"):
        m[f"{name}.calls"] = calls(name)
    for name in ("special.appell_f1", "special.incomplete_beta", "special.jacobi_poly",
                 "susy.partner_potentials", "susy.superpotential_eval",
                 "oracle.lowest_eigenvalues", "oracle.build_hamiltonian",
                 "oracle.check_friedrichs", "oracle.eigenpairs",
                 "geometry.solve_g_transform", "iso21.sector_operator",
                 "iso21.casimir_potential"):
        m[f"{name}.self_s"] = self_s(name)
    tail = [i for i in by_name.get("susy.partner_potentials", ()) if spans[i].tag == "tail"]
    m["susy.tail_us_per_point"] = 1e6 * _ratio(float(incl[tail].sum()),
                                               m.pop("susy.tail_points", 0))
    nodes = m.setdefault("oracle.lowest_eigenvalues.nodes", 0)
    m["oracle.ns_per_node"] = 1e9 * _ratio(m["oracle.lowest_eigenvalues.self_s"], nodes)
    solves = tracer.solves
    m["oracle.unique_solve_ratio"] = _ratio(len(set(solves)), len(solves))
    ops = tracer.operators
    m["iso21.unique_operator_ratio"] = _ratio(len(set(ops)), len(ops))
    m.setdefault("iso21.sector_operator.bytes_computed", 0)
    m.setdefault("special.incomplete_beta.points", 0)
    m.setdefault("susy.partner_potentials.points", 0)

    registry = tracer.modules["verify"]._REGISTRY
    suites: dict[str, float] = {s: 0.0 for s in tracer.modules["verify"].SUITES}
    for cname, suite, _ in registry:
        t = incl_s(f"verify.check.{cname}")
        m[f"verify.check.{cname}.s"] = t
        suites[suite] = suites.get(suite, 0.0) + t
    for suite, t in suites.items():
        m[f"verify.suite.{suite}.s"] = t
    for entry in tracer.modules["errata"].ENTRIES:
        m[f"errata.entry.{entry.key}.s"] = incl_s(f"errata.entry.{entry.key}")
    m["errata.render_text.s"] = incl_s("errata.render_text")

    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s.layer == layer]
        m[f"{layer}.self_s"] = float(selfs[idx].sum())
        m[f"{layer}.errors"] = sum(
            1 for i in idx if spans[i].error
            and (spans[i].parent < 0 or spans[spans[i].parent].layer != layer))
    return m
