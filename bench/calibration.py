"""Request latencies in calibration units, corrected for the host's speed.

On a shared host other tenants slow a run down in phases that last from
under a second to minutes, by up to half: the same request varies by that
much within one run, and so do whole runs of the same request list.  Process
CPU time moves with wall time, so the cause is a slower CPU, not descheduling.
A best-of-passes latency filters short bursts but not a phase that covers a
pass, so raw latencies cannot resolve a 25 % change from one run to the next.

The benchmark therefore times a fixed calibration task between requests and
divides each request's wall time by the median task time measured within
``WINDOW_S`` of the request.  The quotient, in *calibration units*, is the
request's time in multiples of the task on the same host at the same moment.
Different kinds of work slow down by different amounts, so each workload's
task does the kinds of work its requests do (``TASKS``).  sample's requests
spend their time in the point-by-point Appell series and in CSV/JSON
rendering, so its task does many small numpy operations and float
formatting.  certify's verify request does a bit of everything (the oracle's
Sturm recurrences, Appell series, dense sector operators, grid arithmetic),
so its task does all six parts, each for about the same time.  The task's
code is the benchmark's own, so a change to the program moves the quotient
only through the request time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

SHARE = 0.05       # task time as a share of the request time measured so far
WINDOW_S = 2.0     # task samples this close to a request rate its host speed
MIN_SAMPLES = 3    # nearest samples used when fewer fall inside the window
_GRID = np.linspace(0.01, 3.0, 20001)
_TERMS = np.arange(64.0)
_BIG = np.ones(1_000_000)
_BIG_OUT = np.empty_like(_BIG)
_MATRIX = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
_ROWS = list(zip(_GRID[:1800].tolist(), np.sin(_GRID[:1800]).tolist()))
_DIAG = np.linspace(2.0, 3.0, 400)
_SHIFTS = np.linspace(0.1, 0.5, 6)


def _grid():
    """numpy arithmetic on a 20001-point grid."""
    for _ in range(4):
        (np.cos(_GRID) + 0.5) ** 2 / np.sin(_GRID) ** 2 - np.log1p(_GRID) * np.sqrt(_GRID)


def _memory():
    """Streams through arrays larger than the CPU's private caches."""
    for _ in range(2):
        np.multiply(_BIG, 1.0000001, out=_BIG_OUT)
        np.add(_BIG_OUT, 1.0, out=_BIG_OUT)


def _blas():
    """Dense matrix products."""
    for _ in range(2):
        _MATRIX @ _MATRIX


def _sturm():
    """A sequential recurrence over a grid, vectorized over a few shifts."""
    q = _DIAG[0] - _SHIFTS
    count = (q < 0.0).astype(np.int64)
    for i in range(1, _DIAG.shape[0]):
        q = _DIAG[i] - _SHIFTS - 0.25 / q
        q = np.where(np.abs(q) < 1e-300, -1e-300, q)
        count += q < 0.0


def _small_arrays():
    """Many small numpy operations, as in a series summed point by point."""
    row = np.ones(_TERMS.size)
    for i in range(1, 600):
        row = row * ((1.3 + i + _TERMS) * 0.7 / ((2.1 + i + _TERMS) * i))


def _formatting():
    """Float formatting, as in CSV rendering."""
    "\n".join(f"{a!r},{b!r}" for a, b in _ROWS)


PARTS = {"grid": _grid, "memory": _memory, "blas": _blas, "sturm": _sturm,
         "small_arrays": _small_arrays, "formatting": _formatting}
TASKS = {"certify": ("grid", "memory", "blas", "sturm", "small_arrays", "formatting"),
         "sample": ("small_arrays", "formatting")}


class Calibration:
    """Samples of one workload's task over one run, taken between requests."""

    def __init__(self, workload: str):
        self.part_names = TASKS[workload]
        self._parts = [PARTS[name] for name in self.part_names]
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.parts: list[list] = []   # seconds of each part, per sample
        self._owed = 0.0

    def sample(self, count: int = 1):
        for _ in range(count):
            marks = [time.perf_counter()]
            for part in self._parts:
                part()
                marks.append(time.perf_counter())
            self.starts.append(marks[0])
            self.parts.append([b - a for a, b in zip(marks, marks[1:])])
            self.seconds.append(marks[-1] - marks[0])

    def after_request(self, request_seconds: float):
        """Run the task until its total time is SHARE of the request time so far."""
        self._owed += SHARE * request_seconds
        while self._owed > 0.0:
            self.sample()
            self._owed -= self.seconds[-1]

    def task_seconds(self, start: float, seconds: float) -> float:
        """Median task time within WINDOW_S of the interval [start, start + seconds]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = start + 0.5 * seconds
            nearest = sorted(range(len(self.starts)),
                             key=lambda i: abs(self.starts[i] - mid))[:MIN_SAMPLES]
            return statistics.median(self.seconds[i] for i in nearest)
        return statistics.median(self.seconds[lo:hi])

    def units(self, start: float, seconds: float) -> float:
        """A request's wall time in calibration units."""
        return seconds / self.task_seconds(start, seconds)
