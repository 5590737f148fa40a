"""In-memory spans recorded around calls into the program's public functions."""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import process_time

import numpy as np

# Every timing of the benchmark reads this clock: the CPU time of this process.
# The program is single-threaded (one BLAS thread), so uncontended this equals
# wall time; unlike wall time it leaves out the time the process waits while
# other processes or the hypervisor hold the processor.
clock = process_time

# The fastest CPU time of one probe on the reference machine, a 2.1 GHz Xeon
# vCPU, over a minute of repeats. A timing divided by the probe timed next to
# it, times this, is the timing in seconds of that machine at its fastest.
PROBE_REF_S = 0.006

_PROBE_ROWS = np.random.default_rng(0).random((400, 4))


@dataclass(frozen=True)
class _Pair:
    left: str
    right: str
    score: float


def probe() -> float:
    """CPU seconds of one fixed piece of work that calls no program code.

    The host's own speed drifts: on a shared 2-vCPU machine the same op took
    from 0.4 to 0.7 s of CPU within one run, and a fixed loop slowed just as
    much. Dividing each timing by a probe timed beside it cancels most of
    that drift. The probe mixes what the program spends its time on: small
    numpy reductions called from a Python loop, small objects and plain
    interpreter work. The collector is off, so garbage that an op leaves
    behind does not slow the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = clock()
    best = 0.0
    for i in range(0, 396, 4):
        for j in range(10):
            best = max(best, float(np.max(_PROBE_ROWS[i : i + 4, j % 4 : j % 4 + 1])))
    pairs = [_Pair("a", "b", float(k)) for k in range(3000)]
    total = 0
    for k in range(20000):
        total += k
    dt = clock() - t0
    if enabled:
        gc.enable()
    del pairs
    return dt


class Tracer:
    """Records one span per timed call: name, start, end, parent span, op id.

    Spans stay in memory until :meth:`write`. Nested ``span`` blocks make
    the inner span a child of the outer one.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = {}
        self.op: int | None = None
        self._open: list[int] = []
        self._kids: dict[int, list[dict]] = {}

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "start": clock(),
            "end": None,
        }
        self.spans.append(rec)
        if rec["parent"] is not None:
            self._kids[rec["parent"]].append(rec)
        self._kids[rec["id"]] = []
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        """Record one sample of a quantity measured at a span boundary."""
        self.counts.setdefault(name, []).append(value)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span: dict) -> list[dict]:
        return self._kids[span["id"]]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def quantile(values, q: float) -> float:
    """The q-quantile of ``values``, or 0 when nothing was measured."""
    return float(np.quantile(values, q)) if len(values) else 0.0
