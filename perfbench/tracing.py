"""Spans around the calls into tradeflow's layers, recorded from outside the
package.

Wrappers replace public entry points as their callers see them (a module
global or a class attribute) for the duration of a traced op and are
restored afterwards. No private `_`-name is wrapped, so refactors that
delete private helpers do not break the benchmark. Spans are kept in memory
as flat arrays and written once, at the end of the run.
"""

from __future__ import annotations

import functools
import threading
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tradeflow import analytic, cli, integrator, region
from tradeflow.analytic import PiecewiseTrajectory

#: (owner, attribute, span name, keep the returned value) for each timed
#: entry point. The same function reached through two owners gets one name.
TIMED = [
    (cli, "main", "cli", False),
    (cli, "parse_scenario", "scenario.parse", False),
    (cli, "simulate_analytic", "analytic.simulate", True),
    (analytic, "simulate_analytic", "analytic.simulate", True),
    (cli, "integrate_with_events", "integrator.integrate", True),
    (integrator, "integrate_with_events", "integrator.integrate", True),
    (PiecewiseTrajectory, "states_at", "analytic.states_at", False),
    (PiecewiseTrajectory, "state_at", "analytic.state_at", False),
    (cli, "scan_region", "region.scan", True),
    (cli, "feasible_k_interval", "region.k_interval", False),
    (workloads, "sup_discrepancy", "crosscheck.compare", False),
]
#: Entry points that are only counted: the region scan calls
#: feasibility_check 40k times per op from its worker threads, where a span
#: would mostly time waiting for the interpreter lock.
COUNTED = [(region, "feasibility_check", "money.feasibility_calls")]


class Tracer:
    """Flat span store: span i has a name id, a parent span (-1 for a root),
    the op it belongs to, and start and end times in seconds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_index = -1
        self.returned: dict[str, list] = defaultdict(list)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_index)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def timed(self, fn, name: str, keep: bool):
        nid = self._id(name)
        returned = self.returned[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                returned.append(result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:  # called from the scan's worker threads
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, keep in TIMED:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.timed(owner.__dict__[attr], name, keep))
            for owner, attr, name in COUNTED:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.counted(owner.__dict__[attr], name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> tuple[int, Counter]:
        return len(self.start), self.counts.copy()

    def rollback(self, mark: tuple[int, Counter]) -> None:
        """Forget what was recorded since `mark`, for an op that failed."""
        n_spans, counts = mark
        for column in (self.name, self.parent, self.op, self.start, self.end):
            del column[n_spans:]
        self.counts.clear()
        self.counts.update(counts)
        for kept in self.returned.values():
            kept.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        durations of its direct children. Spans of one thread nest, so the
        children of a span never overlap."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        own = np.bincount(a["name"], weights=dur - child_time, minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def span_counts(self) -> dict[str, int]:
        per_name = np.bincount(self.arrays()["name"], minlength=len(self.names))
        return {n: int(per_name[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
