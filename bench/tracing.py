"""In-memory span tracing of osqm's layers, applied from outside the package.

A span is (name, start, end, parent, request): `parent` is the index of the
enclosing span (-1 at top level) and `request` labels the unit of benchmark
work the span belongs to, such as "setup/0" or "traj/17". Spans stay in
memory and are written once, when the run ends.

`patched` swaps each traced name for a wrapper at the module or class where
callers look it up (for example `osqm.transitions.is_quasirestricted`, which
`TrajectoryEngine.run` resolves through its own module globals), and puts the
originals back on exit. Nothing inside `src/` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from pathlib import Path

import numpy as np

# (module, attribute path, span name). A function imported into several
# modules is patched in each module whose code calls it.
TRACE_POINTS = (
    ("osqm.dynamics", "evolve_lvn", "dynamics.evolve_lvn"),
    ("osqm.dynamics", "LvnPlan.rhs", "dynamics.rhs"),
    ("osqm.wigner", "wigner_from_wavefunction", "wigner.from_wavefunction"),
    ("osqm.transitions", "weyl_operator_from_symbol", "weyl.symbol_to_operator"),
    ("osqm.oracle", "OperatorMatrix.eigh", "oracle.eigh"),
    ("osqm.transitions", "classicality_projectors", "regions.classicality_projectors"),
    ("osqm.regions", "quasiprojector_operator", "regions.quasiprojector_operator"),
    ("osqm.regions", "_coherent_quadrature_1dof", "regions.coherent_quadrature"),
    ("osqm.scenarios", "_coherent_quadrature_1dof", "regions.coherent_quadrature"),
    ("osqm.transitions", "TrajectoryEngine.run", "transitions.run"),
    ("osqm.transitions", "transition_probabilities_oracle", "transitions.born_weights"),
    ("osqm.transitions", "apply_quasiprojection", "transitions.apply_quasiprojection"),
    ("osqm.transitions", "is_quasirestricted", "regions.is_quasirestricted"),
    ("osqm.transitions", "sample_transition", "transitions.sample_transition"),
    ("osqm.scenarios", "sample_transition", "transitions.sample_transition"),
    ("osqm.transitions", "trajectory_rng", "transitions.trajectory_rng"),
    ("osqm.scenarios", "trajectory_rng", "transitions.trajectory_rng"),
    ("osqm.scenarios", "MeasurementScenario.__init__", "scenarios.measurement_prepare"),
    ("osqm.scenarios", "MeasurementScenario._evolved", "scenarios.evolved"),
    ("osqm.scenarios", "MeasurementScenario.band_probabilities",
     "scenarios.band_probabilities"),
    ("osqm.scenarios", "MeasurementScenario.run_ensemble", "scenarios.run_ensemble"),
)

# OperatorMatrix.eigh caches its result; only calls that decompose are spans.
_CACHED_EIGH = "OperatorMatrix.eigh"


class Tracer:
    """Collects spans while `active`; wrappers cost one flag test otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name_id, start, end, parent, request]
        self._stack: list[int] = []
        self.active = False
        self.request = ""

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, skip=None):
        """Wrapper recording one span per call; `skip(*args)` true bypasses."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (skip is not None and skip(*args)):
                return fn(*args, **kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install wrappers for every trace point; restore originals on exit."""
        saved = []
        try:
            for module_name, path, span in TRACE_POINTS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                skip = (lambda op: op._eig is not None) if path == _CACHED_EIGH else None
                setattr(owner, attr, self.wrap(span, original, skip))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.spans)

    def write(self, path: Path) -> None:
        """Write all spans as a compressed .npz (names indexed by `name`)."""
        t = self.table()
        np.savez_compressed(path, names=np.array(self.names), name=t.name,
                            start=t.start, end=t.end, parent=t.parent,
                            request=np.array(t.request, dtype=str))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so a span's children are disjoint intervals
    inside it and their durations add up.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


class SpanTable:
    """Column view of recorded spans with the aggregates the metrics use."""

    def __init__(self, names, spans):
        self.names = list(names)
        n = len(spans)
        self.name = np.fromiter((s[0] for s in spans), dtype=np.int64, count=n)
        self.start = np.fromiter((s[1] for s in spans), dtype=float, count=n)
        self.end = np.fromiter((s[2] for s in spans), dtype=float, count=n)
        self.parent = np.fromiter((s[3] for s in spans), dtype=np.int64, count=n)
        self.request = [s[4] for s in spans]
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)

    def select(self, name: str, requests=None) -> np.ndarray:
        """Mask of spans called `name`, optionally within a set of requests."""
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        mask = self.name == self.names.index(name)
        if requests is not None:
            wanted = set(requests)
            mask &= np.fromiter((r in wanted for r in self.request), dtype=bool,
                                count=len(self.request))
        return mask

    def median(self, name: str, requests=None, self_only: bool = False) -> float:
        """Median span time in seconds; 0.0 when the layer was not reached."""
        mask = self.select(name, requests)
        if not mask.any():
            return 0.0
        vals = self.self_time if self_only else self.duration
        return float(np.median(vals[mask]))

    def per_request(self, name: str, requests, self_only: bool = False):
        """(count, total seconds) of `name` spans in each request, in order."""
        mask = self.select(name, requests)
        vals = self.self_time if self_only else self.duration
        counts = {r: 0 for r in requests}
        totals = {r: 0.0 for r in requests}
        for i in np.flatnonzero(mask):
            counts[self.request[i]] += 1
            totals[self.request[i]] += vals[i]
        return (np.array([counts[r] for r in requests], dtype=float),
                np.array([totals[r] for r in requests]))
