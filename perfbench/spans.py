"""Span recorder for the traced benchmark run.

A span is one call: its name (``<layer>.<function>``, the layer being the
``otflow`` module that defines the function), start and end on the
``perf_counter`` clock, the index of the span that was open when it started,
and the id of the benchmark instance it served.

Spans inside the library come from wrapping the module attribute each caller
resolves: ``otflow.velocity.find_fixed_points`` is what ``build_velocity``
looks up, ``otflow.flow.wasserstein1`` is what ``verify_transport`` looks up.
The wrappers exist only while ``Tracer.installed()`` is active, so an
untraced pass runs the library unchanged.

Every wrapped call also records the warnings raised inside it with
``warnings.catch_warnings(record=True)``; a warning counts for the layer of
the innermost wrapped call that saw it.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from workloads import lib


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _count_field(tracer, span, args, field):
    tracer.counters["velocity.orbit_steps"] += sum(
        f.depth_forward + f.depth_backward for f in field.built_intervals)
    tracer.counters["velocity.breakpoints"] += sum(
        f.v_spline.x.size for f in field.built_intervals)


def _count_growth(tracer, span, args, result):
    tracer.counters["pathology.growth_indices"] += result.i_scanned


def _count_nd_push(tracer, span, args, result):
    parent = tracer.spans[span].parent
    if parent is None or tracer.spans[parent].name != "sudakov.verify_nd":
        return
    tracer.counters["sudakov.verify_nd_pushes"] += 1
    tracer.nd_pairs.add((parent, id(args[0]), id(args[1])))


# (owner, attribute, span name, hook run on the result).  Each row is the
# attribute one caller resolves; a function reached through several modules
# appears once per module.
_TRACED = (
    (lib.registry, "get_example", "registry.get_example", None),
    (lib.registry.ExampleProblem, "build", "registry.build", None),
    (lib.registry, "pushforward_by_map", "measures.pushforward_by_map", None),
    (lib.registry, "build_velocity", "velocity.build_velocity", _count_field),
    (lib.monotone, "compute_monotone_map", "monotone.compute_monotone_map", None),
    (lib.velocity, "build_velocity", "velocity.build_velocity", _count_field),
    (lib.velocity, "compute_monotone_map", "monotone.compute_monotone_map", None),
    (lib.velocity, "find_fixed_points", "monotone.find_fixed_points", None),
    (lib.velocity, "julia_residual", "velocity.julia_residual", None),
    (lib.velocity.VelocityField1D, "evaluate", "velocity.evaluate", None),
    (lib.velocity.VelocityField1D, "__call__", "velocity.evaluate", None),
    (lib.flow, "flow", "flow.flow", None),
    (lib.flow, "push_measure", "flow.push_measure", None),
    (lib.flow, "verify_transport", "flow.verify_transport", None),
    (lib.flow, "julia_residual", "velocity.julia_residual", None),
    (lib.flow, "wasserstein1", "measures.wasserstein1", None),
    (lib.flow, "l1_distance", "measures.l1_distance", None),
    (lib.pathology, "build_counterexample", "pathology.build_counterexample", None),
    (lib.pathology, "probe_velocity_growth", "pathology.probe_velocity_growth",
     _count_growth),
    (lib.pathology, "probe_non_integrability",
     "pathology.probe_non_integrability", None),
    (lib.pathology, "build_velocity", "velocity.build_velocity", _count_field),
    (lib.sudakov, "decompose", "sudakov.decompose", None),
    (lib.sudakov, "assemble_field", "sudakov.assemble_field", None),
    (lib.sudakov, "verify_nd", "sudakov.verify_nd", None),
    (lib.sudakov, "per_ray_monotone_map", "sudakov.per_ray_monotone_map", None),
    (lib.sudakov.VelocityFieldND, "flow", "sudakov.flow", None),
    (lib.sudakov, "compute_monotone_map", "monotone.compute_monotone_map", None),
    (lib.sudakov, "build_velocity", "velocity.build_velocity", _count_field),
    (lib.sudakov, "push_measure", "flow.push_measure", _count_nd_push),
    (lib.sudakov, "flow_1d", "flow.flow", None),
    (lib.sudakov, "wasserstein1", "measures.wasserstein1", None),
)


class Tracer:
    """Spans, warning counts and work counters of traced calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.warnings: Counter = Counter()
        self.counters: Counter = Counter()
        self.nd_pairs: set = set()
        self.instance = ""
        self.active = False
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                               self.instance))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; nothing when inactive."""
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, hook):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self.warnings[layer] += len(caught)
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in _TRACED:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def root(self, idx: int) -> Span:
        while self.spans[idx].parent is not None:
            idx = self.spans[idx].parent
        return self.spans[idx]

    def to_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "instance": s.instance}
                for s in self.spans]


def wrapper_cost(n: int = 20000) -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one."""
    def nothing():
        return None

    wrapped = Tracer()._wrap(nothing, "calibrate.nothing", None)
    t0 = time.perf_counter()
    for _ in range(n):
        nothing()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n
