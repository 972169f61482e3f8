"""Memory and flow cost of the sudakov and paper-examples workloads, phase
by phase.

Run from anywhere:

    python3 tools/field_cost.py

The program and the benchmark's instances (run seed 0) are imported from
``src/`` and ``perfbench/`` of the checkout the script sits in, so the same
script measures any two checkouts alike.  About 31 s on one core of a
2-vCPU VM.

sudakov runs first, so its ru_maxrss figures read that workload alone:
each pair is decomposed and its field assembled, then, under tracemalloc,
the script prints the peaks of verify_nd (at the benchmark's settings) and
of the field's flow of the benchmark's 50,000-point cloud at t = 1, in MiB,
and ru_maxrss after the instance; a pair whose construction raises prints
the error's name.

paper-examples memory: every instance runs once, in the benchmark's order
and phases, under tracemalloc.  For a registry example the script prints,
in MiB, the build's peak and what the built field holds after it, the
peaks of the verify, flow and check phases above what was held before
each, and the process's ru_maxrss after the instance; for a pathology
variant, the peak of its whole solve.  tracemalloc slows every allocation
and its own tables count in ru_maxrss, so these figures size memory and do
not time anything.

paper-examples flow: with tracing off, each registry field flows the
benchmark's 100,000-point cloud at t = 1 and t = 0.5, and the script prints
the best of nine such pairs of queries, in ms, per field and in total.

pathology: for each variant, at the benchmark's settings and with tracing
off, the best of five in-process runs, in ms, of build_counterexample, the
growth scan, the divergence probe's velocity build and its exact orbit
cascade, then the best of five means, in microseconds, of one map jet on 12
points of one orbit gap and of one cascade depth.  Best-of-five figures
from one process drift less between runs than the benchmark's passes do;
compare two checkouts by alternating runs of the script.

march: for the pathology probe's build of each variant and for
accumulating-cinf, at the benchmark's settings, the best of five orbit
marches (_march_lockstep) and the best of five replays of the map calls
one such march makes (T.jet, T.inverse), in microseconds per depth; their
difference is what the march spends around its map calls.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads as W  # noqa: E402

MIB = 2.0 ** 20
FLOW_REPEATS = 9
# the tracer interface an instance calls, recording nothing
UNTRACED = SimpleNamespace(span=lambda name: nullcontext())


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Phase:
    """tracemalloc peak of a block above what was held when it began."""

    def __enter__(self):
        self.start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc):
        current, peak = tracemalloc.get_traced_memory()
        self.peak = (peak - self.start) / MIB
        self.held = (current - self.start) / MIB


def memory(instances) -> None:
    print("paper-examples memory, MiB: build peak / held, verify, flow and "
          "check peaks; ru_maxrss after the instance")
    tracemalloc.start()
    for inst in instances:
        if isinstance(inst, W.RegistryInstance):
            ex = inst.example
            with _Phase() as build:
                fld = W.quiet(ex.build)
            with _Phase() as verify:
                W.quiet(W.lib.flow.verify_transport, fld, ex.m0, ex.m1)
            xs = W._field_cloud(fld, inst.u)
            with _Phase() as flow:
                flows = {t: W.quiet(W.lib.flow.flow, fld, t, xs) for t in (1.0, 0.5)}
            with _Phase() as check:
                W._oracle_disagreements(ex, fld, xs, flows)
            del fld, flows
            print(f"  {inst.name:<20} build {build.peak:7.2f} / {build.held:6.2f}"
                  f"  verify {verify.peak:6.2f}  flow {flow.peak:6.2f}"
                  f"  check {check.peak:6.2f}  rss {_rss_mib():7.1f}", flush=True)
        else:
            with _Phase() as solve:
                inst.run(UNTRACED)
            print(f"  {inst.name:<20} solve {solve.peak:7.2f}"
                  f"  rss {_rss_mib():7.1f}", flush=True)
    tracemalloc.stop()


def flow_times(instances) -> None:
    print(f"flow, ms: best of {FLOW_REPEATS} of t = 1 and t = 0.5 on the "
          "100,000-point cloud")
    total = 0.0
    for inst in instances:
        if not isinstance(inst, W.RegistryInstance):
            continue
        fld = W.quiet(inst.example.build)
        xs = W._field_cloud(fld, inst.u)
        best = float("inf")
        for _ in range(FLOW_REPEATS):
            t0 = time.perf_counter()
            W.quiet(W.lib.flow.flow, fld, 1.0, xs)
            W.quiet(W.lib.flow.flow, fld, 0.5, xs)
            best = min(best, time.perf_counter() - t0)
        del fld
        total += best
        print(f"  {inst.name:<20} {1e3 * best:8.2f}", flush=True)
    print(f"  {'total':<20} {1e3 * total:8.2f}")


def sudakov_memory(instances) -> None:
    print("sudakov memory, MiB: verify_nd and 50,000-point flow peaks; "
          "ru_maxrss after the instance")
    S = W.lib.sudakov
    tracemalloc.start()
    for inst in instances:
        try:
            fnd = W.quiet(S.assemble_field, W.quiet(S.decompose, inst.m0, inst.m1))
        except W.TransportError as e:
            print(f"  {inst.name:<20} {type(e).__name__}  rss {_rss_mib():7.1f}")
            continue
        with _Phase() as verify:
            W.quiet(S.verify_nd, fnd, **inst.verify_kw)
        with _Phase() as flow:
            W.quiet(fnd.flow, 1.0, inst.points)
        print(f"  {inst.name:<20} verify_nd {verify.peak:6.2f}  flow {flow.peak:6.2f}"
              f"  rss {_rss_mib():7.1f}", flush=True)
    tracemalloc.stop()


def _best(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def pathology_times(instances) -> None:
    print("pathology, ms: best of 5 of build_counterexample, the growth scan, "
          "the probe's build and the cascade; us per jet on 12 points and "
          "per cascade depth")
    P = W.lib.pathology
    real_build = P.build_velocity
    for inst in instances:
        if not isinstance(inst, W.PathologyInstance):
            continue
        cmap = W.quiet(P.build_counterexample, inst.variant)
        build = _best(lambda: P.build_counterexample(inst.variant))
        growth = _best(lambda: W.quiet(P.probe_velocity_growth, cmap,
                                       **inst.growth_kw))
        fields, field_build = [], float("inf")

        def timed_build(*args, **kwargs):
            nonlocal field_build
            t0 = time.perf_counter()
            fields.append(real_build(*args, **kwargs))
            field_build = min(field_build, time.perf_counter() - t0)
            return fields[-1]

        # the probe's own build, timed from inside the probe
        P.build_velocity = timed_build
        try:
            for _ in range(5):
                dive = W.quiet(P.probe_non_integrability, cmap, **inst.divergence_kw)
        finally:
            P.build_velocity = real_build
        itf, depth = fields[0].built_intervals[0], dive.levels[-1]
        cascade = _best(lambda: P._orbit_mass_cascade(cmap, itf, depth))
        xs = cmap.anchors[101] + cmap.gaps[100] * np.linspace(0.0, 1.0, 12)
        calls = 2000
        jet = _best(lambda: [cmap.jet(xs) for _ in range(calls)]) / calls
        print(f"  {inst.name:<20} build {1e3 * build:7.2f}  growth {1e3 * growth:7.1f}"
              f"  probe build {1e3 * field_build:7.1f}  cascade {1e3 * cascade:7.1f}"
              f"  jet {1e6 * jet:6.2f}  depth {1e6 * cascade / depth:6.2f}",
              flush=True)


def march_times(instances) -> None:
    print("march, us per depth: best of 5 of the march, then of a replay of "
          "its map calls alone")
    V = W.lib.velocity
    real = V._march_lockstep
    for inst in instances:
        if isinstance(inst, W.PathologyInstance):
            cmap = W.quiet(W.lib.pathology.build_counterexample, inst.variant)
            build = (lambda cmap=cmap, kw=inst.divergence_kw:
                     W.lib.pathology.probe_non_integrability(cmap, **kw))
        elif inst.name == "accumulating-cinf":
            build = inst.example.build
        else:
            continue
        runs, calls = [], []

        def timed(T, marches, cfg):
            t0 = time.perf_counter()
            real(T, marches, cfg)
            runs.append((time.perf_counter() - t0,
                         max(m.sizes.size for m in marches)))

        def logged(f):
            def call(x):
                calls.append((f, np.array(x, dtype=float)))
                return f(x)
            return call

        def recorded(T, marches, cfg):
            real(replace(T, jet=logged(T.jet), inverse=logged(T.inverse)),
                 marches, cfg)

        try:
            V._march_lockstep = timed
            for _ in range(5):
                W.quiet(build)
            V._march_lockstep = recorded
            W.quiet(build)
        finally:
            V._march_lockstep = real
        march, depths = min(runs)
        replay = _best(lambda: [f(x) for f, x in calls])
        print(f"  {inst.name:<20} march {1e6 * march / depths:6.2f}"
              f"  map calls {1e6 * replay / depths:6.2f}  ({depths} depths)",
              flush=True)


def main() -> int:
    sudakov_memory(W.make_inputs("sudakov", 0))
    instances = W.make_inputs("paper-examples", 0)
    memory(instances)
    flow_times(instances)
    pathology_times(instances)
    march_times(instances)
    return 0


if __name__ == "__main__":
    sys.exit(main())
