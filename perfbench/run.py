"""Benchmark of otflow: time to a verified field, flow throughput, accuracy.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-examples --seed 1 --seconds 45 --trace 0

BENCHMARK.json lists ``paper-examples`` and ``sudakov``; ``random-pl`` (40
generic piecewise-linear pairs, about 40 s a pass) runs the same way by hand.

The program is imported from ``src/`` of the checkout the script sits in; a
directory without it is refused with exit code 2.  One process drives the
public API on one thread, BLAS included.  A run builds the workload's inputs
from ``--seed``, then runs as many whole passes over them as fit in
``--seconds``: at least one, and another only while a pass as long as the
longest so far would still end in time.  The last line of standard output
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count instances over all passes, so their ratio
is the failure fraction.  ``correct`` is false when an instance whose own
report passed disagrees with an independent check, or a metric is not finite.
A library exception other than ``TransportError`` ends the run with a
traceback.

With ``--trace 0`` the metrics are end to end:

* ``setup_s``: a fresh interpreter importing otflow and building the
  workload's inputs; the median of SETUP_REPEATS child processes.
* ``solve_s``: per pass, the wall time of every instance from its inputs to
  its verification report; the median over passes.
* ``julia_digits``, ``w1_digits``, ``time_digits``: -log10 of the worst
  Julia residual, push W1, and clock defect (Abel, travel time, Osgood,
  semigroup) over the workload's instances, capped at 16.
* ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` the passes are traced and the metrics are per layer (see
``spans.py``).  A time ``<layer>.<function>_s`` is the self time of that
function per pass: its spans' duration minus the time of the traced calls
they made.  ``<layer>.self_s`` sums a layer's self time inside the solves
only, so the layers and ``bench.self_s`` (the benchmark's own code between
calls) add up to ``trace.solve_s``; ``trace.build_s`` is the part of it
spent in calls that return a field.  ``flow.query_mpts_s`` is the
throughput, in million points per second, of flowing a seeded cloud over
every built field at t = 1 and t = 0.5.  ``trace.overhead_s`` is the tracing
overhead inside the solves: the measured cost of one wrapped call times the
number of spans.  The spans are written to
``perfbench-out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "julia_digits": "digits",
    "w1_digits": "digits",
    "time_digits": "digits",
    "peak_rss_mb": "MB",
}

# per-layer metrics; function times are self times per pass
FUNCTION_TIMES = (
    "registry.get_example",
    "velocity.build_velocity", "velocity.julia_residual", "velocity.evaluate",
    "measures.wasserstein1", "measures.l1_distance",
    "monotone.compute_monotone_map", "monotone.find_fixed_points",
    "flow.verify_transport", "flow.push_measure", "flow.flow",
    "pathology.build_counterexample", "pathology.probe_velocity_growth",
    "pathology.probe_non_integrability",
    "sudakov.decompose", "sudakov.assemble_field", "sudakov.verify_nd",
    "sudakov.flow",
)
FUNCTION_CALLS = ("measures.wasserstein1", "measures.l1_distance",
                  "monotone.find_fixed_points", "flow.push_measure")
COUNTERS = ("velocity.orbit_steps", "velocity.breakpoints",
            "pathology.growth_indices")
LAYERS = ("registry", "measures", "monotone", "velocity", "flow", "pathology",
          "sudakov")


def _checkout_ok() -> bool:
    return (SRC / "otflow" / "__init__.py").is_file()


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing otflow and building
    the workload's inputs."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            "import otflow, workloads; "
            f"workloads.make_inputs({workload!r}, {int(seed)})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return statistics.median(times)


def run_pass(instances, tracer, label: str) -> dict:
    outcomes = []
    for inst in instances:
        tracer.instance = f"{inst.name}#{label}"
        gc.collect()  # garbage of earlier instances is not this one's cost
        out = inst.run(tracer)
        outcomes.append(out)
        status = f"failed ({out.reason})" if out.failed else "ok"
        print(f"# {label} {out.name}: {status}, solve {out.solve_s:.3f} s"
              + "".join(f"; {n}" for n in out.notes))
    return {
        "outcomes": outcomes,
        "solve_s": sum(o.solve_s for o in outcomes),
        "build_s": sum(o.build_s for o in outcomes),
        "flow_points": sum(o.flow_points for o in outcomes),
        "flow_s": sum(o.flow_s for o in outcomes),
    }


def _worst(outcomes, attr):
    vals = [getattr(o, attr) for o in outcomes if getattr(o, attr) is not None]
    return max(vals) if vals else None


def digits(err: float | None) -> float:
    """-log10 of an error, capped at 16; 0 when nothing was measured."""
    if err is None or not math.isfinite(err):
        return 0.0
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))


def end_to_end(passes, setup_s: float) -> dict:
    outcomes = [o for p in passes for o in p["outcomes"]]
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "julia_digits": digits(_worst(outcomes, "julia")),
        "w1_digits": digits(_worst(outcomes, "w1")),
        "time_digits": digits(_worst(outcomes, "time")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, passes, span_cost: float) -> dict:
    """Per-pass layer figures; set-up spans (inputs) count once."""
    n = len(passes)
    own = tracer.self_times()
    fn_time = dict.fromkeys(FUNCTION_TIMES, 0.0)
    calls = dict.fromkeys(FUNCTION_CALLS, 0)
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    solve_spans = 0
    for i, s in enumerate(tracer.spans):
        in_pass = s.instance != "setup"
        if s.name in fn_time:
            fn_time[s.name] += own[i] / n if in_pass else own[i]
        if in_pass and s.name in calls:
            calls[s.name] += 1
        if in_pass and tracer.root(i).name == "bench.solve":
            layer_self[s.layer] += own[i] / n
            solve_spans += 1
    pushes = tracer.counters["sudakov.verify_nd_pushes"]
    out = {f"{k}_s": v for k, v in fn_time.items()}
    out.update({f"{k}_calls": v / n for k, v in calls.items()})
    out.update({k: tracer.counters[k] / n for k in COUNTERS})
    out["sudakov.push_useful_ratio"] = len(tracer.nd_pairs) / pushes if pushes else 0.0
    out.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
    out.update({f"{layer}.warnings": tracer.warnings[layer] / n for layer in LAYERS})
    flow_s = sum(p["flow_s"] for p in passes)
    out["flow.query_mpts_s"] = (sum(p["flow_points"] for p in passes) / flow_s / 1e6
                                if flow_s > 0 else 0.0)
    out["trace.solve_s"] = statistics.median(p["solve_s"] for p in passes)
    out["trace.build_s"] = statistics.median(p["build_s"] for p in passes)
    out["trace.overhead_s"] = span_cost * solve_spans / n
    out["trace.spans"] = solve_spans / n
    return out


PER_LAYER_UNITS = {
    **{f"{k}_s": "s" for k in FUNCTION_TIMES},
    **{f"{k}_calls": "count" for k in FUNCTION_CALLS},
    **{k: "count" for k in COUNTERS},
    "sudakov.push_useful_ratio": "ratio",
    "flow.query_mpts_s": "Mpts/s",
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("bench",)},
    **{f"{layer}.warnings": "count" for layer in LAYERS},
    "trace.solve_s": "s",
    "trace.build_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper-examples", "random-pl", "sudakov"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not _checkout_ok():
        print(f"perfbench: no otflow sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import otflow
    if Path(otflow.__file__).resolve().parent != SRC / "otflow":
        print(f"perfbench: otflow imported from {otflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer, wrapper_cost

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    tracer = Tracer()
    passes = []
    with tracer.installed() if args.trace else nullcontext():
        tracer.instance = "setup"
        with tracer.span("bench.setup"):
            instances = workloads.make_inputs(args.workload, args.seed)
        t_start = time.perf_counter()
        longest = 0.0
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(instances, tracer, f"pass{len(passes)}"))
            now = time.perf_counter()
            longest = max(longest, now - t_pass)
            if now - t_start + longest > args.seconds:
                break

    outcomes = [o for p in passes for o in p["outcomes"]]
    if args.trace:
        metrics = per_layer(tracer, passes, wrapper_cost())
        units = PER_LAYER_UNITS
        out_dir = ROOT / "perfbench-out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for rec in tracer.to_records():
                fh.write(json.dumps(rec) + "\n")
    else:
        metrics = end_to_end(passes, setup_s)
        units = END_TO_END_UNITS
    correct = (not any(o.incorrect for o in outcomes)
               and all(math.isfinite(v) for v in metrics.values()))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failed),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # One thread per process, set before numpy loads: idle BLAS workers spin
    # on the host's other core, which the measured thread may share.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
