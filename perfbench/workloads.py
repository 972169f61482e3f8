"""Seeded inputs and instance runners of the three benchmark workloads.

``make_inputs(workload, seed)`` builds every input a pass needs; the library
then sees only those inputs.  Each instance runs its chain of public calls
(the "solve", from inputs to the verification report), then a flow query on
a seeded point cloud, then the benchmark's own checks.  Library calls go
through module attributes resolved at call time, so the wrappers of a traced
pass see them.

An instance fails when a call raises a ``TransportError``, when the library's
own report says it did not pass, when a pathology variant misses the
criterion of the ``pathology`` command, or when a closed-form oracle of a
registry example disagrees with the built field.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from importlib import import_module
from types import SimpleNamespace

import numpy as np

from otflow.errors import TransportError
from otflow.measures import Gaussian, PiecewiseDensity, Uniform

# The library modules by import path: the package attribute ``otflow.flow``
# is the re-exported flow function, not the module.
lib = SimpleNamespace(**{m: import_module(f"otflow.{m}") for m in (
    "registry", "monotone", "velocity", "flow", "pathology", "sudakov")})

# The random-pl pairs are the reference draw of the piecewise-linear recipe,
# the same 40 pairs for every run seed, so that its accuracy figures (worst
# cases over the pairs) compare across runs; the run seed orders the pairs
# and draws the flow clouds.
RANDOM_PL_RECIPE_SEED = 0
RANDOM_PL_PAIRS = 40
# A query's time is the fastest of its repeats.  Each generator sizes its
# clouds so that a pass spends about a second in flow queries, enough to
# average out the memory traffic of the largest tables.
FLOW_REPEATS = 5
PATHOLOGY_VARIANTS = ("quadratic", "log_squared")


def quiet(fn, *args, **kwargs):
    """Call fn, recording rather than printing the warnings it raises."""
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        return fn(*args, **kwargs)


@dataclass
class Outcome:
    """What one instance did in one pass."""

    name: str
    failed: bool = False
    reason: str = ""
    incorrect: bool = False     # claimed success but an independent check disagrees
    solve_s: float = 0.0
    build_s: float = 0.0
    flow_points: int = 0
    flow_s: float = 0.0
    julia: float | None = None  # worst Julia relative residual
    w1: float | None = None     # worst W1 of the push against the target
    time: float | None = None   # worst Abel / travel-time / Osgood / semigroup defect
    notes: list = dc_field(default_factory=list)


@contextmanager
def _solving(bench, out: Outcome):
    """Time the solve; a TransportError fails the instance with its type name."""
    with bench.span("bench.solve"):
        t0 = time.perf_counter()
        try:
            yield
        except TransportError as e:
            out.failed, out.reason = True, type(e).__name__
        finally:
            out.solve_s = time.perf_counter() - t0


def _worst_time_defect(rep) -> float:
    osgood = max((abs(r["deviation"]) for r in rep.osgood), default=0.0)
    return max(rep.abel_max_abs, rep.travel_time_max_abs, osgood,
               rep.semigroup_max_abs)


def _record_report(out: Outcome, rep):
    out.julia = rep.julia_max_rel
    out.w1 = rep.w1_push
    out.time = _worst_time_defect(rep)
    if not rep.passed:
        out.failed, out.reason = True, "verification"


def _flow_query(out: Outcome, flow_fn, points):
    """Flow the cloud at t = 1 and t = 0.5; returns the two images.

    The time is the fastest of FLOW_REPEATS identical queries, which keeps
    interruptions by other processes out of the throughput.
    """
    times = []
    for _ in range(FLOW_REPEATS):
        t0 = time.perf_counter()
        y1 = flow_fn(1.0, points)
        yh = flow_fn(0.5, points)
        times.append(time.perf_counter() - t0)
    out.flow_points += 2 * len(points)
    out.flow_s += min(times)
    return y1, yh


def _field_cloud(field, u):
    lo, hi = field.domain
    return lo + (hi - lo) * u


# ======================================================================
# paper-examples: the five registry problems and both pathology variants
# ======================================================================

@dataclass
class RegistryInstance:
    name: str
    example: object
    u: np.ndarray

    def run(self, bench) -> Outcome:
        out = Outcome(self.name)
        ex = self.example
        with _solving(bench, out):
            t0 = time.perf_counter()
            fld = quiet(ex.build)
            out.build_s = time.perf_counter() - t0
            rep = quiet(lib.flow.verify_transport, fld, ex.m0, ex.m1)
        if out.failed:
            return out
        _record_report(out, rep)
        with bench.span("bench.flow"):
            xs = _field_cloud(fld, self.u)
            y1, yh = _flow_query(
                out, lambda t, x: quiet(lib.flow.flow, fld, t, x), xs)
        with bench.span("bench.check"):
            bad = _oracle_disagreements(ex, fld, xs, {1.0: y1, 0.5: yh})
        if bad:
            out.notes.extend(bad)
            out.incorrect = not out.failed
            out.failed, out.reason = True, "oracle"
        return out


def _oracle_disagreements(ex, fld, xs, flows) -> list[str]:
    """Compare the built field with the example's closed forms.

    Velocity agrees to the Julia tolerance relative to the field's scale,
    flows to the clock tolerance scaled by the domain width, and every closed
    fixed point lies in the partition's fixed set with zero velocity.
    """
    cfg = fld.config
    closed = ex.closed
    lo, hi = ex.m0.window(cfg.eps_tail)
    inside = (xs >= lo) & (xs <= hi)
    width = max(fld.domain[1] - fld.domain[0], 1.0)
    bad = []
    v = np.asarray(quiet(fld.evaluate, xs), dtype=float)
    scale = float(np.max(np.abs(v[inside]), initial=0.0))
    if "velocity" in closed:
        err = float(np.max(np.abs(v[inside] - closed["velocity"](xs[inside])),
                           initial=0.0))
        if not err <= cfg.tol_julia * scale:
            bad.append(f"velocity off the closed form by {err:.3g}")
    if "flow" in closed:
        for t, y in flows.items():
            yi = y[inside]
            if not np.all(np.isfinite(yi)):
                bad.append(f"flow at t={t} leaves the tables inside the source window")
                continue
            err = float(np.max(np.abs(yi - closed["flow"](t, xs[inside])), initial=0.0))
            if not err <= cfg.tol_time * width:
                bad.append(f"flow at t={t} off the closed form by {err:.3g}")
    fps = closed.get("fixed_points")
    if fps is None and closed.get("fixed_point") is not None:
        fps = (closed["fixed_point"],)
    for p in fps or ():
        slack = cfg.fixed_point_tol_rel * width
        if not any(a - slack <= p <= b + slack
                   for a, b in fld.partition.fixed_intervals):
            bad.append(f"closed fixed point {p:.9g} is not in the partition")
        elif abs(float(quiet(fld.evaluate, p))) > cfg.tol_julia * scale:
            bad.append(f"velocity does not vanish at the fixed point {p:.9g}")
    return bad


@dataclass
class PathologyInstance:
    name: str
    variant: str
    growth_kw: dict = dc_field(default_factory=dict)
    divergence_kw: dict = dc_field(default_factory=dict)

    def run(self, bench) -> Outcome:
        out = Outcome(self.name)
        P = lib.pathology
        with _solving(bench, out):
            cmap = quiet(P.build_counterexample, self.variant)
            growth = quiet(P.probe_velocity_growth, cmap, **self.growth_kw)
            dive = quiet(P.probe_non_integrability, cmap, **self.divergence_kw)
        if out.failed:
            return out
        if not _pathology_ok(self.variant, growth, dive):
            out.failed, out.reason = True, "pathology criterion"
        return out


def _pathology_ok(variant, growth, dive) -> bool:
    """The per-variant ``ok`` of the ``pathology`` command."""
    crossing_ok = growth.crossing_index is not None if variant == "quadratic" else True
    return bool(growth.product_monotone and growth.bound_holds and crossing_ok
                and dive.anchor_speed_monotone
                and all(r["increment"] > 0.0 for r in dive.rows))


def paper_examples(seed: int, *, names=None, variants=PATHOLOGY_VARIANTS,
                   growth_kw=None, divergence_kw=None,
                   flow_points: int = 100_000) -> list:
    rng = np.random.default_rng(seed)
    names = lib.registry.example_names() if names is None else names
    out = [RegistryInstance(n, quiet(lib.registry.get_example, n),
                            rng.random(flow_points))
           for n in names]
    out += [PathologyInstance(f"pathology-{v}", v, dict(growth_kw or {}),
                              dict(divergence_kw or {}))
            for v in variants]
    return out


# ======================================================================
# random-pl: generic piecewise-linear pairs
# ======================================================================

def random_pl_density(rng) -> PiecewiseDensity:
    """3 to 8 nodes, gaps and node densities uniform, normalised to mass 1."""
    n = int(rng.integers(3, 9))
    x = np.cumsum(rng.uniform(0.2, 1.0, n)) + rng.uniform(-1.0, 1.0)
    d = rng.uniform(0.2, 1.0, n)
    mass = float(np.sum(0.5 * (d[:-1] + d[1:]) * np.diff(x)))
    return PiecewiseDensity(x, d / mass)


@dataclass
class PairInstance:
    name: str
    m0: object
    m1: object
    u: np.ndarray

    def run(self, bench) -> Outcome:
        out = Outcome(self.name)
        with _solving(bench, out):
            T = quiet(lib.monotone.compute_monotone_map, self.m0, self.m1)
            t0 = time.perf_counter()
            fld = quiet(lib.velocity.build_velocity, self.m0, self.m1,
                        transport_map=T)
            out.build_s = time.perf_counter() - t0
            rep = quiet(lib.flow.verify_transport, fld, self.m0, self.m1)
        if out.failed:
            return out
        _record_report(out, rep)
        with bench.span("bench.flow"):
            _flow_query(out, lambda t, x: quiet(lib.flow.flow, fld, t, x),
                        _field_cloud(fld, self.u))
        return out


def random_pl(seed: int, *, n_pairs: int = RANDOM_PL_PAIRS,
              flow_points: int = 10_000) -> list:
    recipe = np.random.default_rng(RANDOM_PL_RECIPE_SEED)
    pairs = [(random_pl_density(recipe), random_pl_density(recipe))
             for _ in range(n_pairs)]
    rng = np.random.default_rng(seed)
    return [PairInstance(f"pl-{i:02d}", *pairs[i], rng.random(flow_points))
            for i in rng.permutation(n_pairs)]


# ======================================================================
# sudakov: ray reduction in d = 2
# ======================================================================

def _product(*factors):
    return lib.sudakov.ProductMeasure(tuple(factors))


SUDAKOV_PAIRS = (
    ("balls", lambda: (lib.sudakov.BallMeasure((0.0, 0.0), 1.0),
                       lib.sudakov.BallMeasure((0.0, 0.0), 2.0))),
    ("gauss-x-uniform", lambda: (_product(Gaussian(0.0, 1.0), Uniform(0.0, 1.0)),
                                 _product(Gaussian(0.0, 1.0), Uniform(1.0, 3.0)))),
    ("uniform-x-gauss", lambda: (_product(Uniform(0.0, 1.0), Gaussian(0.0, 1.0)),
                                 _product(Uniform(0.0, 1.0), Gaussian(1.0, 2.0)))),
    ("mixed", lambda: (_product(Gaussian(0.0, 1.0), Uniform(0.0, 1.0)),
                       _product(Gaussian(0.0, 1.0), Gaussian(1.0, 2.0)))),
)


@dataclass
class NdInstance:
    name: str
    m0: object
    m1: object
    points: np.ndarray
    verify_kw: dict

    def run(self, bench) -> Outcome:
        out = Outcome(self.name)
        S = lib.sudakov
        with _solving(bench, out):
            fam = quiet(S.decompose, self.m0, self.m1)
            t0 = time.perf_counter()
            fnd = quiet(S.assemble_field, fam)
            out.build_s = time.perf_counter() - t0
            rep = quiet(S.verify_nd, fnd, **self.verify_kw)
        if out.failed:
            return out
        if not rep.ok:
            failing = sorted(k for k, ok in rep.checks.items() if not ok)
            out.failed, out.reason = True, "verification: " + ", ".join(failing)
        out.w1 = max(rep.per_ray_w1_max, rep.sliced_w1_max)
        with bench.span("bench.flow"):
            y1, yh = _flow_query(out, lambda t, x: quiet(fnd.flow, t, x), self.points)
        with bench.span("bench.check"):
            out.julia = quiet(lib.velocity.julia_residual, fnd.field)["max_rel"]
            y2 = quiet(fnd.flow, 0.5, yh)
            ok = np.all(np.isfinite(y1), axis=1) & np.all(np.isfinite(y2), axis=1)
            out.time = float(np.max(np.abs(y2[ok] - y1[ok]), initial=0.0))
        return out


def sudakov(seed: int, *, pairs=SUDAKOV_PAIRS, verify_kw=None,
            flow_points: int = 50_000) -> list:
    rng = np.random.default_rng(seed)
    verify_kw = {"seed": seed, **(verify_kw or {})}
    out = []
    for name, make in pairs:
        m0, m1 = make()
        pts = m0.sample_from_uniform(rng.random((flow_points, m0.n_uniform_columns)))
        out.append(NdInstance(name, m0, m1, pts, dict(verify_kw)))
    return out


GENERATORS = {
    "paper-examples": paper_examples,
    "random-pl": random_pl,
    "sudakov": sudakov,
}


def make_inputs(workload: str, seed: int) -> list:
    return GENERATORS[workload](seed)

