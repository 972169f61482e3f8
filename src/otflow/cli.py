"""Command line front end tying the pipeline together.

Subcommands: map (monotone map table), field (velocity table, optionally the
shifted Lipschitz variant via --eps), flow (trajectory table from one start
point), verify (build a pair and emit the verification report), example (run a
named registry problem end to end), pathology (counterexample tables), sudakov
(ray decomposition in d >= 2 with seeded Monte-Carlo verification).

Measure specs are JSON, inline or by file path.  Outputs land in --out (default
$OTFLOW_OUT or ./otflow-out) as CSV tables with fixed columns -- (x, T, Tp),
(x, v), (t, phi) -- plus a versioned report.json; sudakov writes report.json
only.  Runs are deterministic:
fixed config and seed give byte-identical files.  Exit codes: 0 success, 1
verification failure (report still written), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import DEFAULT_CONFIG, BuildConfig
from .errors import InputError, MeasureSpecError, TransportError
from .flow import flow as flow_map, verify_transport
from .measures import measure_to_dict, parse_measure
from .monotone import compute_monotone_map
from .pathology import (build_counterexample, probe_non_integrability,
                        probe_velocity_growth)
from .registry import example_names, get_example
from .sudakov import (assemble_field, decompose, measure_nd_to_dict,
                      parse_measure_nd, verify_nd)
from .velocity import SEED_KINDS, approximate_lipschitz, build_velocity

_SCHEMA_VERSION = 1
_OUT_ENV = "OTFLOW_OUT"
_FLOW_ROWS_CAP = 256  # trajectory tables stay readable even at large --n


# ======================================================================
# run settings
# ======================================================================

def _check(args: argparse.Namespace):
    """Validate the settings argparse leaves open, among the flags the
    command has: --n a power of two at least 16, positive tolerances and
    --eps, finite --x0 and --t, a non-negative --seed.  InputError otherwise."""
    n = getattr(args, "n", None)
    if n is not None and (n < 16 or (n & (n - 1)) != 0):
        raise InputError(f"--n must be a power of two >= 16, got {n}")
    for key, need in (("tol_julia", "positive"), ("tol_time", "positive"),
                      ("eps", "positive"), ("x0", "finite"), ("t", "finite")):
        val = getattr(args, key, None)
        if val is None:
            continue
        if not (np.isfinite(val) and (need == "finite" or val > 0.0)):
            raise InputError(f"--{key.replace('_', '-')} must be {need}, got {val}")
    if getattr(args, "seed", 0) < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")


def _build_config(args) -> BuildConfig:
    return DEFAULT_CONFIG.with_(tol_julia=args.tol_julia, tol_time=args.tol_time)


# ======================================================================
# file writing
# ======================================================================

def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _jsonable(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(u) for u in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(u) for k, u in v.items()}
    return v


def _write(out_dir: str, name: str, body: str) -> str:
    """Write body as out_dir/name, making out_dir on the first write, so a
    command that fails before it writes leaves no directory behind."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)
    return path


def write_table(out_dir: str, name: str, header: list[str], rows, fmt: str) -> str:
    """Write one table as name.csv or name.json; returns the path written."""
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        body = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(header, (_jsonable(v) for v in row))) for row in rows]
        body = json.dumps(records, sort_keys=True, indent=2) + "\n"
    return _write(out_dir, f"{name}.{fmt}", body)


def write_report(out_dir: str, payload: dict) -> str:
    payload = dict(payload)
    payload.setdefault("schema_version", _SCHEMA_VERSION)
    return _write(out_dir, "report.json",
                  json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _grid(args, m) -> np.ndarray:
    lo, hi = m.window(DEFAULT_CONFIG.eps_tail)
    return np.linspace(lo, hi, args.n)


def _write_map(args, T, m0):
    xs = _grid(args, m0)
    write_table(args.out, "map", ["x", "T", "Tp"],
                zip(xs, np.asarray(T.forward(xs), dtype=float),
                    np.asarray(T.derivative(xs), dtype=float)), args.fmt)


def _write_field(args, field):
    xs = np.linspace(field.domain[0], field.domain[1], args.n)
    write_table(args.out, "field", ["x", "v"], zip(xs, field(xs)), args.fmt)


def _write_flow(args, field, x0: float, t_final: float) -> int:
    """Trajectory table of x0 over [0, t_final]; returns its row count."""
    ts = np.linspace(0.0, t_final, min(args.n, _FLOW_ROWS_CAP) + 1)
    rows = [(t, float(flow_map(field, t, np.array([x0]))[0])) for t in ts]
    write_table(args.out, "flow", ["t", "phi"], rows, args.fmt)
    return len(rows)


# ======================================================================
# subcommands
# ======================================================================

def _load_pair(args, parse=parse_measure):
    """Parse --mu0 and --mu1 (inline JSON or a file path each)."""
    pair = []
    for flag in ("mu0", "mu1"):
        try:
            pair.append(parse(getattr(args, flag)))
        except MeasureSpecError as e:
            raise MeasureSpecError(f"--{flag}: {e}") from e
    return pair


def _build_field(args, m0, m1, config: BuildConfig = DEFAULT_CONFIG):
    return build_velocity(m0, m1, seed=args.seed_kind, config=config)


def _pair_report(command: str, m0, m1, **extra) -> dict:
    return {"command": command, "mu0": measure_to_dict(m0),
            "mu1": measure_to_dict(m1), **extra}


def _verify_and_report(args, field, m0, m1, report: dict) -> int:
    """Verify field against (m0, m1), write report.json with the outcome
    under "ok" and "verification" and the field's partition, per-interval
    depths and zones under "field", and return the exit status."""
    rep = verify_transport(field, m0, m1, n_push=args.n + 1)
    write_report(args.out, {**report, "ok": rep.passed,
                            "verification": rep.to_dict(),
                            "field": field.describe()})
    return 0 if rep.passed else 1


def _cmd_map(args) -> int:
    m0, m1 = _load_pair(args)
    _write_map(args, compute_monotone_map(m0, m1), m0)
    write_report(args.out, _pair_report(
        "map", m0, m1, ok=True, n=args.n,
        window=list(m0.window(DEFAULT_CONFIG.eps_tail))))
    return 0


def _cmd_field(args) -> int:
    m0, m1 = _load_pair(args)
    extra = {}
    if args.eps is not None:
        res = approximate_lipschitz(m0, m1, args.eps, seed=args.seed_kind)
        field = res.field
        extra["approximate"] = {"eps": res.eps, "shift": res.shift,
                                "w1_target_gap": abs(res.shift),
                                "candidates_tried": res.candidates_tried}
    else:
        field = _build_field(args, m0, m1)
    _write_field(args, field)
    write_report(args.out, _pair_report(
        "field", m0, m1, ok=True, n=args.n, seed_kind=args.seed_kind,
        field=field.describe(), **extra))
    return 0


def _cmd_flow(args) -> int:
    m0, m1 = _load_pair(args)
    field = _build_field(args, m0, m1)
    x0 = float(m0.quantile(0.5)) if args.x0 is None else float(args.x0)
    t_final = float(args.t)
    n_rows = _write_flow(args, field, x0, t_final)
    write_report(args.out, _pair_report("flow", m0, m1, ok=True,
                                      seed_kind=args.seed_kind, x0=x0,
                                      t_final=t_final, n_rows=n_rows))
    return 0


def _cmd_verify(args) -> int:
    m0, m1 = _load_pair(args)
    return _verify_and_report(args, _build_field(args, m0, m1, _build_config(args)),
                              m0, m1, _pair_report("verify", m0, m1))


def _resolve_example(args) -> dict:
    """The registry parameters --alpha and --beta set.  Only the affine
    example takes them; InputError names a flag given to another."""
    kwargs = {k: float(getattr(args, k)) for k in ("alpha", "beta")
              if getattr(args, k) is not None}
    if kwargs and args.name != "affine":
        raise InputError(f"--{next(iter(kwargs))} applies to the affine example "
                         f"only, not {args.name!r}")
    return kwargs


def _cmd_example(args) -> int:
    kwargs = _resolve_example(args)
    ex = get_example(args.name, **kwargs)
    field = ex.build(seed=args.seed_kind, config=_build_config(args))
    _write_map(args, field.map, ex.m0)
    _write_field(args, field)
    for tag, m in (("density0", ex.m0), ("density1", ex.m1)):
        xd = _grid(args, m)
        write_table(args.out, tag, ["x", "pdf"], zip(xd, m.pdf(xd)), args.fmt)
    _write_flow(args, field, float(ex.m0.quantile(0.5)), 1.0)
    return _verify_and_report(args, field, ex.m0, ex.m1, {
        "command": "example", "example": args.name, "parameters": kwargs,
        "description": ex.description})


def _cmd_pathology(args) -> int:
    variant = args.variant
    names = ("quadratic", "log_squared") if variant == "both" else (variant,)
    summary, ok = {}, True
    for v in names:
        cmap = build_counterexample(v)
        growth = probe_velocity_growth(cmap)
        write_table(args.out, f"growth_{v}",
                    ["i", "alpha", "beta", "Tp", "P", "lower_bound"],
                    [(r["i"], r["alpha"], r["beta"], r["tprime"], r["product"],
                      r["lower_bound"]) for r in growth.rows], args.fmt)
        dive = probe_non_integrability(cmap)
        write_table(args.out, f"divergence_{v}",
                    ["m", "delta", "l1_partial", "increment", "l1_field",
                     "lower_bound", "anchor_speed", "clock_defect"],
                    [(r["m"], r["delta"], r["l1_partial"], r["increment"],
                      r["l1_field"], r["lower_bound"], r["anchor_speed"],
                      r["clock_defect"]) for r in dive.rows], args.fmt)
        incs = [r["increment"] for r in dive.rows]
        l1_increasing = all(i > 0.0 for i in incs)
        # the finite-index threshold crossing is certified on the quadratic
        # gaps; the slower log-squared products stay monotone and bounded
        # below but need an astronomically deeper scan to reach the same mark
        crossing_ok = (growth.crossing_index is not None
                       if v == "quadratic" else True)
        v_ok = (growth.product_monotone and growth.bound_holds
                and crossing_ok
                and dive.anchor_speed_monotone and l1_increasing)
        ok = ok and v_ok
        summary[v] = {"ok": v_ok,
                      "crossing_index": growth.crossing_index,
                      "crossing_value": growth.crossing_value,
                      "i_scanned": growth.i_scanned,
                      "product_monotone": growth.product_monotone,
                      "bound_holds": growth.bound_holds,
                      "anchor_speed_monotone": dive.anchor_speed_monotone,
                      "l1_partial_increasing": l1_increasing,
                      "levels": list(dive.levels)}
    write_report(args.out, {"command": "pathology", "ok": ok,
                            "variants": summary})
    return 0 if ok else 1


def _cmd_sudakov(args) -> int:
    m0, m1 = _load_pair(args, parse_measure_nd)
    family = decompose(m0, m1)
    field_nd = assemble_field(family)
    rep = verify_nd(field_nd, n_samples=args.n, seed=args.seed)
    # schema 2: the verification holds one per_ray_w1_max and no per-ray lists
    write_report(args.out, {"command": "sudakov", "schema_version": 2,
                            "ok": rep.ok, "mu0": measure_nd_to_dict(m0),
                            "mu1": measure_nd_to_dict(m1),
                            "decomposition": family.describe(),
                            "verification": rep.to_dict()})
    return 0 if rep.ok else 1


_DISPATCH = {"map": _cmd_map, "field": _cmd_field, "flow": _cmd_flow,
             "verify": _cmd_verify, "example": _cmd_example,
             "pathology": _cmd_pathology, "sudakov": _cmd_sudakov}


# ======================================================================
# argument parsing
# ======================================================================

def _add_common(p: argparse.ArgumentParser, *, grid: bool = True,
                tolerances: bool = True, seed_profile: bool = True,
                measures: bool = True, tables: bool = True):
    """The shared flags, each only where the command's handler reads it:
    --n (grid), --tol-julia and --tol-time (tolerances), --seed-kind
    (seed_profile), --mu0 and --mu1 (measures), --format (tables); --out
    always."""
    if grid:
        p.add_argument("--n", type=int, default=4096,
                       help="power of two >= 16 (default 4096): grid points for "
                            "map, field, verify and example; trajectory steps, "
                            "capped at 256, for flow; Monte-Carlo samples for "
                            "sudakov")
    if tolerances:
        p.add_argument("--tol-julia", type=float, default=DEFAULT_CONFIG.tol_julia,
                       help="relative residual bound for the propagation identity")
        p.add_argument("--tol-time", type=float, default=DEFAULT_CONFIG.tol_time,
                       help="absolute bound for clock/semigroup defects")
    if seed_profile:
        p.add_argument("--seed-kind", default="affine", choices=SEED_KINDS,
                       help="free profile on the seed interval: affine "
                            "(default) or cubic, C^1 at the orbit joints")
    p.add_argument("--out", default=None,
                   help=f"output directory (default ${_OUT_ENV} or ./otflow-out)")
    if tables:
        p.add_argument("--format", default="csv", choices=("csv", "json"),
                       dest="fmt", help="table format (default csv)")
    if measures:
        p.add_argument("--mu0", required=True,
                       help="source measure: JSON spec or path to one")
        p.add_argument("--mu1", required=True,
                       help="target measure: JSON spec or path to one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otflow",
        description="Autonomous velocity fields realizing monotone transport")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="monotone map table (x, T, Tp)")
    _add_common(p, tolerances=False, seed_profile=False)

    p = sub.add_parser("field", help="velocity field table (x, v)")
    _add_common(p, tolerances=False)
    p.add_argument("--eps", type=float, default=None,
                   help="build the shifted Lipschitz field within this "
                        "transport budget instead of the exact one")

    p = sub.add_parser("flow", help="trajectory table (t, phi) from one point")
    _add_common(p, tolerances=False)
    p.add_argument("--x0", type=float, default=None,
                   help="starting point (default: source median)")
    p.add_argument("--t", type=float, default=1.0,
                   help="final time (default 1)")

    p = sub.add_parser("verify", help="build a pair and emit report.json")
    _add_common(p, tables=False)

    p = sub.add_parser("example", help="run a named example end to end")
    p.add_argument("name", choices=example_names(), help="registry entry")
    p.add_argument("--alpha", type=float, default=None,
                   help="map slope for the affine example")
    p.add_argument("--beta", type=float, default=None,
                   help="map offset for the affine example")
    _add_common(p, measures=False)

    p = sub.add_parser("pathology", help="counterexample growth/divergence tables")
    p.add_argument("--variant", default="both",
                   choices=("quadratic", "log_squared", "both"))
    _add_common(p, grid=False, tolerances=False, seed_profile=False,
                measures=False)

    p = sub.add_parser("sudakov", help="ray decomposition in d >= 2")
    _add_common(p, tolerances=False, seed_profile=False, tables=False)
    p.add_argument("--seed", type=int, default=20260823,
                   help="RNG seed for the Monte-Carlo check (recorded)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.out = args.out or os.environ.get(_OUT_ENV) or "otflow-out"
    try:
        _check(args)
        return _DISPATCH[args.command](args)
    except InputError as e:
        print(f"otflow: input error: {e}", file=sys.stderr)
        return 2
    except TransportError as e:
        print(f"otflow: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
