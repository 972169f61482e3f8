"""Shared numerical configuration.

One frozen dataclass carries every tolerance and budget used by the builders, so a
run is reproducible from its config alone.  Relative quantities (orbit step floor,
fixed point tolerance) are scaled by the working interval width at the point of
use; absolute quantities are used as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class BuildConfig:
    # mass truncated from each unbounded tail when windowing a support
    eps_tail: float = 1e-10
    # fixed point detection: grid resolution and |T(x) - x| threshold rel. to width
    fixed_point_grid: int = 2 ** 14
    fixed_point_tol_rel: float = 1e-10
    # slope window around 1 below which a fixed point is flagged indeterminate
    indeterminate_slope_tol: float = 1e-8
    # orbit march stops, applied to each march on its own while all marches
    # advance together one depth per round: step floor relative to width, and
    # a hard cap on the depth (the number of rounds)
    orbit_min_step_rel: float = 1e-12
    orbit_max_steps: int = 10 ** 6
    # interpolation nodes per orbit piece; from depth deep_piece_depth on, a
    # march's tables are thinned to deep_piece_nodes to save memory and to
    # keep each round's concatenated map call small
    nodes_per_piece: int = 64
    deep_piece_nodes: int = 12
    deep_piece_depth: int = 64
    # verification tolerances
    tol_julia: float = 1e-8
    tol_time: float = 1e-6
    # minimum built-interval width relative to the working width; narrower moving
    # intervals (sub-resolution, e.g. near an accumulation of fixed points) are
    # recorded but left unbuilt
    min_interval_rel: float = 1e-9

    def with_(self, **kw) -> "BuildConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


DEFAULT_CONFIG = BuildConfig()
