"""Shared numerical configuration.

One frozen dataclass carries the tolerances and budgets that callers set or
read, so a run is reproducible from its config alone.  Relative quantities
(fixed point tolerance, interval floor) are scaled by the working interval
width at the point of use; absolute quantities are used as-is.  Fixed
numerical choices that no caller varies live as private constants next to
their one use: the slope-1 window of fixed point detection in monotone, and
the orbit step floor and the node counts per orbit piece in velocity.
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
    # hard cap on the orbit march depth (the number of lockstep rounds)
    orbit_max_steps: int = 10 ** 6
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
