"""Autonomous velocity fields realizing monotone transport between measures."""

from .config import DEFAULT_CONFIG, BuildConfig
from .errors import (ConstructionError, DegenerateOrbitError, InputError,
                     InvalidMapError, MeasureSpecError, NormalizationError,
                     SearchFailureError, SeedSignError, TransportError,
                     UnsupportedDecompositionError)
from .measures import (AffineImage, Gaussian, Measure1D, PiecewiseDensity,
                       Uniform, l1_distance, parse_measure, pushforward_by_map,
                       translate, wasserstein1)
from .monotone import (FixedPointPartition, MonotoneMap, MovingInterval,
                       compute_monotone_map, find_fixed_points,
                       map_from_callables)
from .velocity import (VelocityField1D, approximate_lipschitz, build_velocity,
                       julia_residual)
from .flow import flow, push_measure, verify_transport
from .pathology import (build_counterexample, probe_non_integrability,
                        probe_velocity_growth)
from .sudakov import (BallMeasure, ProductMeasure, RadiusLaw, VelocityFieldND,
                      assemble_field, decompose, measure_nd_to_dict,
                      parse_measure_nd, per_ray_monotone_map, translate_nd,
                      verify_nd)
from .registry import ExampleProblem, example_names, get_example

__version__ = "0.1.0"
