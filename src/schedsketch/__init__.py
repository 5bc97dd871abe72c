"""Sublinear approximation schemes for bounded-depth precedence scheduling.

The package has three layers:

* one-pass streaming approximations of the optimal makespan that keep
  only a geometric (depth, bucket) counting sketch of the jobs;
* randomized sampling approximations that estimate the same sketch from
  uniform job samples, in time independent of (or much smaller than)
  the instance size;
* a second pass that expands the per-depth time sketch either kind of
  run produces into a concrete, validated schedule.

Ground truth for testing comes from an exact brute-force oracle (tiny
instances), Graham list scheduling, and instance families with known
optima.
"""

from .core import (
    AlgoParams,
    DerivedParams,
    GeometricBuckets,
    buckets_for,
    derive_params,
)
from .errors import (
    CycleSuspicionError,
    InputContractError,
    InvariantViolationError,
    ParamError,
    SketchInfeasibleError,
)
from .generators import alpha_mixed, chain, generate, layered, random_dag
from .model import Arc, Instance, Job, RunReport, ScheduleSketch
from .oracles import compute_depths, critical_path_length, exact_makespan, list_schedule
from .sampling import (
    ArrayAccess,
    ChainAccess,
    CountingAccess,
    TwoValueAccess,
    estimate_counts,
    estimate_wmax,
    rand_approx_alpha,
    rand_approx_bounded,
)
from .schedule import (
    ConcreteSchedule,
    Violation,
    schedule_instance,
    sketch_to_schedule,
    validate_schedule,
)
from .sketch import (
    DepthTable,
    TreeSketch,
    sketch_from_json,
    sketch_to_json,
)
from .streaming import (
    stream_alpha_known,
    stream_alpha_unknown,
    stream_known,
    stream_unknown,
)

__version__ = "0.1.0"

__all__ = [
    "AlgoParams",
    "Arc",
    "ArrayAccess",
    "ChainAccess",
    "ConcreteSchedule",
    "CountingAccess",
    "CycleSuspicionError",
    "DepthTable",
    "DerivedParams",
    "GeometricBuckets",
    "InputContractError",
    "Instance",
    "InvariantViolationError",
    "Job",
    "ParamError",
    "RunReport",
    "ScheduleSketch",
    "SketchInfeasibleError",
    "TreeSketch",
    "TwoValueAccess",
    "Violation",
    "alpha_mixed",
    "buckets_for",
    "chain",
    "compute_depths",
    "critical_path_length",
    "derive_params",
    "estimate_counts",
    "estimate_wmax",
    "exact_makespan",
    "generate",
    "layered",
    "list_schedule",
    "rand_approx_alpha",
    "rand_approx_bounded",
    "random_dag",
    "schedule_instance",
    "sketch_from_json",
    "sketch_to_json",
    "sketch_to_schedule",
    "stream_alpha_known",
    "stream_alpha_unknown",
    "stream_known",
    "stream_unknown",
    "validate_schedule",
]
