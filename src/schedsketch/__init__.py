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

Importing the package imports none of its modules: each public name
below imports its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the public names it gives the package
    "core": ("AlgoParams", "DerivedParams", "GeometricBuckets", "buckets_for", "derive_params"),
    "errors": ("CycleSuspicionError", "InputContractError", "InvariantViolationError", "ParamError",
               "SketchInfeasibleError"),
    "generators": ("alpha_mixed", "chain", "generate", "layered", "random_dag"),
    "model": ("Arc", "Instance", "Job", "RunReport", "ScheduleSketch"),
    "oracles": ("compute_depths", "critical_path_length", "exact_makespan", "list_schedule"),
    "sampling": ("ArrayAccess", "ChainAccess", "CountingAccess", "TwoValueAccess", "estimate_counts",
                 "estimate_wmax", "rand_approx_alpha", "rand_approx_bounded"),
    "schedule": ("ConcreteSchedule", "Violation", "schedule_instance", "sketch_to_schedule", "validate_schedule"),
    "sketch": ("DepthTable", "TreeSketch", "sketch_to_json"),
    "streaming": ("stream_alpha_known", "stream_alpha_unknown", "stream_known", "stream_unknown"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
