"""The benchmark's tracer patches package attributes by name; uninstalling it restores every one.

Tier-1 runs no traced benchmark, so this is where a renamed or deleted
attribute that the tracer wraps shows up.
"""

import importlib.util
import inspect
from pathlib import Path

from schedsketch import cli, core, fileio, sampling, schedule, sketch, streaming

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _snapshot() -> dict:
    """A copy of every namespace the tracer may patch: modules, their classes and the algorithm tables."""
    out = {"STREAMING_ALGORITHMS": dict(streaming.STREAMING_ALGORITHMS),
           "SAMPLING_ALGORITHMS": dict(sampling.SAMPLING_ALGORITHMS)}
    for mod in (cli, core, fileio, sampling, schedule, sketch, streaming):
        out[mod.__name__] = dict(vars(mod))
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__.startswith("schedsketch."):
                out[f"{obj.__module__}.{obj.__qualname__}"] = dict(vars(obj))
    return out


def _changed(before: dict, after: dict) -> set:
    return {
        (space, name)
        for space in before.keys() | after.keys()
        for name in before.get(space, {}).keys() | after.get(space, {}).keys()
        if before.get(space, {}).get(name) is not after.get(space, {}).get(name)
    }


def test_tracer_install_then_uninstall_restores_every_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    before = _snapshot()
    tracer.install()  # fails on a name it patches that the package no longer has
    try:
        patched = _changed(before, _snapshot())
    finally:
        tracer.uninstall()
    assert {
        ("schedsketch.sketch.DepthTable", "insert"),
        ("schedsketch.sketch.TreeSketch", "add"),
        ("schedsketch.sketch.TreeSketch", "move"),
        ("schedsketch.sketch.TreeSketch", "prune_smallest"),
        ("schedsketch.sketch.TreeSketch", "depth_loads"),
        ("schedsketch.fileio", "iter_stream"),
        ("STREAMING_ALGORITHMS", "stream4"),
    } <= patched
    assert _changed(before, _snapshot()) == set()
