"""The benchmark's tracer rebinds pairkit functions by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util

from conftest import ROOT


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.TRACED
    for mod, attr_path in tracing.TRACED:
        owner = importlib.import_module(f"pairkit.{mod}")
        for part in attr_path.split("."):
            assert hasattr(owner, part), f"pairkit.{mod}.{attr_path}"
            owner = getattr(owner, part)
        assert callable(owner), f"pairkit.{mod}.{attr_path}"
