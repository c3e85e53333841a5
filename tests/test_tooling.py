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


def picked(argv):
    """The n = 6 calls of nagata-q and the vector-2 calls of vector-fp."""
    return argv[:3] == ("mukai", "6", "3") or any(
        stem in arg for arg in argv for stem in ("nagata-6.", "vector-2"))


def test_benchmark_workloads_build_and_pass(tmp_path, monkeypatch):
    """Smoke run of the benchmark: the nagata-q and vector-fp inputs (seed 3)
    are generated, and the set-up calls plus the picked round calls give the
    outcomes the benchmark expects, run in process."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    calls = importlib.import_module("calls")
    workloads = importlib.import_module("workloads")
    ran = 0
    for name in ("nagata-q", "vector-fp"):
        work = tmp_path / name
        work.mkdir()
        workload = workloads.build(name, work, 3)
        for call in workload.setup + [c for c in workload.round if picked(c.argv)]:
            outcome = calls.run_in_process(call)
            assert calls.problems(call, outcome) == [], call.label()
            ran += 1
    # 8 + 4 set-up calls, 5 for Nagata n = 6, 7 for vector-2
    assert ran == 24
