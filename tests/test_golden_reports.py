"""Whole-report regression: every shipped problem under eight CLI verbs.

The golden file pins stdout and the exit code of each call byte for byte,
where the verb tests only check substrings.  Regenerate it deliberately,
after a change that is meant to alter a report, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys

import pytest

from conftest import PROBLEMS, ROOT

from pairkit.cli import run

GOLDEN = ROOT / "tests" / "golden_reports.json"
VERBS = (
    ("check-pair", "--pair", "1"),
    ("trdeg", "--pair", "1"),
    ("invariants", "--pair", "1", "--relations"),
    ("fppf", "--pair", "1"),
    ("cross-section", "--pair", "1"),
    ("factor",),
    ("pedestal",),
    ("stable",),
)
PROBLEM_NAMES = sorted(p.name for p in PROBLEMS.glob("*.prob"))


def call_key(name, verb):
    return " ".join([verb[0], name, *verb[1:]])


def run_call(name, verb):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([verb[0], str(PROBLEMS / name), *verb[1:]])
    return {"exit": code, "stdout": out.getvalue()}


def collect():
    return {call_key(name, verb): run_call(name, verb)
            for name in PROBLEM_NAMES for verb in VERBS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_call(golden):
    assert sorted(golden) == sorted(call_key(n, v)
                                    for n in PROBLEM_NAMES for v in VERBS)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("verb", VERBS, ids=lambda v: v[0])
def test_report_matches_golden(golden, name, verb):
    assert run_call(name, verb) == golden[call_key(name, verb)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
