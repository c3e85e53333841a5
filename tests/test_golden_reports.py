"""Whole-report regression: every shipped problem under twelve CLI verbs,
`invariants --relations` on a generated Nagata (5, 3) problem, and a table
of inline problems whose law, action or endomorphism fails.

The golden files pin stdout and the exit code of each call byte for byte,
where the verb tests only check substrings.  Every shipped problem passes
its validators, so the failing table is what pins the witness texts: apart
from the copies of the benchmark's one-coordinate bad-* files, each of its
problems has two or more coordinates, and a later coordinate is the first
to fail.  Regenerate both files deliberately, after a change that is meant
to alter a report, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import PROBLEMS, ROOT

from pairkit.cli import run

GOLDEN = ROOT / "tests" / "golden_reports.json"
GOLDEN_FAILURES = ROOT / "tests" / "golden_failures.json"
VERBS = (
    ("check-pair", "--pair", "1"),
    ("trdeg", "--pair", "1"),
    ("invariants", "--pair", "1", "--relations"),
    ("fppf", "--pair", "1"),
    ("cross-section", "--pair", "1"),
    ("factor",),
    ("pedestal",),
    ("stable",),
    ("check-group",),
    ("check-action",),
    ("check-endo",),
    ("semi-invariant", "--g", "x", "--h", "y", "--e", "1", "--q", "0"),
)
PROBLEM_NAMES = sorted(p.name for p in PROBLEMS.glob("*.prob"))
# (problem, verb) calls beyond the VERBS table: x^2 - y + x is x in the ring of
# gm_quotient.prob, so a semi-invariant of weight 1 there, but not in Q[x, y]
EXTRA_CALLS = (
    ("gm_quotient.prob",
     ("semi-invariant", "--g", "x^2 - y + x", "--h", "1", "--e", "1", "--q", "1")),
)
# a `--relations` presentation of ten generators, on a problem that `nagata`
# generates from these points
NAGATA_KEY = "invariants nagata-5-3 --pair 1 --relations"
NAGATA_POINTS = "1 0 0\n0 1 0\n0 0 1\n1 1 1\n1 2 3\n"

HEAD = "field Q\nring z1 z2\n"
VECTOR2 = ("group dim 2 coords t1 t2\nmult t1 = a1 + b1\nmult t2 = a2 + b2\n"
           "inv t1 = -t1\ninv t2 = -t2\n")
HEISENBERG = ("group dim 3 coords t1 t2 t3\nmult t1 = a1 + b1\nmult t2 = a2 + b2\n"
              "mult t3 = a3 + b3 + a1*b2\ninv t1 = -t1\ninv t2 = -t2\n")
REGULAR3 = "act z1 = z1 + t1\nact z2 = z2 + t2\nact z3 = z3 + t3 + t1*z2\n"
# name -> (verb, problem text)
FAILING = {
    "associativity": ("check-group", HEAD + (
        "group dim 3 coords t1 t2 t3\nmult t1 = a1 + b1\nmult t2 = a2 + b2 + a1*b1\n"
        "mult t3 = a3 + b3 + a1^2*b1\ninv t1 = -t1\ninv t2 = -t2 + t1^2\n"
        "inv t3 = -t3 + t1^3\nact z1 = z1\nact z2 = z2\n")),
    "inverse": ("check-group", HEAD + (
        "group dim 2 coords t1 t2\nmult t1 = a1 + b1\nmult t2 = a2 + b2 + a1*b1\n"
        "inv t1 = -t1\ninv t2 = -t2 - t1^2\nact z1 = z1\nact z2 = z2\n")),
    "inverse-heisenberg": ("check-group", "field Fp 3\nring z1 z2 z3\n" + HEISENBERG
                           + "inv t3 = -t3\n" + REGULAR3),
    "identity-left": ("check-group", HEAD + (
        "group dim 2 coords t1 t2\nmult t1 = a1 + b1\nmult t2 = a2 + b2 + a1^2\n"
        "inv t1 = -t1\ninv t2 = -t2\nact z1 = z1\nact z2 = z2\n")),
    "identity-right": ("check-group", HEAD + (
        "group dim 2 coords t1 t2\nmult t1 = a1 + b1\nmult t2 = a2 + b2 + b1^2\n"
        "inv t1 = -t1\ninv t2 = -t2 - t1^2\nact z1 = z1\nact z2 = z2\n")),
    "linear-part": ("check-group", "field Fp 5\nring z1 z2\n" + (
        "group dim 2 coords t1 t2\nmult t1 = a1 + b1\nmult t2 = a2 + 3*b2 + a1*b1\n"
        "inv t1 = -t1\ninv t2 = -t2\nact z1 = z1\nact z2 = z2\n")),
    "action-unit": ("check-action", HEAD + (
        "group dim 1 coords t\nmult t = a1 + b1\ninv t = -t\n"
        "act z1 = z1 + t\nact z2 = z2 + 1 + t*z1\n")),
    "action-compatibility": ("check-action", HEAD + (
        "group dim 1 coords t\nmult t = a1 + b1\ninv t = -t\n"
        "act z1 = z1 + t\nact z2 = z2 + t^2\n")),
    "action-compatibility-fresh-names": ("check-action", "field Q\nring a z\n" + (
        "group dim 1 coords t\nmult t = a1 + b1\ninv t = -t\n"
        "act a = a\nact z = z + t^2*a\n")),
    "action-compatibility-dim2": ("check-action", HEAD + VECTOR2 + (
        "act z1 = z1 + t1\nact z2 = z2 + t2 + t1*t2\n")),
    "endo-compatibility": ("check-endo", "field Q\nring z1 z2 z3\n" + HEISENBERG
                           + "inv t3 = -t3 + t1*t2\nendo t1 = t1\nendo t2 = t2\n"
                           "endo t3 = 2*t3\n" + REGULAR3),
    "endo-compatibility-f2": ("check-endo", "field Fp 2\nring z1 z2\n" + VECTOR2 + (
        "endo t1 = t1\nendo t2 = t2 + t1^3\nact z1 = z1 + t1\nact z2 = z2 + t2\n")),
    "endo-origin": ("check-endo", HEAD + VECTOR2 + (
        "endo t1 = t1\nendo t2 = t2 + 1\nact z1 = z1 + t1\nact z2 = z2 + t2\n")),
    "gm-unit": ("check-action", "field Q\nring x y\ngmact x = x\ngmact y = w*y + 1\n"),
    "gm-compatibility": ("check-action",
                         "field Q\nring x y\ngmact x = x\ngmact y = w*y + w^2*x - x\n"),
    # copies of the bad-* files of the benchmark's unipotent-desk corpus
    "bad-law": ("check-group", "field Q\nring z\ngroup dim 1 coords t\n"
                "mult t = a1 + b1 + a1*b1\ninv t = -t\nact z = z\n"),
    "bad-action": ("check-action", "field Q\nring z\ngroup dim 1 coords t\n"
                   "mult t = a1 + b1\ninv t = -t\nact z = z + t*z\n"),
    "bad-endo": ("check-endo", "field Q\nring z\ngroup dim 1 coords t\n"
                 "mult t = a1 + b1\ninv t = -t\nendo t = t^2\nact z = z\n"),
}


def call_key(name, verb):
    return " ".join([verb[0], name, *verb[1:]])


def run_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"exit": code, "stdout": out.getvalue()}


def run_call(name, verb, *flags):
    return run_argv([verb[0], str(PROBLEMS / name), *verb[1:], *flags])


def run_failing(directory: Path, name, *flags):
    verb, text = FAILING[name]
    path = directory / f"{name}.prob"
    path.write_text(text, encoding="utf-8")
    return run_argv([verb, str(path), *flags])


def run_nagata(directory: Path):
    pts, prob = directory / "nagata-5-3.pts", directory / "nagata-5-3.prob"
    pts.write_text(NAGATA_POINTS, encoding="utf-8")
    emitted = run_argv(["nagata", "5", "3", "--points", str(pts), "--emit", str(prob)])
    if emitted["exit"] != 0:
        raise AssertionError(emitted["stdout"])
    return run_argv(["invariants", str(prob), "--pair", "1", "--relations"])


def collect(directory: Path):
    golden = {call_key(name, verb): run_call(name, verb)
              for name in PROBLEM_NAMES for verb in VERBS}
    golden.update((call_key(name, verb), run_call(name, verb)) for name, verb in EXTRA_CALLS)
    golden[NAGATA_KEY] = run_nagata(directory)
    return golden


def collect_failing(directory: Path):
    return {name: run_failing(directory, name) for name in FAILING}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_failures():
    return json.loads(GOLDEN_FAILURES.read_text(encoding="utf-8"))


def test_golden_covers_every_call(golden):
    assert sorted(golden) == sorted([call_key(n, v) for n in PROBLEM_NAMES for v in VERBS]
                                    + [call_key(n, v) for n, v in EXTRA_CALLS]
                                    + [NAGATA_KEY])


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("verb", VERBS, ids=lambda v: v[0])
def test_report_matches_golden(golden, name, verb):
    assert run_call(name, verb) == golden[call_key(name, verb)]


@pytest.mark.parametrize("name, verb", EXTRA_CALLS,
                         ids=[call_key(name, verb) for name, verb in EXTRA_CALLS])
def test_extra_call_matches_golden(golden, name, verb):
    outcome = run_call(name, verb)
    assert outcome == golden[call_key(name, verb)]
    assert_json_agrees(outcome, run_call(name, verb, "--json"))


def test_nagata_relations_match_golden(golden, tmp_path):
    assert run_nagata(tmp_path) == golden[NAGATA_KEY]


def test_golden_failures_cover_the_table(golden_failures):
    assert sorted(golden_failures) == sorted(FAILING)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_validator_matches_golden(golden_failures, tmp_path, name):
    outcome = run_failing(tmp_path, name)
    assert outcome["exit"] == 1
    assert outcome == golden_failures[name]


def contract_exit(stdout):
    """The exit code that the contract gives a call with this stdout."""
    if not stdout:
        return 2
    return {"status: ok": 0, "status: check-failed": 1}[stdout.splitlines()[-1]]


def test_exit_code_follows_the_status_line(golden, golden_failures):
    outcomes = {**golden, **golden_failures}
    expected = {key: contract_exit(o["stdout"]) for key, o in outcomes.items()}
    assert {key: o["exit"] for key, o in outcomes.items()} == expected
    assert set(expected.values()) == {0, 1, 2}


def assert_json_agrees(text_outcome, json_outcome):
    """The --json call has the text call's exit code, its keys in order of
    first occurrence, and at every text line the JSON value of its key."""
    assert json_outcome["exit"] == text_outcome["exit"]
    if not text_outcome["stdout"]:
        assert json_outcome["stdout"] == ""
        return
    items = [line.split(": ", 1) for line in text_outcome["stdout"].splitlines()]
    data = json.loads(json_outcome["stdout"])
    assert list(data) == list(dict.fromkeys(key for key, _ in items))
    for key, value in items:
        assert value == (data[key] if isinstance(data[key], str) else str(data[key])), key


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("verb", VERBS, ids=lambda v: v[0])
def test_json_report_agrees_with_text(golden, name, verb):
    assert_json_agrees(golden[call_key(name, verb)], run_call(name, verb, "--json"))


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_json_report_agrees_with_text(golden_failures, tmp_path, name):
    assert_json_agrees(golden_failures[name], run_failing(tmp_path, name, "--json"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        golden = collect(Path(scratch))
        failing = collect_failing(Path(scratch))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    GOLDEN_FAILURES.write_text(json.dumps(failing, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN} and {GOLDEN_FAILURES}\n")
