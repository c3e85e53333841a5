import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pairkit.problem import parse_problem  # noqa: E402

PROBLEMS = ROOT / "problems"


def child_env(**extra):
    """The caller's environment for a `python -m pairkit` child, with
    pairkit's sources on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **extra)


def load(name: str):
    return parse_problem((PROBLEMS / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def problems_dir():
    return PROBLEMS


@pytest.fixture()
def e1():
    return load("e1.prob")


@pytest.fixture()
def e1_stable():
    return load("e1_stable.prob")


@pytest.fixture()
def e2():
    return load("e2.prob")


@pytest.fixture()
def e2_frob2():
    return load("e2_frob2.prob")


@pytest.fixture()
def e2_sep():
    return load("e2_sep.prob")


@pytest.fixture()
def heisenberg():
    return load("heisenberg.prob")


@pytest.fixture()
def remark():
    return load("remark.prob")


@pytest.fixture()
def gm_diag():
    return load("gm_diag.prob")


@pytest.fixture()
def ga2_q():
    return load("ga2_q.prob")


@pytest.fixture()
def ga3_f2():
    return load("ga3_f2.prob")
