"""Start-up contract: a CLI call imports only the pairkit modules its verb
runs, `json` only for `--json`, `fractions` (with `decimal`) only where a
rational is not an integer, and the package resolves its exported names on
first access, so `import pairkit` loads no submodule."""

import importlib
import re
import subprocess
import sys

import pytest

import pairkit

from conftest import PROBLEMS, ROOT, child_env

# `python -m pairkit <argv>`, writing the names in sys.modules to a file at exit
PROBE = """
import atexit, runpy, sys
out, sys.argv = sys.argv[1], ["pairkit", *sys.argv[2:]]
atexit.register(lambda: open(out, "w").write(" ".join(sorted(sys.modules))))
runpy.run_module("pairkit", run_name="__main__", alter_sys=True)
"""

CORE = {"cli", "errors", "report"}
PARSE = CORE | {"problem", "poly", "actions", "groups", "fields", "orders"}
ENDO = PARSE | {"gbasis"}
PAIR = ENDO | {"pairs", "linalg"}
EVERYTHING = PAIR | {"invariants"}


def prob(name):
    return str(PROBLEMS / name)


VERBS = [
    (["mukai", "9", "3"], 0, CORE),
    (["mukai", "9", "3", "--frobnicate"], 2, CORE),     # an argparse error
    (["check-group", prob("heisenberg.prob")], 0, PARSE),
    (["check-action", prob("e1.prob")], 0, PARSE),
    (["semi-invariant", prob("gm_diag.prob"), "--g", "x", "--h", "y", "--e", "1",
      "--q", "0"], 0, PARSE),
    (["check-endo", prob("e2.prob")], 0, ENDO),
    (["check-pair", prob("e1.prob"), "--pair", "1"], 0, PAIR),
    (["trdeg", prob("e1.prob"), "--pair", "1"], 0, PAIR),
    (["fppf", prob("e2.prob"), "--pair", "1"], 0, PAIR),
    (["pedestal", prob("e1_stable.prob")], 0, PAIR),
    (["stable", prob("e1_stable.prob")], 0, PAIR),
    (["invariants", prob("e1.prob"), "--pair", "1"], 0, EVERYTHING),
    (["factor", prob("e2.prob")], 0, EVERYTHING),
    (["cross-section", prob("e1.prob"), "--pair", "1"], 0, EVERYTHING),
    (["nagata", "2", "1", "--points", "{points}"], 0, EVERYTHING),
]


def loaded_names(tmp_path, argv):
    """(exit code, every module name in sys.modules at exit) of one call in
    a fresh interpreter."""
    points = tmp_path / "points.txt"
    points.write_text("1\n2\n", encoding="utf-8")
    out = tmp_path / "modules.txt"
    argv = [arg.format(points=points) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), *argv],
                          capture_output=True, text=True, timeout=60, env=child_env())
    assert "Traceback" not in proc.stderr, proc.stderr
    names = out.read_text(encoding="utf-8").split()
    assert "pairkit" in names
    return proc.returncode, set(names)


def loaded(tmp_path, argv):
    """(exit code, the pairkit modules and whether json was loaded) of one
    call in a fresh interpreter."""
    code, names = loaded_names(tmp_path, argv)
    ours = {name.removeprefix("pairkit.") for name in names if name.startswith("pairkit.")}
    return code, ours, "json" in names


@pytest.mark.parametrize("argv,code,modules", VERBS,
                         ids=[argv[0] if code == 0 else "argparse-error"
                              for argv, code, _ in VERBS])
def test_a_verb_loads_only_its_modules(tmp_path, argv, code, modules):
    assert loaded(tmp_path, argv) == (code, modules, False)


# calls whose coefficients are all integers: a Q group law, and the F_p calls
INTEGRAL = [["mukai", "9", "3"], ["check-group", prob("heisenberg.prob")],
            ["check-endo", prob("e2.prob")], ["check-pair", prob("e2.prob"), "--pair", "1"],
            ["fppf", prob("e2.prob"), "--pair", "1"], ["factor", prob("e2.prob")]]


@pytest.mark.parametrize("argv", INTEGRAL, ids=[argv[0] for argv in INTEGRAL])
def test_integral_calls_load_no_fractions(tmp_path, argv):
    code, names = loaded_names(tmp_path, argv)
    assert code == 0
    assert names & {"fractions", "decimal"} == set()


def test_json_is_loaded_for_json_reports_only(tmp_path):
    assert loaded(tmp_path, ["mukai", "9", "3", "--json"]) == (0, CORE, True)


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pairkit\n"
         "print(sorted(m for m in sys.modules if m.startswith('pairkit')))"],
        capture_output=True, text=True, timeout=60, env=child_env(), check=True)
    assert proc.stdout == "['pairkit']\n"


# every name the package exported when it imported its submodules eagerly,
# under its defining module
EXPORTED = {
    "actions": ["CoAction", "GmCoAction", "gm_weight_components", "is_semi_invariant",
                "validate_action"],
    "cli": ["mukai_predicate"],
    "errors": ["AlgebraError", "InternalCheckError", "PairkitError", "ParseError",
               "UnsupportedMethodError", "ValidationError"],
    "fields": ["QQ", "FieldSpec"],
    "gbasis": ["GroebnerBasis", "Ideal", "eliminate", "groebner", "ideal_dimension",
               "normal_form", "saturate"],
    "groups": ["Endomorphism", "GroupLaw", "compose_endomorphisms", "is_surjective",
               "kernel_ideal", "validate_endomorphism", "validate_group_law"],
    "invariants": ["InvariantBasis", "NagataSpec", "cross_section_ideal",
                   "dixmier_generators", "factor_through_kernel", "nagata_build",
                   "nagata_oracle_invariants", "relations_presentation",
                   "verify_generators"],
    "linalg": ["ExactMatrix", "jacobian_rank"],
    "orders": ["GREVLEX", "LEX", "BlockOrder"],
    "pairs": ["AlphaPair", "build_fppf_cover", "check_alpha_pair",
              "check_pair_identity", "is_affine_stable", "kernel_acts_trivially",
              "pair_from_problem", "pedestal_ideal_from_pairs", "transcendence_degree"],
    "poly": ["Polynomial", "PolyRing", "RationalFunction"],
    "problem": ["ProblemFile", "parse_polynomial", "parse_problem", "parse_rational",
                "render", "render_problem"],
}
NAMES = [name for names in EXPORTED.values() for name in names]


def test_every_exported_name_is_its_modules_object():
    wrong = [f"{module}.{name}" for module, names in EXPORTED.items() for name in names
             if getattr(pairkit, name)
             is not getattr(importlib.import_module(f"pairkit.{module}"), name)]
    assert wrong == []


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from pairkit import *", namespace)
    assert sorted(pairkit.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) <= set(dir(pairkit))
    assert pairkit.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pairkit.no_such_name
    with pytest.raises(ImportError):
        exec("from pairkit import no_such_name", {})


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"```python\n(from pairkit import .*?)```", readme, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, env=child_env(), check=True)
    assert proc.stdout == "['z1', '0'] z1\n"
