"""The benchmark's tracer rebinds pairkit functions by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks.  Also:
how the group law's product is wired and how alpha is applied is decided in
`groups.py` alone, only `gbasis.py` runs Buchberger or the reducer, which
imports neither `fractions` nor `math`, only `cli.run` writes to stdout,
`poly.py` and `linalg.py` do their coefficient arithmetic with Python's
operators rather than per-term field calls, `poly.py` alone calls its one
substitution kernel and builds tables of powers, `Polynomial` and
`RationalFunction` are the only classes with a product (a Laurent
polynomial is a fraction F / w^k), `linalg.echelon` is the one row
elimination, a pair's verdicts are set by `check_alpha_pair` alone, a
graph ideal is eliminated only on the routes the Jacobian certificate falls
back to, the relation ideal travels with the action alone,
`cli.py` and the package import no algebra module when they are loaded,
only `fields.py` imports `fractions` or divides coefficients with `/`,
a principle pair without relations is checked without Buchberger, every
function in `src/` has a caller there or is exported, fractions are
cross-multiplied only in `poly.py` and `BaseCoAction.residue`, and
`actions.py`, `pairs.py` and `invariants.py` never compare an action's
images with `==` or `!=`, and ker(alpha) is generated in `groups.py` alone."""

import ast
import importlib
import importlib.util

import pytest

from conftest import ROOT, load

from pairkit import gbasis
from pairkit.groups import validate_group_law
from pairkit.invariants import factor_through_kernel
from pairkit.pairs import check_alpha_pair, pair_from_problem
from pairkit.problem import parse_problem


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


# (module, function) pairs that build a new law from mult_var_names
LAW_BUILDERS = {("problem.py", "parse_problem"), ("invariants.py", "nagata_build")}
LAW_PARTS = {"mult", "phi"}
SUBSTITUTIONS = {"subs_poly", "subs_rational"}


def _reads_law_part(node, tainted):
    return any((isinstance(n, ast.Attribute) and n.attr in LAW_PARTS)
               or (isinstance(n, ast.Name) and n.id in tainted)
               for n in ast.walk(node))


def _bound(target):
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def _calls(node, func, tainted, out):
    """(function name, call, tainted) for every call under node, where the
    tainted names are those bound by an enclosing loop or comprehension over
    a `.mult` or `.phi` expression."""
    if isinstance(node, ast.FunctionDef):
        func, tainted = node.name, set()
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        tainted = set(tainted)
        for gen in node.generators:
            if _reads_law_part(gen.iter, tainted):
                tainted |= _bound(gen.target)
    elif isinstance(node, ast.For) and _reads_law_part(node.iter, tainted):
        _calls(node.iter, func, tainted, out)
        inner = tainted | _bound(node.target)
        for child in node.body + node.orelse:
            _calls(child, func, inner, out)
        return
    elif isinstance(node, ast.Call):
        out.append((func, node, tainted))
    for child in ast.iter_child_nodes(node):
        _calls(child, func, tainted, out)


def law_wiring_offenders(src_dir):
    """Calls outside groups.py that wire m or apply alpha by hand: a
    mult_var_names call outside a law builder, a substitution into a `.mult`
    or `.phi` polynomial, or a renaming cast of one."""
    offenders = []
    for path in sorted(src_dir.glob("*.py")):
        if path.name == "groups.py":
            continue
        calls = []
        _calls(ast.parse(path.read_text(encoding="utf-8")), None, set(), calls)
        for func, call, tainted in calls:
            f = call.func
            where = f"{path.name}:{call.lineno} in {func}"
            if isinstance(f, ast.Name) and f.id == "mult_var_names" \
                    and (path.name, func) not in LAW_BUILDERS:
                offenders.append(f"{where}: mult_var_names")
            if isinstance(f, ast.Attribute) and (
                    f.attr in SUBSTITUTIONS
                    or (f.attr == "cast" and any(k.arg == "rename" for k in call.keywords))):
                receiver = f.value
            else:
                continue
            if _reads_law_part(receiver, tainted):
                offenders.append(f"{where}: {ast.unparse(call)[:60]}")
    return offenders


def test_group_law_and_alpha_are_applied_in_groups_only():
    assert law_wiring_offenders(ROOT / "src" / "pairkit") == []


ENGINE = {"buchberger", "_reduce_dict"}
POWER_TABLES = {"powers", "power_table"}


def outside_calls(src_dir, home, names):
    """Calls of a function in `names` outside the module `home`."""
    offenders = []
    for path in sorted(src_dir.glob("*.py")):
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in names:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    return offenders


def test_only_gbasis_runs_buchberger_or_reduces():
    """Everything else goes through groebner, eliminate, normal_form and
    poly_divmod."""
    assert outside_calls(ROOT / "src" / "pairkit", "gbasis.py", ENGINE) == []


def test_only_poly_builds_tables_of_powers():
    """The substitution kernel builds the powers of its images; the torus
    pushforward goes through it rather than keeping a loop of its own."""
    assert outside_calls(ROOT / "src" / "pairkit", "poly.py", POWER_TABLES) == []


def product_classes(src_dir):
    """The classes, as "module:class", that define `__mul__`."""
    return [f"{path.name}:{node.name}" for path in sorted(src_dir.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name == "__mul__" for f in node.body)]


def test_polynomials_and_fractions_are_the_only_arithmetic_types():
    """A Laurent polynomial is the fraction F / w^k of k[Z, w], so no third
    arithmetic type with its own products grows back."""
    assert product_classes(ROOT / "src" / "pairkit") == ["poly.py:Polynomial",
                                                        "poly.py:RationalFunction"]


def imported_modules(path):
    """The top-level names of the modules a file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_reducer_has_one_lane():
    """The reducer works in the coefficient field on monic divisors: no
    fraction-free integer lane with its content gcds comes back."""
    assert imported_modules(ROOT / "src" / "pairkit" / "gbasis.py") & {"fractions", "math"} == set()


def stdout_writers(src_dir):
    """The functions that call `print` or `sys.stdout.write`."""
    writers = []
    for path in sorted(src_dir.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                writers.extend(f"{path.name}:{func.name}" for node in ast.walk(func)
                               if isinstance(node, ast.Call)
                               and ast.unparse(node.func) in ("print", "sys.stdout.write"))
    return writers


def test_only_cli_run_writes_a_report():
    assert stdout_writers(ROOT / "src" / "pairkit") == ["cli.py:run"]


PER_TERM_FIELD_OPS = {"add", "sub", "mul", "neg", "scale_int"}


def per_term_field_calls(path):
    """Calls of a field's add, sub, mul, neg or scale_int in one module,
    the receiver being `field` or an attribute `.field`."""
    calls = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in PER_TERM_FIELD_OPS:
                    receiver = node.func.value
                    if (isinstance(receiver, ast.Name) and receiver.id == "field") or \
                            (isinstance(receiver, ast.Attribute) and receiver.attr == "field"):
                        calls.append(f"{path.name}:{node.lineno} in {func.name}")
    return calls


def test_polynomial_arithmetic_makes_no_per_term_field_calls():
    """Polynomial sums and products reduce mod p once per result, in
    `_reduced`, and `linalg.echelon` once per new row; inv stays a field
    call."""
    for module in ("poly.py", "linalg.py"):
        assert per_term_field_calls(ROOT / "src" / "pairkit" / module) == []


def row_swappers(src_dir):
    """The functions, as "module:function", holding a swap of two
    subscripts of one sequence, `x[i], x[j] = x[j], x[i]`."""
    found = []
    for path in sorted(src_dir.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Assign) and _is_swap(node) for node in ast.walk(func)):
                found.append(f"{path.name}:{func.name}")
    return found


def _is_swap(node):
    """One tuple target of two subscripts of one sequence, assigned the
    same two subscripts in reverse order."""
    if len(node.targets) != 1:
        return False
    target, value = node.targets[0], node.value
    if not all(isinstance(t, ast.Tuple) and len(t.elts) == 2
               and all(isinstance(e, ast.Subscript) for e in t.elts) for t in (target, value)):
        return False
    first, second = target.elts
    return ast.unparse(first.value) == ast.unparse(second.value) and \
        [ast.unparse(e) for e in value.elts] == [ast.unparse(second), ast.unparse(first)]


def test_echelon_is_the_only_row_elimination():
    """`ExactMatrix` and the Jacobian rank share one Gaussian elimination,
    so no second one grows back."""
    assert row_swappers(ROOT / "src" / "pairkit") == ["linalg.py:echelon"]


def test_row_swap_check_sees_every_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def swap(m, i, j):\n    m[i], m[j] = m[j], m[i]\n"
        "class M:\n    def nested(self, r):\n        if r:\n"
        "            self.rows[r], self.rows[0] = self.rows[0], self.rows[r]\n"
        "def entries(w, r):\n    w[r][0], w[0][0] = w[0][0], w[r][0]\n"
        "def copy(m, n):\n    m[0], m[1] = n[0], n[1]\n", encoding="utf-8")
    assert row_swappers(tmp_path) == ["mod.py:swap", "mod.py:nested"]


def substitution_kernel(src_dir):
    """(the modules that call `_substitute`, the parameter names of
    `Polynomial._substitute`)."""
    callers, params = set(), None
    for path in sorted(src_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "_substitute":
                callers.add(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "Polynomial":
                params = [[a.arg for a in ast.walk(f.args) if isinstance(a, ast.arg)]
                          for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name == "_substitute"]
    return callers, params


def test_one_substitution_kernel():
    """Polynomial and rational images share one polynomial kernel with no
    constructor knob, and no other module reaches into it."""
    callers, params = substitution_kernel(ROOT / "src" / "pairkit")
    assert callers == {"poly.py"}
    assert params == [["self", "mapping"]]


VERDICTS = {"verified", "quasi_principle", "principle"}
VERDICT_SETTERS = {"pairs.py:AlphaPair.__init__", "pairs.py:check_alpha_pair"}


def verdict_setters(src_dir):
    """Where `src/` assigns an attribute named like a pair verdict, by
    assignment or by setattr, as "module:qualified function"."""
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        targets = []
        if isinstance(node, ast.Assign):
            targets = [n for t in node.targets for n in ast.walk(t)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        names = [t.attr for t in targets if isinstance(t, ast.Attribute)]
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "setattr" \
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            names.append(node.args[1].value)
        if VERDICTS & set(names):
            found.append(f"{path.name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(src_dir.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [])
    return found


def test_only_check_alpha_pair_sets_verdicts():
    setters = verdict_setters(ROOT / "src" / "pairkit")
    assert set(setters) == VERDICT_SETTERS, setters


GRAPH_ELIMINATIONS = {"pairs.py:trdeg_by_elimination",
                      "invariants.py:relations_presentation"}


def _is_graph_ideal_call(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "graph_ideal"


def graph_eliminations(src_dir):
    """The functions, as "module:function", that pass a `graph_ideal(...)`
    result to `eliminate`: directly, unpacked with `*`, or through a name
    bound to it."""
    found = set()
    for path in sorted(src_dir.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            bound = {name for node in ast.walk(func)
                     if isinstance(node, ast.Assign) and _is_graph_ideal_call(node.value)
                     for target in node.targets for name in _bound(target)}
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "eliminate"
                        and node.args):
                    continue
                first = node.args[0]
                if isinstance(first, ast.Starred):
                    first = first.value
                if _is_graph_ideal_call(first) or \
                        (isinstance(first, ast.Name) and first.id in bound):
                    found.add(f"{path.name}:{func.name}")
    return found


def test_graph_ideal_is_eliminated_only_on_fallback_routes():
    """Everywhere else the Jacobian certificate decides first, so no second,
    uncertified elimination of a graph ideal grows back."""
    assert graph_eliminations(ROOT / "src" / "pairkit") == GRAPH_ELIMINATIONS


def test_graph_elimination_check_sees_every_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def direct(fs):\n    return eliminate(*graph_ideal(fs, 'T'))\n"
        "def named(fs):\n    ideal, tags = graph_ideal(fs, 'T')\n"
        "    return eliminate(ideal, tags)\n"
        "def other(ideal, keep):\n    return eliminate(ideal, keep)\n",
        encoding="utf-8")
    assert graph_eliminations(tmp_path) == {"mod.py:direct", "mod.py:named"}


def relation_slots(src_dir):
    """The functions, as "module:function", taking both an `action` and a
    `relations` parameter, and "module:ProblemFile.__slots__" when that
    class's slots name `relations`."""
    found = []
    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and {"action", "relations"} <= {
                    a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}:
                found.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef) and node.name == "ProblemFile" and any(
                    isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "__slots__"
                    and "relations" in ast.literal_eval(stmt.value) for stmt in node.body):
                found.append(f"{path.name}:ProblemFile.__slots__")
    return found


def test_the_action_owns_the_relation_ideal():
    """A = k[Z]/I belongs to the co-action, so no verb can be handed an
    action without its relations, and a problem keeps no second copy."""
    assert relation_slots(ROOT / "src" / "pairkit") == []


def test_relation_slot_check_sees_every_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def check(action, pair, relations=None):\n    pass\n"
        "def keyword(action, *, relations):\n    pass\n"
        "def ring_level(functions, relations=None):\n    pass\n"
        "class ProblemFile:\n    __slots__ = ('ring', 'relations')\n"
        "class Other:\n    __slots__ = ('relations',)\n", encoding="utf-8")
    assert relation_slots(tmp_path) == ["mod.py:check", "mod.py:keyword",
                                        "mod.py:ProblemFile.__slots__"]


def uncalled_functions(src_dir):
    """The functions and methods, as "module.qualified name", that `src/`
    never calls: the name is referenced (as a name or an attribute) nowhere
    outside the function's own body, it is not a top-level function listed
    for its module in the package's `_EXPORTS`, and it is not a dunder.

    The test is by name, so a method that shares its name with another
    callable passes: `RationalFunction.zero` with no caller would hide
    behind every `ring.zero()` of `PolyRing.zero`."""
    init = ast.parse((src_dir / "__init__.py").read_text(encoding="utf-8"))
    exports = next(ast.literal_eval(node.value) for node in init.body
                   if isinstance(node, ast.Assign)
                   and ast.unparse(node.targets[0]) == "_EXPORTS")
    defs, refs = [], {}     # refs: name -> the sets of functions enclosing each use

    def visit(node, module, scope, enclosing):
        if isinstance(node, ast.FunctionDef):
            defs.append((module, scope + [node.name], node))
            enclosing = enclosing | {node}
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name:
            refs.setdefault(name, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, enclosing)

    for path in sorted(src_dir.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [], frozenset())
    return [f"{module}.{'.'.join(scope)}" for module, scope, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and not (len(scope) == 1 and node.name in exports.get(module, ()))
            and all(node in enclosing for enclosing in refs.get(node.name, []))]


def test_every_src_function_has_a_caller():
    """A helper only the tests call is not kept in `src/`: its uses there
    move onto the public API, or into `tests/oracles.py`."""
    assert uncalled_functions(ROOT / "src" / "pairkit") == []


def test_uncalled_function_check_sees_every_form(tmp_path):
    (tmp_path / "__init__.py").write_text(
        '_EXPORTS = {"mod": ("exported",)}\n', encoding="utf-8")
    (tmp_path / "mod.py").write_text(
        "def exported():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def planted(n):\n    return planted(n - 1) if n else 0\n"
        "class C:\n    def __eq__(self, other):\n        return self.used() == other\n"
        "    def used(self):\n        return 2\n"
        "    def method(self):\n        def inner():\n            return 3\n"
        "        return inner()\n", encoding="utf-8")
    (tmp_path / "other.py").write_text(
        "def exported():\n    pass\n", encoding="utf-8")
    assert uncalled_functions(tmp_path) == ["mod.planted", "mod.C.method", "other.exported"]


def cross_multipliers(src_dir):
    """The functions, as "module:qualified name", outside `poly.py` that
    multiply a `.num` attribute by a `.den` attribute, in either order."""
    found = []

    def visit(node, name, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and \
                {getattr(side, "attr", None) for side in (node.left, node.right)} == \
                {"num", "den"}:
            found.append(f"{name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, name, scope)

    for path in sorted(src_dir.glob("*.py")):
        if path.name != "poly.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, [])
    return list(dict.fromkeys(found))


PUSHFORWARDS = {"pushforward", "pushforward_poly", "apply"}


def fraction_comparisons(path):
    """The functions of one module, as "module:qualified name", that apply
    `==` or `!=` to a computed value or to an action's images: a side
    holding arithmetic, a call of a pushforward, a `.v` attribute, or a name
    bound by a loop or comprehension over one of these."""
    found = []

    def computed(side, images):
        return any(isinstance(n, ast.BinOp)
                   or (isinstance(n, ast.Attribute) and n.attr == "v")
                   or (isinstance(n, ast.Call)
                       and getattr(n.func, "attr", None) in PUSHFORWARDS)
                   or (isinstance(n, ast.Name) and n.id in images)
                   for n in ast.walk(side))

    def visit(node, scope, images):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope, images = scope + [node.name], set()
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            images = set(images)
            for gen in node.generators:
                if computed(gen.iter, images):
                    images |= _bound(gen.target)
        elif isinstance(node, ast.For) and computed(node.iter, images):
            images = images | _bound(node.target)
        if isinstance(node, ast.Compare) and \
                any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and \
                any(computed(side, images) for side in [node.left, *node.comparators]):
            found.append(f"{path.name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, images)

    visit(ast.parse(path.read_text(encoding="utf-8")), [], set())
    return list(dict.fromkeys(found))


def test_only_the_action_decides_equality_in_A():
    """Equality of fractions modulo I is `BaseCoAction.residue`, for the
    unipotent and the torus co-action alike: no second cross-multiplication,
    and no `==` on an action's images or on pushed-forward or computed
    fractions in `actions.py`, `pairs.py` or `invariants.py`, any of which
    would ignore I, grows back."""
    src = ROOT / "src" / "pairkit"
    assert cross_multipliers(src) == ["actions.py:BaseCoAction.residue"]
    assert [found for name in ("actions.py", "pairs.py", "invariants.py")
            for found in fraction_comparisons(src / name)] == []


def test_fraction_comparison_check_sees_every_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def scaled(a, g, h, w):\n    return a.pushforward(g) * h == g * w\n"
        "def pushed(a, f):\n    return f != a.pushforward(f)\n"
        "class C:\n    def method(self, f):\n"
        "        def inner():\n            return self.apply(f, 1) == f\n"
        "        return inner()\n"
        "    def is_trivial(self):\n"
        "        return all(v == self.big_ring.var(n) for v, n in zip(self.v, self.ring.names))\n"
        "def kernel_identity(action, alpha):\n"
        "    gens = action.ring.gens()\n"
        "    return action.apply(gens, [action.ring.zero()] * alpha.law.s) == gens\n"
        "def looped(action, gens):\n"
        "    for image, z in zip(action.v, gens):\n"
        "        if image != z:\n            return False\n"
        "def powered(f, g):\n    return 1 < 2 and f == g ** 2\n"
        "def plain(f, g, c, ring, action):\n"
        "    return f == g or c != 1 or f.ring != ring or f == ring.var('w') or f < g + 1 \\\n"
        "        or action.v is g or [v == 1 for v in g]\n",
        encoding="utf-8")
    assert fraction_comparisons(tmp_path / "mod.py") == [
        "mod.py:scaled", "mod.py:pushed", "mod.py:C.method.inner", "mod.py:C.is_trivial",
        "mod.py:kernel_identity", "mod.py:looped", "mod.py:powered"]


def test_cross_multiplication_check_sees_every_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def cross(a, b):\n    return a.num * b.den - b.num * a.den\n"
        "def swapped(a, b):\n    return b.den * a.num\n"
        "class C:\n    def method(self, f):\n"
        "        def inner():\n            return f.num * self.den\n"
        "        return inner()\n"
        "def quotient_rule(f, z):\n"
        "    return f.num.derivative(z) * f.den - f.num * f.den.derivative(z)\n"
        "def summed(a, b):\n    return a.num + b.den\n", encoding="utf-8")
    (tmp_path / "poly.py").write_text(
        "def kernel(a, b):\n    return a.num * b.den\n", encoding="utf-8")
    assert cross_multipliers(tmp_path) == ["mod.py:cross", "mod.py:swapped",
                                           "mod.py:C.method.inner"]


def fraction_importers(src_dir):
    """The modules, by file name, that import `fractions`."""
    return [path.name for path in sorted(src_dir.glob("*.py"))
            if "fractions" in imported_modules(path)]


def test_only_fields_knows_about_fractions():
    """A coefficient is an int unless a field division leaves a non-integral
    rational, and `FieldSpec.div` is where that happens."""
    assert fraction_importers(ROOT / "src" / "pairkit") == ["fields.py"]


def test_fraction_import_check_sees_every_form(tmp_path):
    (tmp_path / "top.py").write_text("from fractions import Fraction\n", encoding="utf-8")
    (tmp_path / "inner.py").write_text("def f():\n    import fractions\n", encoding="utf-8")
    (tmp_path / "named.py").write_text("x = 'fractions'\nimport math\n", encoding="utf-8")
    assert fraction_importers(tmp_path) == ["inner.py", "top.py"]


# the true divisions outside fields.py: rational functions and probe parsing
DIVISIONS = ["poly.py:RationalFunction.__pow__", "poly.py:RationalFunction.inverse",
             "poly.py:RationalFunction.subs_rational", "problem.py:_Context.div"]


def true_divisions(src_dir):
    """The functions, as "module:qualified name", outside `fields.py` that
    use `/` or `/=`."""
    found = []

    def visit(node, name, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, name, scope)

    for path in sorted(src_dir.glob("*.py")):
        if path.name != "fields.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, [])
    return list(dict.fromkeys(found))


def test_coefficients_are_divided_only_in_fields():
    """Any other `/` on two ints would make a float, and on a coefficient
    would bypass `FieldSpec.div`."""
    assert true_divisions(ROOT / "src" / "pairkit") == DIVISIONS


def test_division_check_sees_every_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def half(a):\n    return a / 2\n"
        "class C:\n    def method(self, a):\n        a /= 3\n        return a\n"
        "def floor(a):\n    return a // 2\n"
        "scale = 1 / 4\n", encoding="utf-8")
    (tmp_path / "fields.py").write_text(
        "def div(a, b):\n    return a / b\n", encoding="utf-8")
    assert true_divisions(tmp_path) == ["mod.py:half", "mod.py:C.method", "mod.py:"]


# the modules the CLI and the package may import when they are loaded
START_UP = {"errors", "report"}


def module_level_pairkit_imports(path):
    """The pairkit modules a file imports when it is loaded: imports outside
    function bodies, relative or through `pairkit.`."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.split(".")[0] != "pairkit":
                base = None
            elif node.level == 0:
                base = base.removeprefix("pairkit").lstrip(".")
            if base is not None:
                found.extend([base] if base else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.extend(a.name.removeprefix("pairkit.") for a in node.names
                         if a.name.startswith("pairkit."))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_cli_and_package_import_no_algebra_module_when_loaded():
    """Each verb imports what it runs in its own body, so a call loads only
    the modules its verb needs."""
    src = ROOT / "src" / "pairkit"
    assert set(module_level_pairkit_imports(src / "cli.py")) <= START_UP
    assert module_level_pairkit_imports(src / "__init__.py") == []


def test_module_level_import_check_sees_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json\nfrom .errors import X\nfrom . import gbasis\n"
                    "import pairkit.poly\nfrom pairkit.pairs import Y\n"
                    "if True:\n    from .linalg import Z\n"
                    "class C:\n    from .orders import GREVLEX\n"
                    "def f():\n    from .invariants import W\n", encoding="utf-8")
    assert module_level_pairkit_imports(path) == ["errors", "gbasis", "poly", "pairs",
                                                  "linalg", "orders"]


def unitriangular_problem(k):
    """The left-regular action of U_k on itself, t_ij the matrix entries,
    with the principle pair (z, 1)."""
    idx = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    pos = {ij: n for n, ij in enumerate(idx, start=1)}
    t = {ij: f"t{ij[0]}_{ij[1]}" for ij in idx}
    z = {ij: f"z{ij[0]}_{ij[1]}" for ij in idx}
    inverse = {}
    for (i, j) in sorted(idx, key=lambda ij: ij[1] - ij[0]):
        # m(x, t) = 0 solved for x_ij, entries of smaller gap first
        inverse[i, j] = f"-{t[i, j]}" + "".join(
            f" - ({inverse[i, l]})*{t[l, j]}" for l in range(i + 1, j))
    lines = ["field Q", "ring " + " ".join(z.values()),
             f"group dim {len(idx)} coords " + " ".join(t.values())]
    lines += [f"mult {t[i, j]} = a{pos[i, j]} + b{pos[i, j]}" + "".join(
        f" + a{pos[i, l]}*b{pos[l, j]}" for l in range(i + 1, j)) for (i, j) in idx]
    lines += [f"inv {t[ij]} = {inverse[ij]}" for ij in idx]
    lines += [f"act {z[i, j]} = {t[i, j]} + {z[i, j]}" + "".join(
        f" + {t[i, l]}*{z[l, j]}" for l in range(i + 1, j)) for (i, j) in idx]
    lines += [f"pair 1 g {z[ij]}" for ij in idx] + ["pair 1 h 1" for _ in idx]
    return parse_problem("\n".join(lines) + "\n")


@pytest.fixture()
def buchberger_calls(monkeypatch):
    calls = []
    real = gbasis.buchberger
    monkeypatch.setattr(gbasis, "buchberger",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("name", ["heisenberg.prob", "e1.prob", "ga2_q.prob", "U_5"])
def test_principle_pair_check_runs_no_buchberger(name, buchberger_calls):
    """With alpha the identity, no relations and a full Jacobian rank, the
    surjectivity test, the pair identity, trdeg and the kernel test all
    stand without a Groebner basis."""
    problem = unitriangular_problem(5) if name == "U_5" else load(name)
    assert validate_group_law(problem.group).passed
    pair = pair_from_problem(problem, 1)
    buchberger_calls.clear()
    assert check_alpha_pair(problem.action, pair).passed and pair.principle
    assert buchberger_calls == []


def test_non_identity_alpha_still_reaches_buchberger(buchberger_calls):
    """alpha's one basis of ker(alpha) serves both the surjectivity test and
    the kernel test; factoring adds the co-action rewrite alone."""
    for name in ("e2.prob", "e2_frob2.prob"):
        problem = load(name)
        pair = pair_from_problem(problem, 1)
        buchberger_calls.clear()
        assert check_alpha_pair(problem.action, pair).passed and pair.quasi_principle
        assert len(buchberger_calls) == 1, name
        problem = load(name)
        buchberger_calls.clear()
        factor_through_kernel(problem.action, problem.endo)
        assert len(buchberger_calls) == 2, name


def test_the_endomorphism_owns_its_kernel():
    """ker(alpha) = <phi> is generated in `groups.py` alone, and the kernel
    test reduces against alpha's grevlex basis, with no block order."""
    src = ROOT / "src" / "pairkit"
    assert outside_calls(src, "groups.py", {"kernel_ideal"}) == []
    assert "BlockOrder" not in (src / "pairs.py").read_text(encoding="utf-8")
