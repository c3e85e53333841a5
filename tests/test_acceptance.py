"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` for per-criterion output.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from pairkit.actions import is_semi_invariant, validate_action
from pairkit.cli import mukai_predicate
from pairkit.errors import UnsupportedMethodError
from pairkit.fields import QQ, FieldSpec
from pairkit.gbasis import buchberger
from pairkit.groups import (Endomorphism, compose_endomorphisms,
                            validate_endomorphism, validate_group_law)
from pairkit.invariants import (NagataSpec, dixmier_generators,
                                factor_through_kernel, induced_problem,
                                nagata_build, nagata_oracle_invariants,
                                relations_presentation)
from pairkit.linalg import jacobian_rank
from pairkit.pairs import (build_fppf_cover, check_alpha_pair, pair_from_problem,
                           transcendence_degree)
from pairkit.poly import PolyRing, RationalFunction
from pairkit.problem import parse_rational

from conftest import PROBLEMS, child_env, load
from oracles import random_polynomial, random_rational_tuple
from test_groups import heisenberg_law, vector_law

F2 = FieldSpec.prime(2)


def announce(number, text):
    print(f"[criterion {number:02d}] PASS {text}")


def verified_pair(problem, idx=1):
    pair = pair_from_problem(problem, idx)
    report = check_alpha_pair(problem.action, pair)
    assert report.passed, report.failures
    return pair


def test_criterion_01_e1_pipeline():
    start = time.perf_counter()
    e1 = load("e1.prob")
    pair = verified_pair(e1)
    basis = dixmier_generators(e1.action, pair)
    assert [fi.text() for fi in basis.f] == ["z1", "0"]
    assert basis.Hbar.text() == "z1"
    from pairkit.invariants import verify_generators
    probes = [parse_rational("z1", e1.ring), parse_rational("1/z1", e1.ring)]
    assert verify_generators(e1.action, basis, probes).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    announce(1, f"e1 pipeline: f = (z1, 0), Hbar = z1, probes ok ({elapsed:.3f}s)")


def test_criterion_02_char_p_quasi_principle_pipeline():
    start = time.perf_counter()
    e2 = load("e2.prob")
    pair = pair_from_problem(e2, 1)
    report = check_alpha_pair(e2.action, pair)
    assert report.passed and report.get("quasi-principle") == "true"
    new_action, factor_report = factor_through_kernel(e2.action, e2.endo)
    assert factor_report.passed
    big = new_action.big_ring
    assert new_action.v_for("z2") == big.var("z2") + big.var("u") * big.var("z1")
    induced = induced_problem(e2, new_action)
    ipair = verified_pair(induced)
    basis = dixmier_generators(induced.action, ipair)
    assert [fi.text() for fi in basis.f] == ["z1", "0"]
    for fi in basis.f:
        assert e2.action.is_invariant(fi)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    announce(2, f"char-2 quasi-principle pipeline with pulled-back invariance "
                f"({elapsed:.3f}s)")


def test_criterion_03_heisenberg():
    start = time.perf_counter()
    heis = load("heisenberg.prob")
    assert validate_group_law(heis.group).passed
    pair = verified_pair(heis)
    basis = dixmier_generators(heis.action, pair)
    assert [fi.text() for fi in basis.f] == ["0", "0", "0"]
    presentation = relations_presentation(basis)
    assert sorted(g.text() for g in presentation.gens) == ["W1", "W2", "W3"]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    announce(3, f"Heisenberg regular action: invariants k, relations "
                f"<W1,W2,W3> ({elapsed:.3f}s)")


def test_criterion_04_nagata():
    start = time.perf_counter()
    spec = NagataSpec(2, 1, [[1], [2]])
    problem = nagata_build(spec)
    big = problem.action.big_ring
    assert problem.action.v_for("x3") == \
        big.var("x3") - (big.var("s") * big.var("x1")).scale(Fraction(2))
    assert problem.action.v_for("x4") == big.var("x4") + big.var("s") * big.var("x2")
    g, h = problem.pairs[1]
    assert [p.text() for p in g] == ["x4"] and [p.text() for p in h] == ["x2"]
    basis = dixmier_generators(problem.action, verified_pair(problem))
    ring = problem.ring
    expected = RationalFunction(
        ring.var("x2") * ring.var("x3")
        + (ring.var("x1") * ring.var("x4")).scale(Fraction(2)), ring.var("x2"))
    assert basis.f[2] == expected
    from pairkit.invariants import verify_generators
    oracle = nagata_oracle_invariants(spec, problem)
    assert verify_generators(problem.action, basis, oracle).passed

    spec31 = NagataSpec(3, 1, [[1], [2], [3]])
    problem31 = nagata_build(spec31)
    basis31 = dixmier_generators(problem31.action, verified_pair(problem31))
    oracle31 = nagata_oracle_invariants(spec31, problem31)
    assert verify_generators(problem31.action, basis31, oracle31).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    announce(4, f"Nagata(2,1) and (3,1): f3 = x3 + 2*x1*x4/x2, oracle probes ok "
                f"({elapsed:.3f}s)")


def test_criterion_05_mukai_table():
    assert mukai_predicate(9, 3) is True
    assert mukai_predicate(10, 3) is False
    assert mukai_predicate(4, 2) is True
    announce(5, "Mukai predicate table: (9,3) true, (10,3) false, (4,2) true")


def test_criterion_06_fppf_cover():
    e2 = load("e2.prob")
    pair = verified_pair(e2)
    cover, report = build_fppf_cover(e2.action, pair)
    assert [r.text() for r in cover.action.relations] == ["z1*w^2 + z2"]  # -z2 = z2 mod 2
    big = cover.action.big_ring
    assert cover.action.v_for("w") == big.var("w") + big.var("t")
    g, h = cover.pairs[1]
    assert [p.text() for p in g] == ["w"] and [p.text() for p in h] == ["1"]
    assert report.get("cover-pair-classification") == "principle"
    assert report.passed
    announce(6, "fppf cover of e2: relation z1*w^2 - z2, w -> t + w, "
                "canonical pair re-verifies as principle")


def test_criterion_07_trdeg_oracle_agreement():
    rng = random.Random(20260808)
    R = PolyRing(["z1", "z2", "z3"], QQ)
    compared = 0
    degrees_seen = set()
    while compared < 30:
        fs = [f for f in random_rational_tuple(R, rng) if not f.is_zero()]
        if not fs:
            continue
        degree = transcendence_degree(fs)   # internal crosscheck also raises
        assert degree == jacobian_rank(fs)
        degrees_seen.add(degree)
        compared += 1
    assert compared >= 20 and len(degrees_seen) >= 2, degrees_seen

    R2 = PolyRing(["z1"], F2)
    square = RationalFunction.from_poly(R2.var("z1") ** 2)
    assert transcendence_degree([square]) == 1
    with pytest.raises(UnsupportedMethodError):
        jacobian_rank([square])
    announce(7, f"trdeg agreement on {compared} random char-0 instances "
                f"(trdeg values seen: {sorted(degrees_seen)}); char-2 z1^2 -> 1 "
                "with Jacobian refused")


def _law_catalog():
    laws = []
    for field in (QQ, F2):
        laws.append((f"Ga/{field!r}", vector_law(1, field)))
        laws.append((f"Ga2/{field!r}", vector_law(2, field)))
        laws.append((f"Ga3/{field!r}", vector_law(3, field)))
        laws.append((f"Heisenberg/{field!r}", heisenberg_law(field)))
    return laws


def _endo_catalog(law):
    cring = law.coords_ring
    endos = [law.identity_endomorphism()]
    if law.field.p == 2:
        endos.append(Endomorphism(law, [cring.var(c) ** 2 for c in law.coords]))
        if law.s == 1:
            t = cring.var(law.coords[0])
            endos.append(Endomorphism(law, [t ** 2 + t]))
    elif law.s == 1:
        t = cring.var(law.coords[0])
        endos.append(Endomorphism(law, [t.scale(Fraction(2))]))
    elif law.coords == ("t1", "t2", "t3"):
        t = [cring.var(c) for c in law.coords]
        endos.append(Endomorphism(law, [t[0].scale(Fraction(2)),
                                        t[1].scale(Fraction(2)),
                                        t[2].scale(Fraction(4))]))
    return endos


def test_criterion_08_axiom_property_suites():
    checked_laws = 0
    for name, law in _law_catalog():
        assert validate_group_law(law).passed, name
        endos = _endo_catalog(law)
        for endo in endos:
            assert validate_endomorphism(law, endo).passed, name
        identity = law.identity_endomorphism()
        for endo in endos:
            assert compose_endomorphisms(law, identity, endo) == endo
            assert compose_endomorphisms(law, endo, identity) == endo
        for f in endos:
            for g in endos:
                for h in endos:
                    assert compose_endomorphisms(
                        law, compose_endomorphisms(law, f, g), h) == \
                        compose_endomorphisms(law, f, compose_endomorphisms(law, g, h))
        checked_laws += 1

    action_files = ["e1.prob", "e1_stable.prob", "e2.prob", "e2_frob2.prob",
                    "e2_sep.prob", "heisenberg.prob", "remark.prob",
                    "ga2_q.prob", "ga3_f2.prob"]
    checked_actions = 0
    for name in action_files:
        problem = load(name)
        assert validate_group_law(problem.group).passed, name
        assert validate_action(problem.action).passed, name
        checked_actions += 1
    for spec in (NagataSpec(2, 1, [[1], [2]]), NagataSpec(3, 1, [[1], [2], [3]])):
        problem = nagata_build(spec)
        assert validate_group_law(problem.group).passed
        assert validate_action(problem.action).passed
        checked_actions += 1
    assert validate_action(load("gm_diag.prob").action).passed
    announce(8, f"axiom suites: {checked_laws} catalog laws, {checked_actions} "
                "unipotent actions, endomorphism monoid laws")


def test_criterion_09_semi_invariants():
    gm = load("gm_diag.prob")
    ring = gm.ring
    x, y = ring.gens()
    assert is_semi_invariant(gm.action, x, y, 0, 1)
    assert is_semi_invariant(gm.action, x, y, 1, 0)
    assert not is_semi_invariant(gm.action, x * x, y, 1, 2)
    announce(9, "semi-invariants: weight 1 for x, weight 0 for x/y, "
                "weight-2 claim for x^2/y rejected")


def test_criterion_10_determinism():
    env = child_env(PYTHONHASHSEED="random")
    commands = [
        ["check-pair", str(PROBLEMS / "e1.prob"), "--pair", "1"],
        ["invariants", str(PROBLEMS / "e1.prob"), "--pair", "1",
         "--probe", "1/z1", "--relations"],
        ["check-pair", str(PROBLEMS / "heisenberg.prob"), "--pair", "1"],
        ["fppf", str(PROBLEMS / "e2.prob"), "--pair", "1"],
        ["stable", str(PROBLEMS / "e1_stable.prob")],
        ["trdeg", str(PROBLEMS / "ga2_q.prob"), "--pair", "1", "--json"],
    ]
    for command in commands:
        runs = [subprocess.run([sys.executable, "-m", "pairkit"] + command,
                               capture_output=True, env=env, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1] and runs[0], command

    R = PolyRing(["z1", "z2", "z3"], QQ)
    rng = random.Random(5)
    gens = [random_polynomial(R, rng, 2, 3) for _ in range(3)]
    first = [p.text() for p in buchberger(gens)]
    second = [p.text() for p in buchberger(gens)]
    assert first == second and first
    announce(10, f"determinism: {len(commands)} commands byte-identical across "
                 "processes; Groebner bases bit-stable")
