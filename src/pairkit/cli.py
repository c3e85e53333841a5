"""Batch command-line front end.

Exit codes: 0 = all checks passed / computation succeeded; 1 = a mathematical
check failed (the report names it, with a witness); 2 = parse or validation
error.  Reports are line-oriented `key: value` text; --json is additive.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .actions import is_semi_invariant, validate_action, validate_gm_action
from .errors import PairkitError, ParseError, ValidationError
from .groups import (SURJECTIVITY_NOTE, is_surjective, validate_endomorphism,
                     validate_group_law)
from .invariants import (NagataSpec, cross_section_report, dixmier_generators,
                         factor_through_kernel, induced_problem, mukai_predicate,
                         nagata_build, nagata_oracle_invariants,
                         relations_presentation, verify_generators)
from .linalg import formal_jacobian_rank
from .pairs import (check_alpha_pair, is_affine_stable, pair_from_problem,
                    pedestal_ideal_from_pairs, build_fppf_cover,
                    transcendence_degree)
from .problem import parse_problem, parse_polynomial, parse_rational, render_problem
from .report import Report


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: not UTF-8 ({exc.reason})")


def _load(path: str):
    return parse_problem(_read(path))


def _emit(problem, path: str, report: Report):
    Path(path).write_text(render_problem(problem), encoding="utf-8")
    report.info("emitted", path)


def _print(report: Report, as_json: bool):
    sys.stdout.write(report.to_json() if as_json else report.text())


def _require_unipotent(problem):
    if problem.is_gm:
        raise ValidationError("this command requires a unipotent (act) problem")
    return problem


def _validated_pair_report(args):
    """Group-law + action validation merged with the check of pair
    `args.pair`, each run once.

    Returns (problem, report, pair), where pair is the checked pair.  When a
    check failed the report has already been printed and pair is None.
    """
    problem = _require_unipotent(_load(args.file))
    report = Report("pair-check")
    report.info("pair", args.pair)
    report.merge(validate_group_law(problem.group), prefix="law-")
    report.merge(validate_action(problem.action), prefix="action-")
    pair = None
    if report.passed:
        pair = pair_from_problem(problem, args.pair)
        report.merge(check_alpha_pair(problem.action, pair))
    if not report.passed:
        _print(report, args.json)
        pair = None
    return problem, report, pair


def cmd_check_group(args) -> int:
    problem = _require_unipotent(_load(args.file))
    report = validate_group_law(problem.group)
    _print(report, args.json)
    return 0 if report.passed else 1


def cmd_check_endo(args) -> int:
    problem = _require_unipotent(_load(args.file))
    if problem.endo is None:
        raise ValidationError("the problem has no endo section")
    report = validate_endomorphism(problem.group, problem.endo)
    if report.passed:
        report.info("surjective",
                    "true" if is_surjective(problem.group, problem.endo) else "false")
        report.info("note", SURJECTIVITY_NOTE)
    _print(report, args.json)
    return 0 if report.passed else 1


def cmd_check_action(args) -> int:
    problem = _load(args.file)
    if problem.is_gm:
        report = validate_gm_action(problem.action)
    else:
        report = validate_group_law(problem.group)
        action_report = validate_action(problem.action)
        report.merge(action_report, prefix="action-")
    _print(report, args.json)
    return 0 if report.passed else 1


def cmd_check_pair(args) -> int:
    _, report, pair = _validated_pair_report(args)
    if pair is None:
        return 1
    _print(report, args.json)
    return 0


def cmd_trdeg(args) -> int:
    problem = _require_unipotent(_load(args.file))
    pair = pair_from_problem(problem, args.pair)
    report = Report("trdeg")
    report.info("pair", args.pair)
    degree = transcendence_degree(pair.fractions())
    report.info("trdeg", degree)
    report.info("group-dim", problem.group.s)
    report.info("equals-group-dim", "true" if degree == problem.group.s else "false")
    if problem.field.p is not None:
        report.info("separable", "true" if
                    formal_jacobian_rank(pair.fractions()) == degree else "false")
        report.info("note", "Jacobian certificate refused over prime fields; "
                    "elimination is authoritative")
    else:
        report.info("jacobian-rank", degree)
    _print(report, args.json)
    return 0


def cmd_invariants(args) -> int:
    problem, report, pair = _validated_pair_report(args)
    if pair is None:
        return 1
    if not pair.principle:
        report.info("hint", "pair is not principle; run `factor` first for a "
                    "quasi-principle pair")
        report.check("principle-required", False)
        _print(report, args.json)
        return 1
    basis = dixmier_generators(problem.action, pair)
    for name, fi, num, e in zip(problem.ring.names, basis.f,
                                basis.numerators, basis.powers):
        report.info(f"f[{name}]", fi.text())
        report.info(f"f[{name}]-presentation", f"({num.text()}) / H^{e}")
    report.info("Hbar", basis.Hbar.text())
    report.check("postcondition-invariant", True)
    probes = [parse_rational(text, problem.ring) for text in args.probe]
    if probes:
        report.merge(verify_generators(problem.action, basis, probes))
    if args.relations:
        presentation = relations_presentation(basis)
        gens = [g.text() for g in presentation.gens] or ["0"]
        for i, g in enumerate(gens, start=1):
            report.info(f"relation[{i}]", g)
    _print(report, args.json)
    return 0 if report.passed else 1


def cmd_factor(args) -> int:
    problem = _require_unipotent(_load(args.file))
    if problem.endo is None:
        raise ValidationError("factor requires an endo section (alpha)")
    new_action, report = factor_through_kernel(problem.action, problem.endo)
    for name in problem.ring.names:
        report.info(f"induced-act[{name}]", new_action.v_for(name).text())
    induced = induced_problem(problem, new_action)
    if args.emit:
        _emit(induced, args.emit, report)
    _print(report, args.json)
    return 0 if report.passed else 1


def cmd_fppf(args) -> int:
    problem, report, pair = _validated_pair_report(args)
    if pair is None:
        return 1
    cover, cover_report = build_fppf_cover(problem.action, pair)
    report.merge(cover_report)
    if args.emit:
        _emit(cover, args.emit, report)
    _print(report, args.json)
    return 0 if report.passed else 1


def cmd_cross_section(args) -> int:
    problem, report, pair = _validated_pair_report(args)
    if pair is None:
        return 1
    report.merge(cross_section_report(problem.action, pair, problem.points))
    _print(report, args.json)
    return 0 if report.passed else 1


def _verified_pairs(problem, report: Report):
    pairs = []
    for idx in sorted(problem.pairs):
        pair = pair_from_problem(problem, idx)
        pair_report = check_alpha_pair(problem.action, pair)
        report.check(f"pair{idx}-verified", pair_report.passed,
                     ", ".join(pair_report.failures) or None)
        pairs.append(pair)
    return pairs


def cmd_pedestal(args) -> int:
    problem = _require_unipotent(_load(args.file))
    if not problem.pairs:
        raise ValidationError("the problem has no pairs")
    report = Report("pedestal")
    pairs = _verified_pairs(problem, report)
    if not report.passed:
        _print(report, args.json)
        return 1
    ideal = pedestal_ideal_from_pairs(pairs, args.which)
    report.info("selector", args.which)
    gens = [g.text() for g in ideal.gens] or ["0"]
    for i, g in enumerate(gens, start=1):
        report.info(f"generator{i}", g)
    report.info("note", "relative to the supplied pairs (a lower bound)")
    _print(report, args.json)
    return 0 if report.passed else 1


def cmd_stable(args) -> int:
    problem = _require_unipotent(_load(args.file))
    if not problem.pairs:
        raise ValidationError("the problem has no pairs")
    if not problem.points:
        raise ValidationError("the problem has no points")
    report = Report("affine-stability")
    pairs = _verified_pairs(problem, report)
    if not report.passed:
        _print(report, args.json)
        return 1
    ideal = pedestal_ideal_from_pairs(pairs, "quasi-principle-only")
    gens = [g.text() for g in ideal.gens] or ["0"]
    report.info("pedestal", ", ".join(gens))
    for pt in problem.points:
        label = "(" + ", ".join(str(c) for c in pt) + ")"
        report.info(f"point{label}",
                    "stable" if is_affine_stable(pt, ideal) else "not-stable")
    report.info("note", "stability is relative to the supplied pairs "
                "(a lower bound for the pedestal ideal)")
    _print(report, args.json)
    return 0


def cmd_semi_invariant(args) -> int:
    problem = _load(args.file)
    if not problem.is_gm:
        raise ValidationError("semi-invariant requires a gmact problem")
    if args.e < 0:
        raise ValidationError("e must be non-negative")
    g = parse_polynomial(args.g, problem.ring)
    h = parse_polynomial(args.h, problem.ring)
    report = Report("semi-invariant")
    gm_report = validate_gm_action(problem.action)
    report.merge(gm_report, prefix="action-")
    if report.passed:
        report.info("function", f"({g.text()})/({h.text()})^{args.e}")
        report.info("weight", args.q)
        report.check("semi-invariant",
                     is_semi_invariant(problem.action, g, h, args.e, args.q))
    _print(report, args.json)
    return 0 if report.passed else 1


def _read_points(path: str, r: int):
    rows = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        row = []
        for word in body.split():
            try:
                row.append(Fraction(word))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational literal {word!r}", lineno)
        if len(row) != r:
            raise ParseError(f"expected {r} coordinates", lineno)
        rows.append(row)
    return rows


def cmd_nagata(args) -> int:
    points = _read_points(args.points, args.r)
    spec = NagataSpec(args.n, args.r, points)
    problem = nagata_build(spec)
    report = Report("nagata")
    report.info("n", args.n)
    report.info("r", args.r)
    report.info("group-dim", args.n - args.r)
    for name in problem.ring.names:
        report.info(f"act[{name}]", problem.action.v_for(name).text())
    g, h = problem.pairs[1]
    for i, (gp, hp) in enumerate(zip(g, h), start=1):
        report.info(f"pair-g{i}", gp.text())
        report.info(f"pair-h{i}", hp.text())
    for i, probe in enumerate(nagata_oracle_invariants(spec, problem), start=1):
        report.info(f"oracle{i}", probe.text())
    report.info("finitely-generated",
                "true" if mukai_predicate(args.n, args.r) else "false")
    if args.emit:
        _emit(problem, args.emit, report)
    _print(report, args.json)
    return 0


def cmd_mukai(args) -> int:
    report = Report("mukai")
    report.info("n", args.n)
    report.info("r", args.r)
    report.info("finitely-generated",
                "true" if mukai_predicate(args.n, args.r) else "false")
    _print(report, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairkit",
        description="Exact pair-theoretic toolkit for unipotent group actions")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        return p

    for name, handler, needs_pair in [
            ("check-group", cmd_check_group, False),
            ("check-endo", cmd_check_endo, False),
            ("check-action", cmd_check_action, False),
            ("check-pair", cmd_check_pair, True),
            ("trdeg", cmd_trdeg, True),
            ("cross-section", cmd_cross_section, True)]:
        p = add(name, handler)
        p.add_argument("file")
        if needs_pair:
            p.add_argument("--pair", type=int, required=True)

    p = add("invariants", cmd_invariants)
    p.add_argument("file")
    p.add_argument("--pair", type=int, required=True)
    p.add_argument("--probe", action="append", default=[],
                   help="invariant to verify against the generators (repeatable)")
    p.add_argument("--relations", action="store_true",
                   help="also print a finite presentation of the generators")

    p = add("factor", cmd_factor)
    p.add_argument("file")
    p.add_argument("--emit", help="write the induced problem file here")

    p = add("fppf", cmd_fppf)
    p.add_argument("file")
    p.add_argument("--pair", type=int, required=True)
    p.add_argument("--emit", help="write the cover problem file here")

    p = add("pedestal", cmd_pedestal)
    p.add_argument("file")
    p.add_argument("--which", choices=["quasi-principle-only", "all"],
                   default="quasi-principle-only")

    p = add("stable", cmd_stable)
    p.add_argument("file")

    p = add("semi-invariant", cmd_semi_invariant)
    p.add_argument("file")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("nagata", cmd_nagata)
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--points", required=True,
                   help="file with n rows of r rationals")
    p.add_argument("--emit", help="write the generated problem file here")

    p = add("mukai", cmd_mukai)
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PairkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
