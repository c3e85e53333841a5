"""Batch command-line front end.

Every verb returns its Report, and `run` alone writes it and picks the exit
code: 0 = all checks passed / computation succeeded; 1 = a mathematical check
failed (the report names it, with a witness); 2 = parse or validation error,
with no report.  Reports are line-oriented `key: value` text; --json is
additive.  Each verb imports the modules it runs in its own body, so a call
loads only what its verb needs.
"""

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import PairkitError, ParseError, ValidationError
from .report import Report


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: not UTF-8 ({exc.reason})")


def _load(path: str):
    from .problem import parse_problem
    return parse_problem(_read(path))


def _emit(problem, path: str, report: Report):
    from .problem import render_problem
    try:
        Path(path).write_text(render_problem(problem), encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}")
    report.info("emitted", path)


@contextmanager
def _option(name: str, constant="constant"):
    """Restate a parser refusal of option `name`'s value: the option and a column
    in its text instead of a file line, and `constant` for a parser constant."""
    try:
        yield
    except ParseError as exc:
        col = "" if exc.col is None else f" (col {exc.col})"
        message = exc.message.replace("constant", constant)
        raise ValidationError(f"{name}: {message}{col}") from None


def _require_unipotent(problem):
    if problem.is_gm:
        raise ValidationError("this command requires a unipotent (act) problem")
    return problem


def _validated(problem, report: Report) -> Report:
    """`report` with the group-law and action validation merged in."""
    from .actions import validate_action
    from .groups import validate_group_law
    report.merge(validate_group_law(problem.group), prefix="law-")
    report.merge(validate_action(problem.action), prefix="action-")
    return report


def _validated_pair_report(args):
    """Group-law + action validation merged with the check of pair
    `args.pair`, each run once.

    Returns (problem, report, pair), where pair is the checked pair, or None
    when a check failed.
    """
    from .pairs import check_alpha_pair, pair_from_problem
    problem = _require_unipotent(_load(args.file))
    report = Report("pair-check")
    report.info("pair", args.pair)
    pair = None
    if _validated(problem, report).passed:
        pair = pair_from_problem(problem, args.pair)
        report.merge(check_alpha_pair(problem.action, pair))
    return problem, report, pair if report.passed else None


def _pedestal_report(args, title: str, which: str, needs_points=False):
    """Validate the law and the action, then verify every pair of the problem
    and build its pedestal ideal from them.

    Returns (problem, report, ideal), where ideal is None when a check failed.
    """
    from .pairs import check_alpha_pair, pair_from_problem, pedestal_ideal_from_pairs
    problem = _require_unipotent(_load(args.file))
    if not problem.pairs:
        raise ValidationError("the problem has no pairs")
    if needs_points and not problem.points:
        raise ValidationError("the problem has no points")
    validation = _validated(problem, Report(title))
    if not validation.passed:
        return problem, validation, None
    report, pairs = Report(title), []
    for idx in sorted(problem.pairs):
        pairs.append(pair_from_problem(problem, idx))
        pair_report = check_alpha_pair(problem.action, pairs[-1])
        report.check(f"pair{idx}-verified", pair_report.passed,
                     ", ".join(pair_report.failures) or None)
    if not report.passed:
        return problem, report, None
    return problem, report, pedestal_ideal_from_pairs(pairs, which)


def cmd_check_group(args) -> Report:
    from .groups import validate_group_law
    problem = _require_unipotent(_load(args.file))
    return validate_group_law(problem.group)


def cmd_check_endo(args) -> Report:
    from .groups import SURJECTIVITY_NOTE, is_surjective, validate_endomorphism
    problem = _require_unipotent(_load(args.file))
    if problem.endo is None:
        raise ValidationError("the problem has no endo section")
    report = validate_endomorphism(problem.group, problem.endo)
    if report.passed:
        report.info("surjective",
                    "true" if is_surjective(problem.group, problem.endo) else "false")
        report.info("note", SURJECTIVITY_NOTE)
    return report


def cmd_check_action(args) -> Report:
    from .actions import validate_action
    from .groups import validate_group_law
    problem = _load(args.file)
    if problem.is_gm:
        return validate_action(problem.action)
    report = validate_group_law(problem.group)
    report.merge(validate_action(problem.action), prefix="action-")
    return report


def cmd_check_pair(args) -> Report:
    return _validated_pair_report(args)[1]


def cmd_trdeg(args) -> Report:
    from .pairs import pair_from_problem, trdeg_and_rank
    problem = _require_unipotent(_load(args.file))
    validation = _validated(problem, Report("trdeg"))
    if not validation.passed:
        return validation
    pair = pair_from_problem(problem, args.pair)
    report = Report("trdeg")
    report.info("pair", args.pair)
    degree, rank = trdeg_and_rank(pair.fractions(), problem.action.relations)
    report.info("trdeg", degree)
    report.info("group-dim", problem.group.s)
    report.info("equals-group-dim", "true" if degree == problem.group.s else "false")
    if problem.field.p is not None:
        report.info("separable", "true" if rank == degree else "false")
        report.info("note", "a full Jacobian rank certifies independence; "
                    "a short one is settled by elimination")
    else:
        report.info("jacobian-rank", rank)
    return report


def cmd_invariants(args) -> Report:
    from .invariants import dixmier_generators, relations_presentation, verify_generators
    from .problem import parse_rational
    problem, report, pair = _validated_pair_report(args)
    if pair is None:
        return report
    if not pair.principle:
        report.info("hint", "pair is not principle; run `factor` first for a "
                    "quasi-principle pair")
        report.check("principle-required", False)
        return report
    basis = dixmier_generators(problem.action, pair)
    for name, fi, num, e in zip(problem.ring.names, basis.f,
                                basis.numerators, basis.powers):
        report.info(f"f[{name}]", fi.text())
        report.info(f"f[{name}]-presentation", f"({num.text()}) / H^{e}")
    report.info("Hbar", basis.Hbar.text())
    report.check("postcondition-invariant", True)
    with _option("--probe"):
        probes = [parse_rational(text, problem.ring) for text in args.probe]
    if probes:
        report.merge(verify_generators(problem.action, basis, probes))
    if args.relations:
        presentation = relations_presentation(basis)
        gens = [g.text() for g in presentation.gens] or ["0"]
        for i, g in enumerate(gens, start=1):
            report.info(f"relation[{i}]", g)
    return report


def cmd_factor(args) -> Report:
    from .invariants import factor_through_kernel, induced_problem
    problem = _require_unipotent(_load(args.file))
    if problem.endo is None:
        raise ValidationError("factor requires an endo section (alpha)")
    validation = _validated(problem, Report("factor-through-kernel"))
    if not validation.passed:
        return validation
    new_action, report = factor_through_kernel(problem.action, problem.endo)
    for name in problem.ring.names:
        report.info(f"induced-act[{name}]", new_action.v_for(name).text())
    induced = induced_problem(problem, new_action)
    if args.emit:
        _emit(induced, args.emit, report)
    return report


def cmd_fppf(args) -> Report:
    from .pairs import build_fppf_cover
    problem, report, pair = _validated_pair_report(args)
    if pair is None:
        return report
    cover, cover_report = build_fppf_cover(problem.action, pair)
    report.merge(cover_report)
    if args.emit:
        _emit(cover, args.emit, report)
    return report


def cmd_cross_section(args) -> Report:
    from .invariants import cross_section_report
    problem, report, pair = _validated_pair_report(args)
    if pair is not None:
        report.merge(cross_section_report(problem.action, pair, problem.points))
    return report


def cmd_pedestal(args) -> Report:
    _, report, ideal = _pedestal_report(args, "pedestal", args.which)
    if ideal is None:
        return report
    report.info("selector", args.which)
    gens = [g.text() for g in ideal.gens] or ["0"]
    for i, g in enumerate(gens, start=1):
        report.info(f"generator{i}", g)
    report.info("note", "relative to the supplied pairs (a lower bound)")
    return report


def cmd_stable(args) -> Report:
    from .pairs import is_affine_stable
    problem, report, ideal = _pedestal_report(args, "affine-stability",
                                              "quasi-principle-only", needs_points=True)
    if ideal is None:
        return report
    gens = [g.text() for g in ideal.gens] or ["0"]
    report.info("pedestal", ", ".join(gens))
    for pt in problem.points:
        label = "(" + ", ".join(str(c) for c in pt) + ")"
        report.info(f"point{label}",
                    "stable" if is_affine_stable(pt, ideal) else "not-stable")
    report.info("note", "stability is relative to the supplied pairs "
                "(a lower bound for the pedestal ideal)")
    return report


def cmd_semi_invariant(args) -> Report:
    from .actions import is_semi_invariant, validate_action
    from .problem import bounded, check_constant_bits, check_power_terms, parse_polynomial
    problem = _load(args.file)
    if not problem.is_gm:
        raise ValidationError("semi-invariant requires a gmact problem")
    with _option("--g"):
        g = bounded(parse_polynomial(args.g, problem.ring), 1)
    with _option("--h"):
        h = bounded(parse_polynomial(args.h, problem.ring), 1)
    with _option("--h/--e", constant="coefficient"):  # h need not be constant
        check_power_terms(len(h.terms), args.e)
        if problem.field.p is None:
            check_constant_bits([h], args.e)
    report = Report("semi-invariant")
    report.merge(validate_action(problem.action), prefix="action-")
    if report.passed:
        report.info("function", f"({g.text()})/({h.text()})^{args.e}")
        report.info("weight", args.q)
        report.check("semi-invariant",
                     is_semi_invariant(problem.action, g, h, args.e, args.q))
    return report


def _read_points(path: str, r: int):
    from .fields import QQ
    from .problem import parse_point_value
    rows = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        row = [parse_point_value(word, QQ, lineno) for word in body.split()]
        if len(row) != r:
            raise ParseError(f"expected {r} coordinates", lineno)
        rows.append(row)
    return rows


def mukai_predicate(n: int, r: int) -> bool:
    """Finite generation of the Nagata invariant ring: 1/r + 1/(n-r) >= 1/2,
    decided exactly in integers as 2n >= r(n-r), both sides multiplied by
    2r(n-r) > 0."""
    if not 0 < r < n:
        raise ValidationError("need 0 < r < n")
    return 2 * n >= r * (n - r)


def cmd_nagata(args) -> Report:
    from .invariants import NagataSpec, nagata_build, nagata_oracle_invariants
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
    return report


def cmd_mukai(args) -> Report:
    report = Report("mukai")
    report.info("n", args.n)
    report.info("r", args.r)
    report.info("finitely-generated",
                "true" if mukai_predicate(args.n, args.r) else "false")
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairkit",
        description="Exact pair-theoretic toolkit for unipotent group actions")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, *arguments, file=True, pair=False, emit=None):
        """A verb taking `--json`, the problem `file`, `--pair` when `pair`
        and `--emit` when `emit` names what it writes; each of `arguments`
        is a (name, options) pair declared before `--emit`."""
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        if file:
            p.add_argument("file")
        if pair:
            p.add_argument("--pair", type=int, required=True)
        for argument, options in arguments:
            p.add_argument(argument, **options)
        if emit:
            p.add_argument("--emit", help=f"write the {emit} problem file here")

    add("check-group", cmd_check_group)
    add("check-endo", cmd_check_endo)
    add("check-action", cmd_check_action)
    add("check-pair", cmd_check_pair, pair=True)
    add("trdeg", cmd_trdeg, pair=True)
    add("cross-section", cmd_cross_section, pair=True)
    add("invariants", cmd_invariants,
        ("--probe", dict(action="append", default=[],
                         help="invariant to verify against the generators (repeatable)")),
        ("--relations", dict(action="store_true",
                             help="also print a finite presentation of the generators")),
        pair=True)
    add("factor", cmd_factor, emit="induced")
    add("fppf", cmd_fppf, pair=True, emit="cover")
    add("pedestal", cmd_pedestal,
        ("--which", dict(choices=["quasi-principle-only", "all"],
                         default="quasi-principle-only")))
    add("stable", cmd_stable)
    add("semi-invariant", cmd_semi_invariant,
        ("--g", dict(required=True)), ("--h", dict(required=True)),
        ("--e", dict(type=int, required=True)), ("--q", dict(type=int, required=True)))
    add("nagata", cmd_nagata, ("n", dict(type=int)), ("r", dict(type=int)),
        ("--points", dict(required=True, help="file with n rows of r rationals")),
        file=False, emit="generated")
    add("mukai", cmd_mukai, ("n", dict(type=int)), ("r", dict(type=int)), file=False)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except PairkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(report.to_json() if args.json else report.text())
    return 0 if report.passed else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
