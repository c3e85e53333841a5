import json
import subprocess
import sys

import pytest

from pairkit import gbasis, pairs
from pairkit.cli import run
from pairkit.orders import GREVLEX
from pairkit.problem import parse_problem

from conftest import PROBLEMS, child_env, load


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def path(name):
    return str(PROBLEMS / name)


class TestExitCodes:
    def test_invariants_ok(self, capsys):
        code, out = invoke(capsys, "invariants", path("e1.prob"), "--pair", "1",
                           "--probe", "z1", "--probe", "1/z1")
        assert code == 0
        assert "f[z1]: z1" in out
        assert "f[z2]: 0" in out
        assert "Hbar: z1" in out

    def test_failed_check_is_exit_1(self, capsys):
        code, out = invoke(capsys, "check-pair", path("e1.prob"), "--pair", "2")
        assert code == 1
        assert "identity: FAIL" in out
        assert "identity-witness:" in out

    def test_parse_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text("field Fp 4\nring z\n", encoding="utf-8")
        code = run(["check-group", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "not prime" in err

    def test_missing_file_is_exit_2(self, capsys):
        code = run(["check-group", "no-such-file.prob"])
        assert code == 2

    def test_unknown_verb_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["mukai", "9", "3", "--frobnicate"])
        assert exc.value.code == 2


class TestVerbs:
    def test_mukai(self, capsys):
        code, out = invoke(capsys, "mukai", "9", "3")
        assert code == 0 and "finitely-generated: true" in out
        code, out = invoke(capsys, "mukai", "10", "3")
        assert code == 0 and "finitely-generated: false" in out

    def test_check_group_and_action(self, capsys):
        for verb in ("check-group", "check-action"):
            code, out = invoke(capsys, verb, path("heisenberg.prob"))
            assert code == 0, out

    def test_check_group_failure_is_exit_1(self, tmp_path, capsys):
        # x + y + x*y is a group law, but its inverse is not -t
        bad = tmp_path / "bad_law.prob"
        bad.write_text("field Q\nring z\ngroup dim 1 coords t\n"
                       "mult t = a1 + b1 + a1*b1\ninv t = -t\nact z = z\n",
                       encoding="utf-8")
        code, out = invoke(capsys, "check-group", str(bad))
        assert code == 1 and "inverse-right: FAIL" in out

    def test_check_action_failure_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad_action.prob"
        bad.write_text("field Q\nring z\ngroup dim 1 coords t\n"
                       "mult t = a1 + b1\ninv t = -t\nact z = z + t*z\n",
                       encoding="utf-8")
        code, out = invoke(capsys, "check-action", str(bad))
        assert code == 1 and "action-compatibility: FAIL" in out

    def test_check_endo(self, capsys):
        code, out = invoke(capsys, "check-endo", path("e2.prob"))
        assert code == 0
        assert "surjective: true" in out
        assert "finite-kernel" in out

    def test_check_endo_failure_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad_endo.prob"
        bad.write_text("field Q\nring z\ngroup dim 1 coords t\n"
                       "mult t = a1 + b1\ninv t = -t\nendo t = t^2\n"
                       "act z = z\n", encoding="utf-8")
        code, out = invoke(capsys, "check-endo", str(bad))
        assert code == 1 and "multiplication-compatibility: FAIL" in out

    def test_trdeg(self, capsys):
        code, out = invoke(capsys, "trdeg", path("e1.prob"), "--pair", "1")
        assert code == 0
        assert "trdeg: 1" in out and "jacobian-rank: 1" in out

    def test_trdeg_char_p_notes_the_route(self, capsys):
        code, out = invoke(capsys, "trdeg", path("e2.prob"), "--pair", "1")
        assert code == 0
        assert "separable: true" in out and "\nnote: a full Jacobian rank certifies " \
            "independence; a short one is settled by elimination\n" in out

    def test_factor_and_reuse(self, tmp_path, capsys):
        out_path = tmp_path / "induced.prob"
        code, out = invoke(capsys, "factor", path("e2.prob"),
                           "--emit", str(out_path))
        assert code == 0
        assert "induced-act[z2]: z1*u + z2" in out
        code, out = invoke(capsys, "invariants", str(out_path), "--pair", "1")
        assert code == 0
        assert "f[z2]: 0" in out

    def test_fppf_and_recheck(self, tmp_path, capsys):
        out_path = tmp_path / "cover.prob"
        code, out = invoke(capsys, "fppf", path("e2.prob"), "--pair", "1",
                           "--emit", str(out_path))
        assert code == 0
        assert "relation1: z1*w^2 + z2" in out
        assert "cover-pair-classification: principle" in out
        cover = parse_problem(out_path.read_text(encoding="utf-8"))
        assert [r.text() for r in cover.action.relations] == ["z1*w^2 + z2"]
        code, _ = invoke(capsys, "check-pair", str(out_path), "--pair", "1")
        assert code == 0

    def test_cross_section(self, capsys):
        code, out = invoke(capsys, "cross-section", path("e1.prob"), "--pair", "1")
        assert code == 0
        assert "generator1: z2" in out and "H: z1" in out
        assert "stabilizer-trivial(1, 0): pass" in out

    def test_pedestal_and_stable(self, capsys):
        code, out = invoke(capsys, "pedestal", path("e1_stable.prob"))
        assert code == 0 and "generator1: z1" in out
        code, out = invoke(capsys, "stable", path("e1_stable.prob"))
        assert code == 0
        assert "point(1, 0): stable" in out
        assert "point(0, 5): not-stable" in out
        assert "relative to the supplied pairs" in out

    def test_pedestal_rejects_failing_pair(self, capsys):
        code, out = invoke(capsys, "pedestal", path("e1.prob"))
        assert code == 1 and "pair2-verified: FAIL" in out

    @pytest.mark.parametrize("verb", ["pedestal", "stable"])
    def test_pedestal_and_stable_validate_the_action(self, verb, tmp_path, capsys):
        """z2 + t^2 breaks compatibility with the law, which the pair
        identity of z1/1 alone does not see."""
        bad = tmp_path / "bad_action_pair.prob"
        bad.write_text("field Q\nring z1 z2\ngroup dim 1 coords t\nmult t = a1 + b1\n"
                       "inv t = -t\nact z1 = z1 + t\nact z2 = z2 + t^2\n"
                       "pair 1 g z1\npair 1 h 1\npoint 0 0\n", encoding="utf-8")
        code, out = invoke(capsys, verb, str(bad))
        assert code == 1 and "action-compatibility: FAIL" in out
        _, pair_check = invoke(capsys, "check-pair", str(bad), "--pair", "1")

        def validation(report):
            return [line for line in report.splitlines()
                    if line.startswith(("law-", "action-"))]
        assert validation(out) == validation(pair_check)

    @pytest.mark.parametrize("verb", ["factor", "fppf", "nagata"])
    def test_emit_to_unwritable_path_is_exit_2(self, verb, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text("1\n2\n", encoding="utf-8")
        argv = {"factor": ["factor", path("e2.prob")],
                "fppf": ["fppf", path("e2.prob"), "--pair", "1"],
                "nagata": ["nagata", "2", "1", "--points", str(points)]}[verb]
        target = tmp_path / "missing" / "out.prob"
        code = run([*argv, "--emit", str(target)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out and not target.exists()
        assert captured.err.startswith(f"error: cannot write {target}: ")

    def test_semi_invariant(self, capsys):
        code, out = invoke(capsys, "semi-invariant", path("gm_diag.prob"),
                           "--g", "x", "--h", "y", "--e", "0", "--q", "1")
        assert code == 0 and "semi-invariant: pass" in out
        code, out = invoke(capsys, "semi-invariant", path("gm_diag.prob"),
                           "--g", "x^2", "--h", "y", "--e", "1", "--q", "2")
        assert code == 1 and "semi-invariant: FAIL" in out

    def test_semi_invariant_power_limit(self, capsys):
        """(x + y)^e has e + 1 terms, so e = 499 is the largest power built."""
        argv = ["semi-invariant", path("gm_diag.prob"), "--g", "x", "--h", "x + y"]
        code, out = invoke(capsys, *argv, "--e", "499", "--q", "-498")
        assert code == 0 and "semi-invariant: pass" in out
        code = run([*argv, "--e", "500", "--q", "-499"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == ("error: --h/--e: power 500 of a 2-term expression "
                                "may exceed 500 terms\n")

    def test_huge_semi_invariant_power_is_refused_quickly(self):
        proc = subprocess.run([sys.executable, "-m", "pairkit", "semi-invariant",
                               path("gm_diag.prob"), "--g", "x", "--h", "x + y",
                               "--e", "1000000", "--q", "0"],
                              capture_output=True, text=True, timeout=10,
                              env=child_env())
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr == ("error: --h/--e: power 1000000 of a 2-term expression "
                               "may exceed 500 terms\n")

    @staticmethod
    def semi_invariant(h, e, q):
        return subprocess.run([sys.executable, "-m", "pairkit", "semi-invariant",
                               path("gm_diag.prob"), "--g", "x", "--h", h,
                               "--e", str(e), "--q", str(q)],
                              capture_output=True, text=True, timeout=10,
                              env=child_env())

    def test_huge_semi_invariant_power_of_a_monomial_passes_quickly(self):
        """Both e-th powers are taken by squaring; h^e is never pushed forward."""
        proc = self.semi_invariant("x", 1000000, -999999)
        assert proc.returncode == 0 and "semi-invariant: pass" in proc.stdout

    def test_huge_semi_invariant_coefficient_power_is_refused_quickly(self):
        proc = self.semi_invariant("3/2", 1000000, 0)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr == ("error: --h/--e: power 1000000 of a 2-bit coefficient "
                               "may exceed 4096 bits\n")

    @pytest.mark.parametrize("g,h", [("x^2049", "y"), ("x", "x*y^2048")])
    def test_semi_invariant_degree_limit(self, capsys, g, h):
        code = run(["semi-invariant", path("gm_diag.prob"), "--g", g, "--h", h,
                    "--e", "1", "--q", "0"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        option = "--g" if g != "x" else "--h"
        assert captured.err == f"error: {option}: total degree 2049 exceeds 2048\n"

    def test_nagata(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text("1\n2\n", encoding="utf-8")
        emitted = tmp_path / "nagata.prob"
        code, out = invoke(capsys, "nagata", "2", "1", "--points", str(points),
                           "--emit", str(emitted))
        assert code == 0
        assert "act[x3]: -2*x1*s + x3" in out
        assert "act[x4]: x2*s + x4" in out
        assert "oracle3: x2*x3 + 2*x1*x4" in out
        problem = parse_problem(emitted.read_text(encoding="utf-8"))
        assert [p.text() for p in problem.pairs[1][0]] == ["x4"]

    def test_nagata_rejects_degenerate_points(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text("1\n0\n", encoding="utf-8")
        code = run(["nagata", "2", "1", "--points", str(points)])
        err = capsys.readouterr().err
        assert code == 2 and "zero minor" in err

    def test_nagata_rejects_non_utf8_points(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_bytes(b"\xff1\n2\n3\n4\n")
        code = run(["nagata", "4", "3", "--points", str(points)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.startswith("error: cannot read") and "not UTF-8" in captured.err

    def test_nagata_missing_points_file_is_exit_2(self, tmp_path, capsys):
        code = run(["nagata", "4", "3", "--points", str(tmp_path / "none.txt")])
        assert code == 2 and "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("1 x\n2\n", "bad rational literal 'x' (line 1)"),
        ("1\n2 3\n", "expected 1 coordinates (line 2)"),
        ("1.5\n2\n", "bad rational literal '1.5' (line 1)"),
        ("# two points\n1/2\n-3 1/0\n", "zero denominator in rational literal (line 3)"),
        ("1\n" + "9" * 601 + "\n", "integer literal of 601 digits exceeds 600 digits "
         "(line 2)")],
        ids=["word", "short-row", "decimal", "word-before-row-length", "digits"])
    def test_nagata_points_are_read_as_point_lines(self, tmp_path, capsys, text, message):
        points = tmp_path / "pts.txt"
        points.write_text(text, encoding="utf-8")
        code = run(["nagata", "2", "1", "--points", str(points)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == f"error: {message}\n"

    def test_nagata_huge_exponent_point_is_refused_quickly(self, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("1e100000000\n2\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pairkit", "nagata", "2", "1",
                               "--points", str(points)],
                              capture_output=True, text=True, timeout=10,
                              env=child_env())
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr == "error: bad rational literal '1e100000000' (line 1)\n"

    @pytest.mark.parametrize("argv,message", [
        (["semi-invariant", path("gm_diag.prob"), "--g", "x", "--h", "2*x",
          "--e", "5000", "--q", "0"],
         "--h/--e: power 5000 of a 1-bit coefficient may exceed 4096 bits"),
        (["semi-invariant", path("gm_diag.prob"), "--g", "x + $", "--h", "y",
          "--e", "1", "--q", "0"],
         "--g: unexpected character '$' (col 5)"),
        (["semi-invariant", path("gm_diag.prob"), "--g", "x", "--h", "2^5000",
          "--e", "1", "--q", "0"],
         "--h: power 5000 of a 1-bit constant may exceed 4096 bits (col 3)"),
        (["invariants", path("e1.prob"), "--pair", "1", "--probe", "z1^3000"],
         "--probe: total degree 3000 exceeds 2048"),
        (["invariants", path("e1.prob"), "--pair", "1", "--probe", "z1", "--probe", "z1 +"],
         "--probe: unexpected end of expression"),
        (["semi-invariant", path("gm_diag.prob"), "--g", "x", "--h", "y",
          "--e", "-1", "--q", "0"],
         "e must be non-negative")],
        ids=["coefficient-power", "g-syntax", "constant-power", "probe-degree",
             "probe-syntax", "negative-e"])
    def test_command_line_expression_errors_name_their_option(self, capsys, argv, message):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == f"error: {message}\n"

    def test_huge_power_is_refused_quickly(self, tmp_path):
        bad = tmp_path / "huge.prob"
        bad.write_text("field Q\nring z1 z2\ngroup dim 1 coords t\n"
                       "mult t = a1 + b1\ninv t = -t\nact z1 = z1\n"
                       "act z2 = z2 + t*z1 + (z1 + z2)^100000\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pairkit", "check-group", str(bad)],
                              capture_output=True, text=True, timeout=10,
                              env=child_env())
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("error: ") and "100000" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("line,reason", [
        ("act z2 = z2 + t*z1^1000000", "total degree 1000001 exceeds 2048"),
        ("act z2 = z2 + 3^3000000*t", "power 3000000 of a 2-bit constant"),
        ("relation z1^" + "9" * 5000, "integer literal of 5000 digits"),
        ("point " + "9" * 5000 + " 1", "integer literal of 5000 digits"),
        ("act z2 = z2 + (z1 + 1)^29*(z2 + 1)^29*(t + 1)^29*(z1 - 1)^29",
         "product of a 27000-term and a 30-term expression")],
        ids=["degree", "constant", "literal", "point", "product"])
    def test_oversized_input_is_refused_quickly(self, tmp_path, line, reason):
        lines = ["field Q", "ring z1 z2", "group dim 1 coords t", "mult t = a1 + b1",
                 "inv t = -t", "act z1 = z1", "act z2 = z2 + t*z1"]
        keyword = line.split()[0]
        if keyword == "relation":
            lines.insert(2, line)
        elif keyword == "act":
            lines[-1] = line
        else:
            lines.append(line)
        bad = tmp_path / "oversized.prob"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pairkit", "check-action", str(bad)],
                              capture_output=True, text=True, timeout=10,
                              env=child_env())
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("error: ") and reason in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [[], ["--g", "x", "--h", "y", "--e", "1",
                                           "--q", "2000000"]],
                             ids=["check-action", "semi-invariant"])
    def test_huge_weights_pass_quickly(self, tmp_path, args):
        """Only the powers of w whose exponents occur are built, so a weight
        of a million costs a few squarings."""
        prob = tmp_path / "weights.prob"
        prob.write_text("field Q\nring x y\ngmact x = w^1000000*x\n"
                        "gmact y = w^-1000000*y\n", encoding="utf-8")
        verb = "semi-invariant" if args else "check-action"
        proc = subprocess.run([sys.executable, "-m", "pairkit", verb, str(prob), *args],
                              capture_output=True, text=True, timeout=10,
                              env=child_env())
        assert proc.returncode == 0 and proc.stdout.endswith("status: ok\n")
        assert "compatibility: pass" in proc.stdout

    def test_huge_witness_coefficient_prints_exactly(self, tmp_path):
        """The compatibility witness has a 5237-digit coefficient, beyond
        Python's default int digit limit for str()."""
        bad = tmp_path / "huge-witness.prob"
        bad.write_text("field Q\nring z1 z2\ngroup dim 1 coords t\nmult t = a1 + b1\n"
                       "inv t = -t\nact z1 = z1 + t\n"
                       "act z2 = z2 + 2^4096*3^2000*5^1300*7^1300*11^1000*t^2*z1\n",
                       encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pairkit", "check-action", str(bad)],
                              capture_output=True, text=True, timeout=10,
                              env=child_env())
        assert proc.returncode == 1 and proc.stderr == ""
        witness = proc.stdout.split("action-compatibility-witness: z2: -")[1]
        digits = witness.split("*")[0]
        value = 0
        for i in range(0, len(digits), 500):
            value = value * 10**len(digits[i:i + 500]) + int(digits[i:i + 500])
        assert len(digits) == 5237
        assert value == 2 * 2**4096 * 3**2000 * 5**1300 * 7**1300 * 11**1000

    def test_invariants_on_non_principle_pair(self, capsys):
        code, out = invoke(capsys, "invariants", path("e2.prob"), "--pair", "1")
        assert code == 1
        assert "principle-required: FAIL" in out
        assert "factor" in out


class TestJsonAndDeterminism:
    def test_json_mode(self, capsys):
        code, out = invoke(capsys, "mukai", "9", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["finitely-generated"] == "true"
        assert data["status"] == "ok"

    def test_reports_byte_identical_in_process(self, capsys):
        args = ["invariants", path("e1.prob"), "--pair", "1", "--probe", "1/z1"]
        _, first = invoke(capsys, *args)
        _, second = invoke(capsys, *args)
        assert first == second

    def test_reports_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "pairkit", "check-pair",
               str(PROBLEMS / "heisenberg.prob"), "--pair", "1"]
        env = child_env(PYTHONHASHSEED="random")
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout and first.stdout


class TestVerifyOnce:
    """Verbs that build on a pair check it exactly once, on the problem's own
    action; `fppf` also self-checks the cover pair, on the cover action."""

    @pytest.mark.parametrize("verb", ["invariants", "fppf", "cross-section"])
    def test_pair_checked_once(self, verb, monkeypatch, capsys):
        real = pairs.check_alpha_pair
        actions = []

        def counting(action, *args, **kwargs):
            actions.append(action)
            return real(action, *args, **kwargs)

        monkeypatch.setattr(pairs, "check_alpha_pair", counting)
        code, _ = invoke(capsys, verb, path("e1.prob"), "--pair", "1")
        assert code == 0
        own = load("e1.prob").ring.names
        assert sum(action.ring.names == own for action in actions) == 1


class TestTorusRelations:
    def test_check_action_refuses_a_moved_relation(self, tmp_path, capsys):
        problem = tmp_path / "moved.prob"
        problem.write_text("field Q\nring x y\nrelation x - y\ngmact x = w*x\n"
                           "gmact y = w^2*y\n", encoding="utf-8")
        code, out = invoke(capsys, "check-action", str(problem))
        assert code == 1
        assert "ideal-preserved: FAIL\nideal-preserved-witness: -y*w^2 + y*w\n" in out

    def test_semi_invariant_holds_modulo_the_relation(self, capsys):
        """x^2 - y + x is x in Q[x, y]/<x^2 - y>, of weight 1."""
        code, out = invoke(capsys, "semi-invariant", path("gm_quotient.prob"),
                           "--g", "x^2 - y + x", "--h", "1", "--e", "1", "--q", "1")
        assert code == 0 and "semi-invariant: pass" in out


class TestRelationLines:
    """Verbs judge a pair in the quotient ring that the problem's `relation`
    lines define: for z1/(1 + z2) under z1 -> z1 + t the identity's
    difference is -z2^2*t - z2*t, which is zero modulo <z2> only."""

    HEAD = ("field Q\nring z1 z2\nrelation z2\ngroup dim 1 coords t\n"
            "mult t = a1 + b1\ninv t = -t\nact z1 = z1 + t\nact z2 = z2\n")

    def write(self, tmp_path, g):
        problem = tmp_path / "quotient.prob"
        problem.write_text(self.HEAD + f"pair 1 g {g}\npair 1 h 1 + z2\n",
                           encoding="utf-8")
        return str(problem)

    def test_pair_holds_modulo_the_relation(self, tmp_path, capsys):
        problem = self.write(tmp_path, "z1")
        code, out = invoke(capsys, "check-pair", problem, "--pair", "1")
        assert code == 0 and "identity: pass" in out
        code, out = invoke(capsys, "trdeg", problem, "--pair", "1")
        assert code == 0 and "trdeg: 1" in out
        code, out = invoke(capsys, "pedestal", problem, "--which", "all")
        assert code == 0 and "pair1-verified: pass" in out

    def test_invariants_are_invariant_modulo_the_relation(self, tmp_path, capsys):
        """f for z1 is z1*z2/(1 + z2), invariant modulo <z2> only: its
        invariance postcondition is judged in the quotient, like the pair."""
        problem = self.write(tmp_path, "z1")
        code, out = invoke(capsys, "invariants", problem, "--pair", "1")
        assert code == 0 and "postcondition-invariant: pass" in out

    def test_relations_presentation_works_modulo_the_relation(self, tmp_path, capsys):
        """f[z2] = z2 lies in <z2>, so W2 is a relation, and then so is W1:
        f[z1] = z1*z2/(1 + z2) is a multiple of z2."""
        problem = self.write(tmp_path, "z1")
        code, out = invoke(capsys, "invariants", problem, "--pair", "1", "--relations")
        assert code == 0 and "relation[1]: W2\nrelation[2]: W1\nstatus: ok" in out

    def test_probe_vanishing_in_A_is_invariant(self, tmp_path, capsys):
        """z1*z2 is 0 in A: invariant in A[t], and equal there to its value
        at the generators, though it moves in the free ring."""
        problem = self.write(tmp_path, "z1")
        code, out = invoke(capsys, "invariants", problem, "--pair", "1", "--probe", "z1*z2")
        assert code == 0 and "probe[z1*z2]: pass" in out

    def test_one_basis_of_I_per_action(self, tmp_path, capsys, monkeypatch):
        """The pair identity and the Dixmier postcondition share the action's
        one grevlex basis of <z2>; the other Buchberger runs are the
        nilpotence saturation and the two graph eliminations."""
        problem = self.write(tmp_path, "z1")
        calls, real = [], gbasis.buchberger
        monkeypatch.setattr(gbasis, "buchberger",
                            lambda *args: calls.append(args) or real(*args))
        code, _ = invoke(capsys, "invariants", problem, "--pair", "1", "--relations")
        assert code == 0 and len(calls) == 4
        assert [[g.text() for g in gens] for gens, order in calls
                if order == GREVLEX].count(["z2"]) == 1

    def test_relations_presentation_of_an_fppf_cover(self, tmp_path, capsys):
        """On the e2 cover, f[w] = 0 and f[z2] = z1*w^2 + z2 lies in the
        cover's relation ideal, so both W3 and W2 are relations."""
        cover = tmp_path / "cover.prob"
        code, _ = invoke(capsys, "fppf", path("e2.prob"), "--pair", "1",
                         "--emit", str(cover))
        assert code == 0
        code, out = invoke(capsys, "invariants", str(cover), "--pair", "1", "--relations")
        assert code == 0 and "f[z2]: z1*w^2 + z2\n" in out
        assert "relation[1]: W3\nrelation[2]: W2\nstatus: ok" in out

    def test_pair_wrong_modulo_the_relation_fails(self, tmp_path, capsys):
        """2*z1/(1 + z2) leaves -z2^2*t + t, which is t modulo <z2>."""
        problem = self.write(tmp_path, "2*z1")
        code, out = invoke(capsys, "check-pair", problem, "--pair", "1")
        assert code == 1 and "identity: FAIL" in out
        code, out = invoke(capsys, "pedestal", problem, "--which", "all")
        assert code == 1 and "pair1-verified: FAIL" in out

    @pytest.mark.parametrize("text, witness", [
        ("field Q\nring z1 z2\nrelation z2\ngroup dim 1 coords t\nmult t = a1 + b1\n"
         "inv t = -t\nact z1 = z1\nact z2 = z2 + t*z1\npair 1 g z1\npair 1 h 1\n"
         "point 1 0\n", "z1*t"),
        ("field Q\nring z1 z2 z3\nrelation z2*z3\ngroup dim 2 coords t1 t2\n"
         "mult t1 = a1 + b1\nmult t2 = a2 + b2\ninv t1 = -t1\ninv t2 = -t2\n"
         "act z1 = z1 + t1\nact z2 = z2\nact z3 = z3 + t2\npair 1 g z1\npair 1 h 1\n"
         "pair 1 g z3\npair 1 h 1\npoint 0 0 0\n", "z2*t2"),
    ], ids=["z2-moved", "z2*z3-moved"])
    def test_action_must_preserve_the_relations(self, tmp_path, capsys, text, witness):
        """Each action acts on the free ring but moves a relation out of I,
        so it is no action on A: check-action and every verb that validates
        the action end in exit 1, the witness the residue of v(r) - r."""
        problem = tmp_path / "moved.prob"
        problem.write_text(text, encoding="utf-8")
        for argv in (["check-action"], ["check-pair", "--pair", "1"],
                     ["invariants", "--pair", "1"], ["fppf", "--pair", "1"],
                     ["cross-section", "--pair", "1"], ["pedestal"], ["stable"]):
            code, out = invoke(capsys, argv[0], str(problem), *argv[1:])
            assert code == 1, argv
            assert "action-ideal-preserved: FAIL\naction-ideal-preserved-witness: " \
                f"{witness}\n" in out, argv

    def test_point_off_the_variety_is_refused(self, tmp_path, capsys):
        """z2 = 5 is no point of V(z2): parsing refuses it before any verb
        judges its stabilizer or its stability."""
        problem = tmp_path / "off.prob"
        problem.write_text(self.HEAD + "pair 1 g z1\npair 1 h 1 + z2\npoint 0 5\n",
                           encoding="utf-8")
        for argv in (["cross-section", "--pair", "1"], ["stable"]):
            code = run([argv[0], str(problem), *argv[1:]])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "point (0, 5) is off V(I): relation z2 does not vanish there" \
                in captured.err

    # z2 and z3 are fixed, so the action preserves <z2*z3>
    UNIPOTENT4 = ("field Q\nring z1 z2 z3 z4\nrelation z2*z3\ngroup dim 2 coords t1 t2\n"
                  "mult t1 = a1 + b1\nmult t2 = a2 + b2\ninv t1 = -t1\ninv t2 = -t2\n"
                  "act z1 = z1 + t1\nact z2 = z2\nact z3 = z3\nact z4 = z4 + t2\n")

    @pytest.mark.parametrize("text, H", [
        (HEAD + "pair 1 g z1\npair 1 h z2\n", "z2"),
        (HEAD.replace("relation z2", "relation z2^2") + "pair 1 g z1\npair 1 h z2\n", "z2"),
        (UNIPOTENT4 + "pair 1 g z1\npair 1 h z2\npair 1 g z4\npair 1 h z3\n", "z2*z3"),
    ], ids=["h-in-I", "h-squared-in-I", "product-in-I"])
    def test_nilpotent_H_is_refused(self, tmp_path, capsys, text, H):
        """g/h is undefined in A when H is nilpotent there: the graph ideal is
        the unit ideal, which once read as trdeg -1."""
        problem = tmp_path / "nilpotent.prob"
        problem.write_text(text, encoding="utf-8")
        for verb in ("check-pair", "trdeg"):
            code = run([verb, str(problem), "--pair", "1"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"pair 1: H = {H} is nilpotent" in captured.err

    def test_zero_divisor_h_is_kept(self, tmp_path, capsys):
        """h = z2 is a zero-divisor of k[z]/<z2*z3>, not nilpotent: the verbs
        work on D(z2), where z3 = 0."""
        problem = tmp_path / "zero-divisor.prob"
        problem.write_text(
            "field Q\nring z1 z2 z3\nrelation z2*z3\ngroup dim 1 coords t\n"
            "mult t = a1 + b1\ninv t = -t\nact z1 = z1 + t*z2\nact z2 = z2\nact z3 = z3\n"
            "pair 1 g z1\npair 1 h z2\n", encoding="utf-8")
        code, out = invoke(capsys, "check-pair", str(problem), "--pair", "1")
        assert code == 0 and "identity: pass" in out and "trdeg: 1" in out
        code, out = invoke(capsys, "trdeg", str(problem), "--pair", "1")
        assert code == 0 and "trdeg: 1" in out

    def test_fppf_cover_keeps_the_relations(self, tmp_path, capsys):
        """The cover ring is k[z, w] modulo the base relations and the new
        ones, so the emitted file is a cover of the quotient."""
        problem, cover = self.write(tmp_path, "z1"), tmp_path / "cover.prob"
        code, out = invoke(capsys, "fppf", problem, "--pair", "1", "--emit", str(cover))
        assert code == 0
        assert "relation1: z2\nrelation2: z2*w - z1 + w\n" in out
        lines = cover.read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("relation")] == \
            ["relation z2", "relation z2*w - z1 + w"]
        code, out = invoke(capsys, "check-pair", str(cover), "--pair", "1")
        assert code == 0 and "identity: pass" in out


class TestActionIdentitiesModuloI:
    """The axioms, triviality, the kernel test and factoring are decided in
    A = k[z]/I, as the pair identity is: an action written only modulo the
    relations is judged by what it does on A."""

    HEAD = ("field Q\nring z1 z2\nrelation z2\ngroup dim 1 coords t\n"
            "mult t = a1 + b1\ninv t = -t\n")

    def write(self, tmp_path, text, name="quotient.prob"):
        problem = tmp_path / name
        problem.write_text(text, encoding="utf-8")
        return str(problem)

    def test_action_written_modulo_I_passes(self, tmp_path, capsys):
        """z1 -> z1 + t + t^2*z2: the two sides of compatibility differ by
        2*a*b*z2 in the free ring, which is 0 in A[a, b]."""
        problem = self.write(tmp_path, self.HEAD + "act z1 = z1 + t + t^2*z2\nact z2 = z2\n"
                             "pair 1 g z1\npair 1 h 1\n")
        code, out = invoke(capsys, "check-action", problem)
        assert code == 0
        assert "action-unit-axiom: pass\naction-compatibility: pass\n" in out
        assert "action-fully-trivial: false\n" in out

    def test_action_trivial_on_A_is_refused(self, tmp_path, capsys):
        """z1 -> z1 + t*z2 moves z1 in the free ring only: on A it is the
        trivial action, whose pairs are refused."""
        problem = self.write(tmp_path, self.HEAD + "act z1 = z1 + t*z2\nact z2 = z2\n"
                             "pair 1 g z1\npair 1 h 1\n")
        code, out = invoke(capsys, "check-action", problem)
        assert code == 0 and "action-fully-trivial: true\n" in out
        code = run(["check-pair", problem, "--pair", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "the action is fully trivial" in captured.err

    def test_frobenius_kernel_acts_trivially_modulo_I(self, tmp_path, capsys):
        """Over F_2 with alpha = t^2, v(z1) - z1 = t^2 + t*z2 is t*z2 modulo
        the kernel <t^2>, and 0 in A[t]: the pair is quasi-principle, and the
        action factors, its induced images reduced modulo I."""
        problem = self.write(tmp_path, "field Fp 2\nring z1 z2\nrelation z2\n"
                             "group dim 1 coords t\nmult t = a1 + b1\ninv t = t\n"
                             "endo t = t^2\nact z1 = z1 + t^2 + t*z2\nact z2 = z2\n"
                             "pair 1 g z1\npair 1 h 1\n")
        code, out = invoke(capsys, "check-pair", problem, "--pair", "1")
        assert code == 0 and "classification: quasi-principle\n" in out
        induced = tmp_path / "induced.prob"
        code, out = invoke(capsys, "factor", problem, "--emit", str(induced))
        assert code == 0 and "defining-identity: pass\n" in out
        assert "induced-act[z1]: z1 + u\ninduced-act[z2]: 0\n" in out
        code, out = invoke(capsys, "invariants", str(induced), "--pair", "1")
        assert code == 0 and "classification: principle\n" in out

    def test_trdeg_validates_the_action(self, tmp_path, capsys):
        """z2 -> z2 + t*z1 is no action on k[z1, z2]/<z2>: trdeg, like
        check-pair, reports the failed validation instead of a degree."""
        problem = self.write(tmp_path, self.HEAD + "act z1 = z1\nact z2 = z2 + t*z1\n"
                             "pair 1 g z2\npair 1 h z1\n")
        for verb in ("check-pair", "trdeg"):
            code, out = invoke(capsys, verb, problem, "--pair", "1")
            assert code == 1, verb
            assert "action-ideal-preserved: FAIL\n" in out and "trdeg: " not in out, verb


class TestFactorRefusals:
    """factor validates the law, the action and alpha before it factors: a
    bad law or action is a failed check (exit 1), an alpha that is no
    endomorphism an input error (exit 2), neither a failed self-check."""

    def write(self, tmp_path, text):
        problem = tmp_path / "factor.prob"
        problem.write_text(text, encoding="utf-8")
        return str(problem)

    def test_invalid_law_is_a_failed_check(self, tmp_path, capsys):
        """Over F_2, t -> t is no inverse for a + b + a*b: its witness is t^2."""
        problem = self.write(tmp_path, "field Fp 2\nring z1 z2\ngroup dim 1 coords t\n"
                             "mult t = a1 + b1 + a1*b1\ninv t = t\nendo t = t^2\n"
                             "act z1 = z1\nact z2 = z2 + t^2*z1\n")
        code, out = invoke(capsys, "factor", problem)
        assert code == 1
        assert "law-inverse-right: FAIL\n" in out and "induced-act" not in out

    def test_alpha_that_is_no_homomorphism_is_refused(self, tmp_path, capsys):
        """t -> t + t^2 does not respect a + b; the action itself is valid."""
        problem = self.write(tmp_path, "field Q\nring z1 z2\ngroup dim 1 coords t\n"
                             "mult t = a1 + b1\ninv t = -t\nendo t = t + t^2\n"
                             "act z1 = z1\nact z2 = z2 + t*z1\n")
        code, _ = invoke(capsys, "check-action", problem)
        assert code == 0
        code = run(["factor", problem])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "multiplication-compatibility" in captured.err
