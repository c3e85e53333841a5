import json
import subprocess
import sys

import pytest

from pairkit import cli
from pairkit.cli import run
from pairkit.problem import parse_problem

from conftest import PROBLEMS, ROOT


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

    def test_trdeg_char_p_notes_refusal(self, capsys):
        code, out = invoke(capsys, "trdeg", path("e2.prob"), "--pair", "1")
        assert code == 0
        assert "separable: true" in out and "refused" in out

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
        assert [r.text() for r in cover.relations] == ["z1*w^2 + z2"]
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

    def test_semi_invariant(self, capsys):
        code, out = invoke(capsys, "semi-invariant", path("gm_diag.prob"),
                           "--g", "x", "--h", "y", "--e", "0", "--q", "1")
        assert code == 0 and "semi-invariant: pass" in out
        code, out = invoke(capsys, "semi-invariant", path("gm_diag.prob"),
                           "--g", "x^2", "--h", "y", "--e", "1", "--q", "2")
        assert code == 1 and "semi-invariant: FAIL" in out

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

    def test_huge_power_is_refused_quickly(self, tmp_path):
        bad = tmp_path / "huge.prob"
        bad.write_text("field Q\nring z1 z2\ngroup dim 1 coords t\n"
                       "mult t = a1 + b1\ninv t = -t\nact z1 = z1\n"
                       "act z2 = z2 + t*z1 + (z1 + z2)^100000\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pairkit", "check-group", str(bad)],
                              capture_output=True, text=True, timeout=10,
                              env={"PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("error: ") and "100000" in proc.stderr
        assert "Traceback" not in proc.stderr

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
        env_path = str(ROOT / "src")
        import os
        env = dict(os.environ, PYTHONPATH=env_path, PYTHONHASHSEED="random")
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout and first.stdout


class TestVerifyOnce:
    """Verbs that build on a pair check it exactly once."""

    @pytest.mark.parametrize("verb", ["invariants", "fppf", "cross-section"])
    def test_pair_checked_once(self, verb, monkeypatch, capsys):
        real = cli.check_alpha_pair
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "check_alpha_pair", counting)
        code, _ = invoke(capsys, verb, path("e1.prob"), "--pair", "1")
        assert code == 0
        assert len(calls) == 1
