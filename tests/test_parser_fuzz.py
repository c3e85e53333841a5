"""Parser fuzz: any problem text given to `check-group` ends in exit 0, 1 or
2, never in a traceback, and so does every verb that reads a problem file on
mutated corpus files.  The texts are shipped problems with lines deleted,
replaced or inserted or one word swapped for a grammar word, and files of
random lines built from the grammar's words, the shipped lines and arbitrary
characters.  Arbitrary bytes, invalid UTF-8 included, end the same way.
The words include large numbers, so powers such as `(z1 + z2)^100000` and
`z1^100000` are drawn too, and a 5000-digit literal; the parser refuses them
by their size.  The other verbs see only shipped lines and word swaps with
numbers up to 60, which keeps their inputs small enough to finish quickly.
Skipped when hypothesis is absent."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import PROBLEMS  # noqa: E402
from pairkit import cli  # noqa: E402

SHIPPED = [p.read_text(encoding="utf-8").splitlines()
           for p in sorted(PROBLEMS.glob("*.prob"))]
SHIPPED_LINES = sorted({line for lines in SHIPPED for line in lines})
WORDS = ["version", "field", "ring", "relation", "group", "dim", "coords",
         "mult", "inv", "endo", "act", "gmact", "pair", "point", "g", "h",
         "Q", "Fp", "=", "#", "z1", "z2", "t", "t1", "t2", "a1", "b1", "w",
         "0", "1", "2", "3", "7", "1/2", "60", "2000", "100000", "9" * 5000, "\u00b2",
         "\u0663", "-", "+", "*", "^", "/", "(", ")"]

characters = st.characters(blacklist_categories=("Cs",))
power_line = st.builds("act z2 = z2 + t*z1 + ({})^{}".format,
                       st.sampled_from(["z1 + z2", "z1 - 1/2*z2 + t", "z1", "2"]),
                       st.integers(0, 10**6))
any_line = st.one_of(
    st.sampled_from(SHIPPED_LINES),
    power_line,
    st.lists(st.sampled_from(WORDS), max_size=10).map(" ".join),
    st.text(alphabet=characters, max_size=20))


@st.composite
def mutated_problem(draw, new_line=any_line, words=WORDS, edits=st.integers(1, 3)):
    lines = list(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(edits)):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["delete", "replace", "insert", "word"]))
        if action == "insert" or at == len(lines):
            lines.insert(at, draw(new_line))
        elif action == "replace":
            lines[at] = draw(new_line)
        elif action == "word" and lines[at].split():
            words_at = lines[at].split()
            words_at[draw(st.integers(0, len(words_at) - 1))] = draw(st.sampled_from(words))
            lines[at] = " ".join(words_at)
        else:
            del lines[at]
    return "\n".join(lines) + "\n"


problem_texts = st.one_of(
    mutated_problem(),
    st.lists(any_line, max_size=12).map("\n".join))


def run_verb(tmp_path_factory, content: bytes, verb=("check-group",)):
    path = tmp_path_factory.getbasetemp() / "fuzz.prob"
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([verb[0], str(path), *verb[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and not out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=problem_texts)
def test_check_group_ends_in_a_verdict_or_a_named_error(tmp_path_factory, text):
    run_verb(tmp_path_factory, text.encode("utf-8"))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(content=st.binary(max_size=40))
def test_check_group_on_arbitrary_bytes(tmp_path_factory, content):
    run_verb(tmp_path_factory, content)


SMALL_WORDS = [w for w in WORDS if not (w.isdecimal() and len(w) > 2)]  # up to 60
VERBS = [("check-action",), ("check-endo",), ("factor",)] + [
    (verb, "--pair", str(k)) for verb in ("check-pair", "trdeg", "invariants")
    for k in (1, 2)]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(verb=st.sampled_from(VERBS),
       text=mutated_problem(st.sampled_from(SHIPPED_LINES), SMALL_WORDS,
                            st.integers(0, 2)))
def test_every_verb_ends_in_a_verdict_or_a_named_error(tmp_path_factory, verb, text):
    run_verb(tmp_path_factory, text.encode("utf-8"), verb)


E1_LINES = (PROBLEMS / "e1.prob").read_text(encoding="utf-8").splitlines()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(line=power_line)
def test_check_group_refuses_or_expands_any_power(tmp_path_factory, line):
    text = "\n".join(line if old.startswith("act z2") else old for old in E1_LINES)
    run_verb(tmp_path_factory, (text + "\n").encode("utf-8"))
