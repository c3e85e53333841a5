"""One CLI call of the benchmark: its argv, the outcome fixed in advance, and
the two ways of running it (child process, or in process through
`pairkit.cli.run`).

Expected outcomes come from the construction of the generated inputs or from
the README and test expectations, never from pairkit's current output.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

CALL_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Call:
    """A pairkit invocation and the outcome it must produce.

    `keys` are exact `key: value` report lines (JSON members for `--json`
    calls); `counts` are (key prefix, value, how many lines) triples, e.g.
    ("probe[", "pass", 12), where a value of None matches any value; `err`
    is a substring of stderr for exit-2 calls.
    """

    argv: tuple
    code: int
    keys: tuple = ()
    counts: tuple = ()
    err: str = ""

    @property
    def verb(self) -> str:
        return self.argv[0] if self.argv else ""

    def label(self) -> str:
        text = " ".join(self.argv)
        return text if len(text) <= 120 else text[:117] + "..."


@dataclass
class Outcome:
    code: int
    out: bytes
    err: bytes
    seconds: float
    timed_out: bool = False

    def digest(self) -> str:
        return hashlib.sha256(self.out).hexdigest()


def _report_pairs(call: Call, out: str):
    if "--json" in call.argv:
        try:
            data = json.loads(out)
        except ValueError:
            return None
        return [(k, str(v)) for k, v in data.items()]
    pairs = []
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs.append((key, value))
    return pairs


def problems(call: Call, outcome: Outcome) -> list:
    """Every way the outcome differs from what the call must produce."""
    if outcome.timed_out:
        return [f"timed out after {CALL_TIMEOUT_S:.0f} s"]
    found = []
    if outcome.code != call.code:
        found.append(f"exit {outcome.code}, expected {call.code}")
    out = outcome.out.decode("utf-8", "replace")
    err = outcome.err.decode("utf-8", "replace")
    if call.code == 2:
        if out:
            found.append("exit-2 call wrote a report to stdout")
        if call.err not in err:
            found.append(f"stderr lacks {call.err!r}")
        if "Traceback" in err:
            found.append("traceback on stderr")
        return found
    pairs = _report_pairs(call, out)
    if pairs is None:
        return found + ["stdout is not valid JSON"]
    present = set(pairs)
    status = "ok" if call.code == 0 else "check-failed"
    for key, value in call.keys + (("status", status),):
        if (key, value) not in present:
            found.append(f"missing `{key}: {value}`")
    for prefix, value, count in call.counts:
        got = sum(1 for k, v in pairs
                  if k.startswith(prefix) and value in (None, v))
        if got != count:
            found.append(f"{got} `{prefix}...` lines with value {value}, "
                         f"expected {count}")
    if call.code == 0 and any(v == "FAIL" for _, v in pairs):
        found.append("a check reads FAIL on an exit-0 call")
    return found


def child_env(root) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(call: Call, env) -> Outcome:
    """`python -m pairkit <argv>` in a child process, timed spawn to exit."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pairkit", *call.argv],
                              env=env, capture_output=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return Outcome(-1, exc.stdout or b"", exc.stderr or b"",
                       time.perf_counter() - start, timed_out=True)
    return Outcome(proc.returncode, proc.stdout, proc.stderr,
                   time.perf_counter() - start)


def run_in_process(call: Call) -> Outcome:
    """The same call through `pairkit.cli.run`, with stdout and stderr
    captured; argparse errors arrive as SystemExit."""
    from pairkit import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue().encode("utf-8"),
                   err.getvalue().encode("utf-8"), seconds)
