"""pairkit benchmark: CLI time-to-verdict on seeded scaling families.

    python3 perfbench/run.py --workload nagata-q --seed 1 --seconds 36 --trace 0

Run from the repository root.  One closed-loop client makes sequential
`python -m pairkit <verb> ...` calls, one child process at a time, and times
each from spawn to exit.  The workload's fixed call list (one round) is
repeated until --seconds is used up, with at least two rounds (so every call
is repeated and its stdout compared byte for byte) and at least 100 calls
(so the p90 has ten samples beyond it).  wall_s is the median round; the
p90 is the Harrell-Davis estimate.  Every call's exit code and report keys
are checked against values fixed by the input's construction.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same call list in process through `pairkit.cli.run`, alternating
untraced and traced rounds, and prints the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Details (environment, per-call digests and problems, samples, spans) go to
.perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads
from calls import Call, child_env, problems, run_child, run_in_process

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("BENCHMARK.json", "src/pairkit/cli.py", "problems/e1.prob")
SCRATCH = Path(".perfbench")

MIN_ROUNDS = 2
MIN_SAMPLES = 100
CAP_S = 120.0
SETUP_REPEATS = 3
STARTUP_REPEATS = 7
ALPHA_CHECK_VERBS = ("check-pair", "invariants", "fppf", "cross-section")


class BenchError(Exception):
    """Set-up failed or the benchmark's own metric list is inconsistent."""


def environment(seed, workload, trace):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(Path("src/pairkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "git_commit": git_commit(), "source_sha256": source.hexdigest()}


def git_commit():
    """HEAD of the checkout if it is a git work tree (read directly, so
    nothing outside the checkout is consulted); None otherwise."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def set_up(name, seed, env):
    """Generate the workload's files into a fresh directory and validate
    them; returns the Workload."""
    work = SCRATCH / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, work, seed)
    for call in workload.setup:
        found = problems(call, run_child(call, env))
        if found:
            raise BenchError(f"set-up call `{call.label()}` failed: "
                             + "; ".join(found))
    return workload


class Ledger:
    """Per-call outcomes of one run: samples, digests, problems."""

    def __init__(self, calls):
        self.calls = calls
        self.digests = [None] * len(calls)
        self.seconds = [[] for _ in calls]
        self.problems = [[] for _ in calls]
        self.attempted = 0
        self.failed = 0

    def record(self, index, outcome, round_no):
        call = self.calls[index]
        found = problems(call, outcome)
        digest = outcome.digest()
        if self.digests[index] is None:
            self.digests[index] = digest
        elif digest != self.digests[index]:
            found.append("stdout differs from the first execution")
        self.attempted += 1
        self.seconds[index].append(outcome.seconds)
        if found:
            self.failed += 1
            self.problems[index].append({"round": round_no, "problems": found})

    def samples(self):
        return [s for per_call in self.seconds for s in per_call]

    def rows(self):
        return [{"argv": list(call.argv), "expected_exit": call.code,
                 "stdout_sha256": digest, "seconds": secs, "problems": probs}
                for call, digest, secs, probs in
                zip(self.calls, self.digests, self.seconds, self.problems)]


def keep_going(rounds, samples, elapsed, round_s, seconds):
    if elapsed >= CAP_S:
        return False
    if rounds < MIN_ROUNDS or samples < MIN_SAMPLES:
        return True
    return elapsed + round_s <= seconds


def harrell_davis(samples, q):
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by the Beta((n+1)q, (n+1)(1-q)) mass of each rank interval,
    so the estimate does not hinge on a single sample."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64      # midpoint rule inside each interval ((i-1)/n, i/n)
    weights = [sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                   for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def measure_children(workload, env, seconds):
    ledger = Ledger(workload.round)
    walls = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for index, call in enumerate(workload.round):
            ledger.record(index, run_child(call, env), len(walls))
        walls.append(time.perf_counter() - began)
        if not keep_going(len(walls), ledger.attempted,
                          time.perf_counter() - start,
                          statistics.median(walls), seconds):
            return ledger, walls


def end_to_end(name, seed, seconds, env):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload = set_up(name, seed, env)
        setup_times.append(time.perf_counter() - began)
    ledger, walls = measure_children(workload, env, seconds)
    samples = ledger.samples()
    beyond = len(samples) - math.ceil(0.9 * len(samples))
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "verdict_s.p50": statistics.median(samples),
        "verdict_s.p90": harrell_davis(samples, 0.9),
        "pass_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
        "peak_rss_mb": rss_mb,
    }
    details = {"setup_s": setup_times, "round_wall_s": walls,
               "verdict_samples": len(samples), "p90_samples_beyond": beyond,
               "fail_ratio": ledger.failed / ledger.attempted,
               "calls": ledger.rows()}
    print(f"{name} seed {seed}: {len(walls)} rounds of {len(workload.round)} "
          f"calls; verdict_s over {len(samples)} samples, {beyond} beyond p90; "
          f"{ledger.failed} failed")
    return ledger, metrics, details, True


def per_layer(name, seed, seconds, env):
    sys.path.insert(0, str(ROOT / "src"))
    workload = set_up(name, seed, env)
    ledger = Ledger(workload.round)
    tracer = tracing.Tracer()
    plain_walls, traced_walls, summaries, residuals = [], [], [], []
    # warm-up round: first-use imports inside pairkit stay out of the timing
    for index, call in enumerate(workload.round):
        ledger.record(index, run_in_process(call), -1)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain = 0.0
        for index, call in enumerate(workload.round):
            outcome = run_in_process(call)
            plain += outcome.seconds
            ledger.record(index, outcome, 2 * len(plain_walls))
        plain_walls.append(plain)

        first = len(tracer.spans)
        traced = 0.0
        tracer.install()
        try:
            for index, call in enumerate(workload.round):
                close = tracer.root(index)
                try:
                    outcome = run_in_process(call)
                finally:
                    close()
                traced += outcome.seconds
                ledger.record(index, outcome, 2 * len(traced_walls) + 1)
        finally:
            tracer.uninstall()
        traced_walls.append(traced)
        summaries.append(tracer.summary(first, len(tracer.spans)))
        residuals.append(tracer.root_residual(first, len(tracer.spans)))
        pair_s = time.perf_counter() - began
        if not keep_going(len(traced_walls), ledger.attempted,
                          time.perf_counter() - start, pair_s, seconds):
            break

    mukai = Call(("mukai", "9", "3"), 0, (("finitely-generated", "true"),))
    startup = []
    for _ in range(STARTUP_REPEATS):
        outcome = run_child(mukai, env)
        if problems(mukai, outcome):
            raise BenchError("`mukai 9 3` failed: "
                             + "; ".join(problems(mukai, outcome)))
        startup.append(outcome.seconds)

    counts_agree = all(s["calls"] == summaries[0]["calls"]
                       and s["buchberger"] == summaries[0]["buchberger"]
                       for s in summaries)
    metrics = layer_metrics(workload, summaries)
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    details = {"untraced_round_s": plain_walls, "traced_round_s": traced_walls,
               "startup_s": startup, "root_residual_s_max": max(residuals),
               "counts_agree_across_rounds": counts_agree,
               "calls": ledger.rows()}
    spans_path = SCRATCH / "results" / f"{name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.rows()), encoding="utf-8")
    details["spans_file"] = str(spans_path)
    print(f"{name} seed {seed}: {len(traced_walls)} untraced and traced "
          f"in-process rounds of {len(workload.round)} calls; "
          f"{len(tracer.spans)} spans; {ledger.failed} failed")
    return ledger, metrics, details, counts_agree and max(residuals) < 1e-6


def layer_metrics(workload, summaries):
    first = summaries[0]

    def med(pick):
        return statistics.median(pick(s) for s in summaries)

    metrics = {}
    for fn in tracing.NAMES:
        metrics[f"{fn}.calls"] = first["calls"][fn]
        metrics[f"{fn}.self_s"] = med(lambda s: s["self_s"][fn])
    for key, value in first["buchberger"].items():
        metrics[f"gbasis.buchberger.{key}"] = value
    metrics["gbasis.ideal_dimension.subsets_computed"] = first["subsets_computed"]
    verbs = [call.verb for call in workload.round]
    for verb in ALPHA_CHECK_VERBS:
        ids = [i for i, v in enumerate(verbs) if v == verb]
        checks = sum(first["alpha_checks_per_call"].get(i, 0) for i in ids)
        metrics[f"pairs.check_alpha_pair.per_call.{verb}"] = \
            checks / len(ids) if ids else 0
    metrics["trace.uncovered_s"] = med(lambda s: s["self_s"][tracing.ROOT])
    metrics["trace.spans"] = sum(first["calls"].values())
    return metrics


def labelled(metrics, declared):
    """Metrics in BENCHMARK.json order with their units; the computed and
    declared names must match exactly."""
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise BenchError(f"metric list mismatch: missing {missing}, "
                         f"undeclared {extra}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: {', '.join(missing)} not found under "
                         f"{ROOT}; run it from a full checkout\n")
        return 2
    if args.workload not in workloads.GENERATORS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.GENERATORS)}\n")
        return 2
    os.chdir(ROOT)
    (SCRATCH / "results").mkdir(parents=True, exist_ok=True)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env(ROOT)
    run = per_layer if args.trace else end_to_end
    try:
        ledger, metrics, details, consistent = run(
            args.workload, args.seed, args.seconds, env)
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = labelled(metrics, declared)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    result = {"correct": ledger.failed == 0 and consistent,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    out = SCRATCH / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    env_info = environment(args.seed, args.workload, args.trace)
    out.write_text(json.dumps({"environment": env_info, "result": result,
                               "details": details}, indent=1) + "\n",
                   encoding="utf-8")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env_info.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
