"""autoseq benchmark: CLI command times on three workloads.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload stream|blowup|batch --seed N \\
        --seconds S --trace 0|1 [--smoke]

One client drives ``autoseq.cli.main`` in this process: a closed loop, one
thread, each command waiting for the one before, stdout and stderr
captured.  A pass runs the workload's command list once; passes repeat
until ``--seconds`` of command time have been measured (at least three
passes).  Every output of the first pass is checked against an
independent oracle (``oracles.py``), and every later pass must print and
write exactly the same.  A command that exits nonzero, raises, or prints
or writes something else counts as failed.

Times are given at a reference speed.  On a shared host the interpreter's
speed drifts by tens of percent within a minute, so the benchmark times a
fixed piece of pure-Python work before the first command and after every
REFERENCE_EVERY_S of commands, and scales the commands in between by
REFERENCE_NOMINAL_S over the mean of the two readings.  The unscaled
figures are kept in the record file.

``--trace 0`` reports the end-to-end metrics, medians over passes:
``wall_s`` is a pass's command time, ``cmd.<name>_s`` the part of it spent
in that command, ``setup_s`` the median of SETUPS fresh imports of the
program plus writing the inputs, and ``peak_rss_mib`` the process's peak
resident memory.  ``--trace 1`` measures the same untraced passes, then
TRACED_PASSES more with every public ``autoseq`` function wrapped (see
``tracer.py``), and reports the per-layer metrics.  ``--smoke`` shrinks
every workload to a few seconds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the environment and the checks.  The full
record, and in traced runs every span, is written under
``.bench_build/autoseq/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "autoseq"
SETUPS = 5
REFERENCE_LOOP = 30000
REFERENCE_NOMINAL_S = 0.014
REFERENCE_EVERY_S = 0.1
MIN_PASSES = 3
TRACED_PASSES = 2
CMD_METRICS = ("seq", "run", "compile", "minimize", "split", "glue", "verify", "tag_seq")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "terms_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p99_ms": "ms",
    **{f"cmd.{name}_s": "s" for name in CMD_METRICS},
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".bytes_" in name:
        return "bytes"
    return "count"


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program to measure, for one)."""


def import_program():
    """Import ``autoseq`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "autoseq" / "__init__.py").is_file() or not (ROOT / "machines").is_dir():
        raise BenchmarkError(f"no autoseq sources under {ROOT}: run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "autoseq" or n.startswith("autoseq.")]:
        del sys.modules[name]
    cli = importlib.import_module("autoseq.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"imported autoseq from {cli.__file__}, not from {src}")
    return cli


def set_up(workload: str, seed: int, work: Path, smoke: bool):
    """Import the program and write the workload's inputs: what a fresh
    process pays before its first command."""
    cli = import_program()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.build_plan(workload, seed, ROOT, work, smoke)
    for path, text in plan.inputs.items():
        path.write_text(text, encoding="utf-8")
    return cli, plan


def execute(cli, command):
    """Run one command line; returns (seconds, exit status, stdout, stderr).
    A raised exception is a failed command, not a failed benchmark."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(command.argv)
    except Exception as exc:  # any crash of the program counts against it, and the run goes on
        status = f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - start, status, out.getvalue(), err.getvalue()


class Checker:
    """Checks each pass: the first against the oracles, later ones against
    the first pass's (checked) outputs."""

    def __init__(self, plan):
        self.plan = plan
        self.reference: list = [None] * len(plan.commands)
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, results) -> None:
        for i, (command, (_seconds, status, out, err)) in enumerate(zip(self.plan.commands, results)):
            self.attempted += 1
            files = [path.read_text(encoding="utf-8") if path.exists() else None for path in command.outputs]
            if status != 0:
                problem = f"exit {status}: {err.strip()[:200]}"
            elif self.reference[i] is None:
                problem = command.check(out)
                if problem is None:
                    self.reference[i] = (out, files)
            elif self.reference[i] != (out, files):
                problem = "output differs from the first pass"
            else:
                problem = None
            if problem:
                self.failures.append(f"{command.label}: {problem}")


def reference_seconds() -> float:
    """Time of a fixed piece of pure-Python work, the same kind the program
    does (dicts keyed by tuples of strings, sorting, joining)."""
    start = perf_counter()
    table = {}
    for i in range(REFERENCE_LOOP):
        table["q%d" % (i % 997), i & 7] = i
    " ".join(map(str, sorted(table.values())))
    return perf_counter() - start


class Pass:
    """One run of the command list.  The reference work is timed before the
    first command and again whenever REFERENCE_EVERY_S of commands have run;
    the commands in between are scaled by the mean of the two readings."""

    def __init__(self, cli, plan, traced: bool):
        self.tracer = Tracer() if traced else None
        self.results = []
        self.scales = []
        self.raw_wall = self.wall = 0.0
        before = reference_seconds()
        pending = 0.0
        with self.tracer or contextlib.nullcontext():
            for index, command in enumerate(plan.commands):
                self.results.append(execute(cli, command))
                pending += self.results[-1][0]
                if pending >= REFERENCE_EVERY_S or index == len(plan.commands) - 1:
                    after = reference_seconds()
                    scale = REFERENCE_NOMINAL_S * 2 / (before + after)
                    self.scales += [scale] * (len(self.results) - len(self.scales))
                    self.raw_wall += pending
                    self.wall += pending * scale
                    before, pending = after, 0.0

    def seconds(self) -> list[float]:
        return [result[0] * scale for result, scale in zip(self.results, self.scales)]


def measure(cli, plan, checker, seconds: float, min_passes: int, traced: bool = False) -> list[Pass]:
    """Closed-loop passes until ``seconds`` of passes are measured."""
    passes = []
    elapsed = 0.0
    while len(passes) < min_passes or elapsed < seconds:
        for path in plan.outputs:
            path.unlink(missing_ok=True)
        run = Pass(cli, plan, traced)
        elapsed += run.raw_wall
        checker.check(run.results)
        run.results = [(seconds, status) for seconds, status, _out, _err in run.results]  # outputs are checked
        passes.append(run)
    return passes


def end_to_end(plan, passes, setups) -> tuple[dict[str, float], list[dict]]:
    """Medians over passes, and the per-pass figures they come from."""
    per_pass = []
    latencies = []
    for run in passes:
        row = {f"cmd.{name}_s": 0.0 for name in CMD_METRICS}
        terms = term_seconds = 0.0
        for command, seconds in zip(plan.commands, run.seconds()):
            latencies.append(seconds * 1000)
            if command.metric:
                row[f"cmd.{command.metric}_s"] += seconds
            if command.terms:
                terms += command.terms
                term_seconds += seconds
        row["wall_s"] = run.wall
        row["terms_per_s"] = terms / term_seconds
        row["raw_wall_s"] = run.raw_wall
        per_pass.append(row)
    metrics = {name: statistics.median(row[name] for row in per_pass) for name in per_pass[0]}
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics["cmd_p50_ms"] = statistics.median(latencies)
    metrics["cmd_p99_ms"] = percentiles[98]
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: metrics[name] for name in END_TO_END_UNITS}, per_pass


def layer_metrics(run: Pass) -> dict[str, float]:
    """The traced pass's per-layer figures, times at the reference speed."""
    scale = run.wall / run.raw_wall
    return {name: value * scale if layer_unit(name) == "s" else value
            for name, value in run.tracer.layer_metrics().items()}


def counter_table(plan, tracer, checker) -> list[dict]:
    """For each mod-N counter: states of the raw and the minimized machine
    in its traced ``compile``, against the N**2 + 1 bound."""
    rows = []
    roots = tracer.roots()
    for bound, index in plan.counters:
        compiles = tracer.descendants(roots[index][0], "compiler.compile_dfa")
        ids = {span[0] for span in compiles}
        raw = [span[6]["raw_states"] for span in tracer.spans
               if span[1] == "compiler.compile_dfa_with_pairs" and span[4] in ids]
        minimized = [(span[6] or {}).get("min_states") for span in compiles]
        if raw != [bound] or minimized != [bound]:
            checker.failures.append(f"traced compile, N**2+1 = {bound}: raw {raw}, minimized {minimized}")
        rows.append({"bound": bound, "raw_states": raw, "min_states": minimized})
    return rows


def self_test(cli, plan, seed: int, work: Path) -> tuple[bool, str]:
    """Feed a compiled machine with one output flipped through ``run`` and
    its check: the check must count it as a failure."""
    command, what = workloads.flipped_output_command(plan, random.Random(seed), work / "selftest.aut")
    _seconds, status, out, _err = execute(cli, command)
    problem = f"exit {status}" if status != 0 else command.check(out)
    return problem is not None, f"{what}: {problem or 'NOT detected'}"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    env = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": "unknown",
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30).stdout

        with contextlib.suppress(OSError, subprocess.SubprocessError):
            env["commit"] = git("rev-parse", "HEAD").strip() or "unknown"
            env["dirty"] = bool(git("status", "--porcelain").strip())
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="seconds of passes to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUPS):
            before = reference_seconds()
            start = perf_counter()
            cli, plan = set_up(args.workload, args.seed, work, args.smoke)
            elapsed = perf_counter() - start
            setups.append(elapsed * REFERENCE_NOMINAL_S * 2 / (before + reference_seconds()))
        checker = Checker(plan)
        passes = measure(cli, plan, checker, args.seconds, MIN_PASSES)
        metrics, per_pass = end_to_end(plan, passes, setups)
        detected, selftest = self_test(cli, plan, args.seed, work)
        record = {"args": vars(args), "env": environment(), "end_to_end": metrics, "passes": per_pass,
                  "setups": setups, "self_test": selftest,
                  "command_seconds": [run.seconds() for run in passes]}
        if args.trace:
            traced = measure(cli, plan, checker, 0, TRACED_PASSES, traced=True)
            layers = [layer_metrics(run) for run in traced]
            per_layer = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
            per_layer["trace.overhead_ratio"] = statistics.median(run.wall for run in traced) / metrics["wall_s"]
            record["per_layer"] = per_layer
            record["counters"] = counter_table(plan, traced[0].tracer, checker)
            reported = {name: (value, layer_unit(name)) for name, value in per_layer.items()}
            spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
            spans.write_text(json.dumps([run.tracer.dump() for run in traced]), encoding="utf-8")
        else:
            reported = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checker.failures)
    record.update(attempted=checker.attempted, failed=failed, failures=checker.failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(f"env {json.dumps(record['env'])}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {len(plan.commands)} commands")
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}")
    print(f"self-test: {selftest}")
    for row in record.get("counters", []):
        print(f"counter N**2+1={row['bound']}: raw {row['raw_states']} minimized {row['min_states']}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {END_TO_END_UNITS[name]} (untraced)")
    print(f"failed_ratio {failed / checker.attempted:.6g} ratio")
    for name, (value, unit) in reported.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and detected,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
