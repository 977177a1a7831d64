"""Tests of the benchmark itself, on the smoke size of every workload.

Run with ``python3 -m pytest benchmarks`` from the root of the checkout.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def smoke(workload, trace, seed=3):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, report = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in spec:
        assert f"{metric['name']} " in "\n".join(report)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    first, report = smoke(workload, 1)
    second, _ = smoke(workload, 1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    counts.append("compiler.kept_ratio")
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}
    if workload == "blowup":
        table = [line for line in report if line.startswith("counter ")]
        assert table == [f"counter N**2+1={n * n + 1}: raw [{n * n + 1}] minimized [{n * n + 1}]" for n in (3, 5)]


def test_flipped_output_counts_as_a_failure(tmp_path):
    cli, plan = run.set_up("stream", 5, tmp_path / "work", smoke=True)
    checker = run.Checker(plan)
    run.measure(cli, plan, checker, 0, 1)
    assert checker.failures == []
    detected, what = run.self_test(cli, plan, 5, tmp_path)
    assert detected, what


def test_a_wrong_output_is_counted(tmp_path):
    cli, plan = run.set_up("batch", 2, tmp_path / "work", smoke=True)
    verify = next(c for c in plan.commands if c.argv[0] == "verify")
    verify.argv[verify.argv.index("--count") + 1] = "7"
    checker = run.Checker(plan)
    run.measure(cli, plan, checker, 0, 1)
    assert len(checker.failures) == 1 and "verify" in checker.failures[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_closed_forms_match_the_checked_in_machines():
    for name, closed_form in (("thue_morse", oracles.thue_morse_bits), ("paperfold", oracles.paperfold_bits)):
        machine = oracles.read_aut((ROOT / "machines" / f"{name}.aut").read_text(encoding="utf-8"))
        assert bytes(machine.bit(oracles.numeral(n)) for n in range(2048)) == closed_form(2048)


def test_oracles_agree_with_each_other():
    rng = random.Random(1)
    for count in (1, 4, 9):
        machine = workloads.random_recognizer(rng, count)
        by_level = oracles.shortlex_bits(machine, 500)
        assert by_level == bytes(machine.bit(word) for word in oracles.words(500))
    counter = workloads.mod_counter(rng, 5)
    assert oracles.shortlex_bits(counter, 500) == oracles.counter_bits(5, 500)
    assert oracles.minimal_size(counter) == 5
