"""Seeded inputs and the command list of each workload.

Every workload is one list of ``autoseq`` command lines, run in order by a
single closed-loop client.  The inputs are ``.aut`` files made from the
seed; the program sees nothing else.  Each command carries its own check,
built from the independent oracles in :mod:`oracles`.

- ``stream``: a handful of small recognizers taken to long prefixes, so
  per-term work (word-by-word sequence, digit machine runs, tag-system
  expansion, printing) takes nearly all the time.
- ``blowup``: the mod-N letter counter, whose compiled machine reaches the
  N**2 + 1 bound with no merges, so minimization, products and the file
  format on machines of thousands of states take nearly all the time.
- ``batch``: many small random recognizers through every command at short
  prefixes, so the fixed cost of each command dominates.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import oracles
from oracles import Machine, bits_line, expect_equal, numeral, read_aut, read_coding

WORKLOADS = ("stream", "blowup", "batch")

# Indices checked by sampling where a check runs a whole machine per index.
SAMPLE = 256
TAG_CHECK_DEPTH = 64
# Position of the plain ``compile`` in each recognizer's command list.
COMPILE = 1


@dataclass
class Command:
    argv: list[str]
    check: Callable[[str], str | None]
    metric: str | None = None  # reported as cmd.<metric>_s
    terms: int = 0  # sequence entries the command prints or compares
    outputs: tuple[Path, ...] = ()
    label: str = ""


@dataclass
class Plan:
    inputs: dict[Path, str] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    # (N, index of the plain ``compile`` command) for each counter machine
    counters: list[tuple[int, int]] = field(default_factory=list)
    # compiled file, its bits, and the prefix ``run`` prints: the self-test input
    selftest: tuple[Path, Callable[[int], bytes], int] | None = None

    @property
    def outputs(self) -> list[Path]:
        return [path for command in self.commands for path in command.outputs]


@dataclass(frozen=True)
class Sizes:
    seq_count: int  # seq, run and verify
    tag_count: int  # tag seq
    random_machines: int
    random_max_states: int
    counters: tuple[int, ...] = ()


FULL = {
    "stream": Sizes(seq_count=1 << 15, tag_count=1 << 19, random_machines=2, random_max_states=6),
    "blowup": Sizes(seq_count=1024, tag_count=1024, random_machines=0, random_max_states=0,
                    counters=(8, 16, 32, 48)),
    "batch": Sizes(seq_count=1024, tag_count=1024, random_machines=48, random_max_states=24),
}
SMOKE = {
    "stream": Sizes(seq_count=1 << 10, tag_count=1 << 12, random_machines=1, random_max_states=6),
    "blowup": Sizes(seq_count=256, tag_count=256, random_machines=0, random_max_states=0,
                    counters=(3, 5)),
    "batch": Sizes(seq_count=256, tag_count=256, random_machines=6, random_max_states=12),
}


def random_recognizer(rng: random.Random, count: int) -> Machine:
    """A recognizer drawn like ``random_dfa`` in the test suite, given its
    state count: each state accepting with probability 1/2, each target
    uniform over the states."""
    states = tuple(f"s{i}" for i in range(count))
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    delta = {(s, letter): states[rng.randrange(count)] for s in states for letter in ("a", "b")}
    return Machine("dfa", ("a", "b"), states, states[0], delta, accepting=accepting)


def mod_counter(rng: random.Random, modulus: int) -> Machine:
    """Accepts the words whose count of ``a`` is 0 mod ``modulus``.

    The seed only renames the states and shuffles the lines, so every seed
    does the same work: the compiled machine has modulus**2 + 1 states and
    none of them merge.
    """
    names = [f"c{i}" for i in range(modulus)]
    rng.shuffle(names)
    rows = [((names[r], "a"), names[(r + 1) % modulus]) for r in range(modulus)]
    rows += [((names[r], "b"), names[r]) for r in range(modulus)]
    rng.shuffle(rows)
    states = sorted(names, key=lambda _: rng.random())
    return Machine("dfa", ("a", "b"), tuple(states), names[0], dict(rows), accepting=frozenset({names[0]}))


def _num_command(rng: random.Random, index: int) -> Command:
    """One of the six numeral conversions, with a check of its answer."""
    kind = ("phi", "phi-inv", "canon", "nu", "rho", "gamma")[index % 6]
    n = rng.randrange(1, 4096)
    base = rng.randint(2, 10)
    word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 11)))
    bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 11)))
    incremented = format((int(bits, 2) + 1) % (1 << len(bits)), f"0{len(bits)}b")
    if kind == "phi":
        argv, want = [str(n)], list(oracles.words(n + 1))[-1]
    elif kind == "phi-inv":
        argv, want = [word], str((1 << len(word)) - 1 + int(word.translate(_AB_TO_BITS), 2))
    elif kind == "canon":
        argv = [str(n), "--base", str(base)]

        def check(out):
            digits = out.strip()
            try:
                if not digits.startswith("0") and int(digits, base) == n:
                    return None
            except ValueError:
                pass
            return f"num canon {n} --base {base}: got {digits!r}"

        return Command(["num", kind, *argv], check, label="num canon")
    elif kind == "nu":
        digits = "".join(str(rng.randrange(base)) for _ in range(rng.randint(1, 8)))
        argv, want = [digits, "--base", str(base)], str(int(digits, base))
    elif kind == "rho":
        argv, want = [bits], incremented
    else:
        argv, want = [bits], incremented.translate(_BITS_TO_AB)
    expected = (want or "Λ") + "\n"
    return Command(["num", kind, *argv], lambda out: expect_equal(out, expected, f"num {kind}"), label=f"num {kind}")


_AB_TO_BITS = str.maketrans("ab", "01")
_BITS_TO_AB = str.maketrans("01", "ab")


def _file(path: Path, check: Callable[[str], str | None]) -> Callable[[str], str | None]:
    """Check a command by the file it wrote instead of its stdout."""
    return lambda _out: check(path.read_text(encoding="utf-8"))


def _machine_check(bits: Callable[[int], bytes], words: bool, size: Callable[[int], str | None]):
    """Check a machine text: its state count, then its answer on the first
    SAMPLE indices, fed as shortlex words (``words``) or binary numerals."""

    def check(text: str) -> str | None:
        machine = read_aut(text)
        problem = size(len(machine.states))
        if problem:
            return problem
        want = bits(SAMPLE)
        inputs = oracles.words(SAMPLE) if words else map(numeral, range(SAMPLE))
        for n, word in enumerate(inputs):
            if machine.bit(word) != want[n]:
                return f"wrong answer at index {n} (input {word!r})"
        return None

    return check


def _split_check(ones: Path, zeros: Path, bits: Callable[[int], bytes]):
    def check(_out: str) -> str | None:
        machines = read_aut(ones.read_text(encoding="utf-8")), read_aut(zeros.read_text(encoding="utf-8"))
        want = bits(SAMPLE)
        for n in range(SAMPLE):
            got = tuple(m.bit(numeral(n)) for m in machines)
            if got != (want[n], 1 - want[n]):
                return f"split: numeral of {n} is in (ones, zeros) = {got}, bit is {want[n]}"
        for word in ("0", "01", "00"):
            if any(m.bit(word) for m in machines):
                return f"split: non-canonical numeral {word!r} accepted"
        return None

    return check


def _same_file(path: Path, reference: Path, what: str):
    return lambda _out: expect_equal(
        path.read_text(encoding="utf-8"), reference.read_text(encoding="utf-8"), f"{what} differs from compile"
    )


def recognizer_commands(
    name: str, source: Path, work: Path, bits: Callable[[int], bytes], sizes: Sizes,
    recognizer: Machine, exact_states: int | None, rng: random.Random, index: int,
) -> list[Command]:
    """Every command on one recognizer.  ``exact_states`` is the state count
    both compiled machines must have, where it is known in closed form."""
    compiled, raw, small = (work / f"{name}.{part}.aut" for part in ("compiled", "raw", "min"))
    ones, zeros, glued, tag = (work / f"{name}.{part}" for part in ("ones.aut", "zeros.aut", "glued.aut", "tag"))
    bound = len(recognizer.states) ** 2 + 1
    minimal = functools.cache(lambda: oracles.minimal_size(recognizer))

    def compiled_size(states: int) -> str | None:
        if exact_states is not None and states != exact_states:
            return f"{states} states, want {exact_states}"
        if states > bound:
            return f"{states} states, above the |Q|**2 + 1 = {bound} bound"
        return None

    def minimal_dfa_size(states: int) -> str | None:
        return None if states == minimal() else f"{states} states, want {minimal()}"

    def residuals_check(out: str) -> str | None:
        witnesses = [line.split()[0] for line in out.splitlines()]
        if len(witnesses) != minimal() or len(set(witnesses)) != len(witnesses) or witnesses[0] != "Λ":
            return f"residuals: {len(witnesses)} lines from {witnesses[:1]}, want {minimal()} from 'Λ'"
        return None

    def dot_check(out: str) -> str | None:
        states = len(read_aut(compiled.read_text(encoding="utf-8")).states)
        if not out.startswith("digraph {") or out.count(" -> ") != 1 + 2 * states:
            return f"dot: not a graph of {states} states"
        return None

    def from_dfao_check(text: str) -> str | None:
        states = len(read_aut(compiled.read_text(encoding="utf-8")).states)
        coding = read_coding(text)
        return None if len(coding) == states else f"tag from-dfao: {len(coding)} symbols, want {states}"

    def intseq_check(out: str) -> str | None:
        coding = read_coding(tag.read_text(encoding="utf-8"))
        got = bits_line(bytes(int(coding[symbol]) for symbol in out.split()))
        return expect_equal(got, bits_line(bits(sizes.seq_count)), "tag intseq (coded)")

    def sequence(what: str, count: int):
        return lambda out: expect_equal(out, bits_line(bits(count)), what)

    def ok_line(what: str, count: int):
        return lambda out: expect_equal(out, f"OK {count}\n", what)

    src, n, depth = str(source), str(sizes.seq_count), str(TAG_CHECK_DEPTH)
    commands = [
        Command(["seq", src, "--count", n], sequence("seq", sizes.seq_count), "seq", sizes.seq_count),
        Command(["compile", src, "-o", str(compiled)],
                _file(compiled, _machine_check(bits, False, compiled_size)), "compile", outputs=(compiled,)),
        Command(["compile", src, "--no-minimize", "-o", str(raw)],
                _file(raw, _machine_check(bits, False, compiled_size)), "compile", outputs=(raw,)),
        Command(["minimize", str(raw), "-o", str(small)], _same_file(small, compiled, "minimize"),
                "minimize", outputs=(small,)),
        Command(["minimize", src], _machine_check(bits, True, minimal_dfa_size), "minimize"),
        Command(["split", src, "-o-m", str(ones), "-o-n", str(zeros)], _split_check(ones, zeros, bits),
                "split", outputs=(ones, zeros)),
        Command(["glue", str(ones), str(zeros), "-o", str(glued)], _same_file(glued, compiled, "glue"),
                "glue", outputs=(glued,)),
        Command(["run", str(compiled), "--count", n], sequence("run", sizes.seq_count), "run", sizes.seq_count),
        Command(["verify", src, "--count", n], ok_line("verify", sizes.seq_count), "verify", sizes.seq_count),
        Command(["residuals", src], residuals_check),
        Command(["dot", str(compiled)], dot_check),
        Command(["tag", "from-dfao", str(compiled), "-o", str(tag)], _file(tag, from_dfao_check), outputs=(tag,)),
        Command(["tag", "seq", str(tag), "--count", str(sizes.tag_count)], sequence("tag seq", sizes.tag_count),
                "tag_seq", sizes.tag_count),
        Command(["tag", "intseq", str(tag), "--count", n], intseq_check, terms=sizes.seq_count),
        Command(["tag", "check", str(tag), "--depth", depth], ok_line("tag check", TAG_CHECK_DEPTH)),
        _num_command(rng, index),
    ]
    for command in commands:
        command.label = command.label or f"{name}: {' '.join(command.argv[:2])}"
    return commands


def build_plan(workload: str, seed: int, root: Path, work: Path, smoke: bool = False) -> Plan:
    """The workload's inputs (file name to text) and its command list, all
    made from ``seed``."""
    sizes = (SMOKE if smoke else FULL)[workload]
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan()
    machines = root / "machines"
    recognizers = []  # (name, source, recognizer, bits, exact state count)
    if workload == "stream":
        no_bb = read_aut((machines / "no_bb.aut").read_text(encoding="utf-8"))
        recognizers.append(("no_bb", machines / "no_bb.aut", no_bb, None, None))
    # The state counts are spread evenly from 2 to the maximum instead of
    # drawn, so that seeds change the machines but hardly the amount of work.
    for i in range(sizes.random_machines):
        count = 2 + round(i * (sizes.random_max_states - 2) / max(1, sizes.random_machines - 1))
        recognizers.append((f"random{i}", None, random_recognizer(rng, count), None, None))
    for modulus in sizes.counters:
        bits = functools.cache(lambda count, modulus=modulus: oracles.counter_bits(modulus, count))
        recognizers.append((f"mod{modulus}", None, mod_counter(rng, modulus), bits, modulus * modulus + 1))

    for index, (name, source, recognizer, bits, exact) in enumerate(recognizers):
        if source is None:
            source = work / f"{name}.aut"
            plan.inputs[source] = recognizer.text()
        if bits is None:
            bits = functools.cache(lambda count, r=recognizer: oracles.shortlex_bits(r, count))
        if exact is not None:
            plan.counters.append((exact, len(plan.commands) + COMPILE))
        commands = recognizer_commands(name, source, work, bits, sizes, recognizer, exact, rng, index)
        if plan.selftest is None:
            plan.selftest = (commands[COMPILE].outputs[0], bits, sizes.seq_count)
        plan.commands += commands

    if workload == "stream":
        for name, closed_form in (("thue_morse", oracles.thue_morse_bits), ("paperfold", oracles.paperfold_bits)):
            plan.commands.append(Command(
                ["run", str(machines / f"{name}.aut"), "--count", str(sizes.seq_count)],
                lambda out, f=closed_form, name=name: expect_equal(out, bits_line(f(sizes.seq_count)), f"run {name}"),
                "run", sizes.seq_count, label=f"{name}: run",
            ))
    return plan


def flipped_output_command(plan: Plan, rng: random.Random, path: Path) -> tuple[Command, str]:
    """A ``run`` of the plan's first compiled machine with the output of one
    state flipped: the state reached at a seeded index inside the printed
    prefix, so the printed sequence must be wrong there."""
    compiled, bits, count = plan.selftest
    machine = read_aut(compiled.read_text(encoding="utf-8"))
    index = rng.randrange(min(count, SAMPLE))
    state = machine.reach(numeral(index))
    outputs = dict(machine.outputs)
    outputs[state] = "0" if outputs[state] == "1" else "1"
    path.write_text(replace(machine, outputs=outputs).text(), encoding="utf-8")
    command = Command(["run", str(path), "--count", str(count)],
                      lambda out: expect_equal(out, bits_line(bits(count)), "run (flipped)"),
                      label="self-test: run")
    return command, f"output of state {state} (index {index}) flipped"
