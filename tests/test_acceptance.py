"""Acceptance gate: thirteen end-to-end checks with pinned expected values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion, including the elapsed time for the budgeted ones.
"""

import contextlib
import itertools
import random
import time

from autoseq import (
    char_seq,
    compile_dfa,
    dfao_equivalent,
    equivalent,
    from_dfao,
    from_digits,
    glue,
    increment_bits,
    intseq,
    output,
    residuals,
    save,
    seq,
    shortlex_extend,
    shortlex_index,
    shortlex_word,
    split_dfa,
    to_digits,
)
from autoseq.cli import main
from conftest import MACHINES, mod_counter, random_dfa

NO_BB = str(MACHINES / "no_bb.aut")
THUE_MORSE = str(MACHINES / "thue_morse.aut")
PAPERFOLD = str(MACHINES / "paperfold.aut")
NO_BB_TAG = str(MACHINES / "no_bb.tag")

NO_BB_25 = "1 1 1 1 1 1 0 1 1 1 0 1 1 0 0 1 1 1 0 1 1 0 0 1 1"
THUE_MORSE_25 = "0 1 1 0 1 0 0 1 1 0 0 1 0 1 1 0 1 0 0 1 0 1 1 0 0"
PAPERFOLD_24 = "1 1 1 0 1 1 0 0 1 1 1 0 0 1 0 0 1 1 1 0 1 1 0 0"
NO_BB_INTSEQ_16 = "q0 q1 q1 q2 q1 q2 q4 q3 q1 q2 q4 q3 q1 q5 q6 q3"


@contextlib.contextmanager
def criterion(number, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title} ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_no_bb_sequence_via_cli(capsys):
    with criterion(1, "25 sequence terms for the no-bb machine, under 1s"):
        started = time.perf_counter()
        code = main(["seq", NO_BB, "--count", "25"])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == NO_BB_25
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_thue_morse_via_cli(capsys):
    with criterion(2, "25 Thue-Morse terms from the checked-in machine"):
        code = main(["run", THUE_MORSE, "--count", "25"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == THUE_MORSE_25


def test_criterion_03_paperfolding_via_cli(capsys):
    with criterion(3, "24 paperfolding terms from the checked-in machine"):
        code = main(["run", PAPERFOLD, "--count", "24"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == PAPERFOLD_24


def test_criterion_04_random_machines_verify(tmp_path, capsys):
    with criterion(4, "200 seeded random recognizers verify 4096 terms, under 30s"):
        rng = random.Random(20260814)
        path = tmp_path / "machine.aut"
        started = time.perf_counter()
        for index in range(200):
            save(random_dfa(rng, max_states=6), path)
            code = main(["verify", str(path), "--count", "4096"])
            out = capsys.readouterr().out
            assert code == 0, f"machine {index}: exit {code}, output {out!r}"
            assert out.strip() == "OK 4096", f"machine {index}: {out!r}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_05_compile_split_glue_against_fixtures(
    no_bb, no_bb_ones, no_bb_zeros, no_bb_fao
):
    with criterion(5, "compile, split and glue match the checked-in machines"):
        assert dfao_equivalent(compile_dfa(no_bb), no_bb_fao)
        ones, zeros = split_dfa(no_bb)
        assert equivalent(ones, no_bb_ones)
        assert equivalent(zeros, no_bb_zeros)
        assert dfao_equivalent(glue(no_bb_ones, no_bb_zeros), no_bb_fao)


def test_criterion_06_residuals_via_cli(capsys):
    with criterion(6, "exactly three residuals with witnesses Λ, b, bb"):
        code = main(["residuals", NO_BB])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert [line.split()[0] for line in lines] == ["Λ", "b", "bb"]


def test_criterion_07_extension_identity_exhaustive():
    with criterion(7, "numeral extension identity, n < 2^11 and suffixes up to 6 bits, under 10s"):
        started = time.perf_counter()
        suffixes = ["".join(bits) for r in range(7) for bits in itertools.product("01", repeat=r)]
        for n in range(1, 1 << 11):
            numeral = to_digits(n, 2)
            for suffix in suffixes:
                assert shortlex_extend(n, suffix) == shortlex_word(
                    from_digits(numeral + suffix, 2)
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_08_tag_system_round_trip(no_bb, no_bb_fao, no_bb_tag):
    with criterion(8, "tag system matches the checked-in one and its sequence"):
        system = from_dfao(no_bb_fao)
        assert system.modulus == no_bb_tag.modulus
        assert system.symbols == no_bb_tag.symbols
        assert system.start == no_bb_tag.start
        assert system.rules == no_bb_tag.rules
        assert system.coding == no_bb_tag.coding
        assert intseq(system, 16) == NO_BB_INTSEQ_16.split()
        assert seq(system, 4096) == [str(bit) for bit in char_seq(no_bb, 4096)]


def test_criterion_09_numeration_round_trips():
    with criterion(9, "shortlex round trips, successor identities, increment congruence"):
        for n in range(1 << 15):
            word = shortlex_word(n)
            assert shortlex_index(word) == n
            assert shortlex_word(2 * n + 1) == word + "a"
            assert shortlex_word(2 * n + 2) == word + "b"
        for length in range(13):
            for bits in map("".join, itertools.product("01", repeat=length)):
                incremented = increment_bits(bits)
                assert len(incremented) == length
                if length:
                    assert from_digits(incremented, 2) == (
                        from_digits(bits, 2) + 1
                    ) % (1 << length)


def test_criterion_10_leading_zero_invariance(no_bb, thue_morse, paperfold, no_bb_fao):
    with criterion(10, "leading zeros never change an output machine's answer"):
        rng = random.Random(314159)
        machines = [compile_dfa(no_bb), thue_morse, paperfold, no_bb_fao]
        machines += [compile_dfa(random_dfa(rng, max_states=6)) for _ in range(2)]
        for machine in machines:
            for n in range(1 << 10):
                numeral = to_digits(n, 2)
                expected = output(machine, numeral)
                for padding in range(1, 9):
                    assert output(machine, "0" * padding + numeral) == expected


def test_criterion_11_mod_100_counter_split_and_glue():
    with criterion(11, "split and glue the mod-100 letter counter, 10001 states, under 4s"):
        dfa = mod_counter(100)
        started = time.perf_counter()
        glued = glue(*split_dfa(dfa))
        elapsed = time.perf_counter() - started
        assert len(glued.states) == 100 * 100 + 1
        assert dfao_equivalent(glued, compile_dfa(dfa))
        assert elapsed < 4.0, f"took {elapsed:.2f}s"


def test_criterion_12_long_prefixes_via_cli(tmp_path, capsys):
    with criterion(12, "run and tag seq print the same 2**22 no-bb terms, each under 0.25s"):
        compiled = str(tmp_path / "no_bb.fao")
        assert main(["compile", NO_BB, "-o", compiled]) == 0
        lines = []
        for argv in (["run", compiled], ["tag", "seq", NO_BB_TAG]):
            started = time.perf_counter()
            code = main([*argv, "--count", str(1 << 22)])
            elapsed = time.perf_counter() - started
            lines.append(capsys.readouterr().out)
            assert code == 0
            assert elapsed < 0.25, f"{' '.join(argv[:-1])} took {elapsed:.2f}s"
        assert lines[0] == lines[1]
        assert len(lines[0].split()) == 1 << 22
        assert main(["seq", NO_BB, "--count", "65536"]) == 0
        assert lines[0].startswith(capsys.readouterr().out[:-1] + " ")


def test_criterion_13_residual_witnesses_in_linear_time():
    with criterion(13, "2000 residual witnesses of the mod-2000 letter counter, under 2s"):
        dfa = mod_counter(2000)
        started = time.perf_counter()
        found = residuals(dfa)
        elapsed = time.perf_counter() - started
        assert [residual.witness for residual in found] == ["a" * i for i in range(2000)]
        assert elapsed < 2.0, f"took {elapsed:.2f}s"
