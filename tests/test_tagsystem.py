import random
from dataclasses import replace

import pytest

from autoseq import (
    Dfao,
    InvalidTagSystemError,
    TagSystem,
    compile_dfa,
    from_dfao,
    intseq,
    intseq_term,
    is_fixed_point_prefix,
    output,
    output_seq,
    seq,
    to_digits,
)
from conftest import NO_BB_PREFIX, THUE_MORSE_PREFIX, random_dfa, random_dfao

# hand-applied substitution: q0 -> q0 q1 -> q0 q1 q1 q2 -> ...
NO_BB_INTSEQ_16 = "q0 q1 q1 q2 q1 q2 q4 q3 q1 q2 q4 q3 q1 q5 q6 q3".split()


def test_from_dfao_reads_off_the_columns(no_bb_fao, no_bb_tag):
    system = from_dfao(no_bb_fao)
    assert system == no_bb_tag
    assert system.modulus == 2
    assert system.start == "q0"
    assert system.rules["q2"] == ("q4", "q3")
    assert system.coding["q5"] == "0"


def test_from_dfao_on_thue_morse(thue_morse):
    system = from_dfao(thue_morse)
    assert system.rules == {"q0": ("q0", "q1"), "q1": ("q1", "q0")}
    assert system.coding == {"q0": "0", "q1": "1"}


def test_from_dfao_requires_a_zero_self_loop():
    dfao = Dfao(
        ("0", "1"),
        ("s", "t"),
        "s",
        {("s", "0"): "t", ("s", "1"): "t", ("t", "0"): "t", ("t", "1"): "s"},
        {"s": "0", "t": "1"},
    )
    with pytest.raises(ValueError) as err:
        from_dfao(dfao)
    assert "self-loop" in str(err.value)


def test_from_dfao_requires_digit_alphabet():
    with pytest.raises(ValueError, match=r"^need the digit alphabet 0\.\.1 in order, got 'a b'$"):
        from_dfao(
            Dfao(
                ("a", "b"),
                ("s",),
                "s",
                {("s", "a"): "s", ("s", "b"): "s"},
                {"s": "1"},
            )
        )


def test_construction_requires_prolongability():
    with pytest.raises(InvalidTagSystemError) as err:
        TagSystem(
            modulus=2,
            symbols=("p", "q"),
            start="p",
            rules={"p": ("q", "p"), "q": ("q", "q")},
            coding={"p": "1", "q": "0"},
        )
    assert "start symbol" in str(err.value)


def test_construction_requires_uniform_length():
    with pytest.raises(InvalidTagSystemError):
        TagSystem(
            modulus=2,
            symbols=("p",),
            start="p",
            rules={"p": ("p", "p", "p")},
            coding={"p": "1"},
        )
    # a modulus that is not an integer is reported, hashable or not
    for modulus in ([2], "2", 2.0):
        with pytest.raises(InvalidTagSystemError) as err:
            TagSystem(modulus, ("p",), "p", {"p": ("p", "p")}, {"p": "1"})
        assert err.value.problems == [f"modulus must be an integer >= 2, got {modulus!r}"]


def test_construction_requires_total_rules_and_coding():
    with pytest.raises(InvalidTagSystemError) as err:
        TagSystem(modulus=2, symbols=("p", "q"), start="p", rules={"p": ("p", "q")}, coding={"p": "1"})
    message = str(err.value)
    assert "no rule for symbol 'q'" in message
    assert "no coding letter for symbol 'q'" in message


def test_intseq_prefix(no_bb_tag):
    assert intseq(no_bb_tag, 16) == NO_BB_INTSEQ_16
    assert intseq(no_bb_tag, 0) == []
    assert intseq(no_bb_tag, 1) == ["q0"]


def test_intseq_of_a_single_symbol_system():
    system = TagSystem(2, ("p",), "p", {"p": ("p", "p")}, {"p": "x"})
    assert intseq(system, 5) == ["p"] * 5
    assert seq(system, 3) == ["x"] * 3


def test_intseq_agrees_with_digit_descent(no_bb_tag, thue_morse):
    systems = [no_bb_tag, from_dfao(thue_morse)]
    rng = random.Random(123)
    systems += [from_dfao(compile_dfa(random_dfa(rng))) for _ in range(3)]
    for system in systems:
        prefix = intseq(system, 1 << 12)
        for n, symbol in enumerate(prefix):
            assert intseq_term(system, n) == symbol


def test_intseq_agrees_with_digit_descent_at_every_count():
    # every count up to k**3 + 2 ends the substitution at a different
    # point inside a block or a level
    rng = random.Random(909)
    for modulus in range(2, 6):
        for _ in range(5):
            dfao = random_dfao(rng, alphabet=tuple("01234"[:modulus]))
            loop = {(dfao.initial, "0"): dfao.initial}
            system = from_dfao(replace(dfao, transitions={**dfao.transitions, **loop}))
            last = modulus**3 + 2
            terms = [intseq_term(system, n) for n in range(last)]
            for count in range(last + 1):
                assert intseq(system, count) == terms[:count], (modulus, count)


def test_seq_prefixes(no_bb_tag, thue_morse):
    assert seq(no_bb_tag, 25) == [str(b) for b in NO_BB_PREFIX]
    assert seq(from_dfao(thue_morse), 25) == [str(b) for b in THUE_MORSE_PREFIX]


def test_seq_matches_the_machine_it_came_from(paperfold):
    system = from_dfao(paperfold)
    assert seq(system, 1 << 10) == output_seq(paperfold, 1 << 10)
    # both callers of the one unfolding against the per-index definition, on
    # machines whose initial state loops on digit 0 (so from_dfao applies)
    rng = random.Random(818)
    for base in range(2, 11):
        digits = tuple("0123456789"[:base])
        for _ in range(4):
            dfao = random_dfao(rng, alphabet=digits, letters=("x", "y", "z"))
            loop = {(dfao.initial, "0"): dfao.initial}
            dfao = replace(dfao, transitions={**dfao.transitions, **loop})
            system = from_dfao(dfao)
            expected = [output(dfao, to_digits(n, base)) for n in range(700)]
            for count in (0, 1, base - 1, base, base + 1, base * base, base * base + 1, 700):
                want = expected[:count]
                assert seq(system, count) == want, (base, count)
                assert [system.coding[s] for s in intseq(system, count)] == want, (base, count)
                assert output_seq(dfao, count) == want, (base, count)


def test_fixed_point_prefixes(no_bb_tag, thue_morse):
    assert is_fixed_point_prefix(no_bb_tag, 64)
    assert is_fixed_point_prefix(no_bb_tag, 0)
    assert is_fixed_point_prefix(from_dfao(thue_morse), 256)
