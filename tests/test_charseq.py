import random
from dataclasses import replace

import pytest

from autoseq import (
    Dfa,
    accepts,
    char_bit,
    char_seq,
    counterexample,
    minimize,
    output,
    output_seq,
    residual_bit,
    residuals,
    run,
    shortlex_word,
    to_digits,
)
from autoseq import automata
from conftest import (
    NO_BB_PREFIX,
    PAPERFOLD_PREFIX,
    THUE_MORSE_PREFIX,
    mod_counter,
    random_dfa,
    random_dfao,
    words_in_order,
)


def test_char_bit(no_bb):
    assert char_bit(no_bb, "") == 1
    assert char_bit(no_bb, "ba") == 1
    assert char_bit(no_bb, "bb") == 0


def test_char_seq_prefix(no_bb):
    assert char_seq(no_bb, 25) == NO_BB_PREFIX
    assert char_seq(no_bb, 0) == []


def test_char_seq_constant_languages():
    everything = Dfa(
        ("a", "b"), ("s",), "s", frozenset({"s"}), {("s", "a"): "s", ("s", "b"): "s"}
    )
    assert char_seq(everything, 10) == [1] * 10
    assert char_seq(replace(everything, accepting=frozenset()), 10) == [0] * 10


def test_char_seq_needs_two_letters():
    unary = Dfa(("a",), ("s",), "s", frozenset({"s"}), {("s", "a"): "s"})
    with pytest.raises(ValueError):
        char_seq(unary, 4)


def test_char_seq_needs_a_recognizer(thue_morse):
    with pytest.raises(automata._MachineError, match=r"^char_seq needs a recognizer \(type dfa\)$"):
        char_seq(thue_morse, 4)


def test_bits_need_a_recognizer(thue_morse):
    for name, call in (("char_bit", lambda: char_bit(thue_morse, "01")),
                       ("residual_bit", lambda: residual_bit(thue_morse, "0", "1"))):
        with pytest.raises(automata._MachineError) as caught:
            call()
        assert str(caught.value) == f"{name} needs a recognizer (type dfa)"
        assert caught.value.machine is thue_morse


def test_char_seq_against_enumeration_oracle(no_bb):
    # independent of the arithmetic word indexing: enumerate words in
    # dictionary order and test membership one by one
    rng = random.Random(404)
    machines = [no_bb] + [random_dfa(rng) for _ in range(25)]
    for dfa in machines:
        words = words_in_order(dfa.alphabet, 600)
        expected = [1 if accepts(dfa, word) else 0 for word in words]
        assert char_seq(dfa, 600) == expected


def test_char_seq_stays_the_word_by_word_oracle(monkeypatch):
    # with the compiler, the unfolding and the shortlex arithmetic all
    # disabled, it still agrees with plain enumeration where lengths change
    def refuse(*args, **kwargs):
        raise AssertionError("char_seq used code outside the word-by-word definition")

    for target in ("autoseq.compiler.compile_dfa", "autoseq.tagsystem._unfold", "autoseq.charseq._unfold",
                   "autoseq.numeration.shortlex_word", "autoseq.numeration.shortlex_index"):
        monkeypatch.setattr(target, refuse)
    rng = random.Random(1618)
    for alphabet in (("b", "a"), ("x", "y")):
        words = words_in_order(alphabet, 1 << 10)
        for dfa in [random_dfa(rng, 6, alphabet) for _ in range(6)]:
            expected = [1 if accepts(dfa, word) else 0 for word in words]
            for length in range(1, 11):
                for count in ((1 << length) - 2, (1 << length) - 1, 1 << length):
                    assert char_seq(dfa, count) == expected[:count]


def test_char_seq_matches_the_shortlex_arithmetic():
    # independent of the dictionary-order enumeration char_seq walks: the
    # n-th word comes from the bijective base-2 arithmetic in numeration
    rng = random.Random(808)
    for alphabet in (("b", "a"), ("x", "y")):
        for _ in range(15):
            dfa = random_dfa(rng, alphabet=alphabet)
            expected = [1 if accepts(dfa, shortlex_word(n, alphabet)) else 0 for n in range(700)]
            for count in (0, 1, 2, 3, 6, 7, 700):
                assert char_seq(dfa, count) == expected[:count]


def test_output_seq_prefixes(thue_morse, paperfold, no_bb_fao):
    assert output_seq(thue_morse, 25) == [str(b) for b in THUE_MORSE_PREFIX]
    assert output_seq(paperfold, 24) == [str(b) for b in PAPERFOLD_PREFIX]
    assert output_seq(no_bb_fao, 25) == [str(b) for b in NO_BB_PREFIX]


def test_output_seq_matches_the_per_index_definition():
    # the initial state never loops on digit 0, so the root of the
    # unfolding must skip that digit to stay with canonical numerals
    rng = random.Random(707)
    for base in range(2, 11):
        digits = tuple("0123456789"[:base])
        machines = []
        while len(machines) < 6:
            dfao = random_dfao(rng, alphabet=digits, letters=("x", "y", "z"))
            if dfao.transitions[dfao.initial, "0"] != dfao.initial:
                machines.append(dfao)
        for dfao in machines:
            expected = [output(dfao, to_digits(n, base)) for n in range(700)]
            for count in (0, 1, base - 1, base, base + 1, base * base, base * base + 1, 700):
                assert output_seq(dfao, count) == expected[:count], (base, count)


def test_output_seq_requires_digit_alphabet(no_bb):
    # a machine over a, b is not a numeral reader
    with pytest.raises(ValueError, match=r"^need the digit alphabet 0\.\.1 in order, got 'a b'$"):
        output_seq(no_bb, 4)


def test_residuals_of_no_bb(no_bb):
    found = residuals(no_bb)
    assert [r.witness for r in found] == ["", "b", "bb"]
    assert len({r.state for r in found}) == 3


def test_residuals_read_witnesses_off_the_minimal_table(monkeypatch):
    # minimize numbers the states breadth-first, so no walk is made after it.
    walk = automata._walk
    walks = []
    monkeypatch.setattr(automata, "_walk", lambda *args: walks.append(args) or walk(*args))
    found = residuals(mod_counter(12))
    assert walks == []
    assert [r.witness for r in found] == ["a" * i for i in range(12)]
    assert [r.state for r in found] == [f"q{i}" for i in range(12)]


def test_residuals_count_ignores_presentation(no_bb_ones):
    # two of the drawn states share the empty residual, so there are only
    # seven distinct residuals even though the file declares eight states
    found = residuals(no_bb_ones)
    assert [r.witness for r in found] == ["", "0", "1", "11", "110", "111", "1101"]


def test_residuals_of_the_full_language():
    everything = Dfa(
        ("a", "b"), ("s", "t"), "s", frozenset({"s", "t"}),
        {("s", "a"): "t", ("s", "b"): "t", ("t", "a"): "s", ("t", "b"): "s"},
    )
    assert [r.witness for r in residuals(everything)] == [""]


def test_residual_count_is_invariant_under_minimization():
    rng = random.Random(505)
    for _ in range(25):
        dfa = random_dfa(rng)
        assert len(residuals(dfa)) == len(residuals(minimize(dfa)))


def test_residual_bit(no_bb):
    assert residual_bit(no_bb, "b", "b") == 0
    assert residual_bit(no_bb, "b", "a") == 1
    assert residual_bit(no_bb, "", "ba") == 1
    for suffix in words_in_order(("a", "b"), 15):
        assert residual_bit(no_bb, "bb", suffix) == 0


def test_residual_witnesses_characterize_the_translates(no_bb):
    _assert_residuals_biject(no_bb)


def test_residual_bijection_on_random_machines():
    rng = random.Random(606)
    for _ in range(20):
        _assert_residuals_biject(random_dfa(rng))


def _assert_residuals_biject(dfa):
    """Witnesses of one minimal state act identically on every suffix;
    witnesses of distinct states differ on some suffix."""
    small = minimize(dfa)
    witnesses = {}
    for word in words_in_order(dfa.alphabet, 2048):
        bucket = witnesses.setdefault(run(small, word), [])
        if len(bucket) < 2:
            bucket.append(word)
    probes = words_in_order(dfa.alphabet, 256)
    states = list(witnesses)
    for i, s in enumerate(states):
        first = witnesses[s][0]
        if len(witnesses[s]) > 1:
            second = witnesses[s][1]
            for suffix in probes:
                assert residual_bit(dfa, first, suffix) == residual_bit(dfa, second, suffix)
        for t in states[i + 1 :]:
            other = witnesses[t][0]
            separator = counterexample(replace(small, initial=s), replace(small, initial=t))
            assert separator is not None
            assert residual_bit(dfa, first, separator) != residual_bit(dfa, other, separator)
