import random
from dataclasses import replace

import pytest

from autoseq import (
    Dfa,
    PartitionError,
    accepts,
    canonical_recognizer,
    char_seq,
    compile_dfa,
    compile_dfa_with_pairs,
    dfao_equivalent,
    difference,
    dump,
    equivalent,
    first_mismatch,
    glue,
    intersection,
    load,
    is_empty,
    output,
    output_seq,
    run,
    save,
    shortest_accepted,
    shortlex_word,
    split_dfa,
    to_digits,
    union,
)
from autoseq import automata, formats
from conftest import NO_BB_PREFIX, flipped_at, mod_counter, random_dfa


# Exact dumps for no_bb: minimized machines are named q0, q1, ... in
# breadth-first order, so these texts are part of the contract.
NO_BB_COMPILED = """\
type dfao
alphabet 0 1
states q0 q1 q2 q3 q4 q5 q6
initial q0
outputs q0=1 q1=1 q2=1 q3=0 q4=1 q5=0 q6=0
trans q0 0 q0
trans q0 1 q1
trans q1 0 q1
trans q1 1 q2
trans q2 0 q3
trans q2 1 q4
trans q3 0 q1
trans q3 1 q5
trans q4 0 q6
trans q4 1 q4
trans q5 0 q3
trans q5 1 q6
trans q6 0 q6
trans q6 1 q6
"""

NO_BB_ONES = """\
type dfa
alphabet 0 1
states q0 q1 q2 q3 q4 q5 q6
initial q0
accepting q0 q2 q3 q5
trans q0 0 q1
trans q0 1 q2
trans q1 0 q1
trans q1 1 q1
trans q2 0 q2
trans q2 1 q3
trans q3 0 q4
trans q3 1 q5
trans q4 0 q2
trans q4 1 q6
trans q5 0 q1
trans q5 1 q5
trans q6 0 q4
trans q6 1 q1
"""

NO_BB_ZEROS = """\
type dfa
alphabet 0 1
states q0 q1 q2 q3 q4 q5 q6 q7
initial q0
accepting q4 q6 q7
trans q0 0 q1
trans q0 1 q2
trans q1 0 q1
trans q1 1 q1
trans q2 0 q2
trans q2 1 q3
trans q3 0 q4
trans q3 1 q5
trans q4 0 q2
trans q4 1 q6
trans q5 0 q7
trans q5 1 q5
trans q6 0 q4
trans q6 1 q7
trans q7 0 q7
trans q7 1 q7
"""

# The unminimized pair construction: its states are named in the order the
# breadth-first walk first reaches them, q1 = (e, e), q2 = (b, e), ...
NO_BB_RAW = """\
type dfao
alphabet 0 1
states q0 q1 q2 q3 q4 q5 q6 q7
initial q0
outputs q0=1 q1=1 q2=1 q3=1 q4=0 q5=1 q6=0 q7=0
trans q0 0 q0
trans q0 1 q1
trans q1 0 q2
trans q1 1 q3
trans q2 0 q2
trans q2 1 q3
trans q3 0 q4
trans q3 1 q5
trans q4 0 q2
trans q4 1 q6
trans q5 0 q7
trans q5 1 q5
trans q6 0 q4
trans q6 1 q7
trans q7 0 q7
trans q7 1 q7
"""

# A recognizer of nothing: its 'accepting' line has no trailing space.
NOTHING = """\
type dfa
alphabet 0 1
states s
initial s
accepting
trans s 0 s
trans s 1 s
"""


def test_compile_reproduces_the_sequence(no_bb):
    compiled = compile_dfa(no_bb)
    assert [int(x) for x in output_seq(compiled, 25)] == NO_BB_PREFIX


def test_compile_matches_the_checked_in_machine(no_bb, no_bb_fao):
    compiled = compile_dfa(no_bb)
    assert dfao_equivalent(compiled, no_bb_fao)
    assert len(compiled.states) == 7


def test_compile_without_minimization(no_bb):
    raw = compile_dfa(no_bb, minimize=False)
    assert len(raw.states) == 8
    assert dfao_equivalent(raw, compile_dfa(no_bb))


def test_compile_requires_the_ab_alphabet(no_bb_ones):
    with pytest.raises(ValueError):
        compile_dfa(no_bb_ones)
    flipped = Dfa(
        ("b", "a"), ("s",), "s", frozenset({"s"}), {("s", "a"): "s", ("s", "b"): "s"}
    )
    with pytest.raises(ValueError):
        compile_dfa(flipped)


def test_compiled_state_count_is_bounded():
    rng = random.Random(707)
    for _ in range(40):
        dfa = random_dfa(rng)
        raw = compile_dfa(dfa, minimize=False)
        assert len(raw.states) <= len(dfa.states) ** 2 + 1


@pytest.mark.parametrize("modulus", [*range(2, 13), 48])
def test_mod_counters_reach_the_bound_and_split_glue_gives_them_back(modulus):
    dfa = mod_counter(modulus)
    compiled = compile_dfa(dfa)
    assert len(compiled.states) == modulus**2 + 1
    assert dump(glue(*split_dfa(dfa))) == dump(compiled)


def test_every_construction_steps_once_per_edge(monkeypatch):
    # _walk is the one breadth-first walk; record the steps each call makes.
    walks = []
    walk = automata._walk

    def counted_walk(start, alphabet, step, succ):
        edges = []
        walks.append((edges, len(alphabet)))
        return walk(start, alphabet, lambda node, letter: edges.append((node, letter)) or step(node, letter), succ)

    def counts():
        found = [(len(edges), len(set(edges)), len({node for node, _ in edges}) * k) for edges, k in walks]
        walks.clear()
        return found

    dfa = mod_counter(12)
    ones, zeros = split_dfa(dfa)
    monkeypatch.setattr(automata, "_walk", counted_walk)
    compile_dfa(mod_counter(48), minimize=False)
    assert counts() == [(2 * 2305, 2 * 2305, 2 * 2305)]
    # One walk over ones x zeros x canonical numerals both checks the
    # partition and gives the table that is minimized.
    glue(ones, zeros)
    glued = counts()
    assert len(glued) == 1
    # The pair graph, with its leading-zeros loop cut, serves both quotients.
    split_dfa(dfa)
    split = counts()
    assert len(split) == 1
    assert all(calls == distinct == edges for calls, distinct, edges in glued + split)
    # The search stops at the first node that tells the machines apart.
    assert automata.counterexample(dfa, automata.complement(dfa)) == ""
    assert counts() == [(0, 0, 0)]


def test_split_refines_the_pair_graph_and_a_dead_node(monkeypatch):
    refine = automata._refine
    sizes = []
    monkeypatch.setattr(automata, "_refine", lambda succ, k, seen: sizes.append(len(seen)) or refine(succ, k, seen))
    split_dfa(mod_counter(48))
    # One refinement of the 48**2 + 1 raw nodes and the dead node that the
    # leading-zeros node's digit 0 leads to serves both letters; nothing is
    # compiled or minimized first.
    assert sizes == [2305 + 1]


def test_constructions_validate_only_what_they_return(monkeypatch):
    dfa = mod_counter(12)
    ones, zeros = split_dfa(dfa)
    validate = automata.validate
    validated = []
    monkeypatch.setattr(automata, "validate", lambda machine: validated.append(machine) or validate(machine))
    # compile: the raw machine (which compile_dfa_with_pairs returns) and its
    # minimization; split: the two results, quotients of the pair graph;
    # glue: the canonical recognizer and the result.
    counts = []
    for operation in (lambda: compile_dfa(dfa), lambda: split_dfa(dfa), lambda: glue(ones, zeros)):
        validated.clear()
        operation()
        counts.append(len(validated))
    assert counts == [2, 2, 2]


def test_sound_machines_are_checked_whole(monkeypatch, tmp_path):
    # Loading and compiling sound machines tests each field at once; no id or
    # label is checked on its own, and no trans row is read on its own.
    path = tmp_path / "mod48.fao"
    save(compile_dfa(mod_counter(48)), path)
    token_problem = automata._token_problem
    checked = []
    monkeypatch.setattr(automata, "_token_problem", lambda *args: checked.append(args) or token_problem(*args))
    monkeypatch.setattr(formats, "_check_rows", lambda *args: checked.append(args))
    assert len(load(path).states) == 48**2 + 1
    compile_dfa(mod_counter(48))
    assert checked == []


def test_compiled_states_track_word_pairs(no_bb):
    raw, pairs = compile_dfa_with_pairs(no_bb)
    assert pairs[raw.initial] is None
    assert raw.transitions[raw.initial, "0"] == raw.initial
    rng = random.Random(808)
    machines = [no_bb] + [random_dfa(rng) for _ in range(3)]
    for dfa in machines:
        raw, pairs = compile_dfa_with_pairs(dfa)
        for n in range(1, 1 << 12):
            state = run(raw, to_digits(n, 2))
            expected = (
                run(dfa, shortlex_word(n, dfa.alphabet)),
                run(dfa, shortlex_word(n - 1, dfa.alphabet)),
            )
            assert pairs[state] == expected


def test_compile_is_sound_on_random_machines():
    rng = random.Random(909)
    for _ in range(30):
        dfa = random_dfa(rng)
        compiled = compile_dfa(dfa)
        got = [int(x) for x in output_seq(compiled, 512)]
        assert got == char_seq(dfa, 512)


def test_leading_zeros_do_not_change_the_output(no_bb, thue_morse, paperfold, no_bb_fao):
    rng = random.Random(111)
    machines = [compile_dfa(no_bb), thue_morse, paperfold, no_bb_fao]
    machines += [compile_dfa(random_dfa(rng)) for _ in range(2)]
    for machine in machines:
        for n in range(1 << 9):
            numeral = to_digits(n, 2)
            expected = output(machine, numeral)
            for padding in range(1, 7):
                assert output(machine, "0" * padding + numeral) == expected


def test_canonical_recognizer():
    canon = canonical_recognizer()
    for word in ("", "1", "10", "110", "1000001"):
        assert accepts(canon, word)
    for word in ("0", "00", "01", "010"):
        assert not accepts(canon, word)


def test_split_matches_the_checked_in_machines(no_bb, no_bb_ones, no_bb_zeros):
    ones, zeros = split_dfa(no_bb)
    assert equivalent(ones, no_bb_ones)
    assert equivalent(zeros, no_bb_zeros)
    assert accepts(ones, "111")
    assert accepts(zeros, "110")
    assert not accepts(ones, "0110")  # non-canonical numerals belong to neither
    assert not accepts(zeros, "0110")


def test_constructions_dump_canonical_names(no_bb):
    ones, zeros = split_dfa(no_bb)
    assert dump(compile_dfa(no_bb)) == NO_BB_COMPILED
    assert dump(ones) == NO_BB_ONES
    assert dump(zeros) == NO_BB_ZEROS
    assert dump(glue(ones, zeros)) == NO_BB_COMPILED
    assert dump(compile_dfa(no_bb, minimize=False)) == NO_BB_RAW
    assert dump(Dfa(("0", "1"), ("s",), "s", (), {("s", "0"): "s", ("s", "1"): "s"})) == NOTHING


def test_split_is_a_partition_of_the_canonical_numerals():
    rng = random.Random(222)
    canon = canonical_recognizer()
    for _ in range(15):
        ones, zeros = split_dfa(random_dfa(rng))
        assert is_empty(intersection(ones, zeros))
        assert equivalent(union(ones, zeros), canon)


def test_glue_rebuilds_the_output_machine(no_bb_ones, no_bb_zeros, no_bb_fao):
    assert dfao_equivalent(glue(no_bb_ones, no_bb_zeros), no_bb_fao)


def test_glue_inverts_split():
    rng = random.Random(333)
    for _ in range(15):
        dfa = random_dfa(rng)
        ones, zeros = split_dfa(dfa)
        assert dfao_equivalent(glue(ones, zeros), compile_dfa(dfa))


def test_glue_rejects_overlap(no_bb_ones):
    with pytest.raises(PartitionError) as err:
        glue(no_bb_ones, no_bb_ones)
    assert err.value.reason == "overlap"
    assert err.value.witness == ""  # both sides hold the empty numeral


def test_glue_rejects_gaps(no_bb_ones, no_bb_zeros):
    epsilon_free = Dfa(
        ("0", "1"),
        ("fresh",) + no_bb_ones.states,
        "fresh",
        no_bb_ones.accepting - {"e"},
        dict(no_bb_ones.transitions)
        | {("fresh", "0"): no_bb_ones.transitions["e", "0"],
           ("fresh", "1"): no_bb_ones.transitions["e", "1"]},
    )
    with pytest.raises(PartitionError) as err:
        glue(epsilon_free, no_bb_zeros)
    assert err.value.reason == "uncovered"
    assert err.value.witness == ""


def test_glue_rejects_non_canonical_words(no_bb_zeros):
    everything = Dfa(
        ("0", "1"), ("s",), "s", frozenset({"s"}), {("s", "0"): "s", ("s", "1"): "s"}
    )
    nothing = replace(everything, accepting=frozenset())
    with pytest.raises(PartitionError) as err:
        glue(everything, nothing)
    assert err.value.reason == "noncanonical"
    assert err.value.witness == "0"


def four_product_verdict(ones, zeros):
    """The partition check as four product DFAs: the first nonempty one in
    priority order, with its shortest word."""
    canon = canonical_recognizer()
    both = union(ones, zeros)
    for reason, language in (
        ("overlap", intersection(ones, zeros)),
        ("uncovered", difference(canon, both)),
        ("noncanonical", difference(both, canon)),
    ):
        witness = shortest_accepted(language)
        if witness is not None:
            return reason, witness
    return None


def glue_verdict(ones, zeros):
    try:
        glue(ones, zeros)
    except PartitionError as err:
        return err.reason, err.witness
    return None


def exactly(word):
    """DFA over the digits accepting ``word`` alone."""
    states = [f"p{i}" for i in range(len(word) + 1)] + ["dead"]
    transitions = {(state, digit): "dead" for state in states for digit in "01"}
    transitions.update({(f"p{i}", digit): f"p{i + 1}" for i, digit in enumerate(word)})
    return Dfa(("0", "1"), states, "p0", {states[len(word)]}, transitions)


def test_glue_verdicts_match_the_four_products():
    rng = random.Random(444)
    pairs = [tuple(random_dfa(rng, 4, ("0", "1")) for _ in range(2)) for _ in range(1500)]
    for _ in range(100):
        ones, zeros = split_dfa(random_dfa(rng))
        flip = rng.choice([ones, zeros])
        state = rng.choice(flip.states)
        flipped = replace(flip, accepting=flip.accepting ^ {state})
        pairs.append((flipped, zeros) if flip is ones else (ones, flipped))
    verdicts = [glue_verdict(ones, zeros) for ones, zeros in pairs]
    assert verdicts == [four_product_verdict(ones, zeros) for ones, zeros in pairs]
    assert {verdict[0] for verdict in verdicts if verdict} == {"overlap", "uncovered", "noncanonical"}


def test_glue_reports_reasons_in_priority_order():
    nothing = difference(exactly(""), exactly(""))
    # "" is uncovered, but the longer overlap "11" comes first.
    assert glue_verdict(exactly("11"), exactly("11")) == ("overlap", "11")
    # "0" is not canonical, but the longer gap "11" comes first.
    ones = difference(union(canonical_recognizer(), exactly("0")), exactly("11"))
    assert glue_verdict(ones, nothing) == ("uncovered", "11")
    for ones, zeros in ((exactly("11"), exactly("11")), (ones, nothing)):
        assert glue_verdict(ones, zeros) == four_product_verdict(ones, zeros)


def test_glue_requires_digit_machines(no_bb):
    with pytest.raises(ValueError):
        glue(no_bb, no_bb)


def test_first_mismatch_is_none_for_sound_compiles(no_bb):
    assert first_mismatch(no_bb, 4096) is None


def test_first_mismatch_returns_the_first_wrong_index(monkeypatch):
    rng = random.Random(2718)
    count = 600
    for dfa in [random_dfa(rng) for _ in range(8)]:
        want = char_seq(dfa, count)
        for index in (0, count // 2, count - 1, count, count + 5):
            mutant = flipped_at(compile_dfa(dfa), index)
            monkeypatch.setattr("autoseq.compiler.compile_dfa", lambda dfa, minimize=True: mutant)
            got = output_seq(mutant, count)
            brute = next((n for n in range(count) if int(got[n]) != want[n]), None)
            assert brute == (index if index < count else None)
            assert first_mismatch(dfa, count) == brute
            assert first_mismatch(dfa, 0) is None


def test_first_mismatch_takes_its_expected_side_from_char_seq(monkeypatch, no_bb):
    # a bit flipped in the oracle's answer alone must be reported: the
    # expected side comes from the word-by-word char_seq, not from any
    # sequence the compiler derives itself
    count = 5000
    for index in (0, 1, 63, 64, 2047, 2048, 4095, 4999):
        def flipped(dfa, count, index=index):
            bits = char_seq(dfa, count)
            if index < count:
                bits[index] ^= 1
            return bits

        monkeypatch.setattr("autoseq.compiler.char_seq", flipped)
        assert first_mismatch(no_bb, count) == index
        assert first_mismatch(no_bb, index) is None
