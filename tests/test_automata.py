import random
from collections import deque
from dataclasses import replace

import pytest

import autoseq
from autoseq import (
    Dfa,
    Dfao,
    InvalidAutomatonError,
    InvalidTagSystemError,
    accepts,
    compile_dfa,
    compile_dfa_with_pairs,
    complement,
    counterexample,
    dfao_counterexample,
    dfao_equivalent,
    difference,
    equivalent,
    intersection,
    is_empty,
    minimize,
    minimize_dfao,
    output,
    residuals,
    run,
    shortest_accepted,
    union,
    validate,
)
from autoseq import automata
from conftest import mod_counter, moore_minimize, reachable, random_dfa, random_dfao, words_in_order


def two_sinks():
    # two separate accepting sinks that minimization must merge
    return Dfa(
        alphabet=("a", "b"),
        states=("s", "t", "u"),
        initial="s",
        accepting=frozenset({"t", "u"}),
        transitions={
            ("s", "a"): "t",
            ("s", "b"): "u",
            ("t", "a"): "t",
            ("t", "b"): "t",
            ("u", "a"): "u",
            ("u", "b"): "u",
        },
    )


def test_run_follows_transitions(no_bb, thue_morse):
    assert run(no_bb, "") == "e"
    assert run(no_bb, "bab") == "b"
    assert run(no_bb, "bb") == "bb"
    assert run(no_bb, "bba") == "bb"
    assert run(thue_morse, "11") == "q0"


def test_run_is_a_monoid_action(no_bb):
    for prefix in ("", "a", "bb", "bab"):
        for suffix in ("", "b", "ab", "bba"):
            rebased = replace(no_bb, initial=run(no_bb, prefix))
            assert run(no_bb, prefix + suffix) == run(rebased, suffix)


def test_run_rejects_foreign_letters(no_bb):
    with pytest.raises(ValueError):
        run(no_bb, "abc")


def test_accepts(no_bb):
    assert accepts(no_bb, "")
    assert accepts(no_bb, "bab")
    assert not accepts(no_bb, "abb")
    assert not accepts(no_bb, "bba")


def test_output(thue_morse, paperfold):
    assert output(thue_morse, "") == "0"
    assert output(thue_morse, "110") == "0"
    assert output(thue_morse, "10") == "1"
    assert output(paperfold, "1101") == "1"
    assert output(paperfold, "11") == "0"


def test_construction_requires_totality():
    transitions = {("s", "a"): "s"}
    with pytest.raises(InvalidAutomatonError) as err:
        Dfa(("a", "b"), ("s",), "s", frozenset(), transitions)
    assert "missing transition ('s', 'b')" in str(err.value)


def test_construction_lists_every_problem():
    with pytest.raises(InvalidAutomatonError) as err:
        Dfa(("a", "b"), ("s", "t"), "x", frozenset({"y"}), {})
    problems = err.value.problems
    assert any("initial" in p for p in problems)
    assert any("accepting state 'y'" in p for p in problems)
    assert sum("missing transition" in p for p in problems) == 4


def test_dfao_requires_total_outputs():
    with pytest.raises(InvalidAutomatonError) as err:
        Dfao(
            ("0", "1"),
            ("s", "t"),
            "s",
            {("s", "0"): "s", ("s", "1"): "t", ("t", "0"): "t", ("t", "1"): "s"},
            {"s": "0"},
        )
    assert "no output letter for state 't'" in str(err.value)


def test_validate_passes_sound_machines(no_bb, thue_morse):
    assert validate(no_bb) == []
    assert validate(thue_morse) == []


def test_public_names_are_the_contract():
    # the 52 public names are the package's contract; a base the two
    # problems errors share stays private
    names = autoseq.__all__
    assert len(names) == len(set(names)) == 52
    assert names == sorted(names)
    assert all(hasattr(autoseq, name) and not name.startswith("_") for name in names)
    assert issubclass(InvalidAutomatonError, ValueError) and issubclass(InvalidTagSystemError, ValueError)
    assert not issubclass(InvalidAutomatonError, InvalidTagSystemError)
    assert not issubclass(InvalidTagSystemError, InvalidAutomatonError)


def test_state_ids_must_be_plain_tokens():
    with pytest.raises(InvalidAutomatonError):
        Dfa(("a", "b"), ("s s",), "s s", frozenset(), {("s s", "a"): "s s", ("s s", "b"): "s s"})


def test_minimize_merges_equivalent_states():
    merged = minimize(two_sinks())
    assert len(merged.states) == 2
    assert equivalent(merged, two_sinks())


def test_minimize_drops_unreachable_states():
    dfa = Dfa(
        alphabet=("a", "b"),
        states=("s", "dead"),
        initial="s",
        accepting=frozenset({"s"}),
        transitions={
            ("s", "a"): "s",
            ("s", "b"): "s",
            ("dead", "a"): "dead",
            ("dead", "b"): "dead",
        },
    )
    assert minimize(dfa).states == ("q0",)


def test_minimize_is_canonical_and_idempotent(no_bb):
    small = minimize(no_bb)
    assert small.states == ("q0", "q1", "q2")
    assert small.initial == "q0"
    assert minimize(small) == small


def test_minimize_preserves_acceptance_exhaustively(no_bb):
    small = minimize(no_bb)
    # every word up to twice the state count
    for word in words_in_order(("a", "b"), 2 ** (2 * len(no_bb.states) + 1)):
        assert accepts(small, word) == accepts(no_bb, word)


def test_minimize_random_machines_stay_equivalent_and_minimal():
    rng = random.Random(101)
    for _ in range(60):
        dfa = random_dfa(rng)
        small = minimize(dfa)
        assert equivalent(dfa, small)
        assert len(small.states) <= len(reachable(dfa))
        assert minimize(small) == small
        # pairwise inequivalent states, distinguished by short words
        for i, s in enumerate(small.states):
            for t in small.states[i + 1 :]:
                word = counterexample(replace(small, initial=s), replace(small, initial=t))
                assert word is not None
                assert len(word) < len(small.states)


def test_minimize_dfao_collapses_by_output(no_bb_fao):
    small = minimize_dfao(no_bb_fao)
    assert len(small.states) == 7
    assert dfao_equivalent(small, no_bb_fao)

    constant = Dfao(
        ("0", "1"),
        ("s", "t"),
        "s",
        {("s", "0"): "t", ("s", "1"): "t", ("t", "0"): "s", ("t", "1"): "s"},
        {"s": "x", "t": "x"},
    )
    assert minimize_dfao(constant).states == ("q0",)


def test_minimize_dfao_random_machines():
    rng = random.Random(202)
    for _ in range(60):
        dfao = random_dfao(rng)
        small = minimize_dfao(dfao)
        assert dfao_equivalent(dfao, small)
        assert len(small.states) <= len(reachable(dfao))


def test_minimization_matches_the_moore_reference_on_larger_machines():
    # Blocks that split while they wait as splitters show up from about
    # twenty states on; the generated cases of test_properties stay smaller.
    rng = random.Random(303)
    for _ in range(300):
        dfa = random_dfa(rng, max_states=40)
        assert minimize(dfa) == moore_minimize(dfa)
        dfao = random_dfao(rng, max_states=40, alphabet=("a", "b"), letters=("x", "y", "z"))
        assert minimize_dfao(dfao) == moore_minimize(dfao)


def test_equivalence_is_exact(no_bb, no_bb_ones, no_bb_zeros):
    assert equivalent(no_bb, minimize(no_bb))
    assert not equivalent(no_bb_ones, no_bb_zeros)
    assert counterexample(no_bb_ones, no_bb_zeros) == ""  # both read the empty word


def test_counterexample_is_shortest(no_bb):
    full = replace(no_bb, accepting=frozenset(no_bb.states))
    # no_bb accepts everything up to length 1; the first difference is bb
    word = counterexample(no_bb, full)
    assert word == "bb"


def test_equivalence_requires_matching_alphabets(no_bb, no_bb_ones):
    with pytest.raises(ValueError):
        equivalent(no_bb, no_bb_ones)


def test_dfao_counterexample(thue_morse, no_bb_fao):
    assert dfao_counterexample(no_bb_fao, no_bb_fao) is None
    assert dfao_counterexample(thue_morse, no_bb_fao) == ""  # outputs 0 vs 1 on the empty word


def test_each_twin_answers_alike_on_either_kind():
    # Recognizers and their raw compiles, handed to both names of each
    # operation; the pairs include equal machines, so both answers occur.
    rng = random.Random(2727)
    dfas = [random_dfa(rng, max_states=8) for _ in range(40)]
    for kind in (dfas, [compile_dfa(dfa, minimize=False) for dfa in dfas]):
        for machine in kind:
            assert minimize(machine) == minimize_dfao(machine)
        pairs = [*zip(kind, kind[1:]), *((m, minimize(m)) for m in kind)]
        answers = set()
        for m1, m2 in pairs:
            word = counterexample(m1, m2)
            assert dfao_counterexample(m1, m2) == word
            assert equivalent(m1, m2) == dfao_equivalent(m1, m2) == (word is None)
            answers.add(word is None)
        assert answers == {True, False}


def test_boolean_operations(no_bb):
    assert is_empty(difference(no_bb, no_bb))
    assert is_empty(intersection(no_bb, complement(no_bb)))
    assert equivalent(union(no_bb, complement(no_bb)), replace(no_bb, accepting=frozenset(no_bb.states)))
    for word in words_in_order(("a", "b"), 64):
        assert accepts(complement(no_bb), word) != accepts(no_bb, word)


def test_boolean_operations_against_word_membership():
    rng = random.Random(303)
    probes = words_in_order(("a", "b"), 128)
    for _ in range(20):
        d1, d2 = random_dfa(rng), random_dfa(rng)
        both = intersection(d1, d2)
        either = union(d1, d2)
        only_first = difference(d1, d2)
        for word in probes:
            in1, in2 = accepts(d1, word), accepts(d2, word)
            assert accepts(both, word) == (in1 and in2)
            assert accepts(either, word) == (in1 or in2)
            assert accepts(only_first, word) == (in1 and not in2)


def walked_machine(kind, start, alphabet, step, observe):
    """Reference for the constructions that name a walk: the machine of
    ``kind`` on the nodes reachable from ``start``, found by a breadth-first
    loop of its own with letters in alphabet order and named q0, q1, ... in
    the order they are discovered, and the map from each node to its name."""
    names = {start: "q0"}
    queue = deque([start])
    transitions = {}
    while queue:
        node = queue.popleft()
        for letter in alphabet:
            target = step(node, letter)
            if target not in names:
                names[target] = f"q{len(names)}"
                queue.append(target)
            transitions[names[node], letter] = names[target]
    states = tuple(names.values())
    if kind is Dfa:
        accepting = frozenset(name for node, name in names.items() if observe(node))
        return Dfa(alphabet, states, "q0", accepting, transitions), names
    return Dfao(alphabet, states, "q0", transitions, {name: observe(node) for node, name in names.items()}), names


def reference_pair_step(dfa):
    """The compiler's step on the pairs (s(n), s(n-1)), read off the shortlex
    recurrence word(2n+1) = word(n)·a and word(2n+2) = word(n)·b: the digit 1
    leads from n to 2n+1, whose predecessor 2n spells word(n-1)·b, and the
    digit 0 leads to 2n, whose predecessor 2n-1 spells word(n-1)·a.  The
    state on word(-1) is None: word(-1)·a = word(-1), word(-1)·b = word(0)."""

    def extend(state, letter):
        if state is None:
            return None if letter == "a" else dfa.initial
        return dfa.transitions[state, letter]

    def step(pair, digit):
        on_n, on_prev = pair
        if digit == "1":
            return extend(on_n, "a"), extend(on_prev, "b")
        return extend(on_prev, "b"), extend(on_prev, "a")

    return step


def seeded_pairs():
    rng = random.Random(505)
    return [(random_dfa(rng), random_dfa(rng)) for _ in range(50)]


def test_products_are_named_by_a_breadth_first_walk():
    keeps = {intersection: lambda x, y: x and y, union: lambda x, y: x or y, difference: lambda x, y: x and not y}
    for d1, d2 in seeded_pairs():
        start = (d1.initial, d2.initial)

        def step(pair, letter):
            return d1.transitions[pair[0], letter], d2.transitions[pair[1], letter]

        for operation, keep in keeps.items():
            def observe(pair):
                return keep(pair[0] in d1.accepting, pair[1] in d2.accepting)

            assert operation(d1, d2) == walked_machine(Dfa, start, d1.alphabet, step, observe)[0]


def test_raw_compile_is_named_by_a_breadth_first_walk():
    recognizers = [dfa for pair in seeded_pairs() for dfa in pair]
    for dfa in [*recognizers, mod_counter(8)]:
        def observe(pair):
            return "1" if pair[0] in dfa.accepting else "0"

        want, names = walked_machine(Dfao, (dfa.initial, None), ("0", "1"), reference_pair_step(dfa), observe)
        compiled, pairs = compile_dfa_with_pairs(dfa)
        assert compile_dfa(dfa, minimize=False) == compiled == want
        assert pairs == {name: None if name == "q0" else pair for pair, name in names.items()}
    assert len(want.states) == 8**2 + 1


def test_products_require_matching_alphabets(no_bb, no_bb_ones):
    for operation in (intersection, union, difference):
        with pytest.raises(ValueError) as caught:
            operation(no_bb, no_bb_ones)
        assert str(caught.value) == "alphabet mismatch: 'a b' vs '0 1'"


def test_recognizer_operations_reject_output_machines(no_bb, thue_morse, paperfold):
    operations = {
        "intersection": lambda: intersection(thue_morse, paperfold),
        "union": lambda: union(no_bb, thue_morse),
        "difference": lambda: difference(thue_morse, no_bb),
        "complement": lambda: complement(thue_morse),
        "shortest_accepted": lambda: shortest_accepted(thue_morse),
        "is_empty": lambda: is_empty(thue_morse),
        "accepts": lambda: accepts(thue_morse, "01"),
    }
    for name, call in operations.items():
        with pytest.raises(automata._MachineError) as caught:
            call()
        assert str(caught.value) == f"{name} needs a recognizer (type dfa)"
        assert caught.value.machine is thue_morse


def test_shortest_accepted(no_bb):
    assert shortest_accepted(no_bb) == ""
    nothing = replace(no_bb, accepting=frozenset())
    assert shortest_accepted(nothing) is None
    assert is_empty(nothing)
    only_bb = replace(no_bb, accepting=frozenset({"bb"}))
    assert shortest_accepted(only_bb) == "bb"


def first_in_shortlex(alphabet, predicate):
    """Brute-force oracle: the first word of length at most 8, in shortlex
    order, that satisfies ``predicate``, or None."""
    words = words_in_order(alphabet, 2**9 - 1)  # every word of length <= 8
    return next((word for word in words if predicate(word)), None)


def test_shortest_words_match_a_brute_force_scan():
    # At most 3 states per machine gives at most 9 product states, so every
    # shortest witness has at most 8 letters and the scan is exhaustive.
    rng = random.Random(404)
    found = set()
    for _ in range(150):
        d1, d2 = random_dfa(rng, max_states=3), random_dfa(rng, max_states=3)
        m1, m2 = random_dfao(rng, max_states=3), random_dfao(rng, max_states=3)
        cases = (
            (shortest_accepted(d1), d1.alphabet, lambda w: accepts(d1, w)),
            (counterexample(d1, d2), d1.alphabet, lambda w: accepts(d1, w) != accepts(d2, w)),
            (dfao_counterexample(m1, m2), m1.alphabet, lambda w: output(m1, w) != output(m2, w)),
        )
        for got, alphabet, predicate in cases:
            assert got == first_in_shortlex(alphabet, predicate)
            found.add(got is None)
        # breadth-first order is the order in which the scan first reaches
        # each state, and every residual witness is that first word
        for machine in (d1, d2, m1, m2):
            first = {}
            for word in words_in_order(machine.alphabet, 2**9 - 1):
                first.setdefault(run(machine, word), word)
            delta = machine.transitions
            assert automata._graph(machine.initial, machine.alphabet, lambda s, a: delta[s, a])[0] == list(first)
        small = minimize(d1)
        for witness, state in residuals(d1):
            assert witness == first_in_shortlex(small.alphabet, lambda w: run(small, w) == state)
    assert found == {True, False}
