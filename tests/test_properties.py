"""Property-based checks on generated machines: the file format round-trips,
parsing fails only with FormatError, validation and parsing word the same
problems as the item-by-item reference checks on damaged machines and
files, minimization is canonical, agrees with Moore's refinement and
ignores the declared order of states and any state that is not reached,
compile and split give the machines their definitions build,
split-then-glue gives back the compiled machine, a line rendered from
subtree blocks is the joined unfolding, so is the line built from the
oracle's bits, ``first_mismatch`` finds a flipped term wherever it
lies in that line, and the closed-form shortlex conversions agree with the
bijective base-2 recurrence, also on the letter they reject."""

from itertools import count
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from autoseq import (
    Dfa,
    Dfao,
    FormatError,
    InvalidAutomatonError,
    InvalidTagSystemError,
    TagSystem,
    canonical_recognizer,
    char_seq,
    compile_dfa,
    dfao_equivalent,
    dump,
    equivalent,
    first_mismatch,
    glue,
    intersection,
    minimize,
    minimize_dfao,
    output_seq,
    parse,
    shortlex_index,
    shortlex_word,
    split_dfa,
)
from autoseq.charseq import _bits_line
from autoseq.tagsystem import _render, _unfold
from conftest import (
    flipped_at,
    moore_minimize,
    reference_automaton,
    reference_shortlex_index,
    reference_shortlex_word,
    reference_tag_problems,
    reference_validate,
)

# Seeded and without an example database, so every run checks the same cases.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Any character a file can hold apart from whitespace, '#' and '='.
CHARACTER = st.characters(blacklist_categories=("Cs",), blacklist_characters="#=").filter(
    lambda c: not c.isspace()
)
TOKEN = st.text(CHARACTER, min_size=1, max_size=3)


@st.composite
def automata(draw, kind, alphabets=st.lists(CHARACTER, min_size=1, max_size=3, unique=True)):
    states = draw(st.lists(TOKEN, min_size=1, max_size=6, unique=True))
    alphabet = tuple(draw(alphabets))
    target = st.sampled_from(states)
    transitions = {(state, letter): draw(target) for state in states for letter in alphabet}
    initial = draw(target)
    if kind is Dfa:
        return Dfa(alphabet, states, initial, draw(st.frozensets(target)), transitions)
    return Dfao(alphabet, states, initial, transitions, {state: draw(TOKEN) for state in states})


@st.composite
def refinable(draw, kind):
    """Machines over 1 to 3 letters with at most 3 observations, some states
    that copy another state's row and observation, and some that nothing
    reaches: the cases that minimization merges or drops."""
    alphabet = tuple("abc"[: draw(st.integers(1, 3))])
    core = [f"s{i}" for i in range(draw(st.integers(1, 8)))]
    twins = {f"t{i}": draw(st.sampled_from(core)) for i in range(draw(st.integers(0, 3)))}
    orphans = [f"u{i}" for i in range(draw(st.integers(0, 2)))]
    states = core + list(twins) + orphans
    reached = st.sampled_from(core + list(twins))
    transitions = {(state, letter): draw(reached) for state in core for letter in alphabet}
    for twin, state in twins.items():
        transitions.update({(twin, letter): transitions[state, letter] for letter in alphabet})
    transitions.update({(state, letter): draw(st.sampled_from(states)) for state in orphans for letter in alphabet})
    shown = st.sampled_from("xyz"[: draw(st.integers(1, 3))])
    observed = {state: draw(shown) for state in core + orphans}
    observed.update({twin: observed[state] for twin, state in twins.items()})
    initial = draw(st.sampled_from(core))
    if kind is Dfa:
        return Dfa(alphabet, states, initial, frozenset(s for s in states if observed[s] == "x"), transitions)
    return Dfao(alphabet, states, initial, transitions, observed)


@st.composite
def tag_systems(draw):
    modulus = draw(st.integers(2, 4))
    symbols = draw(st.lists(TOKEN, min_size=1, max_size=5, unique=True))
    start = draw(st.sampled_from(symbols))
    image = st.lists(st.sampled_from(symbols), min_size=modulus, max_size=modulus)
    rules = {symbol: draw(image) for symbol in symbols}
    rules[start][0] = start
    return TagSystem(modulus, symbols, start, rules, {symbol: draw(TOKEN) for symbol in symbols})


@st.composite
def tables(draw):
    """A successor table of 1 to 40 symbols over 2 to 10 digits, a start
    symbol with or without a 0-self-loop, and a label per symbol."""
    base = draw(st.integers(2, 10))
    symbols = [f"s{i}" for i in range(draw(st.integers(1, 40)))]
    row = st.lists(st.sampled_from(symbols), min_size=base, max_size=base).map(tuple)
    table = {symbol: draw(row) for symbol in symbols}
    return table, draw(st.sampled_from(symbols)), {symbol: draw(TOKEN) for symbol in symbols}


TWO_LETTERS = st.sampled_from([("a", "b"), ("0", "1")])

# Documents made of directive words, machine-like tokens and arbitrary text.
WORD = st.one_of(
    st.sampled_from(
        "type dfa dfao tag alphabet states initial accepting outputs trans modulus symbols "
        "start morph -> code a b 0 1 2 s t s=1 t=a = # ²".split()
    ),
    st.text(max_size=3),
)
DOCUMENTS = st.one_of(st.text(), st.lists(st.lists(WORD, max_size=6).map(" ".join), max_size=8).map("\n".join))


@PROPERTY
@given(st.one_of(automata(Dfa), automata(Dfao), tag_systems()))
def test_parse_reads_back_what_dump_writes(machine):
    assert parse(dump(machine)) == machine


@settings(PROPERTY, max_examples=300)
@given(DOCUMENTS)
def test_parse_fails_only_with_format_errors(text):
    try:
        parse(text)
    except FormatError:
        pass


def outcome(build, *args):
    """What ``build(*args)`` gives: its value, or the type and the wording of
    the error it raises."""
    try:
        return build(*args)
    except (InvalidAutomatonError, InvalidTagSystemError) as exc:
        return type(exc), exc.problems
    except (FormatError, TypeError) as exc:
        return type(exc), str(exc)


def reference_outcome(build, *args):
    """:func:`outcome` with the item-by-item reference checks in place of
    the library's own."""
    with (
        patch("autoseq.automata.validate", reference_validate),
        patch.object(TagSystem, "_problems", reference_tag_problems),
        patch("autoseq.formats._automaton", reference_automaton),
    ):
        return outcome(build, *args)


# How many faults to put in: mostly some, sometimes none.
FAULTS = st.sampled_from([1, 2, 3, 0])

# Ids that break a check: whitespace, '#', '=', empty, not a string, and
# one that nothing declares.
DAMAGED = st.sampled_from(["a b", " s", "s\t", "", "#", "x#", "=", "a=b", 3, None, "zz"])


def damage_automaton(data, kind, machine) -> dict:
    """The fields of ``machine``, with up to three faults drawn from ``data``."""
    fields = {
        "alphabet": list(machine.alphabet),
        "states": list(machine.states),
        "initial": machine.initial,
        "transitions": dict(machine.transitions),
    }
    if kind is Dfa:
        fields["accepting"] = set(machine.accepting)
    else:
        fields["outputs"] = dict(machine.outputs)
    for _ in range(data.draw(FAULTS)):
        states, delta = fields["states"], fields["transitions"]
        bad = data.draw(DAMAGED)
        fault = data.draw(st.sampled_from(
            ["state id", "duplicate", "source", "letter", "target", "missing", "alphabet", "initial",
             "extra label", "missing label", "label letter"]
        ))
        if fault == "state id" and states:
            states[data.draw(st.integers(0, len(states) - 1))] = bad
        elif fault == "duplicate" and states:
            states.append(data.draw(st.sampled_from(states)))
            # with transitions from an undeclared state, so that the count
            # still equals |states| * |alphabet|
            delta.update({(bad, letter): machine.initial for letter in fields["alphabet"]})
        elif fault == "source" and fields["alphabet"]:
            delta[bad, data.draw(st.sampled_from(fields["alphabet"]))] = machine.initial
        elif fault == "letter" and states:
            delta[data.draw(st.sampled_from(states)), data.draw(st.sampled_from(["?", "ab", 0]))] = machine.initial
        elif fault == "target" and delta:
            delta[data.draw(st.sampled_from(sorted(delta, key=repr)))] = bad
        elif fault == "missing" and delta:
            del delta[data.draw(st.sampled_from(sorted(delta, key=repr)))]
        elif fault == "alphabet" and data.draw(st.booleans()):
            fields["alphabet"].clear()
        elif fault == "alphabet":
            fields["alphabet"].append(data.draw(st.sampled_from(["", "ab", " ", "#", *fields["alphabet"]])))
        elif fault == "initial":
            fields["initial"] = bad
        elif fault == "extra label" and kind is Dfa:
            fields["accepting"].add(bad)
        elif kind is Dfao:
            outputs = fields["outputs"]
            state = data.draw(st.sampled_from(sorted(outputs, key=repr) or [bad]))
            if fault == "extra label":
                outputs[bad] = "1"
            elif fault == "missing label":
                outputs.pop(state, None)
            elif fault == "label letter":
                outputs[state] = bad
    return fields


def damage_tag_system(data, system) -> dict:
    """The fields of ``system``, with up to three faults drawn from ``data``."""
    fields = {
        "modulus": system.modulus,
        "symbols": list(system.symbols),
        "start": system.start,
        "rules": {symbol: list(image) for symbol, image in system.rules.items()},
        "coding": dict(system.coding),
    }
    for _ in range(data.draw(FAULTS)):
        symbols, rules, coding = fields["symbols"], fields["rules"], fields["coding"]
        bad = data.draw(DAMAGED)
        symbol = data.draw(st.sampled_from(sorted(rules, key=repr) or [bad]))
        fault = data.draw(st.sampled_from(
            ["symbol", "duplicate", "longer", "shorter", "undeclared rule", "missing rule", "image",
             "extra coding", "missing coding", "coding letter", "start", "modulus"]
        ))
        if fault == "symbol" and symbols:
            symbols[data.draw(st.integers(0, len(symbols) - 1))] = bad
        elif fault == "duplicate" and symbols:
            symbols.append(data.draw(st.sampled_from(symbols)))
        elif fault == "longer" and symbol in rules:
            rules[symbol].append(symbol)
        elif fault == "shorter" and rules.get(symbol):
            rules[symbol].pop()
        elif fault == "undeclared rule":
            rules[bad] = [system.start] * system.modulus
        elif fault == "missing rule":
            rules.pop(symbol, None)
        elif fault == "image" and rules.get(symbol):
            rules[symbol][data.draw(st.integers(0, len(rules[symbol]) - 1))] = bad
        elif fault == "extra coding":
            coding[bad] = "1"
        elif fault == "missing coding":
            coding.pop(symbol, None)
        elif fault == "coding letter":
            coding[symbol] = bad
        elif fault == "start":
            fields["start"] = data.draw(st.sampled_from([bad, *symbols]))
        elif fault == "modulus":
            fields["modulus"] = data.draw(st.sampled_from([0, 1, 5, "2", 2.0, [2]]))
    return fields


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from([Dfa, Dfao, TagSystem]), st.data())
def test_validation_words_what_the_reference_words(kind, data):
    if kind is TagSystem:
        fields = damage_tag_system(data, data.draw(tag_systems()))
    else:
        fields = damage_automaton(data, kind, data.draw(automata(kind)))
    assert outcome(lambda: kind(**fields)) == reference_outcome(lambda: kind(**fields))


def damage_file(data, text: str) -> str:
    """``text`` with up to three of the lines after its ``type`` line
    duplicated, dropped, moved, cut short, given an undeclared or malformed
    token, or preceded by a comment.  Half the faults go to ``trans`` and
    ``morph`` rows, which are checked together."""
    lines = text.splitlines()
    for _ in range(data.draw(FAULTS)):
        rows = [i for i, line in enumerate(lines) if line.startswith(("trans ", "morph "))]
        if len(lines) < 2:
            break
        i = data.draw(st.sampled_from(rows) if rows and data.draw(st.booleans()) else st.integers(1, len(lines) - 1))
        tokens = lines[i].split()
        fault = data.draw(st.sampled_from(["duplicate", "drop", "move", "cut", "token", "comment"]))
        if fault == "duplicate":
            lines.insert(data.draw(st.integers(1, len(lines))), lines[i])
        elif fault == "drop":
            del lines[i]
        elif fault == "move":
            lines.insert(data.draw(st.integers(1, len(lines) - 1)), lines.pop(i))
        elif fault == "cut" and tokens:
            lines[i] = " ".join(tokens[:-1])
        elif fault == "token" and len(tokens) > 1:
            j = data.draw(st.integers(1, len(tokens) - 1))
            tokens[j] = data.draw(st.sampled_from(["zz", "a=b", "=", "x#", "->", "zz=1", tokens[j - 1]]))
            lines[i] = " ".join(tokens)
        elif fault == "comment":
            lines.insert(i, data.draw(st.sampled_from(["", "# note", "  "])))
    return "\n".join(lines) + "\n"


@settings(PROPERTY, max_examples=300)
@given(st.one_of(automata(Dfa), automata(Dfao), tag_systems()), st.data())
def test_parse_words_what_the_reference_words(machine, data):
    text = damage_file(data, dump(machine))
    assert outcome(parse, text, "f.aut") == reference_outcome(parse, text, "f.aut")


@PROPERTY
@given(automata(Dfa, TWO_LETTERS))
def test_minimize_is_idempotent_and_keeps_the_language(dfa):
    small = minimize(dfa)
    assert minimize(small) == small
    assert equivalent(small, dfa)


@PROPERTY
@given(automata(Dfao, TWO_LETTERS))
def test_minimize_dfao_is_idempotent_and_keeps_the_outputs(dfao):
    small = minimize_dfao(dfao)
    assert minimize_dfao(small) == small
    assert dfao_equivalent(small, dfao)


@settings(PROPERTY, max_examples=200)
@given(st.one_of(refinable(Dfa), automata(Dfa)))
def test_minimize_matches_the_moore_reference(dfa):
    assert minimize(dfa) == moore_minimize(dfa)


@settings(PROPERTY, max_examples=200)
@given(st.one_of(refinable(Dfao), automata(Dfao)))
def test_minimize_dfao_matches_the_moore_reference(dfao):
    assert minimize_dfao(dfao) == moore_minimize(dfao)


@st.composite
def rearranged(draw, kind):
    """A machine, and the same machine with its states declared in another
    order and with added states that the initial state does not reach."""
    machine = draw(st.one_of(refinable(kind), automata(kind)))
    fresh = (name for name in map("v{}".format, count()) if name not in machine.states)
    extra = [next(fresh) for _ in range(draw(st.integers(0, 3)))]
    states = draw(st.permutations([*machine.states, *extra]))
    target = st.sampled_from(states)
    transitions = dict(machine.transitions)
    transitions.update({(state, letter): draw(target) for state in extra for letter in machine.alphabet})
    if kind is Dfa:
        accepting = machine.accepting | {state for state in extra if draw(st.booleans())}
        return machine, Dfa(machine.alphabet, states, machine.initial, accepting, transitions)
    outputs = {**machine.outputs, **{state: draw(TOKEN) for state in extra}}
    return machine, Dfao(machine.alphabet, states, machine.initial, transitions, outputs)


@settings(PROPERTY, max_examples=200)
@given(st.sampled_from([Dfa, Dfao]).flatmap(rearranged))
def test_minimization_ignores_declared_order_and_unreachable_states(pair):
    machine, variant = pair
    reduce = minimize if isinstance(machine, Dfa) else minimize_dfao
    assert reduce(variant) == reduce(machine)


@PROPERTY
@given(automata(Dfa, st.just(("a", "b"))))
def test_glue_undoes_split(dfa):
    glued = glue(*split_dfa(dfa))
    assert dfao_equivalent(glued, compile_dfa(dfa))
    assert glued == compile_dfa(dfa)


@PROPERTY
@given(automata(Dfa, st.just(("a", "b"))))
def test_constructions_equal_their_definitions(dfa):
    """The compiled and split machines equal their definitions: the raw
    machine, or its product with the canonical numerals, built and then
    minimized."""
    compiled = compile_dfa(dfa)
    assert compiled == minimize_dfao(compile_dfa(dfa, minimize=False))
    for letter, machine in zip("10", split_dfa(dfa)):
        shows = frozenset(state for state, out in compiled.outputs.items() if out == letter)
        read = Dfa(compiled.alphabet, compiled.states, compiled.initial, shows, compiled.transitions)
        assert machine == minimize(intersection(read, canonical_recognizer()))


@PROPERTY
@given(tables(), st.integers(0, 5000))
def test_render_joins_the_unfolding(drawn, count):
    table, start, label = drawn
    assert _render(table, start, count, label) == " ".join(map(label.__getitem__, _unfold(table, start, count)))


@PROPERTY
@given(st.lists(st.integers(0, 1), max_size=5000))
def test_bits_line_joins_the_bits(bits):
    assert _bits_line(bits) == " ".join(map(str, bits))


def _block_width(symbols, count):
    """The block width ``_render`` picks for a base-2 table of ``symbols``
    symbols at ``count`` terms (1 when it uses no blocks)."""
    width = 1
    while width * 2 * max(4 * symbols, width * 2) <= count:
        width *= 2
    return width


@st.composite
def flipped_terms(draw):
    """A recognizer, a count and its compiled machine with the output of one
    index flipped (``flipped_at``).  The count is 0, 1, 2**12 +- 1, 2**14 + 3
    or one off a count where ``_render`` goes one block depth deeper on the
    mutant's table; the index lies in the head, in a full root block, in the
    last partial block or past the count.  Both depend on the mutant's size,
    which depends on the index, so they are recomputed until they agree."""
    dfa = draw(automata(Dfa, st.just(("a", "b"))))
    fixed = draw(st.sampled_from([0, 1, (1 << 12) - 1, (1 << 12) + 1, (1 << 14) + 3, None]))
    depth, shift = draw(st.integers(1, 6)), draw(st.sampled_from([-1, 0, 1]))
    region = draw(st.sampled_from(["head", "root block", "partial block", "past the count"]))
    share = draw(st.floats(0, 1, exclude_max=True))
    compiled = compile_dfa(dfa)
    mutant, index = compiled, None
    for _ in range(6):
        symbols = len(mutant.states)
        count = fixed if fixed is not None else (1 << depth) * max(4 * symbols, 1 << depth) + shift
        width = _block_width(symbols, count)
        partial = count - count % width
        low, high = {
            "head": (0, min(width, count)),
            "root block": (width, partial),
            "partial block": (partial, count),
            "past the count": (count, count + 3),
        }[region]
        assume(low < high)
        placed = low + int(share * (high - low))
        if placed == index:
            return dfa, mutant, count, index
        index, mutant = placed, flipped_at(compiled, placed)
    assume(False)


@PROPERTY
@given(flipped_terms())
def test_first_mismatch_finds_a_flipped_term_anywhere_in_the_line(case):
    dfa, mutant, count, index = case
    got, want = output_seq(mutant, count), char_seq(dfa, count)
    brute = next((n for n in range(count) if int(got[n]) != want[n]), None)
    assert brute == (index if index < count else None)
    with patch("autoseq.compiler.compile_dfa", lambda dfa, minimize=True: mutant):
        assert first_mismatch(dfa, count) == brute


# Indices of up to 4000 bits, so words of up to 4000 letters, and two alphabets.
BIG_INDICES = st.integers(0, (1 << 4000) - 1)
SHORTLEX_ALPHABETS = st.sampled_from([("a", "b"), ("x", "y")])


@PROPERTY
@given(BIG_INDICES, SHORTLEX_ALPHABETS)
def test_shortlex_conversions_follow_the_bijective_recurrence(n, alphabet):
    word = shortlex_word(n, alphabet)
    assert word == reference_shortlex_word(n, alphabet)
    assert shortlex_index(word, alphabet) == n


@PROPERTY
@given(BIG_INDICES, SHORTLEX_ALPHABETS, st.lists(CHARACTER, min_size=1, max_size=3), st.data())
def test_shortlex_index_names_the_stray_letter_the_recurrence_meets(n, alphabet, strays, data):
    assume(not set(strays) & set(alphabet))
    letters = list(shortlex_word(n, alphabet))
    for stray in strays:
        letters.insert(data.draw(st.integers(0, len(letters))), stray)
    word = "".join(letters)
    with pytest.raises(ValueError) as expected:
        reference_shortlex_index(word, alphabet)
    with pytest.raises(ValueError) as got:
        shortlex_index(word, alphabet)
    assert str(got.value) == str(expected.value)
