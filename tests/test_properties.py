"""Property-based checks on generated machines: the file format round-trips,
parsing fails only with FormatError, minimization is canonical and agrees
with Moore's refinement, compile and split give the machines their
definitions build, split-then-glue gives back the compiled machine, and a
line rendered from subtree blocks is the joined unfolding."""

from hypothesis import given, settings
from hypothesis import strategies as st

from autoseq import (
    Dfa,
    Dfao,
    FormatError,
    TagSystem,
    canonical_recognizer,
    compile_dfa,
    dfao_equivalent,
    dump,
    equivalent,
    glue,
    intersection,
    minimize,
    minimize_dfao,
    parse,
    split_dfa,
)
from autoseq.tagsystem import _render, _unfold
from conftest import moore_minimize

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
