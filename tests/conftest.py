"""Shared fixtures and helpers: checked-in machines, seeded random machines,
the mod-N letter counters, output machines with one index flipped, a
brute-force word enumerator used as the oracle for shortlex indexing, the
bijective base-2 recurrence as the reference for the closed-form shortlex
conversions, a reachability loop and Moore's refinement as the references
for minimization, and item-by-item structural checks as the reference for
validation and for building a machine from the ``trans`` rows of a file,
with the token rule tested one clause at a time."""

import itertools
import random
import re
from pathlib import Path

import pytest

from autoseq import Dfa, Dfao, FormatError, InvalidAutomatonError, load, to_digits
from autoseq.automata import _graph, _machine, _observer, _sorted

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def words_in_order(alphabet, count):
    """First ``count`` words by length, then alphabetically.

    Plain enumeration with itertools.product, deliberately independent of
    the arithmetic conversions in the package.
    """
    out = []
    length = 0
    while True:
        for letters in itertools.product(alphabet, repeat=length):
            if len(out) == count:
                return out
            out.append("".join(letters))
        length += 1


def reference_shortlex_word(n: int, alphabet=("a", "b")) -> str:
    """Reference for ``shortlex_word``: the bijective base-2 recurrence read
    backwards, one ``divmod`` per letter (word(2m+1) = word(m) + first
    letter, word(2m+2) = word(m) + second letter)."""
    first, second = alphabet
    letters = []
    while n:
        n, r = divmod(n - 1, 2)
        letters.append(first if r == 0 else second)
    return "".join(reversed(letters))


def reference_shortlex_index(word: str, alphabet=("a", "b")) -> int:
    """Reference for ``shortlex_index``: the same recurrence read forwards,
    one letter at a time, naming the first letter outside the alphabet."""
    first, second = alphabet
    n = 0
    for letter in word:
        if letter == first:
            n = 2 * n + 1
        elif letter == second:
            n = 2 * n + 2
        else:
            raise ValueError(f"letter {letter!r} is not in the alphabet {first + second!r}")
    return n


def random_dfa(rng: random.Random, max_states=6, alphabet=("a", "b")) -> Dfa:
    count = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(count))
    return Dfa(
        alphabet=tuple(alphabet),
        states=states,
        initial=states[0],
        accepting=frozenset(s for s in states if rng.random() < 0.5),
        transitions={
            (state, letter): states[rng.randrange(count)]
            for state in states
            for letter in alphabet
        },
    )


def random_dfao(rng: random.Random, max_states=6, alphabet=("0", "1"), letters=("0", "1")) -> Dfao:
    count = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(count))
    return Dfao(
        alphabet=tuple(alphabet),
        states=states,
        initial=states[0],
        transitions={
            (state, letter): states[rng.randrange(count)]
            for state in states
            for letter in alphabet
        },
        outputs={state: rng.choice(letters) for state in states},
    )


def mod_counter(modulus: int) -> Dfa:
    """Accepts the words whose count of ``a`` is 0 mod ``modulus``.  Its
    compiled machine reaches the bound of modulus**2 + 1 states, and no two
    of them merge."""
    states = tuple(f"c{r}" for r in range(modulus))
    transitions = {(states[r], "a"): states[(r + 1) % modulus] for r in range(modulus)}
    transitions.update({(state, "b"): state for state in states})
    return Dfa(("a", "b"), states, states[0], frozenset({states[0]}), transitions)


def flipped_at(machine: Dfao, index: int) -> Dfao:
    """``machine`` with its output flipped on the canonical numeral of
    ``index`` alone: each state also tracks how much of that numeral has
    been read, so only that numeral ends where the output flips."""
    numeral = to_digits(index, 2)

    def step(node, digit):
        state, read = node
        spelled = read is not None and read < len(numeral) and numeral[read] == digit
        return machine.transitions[state, digit], read + 1 if spelled else None

    def observe(node):
        letter = machine.outputs[node[0]]
        return {"0": "1", "1": "0"}[letter] if node[1] == len(numeral) else letter

    order, succ = _graph((machine.initial, 0), machine.alphabet, step)
    return _machine(Dfao, machine.alphabet, succ, list(map(observe, order)))


def reachable(machine):
    """States reachable from the initial state, breadth-first with letters
    in alphabet order, found by a loop of its own."""
    order = [machine.initial]
    seen = set(order)
    for state in order:
        for letter in machine.alphabet:
            target = machine.transitions[state, letter]
            if target not in seen:
                seen.add(target)
                order.append(target)
    return order


def _index_by(order, key):
    ids = {}
    out = {}
    for item in order:
        k = key(item)
        if k not in ids:
            ids[k] = len(ids)
        out[item] = ids[k]
    return out


def moore_minimize(machine):
    """Reference for ``minimize`` and ``minimize_dfao``: Moore's partition
    refinement, which splits by the observation and then re-keys every
    reachable state by its class and its successors' classes until a round
    splits nothing.  It finds the reachable states with its own loop and
    shares with the library only the observation and the canonical naming
    of the result, ``_graph`` and ``_machine`` over its classes."""
    observe = _observer(machine)
    order = reachable(machine)
    alphabet = machine.alphabet
    delta = machine.transitions
    classes = _index_by(order, observe)
    while True:
        refined = _index_by(
            order, lambda s: (classes[s], *(classes[delta[s, a]] for a in alphabet))
        )
        stable = len(set(refined.values())) == len(set(classes.values()))
        classes = refined
        if stable:
            break
    reps = {}
    for state in order:
        reps.setdefault(classes[state], state)

    def step(cls, letter):
        return classes[delta[reps[cls], letter]]

    walked, succ = _graph(classes[machine.initial], alphabet, step)
    return _machine(type(machine), alphabet, succ, [observe(reps[cls]) for cls in walked])


def reference_token_problem(kind, value):
    """Reference for ``_token_problem``: each way a value can fail to be a
    token tested on its own."""
    if (
        not isinstance(value, str)
        or not value
        or len(value.split()) != 1
        or value != value.strip()
        or "#" in value
        or "=" in value
    ):
        return f"{kind} {value!r} must be a nonempty token without whitespace, '#' or '='"
    return None


def _reference_id_problems(ids, kind, plural):
    problems = [] if ids else [f"no {plural} declared"]
    seen = set()
    for name in ids:
        bad = reference_token_problem(kind, name)
        if bad:
            problems.append(bad)
        elif name in seen:
            problems.append(f"duplicate {kind} {name!r}")
        seen.add(name)
    return problems


def _reference_label_problems(labels, ids, what, owner):
    problems = []
    declared = set(ids)
    for name, letter in _sorted(labels.items()):
        if name not in declared:
            problems.append(f"{what} for undeclared {owner} {name!r}")
        bad = reference_token_problem(f"{what} letter", letter)
        if bad:
            problems.append(bad)
    for name in ids:
        if name not in labels:
            problems.append(f"no {what} letter for {owner} {name!r}")
    return problems


def reference_validate(machine):
    """Reference for ``validate``: every id, label, accepting state and
    transition read one at a time, each problem worded as it is met."""
    problems = []
    alphabet = tuple(machine.alphabet)
    states = tuple(machine.states)

    if not alphabet:
        problems.append("alphabet is empty")
    seen = set()
    for letter in alphabet:
        if not isinstance(letter, str) or len(letter) != 1 or letter.isspace() or letter in "#=":
            problems.append(f"alphabet letter {letter!r} must be a single plain character")
        elif letter in seen:
            problems.append(f"duplicate alphabet letter {letter!r}")
        seen.add(letter)

    problems += _reference_id_problems(states, "state id", "states")
    declared = set(states)
    letters = set(alphabet)
    if machine.initial not in declared:
        problems.append(f"initial state {machine.initial!r} is not declared")

    accepting = getattr(machine, "accepting", None)
    if accepting is not None:
        for state in _sorted(accepting):
            if state not in declared:
                problems.append(f"accepting state {state!r} is not declared")

    for (state, letter), target in _sorted(machine.transitions.items()):
        if state not in declared:
            problems.append(f"transition from undeclared state {state!r}")
        elif letter not in letters:
            problems.append(f"transition on unknown letter {letter!r} from state {state!r}")
        if target not in declared:
            problems.append(f"transition target {target!r} is not declared (from {state!r} on {letter!r})")
    for state in states:
        for letter in alphabet:
            if (state, letter) not in machine.transitions:
                problems.append(f"missing transition ({state!r}, {letter!r})")

    outputs = getattr(machine, "outputs", None)
    if outputs is not None:
        problems += _reference_label_problems(outputs, states, "output", "state")
    return problems


def reference_tag_problems(system):
    """Reference for ``TagSystem._problems``, read one rule and one image
    symbol at a time."""
    problems = []
    if not isinstance(system.modulus, int) or system.modulus < 2:
        problems.append(f"modulus must be an integer >= 2, got {system.modulus!r}")
    problems += _reference_id_problems(system.symbols, "symbol", "symbols")
    declared = set(system.symbols)
    if system.start not in declared:
        problems.append(f"start symbol {system.start!r} is not declared")

    for symbol, image in _sorted(system.rules.items()):
        if symbol not in declared:
            problems.append(f"rule for undeclared symbol {symbol!r}")
        if isinstance(system.modulus, int) and len(image) != system.modulus:
            problems.append(f"rule for {symbol!r} has length {len(image)}, expected {system.modulus}")
        for target in image:
            if target not in declared:
                problems.append(f"rule for {symbol!r} uses undeclared symbol {target!r}")
    for symbol in system.symbols:
        if symbol not in system.rules:
            problems.append(f"no rule for symbol {symbol!r}")

    problems += _reference_label_problems(system.coding, system.symbols, "coding", "symbol")

    if not problems and system.rules[system.start][0] != system.start:
        problems.append(
            f"rule for the start symbol must begin with the start symbol, "
            f"got {system.start!r} -> {' '.join(system.rules[system.start])!r}"
        )
    return problems


def reference_automaton(cls, fields, _transitions, _trans_rows, text, source):
    """Reference for building a machine of ``cls`` from a file's other
    ``fields`` and the ``trans`` rows of its ``text``, which it splits into
    lines and tokens itself (the map and the row count that ``parse``
    gathered go unused): each row read in file order, raising at the first
    one that names an undeclared state or letter or repeats a (state,
    letter) pair, and only then the constructor, whose problems name the
    file but no line."""
    declared, letters = set(fields["states"]), set(fields["alphabet"])
    transitions = {}
    for lineno, line in enumerate(re.split("\r\n|\r|\n", text), 1):
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] != ["trans"]:
            continue
        _, state, letter, target = tokens
        for name in (state, target):
            if name not in declared:
                raise FormatError(f"undeclared state {name!r}", source, lineno)
        if letter not in letters:
            raise FormatError(f"undeclared letter {letter!r}", source, lineno)
        if (state, letter) in transitions:
            raise FormatError(f"duplicate transition for ({state!r}, {letter!r})", source, lineno)
        transitions[state, letter] = target
    try:
        return cls(transitions=transitions, **fields)
    except InvalidAutomatonError as exc:
        raise FormatError(str(exc), source) from exc


@pytest.fixture(scope="session")
def no_bb() -> Dfa:
    return load(MACHINES / "no_bb.aut")


@pytest.fixture(scope="session")
def thue_morse() -> Dfao:
    return load(MACHINES / "thue_morse.aut")


@pytest.fixture(scope="session")
def paperfold() -> Dfao:
    return load(MACHINES / "paperfold.aut")


@pytest.fixture(scope="session")
def no_bb_ones() -> Dfa:
    return load(MACHINES / "no_bb_ones.aut")


@pytest.fixture(scope="session")
def no_bb_zeros() -> Dfa:
    return load(MACHINES / "no_bb_zeros.aut")


@pytest.fixture(scope="session")
def no_bb_fao() -> Dfao:
    return load(MACHINES / "no_bb_fao.aut")


@pytest.fixture(scope="session")
def no_bb_tag():
    return load(MACHINES / "no_bb.tag")


# First 25 bits of the no-bb characteristic sequence, frozen by hand from
# the word list: the n-th shortlex word over a, b is checked for a "bb"
# factor (index 6 is bb, 10 is abb, 13 is bba, 14 is bbb, ...).
NO_BB_PREFIX = [1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1]

# Thue-Morse: bit-count parity of n, for n < 25.
THUE_MORSE_PREFIX = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0]

# Regular paperfolding values for n < 24.
PAPERFOLD_PREFIX = [1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0]
