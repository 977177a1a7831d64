"""Shared fixtures and helpers: checked-in machines, seeded random machines,
the mod-N letter counters, a brute-force word enumerator used as the oracle
for shortlex indexing, and Moore's refinement as the reference for
minimization."""

import itertools
import random
from pathlib import Path

import pytest

from autoseq import Dfa, Dfao, load
from autoseq.automata import _build, _observer, reachable_states

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
    splits nothing.  It shares with the library only the reachable states,
    the observation and the canonical naming of the result."""
    observe = _observer(machine)
    order = reachable_states(machine)
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

    return _build(type(machine), classes[machine.initial], alphabet, step, lambda cls: observe(reps[cls]))[0]


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
