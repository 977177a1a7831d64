"""Complete deterministic finite automata, with and without per-state output.

Machines are frozen dataclasses over string state ids and single-character
letters.  Construction validates the whole structure once (including totality
of the transition and output maps); after that every operation in this module
is a pure function returning fresh machines, so values can be shared freely.
Validation builds each record's id sets once and hands them to every check;
each tests its field whole with set operations, and only a field that fails
is read item by item, which words its problems one by one in a fixed order.

A Dfa is a Dfao whose output is "accepting or not": both are one record
but for that field.  The algorithms see a state only through its
observation (acceptance for a Dfa, the output letter for a Dfao), so each
exists once for both kinds, and so do the public names: ``minimize_dfao``,
``dfao_counterexample`` and ``dfao_equivalent`` are ``minimize``,
``counterexample`` and ``equivalent`` under a second name.

Constructions share one representation, the successor-index table: with k
letters, ``succ[i * k + j]`` is the successor of node i under letter j.
One breadth-first walk turns an implicit graph (the pair products of the
boolean operations, the compiler and glue) into a table, stepping once per
node and letter; a machine already built reads its table off in declared
state order.  A table becomes a machine in two ways: ``_machine`` names
node i ``qi`` in walk order, and ``_quotient`` names the minimal machine's
classes.  It is ``_refine``, Hopcroft's refinement (Hopcroft 1971; Valmari
& Lehtinen 2008), which finds them in O(k n log n) for n nodes, followed
by ``_name_classes``, which numbers them breadth-first from the initial
one, so they depend neither on the refinement nor on declared state order.
The naming step takes any stable partition, which lets ``split`` name two
partitions, one per recognizer, from one refinement.
Searches run the same walk and stop at the first node they look for; its
shortlex-least word is read off the table filled so far, which gives
shortest accepted words and shortest counterexamples.  Equivalence checks
are exact: they walk the product automaton and either prove the machines
equal or return a shortest word witnessing the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress, product
from typing import Callable, Hashable, Mapping


class _ProblemsError(ValueError):
    """A record failed validation; ``problems`` lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class InvalidAutomatonError(_ProblemsError):
    """Structural validation failed; ``problems`` lists every violation."""


class _MachineError(ValueError):
    """``machine`` does not suit the operation it was handed to; the CLI
    names the file it came from."""

    def __init__(self, machine, message: str):
        self.machine = machine
        super().__init__(message)


class _AlphabetError(_MachineError):
    """``machine`` is not over the alphabet that an operation ``needs``."""

    def __init__(self, machine, needs: str):
        super().__init__(machine, f"{needs}, got {' '.join(machine.alphabet)!r}")


_CASTS = {"alphabet": tuple, "states": tuple, "accepting": frozenset, "transitions": dict, "outputs": dict}


@dataclass(frozen=True)
class _Automaton:
    """What :class:`Dfa` and :class:`Dfao` share: the fields before their
    observation, and construction that normalizes and validates every field."""

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str

    def __post_init__(self):
        for name, cast in _CASTS.items():
            if name in self.__dataclass_fields__:
                object.__setattr__(self, name, cast(getattr(self, name)))
        problems = validate(self)
        if problems:
            raise InvalidAutomatonError(problems)


@dataclass(frozen=True)
class Dfa(_Automaton):
    """Complete deterministic finite automaton.

    ``transitions`` must map every ``(state, letter)`` pair to a state;
    partial maps are rejected outright rather than patched with an implicit
    dead state.
    """

    accepting: frozenset[str]
    transitions: Mapping[tuple[str, str], str]


@dataclass(frozen=True)
class Dfao(_Automaton):
    """Complete deterministic automaton with an output letter per state.

    The word ``w`` is mapped to ``outputs[run(self, w)]``; acceptance plays
    no role.
    """

    transitions: Mapping[tuple[str, str], str]
    outputs: Mapping[str, str]


Machine = Dfa | Dfao


def _token_problem(kind: str, value) -> str | None:
    if not isinstance(value, str) or value.split() != [value] or "#" in value or "=" in value:
        return f"{kind} {value!r} must be a nonempty token without whitespace, '#' or '='"
    return None


def _all_tokens(values) -> bool:
    """Whether :func:`_token_problem` passes every value, tested on their
    joined text at once: it splits back into exactly the values when each is
    a nonempty string without whitespace."""
    values = list(values)
    try:
        text = " ".join(values)
    except TypeError:
        return False
    return "#" not in text and "=" not in text and text.split() == values


def _sorted(items) -> list:
    """``items`` in order, or in ``repr`` order when they mix types that do
    not compare, so that problem reports never fail on malformed input."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def _id_problems(ids, declared: set, kind: str, plural: str) -> list[str]:
    """Problems with the ids whose set is ``declared``: none at all, bad tokens, duplicates."""
    if ids and _all_tokens(ids) and len(declared) == len(ids):
        return []
    problems = [] if ids else [f"no {plural} declared"]
    seen = set()
    for name in ids:
        bad = _token_problem(kind, name)
        if bad:
            problems.append(bad)
        elif name in seen:
            problems.append(f"duplicate {kind} {name!r}")
        seen.add(name)
    return problems


def _label_problems(labels: Mapping, ids, declared: set, what: str, owner: str) -> list[str]:
    """Problems with a letter per id: undeclared ids, bad letters, missing ids."""
    if labels.keys() == declared and _all_tokens(labels.values()):
        return []
    problems = []
    for name, letter in _sorted(labels.items()):
        if name not in declared:
            problems.append(f"{what} for undeclared {owner} {name!r}")
        bad = _token_problem(f"{what} letter", letter)
        if bad:
            problems.append(bad)
    for name in ids:
        if name not in labels:
            problems.append(f"no {what} letter for {owner} {name!r}")
    return problems


def _transition_problems(transitions: Mapping, states, alphabet, declared: set, letters: set) -> list[str]:
    """Problems with the transition map: undeclared sources, letters and
    targets, missing pairs.  With distinct states and letters, a map of
    |states| * |alphabet| entries that holds every pair has no other key."""
    if (
        len(transitions) == len(declared) * len(letters) == len(states) * len(alphabet)
        and all(map(transitions.__contains__, product(states, alphabet)))
        and declared.issuperset(transitions.values())
    ):
        return []
    problems = []
    for (state, letter), target in _sorted(transitions.items()):
        if state not in declared:
            problems.append(f"transition from undeclared state {state!r}")
        elif letter not in letters:
            problems.append(f"transition on unknown letter {letter!r} from state {state!r}")
        if target not in declared:
            problems.append(f"transition target {target!r} is not declared (from {state!r} on {letter!r})")
    for state in states:
        for letter in alphabet:
            if (state, letter) not in transitions:
                problems.append(f"missing transition ({state!r}, {letter!r})")
    return problems


def validate(machine: Machine) -> list[str]:
    """Every structural problem with the machine (empty list when sound)."""
    problems = []
    alphabet, states = machine.alphabet, machine.states
    letters, declared = set(alphabet), set(states)

    if not alphabet:
        problems.append("alphabet is empty")
    seen = set()
    for letter in alphabet:
        if not isinstance(letter, str) or len(letter) != 1 or letter.isspace() or letter in "#=":
            problems.append(f"alphabet letter {letter!r} must be a single plain character")
        elif letter in seen:
            problems.append(f"duplicate alphabet letter {letter!r}")
        seen.add(letter)

    problems += _id_problems(states, declared, "state id", "states")
    if machine.initial not in declared:
        problems.append(f"initial state {machine.initial!r} is not declared")

    accepting = getattr(machine, "accepting", None)
    if accepting is not None and not declared.issuperset(accepting):
        for state in _sorted(accepting):
            if state not in declared:
                problems.append(f"accepting state {state!r} is not declared")

    problems += _transition_problems(machine.transitions, states, alphabet, declared, letters)

    outputs = getattr(machine, "outputs", None)
    if outputs is not None:
        problems += _label_problems(outputs, states, declared, "output", "state")
    return problems


def run(machine: Machine, word: str) -> str:
    """State reached from the initial state after reading ``word``."""
    state = machine.initial
    delta = machine.transitions
    try:
        for letter in word:
            state = delta[state, letter]
    except KeyError:
        raise ValueError(
            f"letter {letter!r} is not in the alphabet {' '.join(machine.alphabet)!r}"
        ) from None
    return state


def accepts(dfa: Dfa, word: str) -> bool:
    return run(dfa, word) in dfa.accepting


def output(dfao: Dfao, word: str) -> str:
    return dfao.outputs[run(dfao, word)]


def _walk(start: Hashable, alphabet, step, succ: list):
    """Nodes reachable from ``start`` under ``step``, breadth-first with
    letters in alphabet order.  ``start`` is node 0 and each new node takes
    the next index; for each node, in turn, ``succ`` gets the index of its
    successor under each letter, so ``succ[i * k + j]`` is node i's under
    letter j for k letters.  ``step`` runs once per node and letter, and
    node i is yielded before its successors are found."""
    index = {start: 0}
    order = [start]
    for node in order:
        yield node
        for letter in alphabet:
            nxt = step(node, letter)
            i = index.setdefault(nxt, len(order))
            if i == len(order):
                order.append(nxt)
            succ.append(i)


def _words(succ: list[int], alphabet, nodes) -> list[str]:
    """The shortlex-least words that lead :func:`_walk` to ``nodes``, read
    off the table it filled.  The first entry of ``succ`` that names a node
    is the edge that found it, and new nodes are named in order, so one
    pass over ``succ`` finds every such edge; following them back to node 0
    spells each word."""
    k = len(alphabet)
    parent, letter = [None], [None]
    for edge, i in enumerate(succ):
        if i == len(parent):
            parent.append(edge // k)
            letter.append(alphabet[edge % k])
    words = []
    for node in nodes:
        letters = []
        while node:
            letters.append(letter[node])
            node = parent[node]
        words.append("".join(reversed(letters)))
    return words


def _observer(machine: Machine) -> Callable[[str], Hashable]:
    """What a state shows the outside: acceptance for a :class:`Dfa`, the
    output letter for a :class:`Dfao`.  Two states are told apart exactly
    when some word leads them to different observations."""
    if isinstance(machine, Dfa):
        return machine.accepting.__contains__
    return machine.outputs.__getitem__


def _graph(start: Hashable, alphabet, step) -> tuple[list, list[int]]:
    """The nodes reachable from ``start`` under ``step`` in :func:`_walk`
    order, and the successor-index table that the walk fills."""
    succ: list[int] = []
    return list(_walk(start, alphabet, step, succ)), succ


def _machine(kind: type, alphabet, succ: list[int], observed: list) -> Machine:
    """Machine of ``kind`` on the successor-index table ``succ`` over
    ``alphabet``: node ``i`` is state ``q{i}``, node 0 is initial, and each
    state observes ``observed[i]``, as acceptance or as output letter."""
    states = tuple([f"q{i}" for i in range(len(observed))])
    transitions = dict(zip(product(states, alphabet), map(states.__getitem__, succ)))
    if kind is Dfa:
        return Dfa(alphabet, states, states[0], frozenset(compress(states, observed)), transitions)
    return Dfao(alphabet, states, states[0], transitions, dict(zip(states, observed)))


def _refine(succ: list[int], k: int, observed: list) -> list[int]:
    """Block number of each of the ``len(observed)`` nodes in the coarsest
    partition that respects ``observed`` and is stable under every letter;
    ``succ[i * k + j]`` is the successor of node ``i`` under letter ``j``.

    The states of each block sit in one slice ``elems[first[b]:end[b]]``,
    and those marked by the current splitter are swapped to its front, up
    to ``mid[b]``.  When a block splits, its smaller part becomes a new
    block, which is always queued as a splitter, while the larger part keeps
    the old number and with it any place in the queue (Hopcroft's rule): a
    waiting block then waits in both parts, and otherwise the smaller part
    suffices.  So each state is handed over as a splitter O(log n) times,
    and the whole refinement costs O(k n log n) for n states and k letters.
    """
    n = len(observed)
    preds = [[[] for _ in range(n)] for _ in range(k)]
    for j, into in enumerate(preds):
        for i, target in enumerate(succ[j::k]):
            into[target].append(i)

    buckets: dict = {}
    for i, seen in enumerate(observed):
        buckets.setdefault(seen, []).append(i)
    block = [0] * n
    elems, first, end = [], [], []
    for b, members in enumerate(buckets.values()):
        first.append(len(elems))
        elems += members
        end.append(len(elems))
        for i in members:
            block[i] = b
    loc = [0] * n
    for pos, i in enumerate(elems):
        loc[i] = pos
    mid = first[:]
    # Stability under all blocks but one implies stability under the last.
    largest = max(range(len(first)), key=lambda b: end[b] - first[b])
    pending = [b for b in range(len(first)) if b != largest]

    while pending:
        splitter = pending.pop()
        members = elems[first[splitter]:end[splitter]]
        for into in preds:
            touched = []
            for target in members:
                for i in into[target]:
                    b = block[i]
                    m = mid[b]
                    if m == first[b]:
                        touched.append(b)
                    pos = loc[i]
                    other = elems[m]
                    elems[pos], loc[other] = other, pos
                    elems[m], loc[i] = i, m
                    mid[b] = m + 1
            for b in touched:
                m = mid[b]
                if m == end[b]:
                    mid[b] = first[b]
                    continue
                # The smaller of the marked front and the rest becomes a new block.
                new = len(first)
                if m - first[b] <= end[b] - m:
                    first.append(first[b])
                    end.append(m)
                    first[b] = m
                else:
                    first.append(m)
                    end.append(end[b])
                    end[b] = m
                mid.append(first[new])
                mid[b] = first[b]
                for pos in range(first[new], end[new]):
                    block[elems[pos]] = new
                pending.append(new)
    return block


def _name_classes(kind: type, alphabet, succ: list[int], start: int, observed: list, block: list[int]) -> Machine:
    """Machine of ``kind`` on the classes ``block`` of the successor-index
    table ``succ`` over ``alphabet`` from node ``start``, where node ``i`` is
    in class ``block[i]`` and observes ``observed[i]``.  The classes must be
    stable: all members of one agree on observation and on the classes of
    their successors.  They are numbered breadth-first from the class of
    ``start`` on the table itself, dropping those it does not reach, so the
    result depends only on the partition, not on how its classes are
    numbered.  The first node met in a class stands for it."""
    k = len(alphabet)
    number = {block[start]: 0}
    members = [start]
    table = []
    for i in members:
        for target in succ[i * k:i * k + k]:
            c = number.setdefault(block[target], len(members))
            if c == len(members):
                members.append(target)
            table.append(c)
    return _machine(kind, alphabet, table, [observed[i] for i in members])


def _quotient(kind: type, alphabet, succ: list[int], start: int, observed: list) -> Machine:
    """Minimal machine of ``kind`` for the successor-index table ``succ``
    over ``alphabet`` from node ``start``, where node ``i`` observes
    ``observed[i]``: the classes that :func:`_refine` finds, named by
    :func:`_name_classes`, so the result depends only on what the graph
    observes."""
    return _name_classes(kind, alphabet, succ, start, observed, _refine(succ, len(alphabet), observed))


def _table(machine: Machine) -> list[int]:
    """The successor-index table of ``machine`` in declared state order."""
    index = {state: i for i, state in enumerate(machine.states)}
    edges = product(machine.states, machine.alphabet)
    return list(map(index.__getitem__, map(machine.transitions.__getitem__, edges)))


def minimize(dfa: Machine) -> Machine:
    """Equivalent machine with no unreachable and no equivalent states: the
    :func:`_quotient` of its whole table from the initial state.  States are
    told apart by what they observe, acceptance for a :class:`Dfa` and the
    output letter for a :class:`Dfao`; ``minimize_dfao`` is this function.

    The result is canonical for what the machine observes up to naming, and
    the names themselves are fixed by breadth-first discovery order, so equal
    inputs always produce byte-identical results.
    """
    observed = list(map(_observer(dfa), dfa.states))
    start = dfa.states.index(dfa.initial)
    return _quotient(type(dfa), dfa.alphabet, _table(dfa), start, observed)


minimize_dfao = minimize


def _shortest(start: Hashable, alphabet, step, hit: Callable) -> str | None:
    """Shortest word leading from ``start`` under ``step`` to a node where
    ``hit`` holds, or None; ties go to the alphabetically first word."""
    succ: list[int] = []
    for i, node in enumerate(_walk(start, alphabet, step, succ)):
        if hit(node):
            return _words(succ, alphabet, [i])[0]
    return None


def _pairs(m1: Machine, m2: Machine):
    """Start pair, alphabet and step function of the product of two machines."""
    if tuple(m1.alphabet) != tuple(m2.alphabet):
        raise ValueError(
            f"alphabet mismatch: {' '.join(m1.alphabet)!r} vs {' '.join(m2.alphabet)!r}"
        )
    t1, t2 = m1.transitions, m2.transitions
    return (m1.initial, m2.initial), m1.alphabet, lambda pair, a: (t1[pair[0], a], t2[pair[1], a])


def counterexample(d1: Machine, d2: Machine) -> str | None:
    """Shortest word after which the two machines observe differently, or
    None: accepted by exactly one of two DFAs, or mapped to different output
    letters by two DFAOs.  ``dfao_counterexample`` is this function.

    Breadth-first search of the product automaton, so the answer is exact;
    no sampling is involved.
    """
    o1, o2 = _observer(d1), _observer(d2)
    return _shortest(*_pairs(d1, d2), lambda pair: o1(pair[0]) != o2(pair[1]))


def equivalent(d1: Machine, d2: Machine) -> bool:
    """Whether the two machines observe the same on every word; exact, as
    :func:`counterexample`.  ``dfao_equivalent`` is this function."""
    return counterexample(d1, d2) is None


dfao_counterexample = counterexample
dfao_equivalent = equivalent


def _product(m1: Machine, m2: Machine, keep: Callable[[Hashable, Hashable], bool]) -> Dfa:
    """DFA on the reachable state pairs, accepting where ``keep`` holds for
    the observations of the two machines."""
    o1, o2 = _observer(m1), _observer(m2)
    order, succ = _graph(*_pairs(m1, m2))
    return _machine(Dfa, m1.alphabet, succ, [keep(o1(s1), o2(s2)) for s1, s2 in order])


def intersection(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda x, y: x and y)


def union(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda x, y: x or y)


def difference(d1: Dfa, d2: Dfa) -> Dfa:
    return _product(d1, d2, lambda x, y: x and not y)


def complement(dfa: Dfa) -> Dfa:
    return replace(dfa, accepting=frozenset(dfa.states) - dfa.accepting)


def shortest_accepted(dfa: Dfa) -> str | None:
    """Shortest accepted word, or None for the empty language."""
    delta = dfa.transitions
    return _shortest(dfa.initial, dfa.alphabet, lambda s, a: delta[s, a], _observer(dfa))


def is_empty(dfa: Dfa) -> bool:
    return shortest_accepted(dfa) is None
