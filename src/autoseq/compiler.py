"""Compile a two-letter recognizer into a base-2 automaton with output.

The compiled machine reads the binary numeral of n (most significant digit
first, leading zeros allowed) and outputs the n-th bit of the recognizer's
characteristic sequence under shortlex order.  The construction tracks, in
each state, the pair of recognizer states reached on the current shortlex
word and on its predecessor: appending the digit 1 to the numeral of n
yields 2n+1, whose word extends word(n) by the first letter, while the
digit 0 yields 2n, whose word extends word(n-1) by the second letter.  The
start pair is (s(0), s(-1)): at n = -1 the recurrence reads word(-1)·a =
word(-1) and word(-1)·b = word(0), so a virtual state s(-1) loops on a and
enters the initial state on b, and the start pair loops on the digit 0.

The module also goes the other way around: ``split_dfa`` cuts that loop to
separate the numerals of the 1-positions from those of the 0-positions,
and ``glue`` closes it to reassemble an output machine from the two.  Cut,
the loop leaves the start node and an added dead node outside a closed
subgraph where every node outputs 0 or 1, so there a node's 1-residual is
the complement of its 0-residual: one refinement of the pair graph gives
both recognizers, once those two nodes are placed for each.
"""

from __future__ import annotations

from itertools import compress, count as indices
from operator import ne

from . import automata
from .automata import Dfa, Dfao, _AlphabetError, _graph, _machine, _need_recognizers, _quotient, _table, _words
from .automata import minimize as _minimal
from .charseq import _bits_line, char_seq
from .numeration import _check_natural
from .tagsystem import _digit_table, _render

_BINARY = ("0", "1")


def _pair_graph(dfa: Dfa):
    """The compiler's pair graph, walked by :func:`_graph` from its start
    node (s(0), s(-1)) over pairs of indices into ``dfa.states``, with
    successors read off :func:`_table`.  The virtual s(-1) is index |Q|:
    word(-1)·a = word(-1) and word(-1)·b = word(0), so a keeps it in place
    and b leads to the initial state.  Returns the nodes in walk order, the
    successor-index table over the digits and each node's output letter."""
    if tuple(dfa.alphabet) != ("a", "b"):
        raise _AlphabetError(dfa, "the compiler expects the alphabet 'a b' in that order")
    table, n = _table(dfa), len(dfa.states)
    start = dfa.states.index(dfa.initial)
    on_a, on_b = [*table[0::2], n], [*table[1::2], start]

    def step(raw, digit):
        on_n, on_prev = raw
        if digit == "1":
            return (on_a[on_n], on_b[on_prev])
        return (on_b[on_prev], on_a[on_prev])

    order, succ = _graph((start, n), _BINARY, step)
    bit = ["1" if state in dfa.accepting else "0" for state in dfa.states]
    return order, succ, [bit[on_n] for on_n, _ in order]


def compile_dfa_with_pairs(dfa: Dfa) -> tuple[Dfao, dict[str, tuple[str, str] | None]]:
    """Unminimized compilation, keeping the bookkeeping visible.

    Returns the compiled machine plus a map from each of its state names to
    the tracked pair (state on word(n), state on word(n-1)), named back from
    the pair graph's indices.  At most |Q|**2 + 1 states are created.  The
    leading-zeros state's node is the ordinary pair (s(0), s(-1)); the map
    gives it None, for compatibility.
    """
    _need_recognizers("compile_dfa_with_pairs", dfa)
    order, succ, outputs = _pair_graph(dfa)
    compiled = _machine(Dfao, _BINARY, succ, outputs)
    return compiled, dict(zip(compiled.states, [None, *[(dfa.states[q], dfa.states[p]) for q, p in order[1:]]]))


def compile_dfa(dfa: Dfa, minimize: bool = True) -> Dfao:
    """Base-2 output machine computing the characteristic sequence of L(dfa)."""
    _need_recognizers("compile_dfa", dfa)
    compiled, _ = compile_dfa_with_pairs(dfa)
    return _minimal(compiled) if minimize else compiled


def canonical_recognizer() -> Dfa:
    """DFA over the digits 0, 1 accepting exactly the canonical numerals:
    the empty word and every word starting with 1."""
    return Dfa(
        alphabet=_BINARY,
        states=("start", "one", "junk"),
        initial="start",
        accepting=frozenset({"start", "one"}),
        transitions={
            ("start", "0"): "junk",
            ("start", "1"): "one",
            ("one", "0"): "one",
            ("one", "1"): "one",
            ("junk", "0"): "junk",
            ("junk", "1"): "junk",
        },
    )


def split_dfa(dfa: Dfa) -> tuple[Dfa, Dfa]:
    """Minimal recognizers for the canonical numerals of the 1-positions and
    the 0-positions of the characteristic sequence of L(dfa).

    Both are quotients of the compiler's pair graph with the loop that
    :func:`glue` closes cut: the start node's digit 0 leads to an added dead
    node, so only canonical numerals reach the pairs.  Each is the product
    with :func:`canonical_recognizer`, minimized.

    One refinement, with the observations output 0, output 1 and dead,
    serves both, because only the start and the dead node can differ
    between the two quotients:

    - s(-1) never recurs, so the start node is reached only by its own
      digit-0 loop, which the cut redirects to the dead node;
    - the other nodes therefore form a closed subgraph, and each of them
      outputs 0 or 1, so there a node's 1-residual is the complement of its
      0-residual, and both quotients equal the refinement on those nodes;
    - placing the start or the dead node changes no successor class of the
      other nodes, so no other merge follows.

    For letter l, the dead node joins sink(l), the class that loops to
    itself on both digits and outputs the other letter, if there is one.
    The start node then joins the class, if any, that outputs l exactly
    when it does, whose digit 0 leads into sink(l) and whose digit 1 leads
    into the class of the start node's digit-1 successor.  No two classes
    of the refinement are equivalent, so each is found at most once.  With
    no sink, both recognizers are the refinement itself, numbered once.
    """
    _need_recognizers("split_dfa", dfa)
    order, succ, outputs = _pair_graph(dfa)
    n = len(order)
    succ = [n, *succ[1:], n, n]
    # _refine and _name_classes are called through their module, so that
    # a patched one sees the call.
    block = automata._refine(succ, 2, [*outputs, None])
    on = block.__getitem__
    # Each class by its output and its successors' classes, which no two
    # share; the dead node, which has no output, is left out.
    class_of = {(out, c0, c1): c for out, c, c0, c1 in zip(outputs, block, map(on, succ[0::2]), map(on, succ[1::2]))}
    sinks = {out: c for (out, c0, c1), c in class_of.items() if c0 == c1 == c}
    observations = [[*map(letter.__eq__, outputs), False] for letter in "10"]
    if not sinks:
        return tuple(automata._name_classes(Dfa, _BINARY, succ, 0, block, *observations))
    machines = []
    for observed, other in zip(observations, "01"):
        placed = block
        if other in sinks:
            sink = sinks[other]
            placed = [class_of.get((outputs[0], sink, block[succ[1]]), block[0]), *block[1:n], sink]
        machines += automata._name_classes(Dfa, _BINARY, succ, 0, placed, observed)
    return tuple(machines)


class PartitionError(ValueError):
    """The two languages handed to :func:`glue` do not split the canonical
    numerals: they overlap, miss one, or contain a non-canonical word.
    ``witness`` is a shortest offending word."""

    _DETAILS = {
        "overlap": "both languages contain",
        "uncovered": "neither language contains the canonical numeral",
        "noncanonical": "a non-canonical word is included:",
    }

    def __init__(self, reason: str, witness: str):
        self.reason = reason
        self.witness = witness
        shown = witness if witness else "the empty word"
        super().__init__(f"not a partition of the canonical numerals: {self._DETAILS[reason]} {shown!r}")


def glue(ones: Dfa, zeros: Dfa) -> Dfao:
    """Reassemble an output machine from the recognizers of the 1-positions
    and the 0-positions.

    Both inputs must read the digits 0, 1 and their languages must split
    the canonical numerals exactly.  One breadth-first walk over ones x
    zeros x canonical numerals decides that and fills the successor table;
    when the split fails, :class:`PartitionError` reports the first reason
    in ``_DETAILS`` order, with its shortest witness read off the table.
    Otherwise node 0's digit 0 is turned into a self-loop, so that leading
    zeros leave the machine in place and the nodes only they reached drop
    out, and each node outputs which side accepts there.
    """
    for machine in (ones, zeros):
        if tuple(machine.alphabet) != _BINARY:
            raise _AlphabetError(machine, "glue expects machines over the digits '0 1'")

    machines = (ones, zeros, canonical_recognizer())
    t1, t2, t3 = (m.transitions for m in machines)
    a1, a2, a3 = (m.accepting for m in machines)

    def step(states, digit):
        s1, s2, s3 = states
        return (t1[s1, digit], t2[s2, digit], t3[s3, digit])

    order, succ = _graph(tuple(m.initial for m in machines), _BINARY, step)
    found: dict = {}
    observed = []
    for i, (s1, s2, s3) in enumerate(order):
        in_ones, in_zeros, canonical = s1 in a1, s2 in a2, s3 in a3
        # An overlap can come with a non-canonical word, and it outranks it.
        if in_ones and in_zeros:
            found.setdefault("overlap", i)
        elif canonical != (in_ones or in_zeros):
            found.setdefault("uncovered" if canonical else "noncanonical", i)
        observed.append("1" if in_ones else "0")
    for reason in PartitionError._DETAILS:
        if reason in found:
            raise PartitionError(reason, _words(succ, _BINARY, [found[reason]])[0])
    succ[0] = 0
    return _quotient(Dfao, _BINARY, succ, 0, observed)


def first_mismatch(dfa: Dfa, count: int) -> int | None:
    """Index of the first disagreement between the compiled machine and the
    word-by-word characteristic sequence, or None if the first ``count``
    entries agree.

    Both sides are rendered as the lines ``run`` and ``seq`` print: the
    compiled machine's through ``_render``, the oracle's through
    ``_bits_line`` of :func:`char_seq`'s bits.  One string compare decides
    agreement.  Both lines hold one-character terms separated by single
    spaces, so term n is character 2n, and only when the lines differ are
    their even characters compared to locate the first differing index.
    """
    _need_recognizers("first_mismatch", dfa)
    _check_natural("count", count)
    compiled = compile_dfa(dfa)
    got = _render(_digit_table(compiled), compiled.initial, count, compiled.outputs)
    want = _bits_line(char_seq(dfa, count))
    if got == want:
        return None
    return next(compress(indices(), map(ne, got[::2], want[::2])))
