"""Uniform tag systems: constant-length substitutions with a coding.

A system of modulus k replaces every symbol by a word of exactly k symbols.
When the rule for the start symbol begins with the start symbol itself, the
substitution can be iterated from that symbol forever and converges to an
infinite fixed point; applying the coding letterwise yields the output
sequence.  Entry n of the fixed point can also be computed directly by
walking the base-k digits of n through the rules; both routes are exposed
so they can be checked against each other.  A digit machine's successor
table is such a substitution (:func:`from_dfao`), and
``charseq.output_seq`` is the coded unfolding of that table.  A printed
prefix is not coded term by term: each symbol's subtree is rendered once
as text, and the line joins those blocks (``_render``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping

from .automata import Dfao, _AlphabetError, _MachineError, _id_problems, _label_problems, _sorted
from .numeration import _DIGITS, _check_natural


class InvalidTagSystemError(ValueError):
    """Structural validation failed; ``problems`` lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class TagSystem:
    """Uniform substitution ``rules`` of modulus k with a letterwise coding.

    ``rules[s]`` is the k-tuple that replaces s; ``coding[s]`` the output
    letter of s.  ``rules[start]`` must begin with ``start`` so the fixed
    point from ``start`` exists.
    """

    modulus: int
    symbols: tuple[str, ...]
    start: str
    rules: Mapping[str, tuple[str, ...]]
    coding: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "rules", {s: tuple(w) for s, w in dict(self.rules).items()})
        object.__setattr__(self, "coding", dict(self.coding))
        problems = self._problems()
        if problems:
            raise InvalidTagSystemError(problems)

    def _problems(self) -> list[str]:
        problems = []
        if not isinstance(self.modulus, int) or self.modulus < 2:
            problems.append(f"modulus must be an integer >= 2, got {self.modulus!r}")
        problems += _id_problems(self.symbols, "symbol", "symbols")
        declared = set(self.symbols)
        if self.start not in declared:
            problems.append(f"start symbol {self.start!r} is not declared")

        problems += self._rule_problems(declared)
        problems += _label_problems(self.coding, self.symbols, "coding", "symbol")

        if not problems and self.rules[self.start][0] != self.start:
            problems.append(
                f"rule for the start symbol must begin with the start symbol, "
                f"got {self.start!r} -> {' '.join(self.rules[self.start])!r}"
            )
        return problems

    def _rule_problems(self, declared: set) -> list[str]:
        """Problems with the rules: undeclared symbols, wrong lengths, missing
        rules.  In a sound system the rules are keyed by exactly the declared
        symbols, and their images have length k and use only those."""
        images = self.rules.values()
        lengths = list(map(len, images))
        if (
            self.rules.keys() == declared
            and lengths.count(self.modulus) == len(lengths)
            and declared.issuperset(chain.from_iterable(images))
        ):
            return []
        problems = []
        for symbol, image in _sorted(self.rules.items()):
            if symbol not in declared:
                problems.append(f"rule for undeclared symbol {symbol!r}")
            if isinstance(self.modulus, int) and len(image) != self.modulus:
                problems.append(
                    f"rule for {symbol!r} has length {len(image)}, expected {self.modulus}"
                )
            for target in image:
                if target not in declared:
                    problems.append(f"rule for {symbol!r} uses undeclared symbol {target!r}")
        for symbol in self.symbols:
            if symbol not in self.rules:
                problems.append(f"no rule for symbol {symbol!r}")
        return problems


def _digit_table(dfao: Dfao) -> dict[str, tuple[str, ...]]:
    """Successors of every state on the digits 0..k-1, which must be the
    alphabet, keyed in declared state order.  Each digit's column is looked
    up in one pass over the states, and the rows are those columns zipped."""
    base = len(dfao.alphabet)
    if tuple(dfao.alphabet) != tuple(_DIGITS[:base]) or base < 2:
        raise _AlphabetError(dfao, f"need the digit alphabet 0..{base - 1 if base >= 2 else 1} in order")
    states = dfao.states
    columns = [map(dfao.transitions.__getitem__, zip(states, repeat(digit))) for digit in dfao.alphabet]
    return dict(zip(states, zip(*columns)))


def _unfold(table: Mapping[str, tuple[str, ...]], start: str, count: int) -> list[str]:
    """First ``count`` states reached from ``start`` by the numerals 0, 1,
    2, ...: entry n * k + d is ``table[entry n][d]``, filled a block at a
    time.  The root skips digit 0, as canonical numerals do."""
    _check_natural("count", count)
    base = len(table[start])
    states = [start, *table[start][1:]]
    read = 1
    while len(states) < count:
        stop = min(len(states), -(-count // base))
        states.extend(chain.from_iterable(map(table.__getitem__, states[read:stop])))
        read = stop
    del states[count:]
    return states


def _render(table: Mapping[str, tuple[str, ...]], start: str, count: int, label: Mapping[str, str]) -> str:
    """The labels of ``_unfold(table, start, count)``, joined by spaces.

    Entries [n * B, (n + 1) * B) for n >= 1 are the depth-j subtree of entry
    n, B = k**j, so each symbol's subtree is rendered once per depth from the
    blocks one depth below; the line is the head [0, B), one block per root
    and the last root's partial block, built along its digits.  j is the
    deepest level with B * B <= count and 4 * B * symbols <= count, since a
    block costs more per label than an unfolded term; when none fits, the
    labels of one ``_unfold`` are joined as they are.
    """
    base = len(table[start])
    depth, width = 0, 1
    while width * base * max(4 * len(table), width * base) <= count:
        depth, width = depth + 1, width * base
    if not depth:
        return " ".join(map(label.__getitem__, _unfold(table, start, count)))
    blocks = [{symbol: label[symbol] + " " for symbol in table}]
    for _ in range(depth):
        below = blocks[-1].__getitem__
        blocks.append({symbol: "".join(map(below, row)) for symbol, row in table.items()})
    full, rest = divmod(count, width)
    roots = _unfold(table, start, full + 1)
    parts = [*map(blocks[0].__getitem__, roots[:width]), *map(blocks[depth].__getitem__, roots[1:full])]
    symbol = roots[full]
    for level in reversed(range(depth)):
        digit, rest = divmod(rest, base**level)
        parts += map(blocks[level].__getitem__, table[symbol][:digit])
        symbol = table[symbol][digit]
    return "".join(parts)[:-1]


def from_dfao(dfao: Dfao) -> TagSystem:
    """Read a digit machine off as a substitution: each state becomes a
    symbol whose rule lists its successors on the digits 0..k-1 in order,
    and the coding is the machine's output map.

    The machine's initial state must carry a self-loop on the digit 0;
    that loop is exactly what makes the substitution prolongable, and it
    also means leading zeros never change the machine's answer.
    """
    rules = _digit_table(dfao)
    if rules[dfao.initial][0] != dfao.initial:
        raise _MachineError(
            dfao, f"the initial state {dfao.initial!r} has no self-loop on digit 0, "
            f"so the substitution would not be prolongable"
        )
    return TagSystem(len(dfao.alphabet), dfao.states, dfao.initial, rules, dfao.outputs)


def intseq(system: TagSystem, count: int) -> list[str]:
    """First ``count`` symbols of the fixed point, unfolded from the start
    symbol (whose rule begins with itself, so the root loses nothing)."""
    return _unfold(system.rules, system.start, count)


def intseq_term(system: TagSystem, n: int) -> str:
    """Symbol n of the fixed point, computed independently of :func:`intseq`
    by descending the base-k digits of n through the rules."""
    _check_natural("n", n)
    digits = []
    while n:
        n, d = divmod(n, system.modulus)
        digits.append(d)
    symbol = system.start
    for d in reversed(digits):
        symbol = system.rules[symbol][d]
    return symbol


def seq(system: TagSystem, count: int) -> list[str]:
    """First ``count`` letters of the coded fixed point."""
    return list(map(system.coding.__getitem__, intseq(system, count)))


def is_fixed_point_prefix(system: TagSystem, depth: int) -> bool:
    """Check that substituting the first ``depth`` symbols of the claimed
    fixed point reproduces its first modulus * depth symbols."""
    _check_natural("depth", depth)
    fixed = intseq(system, system.modulus * depth)
    return fixed == [target for symbol in fixed[:depth] for target in system.rules[symbol]]
