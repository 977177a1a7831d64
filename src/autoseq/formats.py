"""Line-based text formats for machines and tag systems, plus DOT export.

A file is a sequence of directives, one per line, and only ``\n``,
``\r\n`` and ``\r`` end a line; ``#`` starts a comment that runs to the end
of its line, whatever it holds, and blank lines are ignored.  The first
directive must be ``type`` with one of ``dfa``, ``dfao`` or ``tag``.
Parsing reports the offending line; problems that span the whole machine
(a missing transition, say) are reported without a line number.  The
machine's constructor checks the ``trans`` rows as one map; they are read
one by one only when a pair repeats or construction fails, to name the
first line at fault.  Serialization is deterministic, so equal machines
always dump to identical text.
"""

from __future__ import annotations

from operator import itemgetter
from pathlib import Path

from .automata import Dfa, Dfao, InvalidAutomatonError, Machine
from .tagsystem import InvalidTagSystemError, TagSystem


class FormatError(ValueError):
    """A problem in a machine file, located by source name and line."""

    def __init__(self, message: str, source: str = "<input>", line: int | None = None):
        self.source = source
        self.line = line
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: {message}")


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """``(line number, tokens)`` for every line that holds a directive."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return list(filter(itemgetter(1), enumerate(map(str.split, lines), 1)))


def parse(text: str, source: str = "<input>") -> Dfa | Dfao | TagSystem:
    """Parse a machine description; the ``type`` directive picks the shape."""
    rows = _rows(text)
    if not rows:
        raise FormatError("empty input: expected a 'type' directive", source)
    lineno, tokens = rows[0]
    if tokens[0] != "type" or len(tokens) != 2:
        raise FormatError("the first directive must be 'type dfa|dfao|tag'", source, lineno)
    kind = tokens[1]
    if kind in ("dfa", "dfao"):
        return _parse_automaton(kind, rows[1:], source)
    if kind == "tag":
        return _parse_tag(rows[1:], source)
    raise FormatError(f"unknown machine type {kind!r}", source, lineno)


def _single(seen: dict, lineno, head, source):
    if head in seen:
        raise FormatError(f"duplicate {head!r} directive (first on line {seen[head]})", source, lineno)
    seen[head] = lineno


def _labels(tokens, labels: dict, what: str, owner: str, source, lineno):
    """Read ``name=letter`` tokens into ``labels``."""
    for token in tokens:
        name, sep, letter = token.partition("=")
        if not sep or not name or not letter:
            raise FormatError(f"malformed {what} {token!r}, expected {owner}=letter", source, lineno)
        if name in labels:
            raise FormatError(f"duplicate {what} for {owner} {name!r}", source, lineno)
        labels[name] = letter


def _parse_automaton(kind: str, rows, source: str) -> Dfa | Dfao:
    seen: dict = {}
    alphabet = states = initial = accepting = None
    outputs: dict = {}
    trans_rows = []

    for row in rows:
        lineno, tokens = row
        head = tokens[0]
        if head == "trans":
            if len(tokens) != 4:
                raise FormatError("'trans' takes: source letter target", source, lineno)
            trans_rows.append(row)
            continue
        rest = tokens[1:]
        if head == "alphabet":
            _single(seen, lineno, head, source)
            alphabet = tuple(rest)
        elif head == "states":
            _single(seen, lineno, head, source)
            states = tuple(rest)
        elif head == "initial":
            _single(seen, lineno, head, source)
            if len(rest) != 1:
                raise FormatError("'initial' takes exactly one state id", source, lineno)
            initial = rest[0]
        elif head == "accepting":
            if kind != "dfa":
                raise FormatError("'accepting' only belongs in a dfa", source, lineno)
            _single(seen, lineno, head, source)
            accepting = tuple(rest)
        elif head == "outputs":
            if kind != "dfao":
                raise FormatError("'outputs' only belongs in a dfao", source, lineno)
            _single(seen, lineno, head, source)
            _labels(rest, outputs, "output", "state", source, lineno)
        else:
            raise FormatError(f"unknown directive {head!r}", source, lineno)

    for directive, value in (("alphabet", alphabet), ("states", states), ("initial", initial)):
        if value is None:
            raise FormatError(f"missing {directive!r} directive", source)
    if kind == "dfa" and accepting is None:
        raise FormatError("missing 'accepting' directive (it may list zero ids)", source)
    if kind == "dfao" and "outputs" not in seen:
        raise FormatError("missing 'outputs' directive", source)

    cls, observed = (Dfa, {"accepting": accepting}) if kind == "dfa" else (Dfao, {"outputs": outputs})
    return _automaton(cls, dict(alphabet=alphabet, states=states, initial=initial, **observed), trans_rows, source)


def _automaton(cls, fields: dict, trans_rows, source: str) -> Dfa | Dfao:
    """The machine of ``cls`` on ``fields`` and the map the ``trans`` rows
    spell; the rows are read in order, to name the first line at fault,
    only when a pair repeats or construction fails."""
    _, states, used, targets = zip(*map(itemgetter(1), trans_rows)) if trans_rows else ((),) * 4
    transitions = dict(zip(zip(states, used), targets))
    if len(transitions) < len(trans_rows):
        _check_rows(trans_rows, fields, source)
    try:
        return cls(transitions=transitions, **fields)
    except InvalidAutomatonError as exc:
        _check_rows(trans_rows, fields, source)
        raise FormatError(str(exc), source) from exc


def _check_rows(trans_rows, fields: dict, source: str):
    """Raise at the first ``trans`` row that names an undeclared id or repeats a pair."""
    declared, letters, seen = set(fields["states"]), set(fields["alphabet"]), set()
    for lineno, (_, state, letter, target) in trans_rows:
        for name in (state, target):
            if name not in declared:
                raise FormatError(f"undeclared state {name!r}", source, lineno)
        if letter not in letters:
            raise FormatError(f"undeclared letter {letter!r}", source, lineno)
        if (state, letter) in seen:
            raise FormatError(f"duplicate transition for ({state!r}, {letter!r})", source, lineno)
        seen.add((state, letter))


def _parse_tag(rows, source: str) -> TagSystem:
    seen: dict = {}
    modulus = symbols = start = None
    rules: dict = {}
    coding: dict = {}

    for lineno, tokens in rows:
        head = tokens[0]
        if head == "morph":
            if len(tokens) < 3 or tokens[2] != "->":
                raise FormatError("'morph' takes: symbol -> image...", source, lineno)
            symbol = tokens[1]
            if symbol in rules:
                raise FormatError(f"duplicate rule for symbol {symbol!r}", source, lineno)
            rules[symbol] = tokens[3:]
            continue
        rest = tokens[1:]
        if head == "code":
            _labels(rest, coding, "coding", "symbol", source, lineno)
        elif head == "modulus":
            _single(seen, lineno, head, source)
            if len(rest) != 1 or not rest[0].isdecimal():
                raise FormatError("'modulus' takes one non-negative integer", source, lineno)
            modulus = int(rest[0])
        elif head == "symbols":
            _single(seen, lineno, head, source)
            symbols = tuple(rest)
        elif head == "start":
            _single(seen, lineno, head, source)
            if len(rest) != 1:
                raise FormatError("'start' takes exactly one symbol", source, lineno)
            start = rest[0]
        else:
            raise FormatError(f"unknown directive {head!r}", source, lineno)

    for directive, value in (("modulus", modulus), ("symbols", symbols), ("start", start)):
        if value is None:
            raise FormatError(f"missing {directive!r} directive", source)

    try:
        return TagSystem(modulus=modulus, symbols=symbols, start=start, rules=rules, coding=coding)
    except InvalidTagSystemError as exc:
        raise FormatError(str(exc), source) from exc


def dump(machine: Machine | TagSystem) -> str:
    """Serialize a machine in the same text format :func:`parse` reads.

    Directives come out in a fixed order and transitions in declaration
    order of states and letters, so the output is stable.
    """
    if isinstance(machine, Machine):
        if isinstance(machine, Dfa):
            observed = "accepting " + " ".join(s for s in machine.states if s in machine.accepting)
        else:
            observed = "outputs " + " ".join(f"{s}={machine.outputs[s]}" for s in machine.states)
        lines = [
            "type " + ("dfa" if isinstance(machine, Dfa) else "dfao"),
            "alphabet " + " ".join(machine.alphabet),
            "states " + " ".join(machine.states),
            "initial " + machine.initial,
            observed.rstrip(),
        ]
        lines += [
            f"trans {state} {letter} {machine.transitions[state, letter]}"
            for state in machine.states
            for letter in machine.alphabet
        ]
    elif isinstance(machine, TagSystem):
        lines = [
            "type tag",
            f"modulus {machine.modulus}",
            "symbols " + " ".join(machine.symbols),
            "start " + machine.start,
        ]
        lines += [f"morph {s} -> " + " ".join(machine.rules[s]) for s in machine.symbols]
        lines += [f"code {s}={machine.coding[s]}" for s in machine.symbols]
    else:
        raise TypeError(f"cannot serialize {type(machine).__name__}")
    return "\n".join(lines) + "\n"


def load(path) -> Dfa | Dfao | TagSystem:
    """Parse the machine stored at ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}", str(path)) from exc
    return parse(text, source=str(path))


def save(machine: Machine | TagSystem, path):
    Path(path).write_text(dump(machine), encoding="utf-8")


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(machine: Machine) -> str:
    """Graphviz rendering of a machine: double circles for accepting states,
    ``state/output`` labels for output machines.  The invisible start node
    is ``__start``, with more leading underscores while a state has that
    name: DOT reads a bare ID and its quoted form as the same node."""
    start = "__start"
    while start in machine.states:
        start = "_" + start
    lines = ["digraph {", "  rankdir=LR;", f'  {start} [shape=none, label=""];']
    with_outputs = isinstance(machine, Dfao)
    quoted = {state: _quote(state) for state in machine.states}
    for state, name in quoted.items():
        if with_outputs:
            label = _quote(f"{state}/{machine.outputs[state]}")
            lines.append(f"  {name} [shape=circle, label={label}];")
        else:
            shape = "doublecircle" if state in machine.accepting else "circle"
            lines.append(f"  {name} [shape={shape}];")
    lines.append(f"  {start} -> {quoted[machine.initial]};")
    labels = [f" [label={_quote(letter)}];" for letter in machine.alphabet]
    for state, name in quoted.items():
        for letter, label in zip(machine.alphabet, labels):
            lines.append(f"  {name} -> {quoted[machine.transitions[state, letter]]}{label}")
    lines.append("}")
    return "\n".join(lines) + "\n"
