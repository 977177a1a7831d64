"""Line-based text formats for machines and tag systems, plus DOT export.

A file is a sequence of directives, one per line, and only ``\n``,
``\r\n`` and ``\r`` end a line; ``#`` starts a comment that runs to the end
of its line, whatever it holds, and blank lines are ignored.  The first
directive must be ``type`` with one of ``dfa``, ``dfao`` or ``tag``, and
one reader serves all three: a table gives each type its bulk row (``trans``
or ``morph``) and the directives it needs exactly once.  Parsing reports the
offending line; problems that span the whole machine (a missing directive or
transition, say) are reported without a line number.  Of several faults,
the first malformed line in file order is reported; failing that, the first
missing directive; failing that, what is wrong with the machine itself.  Rows
are read one at a time, each ``trans`` row straight into the transition map
that the machine's constructor checks whole; the text is read again only to
name a faulty line.  Serialization is deterministic, so equal machines always
dump to identical text.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def _rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tokens)`` for each line that holds a directive, in turn."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:
        lines = (line.partition("#")[0] for line in lines)
    return filter(itemgetter(1), enumerate(map(str.split, lines), 1))


# Per machine type: the row that makes up the bulk of a file, and the
# directives the type needs exactly once, in the order a missing one is reported.
_DIRECTIVES = {
    "dfa": ("trans", ("alphabet", "states", "initial", "accepting")),
    "dfao": ("trans", ("alphabet", "states", "initial", "outputs")),
    "tag": ("morph", ("modulus", "symbols", "start")),
}

# What each once-only directive that holds a single value takes.
_ONE_VALUE = {
    "initial": "exactly one state id",
    "start": "exactly one symbol",
    "modulus": "one non-negative integer",
}

# The automaton type that each observation belongs to.
_OBSERVED = {"accepting": "dfa", "outputs": "dfao"}


def parse(text: str, source: str = "<input>") -> Dfa | Dfao | TagSystem:
    """Parse a machine description; the ``type`` directive picks the shape."""
    rows = _rows(text)
    lineno, tokens = next(rows, (None, None))
    if tokens is None:
        raise FormatError("empty input: expected a 'type' directive", source)
    if tokens[0] != "type" or len(tokens) != 2:
        raise FormatError("the first directive must be 'type dfa|dfao|tag'", source, lineno)
    kind = tokens[1]
    if kind not in _DIRECTIVES:
        raise FormatError(f"unknown machine type {kind!r}", source, lineno)
    bulk, once = _DIRECTIVES[kind]
    tag = kind == "tag"
    fields: dict = {}
    transitions: dict = {}
    trans_rows = 0
    rules: dict = {}
    coding: dict = {}

    for lineno, tokens in rows:
        head = tokens[0]
        if head == bulk:
            if not tag:
                if len(tokens) != 4:
                    raise FormatError("'trans' takes: source letter target", source, lineno)
                transitions[tokens[1], tokens[2]] = tokens[3]
                trans_rows += 1
            elif len(tokens) < 3 or tokens[2] != "->":
                raise FormatError("'morph' takes: symbol -> image...", source, lineno)
            elif tokens[1] in rules:
                raise FormatError(f"duplicate rule for symbol {tokens[1]!r}", source, lineno)
            else:
                rules[tokens[1]] = tokens[3:]
        elif head == "code" and tag:
            _labels(tokens[1:], coding, "coding", "symbol", source, lineno)
        elif head not in once:
            if head in _OBSERVED and not tag:
                raise FormatError(f"{head!r} only belongs in a {_OBSERVED[head]}", source, lineno)
            raise FormatError(f"unknown directive {head!r}", source, lineno)
        elif head in fields:
            first = next(n for n, (other, *_) in _rows(text) if other == head)
            raise FormatError(f"duplicate {head!r} directive (first on line {first})", source, lineno)
        elif head in _ONE_VALUE and (len(tokens) != 2 or head == "modulus" and not tokens[1].isdecimal()):
            raise FormatError(f"{head!r} takes {_ONE_VALUE[head]}", source, lineno)
        elif head == "outputs":
            _labels(tokens[1:], fields.setdefault(head, {}), "output", "state", source, lineno)
        elif head == "modulus":
            try:
                fields[head] = int(tokens[1])
            except ValueError:  # longer than the interpreter's int conversion limit
                raise FormatError(f"'modulus' has {len(tokens[1])} digits, too many to read", source, lineno) from None
        elif head in _ONE_VALUE:
            fields[head] = tokens[1]
        else:
            fields[head] = tuple(tokens[1:])

    for head in once:
        if head not in fields:
            note = " (it may list zero ids)" if head == "accepting" else ""
            raise FormatError(f"missing {head!r} directive{note}", source)

    if tag:
        try:
            return TagSystem(rules=rules, coding=coding, **fields)
        except InvalidTagSystemError as exc:
            raise FormatError(str(exc), source) from exc
    return _automaton(Dfa if kind == "dfa" else Dfao, fields, transitions, trans_rows, text, source)


def _labels(tokens, labels: dict, what: str, owner: str, source, lineno):
    """Read ``name=letter`` tokens into ``labels``."""
    for token in tokens:
        name, sep, letter = token.partition("=")
        if not sep or not name or not letter:
            raise FormatError(f"malformed {what} {token!r}, expected {owner}=letter", source, lineno)
        if name in labels:
            raise FormatError(f"duplicate {what} for {owner} {name!r}", source, lineno)
        labels[name] = letter


def _automaton(cls, fields: dict, transitions: dict, trans_rows: int, text: str, source: str) -> Dfa | Dfao:
    """The machine of ``cls`` on ``fields`` and the map that the ``trans_rows``
    rows of ``text`` spell; the text is read again, to name the first line at
    fault, only when a pair repeats or construction fails."""
    if len(transitions) < trans_rows:
        _check_rows(text, fields, source)
    try:
        return cls(transitions=transitions, **fields)
    except InvalidAutomatonError as exc:
        _check_rows(text, fields, source)
        raise FormatError(str(exc), source) from exc


def _check_rows(text: str, fields: dict, source: str):
    """Raise at the first ``trans`` row of ``text`` that names an undeclared id or repeats a pair."""
    declared, letters, seen = set(fields["states"]), set(fields["alphabet"]), set()
    rows = ((lineno, tokens) for lineno, tokens in _rows(text) if tokens[0] == "trans")
    for lineno, (_, state, letter, target) in rows:
        for name in (state, target):
            if name not in declared:
                raise FormatError(f"undeclared state {name!r}", source, lineno)
        if letter not in letters:
            raise FormatError(f"undeclared letter {letter!r}", source, lineno)
        if (state, letter) in seen:
            raise FormatError(f"duplicate transition for ({state!r}, {letter!r})", source, lineno)
        seen.add((state, letter))


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
