"""Independent checks for the benchmark's command outputs.

Nothing here imports ``autoseq``: machine files are read with a small
reader of their own, sequences are recomputed from their definitions
(shortlex enumeration by length and then alphabetically, popcount parity,
the paperfolding closed form), and minimal state counts come from a
separate partition refinement.  A check returns ``None`` when the output
is right and a one-line description of the problem otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Machine:
    """What the benchmark needs of a ``.aut`` file: enough to run it."""

    kind: str
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    delta: dict
    accepting: frozenset = frozenset()
    outputs: dict | None = None

    def text(self) -> str:
        """The machine in the ``.aut`` text format."""
        lines = [
            f"type {self.kind}",
            "alphabet " + " ".join(self.alphabet),
            "states " + " ".join(self.states),
            "initial " + self.initial,
        ]
        if self.outputs is None:
            lines.append(("accepting " + " ".join(s for s in self.states if s in self.accepting)).rstrip())
        else:
            lines.append("outputs " + " ".join(f"{s}={self.outputs[s]}" for s in self.states))
        lines += [f"trans {s} {a} {t}" for (s, a), t in self.delta.items()]
        return "\n".join(lines) + "\n"

    def reach(self, word: str) -> str:
        state = self.initial
        for letter in word:
            state = self.delta[state, letter]
        return state

    def bit(self, word: str) -> int:
        """1 if a recognizer accepts ``word`` (or an output machine prints 1)."""
        state = self.reach(word)
        if self.outputs is None:
            return int(state in self.accepting)
        return int(self.outputs[state])


def read_aut(text: str) -> Machine:
    """Read a ``dfa`` or ``dfao`` file; the files are trusted to be sound."""
    fields: dict = {"trans": {}}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if head == "trans":
            fields["trans"][rest[0], rest[1]] = rest[2]
        elif head == "outputs":
            fields["outputs"] = dict(token.split("=", 1) for token in rest)
        else:
            fields[head] = rest
    return Machine(
        kind=fields["type"][0],
        alphabet=tuple(fields["alphabet"]),
        states=tuple(fields["states"]),
        initial=fields["initial"][0],
        delta=fields["trans"],
        accepting=frozenset(fields.get("accepting", ())),
        outputs=fields.get("outputs"),
    )


def read_coding(text: str) -> dict:
    """Symbol-to-letter coding of a ``tag`` file."""
    coding = {}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0] == "code":
            coding.update(token.split("=", 1) for token in tokens[1:])
    return coding


def shortlex_bits(machine: Machine, count: int) -> bytes:
    """Characteristic bits of the first ``count`` words in shortlex order.

    Walks the words level by level: the words of length k, in alphabetical
    order, are the words of length k-1 each followed by every letter in
    turn.  Only the recognizer states are kept, one per word.
    """
    first, second = machine.alphabet
    delta = machine.delta
    accepting = machine.accepting
    bits = bytearray()
    level = [machine.initial]
    while True:
        for state in level:
            if len(bits) == count:
                return bytes(bits)
            bits.append(state in accepting)
        level = [delta[s, c] for s in level for c in (first, second)]


def words(count: int, alphabet=("a", "b")):
    """The first ``count`` words by length and then alphabetically, from
    ``itertools.product``."""
    found = 0
    for length in itertools.count():
        for letters in itertools.product(alphabet, repeat=length):
            if found == count:
                return
            yield "".join(letters)
            found += 1


def numeral(n: int) -> str:
    """Canonical binary numeral: no leading zeros, and 0 is empty."""
    return format(n, "b") if n else ""


def thue_morse_bits(count: int) -> bytes:
    return bytes(bin(n).count("1") % 2 for n in range(count))


def paperfold_bits(count: int) -> bytes:
    """Write n = 2**k * m with m odd: the bit is 1 iff m = 1 (mod 4), and
    index 0 is 1."""
    return bytes(1 if n == 0 else int((n >> ((n & -n).bit_length() - 1)) % 4 == 1) for n in range(count))


def counter_bits(modulus: int, count: int) -> bytes:
    """Membership of each word in "the count of a is 0 mod ``modulus``"."""
    return bytes(int(word.count("a") % modulus == 0) for word in words(count))


def bits_line(bits: bytes) -> str:
    """What ``seq`` and ``run`` print for these bits."""
    return " ".join("1" if b else "0" for b in bits) + "\n"


def minimal_size(machine: Machine) -> int:
    """Number of states of the minimal equivalent recognizer: reachable
    states, split by acceptance, then by successor blocks until stable."""
    reachable = {machine.initial}
    todo = [machine.initial]
    while todo:
        state = todo.pop()
        for letter in machine.alphabet:
            nxt = machine.delta[state, letter]
            if nxt not in reachable:
                reachable.add(nxt)
                todo.append(nxt)
    block = {s: int(s in machine.accepting) for s in reachable}
    size = len(set(block.values()))
    while True:
        signature = {
            s: (block[s],) + tuple(block[machine.delta[s, a]] for a in machine.alphabet)
            for s in reachable
        }
        numbers: dict = {}
        block = {s: numbers.setdefault(sig, len(numbers)) for s, sig in signature.items()}
        if len(numbers) == size:
            return size
        size = len(numbers)


def expect_equal(got: str, want: str, what: str) -> str | None:
    if got == want:
        return None
    got_lines = got.splitlines() or [""]
    want_lines = want.splitlines() or [""]
    return f"{what}: got {got_lines[0][:60]!r}..., want {want_lines[0][:60]!r}..."
