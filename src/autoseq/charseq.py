"""Characteristic sequences of regular languages under shortlex order.

For a language L over a two-letter alphabet, entry n of the characteristic
sequence is 1 exactly when the n-th word in shortlex order belongs to L.
:func:`char_seq` evaluates that definition directly on a recognizer, one
word at a time: it lists the words of each length in dictionary order and
runs every one from the initial state, through one successor list per
letter.  It is the slow, obviously-correct reference against which the
compiled machines are checked, so it shares no work between words and
none of the compiler's index arithmetic.  It returns the bits as integers;
its callers, the ``seq`` command and ``compiler.first_mismatch``, turn
them into one line of text with :func:`_bits_line`, so the conversion
stays outside the oracle.

:func:`output_seq` runs a digit-reading machine on every index at once:
it is the coded unfolding of the machine's successor table (the state of
n * k + d is the successor of the state of n on d), O(1) per entry.
"""

from __future__ import annotations

from itertools import islice, product
from typing import NamedTuple

from .automata import Dfa, Dfao, _AlphabetError, _need_recognizers, _table, _words, accepts, minimize
from .numeration import _check_natural
from .tagsystem import _digit_table, _unfold


def char_bit(dfa: Dfa, word: str) -> int:
    """1 if the recognizer accepts ``word``, else 0."""
    _need_recognizers("char_bit", dfa)
    return 1 if accepts(dfa, word) else 0


def char_seq(dfa: Dfa, count: int) -> list[int]:
    """First ``count`` entries of the characteristic sequence of L(dfa).

    Words come length by length in dictionary order, and each one is run
    from the initial state on its own: a word of length L costs L
    transitions, with no work shared between words.  The states are
    numbered, and ``product`` spells each word as a tuple of the letters'
    successor lists, so a transition is one list lookup.
    """
    _need_recognizers("char_seq", dfa)
    if len(dfa.alphabet) != 2:
        raise _AlphabetError(dfa, "characteristic sequences need a two-letter alphabet")
    _check_natural("count", count)
    index = {state: i for i, state in enumerate(dfa.states)}
    letters = [[index[dfa.transitions[state, letter]] for state in dfa.states] for letter in dfa.alphabet]
    bit = [1 if state in dfa.accepting else 0 for state in dfa.states]
    initial = index[dfa.initial]
    bits = []
    length = 0
    while len(bits) < count:
        for word in islice(product(letters, repeat=length), count - len(bits)):
            state = initial
            for letter in word:
                state = letter[state]
            bits.append(bit[state])
        length += 1
    return bits


_BITS_TO_TEXT = bytes.maketrans(b"\0\1", b"01")


def _bits_line(bits: list[int]) -> str:
    """The 0/1 terms ``bits`` as one line: digits in every other byte of spaces."""
    line = bytearray(b" ") * (2 * len(bits))
    line[::2] = bytearray(bits).translate(_BITS_TO_TEXT)
    return line[:-1].decode()


def output_seq(dfao: Dfao, count: int) -> list[str]:
    """First ``count`` outputs of a digit-reading machine: entry n is the
    output after reading the canonical numeral of n (most significant digit
    first, empty numeral for 0).

    This is the coded unfolding of the successor table (see ``tagsystem``).
    The root skips digit 0, so the initial state needs no 0-self-loop.
    Each entry costs O(1), and the state list O(count) memory.
    """
    table = _digit_table(dfao)
    return list(map(dfao.outputs.__getitem__, _unfold(table, dfao.initial, count)))


class Residual(NamedTuple):
    """A distinct left quotient of the language, named by its shortest
    witness prefix and the minimal-DFA state that recognizes it."""

    witness: str
    state: str


def residuals(dfa: Dfa) -> list[Residual]:
    """One entry per distinct residual language of L(dfa).

    The recognizer is minimized first, so two prefixes that admit exactly
    the same continuations are counted once.  The minimal machine numbers
    its states breadth-first, so the witnesses are read off its own table,
    in that order; the first witness is always the empty word.
    """
    small = minimize(dfa)
    return list(map(Residual, _words(_table(small), small.alphabet, range(len(small.states))), small.states))


def residual_bit(dfa: Dfa, prefix: str, word: str) -> int:
    """1 if ``word`` belongs to the residual of L(dfa) by ``prefix``, i.e.
    if the recognizer accepts ``prefix + word``."""
    _need_recognizers("residual_bit", dfa)
    return char_bit(dfa, prefix + word)
