"""Base-k numerals and the shortlex enumeration of two-letter words.

Numerals are strings of digit characters read most-significant first.  The
canonical numeral of n has no leading zeros; 0 is written as the empty
string.  Over a two-letter alphabet, listing all words by length and then
alphabetically (shortlex order) matches bijective base 2: appending the
first letter sends index n to 2n+1, the second to 2n+2.  As these append
the digits 0 and 1 to the numeral of n+1, word(n) is bin(n+1) without its
leading 1, with 0 read as the first letter and 1 as the second.  That gives
conversions both ways without enumerating anything.
"""

from __future__ import annotations

_DIGITS = "0123456789"


def _check_base(base: int):
    if not isinstance(base, int) or not 2 <= base <= 10:
        raise ValueError(f"base must be an integer in 2..10, got {base!r}")


def _check_natural(name: str, value):
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _check_alphabet(alphabet) -> tuple[str, str]:
    pair = tuple(alphabet)
    if (
        len(pair) != 2
        or pair[0] == pair[1]
        or any(not isinstance(x, str) or len(x) != 1 for x in pair)
    ):
        raise ValueError(f"need two distinct single-character letters, got {alphabet!r}")
    return pair


def from_digits(word: str, base: int) -> int:
    """Value of a base-``base`` numeral; the empty word is 0."""
    _check_base(base)
    value = 0
    for ch in word:
        digit = _DIGITS.find(ch)
        if not 0 <= digit < base:
            raise ValueError(f"invalid base-{base} digit {ch!r} in {word!r}")
        value = value * base + digit
    return value


def to_digits(n: int, base: int) -> str:
    """Canonical base-``base`` numeral of n: no leading zeros, 0 -> ''."""
    _check_base(base)
    _check_natural("n", n)
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(_DIGITS[d])
    return "".join(reversed(digits))


def shortlex_word(n: int, alphabet=("a", "b")) -> str:
    """The n-th word over a two-letter alphabet in shortlex order (index 0
    is the empty word)."""
    first, second = _check_alphabet(alphabet)
    _check_natural("n", n)
    return format(n + 1, "b")[1:].translate(str.maketrans("01", first + second))


def shortlex_index(word: str, alphabet=("a", "b")) -> int:
    """Position of ``word`` in the shortlex enumeration; inverse of
    :func:`shortlex_word`."""
    first, second = _check_alphabet(alphabet)
    stray = word.translate(str.maketrans("", "", first + second))
    if stray:
        raise ValueError(f"letter {stray[0]!r} is not in the alphabet {first + second!r}")
    return int("1" + word.translate(str.maketrans(first + second, "01")), 2) - 1


def bits_to_letters(bits: str, alphabet=("a", "b")) -> str:
    """Rewrite a word of binary digits letterwise: 0 to the first letter,
    1 to the second."""
    first, second = _check_alphabet(alphabet)
    stray = bits.translate(str.maketrans("", "", "01"))
    if stray:
        raise ValueError(f"invalid binary digit {stray[0]!r} in {bits!r}")
    return bits.translate(str.maketrans("01", first + second))


def increment_bits(bits: str) -> str:
    """Add one to a fixed-width binary window: same length, value + 1
    modulo 2**len(bits).  The empty word maps to itself."""
    if not bits:
        return ""
    width = len(bits)
    value = (from_digits(bits, 2) + 1) % (1 << width)
    return format(value, f"0{width}b")


def increment_letters(bits: str, alphabet=("a", "b")) -> str:
    """The incremented window of ``bits``, written over the two-letter
    alphabet."""
    return bits_to_letters(increment_bits(bits), alphabet)


def shortlex_extend(n: int, bits: str, alphabet=("a", "b")) -> str:
    """Shortlex word of the number whose binary numeral is that of n (n >= 1)
    followed by ``bits``, computed compositionally instead of by
    re-converting the whole numeral.

    An all-ones suffix only appends copies of the first letter to word(n);
    any other suffix appends the incremented window of ``bits`` to
    word(n - 1).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    first, _ = _check_alphabet(alphabet)
    if set(bits) - {"0", "1"}:
        raise ValueError(f"suffix {bits!r} is not a binary word")
    if set(bits) <= {"1"}:
        return shortlex_word(n, alphabet) + first * len(bits)
    return shortlex_word(n - 1, alphabet) + increment_letters(bits, alphabet)
