"""Finite words over finite alphabets, and the primitive-word basics.

A word is a string together with the alphabet it is read over.  Keeping the
alphabet attached matters here: insertion-robustness is a property of the pair
(word, alphabet), not of the string alone — a word can be robust over one
alphabet and fragile over a larger one.

Every linear pass here runs in C.  A ``Word`` checks its symbols with one
``str.translate`` through its alphabet's deletion table.  The root length of
a word of length n is found by rotation compares: dividing n by each prime q
of n while the shorter rotation still matches takes at most ω(n) + Ω(n)
slice compares, each at memcmp speed, where ``(s + s).find(s, 1)`` runs a
substring search over 2n symbols.  The brute-force oracles and the census
keep that ``find``: it is faster on words of up to about 100 symbols, where
they work, and it keeps them independent of the fast path.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator


class Alphabet:
    """An ordered finite alphabet of single-character symbols.

    Order is significant: enumeration (``words_of_length``) and tie-breaking
    (e.g. which extension letter a search tries first) follow it.
    """

    __slots__ = ("_symbols", "_index", "_delete")

    def __init__(self, symbols: str):
        if not symbols:
            raise ValueError("alphabet must contain at least one symbol")
        seen = {}
        for position, ch in enumerate(symbols):
            if len(ch) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate alphabet symbol {ch!r}")
            seen[ch] = position
        self._symbols = symbols
        self._index = seen
        # str.translate deletes every symbol, so what is left is not in the alphabet
        self._delete = dict.fromkeys(map(ord, seen))

    @property
    def symbols(self) -> str:
        return self._symbols

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in alphabet {self._symbols!r}") from None

    def word(self, chars: str) -> "Word":
        return Word(chars, self)

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self._symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        return f"Alphabet({self._symbols!r})"


class Word:
    """An immutable word over a fixed alphabet.

    Equal words have equal ``chars`` and alphabets; assigning to or deleting
    a field raises ``AttributeError``.
    """

    __slots__ = ("chars", "alphabet")
    __match_args__ = ("chars", "alphabet")

    chars: str
    alphabet: Alphabet

    def __init__(self, chars: str, alphabet: Alphabet) -> None:
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "alphabet", alphabet)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.chars.translate(self.alphabet._delete):
            stray = set(self.chars).difference(self.alphabet._index)
            raise ValueError(
                f"word uses symbols {sorted(stray)!r} outside alphabet {self.alphabet.symbols!r}"
            )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through __init__, since the frozen __setattr__ refuses the
        # slot-by-slot state that pickle and copy would otherwise restore
        return (type(self), (self.chars, self.alphabet))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.chars == other.chars and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash((self.chars, self.alphabet))

    def __len__(self) -> int:
        return len(self.chars)

    def __getitem__(self, item):
        return self.chars[item]

    def __iter__(self) -> Iterator[str]:
        return iter(self.chars)

    def __str__(self) -> str:
        return self.chars

    def __repr__(self) -> str:
        return f"Word({self.chars!r}, {self.alphabet!r})"


def _require_nonempty(w: Word, what: str) -> None:
    if len(w.chars) == 0:
        raise ValueError(f"{what} is undefined for the empty word")


def _border(s: str) -> list[int]:
    # classic failure-function computation; table[i] = longest proper border of s[:i+1]
    table = [0] * len(s)
    k = 0
    for i in range(1, len(s)):
        while k > 0 and s[i] != s[k]:
            k = table[k - 1]
        if s[i] == s[k]:
            k += 1
        table[i] = k
    return table


def border_array(w: Word) -> list[int]:
    """Lengths of the longest proper border of each prefix of ``w``.

    Entry ``i`` is the length of the longest string that is both a proper
    prefix and a proper suffix of ``w[:i+1]``; empty word → empty array.
    """
    return _border(w.chars)


@functools.lru_cache(maxsize=1 << 12)
def _prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """The primes of ``n`` with their exponents, ascending; () for n <= 1."""
    factors = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors.append((q, e))
        q += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def _root_length(s: str) -> int:
    # The smallest r dividing n = len(s) with s[r:] == s[:n-r], that is, with
    # s a power of s[:r]; n when s is primitive.  The periods of s that divide
    # n are the multiples of r (Fine–Wilf), so starting from n, a prime q can
    # be divided out exactly while the shorter rotation still matches.
    n = len(s)
    r = n
    for q, _ in _prime_factorization(n):
        while r % q == 0 and s[r // q :] == s[: n - r // q]:
            r //= q
    return r


def is_primitive(w: Word) -> bool:
    """True iff ``w`` is not a proper power of a shorter word."""
    _require_nonempty(w, "is_primitive")
    return _root_length(w.chars) == len(w.chars)


def primitive_root(w: Word) -> tuple[Word, int]:
    """The unique primitive ``t`` and exponent ``m >= 1`` with ``w == t**m``."""
    _require_nonempty(w, "primitive_root")
    r = _root_length(w.chars)
    return Word(w.chars[:r], w.alphabet), len(w.chars) // r


def rotate(w: Word, offset: int) -> Word:
    """Cyclic left shift: the word ``w[offset:] + w[:offset]``."""
    if not 0 <= offset <= len(w.chars):
        raise ValueError(f"rotation offset {offset} out of range for length {len(w.chars)}")
    return Word(w.chars[offset:] + w.chars[:offset], w.alphabet)


def reverse(w: Word) -> Word:
    return Word(w.chars[::-1], w.alphabet)


def insert(w: Word, position: int, symbol: str) -> Word:
    """The word obtained by inserting ``symbol`` before index ``position``.

    ``position`` ranges over ``0..len(w)`` inclusive; ``len(w)`` appends.
    """
    if not 0 <= position <= len(w.chars):
        raise ValueError(f"insertion position {position} out of range for length {len(w.chars)}")
    if symbol not in w.alphabet:
        raise ValueError(f"symbol {symbol!r} is not in alphabet {w.alphabet.symbols!r}")
    return Word(w.chars[:position] + symbol + w.chars[position:], w.alphabet)


def words_of_length(n: int, alphabet: Alphabet) -> Iterator[Word]:
    """All words of length ``n`` over ``alphabet``, in lexicographic order
    of the alphabet's own symbol order."""
    if n < 0:
        raise ValueError("word length must be non-negative")
    for tup in itertools.product(alphabet.symbols, repeat=n):
        yield Word("".join(tup), alphabet)
