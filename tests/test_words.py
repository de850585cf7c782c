import random
import time

import pytest
from conftest import BINARY, TERNARY, all_strings, all_words, loglog_slope
from hypothesis import given
from hypothesis import strategies as st

from insrobust import (
    Alphabet,
    Word,
    border_array,
    insert,
    is_primitive,
    primitive_root,
    reverse,
    rotate,
    words_of_length,
)
from insrobust.words import _root_length

binary_words = st.text(alphabet="ab", min_size=1, max_size=48).map(
    lambda s: Word(s, BINARY)
)


def bw(chars: str) -> Word:
    return Word(chars, BINARY)


class TestAlphabet:
    def test_order_and_lookup(self):
        alpha = Alphabet("bca")
        assert list(alpha) == ["b", "c", "a"]
        assert alpha.index("c") == 1
        assert "a" in alpha and "z" not in alpha
        assert len(alpha) == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet("aba")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet("")

    def test_rejects_multichar_symbol(self):
        with pytest.raises(ValueError):
            Alphabet(["ab", "c"])  # type: ignore[arg-type]

    def test_equality_is_order_sensitive(self):
        assert Alphabet("ab") == Alphabet("ab")
        assert Alphabet("ab") != Alphabet("ba")

    def test_word_constructor(self):
        assert Alphabet("ab").word("ab").chars == "ab"


class TestWord:
    def test_rejects_foreign_symbols(self):
        with pytest.raises(ValueError):
            Word("abc", BINARY)

    def test_sequence_protocol(self):
        w = bw("aab")
        assert len(w) == 3
        assert w[1] == "a"
        assert list(w) == ["a", "a", "b"]
        assert str(w) == "aab"

    def test_empty_word_is_allowed(self):
        assert len(Word("", BINARY)) == 0

    def test_foreign_symbols_are_listed_sorted(self):
        cases = [
            ("abczyx", BINARY, "['c', 'x', 'y', 'z']"),
            ("a\u00c3\u00a9b", BINARY, "['©', 'Ã']"),
            ("a\U0001f600b", BINARY, "['😀']"),
            ("\U0001f600a\U0001f601", Alphabet("\U0001f600b"), "['a', '😁']"),
        ]
        for chars, alphabet, listed in cases:
            with pytest.raises(ValueError) as caught:
                Word(chars, alphabet)
            expected = f"word uses symbols {listed} outside alphabet {alphabet.symbols!r}"
            assert str(caught.value) == expected

    def test_non_ascii_and_astral_symbols_are_accepted(self):
        for symbols in ("\u00c3\u00a9a", "\U0001f600\U0001f601", "\ud800a"):
            alphabet = Alphabet(symbols)
            chars = symbols * 3 + symbols[::-1]
            assert Word(chars, alphabet).chars == chars


class TestBorderArray:
    def test_aab(self):
        assert border_array(bw("aab")) == [0, 1, 0]

    def test_unary(self):
        assert border_array(bw("aaaa")) == [0, 1, 2, 3]

    def test_abaab(self):
        assert border_array(bw("abaab")) == [0, 0, 1, 1, 2]

    def test_empty(self):
        assert border_array(Word("", BINARY)) == []

    @given(binary_words)
    def test_entries_are_genuine_borders(self, w):
        table = border_array(w)
        s = w.chars
        for i, b in enumerate(table):
            assert 0 <= b <= i
            assert s[:b] == s[i + 1 - b : i + 1]
            # longest: one longer is not a border
            if b + 1 <= i:
                assert s[: b + 1] != s[i - b : i + 1]

    def test_linear_time_slope(self):
        # doubling sizes 2^12..2^20; empirical log-log exponent stays near 1
        import random

        points = []
        for exp in range(12, 21):
            n = 1 << exp
            s = "".join(random.Random(exp).choices("ab", k=n))
            w = Word(s, BINARY)
            trials = []
            for _ in range(2):
                started = time.perf_counter()
                border_array(w)
                trials.append(time.perf_counter() - started)
            points.append((n, min(trials)))
        assert loglog_slope(points) <= 1.2


def _primitive_by_divisors(s: str) -> bool:
    n = len(s)
    for d in range(1, n):
        if n % d == 0 and s[:d] * (n // d) == s:
            return False
    return True


class TestIsPrimitive:
    def test_fixtures(self):
        assert is_primitive(bw("abab")) is False
        assert is_primitive(bw("a")) is True
        assert is_primitive(bw("aabaa")) is True

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            is_primitive(Word("", BINARY))

    def test_agrees_with_divisor_oracle_binary_up_to_14(self):
        for w in all_words(BINARY, 1, 14):
            assert is_primitive(w) == _primitive_by_divisors(w.chars), w.chars

    def test_reversal_invariance_exhaustive(self):
        for alphabet, top in ((BINARY, 12), (TERNARY, 12)):
            for w in all_words(alphabet, 1, top):
                assert is_primitive(w) == is_primitive(reverse(w)), w.chars

    def test_rotation_invariance_binary_up_to_12(self):
        for w in all_words(BINARY, 1, 12):
            value = is_primitive(w)
            for i in range(len(w)):
                assert is_primitive(rotate(w, i)) == value, (w.chars, i)


class TestPrimitiveRoot:
    def test_fixtures(self):
        root, exponent = primitive_root(bw("abab"))
        assert (root.chars, exponent) == ("ab", 2)
        root, exponent = primitive_root(bw("aaa"))
        assert (root.chars, exponent) == ("a", 3)
        root, exponent = primitive_root(bw("aabaab"))
        assert (root.chars, exponent) == ("aab", 2)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            primitive_root(Word("", BINARY))

    @given(binary_words)
    def test_reconstruction_and_primitivity(self, w):
        root, exponent = primitive_root(w)
        assert root.chars * exponent == w.chars
        assert is_primitive(root)
        assert (exponent == 1) == is_primitive(w)


def _root_by_find(s: str) -> int:
    return (s + s).find(s, 1)


def _spread(divisors: list[int]) -> list[int]:
    return sorted(set(divisors[:8] + divisors[-8:]))


def _near_powers(n: int, symbols: str, rng: random.Random) -> list[str]:
    """u^m of length n for divisors |u| of n, u^m with one letter deleted for
    divisors |u| <= (n+1)/2 of n+1, (ab)^k b-like words, a^n and a^(n-1) b."""
    a, b = symbols[0], symbols[1]
    words = [a * n, a * (n - 1) + b]
    alternating = ((a + b) * n)[: n - 1]
    words += [alternating + b, alternating + a]
    for d in _spread([d for d in range(1, n + 1) if n % d == 0]):
        words.append("".join(rng.choices(symbols, k=d)) * (n // d))
    for d in _spread([d for d in range(1, (n + 1) // 2 + 1) if (n + 1) % d == 0]):
        full = "".join(rng.choices(symbols, k=d)) * ((n + 1) // d)
        cut = rng.randrange(n + 1)
        words.append(full[:cut] + full[cut + 1 :])
    return words


class TestRootLength:
    """``_root_length`` (rotation compares over the primes of n) against the
    independent ``(s + s).find(s, 1)``."""

    def test_exhaustive_binary_up_to_14_and_ternary_up_to_9(self):
        for symbols, longest in (("ab", 14), ("abc", 9)):
            for s in all_strings(symbols, 1, longest):
                assert _root_length(s) == _root_by_find(s), s

    # 1, primes (1999 lies below CPython's two-way search threshold, where
    # find is slow on near-powers), 2001, 2^12 - 1, 65520 and 720720 (many
    # divisors), and 2^19
    @pytest.mark.parametrize("n", [1, 7919, 1999, 2001, 4095, 65520, 720720, 1 << 19])
    @pytest.mark.parametrize("symbols", ["ab", "abc", "\U0001f600\U00010000\uffff"])
    def test_near_powers_match_find(self, n, symbols):
        rng = random.Random(n)
        for s in _near_powers(n, symbols, rng):
            assert len(s) == n
            assert _root_length(s) == _root_by_find(s), (n, s[:40])

    def test_astral_codepoints_exhaustive(self):
        for s in all_strings("\U0001f600\U0010ffffa", 1, 8):
            assert _root_length(s) == _root_by_find(s), s


class TestRotate:
    def test_fixtures(self):
        assert rotate(bw("aab"), 1).chars == "aba"
        assert rotate(bw("aab"), 0).chars == "aab"
        assert rotate(bw("abba"), 2).chars == "baab"

    def test_full_rotation_is_identity(self):
        assert rotate(bw("aab"), 3).chars == "aab"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rotate(bw("aab"), 4)
        with pytest.raises(ValueError):
            rotate(bw("aab"), -1)

    @given(binary_words, st.integers(min_value=0, max_value=96))
    def test_rotation_composes(self, w, i):
        i %= len(w) + 1
        assert rotate(w, i).chars == w.chars[i:] + w.chars[:i]


class TestReverse:
    def test_fixtures(self):
        assert reverse(bw("aab")).chars == "baa"
        assert reverse(Word("", BINARY)).chars == ""
        assert reverse(bw("abba")).chars == "abba"

    @given(binary_words)
    def test_involutive(self, w):
        assert reverse(reverse(w)) == w


class TestInsert:
    def test_fixtures(self):
        assert insert(bw("ab"), 1, "a").chars == "aab"
        assert insert(bw("aab"), 1, "b").chars == "abab"
        assert insert(Word("", BINARY), 0, "a").chars == "a"

    def test_append_position(self):
        assert insert(bw("ab"), 2, "b").chars == "abb"

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            insert(bw("ab"), 3, "a")

    def test_foreign_symbol(self):
        with pytest.raises(ValueError):
            insert(bw("ab"), 0, "c")


class TestWordsOfLength:
    def test_count_and_order(self):
        words = [w.chars for w in words_of_length(3, BINARY)]
        assert len(words) == 8
        assert words == sorted(words)
        assert words[0] == "aaa" and words[-1] == "bbb"

    def test_zero_length(self):
        assert [w.chars for w in words_of_length(0, BINARY)] == [""]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(words_of_length(-1, BINARY))
