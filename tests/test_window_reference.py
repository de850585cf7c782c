"""The window scan and its block-compare certificate against a linear reference.

The reference reads the leftmost periodic window off the cyclic mismatch set
D = {j : s[j] != s[(j+p) mod n]}: the window of ss at i has period p iff the
n-p cyclic positions from i avoid D.  It shares that argument with
``classify_fast`` but none of its code (no encoding, no XOR, no
``bytes.find``, no certificate and no maximal-period pruning), and costs
O(n) per period, so it checks the witness contract at n near 10^5, where the
insertion oracle is out of reach.
"""

import random
from itertools import compress, count
from operator import ne, sub

import pytest
from conftest import BINARY, CODEPOINTS, TERNARY, all_strings, all_words, fragile_word

from insrobust import Verdict, Word, classify_fast, classify_oracle, eligible_periods, insert
from insrobust import classify as classify_module


def _mismatches(s: str, p: int) -> list[int]:
    """D for period p, ascending."""
    return list(compress(count(), map(ne, s, s[p:] + s[:p])))


def _leftmost_by_gaps(s: str, p: int) -> int | None:
    """Smallest i in [0, n] whose length-n window of ss has period p, else None."""
    n = len(s)
    need = n - p
    d = _mismatches(s, p)
    # the window at 0 fits before the first mismatch, also where the gap
    # holding it wraps past the end
    if not d or d[0] >= need:
        return 0
    gaps = list(map(sub, d[1:], d))
    if gaps and max(gaps) > need:
        return d[next(k for k, gap in enumerate(gaps) if gap > need)] + 1
    # the gap that wraps: from d[-1] + 1 through n - 1, then 0 .. d[0] - 1
    if n - d[-1] + d[0] > need:
        return d[-1] + 1
    return None


def _reference_hit(s: str) -> tuple[int, int] | None:
    """The smallest p dividing n+1 (p <= n) with a window of period p, and the
    leftmost such window, by one reference pass per period."""
    n = len(s)
    for p in range(1, n + 1):
        if (n + 1) % p == 0:
            i = _leftmost_by_gaps(s, p)
            if i is not None:
                return p, i
    return None


def _assert_fast_matches_reference(w: Word) -> tuple[int, int] | None:
    hit = _reference_hit(w.chars)
    result = classify_fast(w)
    if hit is None:
        assert result.verdict is Verdict.INS_ROBUST
        return None
    p, i = hit
    assert result.verdict is Verdict.NON_INS_ROBUST
    (wit,) = result.witnesses
    assert (len(wit.root), wit.position) == (p, i)
    assert wit.power == (len(w.chars) + 1) // p
    assert insert(w, i, wit.letter).chars == wit.root.chars * wit.power
    return hit


class TestGapReference:
    def test_wrapping_gap_with_the_window_at_zero(self):
        # "abbab", p = 3: D = {2, 3}, and the gap 4, 0, 1 wraps past the end;
        # the leftmost window starts at 0, not at 4
        assert _mismatches("abbab", 3) == [2, 3]
        assert _leftmost_by_gaps("abbab", 3) == 0
        v = classify_module._encode("abbab")
        assert classify_module._leftmost_periodic_start(v, 5, 3) == 0

    def test_matches_oracle_exhaustive(self):
        for alphabet, longest in ((BINARY, 12), (TERNARY, 7)):
            for w in all_words(alphabet, 1, longest):
                oracle = classify_oracle(w)
                if oracle.verdict is Verdict.NON_PRIMITIVE:
                    continue
                first = min(oracle.witnesses, key=lambda o: (len(o.root), o.position), default=None)
                expected = None if first is None else (len(first.root), first.position)
                assert _reference_hit(w.chars) == expected, w.chars


class TestNoWindowCertificate:
    """``_no_window(s, p)`` may answer True only when no window has period p."""

    def test_certified_periods_have_no_window_exhaustive(self):
        # every (word, eligible p) pair; a rotation by j - p instead of j + p
        # shifts D by p and keeps its gaps, so the direction cannot be wrong
        decided = {}
        for symbols, longest in (("ab", 14), ("abc", 8)):
            pairs = certified = 0
            for s in all_strings(symbols, 1, longest):
                n = len(s)
                v = classify_module._encode(s)
                for p in eligible_periods(n):
                    start = _leftmost_by_gaps(s, p)
                    assert classify_module._leftmost_periodic_start(v, n, p) == start, (s, p)
                    pairs += 1
                    if classify_module._no_window(s, p):
                        certified += 1
                        assert start is None, (s, p)
            decided[symbols] = certified, pairs
        # blocks of at most (n-p+1)//2 positions decide most pairs
        assert decided["ab"] == (75_616, 91_718)

    def test_one_more_position_per_block_is_unsound(self):
        # "aab", p = 2: D = {0, 2}, and the window at 1 avoids it; blocks of
        # (n-p+1)//2 = 1 position find the match at 1, but blocks of 2
        # positions ([0, 2) and [2, 3)) would both differ
        assert _mismatches("aab", 2) == [0, 2]
        assert _leftmost_by_gaps("aab", 2) == 1
        assert classify_module._no_window("aab", 2) is False

    def test_undecided_when_the_word_is_a_single_symbol(self):
        assert classify_module._no_window("a", 1) is False


# n+1 = 100800 = 2^6 3^2 5^2 7: 125 eligible periods, maximal 50400, 33600,
# 20160 and 14400
N = 100_799


class TestAtScale:
    """The witness contract (smallest period, then the leftmost window) and
    the ins-robust verdict at n near 10^5, against the reference."""

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY, CODEPOINTS], ids=repr)
    def test_witness_contract_on_built_fragile_words(self, alphabet):
        # p = (n+1)/6 divides the maximal periods 50400 and 33600, so both
        # must hit before the smaller periods are tried
        w = fragile_word(N, alphabet, 16_800, random.Random(len(alphabet)))
        assert _assert_fast_matches_reference(w) is not None

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY], ids=repr)
    def test_random_words_are_ins_robust(self, alphabet):
        rng = random.Random(N + len(alphabet))
        w = Word("".join(rng.choices(alphabet.symbols, k=N)), alphabet)
        assert _assert_fast_matches_reference(w) is None
