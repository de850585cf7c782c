"""The per-period window decision against a linear reference.

The reference (``conftest.leftmost_by_gaps``) reads the leftmost periodic
window off the cyclic mismatch set D = {j : s[j] != s[(j+p) mod n]}: the
window of ss at i has period p iff the n-p cyclic positions from i avoid D.
It shares that argument with ``classify_fast`` but none of its code (no
blocks, no galloping extension and no maximal-period pruning), and costs
O(n) per period, so it checks the witness contract at n near 10^5, where the
insertion oracle is out of reach.
"""

import random

import pytest
from conftest import (
    BINARY,
    CODEPOINTS,
    TERNARY,
    all_strings,
    all_words,
    fragile_word,
    leftmost_by_gaps,
    mismatches,
)

from insrobust import Verdict, Word, classify_fast, classify_oracle, eligible_periods, insert
from insrobust import classify as classify_module


def _count_extensions(patch) -> list:
    """Record each gap extension from now on: each starts with one forward
    ``_lce`` call."""
    calls = []
    real = classify_module._lce

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    patch.setattr(classify_module, "_lce", counted)
    return calls


def _decide(monkeypatch, s: str, p: int) -> tuple[int | None, bool]:
    """``_leftmost_periodic_start`` for (s, p), and whether a block agreed,
    so that it extended a gap."""
    with monkeypatch.context() as patch:
        extended = _count_extensions(patch)
        start = classify_module._leftmost_periodic_start(s, len(s), p)
    return start, bool(extended)


def _reference_hit(s: str) -> tuple[int, int] | None:
    """The smallest p dividing n+1 (p <= n) with a window of period p, and the
    leftmost such window, by one reference pass per period."""
    n = len(s)
    for p in range(1, n + 1):
        if (n + 1) % p == 0:
            i = leftmost_by_gaps(s, p)
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
    def test_wrapping_gap_with_the_window_at_zero(self, monkeypatch):
        # "abbab", p = 3: D = {2, 3}, and the gap 4, 0, 1 wraps past the end;
        # the leftmost window starts at 0, not at 4
        assert mismatches("abbab", 3) == [2, 3]
        assert leftmost_by_gaps("abbab", 3) == 0
        assert _decide(monkeypatch, "abbab", 3) == (0, True)

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
    """``_leftmost_periodic_start(s, n, p)`` equals the reference, and when
    every block differs from the rotation, so that no gap is extended, it
    answers None."""

    def test_certified_periods_have_no_window_exhaustive(self, monkeypatch):
        # every (word, eligible p) pair, primitive or not; a rotation by j - p
        # instead of j + p shifts D by p and keeps its gaps, so the direction
        # cannot be wrong
        decided = {}
        extended = _count_extensions(monkeypatch)
        for symbols, longest in (("ab", 14), ("abc", 8)):
            pairs = certified = 0
            for s in all_strings(symbols, 1, longest):
                n = len(s)
                for p in eligible_periods(n):
                    start = leftmost_by_gaps(s, p)
                    extended.clear()
                    assert classify_module._leftmost_periodic_start(s, n, p) == start, (s, p)
                    pairs += 1
                    if not extended and n > p:
                        certified += 1
                        assert start is None, (s, p)
            decided[symbols] = certified, pairs
        # blocks of at most (n-p+1)//2 positions decide most pairs
        assert decided["ab"] == (75_616, 91_718)
        assert sum(pairs for _, pairs in decided.values()) == 113_006

    def test_one_more_position_per_block_is_unsound(self, monkeypatch):
        # "aab", p = 2: D = {0, 2}, and the window at 1 avoids it; blocks of
        # (n-p+1)//2 = 1 position find the match at 1, but blocks of 2
        # positions ([0, 2) and [2, 3)) would both differ
        assert mismatches("aab", 2) == [0, 2]
        assert leftmost_by_gaps("aab", 2) == 1
        assert _decide(monkeypatch, "aab", 2) == (1, True)

    def test_undecided_when_the_word_is_a_single_symbol(self, monkeypatch):
        # n = 1 and p = 1: no position has to avoid D, so the window at 0
        # fits with no block compared
        assert _decide(monkeypatch, "a", 1) == (0, False)


# n+1 = 100800 = 2^6 3^2 5^2 7: 125 eligible periods, maximal 50400, 33600,
# 20160 and 14400
N = 100_799


class TestAtScale:
    """The witness contract (smallest period, then the leftmost window) and
    the ins-robust verdict at n near 10^5, against the reference."""

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY, CODEPOINTS], ids=repr)
    def test_witness_contract_on_built_fragile_words(self, alphabet):
        # p = (n+1)/6 divides the maximal periods 50400 and 33600, so both
        # hit, and p is the root length of the windows where they do
        w = fragile_word(N, alphabet, 16_800, random.Random(len(alphabet)))
        assert _assert_fast_matches_reference(w) is not None

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY], ids=repr)
    def test_random_words_are_ins_robust(self, alphabet):
        rng = random.Random(N + len(alphabet))
        w = Word("".join(rng.choices(alphabet.symbols, k=N)), alphabet)
        assert _assert_fast_matches_reference(w) is None
