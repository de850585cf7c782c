import math
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
)
from hypothesis import given
from hypothesis import strategies as st

from insrobust import (
    Alphabet,
    DensityGuaranteeError,
    InsertionWitness,
    Verdict,
    Word,
    classify_fast,
    classify_oracle,
    density_extension,
    eligible_periods,
    insert,
    is_primitive,
    non_ins_robust_decomposition,
    primitive_root,
    rotate,
    reverse,
)
from insrobust import classify as classify_module
from insrobust.words import _prime_factorization

ternary_words = st.text(alphabet="abc", min_size=1, max_size=24).map(
    lambda s: Word(s, TERNARY)
)


def bw(chars: str) -> Word:
    return Word(chars, BINARY)


class TestEligiblePeriods:
    def test_values(self):
        assert eligible_periods(3) == (1, 2)
        assert eligible_periods(4) == (1,)
        assert eligible_periods(5) == (1, 2, 3)
        assert eligible_periods(1) == (1,)

    @given(st.integers(min_value=1, max_value=2000))
    def test_characterization(self, n):
        periods = eligible_periods(n)
        assert list(periods) == [p for p in range(1, n + 1) if (n + 1) % p == 0]
        # every candidate yields a power of exponent >= 2
        assert all((n + 1) // p >= 2 for p in periods)


class TestClassifyOracle:
    def test_abba_ins_robust(self):
        assert classify_oracle(bw("abba")).verdict is Verdict.INS_ROBUST

    def test_aab_witnesses(self):
        result = classify_oracle(bw("aab"))
        assert result.verdict is Verdict.NON_INS_ROBUST
        entries = [
            (wit.position, wit.letter, wit.root.chars, wit.power)
            for wit in result.witnesses
        ]
        assert (1, "b", "ab", 2) in entries
        # witnesses come back sorted by position, then letter
        keys = [(wit.position, wit.letter) for wit in result.witnesses]
        assert keys == sorted(keys)

    def test_abab_non_primitive(self):
        result = classify_oracle(bw("abab"))
        assert result.verdict is Verdict.NON_PRIMITIVE
        assert result.root.chars == "ab"
        assert result.exponent == 2

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            classify_oracle(Word("", BINARY))
        with pytest.raises(ValueError):
            classify_oracle(Word("aaa", Alphabet("a")))

    def test_single_letters_are_fragile(self):
        for alphabet in (BINARY, TERNARY):
            for letter in alphabet:
                result = classify_oracle(Word(letter, alphabet))
                assert result.verdict is Verdict.NON_INS_ROBUST


class TestClassifyFast:
    def test_fixture_verdicts(self):
        assert classify_fast(bw("abba")).verdict is Verdict.INS_ROBUST
        assert classify_fast(bw("aabaa")).verdict is Verdict.NON_INS_ROBUST
        result = classify_fast(bw("abab"))
        assert result.verdict is Verdict.NON_PRIMITIVE
        assert (result.root.chars, result.exponent) == ("ab", 2)

    def test_aab_witness_is_deterministic(self):
        (wit,) = classify_fast(bw("aab")).witnesses
        assert (wit.position, wit.letter, wit.root.chars, wit.power) == (1, "b", "ab", 2)

    def test_aabaa_witness_smallest_period_leftmost(self):
        # candidate periods of 6 are scanned ascending; p=3 hits first at offset 0
        (wit,) = classify_fast(bw("aabaa")).witnesses
        assert (wit.position, wit.letter, wit.root.chars, wit.power) == (0, "b", "baa", 2)
        assert insert(bw("aabaa"), wit.position, wit.letter).chars == "baabaa"

    def test_every_primitive_length4_word_is_robust(self):
        for w in all_words(BINARY, 4, 4):
            if is_primitive(w):
                assert classify_fast(w).verdict is Verdict.INS_ROBUST

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            classify_fast(Word("", BINARY))
        with pytest.raises(ValueError):
            classify_fast(Word("aaa", Alphabet("a")))

    def test_single_letter(self):
        result = classify_fast(Word("b", BINARY))
        assert result.verdict is Verdict.NON_INS_ROBUST
        (wit,) = result.witnesses
        assert (wit.position, wit.letter, wit.root.chars, wit.power) == (0, "b", "b", 2)

    def test_verdicts_match_oracle_exhaustive_binary_up_to_11(self):
        for w in all_words(BINARY, 1, 11):
            assert classify_fast(w).verdict is classify_oracle(w).verdict, w.chars

    @given(ternary_words)
    def test_verdicts_match_oracle_random_ternary(self, w):
        assert classify_fast(w).verdict is classify_oracle(w).verdict

    @given(ternary_words)
    def test_fast_witness_is_valid(self, w):
        result = classify_fast(w)
        if result.verdict is not Verdict.NON_INS_ROBUST:
            return
        (wit,) = result.witnesses
        extended = insert(w, wit.position, wit.letter)
        assert wit.root.chars * wit.power == extended.chars
        assert is_primitive(wit.root)
        assert wit.power >= 2
        assert (len(w) + 1) % len(wit.root) == 0
        assert len(wit.root) <= len(w)


class TestWitnessInvariants:
    def test_every_oracle_witness_is_valid_binary_up_to_9(self):
        for w in all_words(BINARY, 1, 9):
            result = classify_oracle(w)
            if result.verdict is not Verdict.NON_INS_ROBUST:
                continue
            for wit in result.witnesses:
                extended = insert(w, wit.position, wit.letter)
                root, power = primitive_root(extended)
                assert root == wit.root and power == wit.power
                assert power >= 2
                assert (len(w) + 1) % len(wit.root) == 0
                assert len(wit.root) <= len(w)


class TestVerdictInvariance:
    def test_rotation_and_reversal_binary_up_to_9(self):
        for w in all_words(BINARY, 1, 9):
            verdict = classify_fast(w).verdict
            assert classify_fast(reverse(w)).verdict is verdict, w.chars
            for i in range(len(w)):
                assert classify_fast(rotate(w, i)).verdict is verdict, (w.chars, i)


def _has_cyclic_power_form(w: Word) -> bool:
    # some rotation equals u^k · u' with u = u'·a and k >= 1
    s = w.chars
    n = len(s)
    for i in range(n):
        r = s[i:] + s[:i]
        for p in range(1, n + 1):
            if (n + 1) % p:
                continue
            k = (n + 1) // p - 1
            if k < 1:
                continue
            if (r[:p] * (k + 1))[: n] == r:
                return True
    return False


class TestCyclicForm:
    def test_fragile_iff_cyclic_power_form_binary_up_to_12(self):
        for w in all_words(BINARY, 1, 12):
            if not is_primitive(w):
                continue
            fragile = classify_fast(w).verdict is Verdict.NON_INS_ROBUST
            assert fragile == _has_cyclic_power_form(w), w.chars


class TestDensityExtension:
    def test_fixtures(self):
        assert density_extension(bw("a")) == "b"
        assert density_extension(bw("baab")) == "b"
        assert density_extension(bw("ab")) == "a"

    def test_baab_first_letter_fails_via_cube(self):
        padded = Word("baab" + "a" * 4, BINARY)
        result = classify_fast(padded)
        assert result.verdict is Verdict.NON_INS_ROBUST
        assert insert(padded, 6, "b").chars == "baa" * 3

    def test_returned_letter_verifies(self):
        for w in all_words(TERNARY, 1, 5):
            letter = density_extension(w)
            padded = Word(w.chars + letter * len(w), w.alphabet)
            assert classify_fast(padded).verdict is Verdict.INS_ROBUST

    def test_at_most_one_letter_fails_small(self):
        for alphabet in (BINARY, TERNARY):
            for w in all_words(alphabet, 1, 7):
                n = len(w)
                failures = sum(
                    1
                    for letter in alphabet
                    if classify_fast(Word(w.chars + letter * n, alphabet)).verdict
                    is not Verdict.INS_ROBUST
                )
                assert failures <= 1, w.chars

    def test_error_type_exists(self):
        assert issubclass(DensityGuaranteeError, RuntimeError)


class TestDecomposition:
    def test_aab(self):
        witness = InsertionWitness(1, "b", bw("ab"), 2)
        r, u1, u2, s = non_ins_robust_decomposition(bw("aab"), witness)
        assert (r, u1.chars, u2.chars, s) == (0, "a", "", 1)

    def test_aabaa(self):
        witness = InsertionWitness(5, "b", bw("aab"), 2)
        r, u1, u2, s = non_ins_robust_decomposition(bw("aabaa"), witness)
        assert (r, u1.chars, u2.chars, s) == (1, "aa", "", 0)

    def test_aba(self):
        witness = InsertionWitness(3, "b", bw("ab"), 2)
        r, u1, u2, s = non_ins_robust_decomposition(bw("aba"), witness)
        assert (r, u1.chars, u2.chars, s) == (1, "a", "", 0)

    def test_reconstruction_properties(self):
        w = bw("aabaa")
        witness = InsertionWitness(5, "b", bw("aab"), 2)
        r, u1, u2, s = non_ins_robust_decomposition(w, witness)
        root = witness.root.chars
        assert root * r + u1.chars + u2.chars + root * s == w.chars
        assert u1.chars + witness.letter + u2.chars == root
        assert r + s + 1 == witness.power
        assert r + s >= 1

    def test_invalid_witness_rejected(self):
        with pytest.raises(ValueError):
            non_ins_robust_decomposition(bw("aab"), InsertionWitness(1, "b", bw("ba"), 2))
        with pytest.raises(ValueError):
            non_ins_robust_decomposition(bw("aab"), InsertionWitness(0, "b", bw("ab"), 2))
        with pytest.raises(ValueError):
            non_ins_robust_decomposition(bw("aab"), InsertionWitness(1, "b", bw("ab"), 3))
        with pytest.raises(ValueError):
            # claimed root "abab" rebuilds insert("bababab", 0, "a") but is not primitive
            non_ins_robust_decomposition(
                bw("bababab"), InsertionWitness(0, "a", bw("abab"), 2)
            )

    def test_every_fast_witness_decomposes_binary_up_to_10(self):
        for w in all_words(BINARY, 1, 10):
            result = classify_fast(w)
            if result.verdict is not Verdict.NON_INS_ROBUST:
                continue
            (wit,) = result.witnesses
            r, u1, u2, s = non_ins_robust_decomposition(w, wit)
            root = wit.root.chars
            assert root * r + u1.chars + u2.chars + root * s == w.chars
            assert u1.chars + wit.letter + u2.chars == root


class TestPaddingFailureShape:
    def test_fragile_paddings_factor_as_square_plus_tail(self):
        # for w containing a 'b', if w·a^n is primitive but fragile then it
        # splits as u·u·a^(|u|-1) with u carrying exactly one 'b'
        for n in range(1, 11):
            for w in all_words(BINARY, n, n):
                if "b" not in w.chars:
                    continue
                padded = Word(w.chars + "a" * n, BINARY)
                if classify_fast(padded).verdict is not Verdict.NON_INS_ROBUST:
                    continue
                total = 2 * n
                assert (total + 1) % 3 == 0, w.chars
                p = (total + 1) // 3
                u = padded.chars[:p]
                assert padded.chars == u + u + "a" * (p - 1), w.chars
                assert sum(1 for ch in u if ch != "a") == 1, w.chars


def _spread_periods(n: int) -> list[int]:
    # the smallest, a middle and the largest eligible period of at least 2
    periods = [p for p in eligible_periods(n) if 2 <= p <= (n + 1) // 2]
    return sorted({periods[0], periods[len(periods) // 2], periods[-1]})


def _assert_fast_matches_oracle(w: Word, fragile: bool = False) -> None:
    fast = classify_fast(w)
    oracle = classify_oracle(w)
    assert fast.verdict is oracle.verdict, w.chars
    assert not fragile or fast.verdict is Verdict.NON_INS_ROBUST, w.chars
    if fast.verdict is not Verdict.NON_INS_ROBUST:
        return
    # witness contract: smallest root length, then leftmost position
    (wit,) = fast.witnesses
    assert wit == min(oracle.witnesses, key=lambda o: (len(o.root), o.position))
    copies, u1, u2, trailing = non_ins_robust_decomposition(w, wit)
    root = wit.root.chars
    assert root * copies + u1.chars + u2.chars + root * trailing == w.chars
    assert u1.chars + wit.letter + u2.chars == root


class TestFragileAtScale:
    """Built fragile words at n from 31 to 4097, over every kind of n+1.

    Random words are almost always ins-robust, so only built words reach the
    witness branch at these lengths.  The codepoint alphabet holds symbols
    above U+00FF that differ only in their low byte.
    """

    # n+1: prime powers 2^5, 3^5, 2^10; highly composite 36, 360, 720, 840
    LENGTHS = (31, 242, 1023, 35, 359, 719, 839)

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY, CODEPOINTS], ids=repr)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_built_fragile_words(self, n, alphabet):
        rng = random.Random(n)
        for period in _spread_periods(n):
            _assert_fast_matches_oracle(fragile_word(n, alphabet, period, rng), fragile=True)

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY, CODEPOINTS], ids=repr)
    @pytest.mark.parametrize("n", (4095, 4097))  # n+1 = 2^12 and 2 3 683
    def test_around_former_vector_threshold(self, n, alphabet):
        # one middle period each: the oracle costs ~0.4 s a word here
        rng = random.Random(n)
        periods = _spread_periods(n)
        w = fragile_word(n, alphabet, periods[len(periods) // 2], rng)
        _assert_fast_matches_oracle(w, fragile=True)

    def test_codepoint_window_off_the_symbol_grid(self):
        # short fragile words over symbols that differ only in their low byte
        for chars in ("\u0100\u0100\u0101", "\u0101\u0100\u0100\u0101\u0100"):
            _assert_fast_matches_oracle(Word(chars, CODEPOINTS), fragile=True)

    def test_lone_surrogates_are_symbols(self):
        # a str may hold lone surrogates, and each is one symbol
        alphabet = Alphabet("\ud800a")
        for w in all_words(alphabet, 1, 6):
            _assert_fast_matches_oracle(w)

    def test_exhaustive_codepoints_up_to_7(self):
        for w in all_words(CODEPOINTS, 1, 7):
            _assert_fast_matches_oracle(w)


def _full_scan(s: str, periods: tuple[int, ...]) -> tuple[int, int] | None:
    """Reference: one gap reading per period, in ascending order."""
    for p in periods:
        i = leftmost_by_gaps(s, p)
        if i is not None:
            return p, i
    return None


def _maximal_periods(n: int) -> tuple[int, ...]:
    return tuple(sorted((n + 1) // q for q, _ in _prime_factorization(n + 1)))


def _hit_and_plan(s: str):
    n = len(s)
    return classify_module._first_hit(s), eligible_periods(n), _maximal_periods(n)


class TestHitGuidedScan:
    """``_first_hit`` decides only the maximal periods (n+1)/q and reads the
    smallest period off the root length of one window of each that hits; it
    must return what the full ascending scan does."""

    def test_maximal_periods(self):
        # the maximal periods (n+1)/q come from the cached factorization of n+1
        assert _maximal_periods(719) == (144, 240, 360)
        assert _prime_factorization(720_720) == ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))
        assert _prime_factorization(1) == ()
        for n in range(1, 400):
            m = n + 1
            primes = [
                q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, q))
            ]
            factors = _prime_factorization(m)
            assert [q for q, _ in factors] == primes, m
            assert math.prod(q**e for q, e in factors) == m, m
            assert all(m % q ** (e + 1) for q, e in factors), m
            assert _maximal_periods(n) == tuple(sorted(m // q for q in primes)), n

    def test_matches_full_scan_exhaustive(self):
        for symbols, longest in (("ab", 14), ("abc", 8)):
            for s in all_strings(symbols, 1, longest):
                hit, periods, _ = _hit_and_plan(s)
                assert hit == _full_scan(s, periods), s

    @pytest.mark.parametrize("alphabet", [BINARY, TERNARY, CODEPOINTS], ids=repr)
    def test_matches_full_scan_when_several_maximal_periods_hit(self, alphabet):
        # n+1 = 720 = 2^4 3^2 5: a word built on p = 120 also hits the maximal
        # periods 240 and 360, and the first maximal period to hit is not p
        rng = random.Random(719)
        for period in [p for p in eligible_periods(719) if 2 <= p <= 360]:
            w = fragile_word(719, alphabet, period, rng)
            hit, periods, _ = _hit_and_plan(w.chars)
            assert hit == _full_scan(w.chars, periods), (period, w.chars)
        w = fragile_word(719, alphabet, 120, rng)
        hit, _, maximal = _hit_and_plan(w.chars)
        assert hit[0] == 120
        assert [q for q in maximal if q % 120 == 0] == [240, 360]

    def test_matches_full_scan_at_a_hard_length(self):
        # n+1 = 720720 = 2^4 3^2 5 7 11 13 and p = 120120 = (n+1)/6, so the
        # maximal periods 240240 and 360360 must both hit and p is no maximal
        # period.  The ascending reference would read ~200 periods here, so
        # this checks the maximal ones, each a linear pass, and takes the
        # root length of each window where one hits by the search of (u+u),
        # not by the rotation compares the fast path uses.
        w = fragile_word(720_719, BINARY, 120_120, random.Random(6))
        s = w.chars
        hit, _, maximal = _hit_and_plan(s)
        starts = {p: leftmost_by_gaps(s, p) for p in maximal}
        assert {p for p, i in starts.items() if i is not None} == {240_240, 360_360}
        assert hit == _least_root_and_start(s, starts)
        assert hit == (120_120, leftmost_by_gaps(s, 120_120))
        assert hit[0] not in maximal


def _least_root_and_start(s: str, starts: dict) -> tuple[int, int]:
    """The least (root length of u, start) over the periods P with a start
    i, u the P symbols of ss at i, each root by (u+u).find(u, 1)."""
    ss = s + s
    pairs = []
    for p, i in starts.items():
        if i is not None:
            u = ss[i : i + p]
            pairs.append(((u + u).find(u, 1), i))
    return min(pairs)


def _count_scans(monkeypatch, w: Word):
    """classify_fast(w), each (period, start) decided, and the number of gap
    extensions (each starts with one forward ``_lce``), where a block agreed
    with the rotation."""
    decided, extended = [], []
    real_decide = classify_module._leftmost_periodic_start
    real_lce = classify_module._lce

    def counted_decide(s, n, p):
        start = real_decide(s, n, p)
        decided.append((p, start))
        return start

    def counted_lce(*args):
        extended.append(args)
        return real_lce(*args)

    with monkeypatch.context() as patch:
        patch.setattr(classify_module, "_leftmost_periodic_start", counted_decide)
        patch.setattr(classify_module, "_lce", counted_lce)
        result = classify_fast(w)
    return result, decided, len(extended)


class TestScanCount:
    """Work per word follows ω(n+1), the number of primes of n+1."""

    @pytest.mark.parametrize("n, omega", [(720_719, 6), (1_000_000, 2)])
    def test_robust_word_costs_omega_scans(self, monkeypatch, n, omega):
        # block compares rule out every maximal period of a random word, so
        # it costs ω(n+1) decisions and no gap extension
        rng = random.Random(n)
        w = bw("".join(rng.choices("ab", k=n)))
        result, decided, extended = _count_scans(monkeypatch, w)
        assert result.verdict is Verdict.INS_ROBUST
        assert sorted(decided) == [(p, None) for p in _maximal_periods(n)]
        assert len(decided) == omega
        assert extended == 0

    def test_fragile_word_at_a_hard_length(self, monkeypatch):
        # u^11 with one letter deleted: n+1 = 997920 = 2^5 3^4 5 7 11, |u| = 90720
        n, period = 997_919, 90_720
        rng = random.Random(n)
        full = "".join(rng.choices("ab", k=period)) * 11
        cut = rng.randrange(n + 1)
        w = bw(full[:cut] + full[cut + 1 :])
        result, decided, _ = _count_scans(monkeypatch, w)
        assert result.verdict is Verdict.NON_INS_ROBUST
        # each maximal period is decided once, and only the period built in
        # gets a start, the reference's
        expected = (period, leftmost_by_gaps(w.chars, period))
        assert sorted(p for p, _ in decided) == list(_maximal_periods(n))
        assert [(p, i) for p, i in decided if i is not None] == [expected]
        assert _least_root_and_start(w.chars, dict([expected])) == expected
        (wit,) = result.witnesses
        assert (len(wit.root), wit.position) == expected
        assert insert(w, wit.position, wit.letter).chars == wit.root.chars * wit.power
