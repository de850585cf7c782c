import itertools

import pytest
from conftest import BINARY, TERNARY, all_strings
from hypothesis import given
from hypothesis import strategies as st

from insrobust import (
    Alphabet,
    BudgetExceededError,
    Classification,
    Verdict,
    Word,
    census,
    classify,
    count_primitive,
    count_report,
    counting,
    is_primitive,
)
from insrobust.cli import main


class TestCountPrimitive:
    def test_length_one(self):
        for k in (1, 2, 5, 26):
            assert count_primitive(1, k) == k

    def test_anchors(self):
        assert count_primitive(4, 2) == 12
        assert count_primitive(6, 2) == 54

    def test_primes_collapse_to_two_terms(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for k in (2, 3, 26):
                assert count_primitive(p, k) == k**p - k

    def test_divisor_sum_reconstructs_total(self):
        for k in range(1, 5):
            for n in range(1, 21):
                sigma = sum(count_primitive(d, k) for d in range(1, n + 1) if n % d == 0)
                assert sigma == k**n

    def test_matches_exhaustive_tally_binary(self):
        for n in range(1, 13):
            tally = sum(
                1 for s in all_strings("ab", n, n) if is_primitive(Word(s, BINARY))
            )
            assert count_primitive(n, 2) == tally

    def test_arbitrary_precision(self):
        value = count_primitive(257, 2)
        assert value == 2**257 - 2  # 257 is prime; far beyond 64-bit range

    def test_validation(self):
        with pytest.raises(ValueError):
            count_primitive(0, 2)
        with pytest.raises(ValueError):
            count_primitive(3, 0)

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=6))
    def test_bounded_by_total(self, n, k):
        value = count_primitive(n, k)
        assert 0 <= value <= k**n


class TestCountReport:
    def test_fixture_2_2(self):
        report = count_report(2, 2)
        assert report.non_ins_robust_upper == 0
        assert report.ins_robust_lower == 2
        assert not report.vacuous

    def test_fixture_4_2(self):
        report = count_report(4, 2)
        assert report.non_ins_robust_upper == 0
        assert report.ins_robust_lower == 12

    def test_fixture_3_2_vacuous(self):
        report = count_report(3, 2)
        assert report.non_ins_robust_upper == 8
        assert report.ins_robust_lower == -2
        assert report.vacuous

    def test_internal_consistency(self):
        for n in range(2, 20):
            for k in (2, 3, 4):
                report = count_report(n, k)
                assert report.total == report.primitive + report.non_primitive
                assert report.ins_robust_lower == report.primitive - report.non_ins_robust_upper
                assert report.total == k**n

    def test_validation(self):
        with pytest.raises(ValueError):
            count_report(1, 2)
        with pytest.raises(ValueError):
            count_report(4, 1)


class TestCensus:
    def test_fixture_3_2(self):
        report = census(3, BINARY, list_words=True)
        assert (report.non_primitive, report.ins_robust, report.non_ins_robust) == (2, 0, 6)
        assert report.words[Verdict.NON_PRIMITIVE] == ("aaa", "bbb")

    def test_fixture_4_2(self):
        report = census(4, BINARY)
        assert (report.non_primitive, report.ins_robust, report.non_ins_robust) == (4, 12, 0)
        assert report.words is None

    def test_fixture_1_2_lists(self):
        report = census(1, BINARY, list_words=True)
        assert (report.non_primitive, report.ins_robust, report.non_ins_robust) == (0, 0, 2)
        assert report.words[Verdict.NON_INS_ROBUST] == ("a", "b")
        assert report.words[Verdict.INS_ROBUST] == ()

    def test_totals_and_cross_check(self):
        for n in range(1, 11):
            report = census(n, BINARY)
            assert report.total == 2**n
            assert report.non_primitive == 2**n - count_primitive(n, 2)

    def test_word_lists_are_sorted(self):
        report = census(5, TERNARY, list_words=True)
        for verdict in Verdict:
            entries = report.words[verdict]
            assert list(entries) == sorted(entries)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            census(30, BINARY)
        with pytest.raises(BudgetExceededError):
            census(5, BINARY, budget=10)
        # k^n is named, not printed: 2^15000 has more digits than str(int) allows
        with pytest.raises(BudgetExceededError, match=r"2\^15000"):
            census(15000, BINARY)
        # a budget that exactly fits passes
        assert census(5, BINARY, budget=32).total == 32

    def test_oracle_audit_passes(self):
        report = census(6, BINARY, audit_oracle=True)
        assert report.total == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            census(0, BINARY)
        with pytest.raises(ValueError):
            census(3, Alphabet("a"))


def _tallies(report):
    return (report.non_primitive, report.ins_robust, report.non_ins_robust)


def _rotations(word):
    return {word[i:] + word[:i] for i in range(len(word))}


def _classified_words(n, symbols):
    """Every word of length n, in lexicographic order, grouped by the verdict
    of the fast classifier: a reference that does not use the construction."""
    words = {verdict: [] for verdict in Verdict}
    for letters in itertools.product(symbols, repeat=n):
        s = "".join(letters)
        words[classify._fast_verdict_chars(s)].append(s)
    return words


class TestFragileByConstruction:
    """Censuses take every verdict from the rotation classes of the primitive
    prefixes (u^q)[:n], so these tests check them against the fast
    classifier, word by word."""

    @pytest.mark.parametrize(
        ("symbols", "max_n"), [("ab", 16), ("abc", 10), ("abcd", 7), ("ĀāĂ", 8)]
    )
    def test_tallies_equal_enumeration(self, symbols, max_n):
        alphabet = Alphabet(symbols)
        for n in range(1, max_n + 1):
            classified = _classified_words(n, symbols)
            constructed = census(n, alphabet)
            listed = census(n, alphabet, list_words=True)
            assert _tallies(constructed) == tuple(map(len, classified.values())), n
            assert listed.words == {v: tuple(w) for v, w in classified.items()}, n
            if n > 1 and all((n + 1) % d for d in range(2, n + 1)):
                assert constructed.non_ins_robust == 0  # n + 1 is prime

    @pytest.mark.parametrize(("symbols", "max_n"), [("ab", 12), ("abc", 7)])
    def test_classes_expand_to_the_fragile_words(self, symbols, max_n):
        for n in range(1, max_n + 1):
            classes = counting._fragile_classes(n, symbols)
            expanded = set().union(*map(_rotations, classes))
            fragile = _classified_words(n, symbols)[Verdict.NON_INS_ROBUST]
            assert expanded == set(fragile), n
            assert len(expanded) == n * len(classes)

    def test_pinned_points_without_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a tallies-only census enumerated words")

        monkeypatch.setattr(counting, "_enumerate", refuse)
        assert _tallies(census(17, BINARY)) == (2, 126_276, 4_794)
        assert _tallies(census(11, TERNARY)) == (3, 171_270, 5_874)
        assert census(20, BINARY).non_ins_robust == 1_360
        with pytest.raises(AssertionError):
            census(6, BINARY, list_words=True)

    @pytest.mark.parametrize(
        "options",
        [{}, {"list_words": True}, {"audit_oracle": True}],
        ids=["tallies", "list", "audit"],
    )
    def test_classes_are_built_once(self, monkeypatch, options):
        classes = counting._fragile_classes
        calls = []

        def counted(n, symbols):
            calls.append((n, symbols))
            return classes(n, symbols)

        monkeypatch.setattr(counting, "_fragile_classes", counted)
        assert _tallies(census(8, BINARY, **options)) == (16, 208, 32)
        assert calls == [(8, "ab")]

    def test_oracle_audit_catches_a_wrong_construction(self, monkeypatch, capsys):
        constructed = counting._constructed_counts

        def off_by_one(*args):
            counts = constructed(*args)
            counts[Verdict.NON_INS_ROBUST] += 1
            counts[Verdict.INS_ROBUST] -= 1
            return counts

        assert main(["census", "6", "2", "--oracle"]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(counting, "_constructed_counts", off_by_one)
            assert main(["census", "6", "2", "--oracle"]) == 1
            assert "constructed tallies" in capsys.readouterr().err

        classes = counting._fragile_classes
        lost = min(classes(8, "ab"))

        def one_class_lost(n, symbols):
            return classes(n, symbols) - {lost}

        # the first word of the lost class is its least rotation
        with monkeypatch.context() as patch:
            patch.setattr(counting, "_fragile_classes", one_class_lost)
            assert main(["census", "8", "2", "--oracle"]) == 1
            err = capsys.readouterr().err
            assert f"{lost!r} constructed=ins-robust fast=non-ins-robust" in err

        # the audit checks both classifiers: each one's wrong verdict is reported
        wrong_verdicts = [
            ("_fast_verdict_chars", lambda s: Verdict.INS_ROBUST, "fast=ins-robust oracle=non-"),
            ("classify_oracle", lambda w: Classification.ins_robust(), "oracle=ins-robust"),
        ]
        for name, wrong, shown in wrong_verdicts:
            with monkeypatch.context() as patch:
                patch.setattr(counting, name, wrong)
                assert main(["census", "8", "2", "--oracle"]) == 1
                assert shown in capsys.readouterr().err
