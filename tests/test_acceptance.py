"""End-to-end acceptance checks.

Each test covers one shipped guarantee and prints a single
``[acceptance] <name>: PASS|FAIL`` line (run with ``pytest -s`` to see the
lines for passing tests as well).  The checks are intentionally heavier than
the unit tests: full exhaustive sweeps, large seeded corpora, and wall-clock
budgets.
"""

import random
import time
from itertools import product
from statistics import median

from conftest import BINARY, TERNARY, all_words, loglog_slope

from insrobust import (
    Run,
    Verdict,
    Word,
    census,
    classify_fast,
    classify_oracle,
    count_primitive,
    count_report,
    eligible_periods,
    find_maximal_repetitions,
    is_primitive,
    non_ins_robust_decomposition,
    reverse,
    rotate,
    runs_bruteforce,
)


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {label}: {status}"
    if detail:
        line = f"{line} ({detail})"
    print(line, flush=True)
    assert ok, line


def _timed(w: Word) -> float:
    start = time.perf_counter()
    classify_fast(w)
    return time.perf_counter() - start


def bw(chars: str) -> Word:
    return Word(chars, BINARY)


# The two gates of a decision from the runs of ww alone, each a (start,
# length, period) set: no such decision can be right (test_09a, test_09b).
def gate_one(n: int, runs: set[tuple[int, int, int]]) -> bool:
    """Rejects w as non-primitive: some run's period properly divides |w|."""
    return any(n % p == 0 and p < n for _, _, p in runs)


def gate_two(n: int, runs: set[tuple[int, int, int]]) -> bool:
    """Rejects w as fragile: some run of length >= |w| has a period p <= |w|
    dividing |w| + 1."""
    return any(p <= n and (n + 1) % p == 0 and length >= n for _, length, p in runs)


class TestAcceptance:
    def test_01_fast_and_oracle_verdicts_agree(self):
        started = time.perf_counter()
        mismatches = []
        counts = {BINARY: 0, TERNARY: 0}
        for alphabet, max_len in ((BINARY, 14), (TERNARY, 9)):
            for w in all_words(alphabet, 1, max_len):
                counts[alphabet] += 1
                fast = classify_fast(w).verdict
                slow = classify_oracle(w).verdict
                if fast is not slow:
                    mismatches.append((w.chars, fast.value, slow.value))
        elapsed = time.perf_counter() - started
        ok = (
            not mismatches
            and counts[BINARY] == 32766
            and counts[TERNARY] == 29523
            and elapsed < 300.0
        )
        _report(
            "01 fast/oracle verdict agreement",
            ok,
            f"{counts[BINARY]} binary + {counts[TERNARY]} ternary words, "
            f"{len(mismatches)} mismatches, {elapsed:.1f}s",
        )

    def test_02_known_robust_families(self):
        words = [bw("abba")]
        words += [bw("a" * m + "b" * n) for m in range(2, 6) for n in range(2, 6)]
        wrong = [
            w.chars
            for w in words
            if classify_fast(w).verdict is not Verdict.INS_ROBUST
            or classify_oracle(w).verdict is not Verdict.INS_ROBUST
        ]
        _report(
            "02 abba and a^m b^n stay robust",
            not wrong,
            f"{len(words)} words checked" + (f", failed: {wrong}" if wrong else ""),
        )

    def test_03_decomposition_round_trip(self):
        checked = 0
        broken = []
        for w in all_words(BINARY, 1, 12):
            result = classify_fast(w)
            if result.verdict is not Verdict.NON_INS_ROBUST:
                continue
            checked += 1
            witness = result.witnesses[0]
            copies, head, tail, trailing = non_ins_robust_decomposition(w, witness)
            root = witness.root.chars
            rebuilt = root * copies + head.chars + tail.chars + root * trailing
            if (
                rebuilt != w.chars
                or head.chars + witness.letter + tail.chars != root
                or copies + trailing < 1
            ):
                broken.append(w.chars)
        _report(
            "03 non-robust decomposition round-trip",
            checked > 0 and not broken,
            f"{checked} words decomposed, {len(broken)} failures",
        )

    def test_04_rotation_and_reversal_invariance(self):
        violations = []
        for w in all_words(BINARY, 1, 12):
            verdict = classify_fast(w).verdict
            if classify_fast(reverse(w)).verdict is not verdict:
                violations.append(("rev", w.chars))
                continue
            for offset in range(1, len(w)):
                if classify_fast(rotate(w, offset)).verdict is not verdict:
                    violations.append((offset, w.chars))
                    break
        _report(
            "04 verdicts invariant under rotation/reversal",
            not violations,
            f"binary words to length 12, {len(violations)} violations",
        )

    def test_05_padding_keeps_all_but_one_letter_robust(self):
        checked = 0
        violations = []
        for alphabet in (BINARY, TERNARY):
            symbols = alphabet.symbols
            for n in range(1, 11):
                for chars in map("".join, product(symbols, repeat=n)):
                    checked += 1
                    failures = [
                        letter
                        for letter in symbols
                        if classify_fast(Word(chars + letter * n, alphabet)).verdict
                        is not Verdict.INS_ROBUST
                    ]
                    if len(failures) > 1:
                        violations.append((chars, failures))
        _report(
            "05 padding w.b^n robust for all but at most one letter",
            not violations,
            f"{checked} words padded, {len(violations)} violations",
        )

    def test_06_primitive_count_formula(self):
        anchors_ok = count_primitive(4, 2) == 12 and count_primitive(6, 2) == 54
        wrong = []
        for n in range(1, 15):
            tally = sum(1 for w in all_words(BINARY, n, n) if is_primitive(w))
            if count_primitive(n, 2) != tally:
                wrong.append((n, count_primitive(n, 2), tally))
        _report(
            "06 primitive counting formula matches tallies",
            anchors_ok and not wrong,
            "binary n <= 14, anchors 12/54" + (f", wrong: {wrong}" if wrong else ""),
        )

    def test_07_census_respects_lower_bound(self):
        failures = []
        tallies = {}
        for k, alphabet in ((2, BINARY), (3, TERNARY)):
            for n in range(2, 13):
                report = census(n, alphabet)
                tallies[(n, k)] = report.ins_robust
                if report.ins_robust < count_report(n, k).ins_robust_lower:
                    failures.append((n, k))
        equalities = (
            tallies[(2, 2)] == 2 == count_report(2, 2).ins_robust_lower
            and tallies[(4, 2)] == 12 == count_report(4, 2).ins_robust_lower
            and tallies[(3, 2)] == 0
        )
        _report(
            "07 census tallies meet the counting lower bound",
            not failures and equalities,
            f"2 <= n <= 12, k in {{2,3}}; bound failures: {failures}, "
            f"pinned tallies (2,2)={tallies[(2, 2)]} (4,2)={tallies[(4, 2)]} "
            f"(3,2)={tallies[(3, 2)]}",
        )

    def test_08_runs_match_bruteforce(self):
        mismatch = 0
        for w in all_words(BINARY, 2, 12):
            if find_maximal_repetitions(w) != runs_bruteforce(w):
                mismatch += 1
        rng = random.Random(2024)
        seeded = 0
        for _ in range(10_000):
            alphabet = BINARY if rng.random() < 0.5 else TERNARY
            n = rng.randint(2, 64)
            w = Word("".join(rng.choice(alphabet.symbols) for _ in range(n)), alphabet)
            seeded += 1
            if find_maximal_repetitions(w) != runs_bruteforce(w):
                mismatch += 1
        sparse_ok = True
        for n in (10_000, 100_000):
            w = bw("".join(rng.choice("ab") for _ in range(n)))
            if len(find_maximal_repetitions(w)) >= n:
                sparse_ok = False
        fixture = find_maximal_repetitions(bw("abaababaabaab"))
        fixture_ok = Run(3, 5, 2) in fixture and not any(
            run.start == 3 and run.length == 4 for run in fixture
        )
        _report(
            "08 repetition finder matches brute force",
            mismatch == 0 and sparse_ok and fixture_ok,
            f"binary to length 12 + {seeded} seeded words, {mismatch} mismatches; "
            f"run count stays below n up to 10^5: {sparse_ok}",
        )

    def test_09a_runs_only_checker_rejects_abba(self):
        abba_runs = {run.as_tuple() for run in find_maximal_repetitions(bw("abbaabba"))}
        diverged = (
            gate_one(4, abba_runs)
            and classify_oracle(bw("abba")).verdict is Verdict.INS_ROBUST
        )
        _report(
            "09a runs-only checker rejects robust 'abba' (known divergence)",
            diverged,
            f"gate one fires on the runs {sorted(abba_runs)} vs oracle ins-robust",
        )

    def test_09b_runs_only_checker_accepts_aab(self):
        # Gate two's blind spot: a fragile word whose witness factor has
        # exponent below 2 is not a run, so gate two cannot see it.  "aab" is
        # fragile (insert b at 1 -> (ab)^2), but the factor "aba" of "aabaab"
        # has exponent 3/2, and no run of "aabaab" passes gate two; gate one
        # fires on the run "aa".  On "abcab" both gates are silent, so a
        # runs-only decision accepts a non-ins-robust word.
        aab = bw("aab")
        aab_runs = {run.as_tuple() for run in find_maximal_repetitions(bw("aabaab"))}
        aab_witnesses = classify_oracle(aab).witnesses
        gate_two_blind = (
            aab_runs == {(0, 2, 1), (3, 2, 1), (0, 6, 3)}
            and gate_one(3, aab_runs)
            and not gate_two(3, aab_runs)
            and bool(aab_witnesses)
            and all(len(wit.root) == 2 for wit in aab_witnesses)
            and all(p != 2 for _, _, p in aab_runs)
        )

        abcab = Word("abcab", TERNARY)
        abcab_runs = {
            run.as_tuple() for run in find_maximal_repetitions(Word("abcababcab", TERNARY))
        }
        abcab_oracle = classify_oracle(abcab)
        both_silent = not gate_one(5, abcab_runs) and not gate_two(5, abcab_runs)
        diverged = (
            both_silent
            and abcab_runs == {(0, 10, 5), (3, 4, 2)}
            and abcab_oracle.verdict is Verdict.NON_INS_ROBUST
            and any(
                wit.position == 5 and wit.letter == "c" and wit.root.chars == "abc"
                for wit in abcab_oracle.witnesses
            )
        )
        _report(
            "09b runs-only checker accepts fragile words (known divergence)",
            gate_two_blind and diverged,
            f"gate two silent on 'aab': {gate_two_blind}; "
            f"both gates silent on non-ins-robust 'abcab': {both_silent}",
        )

    def test_10_fast_classifier_performance(self):
        rng = random.Random(42)
        million = bw("".join(rng.choices("ab", k=1_000_000)))
        best = min(_timed(million) for _ in range(3))

        points = []
        for exp in range(12, 21):
            n = 1 << exp
            w = bw("".join(rng.choices("ab", k=n)))
            points.append((n, median(_timed(w) for _ in range(3))))
        slope = loglog_slope(points)

        probe = bw("".join(rng.choices("ab", k=10_000)))
        fast_time = min(_timed(probe) for _ in range(3))
        start = time.perf_counter()
        classify_oracle(probe)
        oracle_time = time.perf_counter() - start
        ratio = oracle_time / max(fast_time, 1e-9)

        ok = best < 1.0 and slope <= 1.3 and ratio >= 10.0
        _report(
            "10 fast classifier speed",
            ok,
            f"10^6 chars in {best:.3f}s, log-log slope {slope:.2f}, "
            f"{ratio:.0f}x oracle at 10^4",
        )

    def test_11_hard_length_budget(self):
        # n+1 = 720720 has 240 divisors, 239 of them eligible periods, but
        # only 6 distinct primes, so a robust word needs 6 window scans, one
        # per maximal period, against 2 at n = 10^6 in test_10.
        n = 720_719
        rng = random.Random(n)
        w = bw("".join(rng.choices("ab", k=n)))
        periods = eligible_periods(n)
        best = min(_timed(w) for _ in range(3))
        ok = (
            len(periods) == 239
            and classify_fast(w).verdict is Verdict.INS_ROBUST
            and best < 8.0
        )
        _report(
            "11 fast classifier at a hard length",
            ok,
            f"n = {n}, {len(periods)} eligible periods in 6 window scans, "
            f"{best:.3f}s (budget 8s)",
        )
