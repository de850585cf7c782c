import marshal
import math
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from conftest import BINARY, TERNARY, all_words, child_env
from hypothesis import given
from hypothesis import strategies as st

from insrobust import (
    BRUTE_FORCE_BOUND,
    Alphabet,
    Run,
    Word,
    find_maximal_repetitions,
    maximal_periodicities,
    runs_bruteforce,
)
from insrobust import repetitions as repetitions_module

WIDE = Alphabet("\u0100\u0101\u0102")

mixed_words = st.one_of(
    st.text(alphabet="ab", min_size=2, max_size=64).map(lambda s: Word(s, BINARY)),
    st.text(alphabet="abc", min_size=2, max_size=64).map(lambda s: Word(s, TERNARY)),
)


def bw(chars: str) -> Word:
    return Word(chars, BINARY)


def tuples(runs) -> set[tuple[int, int, int]]:
    return {run.as_tuple() for run in runs}


class TestRunRecord:
    def test_exponent(self):
        assert Run(3, 5, 2).exponent == Fraction(5, 2)

    def test_ordering_and_tuple(self):
        assert Run(0, 2, 1).as_tuple() == (0, 2, 1)
        assert Run(0, 2, 1) < Run(1, 2, 1)

    def test_immutable_hashable_tuple(self):
        run = Run(3, 5, 2)
        assert {run: "x"}[Run(3, 5, 2)] == "x"
        assert run == (3, 5, 2)
        with pytest.raises(AttributeError):
            run.start = 0
        assert isinstance(run.exponent, Fraction)

    def test_sorts_by_start_length_period(self):
        rng = random.Random(3)
        fields = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(200)]
        assert [run.as_tuple() for run in sorted(Run(*f) for f in fields)] == sorted(fields)


class TestFindMaximalRepetitions:
    def test_aabaab(self):
        assert tuples(find_maximal_repetitions(bw("aabaab"))) == {
            (0, 6, 3),
            (0, 2, 1),
            (3, 2, 1),
        }

    def test_unary(self):
        assert tuples(find_maximal_repetitions(bw("aaaa"))) == {(0, 4, 1)}

    def test_square(self):
        assert tuples(find_maximal_repetitions(bw("abab"))) == {(0, 4, 2)}

    def test_period2_run_in_reference_word(self):
        runs = tuples(find_maximal_repetitions(bw("abaababaabaab")))
        assert (3, 5, 2) in runs  # factor "ababa"
        assert (3, 4, 2) not in runs  # "abab" extends right without breaking period 2

    def test_short_words(self):
        assert find_maximal_repetitions(bw("ab")) == set()
        assert find_maximal_repetitions(bw("a")) == set()
        assert find_maximal_repetitions(Word("", BINARY)) == set()

    def test_exhaustive_binary_up_to_10(self):
        # past two letters, the inverted order is more than a swap of two letters
        words = chain(
            all_words(BINARY, 2, 10), all_words(TERNARY, 2, 8), all_words(WIDE, 2, 6)
        )
        for w in words:
            assert find_maximal_repetitions(w) == runs_bruteforce(w), w.chars

    def test_seeded_random_words(self):
        rng = random.Random(7)
        for i in range(300):
            alphabet = BINARY if i % 2 == 0 else TERNARY
            n = rng.randint(2, 64)
            w = Word("".join(rng.choices(alphabet.symbols, k=n)), alphabet)
            assert find_maximal_repetitions(w) == runs_bruteforce(w), w.chars

    @given(mixed_words)
    def test_matches_bruteforce(self, w):
        assert find_maximal_repetitions(w) == runs_bruteforce(w)

    @given(mixed_words)
    def test_reported_runs_are_genuine(self, w):
        s = w.chars
        n = len(s)
        seen_intervals = set()
        for run in find_maximal_repetitions(w):
            i, j = run.start, run.start + run.length - 1
            p = run.period
            assert run.exponent >= 2
            # claimed period holds across the factor
            assert all(s[t] == s[t + p] for t in range(i, j - p + 1))
            # minimal: no shorter period covers the factor
            assert not any(
                all(s[t] == s[t + q] for t in range(i, j - q + 1)) for q in range(1, p)
            )
            # maximal: one-symbol extensions break the period
            if i > 0:
                assert s[i - 1] != s[i - 1 + p]
            if j < n - 1:
                assert s[j + 1] != s[j + 1 - p]
            assert (i, j) not in seen_intervals  # no duplicate intervals
            seen_intervals.add((i, j))

    def test_run_count_below_length_on_random_word(self):
        rng = random.Random(11)
        s = "".join(rng.choices("ab", k=10_000))
        assert len(find_maximal_repetitions(bw(s))) < 10_000


def _one_cpu(patch) -> None:
    # the affinity of one CPU keeps both letter orders in this process
    patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _lce_reads(monkeypatch, w: Word):
    # symbols matched by the forward and the backward LCE queries together,
    # both letter orders counted here, on the one-process path
    reads = []

    def counting(real):
        def counted(s, i, j, limit, k=0):
            # only the symbols matched past the known k are read
            result = real(s, i, j, limit, k)
            reads.append(result - k)
            return result

        return counted

    with monkeypatch.context() as patch:
        _one_cpu(patch)
        for name in ("_lce", "_lce_back"):
            patch.setattr(repetitions_module, name, counting(getattr(repetitions_module, name)))
        runs = find_maximal_repetitions(w)
    return runs, sum(reads)


class TestLceCount:
    """Symbols matched by LCE queries: linear on powers of a short root and on
    words of long blocks, O(n log n) on Fibonacci prefixes."""

    @pytest.mark.parametrize("root, block_runs", [("a", []), ("ab", []), ("aab", [(0, 2, 1)])])
    def test_periodic_word_reads_linear(self, monkeypatch, root, block_runs):
        m = 20_000 // len(root)
        n = m * len(root)
        runs, matched = _lce_reads(monkeypatch, bw(root * m))
        expected = {(0, n, len(root))} | {
            (start + t * len(root), length, period)
            for t in range(m)
            for start, length, period in block_runs
        }
        assert tuples(runs) == expected
        assert matched <= 10 * n

    def test_long_blocks_read_linear(self, monkeypatch):
        # at each position of a block a^(k-1-t) b is a root candidate; its far
        # end rejects it before the forward query would read k-1-t symbols
        k, m = 500, 8
        n = k * m
        runs, matched = _lce_reads(monkeypatch, bw(("a" * (k - 1) + "b") * m))
        assert tuples(runs) == {(0, n, k)} | {(t * k, k - 1, 1) for t in range(m)}
        # measured 6,499, as each letter order finds the run; extending every
        # candidate forward reads about 219n
        assert matched <= 10 * n

    def test_fibonacci_prefix_reads_n_log_n(self, monkeypatch):
        # A query of a candidate of period p reads inside one maximal stretch
        # of j with s[j] == s[j+p].  A stretch of p or more is a run: the
        # first candidate of each letter order finds it and the later ones of
        # that order are skipped.  A shorter one is read by at most one
        # candidate per letter order, as two longest Lyndon words of one
        # length under one order start p or more apart.  So each period costs
        # at most 2n reads.  The periods of a Fibonacci
        # prefix's candidates are Fibonacci numbers (checked below); those
        # from 2 to n, F_k >= phi^(k-1), number at most log_phi(n).  In all,
        # 2n*log_phi(n) = c*n*log2(n) with c = 2 / log2(phi), about 2.88.
        n = 20_000
        shorter, longer = "a", "ab"
        fibonacci = {1, 2}
        while len(longer) < n:
            shorter, longer = longer, longer + shorter
            fibonacci.add(len(longer))
        s = longer[:n]
        for inverted in (False, True):
            ends = repetitions_module._lyndon_ends(s, inverted)
            assert {e - i for i, e in enumerate(ends) if e < n} <= fibonacci
        runs, matched = _lce_reads(monkeypatch, bw(s))
        assert {run.period for run in runs} <= fibonacci
        # measured 12.1n, growing by about 2.3n per fourfold n
        phi = (1 + math.sqrt(5)) / 2
        assert matched <= 2 / math.log2(phi) * n * math.log2(n)


class TestAgainstBruteforce:
    """Run sets equal ``runs_bruteforce`` where the candidate tests are tight."""

    def test_exhaustive_binary_11_and_12(self):
        for w in all_words(BINARY, 11, 12):
            assert find_maximal_repetitions(w) == runs_bruteforce(w), w.chars

    def test_long_block_words(self):
        words = [("a" * (k - 1) + "b") * m for k in range(2, 33) for m in range(1, 64 // k + 1)]
        words += ["a" * i + "b" + "a" * j for i in range(31) for j in range(31)]
        words += [
            ("a" * i + "b" + "a" * j + "b") * m + "a" * i
            for i in range(1, 12)
            for j in range(i, 12)
            for m in (2, 3)
            if (i + j + 2) * m + i <= BRUTE_FORCE_BOUND
        ]
        rng = random.Random(13)
        for _ in range(400):
            symbols = rng.choice(["ab", "abc"])
            blocks = []
            while sum(map(len, blocks)) < 48:
                blocks.append(rng.choice(symbols) * rng.randint(1, 12))
            words.append("".join(blocks)[:BRUTE_FORCE_BOUND])
        for chars in words:
            w = Word(chars, TERNARY)
            assert find_maximal_repetitions(w) == runs_bruteforce(w), chars

    @pytest.mark.parametrize(
        "chars, symbols",
        [
            ("a", "ab"),
            ("aa", "ab"),
            ("a" * 64, "ab"),
            ("aabaabbb", "ab"),
            ("bbabaabababaa", "ab"),
            ("\n\na\n", "\na"),
            ("a\n\n\nb\n\n", "\nab"),
            ("\n" * 9, "\n"),
            ("\U0001f600\U0001f600a\U0001f600\U0001f600\U0001f600", "a\U0001f600"),
            ("\U0001f600a\U0001f600a\U0001f601\U0001f601", "a\U0001f600\U0001f601"),
        ],
    )
    def test_period_one_edge_cases(self, chars, symbols):
        w = Word(chars, Alphabet(symbols))
        assert find_maximal_repetitions(w) == runs_bruteforce(w)
        blocks = {(i, j - i, 1) for i, j in _letter_blocks(chars)}
        assert {run for run in tuples(find_maximal_repetitions(w)) if run[2] == 1} == blocks


def _letter_blocks(chars: str) -> list[tuple[int, int]]:
    # (start, end) of each maximal one-letter block of length >= 2
    found, start = [], 0
    for i in range(1, len(chars) + 1):
        if i == len(chars) or chars[i] != chars[start]:
            if i - start >= 2:
                found.append((start, i))
            start = i
    return found


class _CountedSlices(str):
    """A word that adds up the lengths of the slices read from it."""

    read = 0

    def __getitem__(self, key):
        piece = str.__getitem__(self, key)
        self.read += len(piece)
        return piece


class TestLyndonReads:
    """Building the Lyndon arrays stays linear on highly periodic words."""

    @pytest.mark.parametrize("root", ["a", "ab", "aab"])
    def test_periodic_word_reads_linear(self, root):
        m = 4_000 // len(root)
        n = m * len(root)
        s = _CountedSlices(root * m)
        for inverted in (False, True):
            repetitions_module._lyndon_ends(s, inverted)
        # measured 4n, 8n and 10n; comparing whole suffixes reads thousands of n
        assert s.read <= 12 * n


def _fibonacci_prefix(n: int) -> str:
    shorter, longer = "a", "ab"
    while len(longer) < n:
        shorter, longer = longer, longer + shorter
    return longer[:n]


class TestScalePins:
    def test_fibonacci_prefix_period_histogram(self):
        # runs per period of the 10^5 prefix, from an independent per-period scan
        histogram = {
            1: 23607, 2: 14589, 3: 14590, 5: 9017, 8: 5573, 13: 3444, 21: 2128,
            34: 1315, 55: 813, 89: 502, 144: 310, 233: 192, 377: 119, 610: 73,
            987: 45, 1597: 28, 2584: 17, 4181: 10, 6765: 7, 10946: 4, 17711: 2,
            28657: 1, 46368: 1,
        }
        runs = find_maximal_repetitions(bw(_fibonacci_prefix(100_000)))
        assert len(runs) == 76_387
        assert Counter(run.period for run in runs) == histogram

    @pytest.mark.parametrize(
        "chars, expected",
        [
            ("a" * 100_000, {(0, 100_000, 1)}),
            ("ab" * 50_000, {(0, 100_000, 2)}),
            (
                ("a" * 65_499 + "b") * 2,
                {(0, 65_499, 1), (65_500, 65_499, 1), (0, 131_000, 65_500)},
            ),
        ],
        ids=["a^n", "(ab)^(n/2)", "(a^(K-1)b)^2"],
    )
    def test_exact_run_set(self, chars, expected):
        assert tuples(find_maximal_repetitions(bw(chars))) == expected


_SPLIT_N = repetitions_module._SPLIT_MIN + 3000
needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc/self/task")),
    reason="the two-process split needs os.fork and a countable thread list",
)


def _split_words() -> list:
    rng = random.Random(23)
    words = [
        (f"{symbols}-{seed}", "".join(random.Random(seed).choices(symbols, k=_SPLIT_N)))
        for symbols in ("ab", "abc")
        for seed in (1, 2)
    ]
    words.append(("fibonacci", _fibonacci_prefix(_SPLIT_N)))
    words.append(("(a^999 b)^100", ("a" * 999 + "b") * 100))
    astral = "\U0001f600\U0001f601a"
    words.append(("astral", "".join(rng.choices(astral, k=_SPLIT_N))))
    return [
        pytest.param(Word(chars, Alphabet("".join(sorted(set(chars))))), id=name)
        for name, chars in words
    ]


@needs_fork
class TestTwoProcessSplit:
    """Above ``_SPLIT_MIN`` symbols the inverted letter order is searched in a
    forked child; the run set is that of one process, and no child outlives
    the call."""

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("w", _split_words())
    def test_two_processes_equal_one(self, monkeypatch, w):
        forks = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            forks.append(pid)
            return pid

        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(os, "fork", counted_fork)
            split = find_maximal_repetitions(w)
        assert len(forks) == 1
        self._no_child_left()
        with monkeypatch.context() as patch:
            _one_cpu(patch)
            one = find_maximal_repetitions(w)
        assert split == one
        assert all(type(run) is Run for run in split)

    def test_failing_child_raises_and_is_reaped(self, monkeypatch, capfd):
        real = repetitions_module._order_runs

        def inverted_fails(s, inverted):
            if inverted:  # in the child
                raise MemoryError("child ran out")
            return real(s, inverted)

        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(repetitions_module, "_order_runs", inverted_fails)
            with pytest.raises(RuntimeError):
                find_maximal_repetitions(bw("ab" * _SPLIT_N))
        self._no_child_left()
        # the child's traceback reaches stderr
        assert "MemoryError: child ran out" in capfd.readouterr().err

    def test_child_exit_status_is_checked(self, monkeypatch):
        # the child sends all its triples, then exits 3
        real_exit = os._exit
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(os, "_exit", lambda code: real_exit(3))
            with pytest.raises(RuntimeError, match="status 3"):
                find_maximal_repetitions(bw("ab" * _SPLIT_N))
        self._no_child_left()

    def test_short_child_data_raises(self, monkeypatch):
        # the child exits 0 after sending all but the last bytes of its triples
        real_dumps = marshal.dumps
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(marshal, "dumps", lambda value: real_dumps(value)[:-3])
            with pytest.raises(RuntimeError, match="cut short"):
                find_maximal_repetitions(bw("ab" * _SPLIT_N))
        self._no_child_left()

    def test_failing_parent_kills_and_reaps_the_child(self, monkeypatch):
        real = repetitions_module._order_runs

        def parent_fails(s, inverted):
            if not inverted:
                raise KeyError("parent")
            return real(s, inverted)

        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(repetitions_module, "_order_runs", parent_fails)
            with pytest.raises(KeyError, match="parent"):
                find_maximal_repetitions(bw("ab" * _SPLIT_N))
        self._no_child_left()

    def test_failed_fork_searches_both_orders_here(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("fork")

        w = bw(_fibonacci_prefix(_SPLIT_N))
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(os, "fork", no_fork)
            runs = find_maximal_repetitions(w)
        with monkeypatch.context() as patch:
            _one_cpu(patch)
            assert runs == find_maximal_repetitions(w)

    def test_one_cpu_or_a_second_thread_never_forks(self, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        w = bw(_fibonacci_prefix(_SPLIT_N))
        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", refuse)
            _one_cpu(patch)
            one_cpu = find_maximal_repetitions(w)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            release = threading.Event()
            thread = threading.Thread(target=release.wait)
            thread.start()
            try:
                threaded = find_maximal_repetitions(w)
            finally:
                release.set()
                thread.join()
        assert one_cpu == threaded
        assert len(one_cpu) > _SPLIT_N // 2

    def test_below_the_threshold_never_forks(self, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        w = bw(_fibonacci_prefix(repetitions_module._SPLIT_MIN - 1))
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(os, "fork", refuse)
            assert find_maximal_repetitions(w)

    def test_unflushed_stdout_is_written_once(self):
        # the child leaves by os._exit, so a line this process buffered
        # before the call reaches stdout only from here
        script = (
            "import os, sys\n"
            "from insrobust import Alphabet, Word, find_maximal_repetitions\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "real_fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or real_fork()\n"
            "sys.stdout.write('before\\n')\n"
            f"runs = find_maximal_repetitions(Word('ab' * {_SPLIT_N}, Alphabet('ab')))\n"
            "print(len(forks), sorted(runs))\n"
        )
        call = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=child_env(), timeout=60
        )
        assert (call.returncode, call.stderr) == (0, b"")
        assert call.stdout == f"before\n1 [Run(start=0, length={2 * _SPLIT_N}, period=2)]\n".encode()


class TestRunsBruteforce:
    def test_fixtures(self):
        assert tuples(runs_bruteforce(bw("abab"))) == {(0, 4, 2)}
        assert runs_bruteforce(bw("ab")) == set()
        reference = bw("abaababaabaab")
        assert runs_bruteforce(reference) == find_maximal_repetitions(reference)

    def test_length_bound(self):
        with pytest.raises(ValueError):
            runs_bruteforce(bw("a" * 65))
        assert runs_bruteforce(bw("a" * 80), max_length=80) == {Run(0, 80, 1)}


class TestMaximalPeriodicities:
    def test_below_exponent_two(self):
        found = tuples(maximal_periodicities(bw("aabaab"), Fraction(3, 2)))
        assert (1, 3, 2) in found  # factor "aba", exponent 3/2

    def test_reduces_to_runs_at_two(self):
        assert tuples(maximal_periodicities(bw("abab"), 2)) == {(0, 4, 2)}

    def test_no_findings(self):
        assert maximal_periodicities(bw("ab"), 1.1) == set()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            maximal_periodicities(bw("abab"), 1)
        with pytest.raises(ValueError):
            maximal_periodicities(bw("abab"), Fraction(1, 2))

    def test_float_threshold_is_exact(self):
        assert maximal_periodicities(bw("aabaab"), 1.5) == maximal_periodicities(
            bw("aabaab"), Fraction(3, 2)
        )

    @given(mixed_words)
    def test_at_two_equals_runs(self, w):
        assert maximal_periodicities(w, 2) == runs_bruteforce(w)
