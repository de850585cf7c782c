"""Seeded inputs and CLI calls for each benchmark workload.

``build(name, seed, workdir)`` writes a workload's input files into
``workdir`` and returns the CLI calls to time, the amount of work they
represent, and a checker bound to the generated inputs.  The same seed
always gives the same inputs; the package sees only the files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    FRAGILE,
    Tally,
    check_census_output,
    check_classify_output,
    check_runs_output,
    distinct_primes,
    divisors,
    root_length,
)

# classify_fast scans one window per divisor of n+1 (at most n), so its cost
# follows d(n+1), not n.  Each row is (n, d(n+1), omega(n+1)); ``build``
# re-derives the numbers and refuses a table that disagrees with them.
HARD_LENGTHS = (
    (720719, 240, 6),  # n+1 = 720720 = 2^4 3^2 5 7 11 13: 239 periods scanned
    (524287, 20, 1),  # n+1 = 2^19
    (65519, 120, 5),  # n+1 = 65520 = 2^4 3^2 5 7 13
    (1000000, 4, 2),  # n+1 = 101 9901: the easy length of the acceptance test
)
# A fragile word u^11 minus one letter: n = 997919, n+1 = 2^5 3^4 5 7 11
# (d = 240, omega = 5), |u| = 90720.
FRAGILE_LONG = (997919, 240, 5, 90720)
# n+1 = 18 and 12 each give five eligible periods; n+1 prime would give none.
CENSUS_POINTS = (
    (17, 2, {"non_primitive": 2, "ins_robust": 126276, "non_ins_robust": 4794}),
    (11, 3, {"non_primitive": 3, "ins_robust": 171270, "non_ins_robust": 5874}),
)
RUNS_LENGTH = 100_000  # argv limit: one argument must stay below 128 KiB
# Runs of fibonacci_prefix(RUNS_LENGTH) by period, 76387 in all, from a scan of
# every period up to n/2 (``checks.runs_by_scan``); its periods are Fibonacci numbers.
FIBONACCI_RUNS = {
    1: 23607, 2: 14589, 3: 14590, 5: 9017, 8: 5573, 13: 3444, 21: 2128, 34: 1315,
    55: 813, 89: 502, 144: 310, 233: 192, 377: 119, 610: 73, 987: 45, 1597: 28,
    2584: 17, 4181: 10, 6765: 7, 10946: 4, 17711: 2, 28657: 1, 46368: 1,
}
SHORT_COUNT = 3000
SHORT_LENGTHS = (32, 4095)  # below the 4096-symbol numpy threshold


@dataclass
class Workload:
    calls: list[list[str]]  # insrobust CLI arguments, one child process each
    symbols: int
    words: int
    check: Callable[[list[bytes]], Tally]  # outputs of the calls, in order


def check_table() -> None:
    for n, d, omega, *_ in HARD_LENGTHS + (FRAGILE_LONG,):
        if (len(divisors(n + 1)), len(distinct_primes(n + 1))) != (d, omega):
            raise ValueError(f"hard-length table is wrong for n={n}")


_BINARY = bytes(ord("a") + (i & 1) for i in range(256))


def random_word(rng: random.Random, n: int, symbols: str) -> str:
    if symbols == "ab":
        return rng.randbytes(n).translate(_BINARY).decode("ascii")
    return "".join(rng.choices(symbols, k=n))


def primitive_word(rng: random.Random, n: int, symbols: str) -> str:
    while True:
        u = random_word(rng, n, symbols)
        if root_length(u) == n:
            return u


def fragile_word(rng: random.Random, n: int, symbols: str, period: int | None = None) -> str:
    """u^m with one letter deleted (|u| m = n+1, m >= 2), then rotated and
    possibly reversed; re-inserting the letter gives a rotation of u^m, so
    the word is never ins-robust.  Needs n+1 to have a divisor in [2, (n+1)/2]."""
    if period is None:
        period = rng.choice([p for p in divisors(n + 1) if 2 <= p <= (n + 1) // 2])
    while True:
        full = primitive_word(rng, period, symbols) * ((n + 1) // period)
        cut = rng.randrange(n + 1)
        w = full[:cut] + full[cut + 1 :]
        shift = rng.randrange(n)
        w = w[shift:] + w[:shift]
        if rng.random() < 0.5:
            w = w[::-1]
        if root_length(w) == n:
            return w


def power_word(rng: random.Random, n: int, symbols: str) -> tuple[str, tuple]:
    period = rng.choice([p for p in divisors(n) if p <= n // 2])
    u = primitive_word(rng, period, symbols)
    return u * (n // period), ("non-primitive", u, n // period)


def fibonacci_prefix(n: int) -> str:
    """Prefix of the fixed point of a -> ab, b -> a; it is dense in runs."""
    shorter, longer = "a", "ab"
    while len(longer) < n:
        shorter, longer = longer, longer + shorter
    return longer[:n]


def _classify_workload(path: Path, words: list[str], expected: list, symbols: str) -> Workload:
    path.write_text("".join(word + "\n" for word in words), encoding="ascii")
    return Workload(
        calls=[["classify", "--file", str(path), "--format", "jsonl"]],
        symbols=sum(map(len, words)),
        words=len(words),
        check=lambda outputs: check_classify_output(words, expected, symbols, outputs[0]),
    )


def classify_long(rng: random.Random, workdir: Path) -> Workload:
    words = [random_word(rng, n, "ab") for n, _, _ in HARD_LENGTHS]
    n, _, _, period = FRAGILE_LONG
    words.append(fragile_word(rng, n, "ab", period))
    expected = [None] * len(HARD_LENGTHS) + [FRAGILE]
    return _classify_workload(workdir / "long.txt", words, expected, "ab")


def short_length(i: int) -> int:
    # the i-th of SHORT_COUNT log-uniform quantiles of SHORT_LENGTHS
    lo, hi = SHORT_LENGTHS
    return round(lo * (hi / lo) ** ((i + 0.5) / SHORT_COUNT))


def classify_short(rng: random.Random, workdir: Path) -> Workload:
    # Lengths are fixed quantiles and every 12th length is a power, every
    # 4th (of the rest) fragile, so the mix and its cost barely move with
    # the seed; the letters, periods, cuts and rotations are seeded.
    words, expected = [], []
    for i in range(SHORT_COUNT):
        n = short_length(i)
        if i % 12 == 11:
            word, want = power_word(rng, n, "abc")
        elif i % 4 == 0 and len(divisors(n + 1)) > 2:
            word, want = fragile_word(rng, n, "abc"), FRAGILE
        else:
            word, want = random_word(rng, n, "abc"), None
        words.append(word)
        expected.append(want)
    order = list(range(SHORT_COUNT))
    rng.shuffle(order)
    return _classify_workload(
        workdir / "short.txt", [words[i] for i in order], [expected[i] for i in order], "abc"
    )


def census_workload(rng: random.Random, workdir: Path) -> Workload:
    def check(outputs: list[bytes]) -> Tally:
        tally = Tally()
        for (n, k, pinned), output in zip(CENSUS_POINTS, outputs):
            tally.add(check_census_output(n, k, pinned, output))
        return tally

    return Workload(
        calls=[["census", str(n), str(k), "--format", "jsonl"] for n, k, _ in CENSUS_POINTS],
        symbols=sum(n * k**n for n, k, _ in CENSUS_POINTS),
        words=sum(k**n for n, k, _ in CENSUS_POINTS),
        check=check,
    )


def runs_workload(rng: random.Random, workdir: Path) -> Workload:
    words = [random_word(rng, RUNS_LENGTH, "ab"), fibonacci_prefix(RUNS_LENGTH)]

    def check(outputs: list[bytes]) -> Tally:
        tally = check_runs_output(words[0], outputs[0])
        tally.add(check_runs_output(words[1], outputs[1], FIBONACCI_RUNS))
        return tally

    return Workload(
        calls=[["runs", word, "--format", "jsonl"] for word in words],
        symbols=sum(map(len, words)),
        words=len(words),
        check=check,
    )


def combine(*parts: Workload) -> Workload:
    """One workload whose pass runs every part's calls in turn."""

    def check(outputs: list[bytes]) -> Tally:
        tally, start = Tally(), 0
        for part in parts:
            tally.add(part.check(outputs[start : start + len(part.calls)]))
            start += len(part.calls)
        return tally

    return Workload(
        calls=[call for part in parts for call in part.calls],
        symbols=sum(part.symbols for part in parts),
        words=sum(part.words for part in parts),
        check=check,
    )


# Two workloads, so each run can be long: the host's speed drifts over tens
# of seconds, and only a long run averages it out.
WORKLOADS = {
    "classify": lambda rng, workdir: combine(
        classify_long(rng, workdir), classify_short(rng, workdir)
    ),
    "census-runs": lambda rng, workdir: combine(
        census_workload(rng, workdir), runs_workload(rng, workdir)
    ),
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    check_table()
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
