"""Output checks for the benchmark, written independently of the package.

Everything here is plain Python over strings, apart from a numpy scan for
runs: primitivity by the ``(s + s).find(s, 1)`` identity, an exhaustive
insertion oracle for short words, and an exact window search for the
insertion witness.  A word w of
length n is fragile exactly when some length-n window of ww starting at
i <= n has a period p that divides n+1 with p <= n; the witness the CLI
promises is the smallest such p, then the leftmost i, with the letter
ww[i + p - 1] inserted at position i.

Each checker returns a ``Tally`` of checks attempted and failed; failures
keep a short message so a failing run can say what went wrong.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)
        return ok

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: 5 - len(self.messages)])


def root_length(s: str) -> int:
    """Length of the primitive root of a non-empty ``s``."""
    return (s + s).find(s, 1)


def divisors(m: int) -> list[int]:
    small = [d for d in range(1, int(m**0.5) + 1) if m % d == 0]
    return sorted(set(small + [m // d for d in small]))


def distinct_primes(m: int) -> list[int]:
    primes, d = [], 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return primes + [m] if m > 1 else primes


def count_primitive(n: int, k: int) -> int:
    """Primitive words of length n over k letters: sum of mu(d) k^(n/d) over d | n."""
    total = 0
    for d in divisors(n):
        primes = distinct_primes(d)
        if all(d % (q * q) for q in primes):  # squarefree, so mu(d) = (-1)^omega(d)
            total += (-1) ** len(primes) * k ** (n // d)
    return total


def first_window(v: str, n: int, p: int) -> int | None:
    """Smallest i in [0, n] with v[t] == v[t + p] for all t in [i, i + n - p).

    Each candidate window is compared right to left; a mismatch at t rules
    out every start up to t, and positions already seen to agree are not
    compared again, so the search makes O(n) comparisons and only a few on
    random text.
    """
    need = n - p
    if need <= 0:
        return 0
    i, agreed_to = 0, 0  # v agrees with its p-shift on [i, agreed_to)
    while i <= n:
        t = i + need - 1
        while t >= agreed_to and v[t] == v[t + p]:
            t -= 1
        if t < agreed_to:
            return i
        agreed_to = i + need
        i = t + 1
    return None


def expected_witness(s: str) -> tuple[int, int] | None:
    """(period, position) of the promised witness of a primitive ``s``, or None."""
    n = len(s)
    v = s + s
    for p in divisors(n + 1):
        if p > n:
            break
        i = first_window(v, n, p)
        if i is not None:
            return p, i
    return None


def oracle_fragile_insertions(s: str, symbols: str) -> set[tuple[int, str]]:
    """Every (position, letter) whose insertion makes ``s`` a proper power."""
    n = len(s)
    return {
        (i, c)
        for i in range(n + 1)
        for c in symbols
        if root_length(s[:i] + c + s[i:]) < n + 1
    }


# Expected verdicts of built words; None means "decide by the checks alone".
FRAGILE = ("non-ins-robust",)

ORACLE_MAX_LENGTH = 200


def check_classification(
    tally: Tally, word: str, record: dict, symbols: str, expected: tuple | None
) -> None:
    """Check one ``classify --format jsonl`` record against ``word``."""
    n = len(word)
    head = word[:20] + ("..." if n > 20 else "")
    if not tally.check(record.get("word") == word, f"record does not echo {head}"):
        return
    verdict = record.get("verdict")
    r = root_length(word)
    if r < n:
        tally.check(
            verdict == "non-primitive"
            and record.get("root") == word[:r]
            and record.get("exponent") == n // r,
            f"{head}: expected non-primitive {r}^{n // r}, got {verdict}",
        )
        if expected is not None:
            tally.check(
                expected == ("non-primitive", word[:r], n // r),
                f"{head}: built power reports root length {r}",
            )
        return
    hit = expected_witness(word)
    if expected is not None:
        tally.check(
            expected == FRAGILE and hit is not None,
            f"{head}: built word has verdict {expected[0]} but window search found {hit}",
        )
    oracle = oracle_fragile_insertions(word, symbols) if n <= ORACLE_MAX_LENGTH else None
    if oracle is not None:
        tally.check(
            bool(oracle) == (hit is not None),
            f"{head}: window search and insertion oracle disagree",
        )
    if hit is None:
        tally.check(verdict == "ins-robust", f"{head}: expected ins-robust, got {verdict}")
        return
    p, i = hit
    witnesses = record.get("witnesses") or []
    if not tally.check(
        verdict == "non-ins-robust" and len(witnesses) == 1,
        f"{head}: expected one non-ins-robust witness, got {verdict}",
    ):
        return
    wit = witnesses[0]
    insertion = (wit.get("position"), wit.get("letter"))
    if not tally.check(
        insertion == (i, (word + word)[i + p - 1]),
        f"{head}: witness {insertion} is not the smallest-period leftmost one (p={p}, i={i})",
    ):
        return
    root, power = wit.get("root", ""), wit.get("power", 0)
    tally.check(
        power >= 2
        and len(root) == p
        and root * power == word[:i] + insertion[1] + word[i:]
        and root_length(root) == len(root),
        f"{head}: witness root^power does not rebuild the insertion",
    )
    if oracle is not None:
        tally.check(
            insertion in oracle,
            f"{head}: witness is not among the oracle's insertions",
        )


def check_classify_output(
    words: list[str], expected: list[tuple | None], symbols: str, output: bytes
) -> Tally:
    tally = Tally()
    lines = output.decode("utf-8").splitlines()
    if not tally.check(
        len(lines) == len(words), f"{len(lines)} output records for {len(words)} words"
    ):
        return tally
    for word, want, line in zip(words, expected, lines):
        check_classification(tally, word, json.loads(line), symbols, want)
    return tally


def check_census_output(n: int, k: int, pinned: dict[str, int], output: bytes) -> Tally:
    tally = Tally()
    lines = output.decode("utf-8").splitlines()
    if not tally.check(len(lines) == 1, f"census {n} {k}: {len(lines)} output lines"):
        return tally
    record = json.loads(lines[0])
    total = k**n
    tallies = [record.get(key, -1) for key in ("non_primitive", "ins_robust", "non_ins_robust")]
    tally.check((record.get("n"), record.get("k")) == (n, k), f"census {n} {k}: wrong n, k")
    tally.check(sum(tallies) == total, f"census {n} {k}: tallies sum to {sum(tallies)}")
    tally.check(
        record.get("non_primitive") == total - count_primitive(n, k),
        f"census {n} {k}: non_primitive {record.get('non_primitive')}",
    )
    for key, value in pinned.items():
        tally.check(record.get(key) == value, f"census {n} {k}: {key} {record.get(key)} != {value}")
    return tally


def runs_by_scan(word: str, periods) -> set[tuple[int, int, int]]:
    """Every run (start, length, period) of ``word`` whose period is in ``periods``.

    For each p, the positions t with word[t] == word[t + p] form maximal
    stretches; a stretch [s, e) of at least p of them is the maximal
    repetition word[s : e + p] of period p.  It is a run when p is its
    smallest period, that is when its first p letters are primitive.
    """
    a = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    found = set()
    for p in periods:
        if 2 * p > len(a):
            break
        agree = np.concatenate(([False], a[:-p] == a[p:], [False]))
        edges = np.flatnonzero(agree[1:] != agree[:-1])
        starts, ends = edges[0::2], edges[1::2]
        long_enough = ends - starts >= p
        for s, e in zip(starts[long_enough].tolist(), ends[long_enough].tolist()):
            if root_length(word[s : s + p]) == p:
                found.add((s, e - s + p, p))
    return found


SCANNED_PERIODS = 64


def check_runs_output(word: str, output: bytes, pinned: dict[int, int] | None = None) -> Tally:
    """Every reported run is a maximal repetition with its minimal period, and
    none is missing: the runs of period at most SCANNED_PERIODS must be exactly
    those of a direct scan, and ``pinned``, if given, is the number of runs of
    each period.  On a random binary word a run of a larger period would need
    more than SCANNED_PERIODS letters to repeat, so the scan finds them all.
    """
    tally = Tally()
    n = len(word)
    seen = set()
    previous = (-1, -1)
    reported = []
    for line in output.decode("utf-8").splitlines():
        record = json.loads(line)
        i, length, p = record["start"], record["length"], record["period"]
        reported.append((i, length, p))
        end = i + length
        where = f"run ({i}, {length}, {p})"
        tally.check(
            0 <= i and end <= n and 1 <= p and length >= 2 * p,
            f"{where}: out of range or exponent below 2",
        )
        tally.check(word[i : end - p] == word[i + p : end], f"{where}: p is not a period")
        tally.check(
            root_length(word[i : i + p]) == p,
            f"{where}: period is not minimal (its block is a power)",
        )
        tally.check(
            (i == 0 or word[i - 1] != word[i - 1 + p]) and (end == n or word[end] != word[end - p]),
            f"{where}: extends by one symbol",
        )
        tally.check((i, length) not in seen and (i, length) > previous, f"{where}: repeated or out of order")
        tally.check(record["exponent"] == length / p, f"{where}: exponent {record['exponent']}")
        seen.add((i, length))
        previous = (i, length)
    small = {run for run in reported if run[2] <= SCANNED_PERIODS}
    scanned = runs_by_scan(word, range(1, SCANNED_PERIODS + 1))
    tally.check(
        small == scanned,
        f"runs of period <= {SCANNED_PERIODS}: {len(scanned - small)} missing, "
        f"{len(small - scanned)} not found by the scan",
    )
    if pinned is not None:
        counts = Counter(p for _, _, p in reported)
        tally.check(counts == Counter(pinned), "run counts by period differ from the pinned ones")
    return tally
