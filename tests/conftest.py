import math
import os
import random
import statistics
from itertools import compress, count, product
from operator import ne, sub
from pathlib import Path
from typing import Iterator

from hypothesis import HealthCheck, settings

from insrobust import Alphabet, Word, is_primitive

settings.register_profile(
    "insrobust",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("insrobust")

BINARY = Alphabet("ab")
TERNARY = Alphabet("abc")
CODEPOINTS = Alphabet("\u0100\u0101\u0102")  # above U+00FF, equal but for the low byte

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**overrides: str) -> dict[str, str]:
    """The caller's environment for a test's child process, with this tree's
    ``src`` first on PYTHONPATH, so every child imports the code under test."""
    inherited = os.environ.get("PYTHONPATH")
    path = f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    return {**os.environ, "PYTHONPATH": path, **overrides}


def all_words(alphabet: Alphabet, min_len: int, max_len: int) -> Iterator[Word]:
    """Every word over ``alphabet`` with length in [min_len, max_len], lex order."""
    for n in range(min_len, max_len + 1):
        for tup in product(alphabet.symbols, repeat=n):
            yield Word("".join(tup), alphabet)


def all_strings(symbols: str, min_len: int, max_len: int) -> Iterator[str]:
    for n in range(min_len, max_len + 1):
        for tup in product(symbols, repeat=n):
            yield "".join(tup)


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(seconds, 1e-9)) for _, seconds in points]
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


def fragile_word(n: int, alphabet: Alphabet, period: int, rng: random.Random) -> Word:
    """u^m with |u| = period and one letter deleted, then rotated and/or reversed.

    Re-inserting the deleted letter gives a rotation of u^m, so a primitive
    result is non-ins-robust; the draw is repeated until it is primitive.
    """
    while True:
        u = "".join(rng.choices(alphabet.symbols, k=period))
        full = u * ((n + 1) // period)
        cut = rng.randrange(n + 1)
        chars = full[:cut] + full[cut + 1 :]
        shift = rng.randrange(n)
        chars = chars[shift:] + chars[:shift]
        if rng.random() < 0.5:
            chars = chars[::-1]
        w = Word(chars, alphabet)
        if is_primitive(w):
            return w


def mismatches(s: str, p: int) -> list[int]:
    """D = {j : s[j] != s[(j+p) mod n]} for a period p, ascending."""
    return list(compress(count(), map(ne, s, s[p:] + s[:p])))


def leftmost_by_gaps(s: str, p: int) -> int | None:
    """Smallest i in [0, n] whose length-n window of ss has period p, else None.

    The reference for the classifier's window decisions: the window at i has
    period p iff its n-p cyclic positions from i avoid D, so the gaps of D are
    read off in one linear pass, with no blocks, galloping or maximal periods.
    """
    n = len(s)
    need = n - p
    d = mismatches(s, p)
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
