"""Maximal repetitions (runs) and maximal periodicities.

A run is a factor whose exponent (length over minimal period) is at least 2
and which cannot be extended by one symbol in either direction without
strictly increasing its minimal period.  The module holds:

- ``find_maximal_repetitions``, the exact runs from Lyndon roots, as a list
  in (start, length) order, a run at the word's end from the code-point order
  alone; its docstring gives the method, the two-process split and the cost;
- ``maximal_periodicities``, the O(n^2) definition-chasing scan for the
  maximal periodic factors of exponent at least a floor above 1 (some
  insertion witnesses fall below 2); ``runs_bruteforce`` is it at floor 2;
- ``_lce`` and ``_lce_back``, the forward and backward longest-common-
  extension queries, which ``classify`` uses too.
"""

from __future__ import annotations

import marshal
import os
import re
from typing import TYPE_CHECKING, NamedTuple

from .words import Word, _border

if TYPE_CHECKING:
    from fractions import Fraction

BRUTE_FORCE_BOUND = 64


class Run(NamedTuple):
    """A maximal periodic factor: ``start`` and ``length`` locate it, ``period``
    is the minimal period of the factor.  A plain tuple underneath, so runs
    sort as (start, length, period) and equal the tuple of their fields."""

    start: int
    length: int
    period: int

    @property
    def exponent(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.length, self.period)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.start, self.length, self.period)


def _lce(s: str, i: int, j: int, limit: int, k: int = 0) -> int:
    # Length of the longest common prefix of s[i:] and s[j:], at most ``limit``,
    # given that the first k symbols match.  Gallop by doubling slices, then
    # halve onto the first mismatch; each probe compares only symbols past the
    # known match, so a query reads O(result - k + 1) symbols at C speed.
    step = 1
    while step <= limit - k and s[i + k : i + k + step] == s[j + k : j + k + step]:
        k += step
        step *= 2
    while step > 1:
        step //= 2
        if step <= limit - k and s[i + k : i + k + step] == s[j + k : j + k + step]:
            k += step
    return k


def _lce_back(t: str, i: int, j: int, limit: int, k: int = 0) -> int:
    # ``_lce`` run backward: how many symbols t[:i] and t[:j] share as a
    # suffix, at most ``limit``, given that the last k do.
    step = 1
    while step <= limit - k and t[i - k - step : i - k] == t[j - k - step : j - k]:
        k += step
        step *= 2
    while step > 1:
        step //= 2
        if step <= limit - k and t[i - k - step : i - k] == t[j - k - step : j - k]:
            k += step
    return k


def _lyndon_ends(s: str, inverted: bool) -> list[int]:
    # ends[i] = end of the longest Lyndon word starting at i, under code-point
    # order or its inverse.  Built right to left: u = s[i:j] absorbs the next
    # Lyndon word v = s[j:ends[j]] while u < v, a proper prefix counting as
    # smaller.  Each comparison is one slice comparison of m = min(|u|, |v|)
    # symbols at C speed; comparing whole suffixes instead is quadratic on a^n.
    n = len(s)
    ends = [n] * n
    for i in range(n - 2, -1, -1):
        j = i + 1
        while j < n:
            e = ends[j]
            m = e - j if j - i >= e - j else j - i
            u = s[i : i + m]
            v = s[j : j + m]
            if u == v:
                if m == e - j:
                    break  # v is a prefix of u, so v <= u
            elif (u < v) == inverted:
                break
            j = e
        ends[i] = j
    return ends


# a maximal block of one letter, at least two long: the runs of period 1
_LETTER_BLOCKS = re.compile(r"(.)\1+", re.DOTALL)

# the fewest symbols for which the two letter orders are searched in two
# processes: in-process on a 2-vCPU host, two processes took 1.06-1.17 times
# as long as one at 2^14 symbols, and 0.62-1.02 times at 2^15
_SPLIT_MIN = 1 << 15


def _order_runs(s: str, inverted: bool) -> list[tuple[int, int, int]]:
    # The (start, length, period) triples of the runs of period >= 2 whose
    # Lyndon root is the longest Lyndon word at its start under one letter
    # order.  A candidate inside the last run this order found with its period
    # is skipped, since it would extend to that run again.  A run that ends at
    # the word's end is the code-point order's to report, as both find it.
    n = len(s)
    found = []
    last_end: dict[int, int] = {}  # period -> end of the last run found with it
    for i, e in enumerate(_lyndon_ends(s, inverted)):
        p = e - i
        if p == 1 or e >= n or e <= last_end.get(p, 0):
            continue
        # fwd + back >= p needs fwd >= h or back >= h
        h = (p + 1) // 2
        if s[i : i + h] == s[e : e + h]:
            matched = h
        elif h <= i and s[i - h : i] == s[e - h : e]:
            matched = 0
        else:
            continue
        back = 0 if i == 0 or s[i - 1] != s[e - 1] else _lce_back(s, i, e, i, 1)
        # a run needs fwd >= need = p - back, so s[i+need-1] == s[e+need-1];
        # need >= 1, since a candidate with back >= p lies in a run whose
        # first root under this order came earlier, and it was skipped above
        need = p - back
        if e + need > n or s[i + need - 1] != s[e + need - 1]:
            continue
        fwd = _lce(s, i, e, n - e, matched)
        if fwd + back >= p:
            if not inverted or e + fwd < n:
                found.append((i - back, p + fwd + back, p))
            last_end[p] = e + fwd
    return found


def _one_thread() -> bool:
    # a forked child of a threaded process can block on a lock another thread
    # held; where the threads cannot be counted, assume there are more
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _split_taken(n: int) -> bool:
    return (
        n >= _SPLIT_MIN
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and _one_thread()
    )


def _two_order_runs(s: str) -> list[tuple[int, int, int]]:
    # the inverted order's triples from a forked child, the other order's
    # from this process meanwhile
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return _order_runs(s, False) + _order_runs(s, True)
    if pid == 0:  # the child leaves only by _exit: no inherited buffer is flushed
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(_order_runs(s, True)))
            code = 0
        except BaseException:
            from traceback import format_exc

            # straight to fd 2: sys.stderr's buffer may hold the parent's text
            os.write(2, format_exc().encode("utf-8", "backslashreplace"))
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            found = _order_runs(s, False)
            data = pipe.read()
    except BaseException:
        from signal import SIGKILL  # not at module level: 1 ms of every start-up

        os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)
        raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(f"the inverted letter order's process exited with status {status}")
    try:
        return found + marshal.loads(data)
    except (EOFError, ValueError):
        raise RuntimeError("the inverted letter order's runs arrived cut short") from None


def find_maximal_repetitions(w: Word) -> list[Run]:
    """All runs of ``w``, each once with its minimal period, in (start, length)
    order.

    Runs by Lyndon roots (Bannai, I, Inenaga, Nakashima, Takeda and Tsuruta,
    "The 'Runs' Theorem", SIAM J. Comput. 46(5), 2017): every run of period p
    contains a Lyndon root s[i:i+p] that is the longest Lyndon word starting at
    i under one of the two letter orders.  So each i, with p the length of its
    longest Lyndon word under either order, is extended forward and backward
    by longest-common-extension (LCE) queries, and kept when the extension
    reaches length 2p.  A Lyndon word is primitive, so p is the minimal period
    (Fine and Wilf), and the extension is maximal by construction; no filter
    is needed.  The two letter orders are searched apart, and the result is
    the union of their runs: a candidate inside the last run found with its
    period under its own order is skipped, since it would extend to that run
    again.  A run [a, b) with b < n is found only by the order under which
    s[b] < s[b-p]; one that ends at the word's end is found by both, since
    nothing follows it, and only the code-point order reports it.  The runs
    of period 1 are the maximal letter blocks of length >= 2, found by one
    regular expression pass, so no candidate of period 1 is extended.

    The root candidates of one order never depend on the other, so on a word
    of at least ``_SPLIT_MIN`` symbols, where ``os.fork`` exists, the
    affinity mask holds two or more CPUs and the process runs one thread, the
    inverted order is searched in one forked child while this process
    searches the other; else both run here, one after the other.  A call
    starts at most one process, which ends before the call returns: if it
    fails, this call raises ``RuntimeError``, and if this call raises first,
    the child is killed and reaped.  Each process holds its own Lyndon array
    of n ints and its own triples; the word is shared copy-on-write.

    Cost: building the Lyndon arrays takes one slice comparison of
    min(|u|, |v|) symbols per step.  Each candidate is then pre-tested: the
    extension reaches 2p only if fwd or back reaches h = ⌈p/2⌉, so one or two
    slice comparisons of h symbols discard most candidates.  Next, back costs
    no read unless the symbols before s[i] and s[i+p] match, and a run needs
    fwd >= p - back, so one symbol at that far end rejects most of the rest
    before the forward LCE query; each query reads O(result + 1) symbols, in
    a maximal stretch of j with s[j] = s[j+p] that at most two candidates
    read: 2n per period p, so O(n log n) on Fibonacci words (log_φ n periods).
    On words of long blocks, such as (a^k b)^m, the LCE reads are O(n) in all;
    the Lyndon build still copies up to k symbols per step there, so it
    reads O(n·k) symbols, at C speed.
    """
    s = w.chars
    if _split_taken(len(s)):
        triples = _two_order_runs(s)
    else:
        triples = _order_runs(s, False) + _order_runs(s, True)
    triples += [(m.start(), m.end() - m.start(), 1) for m in _LETTER_BLOCKS.finditer(s)]
    # each order's triples are mostly in order already, so timsort merges them
    triples.sort()
    return list(map(Run._make, triples))


def maximal_periodicities(
    w: Word, min_exponent, max_length: int = BRUTE_FORCE_BOUND
) -> list[Run]:
    """All maximal periodic factors with exponent >= ``min_exponent``, in
    (start, length) order.

    Generalizes runs: witnesses of non-robustness can have exponent as low as
    2 - 1/p, below the runs floor, so searches over that regime need this.
    """
    from fractions import Fraction

    floor = Fraction(min_exponent)
    if floor <= 1:
        raise ValueError("min_exponent must be greater than 1")
    s = w.chars
    n = len(s)
    if n > max_length:
        raise ValueError(f"periodicity scan is limited to length {max_length}, got {n}")
    # table[i][j - i] = minimal period of s[i..j] (inclusive); O(n^2) overall
    # via one failure function per suffix
    table = [[m + 1 - b for m, b in enumerate(_border(s[i:]))] for i in range(n)]
    # exponent threshold by cross-multiplication; keeps the hot loop integer-only
    num, den = floor.numerator, floor.denominator
    found = []  # (start, length) ascends with (i, j)
    for i, row in enumerate(table):
        for j in range(i + 1, n):
            p = row[j - i]
            if (j - i + 1) * den < num * p:
                continue
            if i > 0 and table[i - 1][j - i + 1] == p:
                continue  # left extension keeps the period: not maximal
            if j < n - 1 and row[j - i + 1] == p:
                continue
            found.append(Run(i, j - i + 1, p))
    return found


def runs_bruteforce(w: Word, max_length: int = BRUTE_FORCE_BOUND) -> list[Run]:
    """Definition-chasing oracle for ``find_maximal_repetitions``.

    Independent algorithm family: minimal periods of all factors come from
    per-suffix failure functions, and maximality is checked by comparing the
    minimal period of each one-symbol extension.
    """
    return maximal_periodicities(w, 2, max_length)
