"""Exact counts, closed-form bounds, and exact small-n censuses.

The primitive-word count is the classic Möbius sum over divisors, evaluated
with arbitrary-precision integers throughout — the values overflow machine
words long before the lengths this module accepts.

A census's three tallies come by construction, without classifying any word.
Inserting one letter into a primitive w of length n gives a proper power x of
length n+1 only if x = u^q for some prime q dividing n+1 and some u of length
(n+1)/q.  Rotating w by the insertion point gives a rotation of x with its
last letter cut off, and each rotation of u^q is (u′)^q for a rotation u′ of
u.  Conversely, inserting the cut-off letter back into any rotation of
(u^q)[:n] gives a rotation of u^q, which is again a proper power.  So the
fragile (non-ins-robust) words are exactly the rotations of the primitive
prefixes (u^q)[:n], over every prime q of n+1 and every u.  A primitive word
has exactly n distinct rotations, so the fragile count is n times the number
of distinct rotation classes among those prefixes; it is 0 when n+1 is prime
and n > 1, since then every prefix is a single repeated letter.  The cost is
Σ_q k^((n+1)/q) candidates in place of k^n classifications.

Words are enumerated only where they must be listed or audited, in one
sequential pass, and each takes its verdict from the same construction:
non-primitive if its root is shorter than n, fragile if it is a rotation of
a constructed class, ins-robust otherwise.  The audit also classifies every
word with the fast classifier and with the insertion oracle, and checks the
constructed tallies against the enumerated ones.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple

from .classify import Verdict, _fast_verdict_chars, classify_oracle

# not called here; the traced benchmark (perfbench/spans.py) wraps counting.eligible_periods
from .classify import eligible_periods  # noqa: F401
from .words import Alphabet, Word, _prime_factorization

DEFAULT_CENSUS_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError):
    """The requested census has more words (k^n) than its budget allows."""


class OracleMismatchError(RuntimeError):
    """The fast classifier and the insertion oracle disagreed during an audit."""


def count_primitive(n: int, k: int) -> int:
    """The number of primitive words of length ``n`` over ``k`` symbols.

    Inclusion–exclusion over the distinct prime factors of n: subtracting the
    words that are powers of a shorter root leaves exactly the primitive ones.
    """
    if n < 1:
        raise ValueError("count_primitive requires a word length n >= 1")
    if k < 1:
        raise ValueError("count_primitive requires an alphabet size k >= 1")
    terms = [(1, 1)]  # (d, μ(d)) for each squarefree divisor d of n
    for q, _ in _prime_factorization(n):
        terms += [(d * q, -mu) for d, mu in terms]
    return sum(mu * k ** (n // d) for d, mu in terms)


class CountReport(NamedTuple):
    """Closed-form counts for length ``n`` over ``k`` symbols.

    ``non_ins_robust_upper`` bounds the fragile primitive words from above;
    ``ins_robust_lower`` = primitive − upper bounds the robust ones from
    below and may be negative, in which case the bound is vacuous but still
    reported verbatim.
    """

    n: int
    k: int
    total: int
    primitive: int
    non_primitive: int
    non_ins_robust_upper: int
    ins_robust_lower: int

    @property
    def vacuous(self) -> bool:
        return self.ins_robust_lower < 0


def count_report(n: int, k: int) -> CountReport:
    if n < 2 or k < 2:
        raise ValueError("count_report bounds are defined for n >= 2 and k >= 2")
    total = k**n
    primitive = count_primitive(n, k)
    z_next = k ** (n + 1) - count_primitive(n + 1, k)
    upper = (n + 1) * (z_next - k)
    return CountReport(
        n=n,
        k=k,
        total=total,
        primitive=primitive,
        non_primitive=total - primitive,
        non_ins_robust_upper=upper,
        ins_robust_lower=primitive - upper,
    )


class CensusReport(NamedTuple):
    n: int
    k: int
    non_primitive: int
    ins_robust: int
    non_ins_robust: int
    words: Mapping[Verdict, tuple[str, ...]] | None = None

    @property
    def total(self) -> int:
        return self.non_primitive + self.ins_robust + self.non_ins_robust


def _fragile_classes(n: int, symbols: str) -> set[str]:
    # the least rotation of each primitive prefix (u^q)[:n]; see the module docstring
    classes = set()
    for q, _ in _prime_factorization(n + 1):
        for letters in itertools.product(symbols, repeat=(n + 1) // q):
            x = ("".join(letters) * q)[:n]
            xx = x + x
            if xx.find(x, 1) == n:
                classes.add(min(xx[i : i + n] for i in range(n)))
    return classes


def _constructed_counts(n: int, k: int, classes: set[str]) -> dict[Verdict, int]:
    primitive = count_primitive(n, k)
    fragile = n * len(classes)
    return {
        Verdict.NON_PRIMITIVE: k**n - primitive,
        Verdict.INS_ROBUST: primitive - fragile,
        Verdict.NON_INS_ROBUST: fragile,
    }


def _enumerate(
    alphabet: Alphabet, n: int, classes: set[str], list_words: bool, audit: bool
) -> tuple[dict[Verdict, int], dict[Verdict, tuple[str, ...]] | None]:
    # each word's verdict comes from the construction; an audit also asks the
    # fast classifier and the insertion oracle.  Primitivity is tested with
    # (s + s).find(s, 1), as in _fragile_classes, not with the fast path's
    # rotation compares, which are slower on words this short.
    fragile = {c[i:] + c[:i] for c in classes for i in range(n)}
    counts = dict.fromkeys(Verdict, 0)
    words: dict[Verdict, list[str]] | None
    words = {v: [] for v in Verdict} if list_words else None
    mismatches: list[tuple[str, Verdict, Verdict, Verdict]] = []
    for letters in itertools.product(alphabet.symbols, repeat=n):
        s = "".join(letters)
        if (s + s).find(s, 1) < n:
            verdict = Verdict.NON_PRIMITIVE
        elif s in fragile:
            verdict = Verdict.NON_INS_ROBUST
        else:
            verdict = Verdict.INS_ROBUST
        if audit:
            fast = _fast_verdict_chars(s)
            oracle = classify_oracle(Word(s, alphabet)).verdict
            if fast is not verdict or oracle is not verdict:
                mismatches.append((s, verdict, fast, oracle))
        counts[verdict] += 1
        if words is not None:
            words[verdict].append(s)
    if mismatches:
        shown = "; ".join(
            f"{word!r} constructed={verdict.value} fast={fast.value} oracle={oracle.value}"
            for word, verdict, fast, oracle in mismatches[:5]
        )
        raise OracleMismatchError(
            f"verdicts disagreed on {len(mismatches)} word(s): {shown}"
        )
    words_map = None
    if words is not None:
        words_map = {verdict: tuple(entries) for verdict, entries in words.items()}
    return counts, words_map


def census(
    n: int,
    alphabet: Alphabet,
    *,
    list_words: bool = False,
    budget: int | None = DEFAULT_CENSUS_BUDGET,
    audit_oracle: bool = False,
) -> CensusReport:
    """Tally the verdicts of every length-``n`` word over ``alphabet``.

    The tallies come by construction (see the module docstring) and classify
    no word.  ``list_words`` also lists the words of each class, in
    lexicographic order; their verdicts come from the same construction.
    ``audit_oracle`` checks every word's constructed verdict against the fast
    classifier and the insertion oracle, and the enumerated tallies against
    the constructed ones, and raises ``OracleMismatchError`` on any
    disagreement.  Either one walks all k^n words in one process.
    ``budget`` caps k^n in every case.
    """
    if n < 1:
        raise ValueError("census requires a word length n >= 1")
    if len(alphabet) < 2:
        raise ValueError("census requires an alphabet with at least two symbols")
    k = len(alphabet)
    # k^n is named, not printed: it can pass Python's int-to-str digit limit
    if budget is not None and k**n > budget:
        raise BudgetExceededError(
            f"census of {k}^{n} words exceeds the budget of {budget};"
            " raise the budget to proceed"
        )
    classes = _fragile_classes(n, alphabet.symbols)
    counts = constructed = _constructed_counts(n, k, classes)
    words_map = None
    if list_words or audit_oracle:
        counts, words_map = _enumerate(alphabet, n, classes, list_words, audit_oracle)
    if audit_oracle and constructed != counts:
        shown = ", ".join(
            f"{verdict.value} {constructed[verdict]} != {counts[verdict]}"
            for verdict in Verdict
            if constructed[verdict] != counts[verdict]
        )
        raise OracleMismatchError(
            f"constructed tallies disagreed with the enumerated ones: {shown}"
        )
    return CensusReport(
        n=n,
        k=k,
        non_primitive=counts[Verdict.NON_PRIMITIVE],
        ins_robust=counts[Verdict.INS_ROBUST],
        non_ins_robust=counts[Verdict.NON_INS_ROBUST],
        words=words_map,
    )
