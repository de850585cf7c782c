"""Verdicts on words: non-primitive, ins-robust, or non-ins-robust.

A primitive word is *ins-robust* when inserting any single alphabet letter at
any of the n+1 positions leaves it primitive.  The fast classifier rests on a
rotation argument: inserting c at position i and rotating by i+1 yields
rotate(w, i)·c, so w is non-ins-robust exactly when some length-n window of
ww starting at i ≤ n has a period p that divides n+1 with p ≤ n — the
inserted letter is then forced and the extended word is a perfect power.
A window with period p also has every multiple of p as a period, so only the
maximal periods (n+1)/q, one per prime q of n+1, need deciding first: an
ins-robust word costs ω(n+1) decisions, and a fragile one ω(n+1) plus the
smaller periods those hits allow, up to the first that hits.

A period p is first decided by block compares (``_no_window``): the window
at i has period p iff its n-p cyclic positions avoid the mismatches
D = {j : s[j] != s[(j+p) mod n]}, and if each evenly spaced block of at most
(n-p+1)//2 positions of s differs from the same block of the rotation
s[p:] + s[:p], every block meets D and no window fits.  When every block
differs, as on almost every period of a random word, an ins-robust word
costs O(ω(n+1)) Python steps and O(n · ω(n+1)) symbols of memcmp.  The
compares hold one rotation copy of n symbols and one block slice at a time.

Only a period the compares leave open is scanned, in plain stdlib.  The
word is then encoded once, at a fixed width (latin-1, or utf-32-le when a
symbol is above U+00FF), and ww becomes one big integer.  A scan XORs it
with itself shifted by p symbols and ``bytes.find`` looks for the first run
of n-p zero symbols; it holds a few transient buffers of 2n·width bytes.
The maximal periods come from the cached factorization of n+1; the divisors
of n+1 are listed only once a maximal period hits.  The primitivity check
is ``words._root_length``, by rotation compares; the oracle keeps
``(s + s).find(s, 1)`` as an independent check.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple

from .repetitions import find_maximal_repetitions
from .words import Word, _prime_factorization, _root_length, insert, primitive_root


class Verdict(Enum):
    NON_PRIMITIVE = "non-primitive"
    INS_ROBUST = "ins-robust"
    NON_INS_ROBUST = "non-ins-robust"


class InsertionWitness(NamedTuple):
    """A single insertion that destroys primitivity.

    ``insert(w, position, letter)`` equals ``root ** power`` with the root
    primitive and ``power >= 2``.
    """

    position: int
    letter: str
    root: Word
    power: int


class Classification(NamedTuple):
    verdict: Verdict
    root: Word | None = None
    exponent: int | None = None
    witnesses: tuple[InsertionWitness, ...] = ()

    @classmethod
    def non_primitive(cls, root: Word, exponent: int) -> "Classification":
        return cls(Verdict.NON_PRIMITIVE, root=root, exponent=exponent)

    @classmethod
    def ins_robust(cls) -> "Classification":
        return _INS_ROBUST

    @classmethod
    def non_ins_robust(cls, witnesses: tuple[InsertionWitness, ...]) -> "Classification":
        if not witnesses:
            raise ValueError("a non-ins-robust classification needs at least one witness")
        return cls(Verdict.NON_INS_ROBUST, witnesses=witnesses)


_INS_ROBUST = Classification(Verdict.INS_ROBUST)


class DensityGuaranteeError(RuntimeError):
    """Raised when no single-letter padding makes a word ins-robust.

    The search is guaranteed to succeed for alphabets of size >= 2; hitting
    this error means the library (or the guarantee) is wrong, so the test
    suite treats it as a hard failure rather than a skippable condition.
    """


def _require_classifiable(w: Word) -> None:
    if len(w.chars) == 0:
        raise ValueError("classification is undefined for the empty word")
    if len(w.alphabet) < 2:
        raise ValueError("classification requires an alphabet with at least two symbols")


def eligible_periods(n: int) -> tuple[int, ...]:
    """Divisors of n+1 that do not exceed n, ascending.

    These are the only candidate root lengths for a non-primitive word of
    length n+1 reachable by one insertion; every one of them yields a power
    of exponent >= 2, because the sole divisor of n+1 above (n+1)/2 is n+1.
    """
    divisors = [1]
    for q, e in _prime_factorization(n + 1):
        divisors = [d * q**k for d in divisors for k in range(e + 1)]
    return tuple(sorted(d for d in divisors if d <= n))


def _encode(s: str) -> tuple[int, int]:
    """ww as one little-endian integer, and its bytes per symbol."""
    try:
        e, width = s.encode("latin-1"), 1
    except UnicodeEncodeError:
        e, width = s.encode("utf-32-le", "surrogatepass"), 4
    x = int.from_bytes(e, "little")
    return x | x << (8 * len(e)), width


def _leftmost_periodic_start(v: tuple[int, int], n: int, p: int) -> int | None:
    """Smallest i in [0, n] whose length-n window of ww has period p, else None.

    ``v`` is ``_encode(w)``.  The window at i has period p iff ww[t] ==
    ww[t+p] for every t in [i, i+n-p-1]: a run of n-p zero symbols in ww XOR
    (ww shifted by p), ending by symbol 2n-p, where the shifted copy runs
    out.  A zero run at an offset off the symbol grid is searched again from
    the next symbol.  Transient memory: a few buffers of 2n·width bytes.
    """
    need = n - p
    if need <= 0:
        return 0
    x, width = v
    diff = (x ^ (x >> (8 * width * p))).to_bytes(2 * n * width, "little")
    zeros = bytes(need * width)
    end = (2 * n - p) * width
    j = diff.find(zeros, 0, end)
    while j > 0 and j % width:
        j = diff.find(zeros, j - j % width + width, end)
    return None if j < 0 else j // width


def _no_window(s: str, p: int) -> bool:
    """True when block compares prove that no window of ss has period p.

    With D = {j : s[j] != s[(j+p) mod n]}, the window at i has period p iff
    the n-p cyclic positions from i avoid D.  [0, n) is cut into evenly
    spaced blocks of at most (n-p+1)//2 positions, so any n-p consecutive
    cyclic positions cover a whole block.  If every block of s differs from
    the same block of the rotation s[p:] + s[:p], every block meets D and no
    window has period p.  False means the compares did not decide.
    """
    n = len(s)
    size = (n - p + 1) // 2
    if size == 0:
        return False
    rot = s[p:] + s[:p]
    blocks = -(-n // size)
    start = 0
    for k in range(1, blocks + 1):
        end = k * n // blocks
        if rot.startswith(s[start:end], start):
            return False
        start = end
    return True


def _maximal_hits(s: str) -> tuple[dict[int, int], tuple[int, int] | None]:
    """The leftmost start of each maximal period (n+1)/q that hits, q a
    prime of n+1, keyed by period, and ``_encode(s)`` if a scan needed it.

    A period is scanned only when ``_no_window`` cannot rule it out.
    """
    n = len(s)
    m = n + 1
    hits = {}
    v = None
    for q, _ in reversed(_prime_factorization(m)):
        p = m // q
        if _no_window(s, p):
            continue
        if v is None:
            v = _encode(s)
        i = _leftmost_periodic_start(v, n, p)
        if i is not None:
            hits[p] = i
    return hits, v


def _first_hit(s: str) -> tuple[int, int] | None:
    """The smallest eligible period p whose window of ss at some i has period
    p, with the leftmost such i.

    A window with period p has every multiple of p as a period too, so p can
    hit only where every maximal period it divides hits.  The maximal periods
    are decided first; then, in ascending order, only the periods they allow.
    """
    n = len(s)
    hits, v = _maximal_hits(s)
    if not hits:
        return None
    maximal = [(n + 1) // q for q, _ in _prime_factorization(n + 1)]
    for p in eligible_periods(n):
        if all(top in hits for top in maximal if top % p == 0):
            if p in hits:
                return p, hits[p]
            if not _no_window(s, p):
                i = _leftmost_periodic_start(v, n, p)
                if i is not None:
                    return p, i
    return None


def classify_fast(w: Word) -> Classification:
    """Classify ``w`` in near-linear time, with one witness when fragile.

    The witness is deterministic: smallest candidate period first, leftmost
    window for that period; it is validated by actually performing the
    insertion and factoring the result rather than trusting the index math.
    """
    _require_classifiable(w)
    s = w.chars
    n = len(s)
    r = _root_length(s)
    if r < n:
        return Classification.non_primitive(Word(s[:r], w.alphabet), n // r)
    hit = _first_hit(s)
    if hit is None:
        return Classification.ins_robust()
    p, start = hit
    letter = s[(start + p - 1) % n]
    root, power = primitive_root(insert(w, start, letter))
    if power < 2:
        raise RuntimeError(
            f"window scan produced a primitive extension for {s!r} (p={p}, i={start})"
        )
    return Classification.non_ins_robust(
        (InsertionWitness(position=start, letter=letter, root=root, power=power),)
    )


def _collapsing_insertions(s: str, symbols: str) -> Iterator[tuple[int, str, int]]:
    """Each (position, letter, root length) whose insertion into ``s`` gives
    a proper power, in (position, alphabet) order."""
    n = len(s)
    for position in range(n + 1):
        head, tail = s[:position], s[position:]
        for letter in symbols:
            x = head + letter + tail
            er = (x + x).find(x, 1)
            if er < n + 1:
                yield position, letter, er


def classify_oracle(w: Word) -> Classification:
    """Classify ``w`` by trying every insertion; lists every witness found.

    O(n^2 · k) reference implementation — the ground truth the fast
    classifier is validated against, never the hot path.  Its root lengths
    come from ``(s + s).find(s, 1)``, not from the fast path's rotation
    compares.
    """
    _require_classifiable(w)
    s = w.chars
    n = len(s)
    r = (s + s).find(s, 1)
    if r < n:
        return Classification.non_primitive(Word(s[:r], w.alphabet), n // r)
    witnesses = tuple(
        InsertionWitness(
            position=position,
            letter=letter,
            root=Word((s[:position] + letter + s[position:])[:er], w.alphabet),
            power=(n + 1) // er,
        )
        for position, letter, er in _collapsing_insertions(s, w.alphabet.symbols)
    )
    if witnesses:
        return Classification.non_ins_robust(witnesses)
    return Classification.ins_robust()


def is_ins_robust_runs_only(w: Word) -> bool:
    """Decide robustness from the runs of ww alone, by two literal gates.

    Gate one treats any run whose period divides |w| (period < |w|) as proof
    of non-primitivity; gate two treats any run with period p <= |w|,
    p dividing |w|+1 and length >= |w| as proof of fragility.  Both gates are
    kept exactly as stated, and both are wrong in places:

    - gate one also fires on short interior runs of primitive words, so the
      ins-robust "abba" is rejected for its "bb" (``test_09a``);
    - gate two misses fragile words whose witness factor has exponent below
      2, since such a factor is not a run.  For "aab" (witness factor "aba")
      gate one fires first on the run "aa", so the checker still returns
      False (``test_pinned_fixtures``).  Where gate one is silent the checker
      accepts a non-ins-robust word; the shortest such words have length 5,
      e.g. "abcab", where inserting "c" at 5 gives (abc)^2 (``test_09b``).
      No binary word of length <= 12 is wrongly accepted.

    ``classify_fast`` is the corrected decision procedure.
    """
    _require_classifiable(w)
    s = w.chars
    n = len(s)
    for run in find_maximal_repetitions(Word(s + s, w.alphabet)):
        p = run.period
        if n % p == 0 and p < n:
            return False
        if p <= n and (n + 1) % p == 0 and run.length >= n:
            return False
    return True


def density_extension(w: Word) -> str:
    """A letter b, in alphabet order, with w · b^|w| ins-robust.

    At most one letter of the alphabet can fail, so the first or second
    candidate always succeeds; exhausting the alphabet raises
    ``DensityGuaranteeError``.
    """
    _require_classifiable(w)
    n = len(w.chars)
    for letter in w.alphabet:
        padded = Word(w.chars + letter * n, w.alphabet)
        if classify_fast(padded).verdict is Verdict.INS_ROBUST:
            return letter
    raise DensityGuaranteeError(
        f"no single-letter padding of length {n} makes {w.chars!r} ins-robust"
    )


def non_ins_robust_decomposition(
    w: Word, witness: InsertionWitness
) -> tuple[int, Word, Word, int]:
    """Split ``w`` as root^r · u1 · u2 · root^s around an insertion witness.

    With u1 · letter · u2 == root and r + s + 1 == power, re-inserting the
    letter completes the interrupted copy of the root.  Reconstruction is
    verified symbol-by-symbol; an inconsistent witness raises ValueError.
    """
    extended = insert(w, witness.position, witness.letter)
    root = witness.root.chars
    if witness.power < 2 or not root:
        raise ValueError("witness power must be >= 2 with a non-empty root")
    if root * witness.power != extended.chars:
        raise ValueError("witness root and power do not rebuild the extended word")
    if _root_length(root) != len(root):
        raise ValueError("witness root is not primitive")
    copies, offset = divmod(witness.position, len(root))
    u1 = root[:offset]
    u2 = root[offset + 1 :]
    trailing = witness.power - copies - 1
    if u1 + witness.letter + u2 != root:
        raise ValueError("witness letter does not sit inside the root as claimed")
    if root * copies + u1 + u2 + root * trailing != w.chars:
        raise ValueError("decomposition does not reconstruct the word")
    return copies, Word(u1, w.alphabet), Word(u2, w.alphabet), trailing


def _fast_verdict_chars(s: str) -> Verdict:
    # census hot path: verdict only, no Word/witness construction; some period
    # hits iff a maximal one does, so the maximal periods are all it decides
    if _root_length(s) < len(s):
        return Verdict.NON_PRIMITIVE
    hits, _ = _maximal_hits(s)
    return Verdict.NON_INS_ROBUST if hits else Verdict.INS_ROBUST


def _oracle_verdict_chars(s: str, symbols: str) -> Verdict:
    if (s + s).find(s, 1) < len(s):
        return Verdict.NON_PRIMITIVE
    hit = next(_collapsing_insertions(s, symbols), None)
    return Verdict.INS_ROBUST if hit is None else Verdict.NON_INS_ROBUST
