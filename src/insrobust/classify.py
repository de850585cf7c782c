"""Verdicts on words: non-primitive, ins-robust, or non-ins-robust.

A primitive word is *ins-robust* when inserting any single alphabet letter at
any of the n+1 positions leaves it primitive.  The fast classifier rests on a
rotation argument: inserting c at position i and rotating by i+1 yields
rotate(w, i)·c, so w is non-ins-robust exactly when some length-n window of
ww starting at i ≤ n has a period p that divides n+1 with p ≤ n — the
inserted letter is then forced and the extended word is a perfect power.
Such a p divides some maximal period (n+1)/q, q a prime of n+1, and the
window has that period too, so only the ω(n+1) maximal periods are decided;
the smallest p follows from the root length of one window per maximal period
that hits (``_first_hit``).  No divisor of n+1 is listed.

A period p is decided by its mismatches D = {j : s[j] != s[(j+p) mod n]}:
the window at i has period p iff its n-p cyclic positions lie in one gap of
D, and at most one gap is that long (``_leftmost_periodic_start``).  Evenly
spaced blocks of at most (n-p+1)//2 positions of s are compared with the
same blocks of the rotation s[p:] + s[:p]; that gap would hold a whole block,
so if every block differs no window fits.  That decides almost every period
of a random word.  Both the block compares and the galloping slice compares
that extend an agreeing block to its gap read one string, s + s + s[:p],
where the symbol p past j is the rotation's symbol at j.  A word costs
O(n · ω(n+1)) symbols of memcmp, fragile or not, and O(ω(n+1)) Python steps
when every block differs.  Memory: 2n + p symbols per decision.  The
primitivity check is ``words._root_length``, by rotation compares; the
oracle keeps ``(s + s).find(s, 1)`` as an independent check.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple

from .repetitions import _lce, _lce_back
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


def _leftmost_periodic_start(s: str, n: int, p: int) -> int | None:
    """Smallest i in [0, n] whose length-n window of ss has period p, else None.

    ``n`` is ``len(s)`` and p an eligible period.  With D = {j : s[j] !=
    s[(j+p) mod n]}, the window at i has period p iff its n-p cyclic
    positions from i avoid D, that is, lie in one gap of D.  As p <= (n+1)/2,
    two gaps of n-p positions would leave no room for the two mismatches
    between them, so at most one gap is long enough.  [0, n) is cut into
    evenly spaced blocks of at most (n-p+1)//2 positions, so that gap holds a
    whole block; a block of s that differs from the same block of the rotation
    s[p:] + s[:p] meets D.  The rotation is read at offset p in t = s + s +
    s[:p], built once, which the extensions read too.  A block that agrees is
    extended forward to the end of its gap; one compare of the symbols before
    it tells whether the gap is long enough, and only then is it extended
    back to its start.  A short gap is skipped with the blocks it holds.
    Memory: 2n + p symbols per decision, in t, and one block slice.
    """
    need = n - p
    if need <= 0:
        return 0
    t = "".join((s, s, s[:p]))  # t[j + p] is the rotation's symbol at j mod n
    blocks = -(-n // ((need + 1) // 2))
    k = 0
    while k < blocks:
        start, end = k * n // blocks, (k + 1) * n // blocks
        k += 1
        if not t.startswith(s[start:end], start + p):
            continue
        room = n - (end - start)
        fwd = _lce(t, end, end + p, room)
        if fwd == room:  # D is empty: every window fits
            return 0
        # a window fits iff the gap also holds the `lack` symbols before start
        lack = need - (end - start) - fwd
        mid = start + n
        if lack <= 0 or t[mid - lack : mid] == t[mid - lack + p : mid + p]:
            first = start - _lce_back(t, mid, mid + p, room - fwd, max(lack, 0))
            last = end + fwd - need
            # the windows start at first..last, read mod n; i = n is i = 0
            i = first % n
            return 0 if i + last - first >= n else i
        # the gap ends at the mismatch end + fwd: go on past its block
        k = -(-(end + fwd + 1) * blocks // n)
    return None


def _maximal_hits(s: str) -> Iterator[tuple[int, int]]:
    """Each maximal period (n+1)/q, q a prime of n+1, that some window of ss
    has, with its leftmost start, largest period first."""
    n = len(s)
    m = n + 1
    for q, _ in reversed(_prime_factorization(m)):
        p = m // q
        i = _leftmost_periodic_start(s, n, p)
        if i is not None:
            yield p, i


def _first_hit(s: str) -> tuple[int, int] | None:
    """The smallest eligible period p that some window of ss has, with the
    leftmost such window, or None.

    A window of period p has period P for each maximal P that p divides; it
    has n >= 2P-1 symbols, so it has period p exactly when its first P
    symbols u do, that is, when the root length of u divides p.  Along the
    gap of one maximal period u runs through conjugates, which share a root
    length, so the answer is the least (root length of u, start) over the
    maximal periods that hit.
    """
    n = len(s)
    return min(
        (
            (_root_length(s[i : i + p] if i + p <= n else s[i:] + s[: i + p - n]), i)
            for p, i in _maximal_hits(s)
        ),
        default=None,
    )


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
            f"period decision produced a primitive extension for {s!r} (p={p}, i={start})"
        )
    return Classification.non_ins_robust(
        (InsertionWitness(position=start, letter=letter, root=root, power=power),)
    )


def classify_oracle(w: Word) -> Classification:
    """Classify ``w`` by trying every insertion; lists every witness found,
    in (position, alphabet) order.

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
    witnesses = []
    for position in range(n + 1):
        head, tail = s[:position], s[position:]
        for letter in w.alphabet.symbols:
            x = head + letter + tail
            er = (x + x).find(x, 1)
            if er <= n:  # x is a proper power
                root = Word(x[:er], w.alphabet)
                witnesses.append(InsertionWitness(position, letter, root, (n + 1) // er))
    if witnesses:
        return Classification.non_ins_robust(tuple(witnesses))
    return Classification.ins_robust()


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
    hit = next(_maximal_hits(s), None)
    return Verdict.INS_ROBUST if hit is None else Verdict.NON_INS_ROBUST

