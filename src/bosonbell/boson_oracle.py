"""Ground-truth normal ordering by literal rewriting of boson words.

A word is a string over the alphabet {"a", "A"}, where "a" is the
annihilation operator and "A" the creation operator, with [a, A] = 1.
Normal ordering rewrites every adjacent pair "aA" into "Aa" plus the word
with the pair deleted, until every word has all creators on the left.
The engine keeps a multiset of weighted words and merges equal words
eagerly, processing them in order of decreasing inversion count, which
both guarantees termination and keeps the live set small.

The input string is validated and capped as a string; inside the engine
each live word is one int, its letters as bits ("a" = 1, "A" = 0, the
first letter highest) with no marker bit.  A pair "aA" is then a set bit
over a clear one, found with bit operations, and both children are cut
from the parent's bits without building a string.  Leading creators are
leading zeros and drop out of the int, but neither rewrite changes the
surplus #A - #a, so the input's surplus restores them: each normal word
A^i a^j left at the end is the int 2^j - 1, read back as j = its bit
length and i = j + surplus.  The levels are a list indexed by inversion
count, walked downward from the input's count.

Only the input word's inversion count is counted letter by letter; each
child's count is stepped from its parent's.  Rewriting the "aA" at
positions i, i+1 of a word with ``inv`` inversions gives the swapped
child, ``inv - 1`` (only that pair changes order), and the deleted child,
``inv - 1`` less the creators right of the pair and the annihilators
left of it (the inversions the deleted letters took part in).

This module is deliberately independent of the closed-form routes in
:mod:`bosonbell.stirling_bell`; agreement between the two is the core
correctness argument of the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .stirling_bell import Params

ANNIHILATE = "a"
CREATE = "A"

DEFAULT_WORD_CAP = 64
# the random strategy merges few words: a shuffled balanced word of 24 letters
# rewrites under a thousand words, one of 32 letters about 800,000
RANDOM_WORD_CAP = 24

_SWAP_LETTERS = str.maketrans({ANNIHILATE: CREATE, CREATE: ANNIHILATE})
_BITS = str.maketrans({ANNIHILATE: "1", CREATE: "0"})


class WordLengthError(ValueError):
    """Input word longer than the configured rewriting cap."""


class OracleStructureError(RuntimeError):
    """A normal form violated the structure the expansion guarantees."""


@dataclass(frozen=True)
class NormalForm:
    """sum_{(i,j)} c_{ij} (a+)^i a^j with integer coefficients, no zeros stored."""

    terms: Dict[Tuple[int, int], int]
    # words with inversions popped by the rewriter: a measure of its merging
    words_rewritten: int = field(default=0, compare=False)

    def sorted_terms(self):
        return sorted(self.terms.items())


@dataclass(frozen=True)
class AntiNormalForm:
    """sum_{(j,i)} c (a)^j (a+)^i with all annihilators on the left."""

    terms: Dict[Tuple[int, int], int]


def _validate_word(word: str, max_len: int) -> str:
    if not isinstance(word, str):
        word = "".join(word)
    bad = set(word) - {ANNIHILATE, CREATE}
    if bad:
        raise ValueError(f"word may only contain 'a' and 'A', found {sorted(bad)}")
    if len(word) > max_len:
        raise WordLengthError(f"word of length {len(word)} exceeds cap {max_len}")
    return word


def _inversions(word: str) -> int:
    """Number of (annihilator, creator) pairs in the wrong order."""
    inv = 0
    seen_a = 0
    for ch in word:
        if ch == ANNIHILATE:
            seen_a += 1
        else:
            inv += seen_a
    return inv


def normalize(word: str, strategy: str = "leftmost", rng: random.Random | None = None) -> NormalForm:
    """Normal-order a boson word by exhaustive rewriting of aA pairs.

    Each rewrite replaces one adjacent "aA" with "Aa" (same weight) plus
    the word with the pair removed (same weight).  Every rewrite strictly
    lowers the inversion count, so processing words from the highest
    count downward visits each distinct word once.  The result's
    ``words_rewritten`` counts those visits.

    The live words are held as ints: letter ``i`` of an ``L``-letter word
    is bit ``L-1-i``, 1 for "a" and 0 for "A", with no marker bit.  The
    pair at letters i, i+1 is bit ``j = L-2-i`` clear and bit ``j+1``
    set, so the pairs are the set bits of ``(w >> 1) & ~w``; rewriting
    one flips both bits for the swapped child and cuts both out for the
    deleted one.  Leading creators are leading zeros and drop out of the
    int, but both rewrites keep the surplus ``#A - #a``, so a word is
    fixed by its int and the input's surplus.  A normal word ``A^i a^j``
    is the int ``2^j - 1``: ``j`` is its bit length and ``i = j +
    surplus``.

    ``strategy`` picks which reducible pair is rewritten: "leftmost",
    "rightmost", or "random" (requires ``rng``; it draws from the pairs
    in increasing letter position).  The result is the same for every
    strategy; the choice exists so tests can confirm that.  Words longer
    than ``DEFAULT_WORD_CAP`` letters, or than ``RANDOM_WORD_CAP`` for
    "random", raise :class:`WordLengthError` before any rewriting.  A
    word filed under a wrong inversion count raises
    :class:`OracleStructureError` rather than giving a wrong form: a word
    without a pair above level 0, a child below level 0, or a word left at
    level 0 that is not normal.
    """
    word = _validate_word(word, RANDOM_WORD_CAP if strategy == "random" else DEFAULT_WORD_CAP)
    if strategy not in ("leftmost", "rightmost", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "random" and rng is None:
        raise ValueError("strategy='random' needs an rng")
    leftmost, rightmost = strategy == "leftmost", strategy == "rightmost"
    surplus = word.count(CREATE) - word.count(ANNIHILATE)
    top = _inversions(word)
    # levels[k] holds the words with k inversions, each word once
    levels = [{} for _ in range(top + 1)]
    levels[top][int("0" + word.translate(_BITS), 2)] = 1
    words_rewritten = 0
    try:
        for inv in range(top, 0, -1):
            level, swap_level = levels[inv], levels[inv - 1]
            words_rewritten += len(level)
            for w, c in level.items():
                # the pair mask m has bit j set for each pair at bits j+1, j.  A
                # word without a pair filed above level 0 has m == 0, so j == -1:
                # 3 << j raises ValueError (rng.choice([]) IndexError), which the
                # except below reports instead of rewriting a missing pair
                m = (w >> 1) & ~w
                if leftmost:
                    j = m.bit_length() - 1
                elif rightmost:
                    j = (m & -m).bit_length() - 1
                else:
                    # highest bit first: the pairs in increasing letter position
                    j = rng.choice([b for b in range(m.bit_length() - 1, -1, -1) if m >> b & 1])
                child = w ^ (3 << j)
                swap_level[child] = swap_level.get(child, 0) + c
                high, low = w >> (j + 2), w & ((1 << j) - 1)
                child = high << j | low
                # less the creators right of the pair (the zero bits of low) and
                # the annihilators left of it (the set bits of high)
                k = inv - 1 - j + low.bit_count() - high.bit_count()
                if k < 0:
                    raise OracleStructureError(f"a child of {w:b} falls to level {k}")
                dropped = levels[k]
                dropped[child] = dropped.get(child, 0) + c
    except (ValueError, IndexError) as exc:
        raise OracleStructureError(f"word {w:b} at level {inv} has no pair to rewrite") from exc
    # the words left are A^i a^j, one per (i, j), with positive weights
    terms = {}
    for w, c in levels[0].items():
        if w & (w + 1):
            raise OracleStructureError(f"word {w:b} left at level 0 is not normal")
        j = w.bit_length()
        terms[(j + surplus, j)] = c
    return NormalForm(terms=terms, words_rewritten=words_rewritten)


def antinormalize(word: str) -> AntiNormalForm:
    """Anti-normal order: all annihilators to the left.

    The letter swap a -> a+, a+ -> -a preserves [a, a+] = 1 and sends
    normal order to anti-normal order, so no second rewrite engine is
    needed.  Normal-order the swapped word w' instead: its term
    (a+)^i a^j with coefficient d maps back to a^i (a+)^j with
    coefficient (-1)^(#A(w) - j) d, where #A(w) - j is the number of
    contractions (each "Aa -> aA - 1" step contributes one minus sign).
    """
    word = _validate_word(word, DEFAULT_WORD_CAP)
    creators = word.count(CREATE)
    swapped = normalize(word.translate(_SWAP_LETTERS))
    return AntiNormalForm(terms={
        (i, j): -c if (creators - j) % 2 else c for (i, j), c in swapped.terms.items()
    })


def power_word(p: Params, n: int) -> NormalForm:
    """Normal form of [(a+)^r a^s]^n, by rewriting the concatenated word."""
    if n < 1:
        raise ValueError(f"power_word requires n >= 1, got n={n}")
    return normalize((CREATE * p.r + ANNIHILATE * p.s) * n)


def _banded_row(nf: NormalForm, n: int, d: int, band: range) -> Dict[int, int]:
    """Map k -> coefficient of a normal form whose terms must all have the
    creator surplus i - j = n d and the smaller exponent k = min(i, j) in
    ``band``.  Any other shape means the oracle itself is broken and
    raises :class:`OracleStructureError`.
    """
    row: Dict[int, int] = {}
    for (i, j), c in nf.sorted_terms():
        if i - j != n * d:
            raise OracleStructureError(f"term (a+)^{i} a^{j} breaks the offset n(r-s)={n*d}")
        k = min(i, j)
        if k not in band:
            raise OracleStructureError(f"index k={k} outside band [{band.start}, {band.stop - 1}]")
        row[k] = c
    return row


def extract_stirling_row(p: Params, n: int) -> Dict[int, int]:
    """Read row n of S_{r,s} off the normal form of [(a+)^r a^s]^n.

    For r >= s every term must look like (a+)^(k + n(r-s)) a^k with
    s <= k <= n s; for r <= s like (a+)^k a^(k + n(s-r)) with
    r <= k <= n r.  Any other shape means the oracle itself is broken
    and raises :class:`OracleStructureError`.
    """
    return _banded_row(power_word(p, n), n, p.r - p.s, p.band(n))


def extract_anti_stirling_row(p: Params, n: int) -> Dict[int, int]:
    """Row n of the anti-Stirling numbers, from the word [a^s (a+)^r]^n.

    Requires r >= s.  The normal form must factor as
    (a+)^(n(r-s)) sum_{k=0}^{ns} tilde S(n,k) (a+)^k a^k; the returned map
    is k -> tilde S(n,k).
    """
    if p.r < p.s:
        raise ValueError("extract_anti_stirling_row requires r >= s")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nf = normalize((ANNIHILATE * p.s + CREATE * p.r) * n)
    return _banded_row(nf, n, p.r - p.s, range(n * p.s + 1))

