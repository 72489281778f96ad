"""Ground-truth normal ordering by literal rewriting of boson words.

A word is a string over the alphabet {"a", "A"}, where "a" is the
annihilation operator and "A" the creation operator, with [a, A] = 1.
Normal ordering rewrites every adjacent pair "aA" into "Aa" plus the word
with the pair deleted, until every word has all creators on the left.
The engine keeps a multiset of weighted words and merges equal words
eagerly, processing them in order of decreasing inversion count, which
both guarantees termination and keeps the live set small.

The input string is validated and capped as a string; inside the engine
each live word is one int, its letters as bits ("A" = 1, "a" = 0, the
first letter highest) under a marker 1 that keeps leading annihilators.
A pair "aA" is then a set bit under a clear one, found with bit
operations, and both children are cut from the parent's bits without
building a string.  The normal words left at the end are read back by
bit count and bit length.

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
_BITS = str.maketrans({ANNIHILATE: "0", CREATE: "1"})


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

    def sorted_terms(self):
        return sorted(self.terms.items())


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
    is bit ``L-1-i``, 1 for "A" and 0 for "a", under a marker 1 at bit
    ``L`` that keeps leading annihilators.  The pair at letters i, i+1 is
    bit ``j = L-2-i`` set and bit ``j+1`` clear, so the pairs are the set
    bits of ``(w & ~(w >> 1)) ^ (1 << L)``; rewriting one flips both bits
    for the swapped child and cuts both out for the deleted one.

    ``strategy`` picks which reducible pair is rewritten: "leftmost",
    "rightmost", or "random" (requires ``rng``; it draws from the pairs
    in increasing letter position).  The result is the same for every
    strategy; the choice exists so tests can confirm that.  Words longer
    than ``DEFAULT_WORD_CAP`` letters, or than ``RANDOM_WORD_CAP`` for
    "random", raise :class:`WordLengthError` before any rewriting.
    """
    word = _validate_word(word, RANDOM_WORD_CAP if strategy == "random" else DEFAULT_WORD_CAP)
    # the set bits of a word's pair mask m are the bits j of its "aA"
    # pairs.  A word without a pair filed in a bucket above 0 has m == 0,
    # so j == -1 and the shift 3 << j raises (rng.choice raises on an
    # empty list) instead of rewriting a pair that is not there
    if strategy == "leftmost":
        def find(m: int) -> int:
            return m.bit_length() - 1
    elif strategy == "rightmost":
        def find(m: int) -> int:
            return (m & -m).bit_length() - 1
    elif strategy != "random":
        raise ValueError(f"unknown strategy {strategy!r}")
    elif rng is None:
        raise ValueError("strategy='random' needs an rng")
    else:
        def find(m: int) -> int:
            # highest bit first: the pairs in increasing letter position
            return rng.choice([j for j in range(m.bit_length() - 1, -1, -1) if m >> j & 1])

    buckets: Dict[int, Dict[int, int]] = {
        _inversions(word): {int("1" + word.translate(_BITS), 2): 1}}
    words_rewritten = 0
    while True:
        inv = max(buckets)
        level = buckets.pop(inv)
        if inv == 0:
            break
        words_rewritten += len(level)
        swap_level = buckets.setdefault(inv - 1, {})
        for w, c in level.items():
            j = find((w & ~(w >> 1)) ^ (1 << (w.bit_length() - 1)))
            child = w ^ (3 << j)
            swap_level[child] = swap_level.get(child, 0) + c
            high, low = w >> (j + 2), w & ((1 << j) - 1)
            child = high << j | low
            # less the creators right of the pair and the annihilators
            # left of it: the zero bits of the high part below its marker
            dropped = buckets.setdefault(
                inv - 1 - low.bit_count() - high.bit_length() + high.bit_count(), {})
            dropped[child] = dropped.get(child, 0) + c
    # the words left are A^i a^j, one per (i, j), with positive weights
    terms = {(w.bit_count() - 1, w.bit_length() - w.bit_count()): c for w, c in level.items()}
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

