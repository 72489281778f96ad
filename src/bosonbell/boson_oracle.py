"""Ground-truth normal ordering by literal rewriting of boson words.

A word is a string over the alphabet {"a", "A"}, where "a" is the
annihilation operator and "A" the creation operator, with [a, A] = 1.
Normal ordering rewrites every adjacent pair "aA" into "Aa" plus the word
with the pair deleted, until every word has all creators on the left.
The engine keeps a multiset of weighted words and merges equal words
eagerly, processing them in order of decreasing inversion count, which
both guarantees termination and keeps the live set small.

This module is deliberately independent of the closed-form routes in
:mod:`bosonbell.stirling_bell`; agreement between the two is the core
correctness argument of the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .exact_core import RationalLike
from .stirling_bell import Params

ANNIHILATE = "a"
CREATE = "A"

DEFAULT_WORD_CAP = 64

_SWAP_LETTERS = str.maketrans({ANNIHILATE: CREATE, CREATE: ANNIHILATE})


class WordLengthError(ValueError):
    """Input word longer than the configured rewriting cap."""


class OracleStructureError(RuntimeError):
    """A normal form violated the structure the expansion guarantees."""


@dataclass(frozen=True)
class NormalForm:
    """sum_{(i,j)} c_{ij} (a+)^i a^j with integer coefficients, no zeros stored."""

    terms: Dict[Tuple[int, int], int]

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


def _reducible_positions(word: str):
    return [i for i in range(len(word) - 1) if word[i] == ANNIHILATE and word[i + 1] == CREATE]


def normalize(
    word: str,
    strategy: str = "leftmost",
    rng: random.Random | None = None,
    max_len: int = DEFAULT_WORD_CAP,
) -> NormalForm:
    """Normal-order a boson word by exhaustive rewriting of aA pairs.

    Each rewrite replaces one adjacent "aA" with "Aa" (same weight) plus
    the word with the pair removed (same weight).  Every rewrite strictly
    lowers the inversion count, so processing words from the highest
    count downward visits each distinct word once.

    ``strategy`` picks which reducible pair is rewritten: "leftmost",
    "rightmost", or "random" (requires ``rng``).  The result is the same
    for every strategy; the choice exists so tests can confirm that.
    """
    word = _validate_word(word, max_len)
    if strategy == "random" and rng is None:
        raise ValueError("strategy='random' needs an rng")
    if strategy not in ("leftmost", "rightmost", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")

    buckets: Dict[int, Dict[str, int]] = {}

    def push(w: str, c: int) -> None:
        level = buckets.setdefault(_inversions(w), {})
        level[w] = level.get(w, 0) + c

    push(word, 1)
    terms: Dict[Tuple[int, int], int] = {}
    while buckets:
        inv = max(buckets)
        for w, c in buckets.pop(inv).items():
            if c == 0:
                continue
            if inv == 0:
                key = (w.count(CREATE), w.count(ANNIHILATE))
                total = terms.get(key, 0) + c
                if total:
                    terms[key] = total
                else:
                    terms.pop(key, None)
                continue
            if strategy == "leftmost":
                i = w.find(ANNIHILATE + CREATE)
            elif strategy == "rightmost":
                i = w.rfind(ANNIHILATE + CREATE)
            else:
                i = rng.choice(_reducible_positions(w))
            push(w[:i] + CREATE + ANNIHILATE + w[i + 2 :], c)
            push(w[:i] + w[i + 2 :], c)
    return NormalForm(terms=terms)


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


def coherent_expectation_exact(nf: NormalForm, z: RationalLike) -> Fraction:
    """<z| nf |z> for real rational z, using <z|(a+)^i a^j|z> = z^(i+j)."""
    z = Fraction(z)
    return sum((c * z ** (i + j) for (i, j), c in nf.terms.items()), Fraction(0))
