"""Reference values the benchmark checks outputs against.

Nothing here imports bosonbell: every value is computed by a route the
package does not use, so a wrong answer cannot agree with itself.

* Triangle rows come from Wick reordering: right-multiplying the row-n
  normal form by (a+)^r a^s with
  a^k (a+)^r = sum_j C(k,j) C(r,j) j! (a+)^(r-j) a^(k-j)
  gives S(n+1, k-j+s) += C(k,j) C(r,j) j! S(n,k).
* Normal forms of arbitrary words come from rook numbers: by Wick's
  theorem the coefficient of (a+)^(#A-k) a^(#a-k) counts the ways to
  contract k disjoint (a, A) pairs with the a to the left of the A.
* Hypergeometric values come from mpmath at extra precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import mpmath


class StirlingReference:
    """Rows S_{r,s}(n, .), grown on demand per (r, s).

    ``rows`` keeps every row up to n_max; ``row`` beyond the kept rows
    rolls forward and keeps only the row asked for, so far-out point
    values do not hold whole triangles in memory.
    """

    def __init__(self):
        self._rows = {}
        self._far = {}

    @staticmethod
    def _next_row(row: dict, r: int, s: int) -> dict:
        nxt = {}
        for k, v in row.items():
            for j in range(min(k, r) + 1):
                key = k - j + s
                nxt[key] = nxt.get(key, 0) + comb(k, j) * comb(r, j) * factorial(j) * v
        return {k: v for k, v in nxt.items() if v}

    def rows(self, r: int, s: int, n_max: int) -> list:
        if r < s:
            r, s = s, r
        rows = self._rows.setdefault((r, s), [{0: 1}])
        while len(rows) <= n_max:
            rows.append(self._next_row(rows[-1], r, s))
        return rows

    def row(self, r: int, s: int, n: int) -> dict:
        if r < s:
            r, s = s, r
        kept = self._rows.get((r, s), [])
        if n < len(kept):
            return kept[n]
        if (r, s, n) not in self._far:
            row = self.rows(r, s, 0)[-1]
            for _ in range(len(self._rows[(r, s)]) - 1, n):
                row = self._next_row(row, r, s)
            self._far[(r, s, n)] = row
        return self._far[(r, s, n)]

    def value(self, r: int, s: int, n: int, k: int) -> int:
        return self.row(r, s, n).get(k, 0)

    def bell(self, r: int, s: int, n: int) -> int:
        return sum(self.row(r, s, n).values())

    def bell_polynomial(self, r: int, s: int, n: int, t: Fraction) -> Fraction:
        return sum((v * t**k for k, v in self.row(r, s, n).items()), Fraction(0))


def _matchings(neighbourhoods: list) -> list:
    """Counts of k-matchings on a Ferrers board, k = 0, 1, ...

    Each entry is the number of partners one left element may take; the
    partner sets are nested, so after sorting each placed match removes
    exactly one partner from every later set.
    """
    counts = [1]
    for placed, size in enumerate(sorted(neighbourhoods)):
        nxt = counts + [0]
        for j in range(1, placed + 2):
            nxt[j] += counts[j - 1] * max(size - (j - 1), 0)
        counts = nxt
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def normal_form(word: str) -> dict:
    """{(i, j): c} with c (a+)^i a^j summing to the normally ordered word."""
    n_a, n_A = word.count("a"), word.count("A")
    creators_right, sizes = n_A, []
    for ch in word:
        if ch == "A":
            creators_right -= 1
        else:
            sizes.append(creators_right)
    return {(n_A - k, n_a - k): c for k, c in enumerate(_matchings(sizes)) if c}


def anti_normal_form(word: str) -> dict:
    """{(j, i): c} with c a^j (a+)^i summing to the anti-normally ordered word."""
    n_a, n_A = word.count("a"), word.count("A")
    annihilators_right, sizes = n_a, []
    for ch in word:
        if ch == "a":
            annihilators_right -= 1
        else:
            sizes.append(annihilators_right)
    return {(n_a - k, n_A - k): (-1) ** k * c
            for k, c in enumerate(_matchings(sizes)) if c}


def hypergeometric(upper, lower, x: Fraction, bits: int) -> Fraction:
    """pFq(upper; lower; x) from mpmath at bits + 64, as an exact rational."""
    with mpmath.workprec(bits + 64):
        def mpf(q):
            return mpmath.mpf(q.numerator) / q.denominator
        value = mpmath.hyper([mpf(Fraction(a)) for a in upper],
                             [mpf(Fraction(b)) for b in lower], mpf(Fraction(x)))
        sign, man, exp, _ = value._mpf_
        exact = Fraction(int(man)) * Fraction(2) ** exp
        return -exact if sign else exact
