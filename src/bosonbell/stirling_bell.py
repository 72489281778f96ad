"""Generalized Stirling numbers S_{r,s}(n,k) and Bell numbers B_{r,s}(n).

S_{r,s}(n,k) is the integer coefficient of (a+)^k a^k in the normally
ordered expansion of [(a+)^r a^s]^n, where a, a+ are boson operators with
[a, a+] = 1.  For r >= s the entries are nonzero exactly on the band
s <= k <= n s; for r < s the band is r <= k <= n r and the values follow
from the symmetry S_{r,s} = S_{s,r}.  Triangles are grown row by row with
the Wick recurrence of ``_next_row``, the one recurrence for S_{r,s} here;
independent routes check them:

* the explicit alternating finite sum, also the route of ``stirling``,
  whose falling factorials, all at x >= 0, are math.perm calls,
* a differential-operator route (x^r d^s/dx^s, one pass per application),
* and, in :mod:`bosonbell.boson_oracle`, literal rewriting of boson words.

``stirling`` and ``_next_row`` both take the larger exponent as r, so
the symmetry is checked across two routes: ``stirling`` of (r, s) against
``triangle`` of (s, r).

B_{r,s}(n) is the row sum of the triangle, with B_{r,s}(0) = 1 by
convention; B_{r,s}(n, t) = sum_k S_{r,s}(n,k) t^k extends the row sums
to polynomials.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm, prod
from typing import Dict

from .exact_core import RationalLike, falling_factorial


@dataclass(frozen=True)
class Params:
    """The word exponents (r, s) of (a+)^r a^s; both must be positive."""

    r: int
    s: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.s < 1:
            raise ValueError(f"r and s must be positive integers, got r={self.r}, s={self.s}")

    @property
    def band_min(self) -> int:
        return min(self.r, self.s)

    def band(self, n: int) -> range:
        """k-range of the nonzero entries in row n."""
        if n < 1:
            return range(0)
        return range(self.band_min, n * self.band_min + 1)

    def swapped(self) -> "Params":
        return Params(self.s, self.r)


@dataclass(frozen=True)
class StirlingTriangle:
    """Rows 1..n_max of S_{r,s}(n, k), nonzero entries only.

    ``rows`` holds the clean memo rows by reference; ``value`` and ``row``
    add the perturbations of the in-band entries they return, so a
    triangle taken before ``set_perturbation`` sees it too."""

    p: Params
    n_max: int
    rows: Dict[int, Dict[int, int]]

    def _clean(self, n: int) -> Dict[int, int]:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"row {n} not in triangle up to n_max={self.n_max}")
        return self.rows[n]

    def value(self, n: int, k: int) -> int:
        if n == 0:
            return 1 if k == 0 else 0
        clean = self._clean(n)  # exactly the band, every entry nonzero
        return _read(self.p, n, k, clean[k]) if k in clean else 0

    def row(self, n: int) -> Dict[int, int]:
        if n == 0:
            return {}
        row = dict(self._clean(n))
        for r, s, m, k in tuple(_perturbations):
            if (r, s, m) == (self.p.r, self.p.s, n) and k in row:
                row[k] = _read(self.p, n, k, row[k])
                if not row[k]:
                    del row[k]
        return row


@dataclass(frozen=True)
class BellSequence:
    values: tuple  # B(0) .. B(n_max)


class DivisibilityError(ArithmeticError):
    """The alternating sum failed the exact k! divisibility check.

    This can only happen through an implementation bug, never for valid
    input, so it is reported loudly instead of being rounded away.
    """


def _exact_quotient(signed_sum: int, k: int) -> int:
    q, rem = divmod(signed_sum, factorial(k))
    if rem:
        raise DivisibilityError(f"sum {signed_sum} is not divisible by {k}!")
    return q


def stirling_explicit(p: Params, n: int, k: int) -> int:
    """Alternating-sum route, valid for r >= s:

    S_{r,s}(n,k) = (-1)^k/k! * sum_{q=s}^{k} (-1)^q C(k,q)
                   * prod_{j=1}^{n} (q + (j-1)(r-s))^falling(s).

    Returns 0 outside the band s <= k <= n s.  The division by k! is
    checked to be exact.

    With d = r - s, the products P(q) = prod_{j<n} (q + j d)^falling(s) are
    not rebuilt for every q.  For d = 0, P(q) = (q^falling(s))^n.  For d > 0
    they telescope, P(q + d) = P(q) (q + n d)^falling(s) / q^falling(s):
    the factors j = 1..n of P(q + d) are the factors j = 0..n-1 of P(q)
    with the j = 0 one removed and a j = n one added.  The division is
    exact because q^falling(s) is one factor of P(q), and it is positive
    because q >= s.  Only the first d products are built directly, so a
    read takes O(k) big-int steps instead of O(n s k), and only the last
    d products are kept.  The signed binomial (-1)^q C(k,q) is carried
    along q by the exact step C(k, q+1) = C(k, q) (k-q) / (q+1).  Every
    x^falling(s) here has x >= s and is the C builtin math.perm(x, s).
    """
    r, s = p.r, p.s
    if r < s:
        raise ValueError("stirling_explicit requires r >= s; use stirling")
    if n < 1:
        raise ValueError(f"stirling_explicit requires n >= 1, got n={n}")
    if k < s or k > n * s:
        return 0
    d = r - s
    last = deque(maxlen=d)  # P(q - d) .. P(q - 1)
    total = 0
    c = (-1) ** s * comb(k, s)  # (-1)^q C(k, q)
    for q in range(s, k + 1):
        if d == 0:
            product = perm(q, s) ** n
        elif q < s + d:
            product = prod(perm(q + j * d, s) for j in range(n))
        else:
            product = last[0] * perm(q + (n - 1) * d, s) // perm(q - d, s)
        last.append(product)
        total += c * product
        c = -c * (k - q) // (q + 1)
    return _exact_quotient((-1) ** k * total, k)


def stirling_diffop(p: Params, n: int, k: int) -> int:
    """Differential-operator route, valid for r >= s:

    apply x^r d^s/dx^s n times to (1-x)^k - sum_{q=0}^{s-1} C(k,q)(-x)^q,
    evaluate at x = 1, and multiply by (-1)^k / k!.

    The subtracted partial sum cancels the coefficients below degree s,
    so the whole computation stays in integer polynomials.  An application
    is one pass, d^s x^i = i^falling(s) x^(i-s) with math.perm(i, s).
    """
    r, s = p.r, p.s
    if r < s:
        raise ValueError("stirling_diffop requires r >= s")
    if n < 1:
        raise ValueError(f"stirling_diffop requires n >= 1, got n={n}")
    if k < s or k > n * s:
        return 0
    # (1-x)^k with the first s coefficients removed
    coeffs = [0] * s + [(-1) ** i * comb(k, i) for i in range(s, k + 1)]
    for _ in range(n):
        coeffs = [0] * r + [perm(i, s) * c for i, c in enumerate(coeffs[s:], s)]
    return _exact_quotient((-1) ** k * sum(coeffs), k)


# Entry perturbation hook, used by the verification CLI to prove that the
# cross-check suites actually detect a wrong table entry.  ``_read`` adds it
# where a value is returned, never to the memo rows, so a corrupted entry
# never reaches later rows; the read counts tell a caught perturbation from
# one no check looked at.
_perturbations: Dict[tuple, int] = {}
_perturbation_reads: Dict[tuple, int] = {}
_cache_lock = threading.Lock()
_triangle_cache: Dict[tuple, Dict[int, Dict[int, int]]] = {}


def set_perturbation(p: Params, n: int, k: int, delta: int) -> None:
    """Additively corrupt S_{r,s}(n,k) as seen by ``stirling`` and ``triangle``."""
    with _cache_lock:
        _perturbations[(p.r, p.s, n, k)] = delta
        _perturbation_reads[(p.r, p.s, n, k)] = 0


def clear_perturbations() -> None:
    with _cache_lock:
        _perturbations.clear()
        _perturbation_reads.clear()
        _triangle_cache.clear()


def perturbation_reads(p: Params, n: int, k: int) -> int:
    """How often ``stirling`` or a triangle has returned the perturbed S_{r,s}(n,k)."""
    return _perturbation_reads.get((p.r, p.s, n, k), 0)


def _read(p: Params, n: int, k: int, value: int) -> int:
    """``value``, the clean S_{r,s}(n,k), as ``stirling`` and a triangle
    return it: with its perturbation added and the read counted."""
    key = (p.r, p.s, n, k)
    delta = _perturbations.get(key)
    if delta is None:
        return value
    with _cache_lock:
        _perturbation_reads[key] = _perturbation_reads.get(key, 0) + 1
    return value + delta


def stirling(p: Params, n: int, k: int) -> int:
    """S_{r,s}(n,k) for any positive r, s; n = 0 gives the delta_{k,0} row.

    For r < s it reads the symmetry S_{r,s} = S_{s,r}, so the nonzero band
    is r <= k <= n r, as in the expansion that factors the surplus
    annihilators to the right."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1 if k == 0 else 0
    value = stirling_explicit(p if p.r >= p.s else p.swapped(), n, k)
    return _read(p, n, k, value)


def _next_row(p: Params, row: Dict[int, int]) -> Dict[int, int]:
    """Row n+1 from row n (row 0 is {0: 1}) by Wick reordering: for r >= s
    (swapped otherwise) right-multiply sum_k S(n,k) (a+)^(k+n(r-s)) a^k by
    (a+)^r a^s, and a^k (a+)^r = sum_j C(k,j) r^falling(j) (a+)^(r-j) a^(k-j)
    gives S(n+1, k-j+s) += C(k,j) r^falling(j) S(n,k).  The coefficient is
    carried along j as a small integer by the exact step
    C(k, j+1) = C(k, j) (k-j) / (j+1), so a term is one big-int multiply-add."""
    r, s = max(p.r, p.s), min(p.r, p.s)
    out = [0] * (max(row) + s + 1)
    for k, v in row.items():
        c, i = 1, k + s  # C(k, j) r^falling(j) and k - j + s at j = 0
        for j in range(r if k > r else k):  # the last j = min(k, r) follows the loop
            out[i] += c * v
            c = c * (k - j) * (r - j) // (j + 1)
            i -= 1
        out[i] += c * v
    return {k: v for k, v in enumerate(out) if v}


def triangle(p: Params, n_max: int) -> StirlingTriangle:
    """Rows 1..n_max of the (r, s) triangle, memoized per parameter pair."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    with _cache_lock:
        memo = _triangle_cache.setdefault((p.r, p.s), {0: {0: 1}})
        for n in range(len(memo), n_max + 1):
            memo[n] = _next_row(p, memo[n - 1])
        rows = {n: memo[n] for n in range(1, n_max + 1)}
    return StirlingTriangle(p=p, n_max=n_max, rows=rows)


def anti_stirling(p: Params, n: int, k: int) -> int:
    """Coefficients of the normally ordered powers of a^s (a+)^r (r >= s).

    They satisfy the shift identity  tilde S_{r,s}(n,k) = S_{r,s}(n+1, k+s)
    on 0 <= k <= n s, which is what this computes; the independent
    word-rewriting route lives in boson_oracle.extract_anti_stirling_row.
    """
    if p.r < p.s:
        raise ValueError("anti_stirling requires r >= s")
    if n < 1:
        raise ValueError(f"anti_stirling requires n >= 1, got n={n}")
    if k < 0 or k > n * p.s:
        return 0
    return stirling(p, n + 1, k + p.s)


def bell_number(p: Params, n: int) -> int:
    """B_{r,s}(n): the sum of row n; B_{r,s}(0) = 1 by convention."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(triangle(p, n).row(n).values()) if n else 1


def bell_sequence(p: Params, n_max: int) -> BellSequence:
    """B_{r,s}(0..n_max) as the row sums of one triangle."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    tri = triangle(p, n_max) if n_max >= 1 else None
    return BellSequence(values=(1,) + tuple(sum(tri.row(n).values()) for n in range(1, n_max + 1)))


def bell_polynomial(p: Params, n: int, t: RationalLike) -> Fraction:
    """B_{r,s}(n, t) = sum_k S_{r,s}(n,k) t^k; equals bell_number at t = 1.

    With t = a/b in lowest terms and K the top of the row, an integer
    Horner pass gives sum_k S(n,k) a^k b^(K-k), and one Fraction divides
    it by b^K at the end."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    t = Fraction(t)
    if n == 0:
        return Fraction(1)
    row = triangle(p, n).row(n)
    # after step k: num / den = sum_{j >= k} S(n,j) t^(j-k), den = b^(top-k)
    a, b, top = t.numerator, t.denominator, max(row, default=0)
    num, den = row.get(top, 0), 1
    for k in range(top - 1, -1, -1):
        num *= a
        den *= b
        if k in row:
            num += row[k] * den
    return Fraction(num, den)


def connection_identity_check(p: Params, n: int, x: int, *more: int) -> bool:
    """Triangle entries as connection coefficients between falling factorials:

    prod_{j=1}^{n} (x + (j-1)(r-s))^falling(s)
        = sum_k S_{r,s}(n,k) x^falling(k),

    evaluated at the integer x and at each further integer in ``more``;
    true iff it holds at every point.  Row n is read through ``stirling``
    once for all points, which are tested in order up to the first that
    fails; at each point the right side steps y^falling(k) along the row,
    one multiply per k.  Must hold identically (r >= s).
    """
    r, s = p.r, p.s
    if r < s:
        raise ValueError("connection_identity_check requires r >= s")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    band = p.band(n)
    row = [stirling(p, n, k) for k in band]
    for y in (x, *more):
        lhs = prod(falling_factorial(y + j * (r - s), s) for j in range(n))
        rhs, fall = 0, falling_factorial(y, band.start)  # fall = y^falling(k)
        for k, v in zip(band, row):
            rhs += v * fall
            fall *= y - k
        if lhs != rhs:
            return False
    return True


def bell_recurrence_r1(r: int, n_max: int) -> BellSequence:
    """B_{r,1}(0..n_max) from the recursion

    B_{r,1}(n+1) = sum_{k=0}^{n} C(n,k)
                   [prod_{j=0}^{n-k} (r + (j-1)(r-1))] B_{r,1}(k),

    starting from B_{r,1}(0) = 1.  For r = 1 the product is 1 and the
    recursion is the binomial transform; for r = 2 the product equals
    (n-k+1)!.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    # weight(m) = prod_{j=0}^{m} (r + (j-1)(r-1)), built incrementally
    weights = [1]
    for j in range(n_max + 1):
        weights.append(weights[-1] * (r + (j - 1) * (r - 1)))
    weights = weights[1:]  # weight(m) = weights[m]
    values = [1]
    for n in range(n_max):
        nxt = sum(comb(n, k) * weights[n - k] * values[k] for k in range(n + 1))
        values.append(nxt)
    return BellSequence(values=tuple(values))


def bell_diag_from_classical(n: int) -> int:
    """B_{2,2}(n) = sum_{k=0}^{n-1} C(n-1,k) B_{1,1}(n+k).

    Expresses the first diagonal sequence through classical Bell numbers;
    must agree with the row sums of S_{2,2}.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    classical = Params(1, 1)
    return sum(comb(n - 1, k) * bell_number(classical, n + k) for k in range(n))
