"""Generalized Stirling numbers S_{r,s}(n,k) and Bell numbers B_{r,s}(n).

S_{r,s}(n,k) is the integer coefficient of (a+)^k a^k in the normally
ordered expansion of [(a+)^r a^s]^n, where a, a+ are boson operators with
[a, a+] = 1.  For r >= s the entries are nonzero exactly on the band
s <= k <= n s; for r < s the band is r <= k <= n r and the values follow
from the symmetry S_{r,s} = S_{s,r}.  Triangles are grown row by row with
the Wick recurrence of ``_next_row``; independent routes check them:

* the explicit alternating finite sum, also the route of ``stirling``,
* a differential-operator route (apply x^r d^s/dx^s repeatedly),
* and, in :mod:`bosonbell.boson_oracle`, literal rewriting of boson words.

B_{r,s}(n) is the row sum of the triangle, with B_{r,s}(0) = 1 by
convention; B_{r,s}(n, t) = sum_k S_{r,s}(n,k) t^k extends the row sums
to polynomials.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict

from .exact_core import RationalLike, binomial, falling_factorial


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
    """Rows 1..n_max of S_{r,s}(n, k), nonzero entries only."""

    params: Params
    n_max: int
    rows: Dict[int, Dict[int, int]]

    def value(self, n: int, k: int) -> int:
        if n == 0:
            return 1 if k == 0 else 0
        if not 1 <= n <= self.n_max:
            raise IndexError(f"row {n} not in triangle up to n_max={self.n_max}")
        return self.rows.get(n, {}).get(k, 0)

    def row(self, n: int) -> Dict[int, int]:
        if n == 0:
            return {}
        if not 1 <= n <= self.n_max:
            raise IndexError(f"row {n} not in triangle up to n_max={self.n_max}")
        return dict(self.rows.get(n, {}))


@dataclass(frozen=True)
class BellSequence:
    params: Params
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
    along q by the exact step C(k, q+1) = C(k, q) (k-q) / (q+1).
    """
    r, s = p.r, p.s
    if r < s:
        raise ValueError("stirling_explicit requires r >= s; use stirling_symmetric")
    if n < 1:
        raise ValueError(f"stirling_explicit requires n >= 1, got n={n}")
    if k < s or k > n * s:
        return 0
    d = r - s
    last = deque(maxlen=d)  # P(q - d) .. P(q - 1)
    total = 0
    c = (-1) ** s * binomial(k, s)  # (-1)^q C(k, q)
    for q in range(s, k + 1):
        if d == 0:
            prod = falling_factorial(q, s) ** n
        elif q < s + d:
            prod = 1
            for j in range(n):
                prod *= falling_factorial(q + j * d, s)
        else:
            prod = last[0] * falling_factorial(q + (n - 1) * d, s) // falling_factorial(q - d, s)
        last.append(prod)
        total += c * prod
        c = -c * (k - q) // (q + 1)
    return _exact_quotient((-1) ** k * total, k)


def _poly_diff(coeffs: list, s: int) -> list:
    """s-th derivative of an integer-coefficient polynomial."""
    for _ in range(s):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:]
        if not coeffs:
            return [0]
    return coeffs


def stirling_diffop(p: Params, n: int, k: int) -> int:
    """Differential-operator route, valid for r >= s:

    apply x^r d^s/dx^s n times to (1-x)^k - sum_{q=0}^{s-1} C(k,q)(-x)^q,
    evaluate at x = 1, and multiply by (-1)^k / k!.

    The subtracted partial sum cancels the coefficients below degree s,
    so the whole computation stays in integer polynomials.
    """
    r, s = p.r, p.s
    if r < s:
        raise ValueError("stirling_diffop requires r >= s")
    if n < 1:
        raise ValueError(f"stirling_diffop requires n >= 1, got n={n}")
    if k < s or k > n * s:
        return 0
    # (1-x)^k with the first s coefficients removed
    coeffs = [0] * s + [(-1) ** i * binomial(k, i) for i in range(s, k + 1)]
    for _ in range(n):
        coeffs = [0] * r + _poly_diff(coeffs, s)
    return _exact_quotient((-1) ** k * sum(coeffs), k)


def stirling_symmetric(p: Params, n: int, k: int) -> int:
    """S_{r,s}(n,k) for r < s via the symmetry S_{r,s} = S_{s,r}.

    The nonzero band is r <= k <= n r, matching the expansion in which
    the surplus annihilators are factored to the right.
    """
    if p.r >= p.s:
        raise ValueError("stirling_symmetric is the r < s route")
    return stirling_explicit(p.swapped(), n, k)


# Entry perturbation hook, used by the verification CLI to prove that the
# cross-check suites actually detect a wrong table entry.  It is a read
# overlay on clean memo rows, so a corrupted entry never reaches later rows;
# the read counts tell a caught perturbation from one no check looked at.
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
    """How often ``stirling`` or ``triangle`` has returned the perturbed S_{r,s}(n,k)."""
    return _perturbation_reads.get((p.r, p.s, n, k), 0)


def _perturbed(key: tuple, value: int) -> int:
    delta = _perturbations.get(key)
    if delta is None:
        return value
    # no lock: triangle() holds _cache_lock, and a lost update cannot zero a count
    _perturbation_reads[key] = _perturbation_reads.get(key, 0) + 1
    return value + delta


def stirling(p: Params, n: int, k: int) -> int:
    """S_{r,s}(n,k) for any positive r, s; n = 0 gives the delta_{k,0} row."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1 if k == 0 else 0
    value = stirling_explicit(p, n, k) if p.r >= p.s else stirling_symmetric(p, n, k)
    return _perturbed((p.r, p.s, n, k), value)


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


def _overlay(p: Params, n: int, clean: Dict[int, int]) -> Dict[int, int]:
    """A copy of a clean row with the in-band perturbations of (r, s, n) added."""
    row = dict(clean)
    for key in _perturbations:
        if key[:3] == (p.r, p.s, n) and key[3] in p.band(n):
            row[key[3]] = _perturbed(key, row[key[3]])
            if not row[key[3]]:
                del row[key[3]]
    return row


def triangle(p: Params, n_max: int) -> StirlingTriangle:
    """Rows 1..n_max of the (r, s) triangle, memoized per parameter pair."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    with _cache_lock:
        rows = _triangle_cache.setdefault((p.r, p.s), {0: {0: 1}})
        for n in range(len(rows), n_max + 1):
            rows[n] = _next_row(p, rows[n - 1])
        snapshot = {n: _overlay(p, n, rows[n]) for n in range(1, n_max + 1)}
    return StirlingTriangle(params=p, n_max=n_max, rows=snapshot)


def stirling_diag_recurrence(r: int, n_max: int) -> StirlingTriangle:
    """S_{r,r} from the left-multiplication recurrence, unmemoized and
    unperturbed, and independent of the table's ``_next_row``.

    Left-multiplying the row-n normal form sum_k S(n,k) (a+)^(k+d) a^k,
    d = n(r-s), by (a+)^r a^s and reordering with
    a^s (a+)^m = sum_j C(s,j) m^falling(j) (a+)^(m-j) a^(s-j) gives
    S(n+1, k+s-j) += C(s,j) (k+d)^falling(j) S(n,k); on the diagonal d = 0.
    For r = 1 it is the classical S(n+1,k) = k S(n,k) + S(n,k-1).

    On the diagonal this is not a second identity.  The step coefficient
    C(r,j) k^falling(j) = r! k! / (j! (r-j)! (k-j)!) equals the producer's
    C(k,j) r^falling(j), and both send S(n,k) to k + r - j: the two
    recurrences are one recurrence coded twice, sharing no code.  Its check
    against the finite sum therefore guards this code, not the Wick
    identity, which the table's own check against the finite sum covers.
    A route independent of the recurrence is the rook numbers of the word's
    Ferrers board (Varvak; the rook-row item of ROADMAP.md)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rows = [{0: 1}]
    for _ in range(n_max):
        out: Dict[int, int] = {}
        for k, v in rows[-1].items():
            for j in range(min(k, r) + 1):
                out[k + r - j] = out.get(k + r - j, 0) + binomial(r, j) * falling_factorial(k, j) * v
        rows.append(out)
    return StirlingTriangle(params=Params(r, r), n_max=n_max, rows=dict(enumerate(rows[1:], 1)))


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
    """B_{r,s}(n): row sum of the triangle; B_{r,s}(0) = 1 by convention."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return bell_sequence(p, n).values[n]


def bell_sequence(p: Params, n_max: int) -> BellSequence:
    """B_{r,s}(0..n_max) as the row sums of one triangle snapshot."""
    rows = triangle(p, n_max).rows if n_max >= 1 else {}
    values = (1,) + tuple(sum(rows[n].values()) for n in range(1, n_max + 1))
    return BellSequence(params=p, values=values[:n_max + 1])


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
    row = triangle(p, n).rows[n]
    # after step k: num / den = sum_{j >= k} S(n,j) t^(j-k), den = b^(top-k)
    a, b, top = t.numerator, t.denominator, max(row, default=0)
    num, den = row.get(top, 0), 1
    for k in range(top - 1, -1, -1):
        num *= a
        den *= b
        if k in row:
            num += row[k] * den
    return Fraction(num, den)


def lah_closed_form(n: int, k: int) -> int:
    """Unsigned Lah numbers n!/k! C(n-1, k-1), the closed form of S_{2,1}."""
    if not 1 <= k <= n:
        raise ValueError(f"lah_closed_form requires 1 <= k <= n, got n={n}, k={k}")
    return factorial(n) // factorial(k) * binomial(n - 1, k - 1)


def connection_identity_check(p: Params, n: int, x: int) -> bool:
    """Triangle entries as connection coefficients between falling factorials:

    prod_{j=1}^{n} (x + (j-1)(r-s))^falling(s)
        = sum_k S_{r,s}(n,k) x^falling(k),

    evaluated at an integer x.  Must hold identically (r >= s).
    """
    r, s = p.r, p.s
    if r < s:
        raise ValueError("connection_identity_check requires r >= s")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lhs = 1
    for j in range(n):
        lhs *= falling_factorial(x + j * (r - s), s)
    rhs = sum(stirling(p, n, k) * falling_factorial(x, k) for k in p.band(n))
    return lhs == rhs


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
        nxt = sum(binomial(n, k) * weights[n - k] * values[k] for k in range(n + 1))
        values.append(nxt)
    return BellSequence(params=Params(r, 1), values=tuple(values))


def bell_diag_from_classical(n: int) -> int:
    """B_{2,2}(n) = sum_{k=0}^{n-1} C(n-1,k) B_{1,1}(n+k).

    Expresses the first diagonal sequence through classical Bell numbers;
    must agree with the row sums of S_{2,2}.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    classical = Params(1, 1)
    return sum(binomial(n - 1, k) * bell_number(classical, n + k) for k in range(n))
