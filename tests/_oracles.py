"""Independent brute-force oracles used to freeze expected test values.

Nothing in here may import the computation routes it is used to check:
set partitions are enumerated literally, binomials come from a Pascal
triangle, and operator words act on polynomials through the exact
representation a = d/dx, a+ = x (which satisfies [a, a+] = 1 on integer
polynomials, no floating point involved).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, factorial, prod


def set_partitions(items):
    """Yield every partition of ``items`` as a list of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def stirling_brute(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k blocks."""
    return sum(1 for p in set_partitions(range(n)) if len(p) == k)


def bell_brute(n: int) -> int:
    return sum(1 for _ in set_partitions(range(n)))


def pascal_binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def lah_brute(n: int, k: int) -> int:
    return factorial(n) // factorial(k) * pascal_binomial(n - 1, k - 1)


# --- exact polynomial representation of the boson algebra -----------------
# A polynomial is a dict degree -> integer coefficient.  The annihilator
# acts as d/dx and the creator as multiplication by x; their commutator is
# the identity, so applying a word to x^m reproduces the operator exactly.


def poly_apply_word(word: str, start_degree: int) -> dict:
    poly = {start_degree: 1}
    for letter in reversed(word):
        if letter == "A":
            poly = {d + 1: c for d, c in poly.items()}
        elif letter == "a":
            poly = {d - 1: c * d for d, c in poly.items() if d > 0}
        else:
            raise ValueError(f"bad letter {letter!r}")
    return {d: c for d, c in poly.items() if c}


def poly_apply_normal_form(terms: dict, start_degree: int) -> dict:
    """Apply sum c_{ij} x^i (d/dx)^j to x^m, exactly."""
    out: dict = {}
    for (i, j), c in terms.items():
        m = start_degree
        if j > m:
            continue
        coeff = c
        for t in range(j):
            coeff *= m - t
        d = m - j + i
        out[d] = out.get(d, 0) + coeff
    return {d: c for d, c in out.items() if c}


def normal_form_product(t1: dict, t2: dict) -> dict:
    """Multiply two normal forms through the reordering identity

    a^j (a+)^k = sum_m C(j,m) C(k,m) m! (a+)^(k-m) a^(j-m),

    an independent closed-form route that never rewrites words.
    """
    out: dict = {}
    for (i1, j1), c1 in t1.items():
        for (i2, j2), c2 in t2.items():
            for m in range(min(j1, i2) + 1):
                coeff = c1 * c2 * comb(j1, m) * comb(i2, m) * factorial(m)
                key = (i1 + i2 - m, j1 - m + j2)
                out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def wick_normal_form(word: str, anti: bool = False) -> dict:
    """Normal (or with ``anti`` anti-normal) form of a word by Wick's theorem.

    Each term contracts a set of disjoint pairs (a at p, A at q), p < q
    (for anti-normal order (A at p, a at q), each pair with a factor -1).
    Such sets are the non-attacking rook placements on a Ferrers board:
    the column of the q-th letter holds one cell per left letter before
    it.  Columns come in order of growing height, so a rook in a column
    of that height finds height - k free cells when k rooks stand left of
    it, and one pass over the word counts the placements.  The terms are
    keyed by the exponents in written order: (i, j) for (a+)^i a^j, and
    for anti-normal order (j, i) for a^j (a+)^i.
    """
    left = "A" if anti else "a"
    rooks, height = [1], 0  # rooks[k]: placements of k rooks so far
    for letter in word:
        if letter == left:
            height += 1
        else:
            # rooks[k] gains the placements of k - 1 rooks times the free cells
            rooks = [a + b * (height - k + 1)
                     for k, (a, b) in enumerate(zip(rooks + [0], [0] + rooks))]
    n_left = word.count(left)
    sign = -1 if anti else 1
    return {(len(word) - n_left - k, n_left - k): sign**k * r for k, r in enumerate(rooks) if r}


# --- per-term Fraction series loops ----------------------------------------
# The certified series loops in their first form: every term is a reduced
# Fraction and the stop test compares Fractions.  The package now sums over
# one running integer denominator and must stop at the same index with the
# same exact endpoints.  A budget overrun raises RuntimeError and a
# divergent argument ValueError, with the package's messages.


def exp_bounds_reference(t, bits: int):
    """(lo, hi) enclosing exp(t) for rational t >= 0."""
    t = Fraction(t)
    target = Fraction(1, 2 ** (bits + 8))
    partial = term = Fraction(1)
    m = 0
    while True:
        m += 1
        term *= Fraction(t, m)
        partial += term
        if 2 * t <= m + 1:
            tail = 2 * term * Fraction(t, m + 1)
            if tail <= target * partial:
                return partial, partial + tail
        if m > 64 * bits + 1024:
            raise RuntimeError("exp series did not converge in budget")


def positive_series_stops(partial, term, rho, bits: int) -> bool:
    """The stop test of a positive series at a term with partial sum
    ``partial``: rho < 1 bounds every later term ratio, and the geometric
    tail term rho / (1 - rho) is at most 2^-(bits+8) of the partial sum."""
    return rho < 1 and partial > 0 and term * rho / (1 - rho) <= Fraction(1, 2 ** (bits + 8)) * partial


def _positive_series_reference(series, bits, max_terms):
    term, ratio_bound, k = series
    partial, used = Fraction(0), 0
    while True:
        t = term(k)
        partial += t
        used += 1
        rho = ratio_bound(k)
        if positive_series_stops(partial, t, rho, bits):
            return partial, t * rho / (1 - rho), used
        if used >= max_terms:
            raise RuntimeError(
                f"series needed more than {max_terms} terms for the requested precision")
        k += 1


def dobinski_polynomial_series(r, s, n, t):
    """(term, ratio_bound, first k) of the weighted Dobinski series
    sum_{k>=s} (t^k/k!) prod_j (k+(j-1)(r-s))^falling(s)."""
    t = Fraction(t)
    r, s = max(r, s), min(r, s)

    def term(k):
        prod = 1
        for j in range(n):
            for i in range(s):
                prod *= k + j * (r - s) - i
        return Fraction(t.numerator**k * prod, t.denominator**k * factorial(k))

    def ratio_bound(k):
        return t * (1 + Fraction(s, k - s + 1)) ** n / (k + 1)

    return term, ratio_bound, s


def dobinski_gamma_series(r, s, n):
    """(term, ratio_bound, first k) of the Gamma-ratio series for
    B_{r,s}(n), r > s, without its prefactor (r-s)^(s(n-1))."""
    d = r - s

    def term(k):
        prod = Fraction(1, factorial(k))
        for j in range(1, s + 1):
            for m in range(1, n):
                prod *= Fraction(k + j, d) + m
        return prod

    def ratio_bound(k):
        return (1 + Fraction(1, k + 1 + d)) ** (s * (n - 1)) / (k + 1)

    return term, ratio_bound, 0


def dobinski_polynomial_reference(r, s, n, t, bits, max_terms=200_000):
    """(lo, hi, terms_used) of e^(-t) sum_{k>=s} (t^k/k!) prod_j (k+(j-1)(r-s))^falling(s)."""
    partial, tail, used = _positive_series_reference(dobinski_polynomial_series(r, s, n, t),
                                                     bits, max_terms)
    e_lo, e_hi = exp_bounds_reference(t, bits)
    return partial / e_hi, (partial + tail) / e_lo, used


def dobinski_gamma_form_reference(r, s, n, bits, max_terms=200_000):
    """(lo, hi, terms_used) of the Gamma-ratio series for B_{r,s}(n), r > s."""
    partial, tail, used = _positive_series_reference(dobinski_gamma_series(r, s, n),
                                                     bits, max_terms)
    prefactor = Fraction(r - s) ** (s * (n - 1))
    e_lo, e_hi = exp_bounds_reference(1, bits)
    return partial * prefactor / e_hi, (partial + tail) * prefactor / e_lo, used


def _hyp_ratio_bound_reference(uppers, lowers_full, x_abs, m):
    ups = sorted(uppers, reverse=True)
    downs = sorted(lowers_full, reverse=True)
    bound = x_abs
    for a, b in zip(ups, downs):
        ratio = Fraction(a + m) / (b + m)
        if ratio > 1:
            bound *= ratio
    for b in downs[len(ups):]:
        bound /= b + m
    return bound


def hyp_enclosure_reference(uppers, lowers, x, bits, max_terms):
    """(lo, hi, terms_used) enclosing pFq(uppers; lowers; x)."""
    uppers = tuple(Fraction(a) for a in uppers)
    lowers = tuple(Fraction(b) for b in lowers)
    x = Fraction(x)
    rel_tol = Fraction(1, 2 ** (bits + 8))
    terminating = any(a <= 0 and a.denominator == 1 for a in uppers)
    if not terminating and x != 0:
        if len(uppers) == len(lowers) + 1:
            if abs(x) >= 1:
                raise ValueError(f"pFq with p = q+1 needs |x| < 1, got {x}")
        elif len(uppers) > len(lowers) + 1:
            raise ValueError("pFq with p > q+1 diverges for nonzero argument")
    lowers_full = lowers + (Fraction(1),)
    m_start = max([0] + [ceil(-a) for a in uppers] + [ceil(1 - b) for b in lowers_full])
    partial, term, m = Fraction(0), Fraction(1), 0
    while True:
        partial += term
        if term == 0:  # terminating, or x = 0: every later term is 0 too
            return partial, partial, m + 1
        if not terminating and m >= m_start:
            rho = _hyp_ratio_bound_reference(uppers, lowers_full, abs(x), m)
            if rho < 1:
                tail = abs(term) * rho / (1 - rho)
                if tail <= rel_tol * max(abs(partial), Fraction(1)):
                    return partial - tail, partial + tail, m + 1
        if m + 1 >= max_terms:
            raise RuntimeError(f"pFq did not converge within {max_terms} terms")
        ratio = Fraction(x, m + 1)
        for a in uppers:
            ratio *= a + m
        for b in lowers:
            ratio /= b + m
        term *= ratio
        m += 1


def hgf_outer_sum_reference(r, s, lam, order, k_max):
    """sum_{k <= k_max} 1/(k+s)! sum_{m=1}^{order} u_m(k), the k-indexed
    route of hgf_check, with s the smaller index, d = |r - s| and
    u_m(k) = prod_{i<s} ((k+s-i)/d)_m (d^s lambda)^m / (m!)^s."""
    s, d = min(r, s), abs(r - s)
    arg = Fraction(lam) * d**s

    def pochhammer(x, m):
        out = Fraction(1)
        for j in range(m):
            out *= x + j
        return out

    acc = Fraction(0)
    for k in range(k_max + 1):
        inner = sum(
            (prod(pochhammer(Fraction(k + s - i, d), m) for i in range(s)) * arg**m / factorial(m) ** s
             for m in range(1, order + 1)),
            Fraction(0),
        )
        acc += Fraction(1, factorial(k + s)) * inner
    return acc


# --- Fraction power-series loops -------------------------------------------
# Truncated power series as lists of Fractions, multiplied and exponentiated
# by the plain double loops, with a gcd on every product and sum.  The
# package works on integer numerators and must give the same coefficients.


def series_mul_reference(a, b):
    """Coefficients of a * b truncated at the common order."""
    n = len(a)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += Fraction(a[i]) * Fraction(b[j])
    return out


def series_pow_reference(a, k: int):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(k):
        out = series_mul_reference(out, a)
    return out


def series_exp_reference(f):
    """exp(f) for f(0) = 0, from g' = f' g: n g_n = sum_i i f_i g_{n-i}."""
    g = [Fraction(1)] + [Fraction(0)] * (len(f) - 1)
    for n in range(1, len(f)):
        g[n] = sum((i * Fraction(f[i]) * g[n - i] for i in range(1, n + 1)),
                   Fraction(0)) / n
    return g


# --- Fraction Laguerre recurrence ------------------------------------------
# laguerre_value in its first form, one reduced Fraction step per degree.
# The package steps the integers D^m m! L_m and must give the same value.


def laguerre_value_reference(degree: int, alpha, y) -> Fraction:
    """Associated Laguerre polynomial L^(alpha)_degree(y), exactly.

    Three-term recurrence:
    (m+1) L_{m+1} = (2m + 1 + alpha - y) L_m - (m + alpha) L_{m-1}.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    alpha = Fraction(alpha)
    y = Fraction(y)
    prev, cur = Fraction(1), 1 + alpha - y
    if degree == 0:
        return prev
    for m in range(1, degree):
        prev, cur = cur, ((2 * m + 1 + alpha - y) * cur - (m + alpha) * prev) / (m + 1)
    return cur
