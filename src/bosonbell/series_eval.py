"""Arbitrary-precision evaluation of the infinite-series identities.

Every series here is summed in exact rational arithmetic and rounded
once at the end: terms and partial sums are integers over one running
integer denominator, and the enclosure a sum ends in is two integer ends
over one denominator, never reduced up to that rounding.  Truncation is
certified: a term-ratio upper bound that is valid for *all* later terms
and non-increasing in the index turns the remainder into a geometric
series, giving an exact rational tail bound.  The only irrational
constant, e, enters through an exact rational enclosure of exp(t), so
every :class:`SeriesValue` keeps an exact enclosure of the true sum of
the identity it evaluates beside its rounded value, and every check
(:meth:`SeriesValue.brackets` among them) decides on that enclosure.

Two loops sum the series, and :func:`_stop` is the one stop rule of
both.  :func:`_dobinski_family` sums the Dobinski series, weighted and
Gamma-ratio: every member n of one family (r, s, t) in one pass over k,
over one shared running denominator, each member's numerator the prefix
product of small integer factors formed once per k.  :func:`_sum_series`
sums exp(t), the outer k-sum of :func:`hgf_check` and each pFq, each a
stream of integer tuples (den_step, num, rho_num, rho_den); a pFq stream
has signed terms, reads the integers of its Fraction parameters once,
and ends at its zero term if it terminates.  The Dobinski loop is
separate because of the per-term generator protocol and the per-n
stepping, which were most of a Dobinski sum's cost: the family loop
made ``verify dobinski`` about twice as fast.  (A prototype feeding
:func:`_sum_series` lists of members, measured before the pFq screen
below existed, also slowed every pFq term by about 15%.)

A pFq does not step its growing integers term by term from the start.
A screen steps only the small factors p/q of its term ratio, with a
float log2 of the term and a float sum of |terms|, and skips the terms
that the pre-test is sure to rule out; one binary split of the stored
factors (Haible and Papanikolaou) then forms the exact partial sum and
denominator the running loop would have reached, and :func:`_sum_series`
takes over from that ``start``.  The stop index and the enclosure
integers are those of the running loop on the whole stream
(:func:`_hyp_enclosure` holds the argument); the 1000-term 2F1 sums of
the ``series`` benchmark run about 1.3x faster in process.

Every pFq sum takes a :class:`HyperParams`, validated once when built,
so the parts of the closed-form checks pass the guards of any pFq.  The
Kummer checks are the (p, r) = (r, 1) member of :func:`family_bell_check`.

Divisions by Gamma-function values never happen in floating point:
all Gamma ratios that appear are reduced to rational Pochhammer products
before evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import ceil, comb, factorial, gcd, lcm, log2, perm, prod
from typing import Iterable, Iterator, Tuple

from . import stirling_bell
from .exact_core import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    BigFloat,
    PowerSeries,
    RationalLike,
    _check_precision,
    _round_rational,
    falling_factorial,
    rising_factorial,
    series_binomial_power,
    series_exp,
    series_exp_linear,
)
from .stirling_bell import Params, bell_number, bell_sequence, triangle

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TermBudgetError(RuntimeError):
    """The requested precision was not reached within the term budget."""


class ConvergenceError(ValueError):
    """The series diverges (or cannot be certified) at the given argument."""


@dataclass(frozen=True, eq=False)
class _Interval:
    """Closed interval [lo_num/den, hi_num/den]: two integer ends over one
    positive denominator, never reduced.  Every operation works on the
    integers; ``lo`` and ``hi`` read the ends as reduced Fractions."""

    lo_num: int
    hi_num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError(f"interval denominator must be positive, got {self.den}")
        if self.lo_num > self.hi_num:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    def __add__(self, other):
        if isinstance(other, _Interval):
            a, b = self.den, other.den
            return _Interval(self.lo_num * b + other.lo_num * a,
                             self.hi_num * b + other.hi_num * a, a * b)
        other = Fraction(other)
        p, q = other.numerator * self.den, other.denominator
        return _Interval(self.lo_num * q + p, self.hi_num * q + p, self.den * q)

    def __mul__(self, other):
        other = Fraction(other)
        p, q = other.numerator, self.den * other.denominator
        if p >= 0:
            return _Interval(self.lo_num * p, self.hi_num * p, q)
        return _Interval(self.hi_num * p, self.lo_num * p, q)

    def over_exp(self, t: Fraction, bits: int) -> "_Interval":
        """This interval divided by exp(t): each end over the end of the
        exp(t) enclosure [el/ed, eh/ed] that moves it outward.  Over the
        common denominator den el eh / ed, an end divided by eh keeps the
        factor el and one divided by el keeps eh."""
        e = _exp_bounds(t, bits)
        el, eh = e.lo_num, e.hi_num
        # ed = td^(K+1) (K+1)! when the exp(t) sum stops at term K, and the
        # running denominator of each series divided here holds td^k k! for
        # a k that is mostly larger, so g = gcd(den, ed) is mostly all of ed:
        # cancelling it first keeps a factor the size of ed out of all three
        # products.  The ends themselves stay unreduced.
        g = gcd(self.den, e.den)
        rest = e.den // g
        return _Interval(self.lo_num * rest * (el if self.lo_num >= 0 else eh),
                         self.hi_num * rest * (eh if self.hi_num >= 0 else el),
                         self.den // g * el * eh)

    def contains(self, x: RationalLike) -> bool:
        x = Fraction(x)
        p, q = x.numerator * self.den, x.denominator
        return self.lo_num * q <= p <= self.hi_num * q

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self.lo_num + self.hi_num, 2 * self.den)


@dataclass(frozen=True)
class SeriesValue:
    """A rounded series value together with a certified absolute error.

    ``interval`` is the exact enclosure the value was rounded from, and the
    true sum lies in it; [value - tail_bound, value + tail_bound] holds it,
    the bound including the final rounding step.  The interval takes no
    part in equality or the repr.
    """

    value: BigFloat
    tail_bound: BigFloat
    terms_used: int
    precision_bits: int
    interval: _Interval = field(compare=False, repr=False)

    def brackets(self, target: RationalLike) -> bool:
        """Whether the exact target lies inside the exact enclosure."""
        return self.interval.contains(target)


def _series_value(iv: _Interval, terms_used: int, bits: int) -> SeriesValue:
    # the midpoint is mid/den and the half-width half/den over the interval's
    # own denominator, unreduced: the rounding is correct whatever the form
    # of the quotient, and gives the integers man 2^exp of the value
    mid, half, den = iv.lo_num + iv.hi_num, iv.hi_num - iv.lo_num, 2 * iv.den
    man, exp = _round_rational(mid, den, bits, "n")
    value = BigFloat._from_man_exp(man, exp, bits)
    # the rounding error |mid/den - man 2^exp| joins the half-width
    if exp >= 0:
        error = abs(mid - den * (man << exp))
    else:
        error = abs((mid << -exp) - den * man)
        half, den = half << -exp, den << -exp
    tail = BigFloat.from_rational(half + error, den, bits, "c")
    return SeriesValue(value=value, tail_bound=tail, terms_used=terms_used,
                       precision_bits=bits, interval=iv)


@lru_cache(maxsize=None)
def _exp_bounds(t: Fraction, bits: int) -> _Interval:
    """Exact rational enclosure of exp(t) for rational t >= 0."""
    if t < 0:
        raise ValueError(f"exp(t) is enclosed for t >= 0 only, got {t}")
    tn, td = t.numerator, t.denominator

    def terms() -> Iterator[Tuple[int, int, int, int]]:
        # term k is tn^k over the running denominator td^k k!
        num = 1
        for k in count():
            # once t/(k+1) <= 1/2, rho = 2t/(k+1+2t) bounds every later t/(j+1),
            # and the tail is term(k) rho/(1-rho) = term(k) 2t/(k+1); term 0
            # gets rho = 1, so the sum never stops on it
            if k and 2 * tn <= (k + 1) * td:
                yield max(td * k, 1), num, 2 * tn, (k + 1) * td + 2 * tn
            else:
                yield max(td * k, 1), num, 1, 1
            num *= tn

    return _sum_series(terms(), bits, 64 * bits + 1026)[0]


def _stop(num: int, partial: int, den: int, rho_num: int, rho_den: int, bits: int,
          signed: bool = False):
    """The one stop rule of every certified sum: the enclosure of the sum
    at the term num/den with partial sum partial/den, or None where the
    sum must go on.

    A rho = rho_num/rho_den (rho_den > 0) below 1 bounds |term(j+1)/term(j)|
    for every later j, as a per-term bound that does not increase does; a
    rho of 1 or more bounds nothing and cannot stop the sum.  Then the tail
    is at most |num/den| rho / (1 - rho), and the sum stops once that is at
    most 2^-(bits+8) of big/den: big is the partial sum, which must be
    positive, and with ``signed``, for terms of either sign, max(|partial|,
    den).  Over the one denominator den (rho_den - rho_num) the enclosure is
    [whole, whole + tail], or [whole - tail, whole + tail] with ``signed``.
    """
    if rho_num >= rho_den:
        return None
    size, gap = abs(num), rho_den - rho_num
    big = max(abs(partial), den) if signed else partial
    # the stop test is size rho_num 2^(bits+8) <= big gap; for nonzero size
    # and rho_num the left side is at least 2^(bl(size) + bl(rho_num) + bits +
    # 6) and the right side below 2^(bl(big) + bl(gap)), bl = int.bit_length,
    # so bit lengths rule out most terms before any product is formed
    if size and rho_num and size.bit_length() + rho_num.bit_length() + bits + 7 \
            > big.bit_length() + gap.bit_length():
        return None
    if big <= 0 or (size * rho_num) << (bits + 8) > big * gap:
        return None
    whole, tail = partial * gap, size * rho_num
    return _Interval(whole - tail if signed else whole, whole + tail, den * gap)


def _sum_series(
    terms: Iterable[Tuple[int, int, int, int]],
    bits: int,
    max_terms: int,
    signed: bool = False,
    start: Tuple[int, int, int] = (0, 1, 0),
) -> Tuple[_Interval, int]:
    """Certified truncation of the series sum_k term(k): the loop of
    exp(t), the pFq and the outer sum of :func:`hgf_check`.

    The stream ``terms`` yields one tuple (den_step, num, rho_num,
    rho_den > 0) per term, in order.  term(k) = num / den(k), where the
    running denominator den(k) > 0 is the product of the den_step values up
    to and including term k, and rho = rho_num/rho_den is the ratio bound
    of :func:`_stop`.  The sum stops at the first term where :func:`_stop`
    does, and returns its enclosure and the number of terms used;
    ``signed`` allows terms of either sign.

    ``start`` = (partial, den, used) resumes a sum after its first ``used``
    terms, with the partial sum partial/den; the stream then yields term
    ``used`` on.  A pFq hands over here the exact state that its screen
    and binary split reached, so the tests above decide every stop.
    """
    partial, den, used = start
    for step, num, rho_num, rho_den in terms:
        partial = partial * step + num
        den *= step
        used += 1
        iv = _stop(num, partial, den, rho_num, rho_den, bits, signed)
        if iv is not None:
            return iv, used
        if used >= max_terms:
            raise TermBudgetError(
                f"series needed more than {max_terms} terms for the requested precision"
            )


# term budget of each Dobinski series, read at call time
_DOBINSKI_MAX_TERMS = 200_000


def _dobinski_family(p: Params, ns, t: Fraction, gamma: bool, bits: int) -> list:
    """The certified Dobinski sums of the members n in ``ns`` of one family,
    as a list of SeriesValues in the order of ``ns``: the one loop that sums
    every Dobinski series.

    With r >= s (swapped if need be) and d = r - s, the term k of member n
    is a product of the factors (k + base + jd)^falling(s) over j < c, its
    prefix length, over one running denominator td^k k! that all members
    share.  The weighted series at t = tn/td has base 0, k >= s, c = n and
    the factor tn^k; the Gamma-ratio series (r > s, t = 1) has base s + d,
    k >= 0 and c = n - 1, since d^(s(n-1)) times its Gamma ratios is
    prod_{j=1}^{s} prod_{m=1}^{n-1} (k+j+md).  So each k forms the factors
    once, and each member's numerator is their prefix product.  The ratio
    bound rho = rho_num/rho_den of member n at term k,

        weighted:     tn (k+1)^n / (td (k+1)(k+1-s)^n),
        Gamma ratio:  (k+2+d)^(s(n-1)) / ((k+1)(k+1+d)^(s(n-1))),

    bounds every later term ratio of the member and does not increase in k.

    Each member stops at its first term where :func:`_stop` does.  The
    family raises :class:`TermBudgetError` if a member has not stopped
    after ``_DOBINSKI_MAX_TERMS`` terms.
    """
    _check_precision(bits)
    if gamma and p.r <= p.s:
        raise ValueError("dobinski_gamma_form requires r > s")
    if min(ns) < 1:
        raise ValueError(f"n must be >= 1, got {min(ns)}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    r, s = max(p.r, p.s), min(p.r, p.s)
    d, tn, td = r - s, t.numerator, t.denominator
    # the first k, the first factor, the exponent of the rho powers and n - c
    k, base, e, shift = (0, s + d, s, 1) if gamma else (s, 0, 1, 0)
    cs = [n - shift for n in ns]
    top = max(cs)
    # the partial sum of each member still summing, None for the rest
    partials = [0 if c in cs else None for c in range(top + 1)]
    done = {}
    max_terms = _DOBINSKI_MAX_TERMS
    den, step, tk = 1, td**k * factorial(k), tn**k
    used = 0
    while True:
        used += 1
        den *= step
        if gamma:
            gain, loss, rho_num0, rho_den0 = k + 2 + d, k + 1 + d, 1, k + 1
        else:
            gain, loss, rho_num0, rho_den0 = k + 1, k + 1 - s, tn, td * (k + 1)
        # rho_den/rho_num <= rho_den0 for every member, so a stop needs
        # num 2^(bits+8) < partial rho_den0: a term whose bit lengths rule
        # that out cannot stop its member, and its rho is not formed
        screen = bits + 7 - rho_den0.bit_length()
        # the prefix product of the factors, and the next factor
        prefix, x = 1, k + base
        factor = perm(x, s)
        for c in range(top + 1):
            if c:
                prefix *= factor
                if d:
                    x += d
                    factor = perm(x, s)
            partial = partials[c]
            if partial is None:
                continue
            num = prefix * tk
            partial = partials[c] = partial * step + num
            if num.bit_length() + screen >= partial.bit_length():
                continue
            iv = _stop(num, partial, den, rho_num0 * gain ** (e * c), rho_den0 * loss ** (e * c), bits)
            if iv is not None:
                done[c] = iv, used
                partials[c] = None
        while top >= 0 and partials[top] is None:
            top -= 1
        if top < 0:
            return [_series_value(done[c][0].over_exp(t, bits), done[c][1], bits) for c in cs]
        if used >= max_terms:
            raise TermBudgetError(
                f"series needed more than {max_terms} terms for the requested precision"
            )
        k += 1
        step, tk = td * k, tk * tn


def dobinski_bell(p: Params, n: int, precision: int = DEFAULT_PRECISION_BITS) -> SeriesValue:
    """B_{r,s}(n) as the infinite series

    (1/e) sum_{k=s}^{inf} (1/k!) prod_{j=1}^{n} (k + (j-1)(r-s))^falling(s),

    the generalization of Dobinski's B(n) = (1/e) sum k^n / k!.  Valid for
    r >= s; for r < s the parameters are swapped first (the Bell numbers
    are symmetric in r and s).  The returned interval brackets the exact
    integer B_{r,s}(n).  This is :func:`dobinski_polynomial` at t = 1, and
    raises :class:`TermBudgetError` past ``_DOBINSKI_MAX_TERMS`` terms.
    """
    return dobinski_polynomial(p, n, _ONE, precision)


def dobinski_gamma_form(p: Params, n: int, precision: int = DEFAULT_PRECISION_BITS) -> SeriesValue:
    """B_{r,s}(n) for r > s via the Gamma-ratio series

    ((r-s)^(s(n-1))/e) sum_{k=0}^{inf} (1/k!)
        prod_{j=1}^{s} Gamma(n + (k+j)/(r-s)) / Gamma(1 + (k+j)/(r-s)).

    Each Gamma ratio is reduced exactly to
    prod_{m=1}^{n-1} ((k+j)/(r-s) + m), so every term is rational.  Past
    ``_DOBINSKI_MAX_TERMS`` terms it raises :class:`TermBudgetError`.
    """
    return _dobinski_family(p, (n,), _ONE, True, precision)[0]


def dobinski_gamma_forms(p: Params, n_max: int, precision: int = DEFAULT_PRECISION_BITS) -> list:
    """[dobinski_gamma_form(p, n, precision) for n = 1, ..., n_max], bit for
    bit, from one pass over k."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return _dobinski_family(p, range(1, n_max + 1), _ONE, True, precision)


def dobinski_polynomial(
    p: Params, n: int, t: RationalLike, precision: int = DEFAULT_PRECISION_BITS,
) -> SeriesValue:
    """The polynomial B_{r,s}(n, t) as the weighted series

    e^(-t) sum_{k=s}^{inf} (t^k/k!) prod_{j=1}^{n} (k + (j-1)(r-s))^falling(s),

    which must bracket the exact rational bell_polynomial(p, n, t).
    Requires t > 0; past ``_DOBINSKI_MAX_TERMS`` terms it raises
    :class:`TermBudgetError`.
    """
    return _dobinski_family(p, (n,), Fraction(t), False, precision)[0]


def dobinski_polynomials(
    p: Params, n_max: int, t: RationalLike, precision: int = DEFAULT_PRECISION_BITS,
) -> list:
    """[dobinski_polynomial(p, n, t, precision) for n = 1, ..., n_max], bit
    for bit, from one pass over k."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return _dobinski_family(p, range(1, n_max + 1), Fraction(t), False, precision)


# ---------------------------------------------------------------------------
# Generic hypergeometric evaluation


@dataclass(frozen=True)
class HyperParams:
    """Parameters of pFq(upper; lower; argument) with rational data: the one
    type a pFq sum takes.  The constructor turns every parameter into a
    Fraction, refuses a nonpositive integer lower parameter with ValueError
    and a divergent series with :class:`ConvergenceError`."""

    upper: tuple
    lower: tuple
    argument: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        object.__setattr__(self, "argument", Fraction(self.argument))
        for b in self.lower:
            if b <= 0 and b.denominator == 1:
                raise ValueError(f"lower parameter {b} is a nonpositive integer")
        x, extra = self.argument, len(self.upper) - len(self.lower)
        if extra == 1 and abs(x) >= 1 and not self.terminating:
            raise ConvergenceError(f"pFq with p = q+1 needs |x| < 1, got {x}")
        if extra > 1 and x != 0 and not self.terminating:
            raise ConvergenceError("pFq with p > q+1 diverges for nonzero argument")

    @property
    def terminating(self) -> bool:
        """Whether an upper parameter is a nonpositive integer."""
        return any(a <= 0 and a.denominator == 1 for a in self.upper)


# term budget of each pFq sum, read at call time
_HYP_MAX_TERMS = 100_000


def _hyp_enclosure(h: HyperParams, bits: int) -> Tuple[_Interval, int]:
    """Certified enclosure of the pFq of ``h``, within ``_HYP_MAX_TERMS``
    terms, and the number of terms summed: the enclosure integers and the
    stop index of :func:`_sum_series` run on the whole term stream, reached
    in two phases.  ``h`` was converted and validated when it was built, so
    nothing here converts a parameter or tests convergence again.

    The screen steps only the factors p_m/q_m of the term ratio, a float
    log2|term(m)| and a float A_m = sum_{j <= m} |term(j)| >= 1 (term 0 is
    1), and skips term k only where the loop's bit-length pre-test is sure
    to rule it out.  The loop tests term k only where rho_k < 1, and there
    rho_k >= |p_k/q_k|.  With bl(y) > log2 y for y >= 1, bl(gap) <=
    log2(rho_den) + 1 as gap < rho_den, and bl(big) <= log2(big) + 1, the
    pre-test's left side minus its right side is then greater than

        log2|term(k)| + log2 rho_k - log2 max(|S_k|, 1) + bits + 5
            >= log2|term(k+1)| - log2 A_k + bits + 5,

    S_k the partial sum, |S_k| <= A_k.  So where the float estimate
    log2|term(k+1)| - log2 A_k is at least -(bits + 5), the integer
    difference is at least 1 and the term is ruled out; the screen asks for
    2 bits more, a margin far above the float error of its sums.  It stops
    at the first term it cannot skip, at a zero factor (term k+1 is 0), at
    a term past 2^1000, so that no float overflows, and at the budget.

    The exact state after the last skipped term comes from one binary split
    of the stored factors: P = prod p, Q = prod q and T = T1 Q2 + P1 T2 over
    halves, kept unreduced, so the partial sum Q + T and the denominator Q
    are the integers the running loop forms.  :func:`_sum_series` takes it
    as ``start`` and runs its pre-test and full test on the rest of the
    stream, so only the full test decides where the sum stops.
    """
    _check_precision(bits)
    factor, rho = _hyp_ratio(h.upper, h.lower, h.argument, h.terminating)
    max_terms = _HYP_MAX_TERMS
    ps, qs = [], []
    log_term, total, floor = 0.0, 1.0, -(bits + 5) + 2  # a 2-bit float margin
    for k in range(max_terms - 1):
        p, q = factor(k)
        if not p:
            break
        log_next = log_term + log2(abs(p)) - log2(q)
        if log_next > 1000 or log_next - log2(total) < floor:
            break
        ps.append(p)
        qs.append(q)
        log_term = log_next
        total += 2.0 ** log_next
    k = len(ps)  # the first term the screen did not skip
    if k:
        big_p, big_q, big_t = _split(ps, qs, 0, k - 1)
        start, num, step = (big_q + big_t, big_q, k), big_p * ps[-1], qs[-1]
    else:
        start, num, step = (0, 1, 0), 1, 1
    try:
        return _sum_series(_hyp_terms(factor, rho, k, num, step), bits, max_terms,
                           signed=True, start=start)
    except TermBudgetError:
        raise TermBudgetError(f"pFq did not converge within {max_terms} terms") from None


def _split(ps: list, qs: list, a: int, b: int) -> Tuple[int, int, int]:
    """Binary splitting of the factors a..b-1: P = p_a ... p_{b-1}, Q = q_a
    ... q_{b-1} and T = sum_{a < j <= b} (p_a ... p_{j-1}) (q_j ... q_{b-1}),
    none reduced.  The series summed from term 0 has the partial sum
    Q + T over the denominator Q after term b when a = 0."""
    if b - a <= 1:
        return (ps[a], qs[a], ps[a]) if b > a else (1, 1, 0)
    mid = (a + b) // 2
    p1, q1, t1 = _split(ps, qs, a, mid)
    p2, q2, t2 = _split(ps, qs, mid, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _hyp_ratio(uppers: tuple, lowers: tuple, x: Fraction, terminating: bool):
    """The term ratio of pFq(uppers; lowers; x) and its bound, as two
    functions of m: factor(m) = (p, q) with term(m+1) = term(m) p/q and
    q > 0, and rho(m) = (rho_num, rho_den), which bounds |term(j+1)/term(j)|
    for every j >= m where it is below 1.

    The integers of each Fraction parameter a are read once, as the pair
    (a_n, a_d), and a + m enters as a_n + m a_d.  Below m_start, where
    a + m or b + m may still be negative, and everywhere in a terminating
    series, rho is 1, which cannot stop the sum.
    """
    lowers_full = lowers + (_ONE,)  # the m! denominator acts as an extra lower 1
    m_start = max([0] + [ceil(-a) for a in uppers] + [ceil(1 - b) for b in lowers_full])
    # Bound on |t_{j+1}/t_j| for all j >= m >= m_start, non-increasing in m:
    # rank-paired parameters each contribute max(1, (a+m)/(b+m)), which
    # dominates (a+j)/(b+j) for j >= m; unpaired lowers contribute 1/(b+m).
    # (a+m)/(b+m) = (a_n b_d + m w)/(b_n a_d + m w) with w = a_d b_d, so a
    # pair contributes for every m or for none, as a > b or not.
    downs = sorted(lowers_full, reverse=True)
    growing = [(a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator)
               for a, b in zip(sorted(uppers, reverse=True), downs) if a > b]
    unpaired = [(b.numerator, b.denominator) for b in downs[len(uppers):]]
    ups = [(a.numerator, a.denominator) for a in uppers]
    lows = [(b.numerator, b.denominator) for b in lowers]
    p0 = x.numerator * prod(b_d for _, b_d in lows)
    q0 = x.denominator * prod(a_d for _, a_d in ups)
    x_num, x_den = abs(x.numerator), x.denominator

    def factor(m: int) -> Tuple[int, int]:
        p, q = p0, q0 * (m + 1)
        for a_n, a_d in ups:
            p *= a_n + m * a_d
        for b_n, b_d in lows:
            q *= b_n + m * b_d
        return (-p, -q) if q < 0 else (p, q)

    def rho(m: int) -> Tuple[int, int]:
        if terminating or m < m_start:
            return 1, 1
        rho_num, rho_den = x_num, x_den
        for up, down, w in growing:
            rho_num, rho_den = rho_num * (up + m * w), rho_den * (down + m * w)
        for b_n, b_d in unpaired:
            rho_num, rho_den = rho_num * b_d, rho_den * (b_n + m * b_d)
        return rho_num, rho_den

    return factor, rho


def _hyp_terms(factor, rho, m: int, num: int, step: int) -> Iterator[Tuple[int, int, int, int]]:
    """The term stream of a pFq for :func:`_sum_series` from term m on,
    whose numerator is ``num`` and den_step ``step``.  The first zero term,
    of a terminating series or at x = 0, comes with rho = 0: every later
    term is 0, so it ends the sum exactly."""
    for m in count(m):
        if num == 0:
            yield step, 0, 0, 1
            return
        yield (step, num, *rho(m))
        p, step = factor(m)
        num *= p


def hypergeometric(h: HyperParams, precision: int = DEFAULT_PRECISION_BITS) -> SeriesValue:
    """Evaluate pFq at a rational argument with a certified tail bound;
    past ``_HYP_MAX_TERMS`` terms it raises :class:`TermBudgetError`."""
    iv, used = _hyp_enclosure(h, precision)
    return _series_value(iv, used, precision)


def _hyp_combination(parts, x: Fraction, bits: int) -> Tuple[_Interval, int]:
    """Certified (1/e) sum coefficient * pFq(uppers; lowers; x) over the
    ``(uppers, lowers, coefficient)`` triples in ``parts``, with the total
    number of terms summed.  Coefficients must be exact rationals.  Each
    part is a :class:`HyperParams`, so every part passes its guards.
    """
    total = _Interval(0, 0, 1)
    used = 0
    for uppers, lowers, coefficient in parts:
        iv, terms = _hyp_enclosure(HyperParams(uppers, lowers, x), bits)
        total += iv * coefficient
        used += terms
    return total.over_exp(_ONE, bits), used


# ---------------------------------------------------------------------------
# Closed-form identities for the Bell sequences


def laguerre_value(degree: int, alpha: RationalLike, y: RationalLike) -> Fraction:
    """Associated Laguerre polynomial L^(alpha)_degree(y), exactly.

    Three-term recurrence:
    (m+1) L_{m+1} = (2m + 1 + alpha - y) L_m - (m + alpha) L_{m-1},
    stepped on the integers N_m = D^m m! L_m, where D = lcm(den alpha,
    den y), A = alpha D and Y = y D:
    N_0 = 1, N_1 = D + A - Y and
    N_{m+1} = ((2m+1)D + A - Y) N_m - (mD + A) m D N_{m-1}.
    The value is the one ``Fraction`` N_degree / (D^degree degree!).
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    alpha = Fraction(alpha)
    y = Fraction(y)
    if degree == 0:
        return _ONE
    d = lcm(alpha.denominator, y.denominator)
    a = alpha.numerator * (d // alpha.denominator)
    shift = a - y.numerator * (d // y.denominator)  # A - Y
    prev, cur = 1, d + shift
    for m in range(1, degree):
        prev, cur = cur, ((2 * m + 1) * d + shift) * cur - (m * d + a) * m * d * prev
    return Fraction(cur, d**degree * factorial(degree))


def laguerre_bell_check(n: int) -> bool:
    """B_{2,1}(n) = (n-1)! L^(1)_{n-1}(-1), checked in exact arithmetic."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    value = factorial(n - 1) * laguerre_value(n - 1, 1, -1)
    return value == bell_number(Params(2, 1), n)


def kummer_bell_check(r: int, n: int, precision: int = DEFAULT_PRECISION_BITS) -> bool:
    """B_{2r,r}(n) = (rn)!/(e r!) 1F1(rn+1; r+1; 1), within the certified
    interval: the member (p, r) = (r, 1) of :func:`family_bell_check`, with
    prefactor (rn)!/r!, upper rn+1 and lower r+1."""
    if r < 1 or n < 1:
        raise ValueError("r and n must be >= 1")
    return family_bell_check(r, 1, n, precision)


def family_bell_check(p: int, r: int, n: int, precision: int = DEFAULT_PRECISION_BITS) -> bool:
    """The two-index family B_{p(r+1), pr}(n) as a prefactored rFr value:

    (1/e) [prod_{j=1}^{r} (p(n-1+j))! / (pj)!]
        * rFr(pn+1, pn+1+p, ..., pn+1+p(r-1); 1+p, 1+2p, ..., 1+rp; 1).

    The prefactor argument is p*(n-1+j); the variant p*(n-1)+j that is
    sometimes quoted coincides with it only for p = 1 and fails otherwise
    (already at B_{4,2}(1)).
    """
    if p < 1 or r < 1 or n < 1:
        raise ValueError("p, r and n must be >= 1")
    iv, _ = _hyp_combination([_family_part(p, r, n)], _ONE, precision)
    return iv.contains(bell_number(Params(p * (r + 1), p * r), n))


def _family_part(p: int, r: int, n: int) -> tuple:
    """The one (uppers, lowers, prefactor) part of B_{p(r+1), pr}(n) for
    :func:`_hyp_combination`, as :func:`family_bell_check` states it."""
    prefactor = _ONE
    for j in range(1, r + 1):
        prefactor *= Fraction(factorial(p * (n - 1 + j)), factorial(p * j))
    return (tuple(p * n + 1 + p * i for i in range(r)),
            tuple(1 + p * j for j in range(1, r + 1)), prefactor)


def bell_r1_hypergeometric_check(r: int, n: int, precision: int = DEFAULT_PRECISION_BITS) -> bool:
    """B_{r,1}(n) as a combination of d = r-1 functions 1F_d at 1/d^d, any r >= 2.

    Splitting the Dobinski sum by the residue of k mod d gives one part per
    i = 1..d: coefficient d^n (i/d)_n / i!, upper i/d + n, and lowers
    (i+t)/d for t = 0..d with one copy of 1 removed.  The Gamma prefactors
    are the exact Pochhammer products (i/d)_n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r < 2:
        raise ValueError(f"the 1F(r-1) combination needs r >= 2, got {r}")
    d = r - 1
    parts = []
    for i in range(1, d + 1):
        lowers = [Fraction(i + t, d) for t in range(d + 1)]
        lowers.remove(1)
        parts.append(((Fraction(i, d) + n,), tuple(lowers),
                      d**n * rising_factorial(Fraction(i, d), n) / factorial(i)))
    iv, _ = _hyp_combination(parts, Fraction(1, d**d), precision)
    return iv.contains(bell_number(Params(r, 1), n))


# ---------------------------------------------------------------------------
# Exponential generating functions (exact, coefficient level)


def egf_bell_r1_check(r: int, order: int) -> bool:
    """Coefficients of the B_{r,1} exponential generating function.

    For r = 1 the egf is exp(e^x - 1); for r > 1 it is
    exp((1 - (r-1)x)^(-1/(r-1)) - 1).  True iff the coefficient of x^n
    equals B_{r,1}(n)/n! exactly for every n <= order.
    """
    if r < 1 or order < 1:
        raise ValueError("r and order must be >= 1")
    if r == 1:
        inner = series_exp_linear(1, order) - PowerSeries.one(order)
    else:
        inner = series_binomial_power(Fraction(-1, r - 1), Fraction(r - 1), order) \
            - PowerSeries.one(order)
    egf = series_exp(inner)
    bells = bell_sequence(Params(r, 1), order).values
    return all(egf.coeff(n) * factorial(n) == bells[n] for n in range(order + 1))


def egf_stirling_diag_check(r: int, k: int, order: int) -> bool:
    """Column egf of the diagonal triangle:

    sum_{n} S_{r,r}(n,k) x^n/n!
        = (-1)^k/k! sum_{q=r}^{k} (-1)^q C(k,q) (e^(x q^falling(r)) - 1).

    Coefficients below n = ceil(k/r) must vanish (the band is empty
    there); the rest must equal S_{r,r}(n,k)/n! exactly.  n! times the
    coefficient of x^n is the explicit sum's d = 0 form, so the values are
    read from the table, which ``_next_row`` grows by Wick reordering.
    """
    if r < 1 or k < r or order < 1:
        raise ValueError("need r >= 1, k >= r, order >= 1")
    acc = PowerSeries.zero(order)
    one = PowerSeries.one(order)
    for q in range(r, k + 1):
        growth = falling_factorial(q, r)
        acc += ((-1) ** q * comb(k, q)) * (series_exp_linear(growth, order) - one)
    egf = acc * Fraction((-1) ** k, factorial(k))
    table = triangle(Params(r, r), order)
    return all(egf.coeff(n) * factorial(n) == table.value(n, k) for n in range(order + 1))


def egf_stirling_r1_check(r: int, k: int, order: int) -> bool:
    """Column egf of the r >= 2, s = 1 triangle:

    sum_{n} S_{r,1}(n,k) x^n/n!
        = (1/k!) [ (1 - (r-1)x)^(-1/(r-1)) - 1 ]^k.

    The k-th power on the bracket is required for consistency with the
    exponential form of the full generating function (expanding
    exp(f(x) a+ a) columnwise produces f(x)^k / k!); without it only the
    k = 1 column reproduces the triangle.
    """
    if r < 2 or k < 1 or order < 1:
        raise ValueError("need r >= 2, k >= 1, order >= 1")
    base = series_binomial_power(Fraction(-1, r - 1), Fraction(r - 1), order) \
        - PowerSeries.one(order)
    egf = (base ** k) * Fraction(1, factorial(k))
    table = triangle(Params(r, 1), order)
    return all(egf.coeff(n) * factorial(n) == table.value(n, k) for n in range(order + 1))


def bell_diag_egf_coefficient_check(r: int, n: int) -> bool:
    """Termwise coefficient identity behind the diagonal-word generating
    function: extracting the lambda^n coefficient of

        1 + sum_{k=r}^inf (-1)^k/k! sum_{q=r}^k (-1)^q C(k,q) (e^(lambda q^falling(r)) - 1)

    terminates at k = n r (the band is empty beyond) and must give
    B_{r,r}(n)/n!.  This is checked exactly; the identity is only used at
    the coefficient level because for r >= 2 the coefficients grow too
    fast for the sum to define a function of real lambda > 0.  The
    (n!)^r-weighted function of the same numbers is entire, and
    :func:`hgf_check` evaluates it at r = s.

    The inner sum over q, times (-1)^k/k!, is the explicit alternating sum
    for S_{r,r}(n,k), so n! times the coefficient is read from
    ``stirling_explicit`` over the band and compared with the Bell number
    of the table.
    """
    if r < 1 or n < 1:
        raise ValueError("r and n must be >= 1")
    p = Params(r, r)
    return sum(stirling_bell.stirling_explicit(p, n, k) for k in range(r, n * r + 1)) \
        == bell_number(p, n)


# ---------------------------------------------------------------------------
# Hypergeometric generating functions (hgf)


@dataclass(frozen=True)
class HgfCheckResult:
    """Outcome of comparing the two routes to the degree-N hgf truncation."""

    lhs: SeriesValue
    rhs_exact: Fraction
    difference: BigFloat

    @property
    def ok(self) -> bool:
        return self.lhs.brackets(self.rhs_exact)

    def __bool__(self) -> bool:
        return self.ok


# term budget of hgf_check's outer k-series, read at call time
_HGF_MAX_OUTER = 10_000


def hgf_check(
    r: int, s: int, lam: RationalLike, order: int, precision: int = DEFAULT_PRECISION_BITS,
) -> HgfCheckResult:
    """Compare the two routes to the hypergeometric generating function

        G_{r,s}(lambda) = sum_n [B_{r,s}(n)/(n!)^t] lambda^n / n!

    truncated at degree ``order``: once through the k-indexed sum of
    hypergeometric functions (inner series truncated at m = order, outer
    k-sum carried to a certified tail within ``_HGF_MAX_OUTER`` terms, past
    which it raises :class:`TermBudgetError`), and once
    from the exact Bell numbers.  One formula covers every (r, s): with
    s the smaller index (B_{r,s} = B_{s,r}), d = |r - s| and t = s - 1, the
    Dobinski form gives

        G_{r,s}(lambda) = 1 + (1/e) sum_k 1/(k+s)! sum_{m>=1} u_m(k),
        u_m(k) = lambda^m prod_{i<s} prod_{j<m} (k+s-i+jd) / (m!)^s.

    For d >= 1 the inner sums are sF(s-1)((k+1)/d, ..., (k+s)/d; 1, ...,
    1; d^s lambda) - 1, convergent for lambda < 1/d^s.  For r = s (d = 0)
    they are 0F(s-1)(; 1, ..., 1; lambda (k+s)^falling(s)) - 1, entire, so
    no radius applies: G_{1,1}(lambda) = exp(e^lambda - 1).

    The k-sums reproduce the coefficients for n >= 1 only; the constant
    term is the convention B(0) = 1 and is added exactly on both sides.
    True iff the exact polynomial value lies inside the certified
    enclosure of the k-summed route.
    """
    lam = Fraction(lam)
    _check_precision(precision)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    params = Params(r, s)
    s, d = min(r, s), abs(r - s)
    radius = Fraction(1, d**s) if d else None
    if radius is not None and lam >= radius:
        raise ConvergenceError(f"lambda={lam} is outside the convergence disk |lambda| < {radius}")

    # u_m/u_{m-1} = lam prod_{i<s} (k+s-i+(m-1)d) / m^s, whose s factors are
    # the consecutive integers from x = k+1+(m-1)d; the denominators ld m^s
    # do not depend on k, so every inner sum is an integer over their product
    ln, ld = lam.numerator, lam.denominator
    steps = [ld * m**s for m in range(1, order + 1)]
    span = order * d

    def terms() -> Iterator[Tuple[int, int, int, int]]:
        # T_k = inner(k)/(k+s)! over the running denominator (k+s)!.  The
        # factors for i >= 1 cancel in u_M(k+1)/u_M(k), leaving
        # prod_{j<M} (k+s+1+jd)/(k+1+jd) = lows[k+s]/lows[k] at M = order: it
        # bounds u_m(k+1)/u_m(k) for every m <= M, hence inner(k+1)/inner(k),
        # and does not increase in k.  rises[x] = ln x (x+1) ... (x+s-1) and
        # lows[k] = prod_{j<order} (k+1+jd) are each formed once.
        rises, lows = [], []
        for k in count():
            while len(rises) <= k + 1 + span:
                x = len(rises)
                rises.append(ln * prod(range(x, x + s)))
            while len(lows) <= k + s:
                i = len(lows)
                lows.append(prod(range(i + 1, i + 1 + span, d)) if d else (i + 1)**order)
            num, acc = 1, 0
            # the rises at k + 1 + jd for j < order
            for rise, step in zip(rises[k + 1:k + 1 + span:d] if d else [rises[k + 1]] * order, steps):
                num *= rise
                acc = acc * step + num
            yield (k + s if k else factorial(s)), acc, lows[k + s], lows[k] * (k + s + 1)

    if lam == 0 or order == 0:
        sums, used = _Interval(0, 0, 1), 0
    else:
        sums, used = _sum_series(terms(), precision, _HGF_MAX_OUTER)
        sums *= Fraction(1, prod(steps))

    iv = sums.over_exp(_ONE, precision) + 1
    bells = bell_sequence(params, order).values
    rhs = _ONE + sum(
        (Fraction(bells[n], factorial(n) ** s) * lam**n for n in range(1, order + 1)),
        _ZERO,
    )
    return HgfCheckResult(
        lhs=_series_value(iv, used, precision),
        rhs_exact=rhs,
        difference=BigFloat.from_fraction(abs(iv.midpoint - rhs), precision, "c"),
    )
