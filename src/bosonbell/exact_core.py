"""Exact arithmetic substrate.

Unbounded integers are plain Python ints.  Rationals are
:class:`fractions.Fraction`, which keeps the denominator positive and the
pair coprime by construction.  :class:`BigFloat` couples an mpmath binary
float with the precision it was computed at, so no value ever carries an
implicit precision.  The package rounds a rational to it on the integers,
in five modes of its own (nearest with ties to even, toward +inf, toward
-inf, toward zero, away from zero) that give mpmath's results bit for
bit; mpmath only holds and prints the result.  :class:`PowerSeries` is a
truncated formal power series with exact rational coefficients, held as
integer numerators over one denominator in lowest terms: every operation
works on the integers and reduces its result with one gcd, and the
coefficients are reduced ``Fraction``s only where they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Tuple, Union

import mpmath
from mpmath import libmp

DEFAULT_PRECISION_BITS = 256

# the smallest working precision that every certified series, the Fock
# table and the CLI's --prec accept
MIN_PRECISION_BITS = 16

RationalLike = Union[int, Fraction]


def _check_precision(bits: int) -> None:
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits, got {bits}")


def falling_factorial(x, s: int):
    """x (x-1) ... (x-s+1), with the empty product (s=0) equal to 1.

    Preserves the type of ``x``: ints stay ints, Fractions stay exact.
    """
    if s < 0:
        raise ValueError(f"falling_factorial requires s >= 0, got s={s}")
    result = 1
    for i in range(s):
        result *= x - i
    return result


def rising_factorial(x, s: int):
    """Pochhammer product x (x+1) ... (x+s-1), empty product equal to 1."""
    if s < 0:
        raise ValueError(f"rising_factorial requires s >= 0, got s={s}")
    result = 1
    for i in range(s):
        result *= x + i
    return result


def _man_exp(x: mpmath.mpf) -> Tuple[int, int]:
    """The integers (m, e) of a finite mpf x = m 2^e, m signed."""
    sign, man, exp, _ = x._mpf_
    if man == 0 and x != 0:
        raise ValueError(f"non-finite value {x!r}")
    return (-int(man) if sign else int(man)), exp


# the rounding modes, as mpmath names them: nearest with ties to even,
# toward +inf (ceiling), toward -inf (floor), toward zero, away from zero
_ROUNDINGS = frozenset("ncfdu")


def _round_rational(num: int, den: int, bits: int, rounding: str) -> Tuple[int, int]:
    """num/den rounded to ``bits`` bits in the mode ``rounding``, as the
    integers (m, e) of m 2^e with m signed and odd, or (0, 0).

    One ``divmod`` shifts the quotient to bits + 2 or bits + 3 bits; the
    bits dropped below the kept ``bits`` and the remainder decide the
    rounding, and the trailing zeros of m move into e, mpmath's normal form.
    """
    if rounding not in _ROUNDINGS:
        raise ValueError(f"unknown rounding mode {rounding!r}, expected one of n, c, f, d, u")
    if den < 0:
        num, den = -num, -den
    elif not den:
        raise ZeroDivisionError("rational with a zero denominator")
    if not num:
        return 0, 0
    negative = num < 0
    if negative:
        num = -num
    # the powers of two of den leave as an exponent: a dyadic quotient, as
    # the Fock sums are, then divides by 1
    twos = (den & -den).bit_length() - 1
    den >>= twos
    # num 2^s / den lies in (2^(bits+1), 2^(bits+3))
    s = bits + 2 - num.bit_length() + den.bit_length()
    if s >= 0:
        q, rem = divmod(num << s, den)
    else:
        # floor(num / (den 2^-s)) = floor(floor(num / 2^-s) / den)
        q, rem = divmod(num >> -s, den)
        rem = rem or num & ((1 << -s) - 1)
    drop = q.bit_length() - bits
    man, low = q >> drop, q & ((1 << drop) - 1)
    if rounding == "n":
        half = 1 << (drop - 1)
        up = low > half or (low == half and (rem or man & 1))
    else:
        up = (low or rem) and (rounding == "u" or rounding == ("f" if negative else "c"))
    if up:
        man += 1
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (-man if negative else man), drop - s - twos + zeros


@dataclass(frozen=True)
class BigFloat:
    """An arbitrary-precision binary float tagged with its precision."""

    value: mpmath.mpf
    precision_bits: int

    def __post_init__(self) -> None:
        if self.precision_bits < 2:
            raise ValueError("precision_bits must be at least 2")

    @classmethod
    def from_fraction(
        cls, q: RationalLike, precision_bits: int = DEFAULT_PRECISION_BITS,
        rounding: str = "n",
    ) -> "BigFloat":
        """Round an exact rational to ``precision_bits``.

        ``rounding`` is one of the five modes of :meth:`from_rational`;
        the directed ones give safe one-sided bounds.
        """
        q = Fraction(q)
        return cls.from_rational(q.numerator, q.denominator, precision_bits, rounding)

    @classmethod
    def from_rational(
        cls, num: int, den: int, precision_bits: int = DEFAULT_PRECISION_BITS,
        rounding: str = "n",
    ) -> "BigFloat":
        """Round num/den (den nonzero, the pair need not be coprime) to
        ``precision_bits`` in the mode ``rounding``: "n" nearest with ties
        to even, "c" toward +inf, "f" toward -inf, "d" toward zero or "u"
        away from zero.

        The package rounds on the integers, by one ``divmod``, to the value
        mpmath's own rounding gives bit for bit; mpmath only holds the
        result.  A zero denominator raises ZeroDivisionError and an unknown
        mode ValueError.
        """
        if precision_bits < 2:
            raise ValueError("precision_bits must be at least 2")
        man, exp = _round_rational(num, den, precision_bits, rounding)
        return cls._from_man_exp(man, exp, precision_bits)

    @classmethod
    def _from_man_exp(cls, man: int, exp: int, precision_bits: int) -> "BigFloat":
        """The float man 2^exp, with man odd or (man, exp) = (0, 0), as the
        rounding kernel gives it: mpmath's normal form, held unchanged."""
        mag = abs(man)
        return cls(mpmath.mp.make_mpf((int(man < 0), libmp.MPZ(mag), exp, mag.bit_length())),
                   precision_bits)

    def at_most(self, num: int, shift: int) -> bool:
        """Whether this finite value is at most num / 2^shift, on the integers."""
        man, exp = _man_exp(self.value)
        k = exp + shift
        return (man << k) <= num if k >= 0 else man <= (num << -k)

    def to_fraction(self) -> Fraction:
        """Exact rational value of a finite binary float."""
        man, exp = _man_exp(self.value)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)

    def __str__(self) -> str:
        return mpmath.nstr(self.value, int(self.precision_bits * 0.3010) + 2)


class TruncationOrderMismatch(ValueError):
    """Binary operation between series truncated at different orders."""


def _nonnegative_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be >= 0")


@dataclass(frozen=True, init=False)
class PowerSeries:
    """Sum_i c_i x^i + O(x^(K+1)) with exact rational coefficients.

    The coefficients are integer numerators ``nums`` over one positive
    denominator ``den``, in lowest terms as a whole: gcd(den, *nums) = 1,
    so the zero series has den = 1 and equal values have equal fields.
    Every operation works on the integers and reduces its result with one
    gcd; ``coeffs`` and ``coeff(n)`` give reduced ``Fraction``s.

    The truncation order K is part of the value; mixing two series with
    different K raises :class:`TruncationOrderMismatch` instead of silently
    re-truncating.
    """

    nums: tuple
    den: int

    def __init__(self, coeffs: Iterable[RationalLike]) -> None:
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if not cs:
            raise ValueError("a PowerSeries needs at least the constant term")
        # over the lcm of the reduced denominators no prime divides them all
        den = lcm(*(c.denominator for c in cs))
        object.__setattr__(self, "nums", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, nums, den: int) -> "PowerSeries":
        """The series with numerators ``nums`` over ``den`` > 0, divided
        through by gcd(den, *nums)."""
        g = gcd(den, *nums)
        if g > 1:
            nums = [a // g for a in nums]
            den //= g
        series = object.__new__(cls)
        object.__setattr__(series, "nums", tuple(nums))
        object.__setattr__(series, "den", den)
        return series

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[RationalLike], order: int | None = None) -> "PowerSeries":
        cs = list(coeffs)
        if order is not None:
            _nonnegative_order(order)
            if len(cs) > order + 1:
                raise ValueError("more coefficients than the truncation order allows")
            cs.extend([0] * (order + 1 - len(cs)))
        return cls(cs)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        _nonnegative_order(order)
        return cls._reduced((0,) * (order + 1), 1)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        _nonnegative_order(order)
        return cls._reduced((1,) + (0,) * order, 1)

    @property
    def truncation_order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.truncation_order:
            raise IndexError(f"coefficient {n} outside truncation order {self.truncation_order}")
        return Fraction(self.nums[n], self.den)

    def _check_order(self, other: "PowerSeries") -> None:
        if self.truncation_order != other.truncation_order:
            raise TruncationOrderMismatch(
                f"orders differ: {self.truncation_order} vs {other.truncation_order}"
            )

    def _combine(self, other: "PowerSeries", sign: int) -> "PowerSeries":
        """self + sign * other over the lcm of the two denominators."""
        self._check_order(other)
        g = gcd(self.den, other.den)
        ua, ub = other.den // g, sign * (self.den // g)
        return PowerSeries._reduced([a * ua + b * ub for a, b in zip(self.nums, other.nums)],
                                    self.den * ua)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries._reduced([-a for a in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._check_order(other)
            a, b = self.nums, other.nums
            n = len(a)
            out = [0] * n
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j in range(n - i):
                    out[i + j] += ai * b[j]
            return PowerSeries._reduced(out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "PowerSeries":
        c = Fraction(c)
        p = c.numerator
        return PowerSeries._reduced([a * p for a in self.nums], self.den * c.denominator)

    def __pow__(self, k: int) -> "PowerSeries":
        if k < 0:
            raise ValueError("negative powers are not defined for truncated series")
        result = PowerSeries.one(self.truncation_order)
        for _ in range(k):
            result = result * self
        return result


def _over_factorials(t: list, step: int) -> PowerSeries:
    """sum_n t_n x^n / (step^n n!) for integers t_n with t_0 = 1, over the
    one denominator step^K K!: numerators t_n step^(K-n) K!/n!."""
    out = [0] * len(t)
    w = 1  # step^(K-n) K!/n!
    for n in range(len(t) - 1, 0, -1):
        out[n] = t[n] * w
        w *= step * n
    out[0] = w
    return PowerSeries._reduced(out, w)


def series_exp(f: PowerSeries) -> PowerSeries:
    """exp(f) truncated at the order of f; requires f(0) = 0.

    A nonzero constant term would make the coefficients transcendental,
    so it is rejected.  Uses g' = f' g, i.e.
    g_n = (1/n) sum_{i=1}^{n} i f_i g_{n-i}, on integers: with
    i! f_i = F_i / L in lowest terms as a whole (one gcd),
    g_n = H_n / (L^n n!) where H_0 = 1 and
    H_n = sum_{i=1}^{n} C(n-1, i-1) F_i L^(i-1) H_{n-i}.
    Scaling by i! first keeps L small for egf-shaped f: exp(e^x - 1)
    has L = 1.  The result is written over L^K K! and reduced once.
    """
    if f.nums[0]:
        raise ValueError("series_exp requires a zero constant term")
    order = f.truncation_order
    scaled = [a * factorial(i) for i, a in enumerate(f.nums)]
    g = gcd(f.den, *scaled)
    den = f.den // g
    term = [0] + [scaled[i] // g * den ** (i - 1) for i in range(1, order + 1)]  # F_i L^(i-1)
    h = [1] + [0] * order
    for n in range(1, order + 1):
        acc = 0
        c = 1  # C(n-1, i-1)
        for i in range(1, n + 1):
            if term[i]:
                acc += c * term[i] * h[n - i]
            c = c * (n - i) // i
        h[n] = acc
    return _over_factorials(h, den)


def series_binomial_power(alpha: RationalLike, c: RationalLike, order: int) -> PowerSeries:
    """(1 - c x)^alpha = sum_i C(alpha, i) (-c)^i x^i, truncated at ``order``.

    With alpha = p/q and c = u/v, C(alpha, i) (-c)^i
    = prod_{j<i} (p - j q)(-u) / ((q v)^i i!).
    """
    _nonnegative_order(order)
    alpha = Fraction(alpha)
    c = Fraction(c)
    p, q = alpha.numerator, alpha.denominator
    u, v = c.numerator, c.denominator
    t = [1]
    for i in range(order):
        t.append(t[-1] * (p - i * q) * -u)
    return _over_factorials(t, q * v)


def series_exp_linear(c: RationalLike, order: int) -> PowerSeries:
    """exp(c x) truncated at ``order``; coefficients c^n / n!, which are
    u^n / (v^n n!) for c = u/v."""
    _nonnegative_order(order)
    c = Fraction(c)
    u = c.numerator
    return _over_factorials([u**n for n in range(order + 1)], c.denominator)
