"""Exact arithmetic substrate.

Unbounded integers are plain Python ints.  Rationals are
:class:`fractions.Fraction`, which keeps the denominator positive and the
pair coprime by construction.  :class:`BigFloat` couples an mpmath binary
float with the precision it was computed at, so no value ever carries an
implicit precision.  :class:`PowerSeries` is a truncated formal power
series with exact rational coefficients: they are reduced ``Fraction``s
at the API, while products and ``series_exp`` work on integer numerators
over one common denominator and reduce each output coefficient once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
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

        ``rounding`` is an mpmath mode: "n" nearest, "c" toward +inf,
        "f" toward -inf.  Directed modes give safe one-sided bounds.
        """
        q = Fraction(q)
        return cls.from_rational(q.numerator, q.denominator, precision_bits, rounding)

    @classmethod
    def from_rational(
        cls, num: int, den: int, precision_bits: int = DEFAULT_PRECISION_BITS,
        rounding: str = "n",
    ) -> "BigFloat":
        """Round num/den (den > 0, the pair need not be coprime) to
        ``precision_bits`` in the mpmath mode ``rounding``.

        The powers of two of num and den leave as one exact exponent shift,
        so mpmath rounds odd/odd (or 0): binary rounding commutes with
        scaling by 2^k, and mpmath's python backend would strip trailing
        zero bits one byte per loop.  Any other common factor stays.
        """
        if precision_bits < 2:
            # checked before mpmath, whose from_rational loops on a negative one
            raise ValueError("precision_bits must be at least 2")
        zd = (den & -den).bit_length() - 1
        zn = (num & -num).bit_length() - 1 if num else zd
        raw = libmp.from_rational(num >> zn, den >> zd, precision_bits, rounding)
        return cls(mpmath.mp.make_mpf(libmp.mpf_shift(raw, zn - zd)), precision_bits)

    def to_fraction(self) -> Fraction:
        """Exact rational value of a finite binary float."""
        man, exp = _man_exp(self.value)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)

    def __str__(self) -> str:
        return mpmath.nstr(self.value, int(self.precision_bits * 0.3010) + 2)


class TruncationOrderMismatch(ValueError):
    """Binary operation between series truncated at different orders."""


@dataclass(frozen=True)
class PowerSeries:
    """Sum_i c_i x^i + O(x^(K+1)) with exact rational coefficients.

    The truncation order K is part of the value; mixing two series with
    different K raises :class:`TruncationOrderMismatch` instead of silently
    re-truncating.
    """

    coeffs: tuple

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a PowerSeries needs at least the constant term")
        object.__setattr__(
            self, "coeffs",
            tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs),
        )

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[RationalLike], order: int | None = None) -> "PowerSeries":
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if len(cs) > order + 1:
                raise ValueError("more coefficients than the truncation order allows")
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([], order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([1], order)

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.truncation_order:
            raise IndexError(f"coefficient {n} outside truncation order {self.truncation_order}")
        return self.coeffs[n]

    def _check_order(self, other: "PowerSeries") -> None:
        if self.truncation_order != other.truncation_order:
            raise TruncationOrderMismatch(
                f"orders differ: {self.truncation_order} vs {other.truncation_order}"
            )

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_order(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_order(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            self._check_order(other)
            # a_i = A_i / la and b_j = B_j / lb: convolve the integer
            # numerators and reduce each product coefficient once
            a, la = _numerators(self.coeffs)
            b, lb = _numerators(other.coeffs)
            n = len(a)
            out = [0] * n
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j in range(n - i):
                    out[i + j] += ai * b[j]
            den = la * lb
            return PowerSeries(tuple(Fraction(c, den) for c in out))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "PowerSeries":
        c = Fraction(c)
        return PowerSeries(tuple(a * c for a in self.coeffs))

    def __pow__(self, k: int) -> "PowerSeries":
        if k < 0:
            raise ValueError("negative powers are not defined for truncated series")
        result = PowerSeries.one(self.truncation_order)
        for _ in range(k):
            result = result * self
        return result


def _numerators(coeffs) -> tuple:
    """Integer numerators of ``coeffs`` over the lcm of their denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def series_exp(f: PowerSeries) -> PowerSeries:
    """exp(f) truncated at the order of f; requires f(0) = 0.

    A nonzero constant term would make the coefficients transcendental,
    so it is rejected.  Uses g' = f' g, i.e.
    g_n = (1/n) sum_{i=1}^{n} i f_i g_{n-i}, on integers: with
    i! f_i = F_i / L over one common denominator L,
    g_n = H_n / (L^n n!) where H_0 = 1 and
    H_n = sum_{i=1}^{n} C(n-1, i-1) F_i L^(i-1) H_{n-i}.
    Scaling by i! first keeps L small for egf-shaped f: exp(e^x - 1)
    has L = 1.
    """
    if f.coeffs[0] != 0:
        raise ValueError("series_exp requires a zero constant term")
    order = f.truncation_order
    scaled = [c * factorial(i) for i, c in enumerate(f.coeffs)]
    num, den = _numerators(scaled)
    term = [0] + [num[i] * den ** (i - 1) for i in range(1, order + 1)]  # F_i L^(i-1)
    h = [1] + [0] * order
    for n in range(1, order + 1):
        acc = 0
        c = 1  # C(n-1, i-1)
        for i in range(1, n + 1):
            if term[i]:
                acc += c * term[i] * h[n - i]
            c = c * (n - i) // i
        h[n] = acc
    g = []
    scale = 1  # L^n n!
    for n, hn in enumerate(h, 1):
        g.append(Fraction(hn, scale))
        scale *= den * n
    return PowerSeries(tuple(g))


def series_binomial_power(alpha: RationalLike, c: RationalLike, order: int) -> PowerSeries:
    """(1 - c x)^alpha = sum_i C(alpha, i) (-c)^i x^i, truncated at ``order``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    alpha = Fraction(alpha)
    c = Fraction(c)
    p, q = alpha.numerator, alpha.denominator
    u, v = c.numerator, c.denominator
    coeffs = []
    term = Fraction(1)
    for i in range(order + 1):
        coeffs.append(term)
        # C(alpha, i+1)(-c)^(i+1) = C(alpha, i)(-c)^i * (alpha - i)(-c)/(i + 1);
        # one product with a small step keeps each gcd small
        term *= Fraction((p - i * q) * -u, q * v * (i + 1))
    return PowerSeries(tuple(coeffs))


def series_exp_linear(c: RationalLike, order: int) -> PowerSeries:
    """exp(c x) truncated at ``order``; coefficients c^n / n!."""
    c = Fraction(c)
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * Fraction(c.numerator, c.denominator * n))
    return PowerSeries(tuple(coeffs))
