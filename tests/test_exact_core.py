import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp
from mpmath.libmp import libmpf

from bosonbell.exact_core import (
    BigFloat,
    PowerSeries,
    TruncationOrderMismatch,
    _round_rational,
    falling_factorial,
    rising_factorial,
    series_binomial_power,
    series_exp,
    series_exp_linear,
)

from _oracles import (
    bell_brute,
    series_exp_reference,
    series_mul_reference,
    series_pow_reference,
)

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=12)


class TestFallingFactorial:
    def test_integer_case(self):
        assert falling_factorial(5, 3) == 60

    @pytest.mark.parametrize("x", [0, 7, Fraction(3, 2), Fraction(-5, 3)])
    def test_empty_product(self, x):
        assert falling_factorial(x, 0) == 1

    def test_rational_case(self):
        assert falling_factorial(Fraction(3, 2), 2) == Fraction(3, 4)

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
    def test_factorial_quotient(self, m, s):
        if s > m:
            assert falling_factorial(m, s) == 0
        else:
            assert falling_factorial(m, s) == factorial(m) // factorial(m - s)

    def test_rising(self):
        assert rising_factorial(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=10**6))
def test_rational_normalization(p, q):
    from math import gcd
    f = Fraction(p, q)
    assert f.denominator > 0
    assert gcd(abs(f.numerator), f.denominator) == 1


class TestPowerSeries:
    def test_exp_of_x(self):
        f = PowerSeries.from_coeffs([0, 1], 4)
        assert series_exp(f).coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))

    def test_exp_of_zero(self):
        assert series_exp(PowerSeries.zero(3)) == PowerSeries.one(3)

    def test_exp_of_expm1_gives_bell_numbers(self):
        # frozen from the set-partition brute force: 1, 1, 2, 5, 15, 52
        expected = [bell_brute(n) for n in range(6)]
        assert expected == [1, 1, 2, 5, 15, 52]
        inner = series_exp_linear(1, 5) - PowerSeries.one(5)
        egf = series_exp(inner)
        assert [egf.coeff(n) * factorial(n) for n in range(6)] == expected

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            series_exp(PowerSeries.one(3))

    def test_order_mismatch_is_an_error(self):
        with pytest.raises(TruncationOrderMismatch):
            PowerSeries.one(3) + PowerSeries.one(4)

    def test_geometric_series(self):
        assert series_binomial_power(-1, 1, 3).coeffs == (1, 1, 1, 1)

    def test_linear_case(self):
        assert series_binomial_power(1, 1, 3).coeffs == (1, -1, 0, 0)

    def test_binomial_power_square(self):
        # (1-x)^(-2) = sum (i+1) x^i
        assert series_binomial_power(-2, 1, 4).coeffs == (1, 2, 3, 4, 5)

    def test_half_power_squares_back(self):
        g = series_binomial_power(Fraction(1, 2), Fraction(1, 3), 6)
        assert g * g == series_binomial_power(1, Fraction(1, 3), 6)

    @given(st.lists(small_fractions, min_size=4, max_size=4),
           st.lists(small_fractions, min_size=4, max_size=4),
           st.lists(small_fractions, min_size=4, max_size=4))
    def test_multiplication_is_associative(self, a, b, c):
        f, g, h = (PowerSeries.from_coeffs(cs) for cs in (a, b, c))
        assert (f * g) * h == f * (g * h)

    @settings(max_examples=40)
    @given(st.lists(small_fractions, min_size=5, max_size=5))
    def test_exp_of_negation_inverts(self, coeffs):
        coeffs[0] = Fraction(0)
        f = PowerSeries.from_coeffs(coeffs)
        assert series_exp(f) * series_exp(-f) == PowerSeries.one(4)


@st.composite
def series_coeffs(draw, order):
    """order + 1 coefficients: zeros, +-1/i!, and fractions whose
    denominators range from small to coprime and large."""
    kinds = st.sampled_from(("zero", "factorial", "small", "wide"))
    out = []
    for i in range(order + 1):
        kind = draw(kinds)
        if kind == "zero":
            out.append(Fraction(0))
        elif kind == "factorial":
            out.append(Fraction(draw(st.sampled_from((-1, 1))), factorial(i)))
        elif kind == "small":
            out.append(draw(small_fractions))
        else:
            out.append(draw(st.fractions(min_value=-10**6, max_value=10**6,
                                         max_denominator=10**6)))
    return out


orders = st.integers(min_value=0, max_value=14)


class TestSeriesArithmeticAgainstFractionLoops:
    """Products, powers and exp on integer numerators equal the plain
    Fraction double loops of the reference, coefficient for coefficient."""

    @settings(max_examples=60)
    @given(orders.flatmap(lambda k: st.tuples(series_coeffs(k), series_coeffs(k))))
    def test_product(self, pair):
        a, b = pair
        assert (PowerSeries.from_coeffs(a) * PowerSeries.from_coeffs(b)).coeffs \
            == tuple(series_mul_reference(a, b))

    @settings(max_examples=60)
    @given(orders.flatmap(series_coeffs), st.integers(min_value=0, max_value=4))
    def test_power(self, a, k):
        assert (PowerSeries.from_coeffs(a) ** k).coeffs == tuple(series_pow_reference(a, k))

    @settings(max_examples=60)
    @given(orders.flatmap(series_coeffs))
    def test_exp(self, f):
        f[0] = Fraction(0)
        assert series_exp(PowerSeries.from_coeffs(f)).coeffs == tuple(series_exp_reference(f))

    @settings(max_examples=60)
    @given(small_fractions, small_fractions, orders)
    def test_binomial_power_and_linear_exp(self, alpha, c, order):
        expected = []
        for i in range(order + 1):
            falling = Fraction(1)
            for j in range(i):
                falling *= alpha - j
            expected.append(falling / factorial(i) * (-c) ** i)
        assert series_binomial_power(alpha, c, order).coeffs == tuple(expected)
        assert series_exp_linear(c, order).coeffs \
            == tuple(c**n / factorial(n) for n in range(order + 1))

    @pytest.mark.parametrize("order", [0, 1, 5, 14])
    def test_all_zero_series(self, order):
        zero = PowerSeries.zero(order)
        a = PowerSeries.from_coeffs([Fraction(-3, 7)] * (order + 1))
        assert series_exp(zero) == PowerSeries.one(order)
        assert zero * a == a * zero == zero
        assert zero ** 0 == PowerSeries.one(order)
        assert zero ** 3 == zero

    def test_order_zero(self):
        a = PowerSeries.from_coeffs([Fraction(-5, 6)])
        b = PowerSeries.from_coeffs([Fraction(9, 4)])
        assert (a * b).coeffs == (Fraction(-15, 8),)
        assert (a ** 4).coeffs == (Fraction(625, 1296),)
        assert series_exp(PowerSeries.zero(0)).coeffs == (1,)

    @pytest.mark.parametrize("top", [Fraction(1), Fraction(-2, 15), Fraction(1, 3628800)])
    @pytest.mark.parametrize("order", [1, 2, 9])
    def test_only_top_coefficient_nonzero(self, order, top):
        f = [Fraction(0)] * order + [top]
        series = PowerSeries.from_coeffs(f)
        assert series_exp(series).coeffs == tuple(series_exp_reference(f))
        assert (series * series).coeffs == tuple(series_mul_reference(f, f))
        assert (series ** 3).coeffs == tuple(series_pow_reference(f, 3))

    def test_coefficients_stay_reduced_fractions(self):
        g = series_exp(PowerSeries.from_coeffs([0, Fraction(2, 3), Fraction(-1, 4)]))
        h = PowerSeries.from_coeffs([Fraction(4, 6), 3, 0]) * g
        for c in g.coeffs + h.coeffs:
            assert type(c) is Fraction
        assert g.coeffs == (1, Fraction(2, 3), Fraction(-1, 36))
        assert h.coeffs == (Fraction(2, 3), Fraction(31, 9), Fraction(107, 54))


def _canonical(series: PowerSeries) -> PowerSeries:
    """``series`` after checking that its integers are in lowest terms."""
    assert all(type(a) is int for a in series.nums) and type(series.den) is int
    assert series.den > 0
    assert gcd(series.den, *series.nums) == 1
    if not any(series.nums):
        assert series.den == 1
    return series


class TestIntegerForm:
    """Numerators over one denominator, in lowest terms as a whole, after
    every operation; equal values have equal fields and equal hashes."""

    @settings(max_examples=60)
    @given(orders.flatmap(lambda k: st.tuples(series_coeffs(k), series_coeffs(k))),
           small_fractions, st.integers(min_value=0, max_value=3))
    def test_every_operation_keeps_lowest_terms(self, pair, c, k):
        a, b = (_canonical(PowerSeries.from_coeffs(cs)) for cs in pair)
        order = a.truncation_order
        for result in (a + b, a - b, -a, a * b, b * a, a * c, c * a, a.scale(c), a ** k,
                       a - a, a + (-a), a.scale(0)):
            _canonical(result)
        f = PowerSeries.from_coeffs([0] + pair[0][1:])
        _canonical(series_exp(f))
        _canonical(series_exp_linear(c, order))
        _canonical(series_binomial_power(c, b.coeff(0), order))

    @settings(max_examples=60)
    @given(orders.flatmap(lambda k: st.tuples(series_coeffs(k), series_coeffs(k))))
    def test_equal_values_by_different_paths_are_equal(self, pair):
        a, b = (PowerSeries.from_coeffs(cs) for cs in pair)
        for left, right in (((a + b) - b, a), (a.scale(2), a + a), (-(-a), a),
                            (a * PowerSeries.one(a.truncation_order), a),
                            (a - a, PowerSeries.zero(a.truncation_order))):
            assert left == right
            assert hash(left) == hash(right)
            assert (left.nums, left.den) == (right.nums, right.den)

    @pytest.mark.parametrize("order", [0, 3, 12])
    @pytest.mark.parametrize("c", [Fraction(3), Fraction(-2, 9), Fraction(5, 14)])
    def test_the_constructors_agree(self, order, c):
        linear = series_exp_linear(c, order)
        built = [
            PowerSeries.from_coeffs([c**n / factorial(n) for n in range(order + 1)]),
            PowerSeries(tuple(c**n / factorial(n) for n in range(order + 1))),
            series_exp(PowerSeries.from_coeffs([0, c][:order + 1], order)),
            series_exp_linear(c / 2, order) ** 2,
            series_binomial_power(-1, c / 3, order) ** 0 * linear,
        ]
        for series in built:
            assert _canonical(series) == linear
            assert hash(series) == hash(linear)
        half = series_binomial_power(Fraction(1, 2), c, order)
        assert half * half == _canonical(series_binomial_power(1, c, order))

    @pytest.mark.parametrize("order", [0, 4, 9])
    def test_the_zero_series_has_denominator_one(self, order):
        a = PowerSeries.from_coeffs([Fraction(-3, 7)] * (order + 1))
        line = series_binomial_power(1, 1, order)
        zeros = [PowerSeries.zero(order), a - a, a + (-a), a.scale(0), a * 0,
                 PowerSeries.from_coeffs([Fraction(0, 5)] * (order + 1)),
                 PowerSeries.zero(order) * a, line - line]
        for z in zeros:
            assert _canonical(z).den == 1
            assert z == zeros[0] and hash(z) == hash(zeros[0])

    def test_product_operators_stay_in_the_class_dict(self):
        # the traced benchmark rebinds both by name on the class
        assert "__mul__" in vars(PowerSeries) and "__rmul__" in vars(PowerSeries)


class TestNegativeOrder:
    """Every constructor that takes a truncation order refuses one below 0
    with the same message."""

    @pytest.mark.parametrize("build", [
        lambda: series_exp_linear(2, -3),
        lambda: series_exp_linear(0, -1),
        lambda: series_binomial_power(Fraction(1, 2), 1, -1),
        lambda: PowerSeries.one(-1),
        lambda: PowerSeries.zero(-1),
        lambda: PowerSeries.from_coeffs([], -1),
        lambda: PowerSeries.from_coeffs([1], -2),
    ], ids=["exp_linear", "exp_linear_zero", "binomial_power", "one", "zero",
            "from_coeffs_empty", "from_coeffs"])
    def test_refused(self, build):
        with pytest.raises(ValueError, match=r"^order must be >= 0$"):
            build()

    def test_too_many_coefficients_keeps_its_message(self):
        with pytest.raises(ValueError, match="more coefficients than the truncation order allows"):
            PowerSeries.from_coeffs([1, 2, 3], 1)


class TestBigFloat:
    def test_directed_rounding_brackets_the_value(self):
        third = Fraction(1, 3)
        lo = BigFloat.from_fraction(third, 64, "f")
        hi = BigFloat.from_fraction(third, 64, "c")
        assert lo.to_fraction() < third < hi.to_fraction()

    def test_round_trip_is_exact_for_dyadics(self):
        x = Fraction(-7, 32)
        bf = BigFloat.from_fraction(x, 53)
        assert bf.to_fraction() == x

    @pytest.mark.parametrize("x", [
        Fraction(0),
        Fraction(3 << 300),                    # exponent >= 0: man << exp
        Fraction(-(2**53 - 1), 2**1100),       # exponent < 0: man / 2^-exp
    ], ids=["zero", "positive-exponent", "negative-exponent"])
    def test_to_fraction_is_exact_on_either_exponent_sign(self, x):
        assert BigFloat.from_fraction(x, 53).to_fraction() == x

    @pytest.mark.parametrize("x", [mp.inf, -mp.inf, mp.nan])
    def test_mpf_to_fraction_refuses_non_finite_values(self, x):
        with pytest.raises(ValueError, match="^non-finite value"):
            BigFloat(x, 53).to_fraction()

    def test_precision_recorded(self):
        assert BigFloat.from_fraction(1, 128).precision_bits == 128

    def test_from_rational_matches_mpmath_bit_for_bit(self):
        # ends with up to 4000 trailing zero bits each, rounded in all five
        # modes: the shifted odd quotient is mpmath's rounding of the whole
        rng = random.Random(26)
        for _ in range(3000):
            num = rng.choice([0, rng.randint(-2**3000, 2**3000), rng.randint(-2**64, 2**64)])
            den = rng.randint(1, 2 ** rng.randint(1, 3000))
            num, den = num << rng.randint(0, 4000), den << rng.randint(0, 4000)
            prec, mode = rng.randint(2, 4096), rng.choice("nfcdu")
            got = BigFloat.from_rational(num, den, prec, mode)
            assert got.value._mpf_ == libmp.from_rational(num, den, prec, mode), (num, den, prec, mode)
            assert got.precision_bits == prec

    @pytest.mark.parametrize("num,den", [(0, 1), (0, 2**40), (3 << 900, 5 << 10),
                                         (-(7 << 3), 9 << 3000), (2**64, 2**64), (-1, 3)],
                             ids=("zero", "zero-over-even", "even-over-even", "negative",
                                  "one", "odd-over-odd"))
    def test_mpmath_never_rounds(self, monkeypatch, num, den):
        # mpmath's rounding and normalizing entry points, by either module
        seen = []
        expected = libmp.from_rational(num, den, 53, "n")

        def spy(name, fn):
            def recorded(*args):
                seen.append(name)
                return fn(*args)
            return recorded

        for module in (libmp, libmpf):
            for name in ("from_rational", "mpf_div", "mpf_shift", "from_man_exp",
                         "normalize", "normalize1"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        assert BigFloat.from_rational(num, den, 53).value._mpf_ == expected
        assert seen == []

    def test_zero_denominator_raises_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            BigFloat.from_rational(3, 0, 53)

    @pytest.mark.parametrize("num", [0, 3, 4])
    def test_unknown_mode_is_a_value_error_naming_it(self, num):
        # refused before any rounding, exact quotients and zero included
        with pytest.raises(ValueError, match="'x'"):
            BigFloat.from_rational(num, 4, 53, "x")

    @pytest.mark.parametrize("mode", "ncfdu")
    def test_negative_denominator_negates_the_quotient(self, mode):
        assert BigFloat.from_rational(3, -4, 53, mode).value == mp.mpf(-0.75)
        got = BigFloat.from_rational(1, -3, 53, mode)
        assert got.value._mpf_ == libmp.from_rational(-1, 3, 53, mode)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rounding_kernel_matches_mpmath(self, data):
        # exact ties (2m+1) 2^e / 2^f at ``bits``, bare or times a shared odd
        # factor, and quotients of any size, sign and denominator sign
        bits = data.draw(st.integers(2, 4096), label="bits")
        mode = data.draw(st.sampled_from("ncfdu"), label="mode")
        if data.draw(st.booleans(), label="tie"):
            m = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1), label="m")
            e, f = data.draw(st.integers(0, 64), label="e"), data.draw(st.integers(0, 64), label="f")
            odd = data.draw(st.sampled_from([1, 1, 3, 15, 2**61 - 1]), label="odd")
            sign = data.draw(st.sampled_from([1, -1]), label="sign")
            num, den = sign * (2 * m + 1) * odd << e, odd << f
        else:
            size = data.draw(st.integers(1, 2 * bits + 64), label="size")
            num = data.draw(st.integers(-(2**size), 2**size), label="num")
            den = data.draw(st.integers(-(2**size), 2**size).filter(bool), label="den")
        sign, man, exp, bc = libmp.from_rational(num, den, bits, mode)
        assert _round_rational(num, den, bits, mode) == ((-man if sign else man), exp)
        assert BigFloat.from_rational(num, den, bits, mode).value._mpf_ == (sign, man, exp, bc)

    @pytest.mark.parametrize("value,num,shift,expected", [
        (Fraction(3, 8), 3, 3, True),              # equal: exponent + shift = 0
        (Fraction(3, 8), 5, 4, False),             # 6/16 > 5/16
        (Fraction(3, 8), 3, 4, False),             # 3/8 > 3/16
        (Fraction(3, 1 << 40), 3, 40, True),       # equal
        (Fraction(3, 1 << 40), 5, 39, True),       # exponent + shift < 0
        (Fraction(3, 1 << 40), 5, 42, False),      # 12/2^42 > 5/2^42
        (Fraction(3, 1 << 40), 3, 41, False),      # 6/2^41 > 3/2^41
        (Fraction(3 << 20), 3 << 28, 8, True),     # equal: exponent + shift > 0
        (Fraction(3 << 20), (3 << 28) - 1, 8, False),
        (Fraction(0), 0, 100, True),
        (Fraction(-5, 4), -5, 2, True),
        (Fraction(-5, 4), -6, 2, False),
    ])
    def test_at_most_compares_with_a_dyadic_cap(self, value, num, shift, expected):
        bf = BigFloat.from_fraction(value, 64)
        assert bf.to_fraction() == value
        assert bf.at_most(num, shift) is expected

    @given(st.fractions(max_denominator=2**70), st.integers(-2**80, 2**80), st.integers(-80, 300))
    @settings(max_examples=200, deadline=None)
    def test_at_most_is_the_fraction_comparison(self, x, num, shift):
        bf = BigFloat.from_fraction(x, 53, "c")
        assert bf.at_most(num, shift) == (bf.to_fraction() <= Fraction(num) / Fraction(2) ** shift)
