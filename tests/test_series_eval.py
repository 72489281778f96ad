import random
import re
from fractions import Fraction
from itertools import islice, tee
from math import ceil, factorial, lcm, perm, prod

import mpmath
import pytest

from bosonbell.series_eval import (
    ConvergenceError,
    HyperParams,
    SeriesValue,
    TermBudgetError,
    bell_diag_egf_coefficient_check,
    bell_r1_hypergeometric_check,
    dobinski_bell,
    dobinski_gamma_form,
    dobinski_gamma_forms,
    dobinski_polynomial,
    dobinski_polynomials,
    egf_bell_r1_check,
    egf_stirling_diag_check,
    egf_stirling_r1_check,
    family_bell_check,
    hgf_check,
    hypergeometric,
    kummer_bell_check,
    laguerre_bell_check,
    laguerre_value,
)
from bosonbell import series_eval
from bosonbell.exact_core import (
    BigFloat,
    PowerSeries,
    series_binomial_power,
    series_exp,
    series_exp_linear,
)
from bosonbell.stirling_bell import (
    Params,
    bell_number,
    bell_polynomial,
    clear_perturbations,
    set_perturbation,
)

from _oracles import (
    dobinski_gamma_form_reference,
    dobinski_gamma_series,
    dobinski_polynomial_reference,
    dobinski_polynomial_series,
    exp_bounds_reference,
    hgf_outer_sum_reference,
    hyp_enclosure_reference,
    laguerre_value_reference,
    positive_series_stops,
)

TAIL_CAP_256 = Fraction(1, 2**200)


def _recorded_streams(monkeypatch):
    """A copy of every term stream passed to the certified loop, which
    reads its own copy: the test can drain a copy past where the sum stopped."""
    seen = []
    summing = series_eval._sum_series

    def recording(terms, *rest, **options):
        summed, kept = tee(terms)
        seen.append(kept)
        return summing(summed, *rest, **options)

    monkeypatch.setattr(series_eval, "_sum_series", recording)
    return seen


def _stop_calls(monkeypatch, stopping):
    """Every call of the stop rule, as (num, partial, den, rho_num,
    rho_den).  With ``stopping`` the rule decides as before; without it,
    no sum stops."""
    calls = []
    stop = series_eval._stop

    def recording(num, partial, den, rho_num, rho_den, bits, signed=False):
        calls.append((num, partial, den, rho_num, rho_den))
        return stop(num, partial, den, rho_num, rho_den, bits, signed) if stopping else None

    monkeypatch.setattr(series_eval, "_stop", recording)
    return calls


def _family_den(t, k):
    """The running denominator td^k k! that all members of a family share."""
    return t.denominator**k * factorial(k)


def _member_numerator(p, m, k, t, gamma):
    """The numerator of term k of member m of a family over the running
    denominator td^k k!, in closed form."""
    r, s = max(p.r, p.s), min(p.r, p.s)
    if gamma:
        return prod(k + j + i * (r - s) for j in range(1, s + 1) for i in range(1, m))
    return t.numerator**k * prod(perm(k + j * (r - s), s) for j in range(m))


def _members(calls, p, n_max, t, gamma):
    """The stop calls of one family run by member: {n: {k: call}} for n =
    1, ..., n_max, with k read from the running denominator td^k k! and n
    the one member whose closed-form numerator at k is the call's."""
    ks, k, top = {}, 0 if gamma else min(p.r, p.s), max(call[2] for call in calls)
    while _family_den(t, k) <= top:
        ks[_family_den(t, k)] = k
        k += 1
    members = {}
    for call in calls:
        k = ks[call[2]]
        ns = [m for m in range(1, n_max + 1) if _member_numerator(p, m, k, t, gamma) == call[0]]
        assert len(ns) == 1, (k, ns)
        terms = members.setdefault(ns[0], {})
        assert k not in terms
        terms[k] = call
    return members


def _member_streams(monkeypatch, p, n_max, t, gamma, count):
    """The (den_step, num, rho_num, rho_den) terms for which the family
    loop asks the stop rule, for each member n = 1, ..., n_max, with a stop
    rule that never stops: the sum runs until it has ``count`` + 1 terms
    of every member, from the first term the loop's screen passes on.  The
    partial sum handed over with each term is the exact one."""
    monkeypatch.setattr(series_eval, "_DOBINSKI_MAX_TERMS", 300 + count)
    calls = _stop_calls(monkeypatch, stopping=False)
    with pytest.raises(TermBudgetError):
        series_eval._dobinski_family(p, range(1, n_max + 1), t, gamma, 256)
    first = 0 if gamma else min(p.r, p.s)
    streams = {}
    for m, terms in _members(calls, p, n_max, t, gamma).items():
        ks = sorted(terms)
        assert ks == list(range(ks[0], ks[0] + len(ks))) and len(ks) > count, m  # every k once
        stream, partial = [], 0
        for k in range(first, ks[-1] + 1):
            num, step = _member_numerator(p, m, k, t, gamma), t.denominator * k
            partial = partial * step + num if k > first else num
            if k in terms:
                assert terms[k][:3] == (num, partial, _family_den(t, k)), (m, k)
                stream.append((step, num, *terms[k][3:]))
        streams[m] = iter(stream)
    return streams


def _assert_ratio_bounds_hold(stream, count):
    """Over ``count`` consecutive terms, rho(k) bounds |term(k+1)/term(k)|
    and does not increase."""
    tuples = list(islice(stream, count + 1))
    bounds = [Fraction(rho_num, rho_den) for _, _, rho_num, rho_den in tuples[:count]]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    for i, bound in enumerate(bounds):
        step, num = tuples[i + 1][:2]
        assert abs(Fraction(num, tuples[i][1] * step)) <= bound, i


class TestDobinskiBell:
    @pytest.mark.parametrize("r,s,n,expected", [
        (1, 1, 3, 5), (2, 1, 2, 3), (2, 2, 2, 7),
    ])
    def test_frozen_examples(self, r, s, n, expected):
        assert bell_number(Params(r, s), n) == expected
        sv = dobinski_bell(Params(r, s), n)
        assert sv.brackets(expected)
        assert sv.tail_bound.to_fraction() <= TAIL_CAP_256

    def test_brackets_exact_values_across_grid(self):
        for r in range(1, 4):
            for s in range(1, 4):
                p = Params(r, s)
                for n in range(1, 5):
                    assert dobinski_bell(p, n).brackets(bell_number(p, n))

    def test_monotone_refinement(self):
        p = Params(2, 2)
        sv = dobinski_bell(p, 3)
        finer = dobinski_bell(p, 3, precision=2 * sv.precision_bits)
        assert finer.terms_used > sv.terms_used
        assert finer.tail_bound.to_fraction() <= sv.tail_bound.to_fraction()

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            dobinski_bell(Params(1, 1), 0)

    def test_term_budget_exhaustion_reported(self, monkeypatch):
        monkeypatch.setattr(series_eval, "_DOBINSKI_MAX_TERMS", 5)
        with pytest.raises(TermBudgetError):
            dobinski_bell(Params(3, 3), 4)


class TestDobinskiGammaForm:
    @pytest.mark.parametrize("r,s,n,expected", [
        (2, 1, 2, 3), (3, 1, 1, 1),
    ])
    def test_frozen_examples(self, r, s, n, expected):
        sv = dobinski_gamma_form(Params(r, s), n)
        assert sv.brackets(expected)

    def test_matches_row_sum_example(self):
        assert dobinski_gamma_form(Params(3, 2), 2).brackets(bell_number(Params(3, 2), 2))

    def test_agrees_with_plain_series(self):
        for (r, s) in ((2, 1), (3, 1), (3, 2)):
            p = Params(r, s)
            for n in (1, 2, 3, 4):
                a = dobinski_bell(p, n)
                b = dobinski_gamma_form(p, n)
                gap = abs(a.value.to_fraction() - b.value.to_fraction())
                assert gap <= a.tail_bound.to_fraction() + b.tail_bound.to_fraction()

    def test_requires_r_above_s(self):
        with pytest.raises(ValueError):
            dobinski_gamma_form(Params(2, 2), 1)


class TestDobinskiPolynomial:
    @pytest.mark.parametrize("r,s,n,t,expected", [
        (1, 1, 2, Fraction(1), 2),
        (1, 1, 2, Fraction(1, 2), Fraction(3, 4)),
        (2, 2, 1, Fraction(1), 1),
    ])
    def test_frozen_examples(self, r, s, n, t, expected):
        assert bell_polynomial(Params(r, s), n, t) == expected
        assert dobinski_polynomial(Params(r, s), n, t).brackets(expected)

    def test_brackets_polynomials_at_several_weights(self):
        for (r, s) in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
            p = Params(r, s)
            for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
                for n in (1, 2, 3):
                    sv = dobinski_polynomial(p, n, t)
                    assert sv.brackets(bell_polynomial(p, n, t))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            dobinski_polynomial(Params(1, 1), 1, 0)


class TestDobinskiTermStreams:
    """The numerators of every member of a family against their closed
    forms, and each member's ratio bound against the terms it must bound,
    over 200 terms from the first that the family's screen passes to the
    stop rule."""

    @pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    @pytest.mark.parametrize("r,s,n", [
        (1, 1, 3), (2, 2, 2), (3, 3, 4),   # r - s = 0
        (2, 1, 3), (1, 2, 2),              # r - s = 1
        (3, 1, 4), (1, 3, 3),              # r - s = 2
        (5, 2, 2),
    ])
    def test_weighted_series(self, monkeypatch, r, s, n, t):
        p = Params(r, s)
        for m, sv in enumerate(dobinski_polynomials(p, n, t), 1):
            assert sv.brackets(bell_polynomial(p, m, t))
        streams = _member_streams(monkeypatch, p, n, t, False, 200)
        assert sorted(streams) == list(range(1, n + 1))
        for stream in streams.values():
            _assert_ratio_bounds_hold(stream, 200)

    @pytest.mark.parametrize("r,s,n", [(2, 1, 1), (2, 1, 3), (3, 2, 2), (3, 1, 4), (5, 2, 3)])
    def test_gamma_form(self, monkeypatch, r, s, n):
        p = Params(r, s)
        for m, sv in enumerate(dobinski_gamma_forms(p, n), 1):
            assert sv.brackets(bell_number(p, m))
        streams = _member_streams(monkeypatch, p, n, Fraction(1), True, 200)
        assert sorted(streams) == list(range(1, n + 1))
        for stream in streams.values():
            _assert_ratio_bounds_hold(stream, 200)


class TestHypergeometric:
    def test_kummer_value_is_e_minus_one(self):
        sv = hypergeometric(HyperParams(upper=(1,), lower=(2,), argument=Fraction(1)))
        with mpmath.workprec(300):
            assert abs(sv.value.value - (mpmath.e - 1)) < mpmath.mpf(2) ** -250

    @pytest.mark.parametrize("upper,lower", [((1,), (2,)), ((Fraction(1, 2), 3), (Fraction(5, 2),))])
    def test_argument_zero_gives_one(self, upper, lower):
        sv = hypergeometric(HyperParams(upper=upper, lower=lower, argument=Fraction(0)))
        assert sv.value.to_fraction() == 1

    def test_argument_zero_ends_at_the_first_zero_term(self):
        # a negative non-integer lower parameter puts m_start past term 1, where
        # rho is 1; the zero term 1 still ends the sum, exactly
        sv = hypergeometric(HyperParams((Fraction(-7, 2),), (Fraction(-5, 2),), Fraction(0)))
        assert sv.value.to_fraction() == 1 and sv.tail_bound.to_fraction() == 0
        assert sv.terms_used == 2

    def test_argument_zero_fits_a_two_term_budget(self, monkeypatch):
        monkeypatch.setattr(series_eval, "_HYP_MAX_TERMS", 2)
        h = HyperParams((), (Fraction(-2, 5), Fraction(-1, 3), 1), Fraction(0))
        sv = hypergeometric(h)
        assert sv.value.to_fraction() == 1 and sv.terms_used == 2

    def test_gauss_value_two_log_two(self):
        sv = hypergeometric(HyperParams(upper=(1, 1), lower=(2,), argument=Fraction(1, 2)))
        with mpmath.workprec(300):
            assert abs(sv.value.value - 2 * mpmath.log(2)) < mpmath.mpf(2) ** -250

    def test_terminating_series_is_exact(self):
        # 2F1(-2, 1; 1; x) = (1-x)^2; only the final rounding separates
        # the reported value from the exact rational
        x = Fraction(2, 7)
        sv = hypergeometric(HyperParams(upper=(-2, 1), lower=(1,), argument=x))
        assert sv.brackets((1 - x) ** 2)
        assert sv.tail_bound.to_fraction() <= Fraction(1, 2**250)
        assert sv.terms_used == 4

    def test_divergent_argument_rejected(self):
        with pytest.raises(ConvergenceError, match="needs [|]x[|] < 1, got 3/2"):
            HyperParams(upper=(1, 1), lower=(2,), argument=Fraction(3, 2))
        with pytest.raises(ConvergenceError, match="p > q[+]1 diverges"):
            HyperParams(upper=(1, 1, 1), lower=(2,), argument=Fraction(1, 2))

    def test_bad_lower_parameter_rejected(self):
        with pytest.raises(ValueError):
            HyperParams(upper=(1,), lower=(0,), argument=Fraction(1, 2))

    @pytest.mark.parametrize("lower", [-2, 0])
    def test_a_combination_part_passes_the_lower_guard(self, lower):
        # each part of a closed-form check is a HyperParams, so it is refused
        # before the screen takes the log of a zero factor
        with pytest.raises(ValueError, match=f"^lower parameter {lower} is a nonpositive integer$"):
            series_eval._hyp_combination([((1,), (lower,), 1)], Fraction(1), 64)


class TestLaguerre:
    def test_polynomial_values(self):
        assert laguerre_value(0, 1, -1) == 1
        assert laguerre_value(1, 1, -1) == 3   # L^(1)_1(y) = 2 - y
        assert laguerre_value(2, 1, -1) == Fraction(13, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_low_order_identity(self, n):
        assert laguerre_bell_check(n)

    def test_identity_to_twenty(self):
        assert all(laguerre_bell_check(n) for n in range(1, 21))

    def test_integer_recurrence_equals_the_fraction_recurrence(self):
        # degrees 0-40 at seeded rational alpha and y of either sign, with
        # denominators that share factors with each other and with m
        rng = random.Random(35)
        rationals = [Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 7, 12, 35)))
                     for _ in range(24)]
        for degree in range(41):
            for _ in range(6):
                alpha, y = rng.choice(rationals), rng.choice(rationals)
                got = laguerre_value(degree, alpha, y)
                assert type(got) is Fraction
                assert got == laguerre_value_reference(degree, alpha, y), (degree, alpha, y)

    @pytest.mark.parametrize("alpha", [-1, -2, -5, Fraction(-7, 3)])
    @pytest.mark.parametrize("y", [0, 1, -1, Fraction(5, 2), Fraction(-3, 4)])
    def test_where_m_plus_alpha_vanishes(self, alpha, y):
        # at a negative-integer alpha the term (m + alpha) L_{m-1} drops out
        # at m = -alpha; alpha = -1 and y = 0 make L_1 = 0
        for degree in range(41):
            assert laguerre_value(degree, alpha, y) == laguerre_value_reference(degree, alpha, y)

    def test_alpha_minus_one_at_zero(self):
        # L^(-1)_n(0) = C(n - 1, n) is 1 at n = 0 and 0 after
        assert [laguerre_value(n, -1, 0) for n in range(6)] == [1, 0, 0, 0, 0, 0]


class TestKummerAndFamily:
    @pytest.mark.parametrize("r,n", [(1, 1), (1, 2), (2, 2), (2, 4)])
    def test_kummer(self, r, n):
        assert kummer_bell_check(r, n)

    @pytest.mark.parametrize("p,r,n", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 1, 3), (2, 2, 2)])
    def test_family(self, p, r, n):
        assert family_bell_check(p, r, n)

    @pytest.mark.parametrize("r,n", [(2, 3), (3, 2), (3, 5), (4, 2), (4, 4), (5, 3), (6, 2)])
    def test_r1_combinations(self, r, n):
        assert bell_r1_hypergeometric_check(r, n)

    def test_r1_combination_needs_r_at_least_two(self):
        with pytest.raises(ValueError, match="r >= 2"):
            bell_r1_hypergeometric_check(1, 2)


class TestEgf:
    def test_bell_r1_classical(self):
        assert egf_bell_r1_check(1, 5)

    def test_bell_r1_lah(self):
        assert egf_bell_r1_check(2, 6)

    def test_bell_r1_r3(self):
        assert egf_bell_r1_check(3, 6)

    @pytest.mark.parametrize("r,k", [(1, 2), (2, 2), (2, 3), (2, 4)])
    def test_stirling_diag_columns(self, r, k):
        assert egf_stirling_diag_check(r, k, 6)

    @pytest.mark.parametrize("r,k", [(2, 1), (2, 2), (2, 3), (3, 2)])
    def test_stirling_r1_columns_with_kth_power(self, r, k):
        assert egf_stirling_r1_check(r, k, 6)

    @pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 2)])
    def test_diag_coefficient_identity(self, r, n):
        assert bell_diag_egf_coefficient_check(r, n)

    # The verify suite runs its egf cases at order 6 only; at order 60 the
    # integer numerators of the products and of exp run to thousands of bits.
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_bell_r1_suite_cases_at_order_60(self, r):
        assert egf_bell_r1_check(r, 60)

    @pytest.mark.parametrize("r,k", [(r, k) for r in (1, 2) for k in range(r, 5)])
    def test_stirling_diag_suite_cases_at_order_60(self, r, k):
        assert egf_stirling_diag_check(r, k, 60)

    @pytest.mark.parametrize("r,k", [(r, k) for r in (2, 3) for k in (1, 2, 3)])
    def test_stirling_r1_suite_cases_at_order_60(self, r, k):
        assert egf_stirling_r1_check(r, k, 60)

    def test_stirling_r1_catches_a_corrupted_entry_at_order_40(self):
        try:
            set_perturbation(Params(2, 1), 40, 3, 1)
            assert not egf_stirling_r1_check(2, 3, 40)
        finally:
            clear_perturbations()
        assert egf_stirling_r1_check(2, 3, 40)


# hgf pairs other than (3, 2) and (2s, s), swapped ones included
NEW_PAIRS = [(3, 1), (4, 3), (5, 2), (5, 3), (1, 2), (2, 3)]
# r = s: the inner sums are entire, so G_{r,r} has no radius
EQUAL_PAIRS = [(1, 1), (2, 2), (3, 3)]


def _radius(r, s):
    """The convergence radius 1/d^s of G_{r,s}, s the smaller index."""
    return Fraction(1, abs(r - s) ** min(r, s))


def _hgf_truncation(r, s, lam, order):
    """The degree-``order`` truncation of G_{r,s}(lam): B_{r,s}(n)/(n!)^t
    lam^n/n! summed, t = min(r, s) - 1, B(0) = 1."""
    t = min(r, s) - 1
    return 1 + sum(Fraction(bell_number(Params(r, s), n), factorial(n) ** (t + 1)) * lam**n
                   for n in range(1, order + 1))


class TestHgf:
    def test_lambda_zero_gives_one_on_both_sides(self):
        res = hgf_check(3, 2, Fraction(0), 8)
        assert res.ok
        assert res.rhs_exact == 1
        assert abs(res.lhs.value.to_fraction() - 1) <= res.lhs.tail_bound.to_fraction()

    @pytest.mark.parametrize("r,s,lam", [
        (3, 2, Fraction(1, 5)),
        (3, 2, Fraction(1, 20)),
        (4, 2, Fraction(1, 20)),
        (4, 2, Fraction(1, 50)),
    ] + [(r, s, f * _radius(r, s)) for r, s in NEW_PAIRS for f in (Fraction(1, 5), Fraction(9, 10))]
      + [(r, r, lam) for r, _ in EQUAL_PAIRS for lam in (Fraction(1, 5), Fraction(1, 2), Fraction(2))])
    def test_routes_agree_at_order_twelve(self, r, s, lam):
        res = hgf_check(r, s, lam, 12)
        assert res.ok
        assert res.lhs.tail_bound.to_fraction() <= Fraction(1, 10**15)
        assert res.difference.to_fraction() <= Fraction(1, 10**15)

    def test_general_diagonal_family(self):
        res = hgf_check(6, 3, Fraction(1, 135), 6)
        assert res.ok

    def test_lah_egf_family(self):
        # (2, 1) is the r' = 1 member: a plain egf with 1F0 inner sums
        res = hgf_check(2, 1, Fraction(1, 5), 10)
        assert res.ok and res.rhs_exact == 1 + sum(
            Fraction(bell_number(Params(2, 1), n), factorial(n)) * Fraction(1, 5)**n
            for n in range(1, 11))

    def test_divergent_lambda_rejected(self):
        with pytest.raises(ConvergenceError):
            hgf_check(3, 2, Fraction(2), 6)
        with pytest.raises(ConvergenceError):
            hgf_check(4, 2, Fraction(1, 3), 6)
        for r, s in [(5, 2), (2, 5), (4, 3), (3, 1)]:
            with pytest.raises(ConvergenceError):
                hgf_check(r, s, _radius(r, s), 4)

    @pytest.mark.parametrize("r", [1, 2])
    def test_equal_indices_have_no_radius(self, r):
        # d = r - s = 0: the inner sums are entire 0F(r-1) functions, so
        # lambda may be as large as the exact side can be summed
        for lam in (Fraction(1, 100), Fraction(10), Fraction(1000)):
            res = hgf_check(r, r, lam, 4)
            assert res.ok and res.rhs_exact == _hgf_truncation(r, r, lam, 4), lam

    def test_one_one_matches_the_bell_egf(self):
        """G_{1,1} is exp(e^x - 1), the egf of the Bell numbers, at x = lambda."""
        order = 12
        egf = series_exp(series_exp_linear(1, order) - PowerSeries.one(order))
        for lam in (Fraction(1, 5), Fraction(2), Fraction(10)):
            truncation = sum(egf.coeff(n) * lam**n for n in range(order + 1))
            res = hgf_check(1, 1, lam, order)
            assert res.rhs_exact == truncation, lam
            assert res.ok and res.lhs.brackets(truncation), lam

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            hgf_check(3, 2, Fraction(-1, 5), 4)

    def test_precision_below_floor_rejected(self):
        with pytest.raises(ValueError):
            hgf_check(3, 2, Fraction(1, 5), 4, precision=8)

    def test_order_zero_reduces_to_the_convention_constant(self):
        res = hgf_check(4, 2, Fraction(1, 30), 0)
        assert res.ok and res.rhs_exact == 1

    @pytest.mark.parametrize("r,s", [(3, 2)] + NEW_PAIRS)
    @pytest.mark.parametrize("f", [Fraction(9, 10), Fraction(99, 100)])
    def test_near_the_radius(self, r, s, f):
        res = hgf_check(r, s, f * _radius(r, s), 12)
        assert res.ok and res.lhs.terms_used <= 100

    def test_outer_budget_raises(self, monkeypatch):
        monkeypatch.setattr(series_eval, "_HGF_MAX_OUTER", 5)
        with pytest.raises(TermBudgetError):
            hgf_check(3, 2, Fraction(1, 5), 12)

    @pytest.mark.parametrize("r,s", [(3, 2), (2, 1), (4, 2), (6, 3), (3, 1), (4, 3), (5, 2),
                                     *EQUAL_PAIRS])
    def test_growth_bounds_every_inner_ratio(self, monkeypatch, r, s):
        d = r - s

        def u(k, m):
            # u_m(k) without its lambda^m, which cancels in u_m(k+1)/u_m(k)
            return Fraction(prod(k + s - i + j * d for i in range(s) for j in range(m)),
                            factorial(m) ** s)

        seen = _recorded_streams(monkeypatch)
        for M in range(1, 13):
            hgf_check(r, s, _radius(r, s) / 10 if d else Fraction(1, 10), M, precision=16)
            # the k-series is summed first; its rho is the growth bound over k+s+1
            tuples = list(islice(seen[0], 41))
            seen.clear()
            bounds = [Fraction(rho_num, rho_den) * (k + s + 1)
                      for k, (*_, rho_num, rho_den) in enumerate(tuples)]
            assert all(a >= b for a, b in zip(bounds, bounds[1:])), M
            for k, bound in enumerate(bounds):
                ratios = [u(k + 1, m) / u(k, m) for m in range(1, M + 1)]
                assert max(ratios) <= bound and ratios[-1] == bound, (M, k)

    def test_s_one_matches_the_closed_form_egf(self):
        """For s = 1 the inner sums are (1 - d lambda)^(-k/d), so G_{r,1} is
        exp((1 - (r-1)x)^(-1/(r-1)) - 1), the B_{r,1} egf, at x = lambda."""
        for r in (2, 3, 4):
            lam, order = Fraction(9, 10 * (r - 1)), 12
            inner = series_binomial_power(Fraction(-1, r - 1), Fraction(r - 1), order) \
                - PowerSeries.one(order)
            egf = series_exp(inner)
            truncation = sum(egf.coeff(n) * lam**n for n in range(order + 1))
            res = hgf_check(r, 1, lam, order)
            assert res.rhs_exact == truncation, r
            assert res.ok and res.lhs.brackets(truncation), r

    @pytest.mark.parametrize("r,s,lam,order", [
        (3, 2, Fraction(1, 5), 12), (4, 2, Fraction(1, 20), 12),
        (2, 1, Fraction(1, 5), 10), (6, 3, Fraction(1, 135), 6),
        (3, 1, Fraction(9, 20), 12), (4, 3, Fraction(9, 10), 12), (5, 2, Fraction(1, 10), 12),
        (1, 1, Fraction(2), 12), (2, 2, Fraction(1, 5), 12), (3, 3, Fraction(10), 8),
    ])
    def test_outer_ratio_bound_holds_for_the_summed_terms(self, monkeypatch, r, s, lam, order):
        """Every series hgf_check sums, its k-series and that of e, gets a
        ratio bound that holds for its terms and does not increase."""
        seen = _recorded_streams(monkeypatch)
        series_eval._exp_bounds.cache_clear()
        assert hgf_check(r, s, lam, order).ok
        assert len(seen) == 2
        for stream in seen:
            _assert_ratio_bounds_hold(stream, 41)


PRECISIONS = (16, 256, 4096)


def _outcome(fn, *args):
    """The result of fn(*args), or the builtin base class and message of
    what it raised: TermBudgetError is a RuntimeError and ConvergenceError
    a ValueError, as the reference loops raise them."""
    try:
        return fn(*args)
    except (RuntimeError, ValueError) as exc:
        return (RuntimeError if isinstance(exc, RuntimeError) else ValueError), str(exc)


def _ends(outcome):
    """A SeriesValue as its exact enclosure ends and terms used, as the
    reference loops return them; an error outcome as it is."""
    if isinstance(outcome, SeriesValue):
        return outcome.interval.lo, outcome.interval.hi, outcome.terms_used
    return outcome


class TestAgainstFractionLoops:
    """The running-denominator loops stop where the per-term Fraction loops
    stopped, with the same exact endpoints, or raise the same error."""

    HYPER_CASES = [
        ((1,), (2,), Fraction(-3), 100_000),                                # x < 0
        ((1, 1), (2,), Fraction(-1, 2), 100_000),                           # alternating 2F1
        ((Fraction(1, 3),), (Fraction(-1, 2),), Fraction(3, 4), 100_000),   # lower -1/2
        ((2,), (Fraction(-5, 3),), Fraction(-2, 5), 100_000),               # lower -5/3, x < 0
        ((Fraction(-5, 2), 1), (Fraction(-5, 3), Fraction(1, 2)), Fraction(-4, 5), 100_000),
        ((-3, Fraction(1, 2)), (Fraction(-1, 2),), Fraction(7, 3), 100_000),  # terminating
        ((-4,), (Fraction(5, 2),), Fraction(-3), 100_000),                  # terminating, x < 0
        ((1,), (2,), Fraction(1), 5),                                       # small max_terms
        ((Fraction(1, 2),), (Fraction(-1, 2),), Fraction(-1), 8),          # small max_terms
        ((1, 1), (2,), Fraction(3, 2), 100_000),                            # divergent
        ((1,), (2,), Fraction(0), 5),                                       # x = 0: rho 0 stops at once
        ((Fraction(1, 3),), (Fraction(-1, 2),), Fraction(0), 5),            # x = 0 below m_start
    ]

    @pytest.mark.parametrize("bits", PRECISIONS)
    @pytest.mark.parametrize("uppers,lowers,x,max_terms", HYPER_CASES)
    def test_hypergeometric(self, monkeypatch, uppers, lowers, x, max_terms, bits):
        monkeypatch.setattr(series_eval, "_HYP_MAX_TERMS", max_terms)
        got = _ends(_outcome(lambda: hypergeometric(HyperParams(uppers, lowers, x), bits)))
        want = _outcome(hyp_enclosure_reference, uppers, lowers, x, bits, max_terms)
        assert got == want
        if want[0] is ValueError:
            # a divergent series is refused when its parameters are built
            with pytest.raises(ConvergenceError, match=re.escape(want[1])):
                HyperParams(uppers, lowers, x)

    DOBINSKI_CASES = [
        (1, 1, 3), (2, 1, 3), (1, 2, 2), (3, 2, 2), (3, 3, 4), (3, 1, 4), (1, 3, 3), (5, 2, 2),
    ]

    @pytest.mark.parametrize("r,s,n", DOBINSKI_CASES)
    @pytest.mark.parametrize("bits,max_terms", [
        (16, 200_000), (256, 200_000), (4096, 200_000), (256, 5),
    ])
    def test_dobinski(self, monkeypatch, r, s, n, max_terms, bits):
        monkeypatch.setattr(series_eval, "_DOBINSKI_MAX_TERMS", max_terms)
        # families n = 1..n where the budget cuts the loop short;
        # TestDobinskiFamilies covers the rest against single calls
        cut = max_terms < 200_000
        p = Params(r, s)
        got = _ends(_outcome(dobinski_bell, p, n, bits))
        assert got == _outcome(dobinski_polynomial_reference, r, s, n, 1, bits, max_terms)
        for t in (Fraction(1, 3), Fraction(5, 2)):
            got = _ends(_outcome(dobinski_polynomial, p, n, t, bits))
            assert got == _outcome(dobinski_polynomial_reference, r, s, n, t, bits, max_terms)
            if cut:
                self._assert_family_matches(
                    _outcome(dobinski_polynomials, p, n, t, bits),
                    [_outcome(dobinski_polynomial_reference, r, s, m, t, bits, max_terms)
                     for m in range(1, n + 1)])
        if r > s:
            got = _ends(_outcome(dobinski_gamma_form, p, n, bits))
            assert got == _outcome(dobinski_gamma_form_reference, r, s, n, bits, max_terms)
            if cut:
                self._assert_family_matches(
                    _outcome(dobinski_gamma_forms, p, n, bits),
                    [_outcome(dobinski_gamma_form_reference, r, s, m, bits, max_terms)
                     for m in range(1, n + 1)])

    @pytest.mark.parametrize("r,s,n", DOBINSKI_CASES)
    @pytest.mark.parametrize("bits", PRECISIONS)
    def test_the_dobinski_screen_skips_no_stop(self, monkeypatch, r, s, n, bits):
        """Every term that a family's screen keeps from the stop rule, up
        to each member's stop, fails the Fraction stop test."""
        p = Params(r, s)
        families = [(t, False) for t in (Fraction(1, 3), Fraction(1), Fraction(5, 2))]
        if r > s:
            families.append((Fraction(1), True))
        calls, skipped = _stop_calls(monkeypatch, stopping=True), 0
        for t, gamma in families:
            series_eval._exp_bounds(t, bits)  # summed before, so its stop calls are not recorded
            calls.clear()
            series_eval._dobinski_family(p, range(1, n + 1), t, gamma, bits)
            members = _members(calls, p, n, t, gamma)
            assert sorted(members) == list(range(1, n + 1))
            for m, asked in members.items():
                term, ratio_bound, first = (dobinski_gamma_series(r, s, m) if gamma
                                            else dobinski_polynomial_series(r, s, m, t))
                partial = Fraction(0)
                for k in range(first, max(asked) + 1):
                    partial += term(k)
                    if k not in asked:
                        skipped += 1
                        assert not positive_series_stops(partial, term(k), ratio_bound(k), bits), \
                            (t, m, k)
        assert skipped

    @staticmethod
    def _assert_family_matches(got, references):
        """A family's members against their references, or the error of
        the first member that raised (all budget errors read alike)."""
        errors = [ref for ref in references if ref[0] in (RuntimeError, ValueError)]
        if errors:
            assert got == errors[0]
        else:
            assert [_ends(sv) for sv in got] == references

    @pytest.mark.parametrize("bits", PRECISIONS)
    @pytest.mark.parametrize("r,s,lam,order", [
        (3, 2, Fraction(1, 5), 12), (4, 2, Fraction(1, 50), 12),
        (2, 1, Fraction(1, 5), 10), (6, 3, Fraction(1, 135), 6),
        (3, 1, Fraction(9, 20), 12), (4, 3, Fraction(9, 10), 12), (5, 2, Fraction(1, 10), 12),
    ])
    def test_hgf_inner_sums(self, r, s, lam, order, bits):
        res = hgf_check(r, s, lam, order, precision=bits)
        acc = hgf_outer_sum_reference(r, s, lam, order, res.lhs.terms_used - 1)
        assert res.lhs.interval.lo == acc / exp_bounds_reference(1, bits)[1] + 1
        assert res.ok
        assert res.rhs_exact == _hgf_truncation(r, s, lam, order)


def _bits_of(sv):
    iv = sv.interval
    return (sv.value.value._mpf_, sv.tail_bound.value._mpf_, sv.terms_used, sv.precision_bits,
            iv.lo_num, iv.hi_num, iv.den)


class TestDobinskiFamilies:
    """Every member of a family summed in one pass over k equals its
    one-member call bit for bit: value, tail bound, terms used, and the
    integers of the exact enclosure the verdicts read."""

    @staticmethod
    def _assert_members_are_single_calls(family_call, single_call, ns):
        singles = [single_call(n) for n in ns]
        assert [_bits_of(sv) for sv in family_call()] == [_bits_of(sv) for sv in singles]
        return singles

    @pytest.mark.parametrize("bits", PRECISIONS)
    @pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1), Fraction(5, 2)])
    @pytest.mark.parametrize("r,s", [(r, s) for r in (1, 2, 3) for s in (1, 2, 3)])
    def test_weighted_members(self, r, s, t, bits):
        p = Params(r, s)
        singles = self._assert_members_are_single_calls(
            lambda: dobinski_polynomials(p, 6, t, bits),
            lambda n: dobinski_polynomial(p, n, t, bits), range(1, 7))
        # a family sums only the members asked for, in the order asked
        for ns in ((2,), (5,), (5, 2)):
            got = series_eval._dobinski_family(p, ns, t, False, bits)
            assert [_bits_of(sv) for sv in got] == [_bits_of(singles[n - 1]) for n in ns]
        if t == 1:
            assert [_bits_of(dobinski_bell(p, n, bits)) for n in range(1, 7)] == \
                [_bits_of(sv) for sv in singles]

    @pytest.mark.parametrize("bits", PRECISIONS)
    @pytest.mark.parametrize("r,s", [(2, 1), (3, 1), (3, 2)])
    def test_gamma_members(self, r, s, bits):
        p = Params(r, s)
        singles = self._assert_members_are_single_calls(
            lambda: dobinski_gamma_forms(p, 6, bits),
            lambda n: dobinski_gamma_form(p, n, bits), range(1, 7))
        for ns in ((2,), (5,), (5, 2)):
            got = series_eval._dobinski_family(p, ns, Fraction(1), True, bits)
            assert [_bits_of(sv) for sv in got] == [_bits_of(singles[n - 1]) for n in ns]

    def test_family_sizes_and_arguments_are_checked(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            dobinski_polynomials(Params(1, 1), 0, 1)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            dobinski_gamma_forms(Params(2, 1), 0)
        with pytest.raises(ValueError, match="t must be positive"):
            dobinski_polynomials(Params(1, 1), 3, 0)
        with pytest.raises(ValueError, match="requires r > s"):
            dobinski_gamma_forms(Params(1, 2), 3)

    def test_a_member_past_the_budget_fails_the_family(self, monkeypatch):
        # B_(1,1)(1) at 16 bits stops within 12 terms and B_(1,1)(6) does not
        monkeypatch.setattr(series_eval, "_DOBINSKI_MAX_TERMS", 12)
        assert dobinski_bell(Params(1, 1), 1, 16).terms_used <= 12
        with pytest.raises(TermBudgetError, match="more than 12 terms"):
            dobinski_polynomials(Params(1, 1), 6, 1, 16)


def _factor_stream(uppers, lowers, x, count):
    """The first ``count`` (p, q, rho_num, rho_den) of a pFq: term(m+1) =
    term(m) p/q, and the ratio bound rho of term m."""
    uppers, lowers = tuple(map(Fraction, uppers)), tuple(map(Fraction, lowers))
    terminating = any(a <= 0 and a.denominator == 1 for a in uppers)
    factor, rho = series_eval._hyp_ratio(uppers, lowers, Fraction(x), terminating)
    return [factor(m) + rho(m) for m in range(count)]


class TestHypergeometricTermStreams:
    """The factor stream of each pFq case of TestAgainstFractionLoops, 200
    terms on."""

    CASES = [(uppers, lowers, x) for uppers, lowers, x, _ in TestAgainstFractionLoops.HYPER_CASES
             if x != 0 and not any(Fraction(a) <= 0 and Fraction(a).denominator == 1 for a in uppers)
             and not (len(uppers) == len(lowers) + 1 and abs(x) >= 1)]

    @pytest.mark.parametrize("uppers,lowers,x", CASES)
    def test_ratio_bounds(self, uppers, lowers, x):
        """Each convergent non-terminating case with x != 0: rho is 1 below
        m_start and from there on bounds |p/q| = |term(m+1)/term(m)| and
        does not increase."""
        factors = _factor_stream(uppers, lowers, x, 200)
        # below m_start some a + m or b + m may be negative: rho bounds nothing
        m_start = max([0] + [ceil(-Fraction(a)) for a in uppers]
                      + [ceil(1 - Fraction(b)) for b in lowers + (1,)])
        assert all(rho_num == rho_den for *_, rho_num, rho_den in factors[:m_start])
        bounds = [Fraction(rho_num, rho_den) for *_, rho_num, rho_den in factors[m_start:]]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        for (p, q, *_), bound in zip(factors[m_start:], bounds):
            assert abs(Fraction(p, q)) <= bound

    @pytest.mark.parametrize("uppers,lowers,x,_", TestAgainstFractionLoops.HYPER_CASES)
    def test_factors_and_the_screen_premise(self, uppers, lowers, x, _):
        """Every case: p/q is the term ratio x prod (a+m) / ((m+1) prod (b+m))
        with q > 0, and wherever rho < 1, rho >= |p/q|, the premise on which
        the screen skips a term."""
        for m, (p, q, rho_num, rho_den) in enumerate(_factor_stream(uppers, lowers, x, 200)):
            ratio = Fraction(x, m + 1) * prod(Fraction(a) + m for a in uppers) \
                / prod(Fraction(b) + m for b in lowers)
            assert q > 0 and Fraction(p, q) == ratio, m
            if rho_num < rho_den:
                assert rho_num * q >= abs(p) * rho_den, m


def _hyp_outcome(uppers, lowers, x, bits):
    """(lo, hi, terms_used) of the package's pFq enclosure, or its error."""
    def ends():
        iv, used = series_eval._hyp_enclosure(HyperParams(uppers, lowers, x), bits)
        return iv.lo, iv.hi, used
    return _outcome(ends)


def _random_hyper_cases(count, seed):
    """Seeded pFq cases: 0-3 lowers, up to one upper more, parameters of
    either sign (integer uppers <= 0 terminate), x = 0, |x| < 1 for
    p = q + 1, up to |x| = 1200 otherwise, and budgets from 1 term up."""
    rng = random.Random(seed)

    def param():
        return Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 4, 5, 7)))

    cases = []
    while len(cases) < count:
        q = rng.randint(0, 3)
        uppers = tuple(param() for _ in range(rng.randint(0, q + 1)))
        lowers = tuple(b for b in (param() for _ in range(q)) if b > 0 or b.denominator > 1)
        roll = rng.random()
        if roll < 0.05:
            x = Fraction(0)
        elif len(uppers) == len(lowers) + 1:
            x = Fraction(rng.randint(-19, 19), 20)
        elif roll < 0.1:
            x = Fraction(rng.randint(-1200, 1200), rng.choice((1, 3)))
        else:
            x = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 16)))
        bits = rng.choice((16, 17, 31, 64, 100, 256, 512, 1024))
        budget = rng.choice((1, 2, 3, 10, 50) + (100_000,) * 4)
        cases.append((uppers, lowers, x, bits, budget))
    return cases


class TestHypergeometricSplit:
    """The screen, the binary split and the hand-over to the certified loop
    against the Fraction loop: the same ends, the same terms_used, or the
    same error type and message."""

    GAUSS = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(5, 2),))
    CASES = [
        GAUSS + (Fraction(1, 2), 1024),                     # 1005 terms
        GAUSS + (Fraction(1, 4), 2048),                     # 1014 terms
        ((1,), (2,), Fraction(-40), 256),                   # signed, heavy cancellation
        ((1,), (1,), Fraction(710), 64),                    # terms past 2^1000 from m = 579
        ((-100, -100), (), Fraction(1024), 64),             # terminating, terms past 2^1000
        ((-4,), (Fraction(5, 2),), Fraction(-3), 64),       # terminating, signed
        ((Fraction(1, 3),), (Fraction(-1, 2),), Fraction(3, 4), 64),  # m_start = 2
        ((1,), (2,), Fraction(0), 64),                      # x = 0
        ((Fraction(1, 3),), (Fraction(-1, 2),), Fraction(0), 64),     # x = 0 below m_start
    ]

    @pytest.fixture
    def starts(self, monkeypatch):
        """The start state that each pFq hands to the certified loop."""
        seen = []
        summing = series_eval._sum_series

        def recording(terms, *rest, **options):
            seen.append(options["start"])
            return summing(terms, *rest, **options)

        monkeypatch.setattr(series_eval, "_sum_series", recording)
        return seen

    @pytest.mark.parametrize("uppers,lowers,x,bits", CASES)
    def test_matches_the_fraction_loop(self, uppers, lowers, x, bits):
        assert _hyp_outcome(uppers, lowers, x, bits) \
            == _outcome(hyp_enclosure_reference, uppers, lowers, x, bits, 100_000)

    @pytest.mark.parametrize("uppers,lowers,x,bits,handed_over", [
        (*GAUSS, Fraction(1, 2), 1024, 998),
        (*GAUSS, Fraction(1, 4), 2048, 1011),
        ((1,), (1,), Fraction(710), 64, 579),   # the first term past 2^1000
        ((-4,), (Fraction(5, 2),), Fraction(-3), 64, 4),  # the zero factor
        ((1,), (2,), Fraction(0), 64, 0),
    ])
    def test_where_the_screen_hands_over(self, starts, uppers, lowers, x, bits, handed_over):
        """The screen leaves the long sums' last few terms to the certified
        loop, and a sum past 2^1000 or with a zero factor from there on."""
        series_eval._hyp_enclosure(HyperParams(uppers, lowers, x), bits)
        [(partial, den, used)] = starts
        assert used == handed_over
        assert (partial, den) == _running_sum(uppers, lowers, x, used)

    def test_every_skipped_term_is_ruled_out_by_the_pre_test(self, starts, monkeypatch):
        """The screen skips a term only where the certified loop's pre-test
        rules it out: term j < the hand-over index with rho < 1 has
        bl(|num|) + bl(rho_num) + bits + 7 > bl(big) + bl(gap)."""
        cases = [case + (100_000,) for case in self.CASES] + _random_hyper_cases(300, 29)
        skipped = 0
        for uppers, lowers, x, bits, budget in cases:
            monkeypatch.setattr(series_eval, "_HYP_MAX_TERMS", budget)
            starts.clear()
            _hyp_outcome(uppers, lowers, x, bits)
            if not starts:
                continue  # a divergent argument: nothing was summed
            [(_, _, handed_over)] = starts
            partial, den, num, step = 0, 1, 1, 1
            for p, q, rho_num, rho_den in _factor_stream(uppers, lowers, x, handed_over):
                partial, den = partial * step + num, den * step
                if rho_num < rho_den:
                    big, gap = max(abs(partial), den), rho_den - rho_num
                    assert num and rho_num
                    assert abs(num).bit_length() + rho_num.bit_length() + bits + 7 \
                        > big.bit_length() + gap.bit_length(), (uppers, lowers, x, bits)
                    skipped += 1
                num, step = num * p, q
        assert skipped > 10_000

    @pytest.mark.parametrize("max_terms", [1005, 1004])
    def test_a_budget_at_the_stop_index(self, monkeypatch, max_terms):
        # the 1024-bit Gauss sum stops at term 1005
        monkeypatch.setattr(series_eval, "_HYP_MAX_TERMS", max_terms)
        case = self.GAUSS + (Fraction(1, 2), 1024)
        got = _hyp_outcome(*case)
        assert got == _outcome(hyp_enclosure_reference, *case, max_terms)
        assert (got[2] == 1005) if max_terms == 1005 else (got[0] is RuntimeError)

    def test_a_seeded_sweep(self, monkeypatch):
        for *case, budget in _random_hyper_cases(300, 28):
            monkeypatch.setattr(series_eval, "_HYP_MAX_TERMS", budget)
            assert _hyp_outcome(*case) == _outcome(hyp_enclosure_reference, *case, budget), (case, budget)


def _running_sum(uppers, lowers, x, used):
    """(partial, den) after ``used`` terms of a pFq summed term by term over
    one running denominator, as the certified loop forms them."""
    partial, den, num, step = 0, 1, 1, 1
    for p, q, _, _ in _factor_stream(uppers, lowers, x, used):
        partial, den = partial * step + num, den * step
        num, step = num * p, q
    return partial, den


class _NoProduct(int):
    """An int that fails the test if the stop test multiplies by it."""

    def __rmul__(self, other):
        raise AssertionError("the stop test formed its products")


class TestStopPreTest:
    """The bit-length pre-test of the certified loop at its edge.

    A first term that cannot stop the sum makes the partial sum of two
    terms 2^13 - 1, and the second term's rho makes gap = rho_den - rho_num
    = 2^13 - 1, so bl(big) + bl(gap) = 26 at bits = 17.
    """

    HEAD = (1, 2**13 - 2, 1, 1)

    @pytest.mark.parametrize("sign,signed", [(1, False), (-1, True)])
    def test_a_stop_at_equal_bit_lengths_is_kept(self, sign, signed):
        # bl(1) + bl(1) + 17 + 7 = 26: the pre-test leaves the term to the
        # full test, which stops: 2^25 <= (2^13 - 1)^2
        step, num, rho_num, rho_den = self.HEAD
        terms = [(step, sign * num, rho_num, rho_den), (1, sign, 1, 2**13)]
        sums, used = series_eval._sum_series(iter(terms), 17, 2, signed=signed)
        partial, tail = sign * (2**13 - 1), Fraction(1, 2**13 - 1)
        low = partial - tail if signed else partial
        assert (sums.lo, sums.hi, used) == (low, partial + tail, 2)

    def test_one_bit_more_is_ruled_out_before_the_products(self):
        # bl(1) + bl(2) + 17 + 7 = 27 > 26
        with pytest.raises(TermBudgetError):
            series_eval._sum_series(iter([self.HEAD, (1, 1, _NoProduct(2), 2**13 + 1)]), 17, 2)

    @pytest.mark.parametrize("term", [(1, 0, 1, 2), (1, 1, 0, 1)])
    def test_a_zero_factor_skips_the_pre_test(self, term):
        # a zero term or a zero rho leaves a tail of 0, which stops the sum;
        # the bit lengths of a zero bound nothing from below
        sums, used = series_eval._sum_series(iter([self.HEAD, term]), 17, 2)
        assert (sums.hi - sums.lo, used) == (0, 2)


class TestCombinationParts:
    """Every pFq part of the Kummer, family and B_(r,1) checks that the
    verify suites run, at 2048 bits, against the Fraction loop: endpoints
    and terms_used of each part.  Their CLI details are empty, so the
    verify output alone would not pin where these sums stop."""

    @pytest.fixture
    def parts(self, monkeypatch):
        seen = []
        enclosing = series_eval._hyp_enclosure

        def recording(h, bits):
            iv, used = enclosing(h, bits)
            seen.append(((h.upper, h.lower, h.argument, bits), (iv.lo, iv.hi, used)))
            return iv, used

        monkeypatch.setattr(series_eval, "_hyp_enclosure", recording)
        return seen

    @pytest.mark.parametrize("check,cases", [
        (kummer_bell_check, [(r, n) for r in (1, 2) for n in range(1, 5)]),
        (family_bell_check, [(p, r, n) for p, r in ((1, 1), (1, 2), (2, 1)) for n in range(1, 4)]),
        (bell_r1_hypergeometric_check, [(r, n) for r in (2, 3, 4) for n in range(1, 5)]),
    ])
    def test_parts_match_the_fraction_loop(self, parts, check, cases):
        for args in cases:
            assert check(*args, precision=2048)
        assert len(parts) >= len(cases)
        for call, got in parts:
            assert got == hyp_enclosure_reference(*call, 100_000), call


def _over_one_den(lo, hi, scale=1):
    """The interval [lo, hi] as two integer ends over their least common
    denominator, every one of the three integers times ``scale``."""
    den = lcm(lo.denominator, hi.denominator)
    return series_eval._Interval(int(lo * den) * scale, int(hi * den) * scale, den * scale)


ROUNDING_CASES = [
    (Fraction(-7, 3), Fraction(-2, 9)),                   # negative midpoint
    (Fraction(-5, 3), Fraction(1, 7)),                    # straddles zero, midpoint < 0
    (Fraction(-1, 3), Fraction(1, 3)),                    # zero midpoint
    (Fraction(0), Fraction(0)),                           # zero, zero width
    (Fraction(1, 3), Fraction(1, 3)),                     # zero width, inexact
    (Fraction(2**300 + 1), Fraction(2**300 + 1)),         # large integer, zero width
    (Fraction(3**200, 7), Fraction(3**200 + 5, 7)),       # large value
    (Fraction(10**40 + 1, 3**50), Fraction(10**41, 3**49)),
    (Fraction(-7, 5 * 3**40), Fraction(11, 7 * 3**40)),   # shared denominator factor
]


def _assert_rounding_holds(sv):
    """[value - tail_bound, value + tail_bound] holds the exact enclosure
    the value was rounded from.  No verdict reads the rounded interval, so
    this is what shows that the value and bound printed are sound."""
    v, tail = sv.value.to_fraction(), sv.tail_bound.to_fraction()
    assert v - tail <= sv.interval.lo and sv.interval.hi <= v + tail


class TestSeriesValueRounding:
    """The rounding of an enclosure over unreduced integer ends against the
    Fraction formula it replaced, and its soundness."""

    @staticmethod
    def _by_fractions(iv, bits):
        mid = iv.midpoint
        value = BigFloat.from_fraction(mid, bits, "n")
        rounding_error = abs(mid - value.to_fraction())
        tail = BigFloat.from_fraction((iv.hi - iv.lo) / 2 + rounding_error, bits, "c")
        return value.value._mpf_, tail.value._mpf_

    @staticmethod
    def _rounded(iv, bits):
        sv = series_eval._series_value(iv, 1, bits)
        return sv.value.value._mpf_, sv.tail_bound.value._mpf_

    @pytest.mark.parametrize("bits", (16, 64, 256, 4096))
    @pytest.mark.parametrize("lo,hi", ROUNDING_CASES)
    def test_matches_the_fraction_formula(self, lo, hi, bits):
        iv = _over_one_den(lo, hi)
        sv = series_eval._series_value(iv, 7, bits)
        assert (sv.value.value._mpf_, sv.tail_bound.value._mpf_) == self._by_fractions(iv, bits)
        assert (sv.terms_used, sv.precision_bits, sv.interval) == (7, bits, iv)
        _assert_rounding_holds(sv)

    @pytest.mark.parametrize("bits", (16, 64, 256, 4096))
    def test_a_seeded_sweep_rounds_soundly(self, bits):
        # ends and denominators of up to 6000 bits, some with thousands of
        # trailing zero bits, some intervals of zero width
        rng = random.Random(bits)
        for _ in range(500):
            den = rng.getrandbits(rng.randint(1, 3000)) | 1
            den <<= rng.choice((0, rng.randint(1, 3000)))
            lo = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 6000))
            hi = lo + rng.choice((0, rng.getrandbits(rng.randint(1, 6000))))
            iv = series_eval._Interval(lo, hi, den)
            _assert_rounding_holds(series_eval._series_value(iv, 1, bits))

    @pytest.mark.parametrize("bits", (16, 256, 4096))
    @pytest.mark.parametrize("scale", (3**500, 1 << 3000, 3**500 << 3000),
                             ids=("odd", "two", "both"))
    @pytest.mark.parametrize("lo,hi", ROUNDING_CASES)
    def test_common_factors_round_as_the_reduced_interval(self, lo, hi, scale, bits):
        # the ends and the denominator share an odd factor, thousands of
        # trailing zero bits, or both; the value and its bound do not move
        assert self._rounded(_over_one_den(lo, hi, scale), bits) == \
            self._rounded(_over_one_den(lo, hi), bits)

    def test_cases_reach_a_zero_mantissa_and_a_nonnegative_exponent(self):
        def rounded(lo, hi):
            return self._rounded(_over_one_den(lo, hi), 256)[0]

        assert rounded(Fraction(-1, 3), Fraction(1, 3))[1] == 0
        assert rounded(Fraction(3**200, 7), Fraction(3**200 + 5, 7))[2] >= 0


class TestInterval:
    """Interval arithmetic on integer ends over one unreduced denominator."""

    def test_ends_read_as_reduced_fractions(self):
        iv = series_eval._Interval(-6, 10, 4)
        assert (iv.lo, iv.hi, iv.midpoint) == (Fraction(-3, 2), Fraction(5, 2), Fraction(1, 2))
        assert (iv.lo_num, iv.hi_num, iv.den) == (-6, 10, 4)

    @pytest.mark.parametrize("ends", [(2, 1, 3), (0, 0, 0), (1, 2, -3)])
    def test_empty_or_unsigned_intervals_are_refused(self, ends):
        with pytest.raises(ValueError):
            series_eval._Interval(*ends)

    def test_add_intervals_over_unequal_denominators(self):
        total = series_eval._Interval(1, 2, 6) + series_eval._Interval(-1, 5, 4)
        assert (total.lo, total.hi) == (Fraction(1, 6) - Fraction(1, 4), Fraction(2, 6) + Fraction(5, 4))
        assert total.den == 24  # the product, not the lcm 12

    @pytest.mark.parametrize("other", [Fraction(-5, 4), Fraction(7, 6), 3, 0])
    def test_add_a_rational(self, other):
        total = series_eval._Interval(-1, 5, 6) + other
        assert (total.lo, total.hi) == (Fraction(-1, 6) + other, Fraction(5, 6) + other)

    @pytest.mark.parametrize("factor", [Fraction(3, 4), Fraction(-3, 4), 0, -2])
    def test_mul_swaps_the_ends_for_a_negative_factor(self, factor):
        product = series_eval._Interval(-1, 5, 6) * factor
        ends = sorted([Fraction(-1, 6) * factor, Fraction(5, 6) * factor])
        assert [product.lo, product.hi] == ends

    @pytest.mark.parametrize("lo,hi", [
        (Fraction(2, 3), Fraction(7, 5)),      # both ends positive
        (Fraction(-2, 3), Fraction(7, 5)),     # negative lo
        (Fraction(-7, 5), Fraction(-2, 3)),    # negative lo and hi
        (Fraction(0), Fraction(0)),
        (Fraction(-1, 9), Fraction(0)),
    ])
    @pytest.mark.parametrize("t", [Fraction(1), Fraction(1, 3)])
    def test_over_exp_moves_each_end_outward(self, lo, hi, t):
        e = series_eval._exp_bounds(t, 64)
        got = _over_one_den(lo, hi, 5).over_exp(t, 64)
        assert got.lo == lo / (e.hi if lo >= 0 else e.lo)
        assert got.hi == hi / (e.lo if hi >= 0 else e.hi)
        assert got.lo <= got.hi

    @pytest.mark.parametrize("signed", [False, True])
    def test_sum_series_hands_back_den_times_gap_unreduced(self, signed):
        # partial 14 over den 8 after two terms; rho = 1/2^20 stops the sum
        # with gap 2^20 - 1 and tail 2 rho_num, and 2 divides all three ends
        gap = 2**20 - 1
        terms = [(4, 6, 1, 1), (2, 2, 1, 2**20)]
        sums, used = series_eval._sum_series(iter(terms), 1, 2, signed=signed)
        whole = 14 * gap
        assert (sums.lo_num, sums.hi_num, sums.den, used) == \
            (whole - 2 if signed else whole, whole + 2, 8 * gap, 2)

    def test_contains_both_ends_exactly(self):
        iv = series_eval._Interval(-6 * 7, 10 * 7, 4 * 7)
        assert iv.contains(Fraction(-3, 2)) and iv.contains(Fraction(5, 2))
        assert iv.contains(0) and iv.contains(2)
        tiny = Fraction(1, 10**30)
        assert not iv.contains(Fraction(-3, 2) - tiny)
        assert not iv.contains(Fraction(5, 2) + tiny)
        assert not iv.contains(3)


class TestExpBounds:
    @pytest.mark.parametrize("bits", (16, 64, 256, 1024, 4096))
    @pytest.mark.parametrize("t", [0, Fraction(1, 7), 1, Fraction(4, 3), Fraction(3, 2), 5, 40])
    def test_endpoints_match_the_fraction_loop(self, t, bits):
        iv = series_eval._exp_bounds(Fraction(t), bits)
        assert (iv.lo, iv.hi) == exp_bounds_reference(t, bits)

    def test_cache_interface_kept(self):
        # the benchmark empties and reads this cache
        series_eval._exp_bounds.cache_clear()
        series_eval._exp_bounds(Fraction(1), 64)
        series_eval._exp_bounds(Fraction(1), 64)
        info = series_eval._exp_bounds.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_tiny_argument_still_sums_the_linear_term(self):
        # below 2^-(bits+9) the constant term alone would already meet the
        # stop test; the enclosure must not depend on that
        t = Fraction(1, 2**80)
        iv = series_eval._exp_bounds(t, 64)
        assert (iv.lo, iv.hi) == exp_bounds_reference(t, 64)

    @pytest.mark.parametrize("bits", (16, 256, 4096))
    def test_term_zero_never_stops_the_sum(self, bits):
        # at t = 2^-(bits+20) term 0 would meet the stop test with the ratio
        # bound 2t/(1+2t); the stream gives it rho = 1, so term 1 is summed
        t = Fraction(1, 2 ** (bits + 20))
        iv = series_eval._exp_bounds(t, bits)
        assert (iv.lo, iv.hi) == exp_bounds_reference(t, bits)

    def test_term_budget_exhaustion_reported(self):
        # t/(k+1) stays above 1/2 for all 64*16 + 1026 budgeted terms
        with pytest.raises(TermBudgetError):
            series_eval._exp_bounds(Fraction(10**4), 16)


class TestPrecisionFloor:
    """Every certified series refuses a precision below MIN_PRECISION_BITS
    before it sums anything.  mpmath's rounding is patched to fail, so a
    missing guard fails the test where it would hang or sum a whole series."""

    CALLS = [
        lambda b: hypergeometric(HyperParams((1,), (2,), 1), precision=b),
        lambda b: dobinski_bell(Params(2, 1), 3, precision=b),
        lambda b: dobinski_polynomial(Params(2, 1), 3, 2, precision=b),
        lambda b: dobinski_polynomials(Params(2, 2), 3, 2, precision=b),
        lambda b: dobinski_gamma_form(Params(3, 1), 3, precision=b),
        lambda b: dobinski_gamma_forms(Params(3, 1), 3, precision=b),
        lambda b: family_bell_check(2, 1, 3, precision=b),  # kummer_bell_check(2, 3)
        lambda b: kummer_bell_check(2, 3, precision=b),
        lambda b: family_bell_check(1, 1, 2, precision=b),
        lambda b: bell_r1_hypergeometric_check(3, 2, precision=b),
        lambda b: hgf_check(3, 2, Fraction(1, 5), 4, precision=b),
    ]

    @pytest.fixture(autouse=True)
    def no_rounding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mpmath rounding reached")

        monkeypatch.setattr(mpmath.libmp, "from_rational", refuse)

    @pytest.mark.parametrize("bits", [-20, -5, -1, 0, series_eval.MIN_PRECISION_BITS - 1])
    @pytest.mark.parametrize("call", range(len(CALLS)))
    def test_below_the_floor_raises_before_summing(self, call, bits):
        floor = series_eval.MIN_PRECISION_BITS
        with pytest.raises(ValueError, match=f"^precision must be >= {floor} bits, got {bits}$"):
            self.CALLS[call](bits)

    @pytest.mark.parametrize("bits", [-3, 0, 1])
    def test_bigfloat_refuses_before_mpmath(self, bits):
        with pytest.raises(ValueError, match="at least 2"):
            BigFloat.from_rational(1, 3, bits)
        with pytest.raises(ValueError, match="at least 2"):
            BigFloat.from_fraction(Fraction(1, 3), bits)


class TestAlternatingHypergeometric:
    """pFq whose terms change sign, against mpmath within the certified tail."""

    @staticmethod
    def _assert_within_tail(sv, reference):
        v = sv.value.to_fraction()
        slack = Fraction(1, 2 ** (sv.precision_bits + 64)) * (1 + abs(reference))
        assert abs(v - reference) <= sv.tail_bound.to_fraction() + slack
        assert sv.tail_bound.to_fraction() <= Fraction(1, 2 ** (sv.precision_bits - 8)) * (1 + abs(v))

    @pytest.mark.parametrize("bits", (64, 512))
    def test_negative_argument(self, bits):
        uppers, lowers, x = (Fraction(1, 2), 1), (Fraction(5, 2),), Fraction(-3, 4)
        sv = hypergeometric(HyperParams(uppers, lowers, x), precision=bits)
        with mpmath.workprec(bits + 128):
            ref = mpmath.hyper([mpmath.mpf(1) / 2, 1], [mpmath.mpf(5) / 2], mpmath.mpf(-3) / 4)
            self._assert_within_tail(sv, BigFloat(ref, bits + 128).to_fraction())

    @pytest.mark.parametrize("bits", (64, 512))
    def test_negative_non_integer_lower_parameter(self, bits):
        uppers, lowers, x = (Fraction(1, 3),), (Fraction(-5, 3),), Fraction(2)
        sv = hypergeometric(HyperParams(uppers, lowers, x), precision=bits)
        with mpmath.workprec(bits + 128):
            ref = mpmath.hyper([mpmath.mpf(1) / 3], [mpmath.mpf(-5) / 3], 2)
            self._assert_within_tail(sv, BigFloat(ref, bits + 128).to_fraction())
