import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bosonbell.stirling_bell import (
    DivisibilityError,
    Params,
    anti_stirling,
    bell_diag_from_classical,
    bell_number,
    bell_polynomial,
    bell_recurrence_r1,
    bell_sequence,
    clear_perturbations,
    connection_identity_check,
    lah_closed_form,
    perturbation_reads,
    set_perturbation,
    stirling,
    stirling_diag_recurrence,
    stirling_diffop,
    stirling_explicit,
    stirling_symmetric,
    triangle,
)

from _oracles import bell_brute, lah_brute, stirling_brute


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0, 1)
    with pytest.raises(ValueError):
        Params(1, -2)


class TestExplicit:
    def test_classical_case_counts_set_partitions(self):
        p = Params(1, 1)
        for n in range(1, 7):
            for k in range(0, n + 2):
                assert stirling(p, n, k) == stirling_brute(n, k)

    def test_lah_case(self):
        p = Params(2, 1)
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert stirling(p, n, k) == lah_brute(n, k) == lah_closed_form(n, k)

    def test_frozen_examples(self):
        assert stirling_explicit(Params(1, 1), 3, 2) == 3
        assert stirling_explicit(Params(2, 1), 3, 2) == 6
        assert stirling_explicit(Params(2, 2), 2, 3) == 4

    def test_band(self):
        p = Params(2, 2)
        assert stirling_explicit(p, 2, 1) == 0
        assert stirling_explicit(p, 2, 5) == 0
        assert stirling(p, 0, 0) == 1
        assert stirling(p, 0, 3) == 0

    def test_positive_inside_band_and_top_entry_one(self):
        for r in range(1, 4):
            for s in range(1, 4):
                p = Params(r, s)
                for n in range(1, 5):
                    band = p.band(n)
                    for k in band:
                        assert stirling(p, n, k) > 0
                    assert stirling(p, n, band.stop - 1) == 1


class TestDiffop:
    def test_matches_explicit_everywhere_tested(self):
        for r in range(1, 4):
            for s in range(1, r + 1):
                p = Params(r, s)
                for n in range(1, 5):
                    for k in range(0, n * s + 2):
                        assert stirling_diffop(p, n, k) == stirling_explicit(p, n, k)

    def test_frozen_examples(self):
        assert stirling_diffop(Params(1, 1), 2, 1) == 1
        assert stirling_diffop(Params(1, 1), 3, 3) == 1
        assert stirling_diffop(Params(2, 1), 2, 2) == 1


class TestDiagonalRecurrence:
    def test_r1_reduces_to_classical_recurrence(self):
        tri = stirling_diag_recurrence(1, 10)
        for n in range(1, 10):
            for k in range(1, n + 2):
                assert tri.value(n + 1, k) == k * tri.value(n, k) + tri.value(n, k - 1)

    def test_r2_row2(self):
        assert stirling_diag_recurrence(2, 2).row(2) == {2: 2, 3: 4, 4: 1}

    def test_first_row_is_unit(self):
        for r in (1, 2, 3):
            assert stirling_diag_recurrence(r, 1).row(1) == {r: 1}

    def test_matches_explicit(self):
        for r in (1, 2, 3):
            tri = stirling_diag_recurrence(r, 5)
            p = Params(r, r)
            for n in range(1, 6):
                assert tri.row(n) == {k: stirling(p, n, k) for k in p.band(n)
                                      if stirling(p, n, k)}

    def test_independent_of_the_table_step(self, monkeypatch, capsys):
        from bosonbell import cli, stirling_bell

        real_next_row = stirling_bell._next_row

        def broken_next_row(p, row):
            out = real_next_row(p, row)
            out[max(out)] += 1
            return out

        clear_perturbations()
        monkeypatch.setattr(stirling_bell, "_next_row", broken_next_row)
        try:
            for r in (1, 2, 3, 4):
                p = Params(r, r)
                tri = stirling_diag_recurrence(r, 6)
                for n in range(1, 7):
                    assert tri.row(n) == {k: stirling_explicit(p, n, k) for k in p.band(n)}
            assert cli.main(["--json", "verify", "oracle"]) == 1
        finally:
            clear_perturbations()
        checks = json.loads(capsys.readouterr().out)["checks"]
        diagonal = [c for c in checks if "diagonal recurrence" in c["name"]]
        assert len(diagonal) == 3 and all(c["ok"] for c in diagonal)
        assert not all(c["ok"] for c in checks)


class TestSymmetry:
    def test_swapped_equals_swapped_params(self):
        assert stirling_symmetric(Params(1, 2), 2, 2) == 1
        assert stirling_symmetric(Params(1, 2), 1, 1) == 1

    def test_requires_r_below_s(self):
        with pytest.raises(ValueError):
            stirling_symmetric(Params(2, 1), 1, 1)

    def test_symmetric_on_common_band(self):
        for r in range(1, 4):
            for s in range(1, 4):
                p, q = Params(r, s), Params(s, r)
                for n in range(1, 5):
                    for k in p.band(n):
                        assert stirling(p, n, k) == stirling(q, n, k)


class TestAntiStirling:
    def test_frozen_examples(self):
        assert anti_stirling(Params(1, 1), 1, 0) == 1
        assert anti_stirling(Params(1, 1), 1, 1) == 1
        assert anti_stirling(Params(2, 1), 1, 0) == 2
        assert anti_stirling(Params(1, 1), 2, 2) == 1

    def test_band(self):
        assert anti_stirling(Params(2, 1), 2, 3) == 0
        assert anti_stirling(Params(2, 1), 2, -1) == 0


class TestBell:
    def test_classical_matches_brute_force(self):
        p = Params(1, 1)
        for n in range(0, 8):
            assert bell_number(p, n) == bell_brute(n)

    def test_frozen_examples(self):
        assert bell_number(Params(1, 1), 3) == 5
        assert bell_number(Params(2, 1), 3) == 13
        assert bell_number(Params(2, 2), 2) == 7

    def test_polynomial_at_one_is_the_row_sum(self):
        for r in range(1, 4):
            for s in range(1, 4):
                p = Params(r, s)
                for n in range(0, 5):
                    assert bell_polynomial(p, n, 1) == bell_number(p, n)

    def test_polynomial_frozen_examples(self):
        assert bell_polynomial(Params(1, 1), 2, 1) == 2
        assert bell_polynomial(Params(1, 1), 2, Fraction(1, 2)) == Fraction(3, 4)
        assert bell_polynomial(Params(2, 2), 2, 2) == 56

    def test_convention_at_zero(self):
        assert bell_number(Params(3, 2), 0) == 1
        assert bell_polynomial(Params(3, 2), 0, Fraction(7, 3)) == 1


class TestLah:
    def test_frozen_examples(self):
        assert lah_closed_form(3, 2) == 6
        assert lah_closed_form(4, 1) == 24
        for n in range(1, 9):
            assert lah_closed_form(n, n) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            lah_closed_form(3, 0)


class TestConnectionIdentity:
    @given(st.integers(min_value=-6, max_value=6))
    def test_classical_power_expansion(self, x):
        assert connection_identity_check(Params(1, 1), 3, x)

    def test_frozen_examples(self):
        assert connection_identity_check(Params(2, 2), 2, 2)
        for r, s in ((2, 1), (3, 2), (3, 3)):
            assert connection_identity_check(Params(r, s), 3, 0)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4), st.integers(min_value=-8, max_value=8))
    def test_holds_identically(self, r, s, n, x):
        if r >= s:
            assert connection_identity_check(Params(r, s), n, x)


class TestBellRecurrence:
    def test_r1_binomial_transform(self):
        seq = bell_recurrence_r1(1, 6)
        assert list(seq.values) == [bell_brute(n) for n in range(7)]

    def test_r2_steps(self):
        seq = bell_recurrence_r1(2, 3)
        assert seq.values[2] == 3
        assert seq.values[3] == 13

    def test_matches_row_sums(self):
        for r in (1, 2, 3):
            seq = bell_recurrence_r1(r, 8)
            for n in range(9):
                assert seq.values[n] == bell_number(Params(r, 1), n)


class TestDiagFromClassical:
    def test_frozen_examples(self):
        assert bell_diag_from_classical(1) == 1
        assert bell_diag_from_classical(2) == 7
        assert bell_diag_from_classical(3) == 87

    def test_matches_row_sums(self):
        for n in range(1, 9):
            assert bell_diag_from_classical(n) == bell_number(Params(2, 2), n)


def test_divisibility_guard_never_fires_on_valid_input():
    # the guard exists for transcription bugs; exercise the error type directly
    with pytest.raises(DivisibilityError):
        from bosonbell.stirling_bell import _exact_quotient
        _exact_quotient(7, 3)


def test_perturbation_hook_corrupts_and_restores():
    p = Params(2, 1)
    baseline = stirling(p, 2, 1)
    try:
        set_perturbation(p, 2, 1, +1)
        assert stirling(p, 2, 1) == baseline + 1
        assert triangle(p, 2).value(2, 1) == baseline + 1
    finally:
        clear_perturbations()
    assert stirling(p, 2, 1) == baseline


def test_triangle_memoization_is_consistent():
    p = Params(3, 2)
    t1 = triangle(p, 3)
    t2 = triangle(p, 5)
    for n in range(1, 4):
        assert t1.row(n) == t2.row(n)


def test_triangle_degenerate_row_is_empty():
    tri = triangle(Params(2, 1), 2)
    assert tri.row(0) == {}
    assert tri.value(0, 0) == 1
    assert tri.value(0, 2) == 0


def test_triangle_cache_is_thread_safe():
    import threading

    clear_perturbations()
    p = Params(3, 3)
    reference = triangle(p, 6)
    results = []
    errors = []

    def worker():
        try:
            tri = triangle(p, 6)
            results.append(all(tri.row(n) == reference.row(n) for n in range(1, 7)))
        except Exception as exc:  # noqa: BLE001 - collected for the assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors and all(results)


class TestRowRecurrence:
    def test_matches_the_explicit_sum_for_every_order(self):
        clear_perturbations()
        for r in range(1, 5):
            for s in range(1, 5):
                p = Params(r, s)
                route = stirling_explicit if r >= s else stirling_symmetric
                tri = triangle(p, 6)
                for n in range(1, 7):
                    assert tri.row(n) == {k: route(p, n, k) for k in p.band(n)}, (r, s, n)

    def test_perturbation_stays_one_entry(self):
        p = Params(2, 1)
        clear_perturbations()
        clean = triangle(p, 6)
        try:
            set_perturbation(p, 3, 2, +5)
            tri = triangle(p, 6)
            assert tri.row(3) == {**clean.row(3), 2: clean.value(3, 2) + 5}
            for n in (1, 2, 4, 5, 6):
                assert tri.row(n) == clean.row(n)
            assert perturbation_reads(p, 3, 2) == 1
            assert triangle(Params(1, 2), 6).row(3) == clean.row(3)  # keyed by (r, s)
        finally:
            clear_perturbations()

    def test_perturbation_to_zero_drops_the_entry(self):
        p = Params(2, 1)
        try:
            set_perturbation(p, 3, 2, -stirling(p, 3, 2))
            row = triangle(p, 4).row(3)
            assert 2 not in row and set(row) == {1, 3}
        finally:
            clear_perturbations()

    def test_out_of_band_perturbation_reaches_point_reads_only(self):
        p = Params(2, 1)
        clear_perturbations()
        clean = triangle(p, 4)
        try:
            set_perturbation(p, 3, 7, 4)
            assert triangle(p, 4).rows == clean.rows
            assert perturbation_reads(p, 3, 7) == 0
            assert stirling(p, 3, 7) == 4
            assert perturbation_reads(p, 3, 7) == 1
        finally:
            clear_perturbations()


def _literal_sum(p, n, k):
    """The alternating sum with every n-factor product rebuilt (r >= s);
    perm(x, s) is the falling factorial x^falling(s)."""
    from math import comb, factorial, perm

    total = 0
    for q in range(p.s, k + 1):
        prod = 1
        for j in range(n):
            prod *= perm(q + j * (p.r - p.s), p.s)
        total += (-1) ** q * comb(k, q) * prod
    return (-1) ** k * total // factorial(k)


class TestTelescopedPointReads:
    """Point reads build only d = r - s products directly; the rest telescope."""

    def test_equals_the_literal_sum(self):
        # n up to 7 and every k, so each d = 0..3 crosses its seed boundary q = s + d
        for r in range(1, 5):
            for s in range(1, r + 1):
                p = Params(r, s)
                for n in range(1, 8):
                    for k in range(s, n * s + 1):
                        assert stirling_explicit(p, n, k) == _literal_sum(p, n, k), (r, s, n, k)

    def test_equals_the_table_on_and_around_the_band(self):
        clear_perturbations()
        for r in range(1, 5):
            for s in range(1, 5):
                p = Params(r, s)
                tri = triangle(p, 60)
                for n in (1, 2, 3, 4, 5, 6, 7, 60):
                    band = p.band(n)
                    for k in range(band.start - 1, band.stop + 1):
                        assert stirling(p, n, k) == tri.value(n, k), (r, s, n, k)

    @pytest.mark.parametrize("r,s,n", [(1, 1, 250), (2, 1, 230), (3, 1, 240), (4, 1, 200)])
    def test_far_read_per_d_equals_the_memo_row(self, r, s, n):
        clear_perturbations()
        p = Params(r, s)
        row = triangle(p, n).row(n)
        for k in (s, r, r + 1, n * s // 2, n * s):  # q = r = s + d is the first telescoped product
            assert stirling(p, n, k) == row[k], k

    def test_point_reads_leave_the_memo_alone(self):
        from bosonbell import stirling_bell

        clear_perturbations()
        assert stirling(Params(3, 1), 240, 120) > 0
        assert stirling(Params(1, 3), 240, 120) > 0
        assert stirling_bell._triangle_cache == {}

    def test_far_perturbation_is_returned_and_counted(self):
        p = Params(3, 2)
        clean = stirling(p, 170, 171)
        try:
            set_perturbation(p, 170, 171, -3)
            assert stirling(p, 170, 171) == clean - 3
            assert perturbation_reads(p, 170, 171) == 1
        finally:
            clear_perturbations()


class TestRunningCoefficients:
    """The producer, the point reads and the row polynomials step their
    coefficients as running integers; each is held to a route that does not."""

    @pytest.mark.parametrize("r,s,n", [(1, 1, 120), (2, 1, 120), (3, 1, 120), (1, 2, 120),
                                       (2, 2, 60), (3, 2, 60), (3, 3, 60)])
    def test_table_row_equals_the_explicit_sum_over_the_band(self, r, s, n):
        clear_perturbations()
        p = Params(r, s)
        explicit = Params(max(r, s), min(r, s))  # S_{r,s} = S_{s,r}
        row = triangle(p, n).row(n)
        assert row == {k: stirling_explicit(explicit, n, k) for k in p.band(n)}

    @staticmethod
    def literal_polynomial(p, n, t):
        if n == 0:
            return Fraction(1)
        return sum((Fraction(stirling(p, n, k)) * t**k for k in p.band(n)), Fraction(0))

    def test_bell_polynomial_equals_the_literal_fraction_sum(self):
        clear_perturbations()
        ts = (Fraction(0), Fraction(-1), Fraction(-2, 3), Fraction(1, 7), Fraction(5, 2),
              Fraction(10**30, 3))
        for r in range(1, 4):
            for s in range(1, 4):
                p = Params(r, s)
                for n in range(13):
                    for t in ts:
                        want = self.literal_polynomial(p, n, t)
                        assert bell_polynomial(p, n, t) == want, (r, s, n, t)

    def test_bell_polynomial_across_a_zeroed_entry(self):
        p, n, k, t = Params(2, 1), 6, 3, Fraction(-2, 3)
        clear_perturbations()
        clean = bell_polynomial(p, n, t)
        try:
            set_perturbation(p, n, k, -stirling(p, n, k))
            row = triangle(p, n).row(n)
            assert k not in row and k - 1 in row and k + 1 in row  # a gap inside the band
            assert bell_polynomial(p, n, t) == clean - stirling_explicit(p, n, k) * t**k
            assert bell_polynomial(p, n, t) == self.literal_polynomial(p, n, t)
        finally:
            clear_perturbations()


class TestBellSequence:
    def test_row_sums_of_one_snapshot(self):
        clear_perturbations()
        for r, s in ((1, 1), (2, 1), (1, 2), (3, 3)):
            p = Params(r, s)
            assert bell_sequence(p, 7).values == tuple(bell_number(p, n) for n in range(8))
        assert bell_sequence(Params(2, 1), 0).values == (1,)

    def test_perturbed_entry_read_once_per_sequence(self):
        p = Params(1, 1)
        clear_perturbations()
        try:
            set_perturbation(p, 3, 2, +1)
            values = bell_sequence(p, 8).values
            assert values[:5] == (1, 1, 2, 6, 15)
            assert perturbation_reads(p, 3, 2) == 1
        finally:
            clear_perturbations()
