import json
from fractions import Fraction
from math import factorial

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
    perturbation_reads,
    set_perturbation,
    stirling,
    stirling_diffop,
    stirling_explicit,
    triangle,
)

from bosonbell.exact_core import falling_factorial

from _oracles import bell_brute, lah_brute, pascal_binomial, stirling_brute


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
                assert stirling(p, n, k) == lah_brute(n, k)

    def test_lah_frozen_examples(self):
        # unsigned Lah numbers n!/k! C(n-1, k-1)
        lah = Params(2, 1)
        assert stirling_explicit(lah, 3, 2) == 6
        assert stirling_explicit(lah, 4, 1) == 24
        for n in range(1, 9):
            assert stirling_explicit(lah, n, n) == 1

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


def explicit_sum_reference(p, n, k):
    """The explicit sum coded directly, with Pascal-triangle binomials."""
    total = 0
    for q in range(p.s, k + 1):
        product = 1
        for j in range(n):
            product *= falling_factorial(q + j * (p.r - p.s), p.s)
        total += (-1) ** q * pascal_binomial(k, q) * product
    return (-1) ** k * total // factorial(k)


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)])
def test_both_routes_match_the_explicit_sum_with_pascal_binomials(r, s):
    # every k of rows 1..4, the band's ends and one entry past each end included
    p = Params(r, s)
    for n in range(1, 5):
        for k in range(0, n * s + 2):
            want = explicit_sum_reference(p, n, k) if k in p.band(n) else 0
            assert stirling_explicit(p, n, k) == want, (n, k)
            assert stirling_diffop(p, n, k) == want, (n, k)


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


class TestSymmetry:
    def test_swapped_equals_swapped_params(self):
        assert stirling(Params(1, 2), 2, 2) == 1
        assert stirling(Params(1, 2), 1, 1) == 1

    def test_explicit_sum_names_the_route_for_r_below_s(self):
        with pytest.raises(ValueError, match="use stirling$"):
            stirling_explicit(Params(1, 2), 1, 1)

    def test_symmetric_on_common_band(self):
        for r in range(1, 4):
            for s in range(1, 4):
                p, q = Params(r, s), Params(s, r)
                for n in range(1, 5):
                    for k in p.band(n):
                        assert stirling(p, n, k) == stirling(q, n, k)

    def test_explicit_sum_mutant_fails_the_symmetry_checks(self, monkeypatch, capsys):
        """Each symmetry check reads the explicit sum on one side only, so a
        wrong explicit sum fails all six, even though ``stirling`` reads it
        for both orders."""
        from bosonbell import cli, stirling_bell

        explicit = stirling_bell.stirling_explicit
        monkeypatch.setattr(stirling_bell, "stirling_explicit",
                            lambda p, n, k: explicit(p, n, k) + (7 if k == n * p.s else 0))
        assert cli.main(["--json", "verify", "symmetry"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        band = [c for c in checks if c["name"].endswith("on the common band")]
        assert len(band) == 6 and not any(c["ok"] for c in band)
        assert all(c["ok"] for c in checks if c not in band)


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

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=12),
           st.sampled_from([None, -2, 1]),
           st.lists(st.integers(min_value=-6, max_value=8), min_size=1, max_size=6))
    def test_several_points_are_the_conjunction_of_one_point_calls(
            self, r, s, n, k_offset, delta, xs):
        # a perturbed entry fails some points and not others: x^falling(k)
        # vanishes at 0 <= x < k
        r, s = max(r, s), min(r, s)
        p = Params(r, s)
        band = p.band(n)
        k = band[k_offset % len(band)]
        try:
            if delta is not None:
                set_perturbation(p, n, k, delta)
            one_by_one = all(connection_identity_check(p, n, x) for x in xs)
            assert connection_identity_check(p, n, *xs) == one_by_one
        finally:
            clear_perturbations()

    def test_several_points_read_the_row_once(self):
        p = Params(3, 2)
        try:
            set_perturbation(p, 3, 4, 1)
            # the perturbed entry fails only at the last point, 4^falling(4) != 0
            assert not connection_identity_check(p, 3, 0, 1, 2, 3, 4)
            assert perturbation_reads(p, 3, 4) == 1
        finally:
            clear_perturbations()

    def test_no_point_is_an_error(self):
        with pytest.raises(TypeError):
            connection_identity_check(Params(1, 1), 2)


class TestRoutesEqualTheTableAtRowTen:
    """The differential route and the connection identity against the memo
    row n = 10, for every r, s <= 3."""

    # the points of the connection checks in verify all
    SUITE_POINTS = (-3, -1, 0, 1, 2, 5)

    @pytest.mark.parametrize("r,s", [(r, s) for r in (1, 2, 3) for s in (1, 2, 3)])
    def test_diffop_at_every_k(self, r, s):
        clear_perturbations()
        p = Params(r, s)
        row = triangle(p, 10).row(10)
        big = Params(max(r, s), min(r, s))  # the route needs r >= s; S_(r,s) = S_(s,r)
        for k in range(10 * min(r, s) + 2):
            assert stirling_diffop(big, 10, k) == row.get(k, 0), k

    @pytest.mark.parametrize("r,s", [(r, s) for r in (1, 2, 3) for s in range(1, r + 1)])
    def test_connection_identity_at_the_suite_points(self, r, s):
        clear_perturbations()
        p = Params(r, s)
        row = triangle(p, 10).row(10)
        for y in self.SUITE_POINTS:
            lhs = 1
            for j in range(10):
                lhs *= falling_factorial(y + j * (r - s), s)
            assert lhs == sum(v * falling_factorial(y, k) for k, v in row.items()), y
            assert connection_identity_check(p, 10, y), y
        assert connection_identity_check(p, 10, *self.SUITE_POINTS)
        # y^falling(k) is nonzero at y < 0, so every entry of the row counts there
        try:
            for k in row:
                set_perturbation(p, 10, k, 1)
                assert not connection_identity_check(p, 10, -3), k
                assert not connection_identity_check(p, 10, -1), k
                clear_perturbations()
        finally:
            clear_perturbations()


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
    def test_r1_reduces_to_classical_recurrence(self):
        tri = triangle(Params(1, 1), 10)
        for n in range(1, 10):
            for k in range(1, n + 2):
                assert tri.value(n + 1, k) == k * tri.value(n, k) + tri.value(n, k - 1)

    def test_r2_row2(self):
        assert triangle(Params(2, 2), 2).row(2) == {2: 2, 3: 4, 4: 1}

    def test_first_row_is_unit(self):
        for r in (1, 2, 3):
            assert triangle(Params(r, r), 1).row(1) == {r: 1}

    def test_diagonal_and_symmetry_checks_fail_with_the_table_step(self, monkeypatch, capsys):
        from bosonbell import cli, stirling_bell

        real_next_row = stirling_bell._next_row

        def broken_next_row(p, row):
            out = real_next_row(p, row)
            out[max(out)] += 1
            return out

        clear_perturbations()
        monkeypatch.setattr(stirling_bell, "_next_row", broken_next_row)
        try:
            assert cli.main(["--json", "verify", "oracle"]) == 1
            assert cli.main(["--json", "verify", "symmetry"]) == 1
        finally:
            clear_perturbations()
        oracle, symmetry = (json.loads(out)["checks"]
                            for out in capsys.readouterr().out.splitlines())
        diagonal = [c for c in oracle if "diagonal recurrence" in c["name"]]
        band = [c for c in symmetry if c["name"].endswith("on the common band")]
        assert len(diagonal) == 3 and not any(c["ok"] for c in diagonal)
        assert len(band) == 6 and not any(c["ok"] for c in band)

    def test_matches_the_explicit_sum_for_every_order(self):
        clear_perturbations()
        for r in range(1, 5):
            for s in range(1, 5):
                p = Params(r, s)
                q = p if r >= s else p.swapped()
                tri = triangle(p, 6)
                for n in range(1, 7):
                    assert tri.row(n) == {k: stirling_explicit(q, n, k) for k in p.band(n)}, (r, s, n)

    def test_perturbation_stays_one_entry(self):
        p = Params(2, 1)
        clear_perturbations()
        clean = {n: triangle(p, 6).row(n) for n in range(1, 7)}
        try:
            set_perturbation(p, 3, 2, +5)
            tri = triangle(p, 6)
            assert tri.row(3) == {**clean[3], 2: clean[3][2] + 5}
            for n in (1, 2, 4, 5, 6):
                assert tri.row(n) == clean[n]
            assert perturbation_reads(p, 3, 2) == 1
            assert triangle(Params(1, 2), 6).row(3) == clean[3]  # keyed by (r, s)
            assert tri.rows == clean  # the memo rows stay clean
        finally:
            clear_perturbations()

    def test_a_triangle_taken_before_the_perturbation_returns_it(self):
        p = Params(2, 1)
        clear_perturbations()
        tri = triangle(p, 4)
        clean = tri.value(3, 2)
        try:
            set_perturbation(p, 3, 2, +5)
            assert tri.value(3, 2) == clean + 5
            assert tri.row(3)[2] == clean + 5
            assert perturbation_reads(p, 3, 2) == 2
        finally:
            clear_perturbations()
        assert tri.value(3, 2) == clean

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

    # every pair the benchmark reads far, at its n, and (4,1); r < s reads
    # the swapped pair
    @pytest.mark.parametrize("r,s,n", [
        (1, 1, 250), (2, 1, 230), (3, 1, 240), (4, 1, 200), (1, 2, 250), (2, 2, 180),
        (1, 3, 250), (3, 2, 170), (2, 3, 175), (3, 3, 140),
    ])
    def test_far_read_per_d_equals_the_memo_row(self, r, s, n):
        clear_perturbations()
        p = Params(r, s)
        row = triangle(p, n).row(n)
        low, high = min(r, s), max(r, s)
        # q = high = low + d is the first telescoped product
        for k in (low, high, high + 1, n * low // 2, n * low):
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

    @pytest.mark.parametrize("n_max", [-1, -5])
    def test_negative_size_is_refused(self, n_max):
        # as bell_number(p, -1) and bell_recurrence_r1(1, -1) refuse theirs
        with pytest.raises(ValueError, match=f"n_max must be >= 0, got {n_max}"):
            bell_sequence(Params(2, 1), n_max)

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

    def test_bell_number_reads_only_its_own_row(self):
        p = Params(1, 1)
        clear_perturbations()
        try:
            set_perturbation(p, 3, 2, +1)
            assert bell_number(p, 5) == 52
            assert perturbation_reads(p, 3, 2) == 0
            assert bell_sequence(p, 5).values[3] == 6
            assert perturbation_reads(p, 3, 2) == 1
        finally:
            clear_perturbations()


def test_an_entry_no_check_compares_is_reported_unread(capsys):
    """The (2,2) column egf checks compare k = 2..4 of a triangle whose row 4
    also holds k = 5; only the reads a check makes count."""
    from bosonbell import cli

    assert cli.main(["--json", "verify", "egf", "--perturb", "2,2,4,5"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["suite"], c["detail"]) for c in checks if not c["ok"]] == [("perturb", "reads=0")]
