from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from bosonbell import fock_numeric
from bosonbell.fock_numeric import (
    FockTruncationError,
    apply_operator,
    build_ops,
    coherent_state,
    expectation_power,
    katriel_check,
)
from bosonbell.stirling_bell import Params, bell_number, bell_polynomial


class TestBuildOps:
    def test_minimal_annihilator(self):
        a, adag = build_ops(2)
        nonzero = [(i, j) for i in range(2) for j in range(2) if a.entry(i, j)]
        assert nonzero == [(0, 1)]
        assert a.entry(0, 1) == 1
        assert adag.entry(1, 0) == 1

    def test_number_operator_diagonal(self):
        a, adag = build_ops(3)
        vecs = [[mp.mpf(1 if i == n else 0) for i in range(3)] for n in range(3)]
        for n, e_n in enumerate(vecs):
            out = apply_operator(adag, apply_operator(a, e_n))
            assert out[n] == n
            assert all(out[i] == 0 for i in range(3) if i != n)

    def test_commutator_corner(self):
        # sqrt entries are rounded at operator precision, so the commutator
        # reproduces 1 (and the corner artifact 1-D) to that precision only
        dim = 64
        a, adag = build_ops(dim, precision=128)
        with mp.workprec(160):
            eps = mp.mpf(2) ** -120
            for n in (0, 17, dim - 2):
                e_n = [mp.mpf(1 if i == n else 0) for i in range(dim)]
                comm = [x - y for x, y in zip(
                    apply_operator(a, apply_operator(adag, e_n)),
                    apply_operator(adag, apply_operator(a, e_n)))]
                assert abs(comm[n] - 1) < eps
                assert all(abs(c) < eps for i, c in enumerate(comm) if i != n)
            e_top = [mp.mpf(1 if i == dim - 1 else 0) for i in range(dim)]
            comm = [x - y for x, y in zip(
                apply_operator(a, apply_operator(adag, e_top)),
                apply_operator(adag, apply_operator(a, e_top)))]
            assert abs(comm[dim - 1] - (1 - dim)) < dim * eps


class TestBandedOperators:
    @pytest.mark.parametrize("precision", [64, 300])
    def test_apply_equals_the_sum_over_entries(self, precision):
        dim = 12
        for op in build_ops(dim, precision=precision):
            with mp.workprec(precision):
                vec = [mp.mpf(j + 1) / 3 - mp.sqrt(j + 2) for j in range(dim)]
                got = apply_operator(op, vec)
                want = [mp.fsum(op.entry(i, j) * vec[j] for j in range(dim))
                        for i in range(dim)]
            assert got == want

    def test_wrong_vector_length_rejected(self):
        a, adag = build_ops(4)
        for op in (a, adag):
            with pytest.raises(ValueError, match="does not match dim"):
                apply_operator(op, [mp.mpf(1)] * 5)

    def test_entry_outside_the_basis_rejected(self):
        a, adag = build_ops(4)
        for op in (a, adag):
            for i, j in ((4, 3), (3, 4), (-1, 0)):
                with pytest.raises(IndexError):
                    op.entry(i, j)

    @pytest.mark.parametrize("dim", [1, 0])
    def test_dimension_below_two_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            build_ops(dim)


class TestCoherentState:
    def test_vacuum(self):
        ket = coherent_state(0, 8)
        assert ket.amps[0] == 1
        assert all(a == 0 for a in ket.amps[1:])

    def test_unit_tail_mass_tiny(self):
        ket = coherent_state(1, 64)
        assert ket.tail_mass < mp.mpf("1e-60")

    def test_eigenrelation_residual(self):
        dim = 64
        ket = coherent_state(1, dim)
        a, _ = build_ops(dim)
        with mp.workprec(320):
            out = apply_operator(a, list(ket.amps))
            residual = [x - y for x, y in zip(out, ket.amps)]
            norm = mp.sqrt(mp.fsum(x * x for x in residual))
            assert norm < mp.mpf("1e-40")

    def test_number_expectation_at_one(self):
        ket = coherent_state(1, 64)
        a, adag = build_ops(64)
        out = apply_operator(adag, apply_operator(a, list(ket.amps)))
        value = mp.fsum(b * x for b, x in zip(ket.amps, out))
        assert abs(value - 1) < mp.mpf("1e-50")

    def test_small_dimension_rejected(self):
        with pytest.raises(FockTruncationError):
            coherent_state(2, 4, precision=64)


class TestExpectationPower:
    @pytest.mark.parametrize("r,s,n,z,expected", [
        (1, 1, 3, 1, 5),
        (2, 2, 2, 1, 7),
        (1, 1, 2, Fraction(1, 2), Fraction(5, 16)),
    ])
    def test_frozen_examples(self, r, s, n, z, expected):
        value = expectation_power(Params(r, s), n, z, 128)
        err = abs(value.to_fraction() - Fraction(expected))
        assert err <= Fraction(1, 10**30) * max(Fraction(expected), 1)

    def test_z_enters_only_through_its_square_on_the_diagonal(self):
        p = Params(2, 2)
        for z in (Fraction(1, 2), Fraction(1), Fraction(2)):
            value = expectation_power(p, 2, z, 128)
            exact = bell_polynomial(p, 2, z * z)
            assert abs(value.to_fraction() - exact) <= Fraction(1, 10**30) * exact

    def test_off_diagonal_prefactor(self):
        p = Params(2, 1)
        z = Fraction(1, 2)
        value = expectation_power(p, 2, z, 128)
        exact = z**2 * bell_polynomial(p, 2, z * z)
        assert abs(value.to_fraction() - exact) <= Fraction(1, 10**30)

    def test_hermitian_conjugate_word_gives_the_same_value(self):
        forward = expectation_power(Params(2, 1), 3, Fraction(1, 2), 128)
        conjugate = expectation_power(Params(1, 2), 3, Fraction(1, 2), 128)
        assert forward.value == conjugate.value

    @pytest.mark.parametrize("check_stability", [True, False])
    def test_one_sqrt_table_per_expectation(self, monkeypatch, check_stability):
        dims = []

        def counting_build_ops(dim, precision):
            dims.append(dim)
            return build_ops(dim, precision)

        monkeypatch.setattr(fock_numeric, "build_ops", counting_build_ops)
        expectation_power(Params(2, 1), 2, Fraction(1, 2), 128, check_stability=check_stability)
        assert dims == [144 if check_stability else 128]

    def test_operators_and_coherent_vector_share_one_sqrt_table(self, monkeypatch):
        # build_ops at dim + 16 takes all 144 roots; both coherent vectors
        # (dim 128 and 144) read the same table instead of their own
        calls = []
        sqrt = mp.sqrt

        def counting_sqrt(x):
            calls.append(x)
            return sqrt(x)

        monkeypatch.setattr(mp, "sqrt", counting_sqrt)
        expectation_power(Params(1, 1), 3, 1, 128)
        assert calls == list(range(144))

    def test_amplitudes_from_the_shared_table_match_coherent_state(self):
        # the operators' table is rounded at precision + 64 bits, as coherent_state's is
        for precision in (64, 256, 2048):
            a, _ = build_ops(40, precision + 64)
            shared = fock_numeric._coherent_from_roots(Fraction(3, 2), a.roots, precision, 1)
            own = coherent_state(Fraction(3, 2), 40, precision, tail_threshold=1)
            assert shared == own

    def test_truncation_rejected_when_word_cannot_fit(self):
        with pytest.raises(FockTruncationError):
            expectation_power(Params(3, 1), 5, 1, 8)

    def test_error_shrinks_with_dimension(self):
        # z = 2 pushes the knee high enough that truncation is visible
        p = Params(2, 2)
        exact = bell_polynomial(p, 3, 4)
        errors = []
        for dim in (56, 64, 80):
            v = expectation_power(p, 3, 2, dim, check_stability=False)
            errors.append(abs(v.to_fraction() - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_tail_mass_guard_rejects_small_dimensions(self):
        with pytest.raises(FockTruncationError):
            expectation_power(Params(2, 2), 3, 2, 32, check_stability=False)

    def test_stability_check_catches_visible_truncation(self):
        # at dim 56 the value still moves by ~4e-33 when widening, which the
        # default 2^-128 stability tolerance must flag
        with pytest.raises(FockTruncationError) as exc:
            expectation_power(Params(2, 2), 3, 2, 56)
        assert exc.value.suggested_dim > 56


class TestNormalFormFaithfulness:
    @pytest.mark.parametrize("word", ["aA", "aAaA", "AaaAA", "aaAAa", "AAaaAa"])
    def test_normal_form_acts_like_the_word_on_basis_vectors(self, word):
        """normalize(w) and the literal word w agree column by column on
        basis states far enough below the truncation boundary."""
        from bosonbell.boson_oracle import normalize

        dim = 32
        a, adag = build_ops(dim, precision=256)
        nf = normalize(word)
        with mp.workprec(320):
            for n in (0, 3, 9):
                e_n = [mp.mpf(1 if i == n else 0) for i in range(dim)]
                direct = e_n
                for letter in reversed(word):
                    direct = apply_operator(a if letter == "a" else adag, direct)
                via_nf = [mp.mpf(0)] * dim
                for (i, j), c in nf.terms.items():
                    part = e_n
                    for _ in range(j):
                        part = apply_operator(a, part)
                    for _ in range(i):
                        part = apply_operator(adag, part)
                    via_nf = [acc + c * x for acc, x in zip(via_nf, part)]
                # components above dim - len(word) may differ by truncation
                safe = dim - len(word)
                scale = max(mp.mpf(1), max(abs(x) for x in direct[:safe]))
                assert all(abs(x - y) < scale * mp.mpf(2) ** -200
                           for x, y in zip(direct[:safe], via_nf[:safe]))


class TestKatriel:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203),
    ])
    def test_values(self, n, expected):
        assert bell_number(Params(1, 1), n) == expected
        assert katriel_check(n)

    def test_dimension_follows_precision(self):
        # a fixed dim 128 holds the coherent vector only to about 1400 bits
        assert fock_numeric.dimension_for(2048) == 256
        assert katriel_check(3, precision=2048)
