import math
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp

from bosonbell import fock_numeric
from bosonbell.exact_core import mpf_to_fraction
from bosonbell.fock_numeric import (
    FockTruncationError,
    apply_operator,
    build_ops,
    expectation_table,
)
from bosonbell.stirling_bell import Params, bell_polynomial

# the words of the verify fock suite, each with its highest power
SUITE_WORDS = ((1, 1, 6), (2, 1, 3), (2, 2, 3), (1, 2, 3))


def expectation_power(p, n, z, dim, precision=256):
    """<z|[(a+)^r a^s]^n|z>: the last value of the one-word, one-z table."""
    return expectation_table([(p, n)], [z], dim, precision)[p, n, z][-1]


def coherent_amps(z, dim, precision=256):
    """The coherent amplitudes on their own dim-entry table, scaled by
    2^(precision + 64), under the tail guard at tolerance(precision)."""
    a, _ = build_ops(dim, precision)
    return fock_numeric._coherent(z, a.roots, a.bits, dim, fock_numeric.tolerance(precision))


def tail_mass(amps, bits):
    """The weight 1 - sum_n (amps[n] / 2^bits)^2 lost to truncation, exact."""
    return max(Fraction(0), 1 - Fraction(sum(a * a for a in amps), 1 << 2 * bits))


def single_power_reference(p, n, z, dim, precision, check_stability):
    """<z|[(a+)^r a^s]^n|z> by the single-n path: one table at dim + 16, a
    narrow and a wide pass from the start, one sum; the value is the wide one."""
    ops = build_ops(dim + 16 if check_stability else dim, precision)
    bits = ops[0].bits
    amps = fock_numeric._coherent(z, ops[0].roots, bits, dim, fock_numeric.tolerance(precision))

    def once(amps, ops):
        vec = list(amps)
        for _ in range(n):
            for op in [ops[0]] * p.s + [ops[1]] * p.r:
                vec = apply_operator(op, vec)
        return sum(b * x for b, x in zip(amps, vec))

    value = once(amps[:dim], [replace(op, roots=op.roots[:dim]) for op in ops])
    if check_stability:
        value = once(amps, ops)
    with mp.workprec(precision):
        return mp.ldexp(mp.mpf(value), -2 * bits)


def test_public_surface():
    # one expectation function; build_ops and apply_operator stay for audits
    public = {name for name, obj in vars(fock_numeric).items()
              if not name.startswith("_") and getattr(obj, "__module__", None) == fock_numeric.__name__}
    assert public == {"dimension_for", "tolerance", "FockTruncationError", "FockOperator",
                      "build_ops", "apply_operator", "expectation_table"}


class TestBuildOps:
    def test_minimal_annihilator(self):
        a, adag = build_ops(2)
        nonzero = [(i, j) for i in range(2) for j in range(2) if a.entry(i, j)]
        assert nonzero == [(0, 1)]
        assert a.entry(0, 1) == 1
        assert adag.entry(1, 0) == 1

    def test_number_operator_diagonal(self):
        # a+ a e_n = floor(sqrt(n) 2^F)^2 >> F at n, exactly: n itself for
        # perfect squares, and less than 2 sqrt(n) + 1 units of 2^-F below it
        a, adag = build_ops(3)
        bits = a.bits
        assert bits == 256 + 64
        for n in range(3):
            e_n = [1 << bits if i == n else 0 for i in range(3)]
            out = apply_operator(adag, apply_operator(a, e_n))
            assert out[n] == math.isqrt(n << 2 * bits) ** 2 >> bits
            assert 0 <= (n << bits) - out[n] < 2 * math.sqrt(n) + 1
            assert all(out[i] == 0 for i in range(3) if i != n)
            if n in (0, 1):
                assert out[n] == n << bits

    def test_commutator_corner(self):
        # sqrt entries are rounded down to the operator's 2^-F, so the
        # commutator reproduces 1 (and the corner artifact 1-D) to within
        # 2 sqrt(dim) + 1 units of 2^-F, far inside the former 2^-120
        dim = 64
        a, adag = build_ops(dim, precision=128)
        bits = a.bits
        eps = 1 << (bits - 120)
        units = 2 * math.isqrt(dim) + 1
        assert units < eps
        for n in (0, 17, dim - 2):
            e_n = [1 << bits if i == n else 0 for i in range(dim)]
            comm = [x - y for x, y in zip(
                apply_operator(a, apply_operator(adag, e_n)),
                apply_operator(adag, apply_operator(a, e_n)))]
            assert abs(comm[n] - (1 << bits)) <= units
            assert all(c == 0 for i, c in enumerate(comm) if i != n)
        e_top = [1 << bits if i == dim - 1 else 0 for i in range(dim)]
        comm = [x - y for x, y in zip(
            apply_operator(a, apply_operator(adag, e_top)),
            apply_operator(adag, apply_operator(a, e_top)))]
        assert abs(comm[dim - 1] - ((1 - dim) << bits)) <= units
        assert all(c == 0 for c in comm[:-1])


class TestBandedOperators:
    @pytest.mark.parametrize("precision", [64, 300])
    def test_apply_equals_the_sum_over_entries(self, precision):
        # entries are the exact rationals root / 2^F, F = precision + 64, and each
        # output is the floor of the exact row sum: (r * x) >> F == floor(Fraction(r, 2^F) * x)
        dim = 12
        for op in build_ops(dim, precision=precision):
            bits = op.bits
            assert bits == precision + 64
            vec = [((j + 1) << bits) // 3 - math.isqrt((j + 2) << 2 * bits) for j in range(dim)]
            assert min(vec) < 0 < max(vec)
            got = apply_operator(op, vec)
            want = [math.floor(sum(op.entry(i, j) * vec[j] for j in range(dim)))
                    for i in range(dim)]
            assert got == want
            for r, x in zip(op.roots, vec):
                assert (r * x) >> bits == math.floor(Fraction(r, 1 << bits) * x)

    def test_wrong_vector_length_rejected(self):
        a, adag = build_ops(4)
        for op in (a, adag):
            with pytest.raises(ValueError, match="does not match dim"):
                apply_operator(op, [1 << op.bits] * 5)

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
    # at the default 256 bits the amplitudes, and the operators built at the
    # same precision, are integers scaled by 2^320
    BITS = 256 + 64

    def test_vacuum(self):
        amps = coherent_amps(0, 8)
        assert amps[0] == 1 << self.BITS
        assert all(a == 0 for a in amps[1:])
        assert tail_mass(amps, self.BITS) == 0

    def test_unit_tail_mass_tiny(self):
        assert tail_mass(coherent_amps(1, 64), self.BITS) < Fraction(1, 10**60)

    def test_eigenrelation_residual(self):
        dim = 64
        amps = coherent_amps(1, dim)
        a, _ = build_ops(dim)
        assert a.bits == self.BITS
        out = apply_operator(a, list(amps))
        residual = [x - y for x, y in zip(out, amps)]
        # |residual| < 1e-40, squared and scaled by 2^(2F)
        assert sum(x * x for x in residual) * 10**80 < 1 << 2 * self.BITS

    def test_number_expectation_at_one(self):
        amps = coherent_amps(1, 64)
        a, adag = build_ops(64)
        assert a.bits == adag.bits == self.BITS
        out = apply_operator(adag, apply_operator(a, list(amps)))
        value = sum(b * x for b, x in zip(amps, out))  # scaled by 2^(2F)
        assert abs(value - (1 << 2 * self.BITS)) * 10**50 < 1 << 2 * self.BITS

    @pytest.mark.parametrize("precision", [16, 64, 256, 2048])
    @pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(1)])
    def test_operators_and_vector_at_the_same_precision_pair_up(self, precision, z):
        # build_ops and the coherent amplitudes read one precision on one scale
        # 2^F: q a|z> - p|z> (z = p/q) is a few units of 2^-F in every component
        # but the top, where a's truncation leaves exactly -p amps[D-1]
        dim = fock_numeric.dimension_for(precision)
        amps = coherent_amps(z, dim, precision)
        a, _ = build_ops(dim, precision)
        assert a.bits == precision + 64
        out = apply_operator(a, list(amps))
        residual = [x * z.denominator - z.numerator * y for x, y in zip(out, amps)]
        assert all(abs(x) < 64 for x in residual[:-1])
        assert residual[-1] == -z.numerator * amps[-1]

    def test_small_dimension_rejected(self):
        with pytest.raises(FockTruncationError, match="at dim=4$"):
            coherent_amps(2, 4, precision=64)


# words that reach their strip's bottom through a and a+ in every mix:
# r = s, r > s and r < s, with heights 1 to 3
STRIP_WORDS = SUITE_WORDS + ((1, 3, 4), (3, 1, 2), (3, 3, 2), (2, 3, 3))


def full_prefix_sums(p, n, amps, ops, dim):
    """The wide and narrow sums after 1, ..., n words by two full passes,
    the narrow one on amps[:dim] and the dim-wide prefix of the table."""
    def sums(amps, ops):
        vec, out = list(amps), []
        for _ in range(n):
            for op in [ops[0]] * p.s + [ops[1]] * p.r:
                vec = apply_operator(op, vec)
            out.append(sum(b * x for b, x in zip(amps, vec)))
        return out

    return sums(amps, ops), sums(amps[:dim], [replace(op, roots=op.roots[:dim]) for op in ops])


class TestNarrowStrip:
    @pytest.mark.parametrize("precision", [16, 256])
    @pytest.mark.parametrize("r,s,n", STRIP_WORDS)
    def test_strip_sums_equal_a_full_narrow_pass_bit_for_bit(self, r, s, n, precision):
        # the narrow sums come from the strip [lo - 1, dim) and the shared
        # head, on dims from the smallest legal one, where the strip starts
        # at entry 0, up to 128; z = 0 leaves all but the vacuum at zero
        p = Params(r, s)
        smallest = n * max(r, s) + 2
        for dim in (smallest, smallest + 1, smallest + 16, 64, 128):
            ops = build_ops(dim + fock_numeric.STABILITY_STEP, precision)
            bits = ops[0].bits
            for z in (0, Fraction(1, 2), 1, 2):
                # threshold 1 accepts any tail: z = 2 on dim 8 loses most of it
                amps = fock_numeric._coherent(z, ops[0].roots, bits, dim, 1)
                got = fock_numeric._expectation_prefixes(p, n, amps, ops, dim)
                assert got == full_prefix_sums(p, n, amps, ops, dim), (dim, z)


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

    def test_one_sqrt_table_per_expectation(self, monkeypatch):
        # one table per call, whether it returns one power or all of 1..n
        dims = []

        def counting_build_ops(dim, precision):
            dims.append(dim)
            return build_ops(dim, precision)

        monkeypatch.setattr(fock_numeric, "build_ops", counting_build_ops)
        expectation_power(Params(2, 1), 2, Fraction(1, 2), 128)
        assert dims == [144]
        expectation_table([(Params(1, 1), 6)], [1], 128)
        assert dims == [144] * 2

    def test_operators_and_coherent_vector_share_one_sqrt_table(self, monkeypatch):
        # build_ops at dim + 16 takes all 144 roots, math.isqrt(n << 2F) for
        # n = 0..143; the one coherent vector reads the same table instead of
        # its own, with one mpmath exp call, and the narrow pass reads its prefix
        calls = {"isqrt": [], "sqrt": [], "exp": []}

        def counting(name, fn):
            def wrapper(x):
                calls[name].append(x)
                return fn(x)
            return wrapper

        monkeypatch.setattr(math, "isqrt", counting("isqrt", math.isqrt))
        monkeypatch.setattr(mp, "sqrt", counting("sqrt", mp.sqrt))
        monkeypatch.setattr(mp, "exp", counting("exp", mp.exp))
        expectation_power(Params(1, 1), 3, 1, 128)
        assert calls["isqrt"] == [n << 2 * (256 + 64) for n in range(144)]
        assert calls["sqrt"] == []
        assert len(calls["exp"]) == 1

    def test_amplitudes_from_a_wider_table_start_with_the_narrow_ones(self):
        # build_ops and the coherent amplitudes share one scale 2^(precision +
        # 64); the vector on a wider table starts with the narrow one. Each
        # floor loses under one unit of 2^-F and the steps z/sqrt(n) damp the
        # carried error, so every amplitude is within 5 units of its value
        z = Fraction(3, 2)
        for precision in (64, 256, 2048):
            bits = precision + 64
            a, _ = build_ops(40, precision)
            wide, _ = build_ops(56, precision)
            assert a.bits == wide.bits == bits
            # dim 40 loses about 2^-113 of the mass at z = 3/2; accept any tail
            own = fock_numeric._coherent(z, a.roots, bits, 40, 1)
            from_wide = fock_numeric._coherent(z, wide.roots, bits, 40, 1)
            assert len(own) == 40 and len(from_wide) == 56
            assert from_wide[:40] == own
            assert all(type(x) is int for x in own)
            with mp.workprec(bits + 64):
                for n, amp in enumerate(own):
                    exact = mp.sqrt(mp.exp(-mp.mpf(z.numerator ** 2) / z.denominator ** 2)
                                    * mp.mpf(z.numerator ** 2) ** n
                                    / (z.denominator ** (2 * n) * mp.factorial(n)))
                    assert abs(amp - mp.ldexp(exact, bits)) < 5, (precision, n)

    def test_apply_and_build_counts_of_one_expectation(self, monkeypatch):
        # 2 passes x n = 3 x (s + r) = 3 letters: 18 applications, each letter
        # on the dim-144 table, built once, after the 8-entry strip [lo - 1,
        # 128) of the narrow vector, lo = 128 - 3 * 2 - 1; the values for
        # n = 1 and 2 come from the same pass at no extra step
        built, applied = [], []
        build_ops_, apply_operator_ = fock_numeric.build_ops, fock_numeric.apply_operator

        def counting_build_ops(dim, precision):
            built.append(dim)
            return build_ops_(dim, precision)

        def counting_apply(op, vec):
            applied.append(op.dim)
            return apply_operator_(op, vec)

        monkeypatch.setattr(fock_numeric, "build_ops", counting_build_ops)
        monkeypatch.setattr(fock_numeric, "apply_operator", counting_apply)
        expectation_table([(Params(2, 1), 3)], [Fraction(1, 2)], 128)
        assert built == [144]
        assert applied == [8, 144] * 9

    @pytest.mark.parametrize("precision", [64, 256])
    def test_every_fock_suite_case_is_exact(self, precision):
        # the exact values are short dyadic rationals, so with the guard bits
        # every rounded value lands on its exact value; dropping the guard
        # bits leaves errors near 2^-precision that the suite tolerance hides
        cases = [(1, 1, n) for n in range(1, 7)]
        cases += [(r, s, n) for (r, s) in ((2, 1), (2, 2), (1, 2)) for n in range(1, 4)]
        dim = fock_numeric.dimension_for(precision)
        for (r, s, n) in cases:
            p = Params(r, s)
            for z in (Fraction(1, 2), Fraction(1)):
                value = expectation_power(p, n, z, dim, precision)
                exact = z ** (n * abs(r - s)) * bell_polynomial(p, n, z * z)
                assert value.to_fraction() == exact, (r, s, n, z)

    def test_powers_return_every_prefix_in_order(self):
        values = expectation_table([(Params(1, 1), 6)], [1], 128)[Params(1, 1), 6, 1]
        assert [v.to_fraction() for v in values] == [1, 2, 5, 15, 52, 203]
        assert values[-1] == expectation_power(Params(1, 1), 6, 1, 128)

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    def test_prefix_values_equal_the_single_power_path_bit_for_bit(self, precision):
        dim = fock_numeric.dimension_for(precision)
        for (r, s, top) in SUITE_WORDS:
            p = Params(r, s)
            for z in (Fraction(1, 2), Fraction(1)):
                values = expectation_table([(p, top)], [z], dim, precision)[p, top, z]
                assert len(values) == top
                for n, value in enumerate(values, 1):
                    assert value.precision_bits == precision
                    assert value.value == single_power_reference(
                        p, n, z, dim, precision, check_stability=True), (r, s, n, z)

    def test_stability_test_reads_every_power_not_only_the_last(self, monkeypatch):
        # move the wide pass's n = 1 sum by 1 (2^(2F) in its units), far past
        # 2^-128; the values for n = 2 and 3 are untouched
        prefixes = fock_numeric._expectation_prefixes

        def moved_first_wide_sum(p, n, amps, ops, dim):
            wide, narrow = prefixes(p, n, amps, ops, dim)
            wide[0] += 1 << 2 * ops[0].bits
            return wide, narrow

        monkeypatch.setattr(fock_numeric, "_expectation_prefixes", moved_first_wide_sum)
        with pytest.raises(FockTruncationError, match=r"^value moved by 1\.0 when widening dim 128 -> 144$"):
            expectation_power(Params(1, 1), 3, 1, 128)
        monkeypatch.undo()
        assert expectation_power(Params(1, 1), 3, 1, 128).to_fraction() == 5

    def test_truncation_rejected_when_word_cannot_fit(self):
        with pytest.raises(FockTruncationError):
            expectation_power(Params(3, 1), 5, 1, 8)

    def test_every_word_is_checked_before_any_table_is_built(self, monkeypatch):
        # a bad word anywhere in the list stops the call before build_ops
        built = []
        monkeypatch.setattr(fock_numeric, "build_ops", lambda dim, precision: built.append(dim))
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            expectation_table([(Params(1, 1), 3), (Params(2, 1), 0)], [1], 128)
        with pytest.raises(FockTruncationError, match="^dim=8 cannot hold 3 applications of a word of height 3$"):
            expectation_table([(Params(1, 1), 3), (Params(3, 1), 3)], [1], 8)
        assert built == []

    def test_one_table_for_many_words_equals_one_table_per_word(self):
        # the words share one sqrt table and one coherent vector per z, and
        # each value is the one its own one-word, one-z table gives, bit for bit
        words = [(Params(r, s), n) for (r, s, n) in SUITE_WORDS]
        zs = (Fraction(1, 2), Fraction(1))
        table = expectation_table(words, zs, 128)
        assert set(table) == {(p, n, z) for p, n in words for z in zs}
        for p, n in words:
            for z in zs:
                assert table[p, n, z] == expectation_table([(p, n)], [z], 128)[p, n, z]

    def test_error_shrinks_with_dimension(self):
        # z = 2 pushes the knee high enough that truncation is visible
        p = Params(2, 2)
        exact = bell_polynomial(p, 3, 4)
        errors = []
        for dim in (56, 64, 80):
            v = single_power_reference(p, 3, 2, dim, 256, check_stability=False)
            errors.append(abs(mpf_to_fraction(v) - exact))
        assert errors[0] > errors[1] > errors[2]

    def test_tail_mass_guard_rejects_small_dimensions(self):
        with pytest.raises(FockTruncationError):
            expectation_power(Params(2, 2), 3, 2, 32)

    def test_tail_guard_reads_the_narrow_prefix(self):
        # the one coherent vector spans dim + 16, but its guard judges dim
        with pytest.raises(FockTruncationError, match="above threshold at dim=32$"):
            expectation_power(Params(2, 2), 3, 2, 32)

    def test_stability_check_catches_visible_truncation(self):
        # at dim 56 the value still moves by ~4e-33 when widening, which the
        # default 2^-128 stability tolerance must flag
        with pytest.raises(FockTruncationError, match="when widening dim 56 -> 72$"):
            expectation_power(Params(2, 2), 3, 2, 56)


class TestNormalFormFaithfulness:
    @pytest.mark.parametrize("word", ["aA", "aAaA", "AaaAA", "aaAAa", "AAaaAa"])
    def test_normal_form_acts_like_the_word_on_basis_vectors(self, word):
        """normalize(w) and the literal word w agree column by column on
        basis states far enough below the truncation boundary."""
        from bosonbell.boson_oracle import normalize

        dim = 32
        a, adag = build_ops(dim, precision=256)
        bits = a.bits
        nf = normalize(word)
        for n in (0, 3, 9):
            e_n = [1 << bits if i == n else 0 for i in range(dim)]
            direct = e_n
            for letter in reversed(word):
                direct = apply_operator(a if letter == "a" else adag, direct)
            via_nf = [0] * dim
            for (i, j), c in nf.terms.items():
                part = e_n
                for _ in range(j):
                    part = apply_operator(a, part)
                for _ in range(i):
                    part = apply_operator(adag, part)
                via_nf = [acc + c * x for acc, x in zip(via_nf, part)]
            # components above dim - len(word) may differ by truncation;
            # below, they agree to 2^-200 of max(1, |direct|), in units of 2^-F
            safe = dim - len(word)
            scale = max(1 << bits, max(abs(x) for x in direct[:safe]))
            assert all(abs(x - y) << 200 < scale
                       for x, y in zip(direct[:safe], via_nf[:safe]))


class TestKatriel:
    def test_dimension_follows_precision(self):
        # a fixed dim 128 holds the coherent vector only to about 1400 bits;
        # <1|(a+ a)^3|1> = B(3) = 5 on dim 256 at 2048 bits
        assert fock_numeric.dimension_for(2048) == 256
        value = expectation_power(Params(1, 1), 3, 1, 256, 2048)
        assert abs(value.to_fraction() - 5) <= fock_numeric.tolerance(2048) * 5
