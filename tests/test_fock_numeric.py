import math
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp

from bosonbell import fock_numeric
from bosonbell.fock_numeric import (
    FockTruncationError,
    apply_operator,
    build_ops,
    expectation_table,
)
from bosonbell.stirling_bell import Params, bell_polynomial

# the words of the verify fock suite, each with its highest power, and its zs
SUITE_WORDS = ((1, 1, 6), (2, 1, 3), (2, 2, 3), (1, 2, 3))
SUITE = [(Params(r, s), n) for r, s, n in SUITE_WORDS]
SUITE_ZS = (Fraction(1, 2), Fraction(1))

# a fixed scale for the kernel tests, which take F as given
BITS = 320


def expectation_power(p, n, z, dim, precision=256):
    """<z|[(a+)^r a^s]^n|z>: the last (value, bound) of the one-word, one-z table."""
    return expectation_table([(p, n)], [z], dim, precision)[p, n, z][-1]


def exact_value(p, n, z):
    return z ** (n * abs(p.r - p.s)) * bell_polynomial(p, n, z * z)


def rounding_part(p, k, z, dim, bits):
    """The rounding part of the bound of the k-th value of word p at z on
    ``dim`` states at F = ``bits``: the bound with no truncation slack."""
    letters = k * (p.r + p.s)
    return Fraction(fock_numeric._rounding_units(dim, letters, fock_numeric._amplitude_units(z)), 1 << bits)


def padded(amps, dim):
    """The coherent support ``amps`` as a full vector on ``dim`` entries."""
    return list(amps) + [0] * (dim - len(amps))


def coherent_amps(z, dim, bits=BITS, threshold=Fraction(1, 2**128)):
    """The coherent amplitudes on their own dim-entry table, scaled by 2^bits,
    up to the first that rounds to zero, under the tail guard at ``threshold``."""
    a, _ = build_ops(dim, bits)
    return fock_numeric._coherent(z, a.roots, bits, dim, threshold)


def tail_mass(amps, bits):
    """The weight 1 - sum_n (amps[n] / 2^bits)^2 lost to truncation, exact."""
    return max(Fraction(0), 1 - Fraction(sum(a * a for a in amps), 1 << 2 * bits))


def single_power_reference(p, n, z, dim, bits):
    """The 2^(2bits)-scaled sum <z|[(a+)^r a^s]^n|z> on ``dim`` states by a
    full pass: the coherent vector padded with zeros to the whole table and
    every entry stepped at every letter, one sum at the end."""
    ops = build_ops(dim, bits)
    # threshold 1 accepts any tail: the small dims of the truncation tests lose weight
    amps = padded(fock_numeric._coherent(z, ops[0].roots, bits, dim, 1), dim)
    vec = list(amps)
    for _ in range(n):
        for op in [ops[0]] * p.s + [ops[1]] * p.r:
            vec = apply_operator(op, vec)
    return sum(b * x for b, x in zip(amps, vec))


def test_public_surface():
    # one expectation function; build_ops and apply_operator stay for audits
    public = {name for name, obj in vars(fock_numeric).items()
              if not name.startswith("_") and getattr(obj, "__module__", None) == fock_numeric.__name__}
    assert public == {"dimension_for", "tolerance", "FockTruncationError", "FockOperator",
                      "build_ops", "apply_operator", "expectation_table"}


class TestBuildOps:
    def test_minimal_annihilator(self):
        # one table (sqrt 0, sqrt 1) at scale 2^F: a maps |1> to |0>, a+ |0> to |1>
        a, adag = build_ops(2, BITS)
        assert a.roots == adag.roots == (0, 1 << BITS)
        assert (a.shift, adag.shift, a.bits) == (1, -1, BITS)

    def test_number_operator_diagonal(self):
        # a+ a e_n = floor(sqrt(n) 2^F)^2 >> F at n, exactly: n itself for
        # perfect squares, and less than 2 sqrt(n) + 1 units of 2^-F below it
        a, adag = build_ops(3, BITS)
        for n in range(3):
            e_n = [1 << BITS if i == n else 0 for i in range(3)]
            out = apply_operator(adag, apply_operator(a, e_n))
            assert out[n] == math.isqrt(n << 2 * BITS) ** 2 >> BITS
            assert 0 <= (n << BITS) - out[n] < 2 * math.sqrt(n) + 1
            assert all(out[i] == 0 for i in range(3) if i != n)
            if n in (0, 1):
                assert out[n] == n << BITS

    def test_commutator_corner(self):
        # sqrt entries are rounded down to the operator's 2^-F, so the
        # commutator reproduces 1 (and the corner artifact 1-D) to within
        # 2 sqrt(dim) + 1 units of 2^-F, far inside 2^-120
        dim = 64
        bits = 192
        a, adag = build_ops(dim, bits)
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

    @pytest.mark.parametrize("bits", [-100, -5, 0])
    def test_fraction_bits_below_one_rejected(self, bits):
        # checked before the table: -100 would be a negative shift count
        with pytest.raises(ValueError, match=f"^bits must be >= 1, got {bits}$"):
            build_ops(4, bits)


class TestBandedOperators:
    @staticmethod
    def entry(op, i, j):
        """The exact matrix entry: roots[max(i, j)] / 2^bits on the band, else 0."""
        return Fraction(op.roots[max(i, j)], 1 << op.bits) if j - i == op.shift else 0

    @pytest.mark.parametrize("bits", [128, 364])
    def test_apply_equals_the_sum_over_entries(self, bits):
        # entries are the exact rationals root / 2^F, and each output is the
        # floor of the exact row sum: (r * x) >> F == floor(Fraction(r, 2^F) * x)
        dim = 12
        for op in build_ops(dim, bits):
            assert op.bits == bits
            vec = [((j + 1) << bits) // 3 - math.isqrt((j + 2) << 2 * bits) for j in range(dim)]
            assert min(vec) < 0 < max(vec)
            got = apply_operator(op, vec)
            want = [math.floor(sum(self.entry(op, i, j) * vec[j] for j in range(dim)))
                    for i in range(dim)]
            assert got == want
            for r, x in zip(op.roots, vec):
                assert (r * x) >> bits == math.floor(Fraction(r, 1 << bits) * x)

    def test_wrong_vector_length_rejected(self):
        a, adag = build_ops(4, BITS)
        for op in (a, adag):
            with pytest.raises(ValueError, match="does not match dim"):
                apply_operator(op, [1 << op.bits] * 5)

    @pytest.mark.parametrize("dim", [1, 0])
    def test_dimension_below_two_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            build_ops(dim, BITS)


class TestCoherentState:
    # the amplitudes, and the operators built at the same scale, are
    # integers scaled by 2^BITS

    def test_vacuum(self):
        # every amplitude past the vacuum rounds to zero, so the support is |0>
        amps = coherent_amps(0, 8)
        assert amps == (1 << BITS,)
        assert tail_mass(amps, BITS) == 0

    def test_unit_tail_mass_tiny(self):
        assert tail_mass(coherent_amps(1, 64), BITS) < Fraction(1, 10**60)

    def test_eigenrelation_residual(self):
        dim = 64
        amps = padded(coherent_amps(1, dim), dim)
        a, _ = build_ops(dim, BITS)
        out = apply_operator(a, amps)
        residual = [x - y for x, y in zip(out, amps)]
        # |residual| < 1e-40, squared and scaled by 2^(2F)
        assert sum(x * x for x in residual) * 10**80 < 1 << 2 * BITS

    def test_number_expectation_at_one(self):
        amps = padded(coherent_amps(1, 64), 64)
        a, adag = build_ops(64, BITS)
        out = apply_operator(adag, apply_operator(a, amps))
        value = sum(b * x for b, x in zip(amps, out))  # scaled by 2^(2F)
        assert abs(value - (1 << 2 * BITS)) * 10**50 < 1 << 2 * BITS

    @pytest.mark.parametrize("precision", [16, 64, 256, 2048])
    @pytest.mark.parametrize("z", SUITE_ZS)
    def test_operators_and_vector_at_the_same_scale_pair_up(self, precision, z):
        # build_ops and the coherent amplitudes read one F on one scale 2^F,
        # the suite's at this precision: q a|z> - p|z> (z = p/q) is a few
        # units of 2^-F in every component but the top, where a's truncation
        # leaves exactly -p amps[D-1].  The support ends where the amplitudes
        # round to zero, short of dim up to 1024 bits, and the entries above
        # it are exact zeros
        dim = fock_numeric.dimension_for(precision, SUITE, SUITE_ZS)
        bits = fock_numeric._fraction_bits(precision, SUITE, SUITE_ZS, dim + 16)
        support = coherent_amps(z, dim, bits, fock_numeric.tolerance(precision))
        assert (len(support) < dim) == (precision < 2048)
        amps = padded(support, dim)
        a, _ = build_ops(dim, bits)
        out = apply_operator(a, amps)
        residual = [x * z.denominator - z.numerator * y for x, y in zip(out, amps)]
        assert all(abs(x) < 64 for x in residual[:-1])
        assert residual[-1] == -z.numerator * amps[-1]
        assert residual[len(support):] == [0] * (dim - len(support))

    def test_small_dimension_rejected(self):
        with pytest.raises(FockTruncationError, match="at dim=4$"):
            coherent_amps(2, 4, threshold=Fraction(1, 2**32))


# words that reach their strip's bottom through a and a+ in every mix:
# r = s, r > s and r < s, with heights 1 to 3
STRIP_WORDS = SUITE_WORDS + ((1, 3, 4), (3, 1, 2), (3, 3, 2), (2, 3, 3))


def full_prefix_sums(p, n, amps, ops, dim):
    """The wide and narrow sums after 1, ..., n words by two full passes,
    the narrow one on amps[:dim] and the dim-wide prefix of the table, each
    stepping every entry of the support ``amps`` padded with zeros."""
    def sums(amps, ops):
        vec, out = list(amps), []
        for _ in range(n):
            for op in [ops[0]] * p.s + [ops[1]] * p.r:
                vec = apply_operator(op, vec)
            out.append(sum(b * x for b, x in zip(amps, vec)))
        return out

    wide = padded(amps, ops[0].dim)
    return sums(wide, ops), sums(wide[:dim], [replace(op, roots=op.roots[:dim]) for op in ops])


class TestNarrowStrip:
    @pytest.mark.parametrize("bits", [80, BITS])
    @pytest.mark.parametrize("r,s,n", STRIP_WORDS)
    def test_strip_sums_equal_a_full_narrow_pass_bit_for_bit(self, r, s, n, bits):
        # the narrow sums come from the strip [lo - 1, dim) and the shared
        # head, on dims from the smallest legal one, where the strip starts
        # at entry 0, up to 128; z = 0 leaves all but the vacuum at zero
        p = Params(r, s)
        smallest = n * max(r, s) + 2
        for dim in (smallest, smallest + 1, smallest + 16, 64, 128):
            ops = build_ops(dim + fock_numeric.STABILITY_STEP, bits)
            for z in (0, Fraction(1, 2), 1, 2):
                # threshold 1 accepts any tail: z = 2 on dim 8 loses most of it
                amps = fock_numeric._coherent(z, ops[0].roots, bits, dim, 1)
                got = fock_numeric._expectation_prefixes(p, n, amps, ops, dim)
                assert got == full_prefix_sums(p, n, amps, ops, dim), (dim, z)

    @pytest.mark.parametrize("r,s,n", [(r, s, n) for r, s, n in STRIP_WORDS if s > r])
    def test_a_strip_one_entry_higher_changes_a_narrow_sum(self, monkeypatch, r, s, n):
        # the lowest entry where the narrow and wide vectors differ reaches
        # dim - s - (n-1)*(s-r) in the last word, so a strip from there + 1 up
        # copies a wide entry where the narrow one differs.  With r >= s each
        # word ends with the two vectors equal below dim, so no narrow sum
        # can show it there.
        p = Params(r, s)
        dim = 64
        ops = build_ops(dim + fock_numeric.STABILITY_STEP, BITS)
        amps = fock_numeric._coherent(2, ops[0].roots, BITS, dim, 1)
        exact = full_prefix_sums(p, n, amps, ops, dim)
        assert fock_numeric._expectation_prefixes(p, n, amps, ops, dim) == exact
        bottom = fock_numeric._strip_bottom
        monkeypatch.setattr(fock_numeric, "_strip_bottom", lambda *args: bottom(*args) + 1)
        wide, narrow = fock_numeric._expectation_prefixes(p, n, amps, ops, dim)
        assert wide == exact[0] and narrow != exact[1]

    @pytest.mark.parametrize("r,s,n", [(r, s, n) for r, s, n in STRIP_WORDS if r >= s])
    def test_a_word_with_r_at_least_s_steps_no_strip(self, monkeypatch, r, s, n):
        # each such word ends with the narrow vector equal to the wide one
        # below dim, so only the wide vector is stepped, through cuts of the
        # wide table, and every narrow sum is that vector cut at dim; z = 2
        # leaves weight above dim
        p = Params(r, s)
        dim = 64
        ops = build_ops(dim + fock_numeric.STABILITY_STEP, BITS)
        amps = fock_numeric._coherent(2, ops[0].roots, BITS, dim, 1)
        vec, cut = padded(amps, ops[0].dim), []
        for _ in range(n):
            for op in [ops[0]] * s + [ops[1]] * r:
                vec = apply_operator(op, vec)
            cut.append(sum(b * x for b, x in zip(amps[:dim], vec[:dim])))
        stepped = []

        def recording_apply(op, vec):
            stepped.append(op.roots == ops[0].roots[:op.dim])
            return apply_operator(op, vec)

        monkeypatch.setattr(fock_numeric, "apply_operator", recording_apply)
        wide, narrow = fock_numeric._expectation_prefixes(p, n, amps, ops, dim)
        assert stepped == [True] * (n * (r + s))
        assert narrow == cut and narrow != wide


def support_dims(p, n, top, wide):
    """The dims of the cut operators that step one word pass from a support
    of ``top`` entries: an a steps [0, top) and lowers top by one, an a+
    raises it by one, capped at ``wide``, and steps the raised support."""
    dims = []
    for _ in range(n):
        for shift in [1] * p.s + [-1] * p.r:
            if shift > 0:
                dims.append(top)
                top -= 1
            else:
                top = min(top + 1, wide)
                dims.append(top)
    return dims


class TestSupportStepping:
    @pytest.mark.parametrize("r,s,n", STRIP_WORDS)
    def test_the_support_stepped_pass_equals_a_full_pass_integer_for_integer(self, r, s, n):
        # every entry from the first zero amplitude up is an exact zero, so
        # stepping the support alone gives the integers of stepping every
        # entry; at the suite's 180 bits z = 2 fills the whole table, the
        # others stop short of it
        p = Params(r, s)
        dim, bits = 64, 180
        wide = dim + fock_numeric.STABILITY_STEP
        ops = build_ops(wide, bits)
        for z in (0, Fraction(1, 2), Fraction(3, 4), 1, 2):
            amps = fock_numeric._coherent(z, ops[0].roots, bits, dim, 1)
            assert (len(amps) < wide) == (z != 2)
            got, _ = fock_numeric._expectation_prefixes(p, n, amps, ops, dim)
            assert got == [single_power_reference(p, k, z, wide, bits) for k in range(1, n + 1)], z

    def test_the_suite_steps_only_the_support(self, monkeypatch):
        # at the suite's 180 bits the amplitudes at z = 1/2 and 1 end at 56
        # and 75 of the 144 entries; each letter steps a cut of the table
        # that spans the support, which an a lowers and an a+ raises
        applied = []
        monkeypatch.setattr(fock_numeric, "apply_operator",
                            lambda op, vec: applied.append(op.dim) or apply_operator(op, vec))
        p, n, dim = Params(2, 1), 3, 128
        ops = build_ops(dim + 16, 180)
        for z, top in ((Fraction(1, 2), 56), (1, 75)):
            amps = fock_numeric._coherent(z, ops[0].roots, 180, dim, 1)
            assert len(amps) == top
            applied.clear()
            fock_numeric._expectation_prefixes(p, n, amps, ops, dim)
            assert applied == support_dims(p, n, top, dim + 16)
            assert applied == [top, top, top + 1, top + 1, top + 1, top + 2, top + 2, top + 2, top + 3]


class TestErrorBudget:
    @pytest.mark.parametrize("precision", [16, 256, 2048])
    def test_every_suite_value_is_within_its_bound_and_the_bound_within_tolerance(self, precision):
        # |value - exact| <= bound <= tolerance * max(1, |exact|) for every
        # case of the suite, at its z = 1/2 and 1 and at z = 3/4, whose
        # amplitudes step with a larger carried error
        zs = SUITE_ZS + (Fraction(3, 4),)
        dim = fock_numeric.dimension_for(precision, SUITE, zs)
        table = expectation_table(SUITE, zs, dim, precision)
        tol = fock_numeric.tolerance(precision)
        for p, top in SUITE:
            for z in zs:
                for n, (value, bound) in enumerate(table[p, top, z], 1):
                    exact = exact_value(p, n, z)
                    assert abs(value - exact) <= bound <= tol * max(1, abs(exact)), (p, n, z)
                    assert value.denominator <= 1 << 2 * fock_numeric._fraction_bits(
                        precision, SUITE, zs, dim + 16)

    @pytest.mark.parametrize("precision,dim,bits", [
        (16, 128, 60), (64, 128, 84), (256, 128, 180), (1024, 128, 564),
        (2048, 177, 1079), (4096, 307, 2108), (8192, 543, 4161), (16384, 973, 8262),
    ])
    def test_the_suite_sizes_are_the_fewest_that_meet_the_budget(self, precision, dim, bits):
        # D is the smallest dimension of at least 128, and F the fewest bits,
        # that hold the truncation and the rounding part to tolerance/2 each
        half = fock_numeric.tolerance(precision) / 2
        assert fock_numeric.dimension_for(precision, SUITE, SUITE_ZS) == dim
        assert fock_numeric._fraction_bits(precision, SUITE, SUITE_ZS, dim + 16) == bits
        rounding = fock_numeric._rounding_units(dim + 16, 12, 6)
        assert Fraction(rounding, 1 << bits) <= half < Fraction(rounding, 1 << bits - 1)
        if dim > 128:
            for d, met in ((dim, True), (dim - 1, False)):
                worst = max(Fraction(fock_numeric._truncation_units(p, n, 1, d, precision), 1 << precision)
                            for p, n in SUITE)
                assert (worst <= half) == met

    def test_the_rounding_part_is_its_derivation(self):
        # 3 sqrt(D')^L (L + A sqrt(D')) units of 2^-F, sqrt(D') rounded up
        # in the odd power and in A sqrt(D'); A = 6 at z = 1 and 4 at z = 1/2
        assert [fock_numeric._amplitude_units(z) for z in (0, Fraction(1, 2), Fraction(3, 4), 1)] == [4, 4, 5, 6]
        assert fock_numeric._rounding_units(144, 12, 6) == 3 * 12**12 * (12 + 6 * 12)
        assert fock_numeric._rounding_units(144, 9, 4) == 3 * 12**9 * (9 + 4 * 12)
        assert fock_numeric._rounding_units(193, 12, 6) == 3 * 193**6 * (12 + 6 * 14)
        assert fock_numeric._rounding_units(193, 9, 6) == 3 * 193**4 * 14 * (9 + 6 * 14)

    @pytest.mark.parametrize("z", [0, Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2), 2])
    def test_every_amplitude_is_within_its_units(self, z):
        # each amplitude, and each zero past the support, lies within A units
        # of 2^-F of e^(-z^2/2) z^m / sqrt(m!) 2^F, at every scale
        units = fock_numeric._amplitude_units(z)
        for bits in (40, 80, BITS):
            a, _ = build_ops(160, bits)
            amps = padded(fock_numeric._coherent(z, a.roots, bits, 160, 1), 160)
            with mp.workprec(bits + 64):
                x = mp.mpf(Fraction(z).numerator ** 2) / Fraction(z).denominator ** 2
                for m, amp in enumerate(amps):
                    exact = mp.sqrt(mp.exp(-x) * x**m / mp.factorial(m))
                    assert abs(amp - mp.ldexp(exact, bits)) <= units, (bits, m)

    @pytest.mark.parametrize("r,s,n", [(2, 2, 3), (1, 2, 3), (2, 1, 3), (1, 1, 6)])
    @pytest.mark.parametrize("dim", [32, 40, 48])
    def test_a_forced_small_dimension_stays_within_its_bound(self, r, s, n, dim):
        # at z = 2 a small dimension drops weight far above the rounding
        # part, and the truncation part of the bound covers it: a full pass
        # on dim states, at the F the suite's rule gives there, against the
        # bounds expectation_table would report for that pass
        p, z = Params(r, s), 2
        bits = fock_numeric._fraction_bits(256, [(p, n)], [z], dim)
        bounds = fock_numeric._bound_units(p, n, z, dim, bits)
        rounding = fock_numeric._rounding_units(dim, n * (r + s), fock_numeric._amplitude_units(z)) << bits
        for k, bound in enumerate(bounds, 1):
            err = abs(Fraction(single_power_reference(p, k, z, dim, bits), 1 << 2 * bits)
                      - exact_value(p, k, z))
            assert err <= Fraction(bound, 1 << 2 * bits), k
        # the last power's error is past its rounding part alone
        assert err > Fraction(rounding, 1 << 2 * bits)

    def test_no_truncation_bound_below_the_ratio_bound(self):
        # rho = z^2 (1 + 1/D')^ceil(L/2) / (D' + 1 - d) must be below 1
        assert fock_numeric._truncation_units(Params(2, 2), 3, 2, 4, 64) is None
        with pytest.raises(FockTruncationError, match="^dim=4 is too small to bound the truncation at z=2$"):
            fock_numeric._bound_units(Params(2, 2), 3, 2, 4, 64)


class TestExpectationPower:
    @pytest.mark.parametrize("r,s,n,z,expected", [
        (1, 1, 3, 1, 5),
        (2, 2, 2, 1, 7),
        (1, 1, 2, Fraction(1, 2), Fraction(5, 16)),
    ])
    def test_frozen_examples(self, r, s, n, z, expected):
        value, bound = expectation_power(Params(r, s), n, z, 128)
        assert abs(value - expected) <= bound <= Fraction(1, 10**30) * max(Fraction(expected), 1)

    def test_z_enters_only_through_its_square_on_the_diagonal(self):
        p = Params(2, 2)
        for z in (Fraction(1, 2), Fraction(1), Fraction(2)):
            value, bound = expectation_power(p, 2, z, 128)
            exact = bell_polynomial(p, 2, z * z)
            assert abs(value - exact) <= bound <= Fraction(1, 10**30) * exact

    def test_off_diagonal_prefactor(self):
        p = Params(2, 1)
        z = Fraction(1, 2)
        value, bound = expectation_power(p, 2, z, 128)
        exact = z**2 * bell_polynomial(p, 2, z * z)
        assert abs(value - exact) <= bound <= Fraction(1, 10**30)

    @pytest.mark.parametrize("precision", [64, 256])
    def test_hermitian_conjugate_word_gives_the_same_value(self, precision):
        # the two words share one exact value and one F, but round
        # differently: each value is within its own bound of the shared exact
        # value, and the two agree within their rounding parts alone, with no
        # truncation slack, and within 2^6 units of 2^-F (32-34 seen)
        z, forward_word, conjugate_word = Fraction(1, 2), Params(2, 1), Params(1, 2)
        exact = exact_value(forward_word, 3, z)
        assert exact_value(conjugate_word, 3, z) == exact
        bits = fock_numeric._fraction_bits(precision, [(forward_word, 3)], [z], 144)
        assert bits == fock_numeric._fraction_bits(precision, [(conjugate_word, 3)], [z], 144)
        forward, forward_bound = expectation_power(forward_word, 3, z, 128, precision)
        conjugate, conjugate_bound = expectation_power(conjugate_word, 3, z, 128, precision)
        assert abs(forward - exact) <= forward_bound and abs(conjugate - exact) <= conjugate_bound
        rounding = rounding_part(forward_word, 3, z, 144, bits)
        assert rounding == rounding_part(conjugate_word, 3, z, 144, bits)
        assert abs(forward - conjugate) <= 2 * rounding
        assert abs(forward - conjugate) <= Fraction(1 << 6, 1 << bits)

    def test_one_sqrt_table_per_expectation(self, monkeypatch):
        # one table per call, whether it returns one power or all of 1..n
        dims = []

        def counting_build_ops(dim, bits):
            dims.append(dim)
            return build_ops(dim, bits)

        monkeypatch.setattr(fock_numeric, "build_ops", counting_build_ops)
        expectation_power(Params(2, 1), 2, Fraction(1, 2), 128)
        assert dims == [144]
        expectation_table([(Params(1, 1), 6)], [1], 128)
        assert dims == [144] * 2

    def test_operators_and_coherent_vector_share_one_sqrt_table(self, monkeypatch):
        # build_ops at dim + 16 takes all 144 roots, math.isqrt(n << 2F) for
        # n = 0..143 at F = 159 for (1,1,3), its last isqrt calls; the error
        # budget takes a few before it, on small integers.  The one coherent
        # vector reads the same table instead of its own, with one mpmath exp
        bits = 159
        assert fock_numeric._fraction_bits(256, [(Params(1, 1), 3)], [1], 144) == bits
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
        assert calls["isqrt"][-144:] == [n << 2 * bits for n in range(144)]
        assert len(calls["isqrt"]) < 144 + 16 and max(calls["isqrt"][:-144]) < 1 << 16
        assert calls["sqrt"] == []
        assert len(calls["exp"]) == 1

    def test_amplitudes_from_a_wider_table_start_with_the_narrow_ones(self):
        # build_ops and the coherent amplitudes share one scale 2^F; the
        # vector on a wider table starts with the narrow one, and both end at
        # the first amplitude that rounds to zero, or at their table's end.
        # Each floor loses under one unit of 2^-F and the steps z/sqrt(n)
        # damp the carried error, so every amplitude is within 5 units of
        # its value
        z = Fraction(3, 2)
        for bits in (64, 128, 320, 2112):
            a, _ = build_ops(40, bits)
            wide, _ = build_ops(56, bits)
            # dim 40 loses about 2^-113 of the mass at z = 3/2; accept any tail
            own = fock_numeric._coherent(z, a.roots, bits, 40, 1)
            from_wide = fock_numeric._coherent(z, wide.roots, bits, 40, 1)
            assert from_wide[:40] == own
            assert len(own) == min(40, len(from_wide))
            assert all(type(x) is int and x > 0 for x in from_wide)
            with mp.workprec(bits + 64):
                for n, amp in enumerate(own):
                    exact = mp.sqrt(mp.exp(-mp.mpf(z.numerator ** 2) / z.denominator ** 2)
                                    * mp.mpf(z.numerator ** 2) ** n
                                    / (z.denominator ** (2 * n) * mp.factorial(n)))
                    assert abs(amp - mp.ldexp(exact, bits)) < 5, (bits, n)

    def test_apply_and_build_counts_of_one_expectation(self, monkeypatch):
        # n = 3 x (s + r) = 3 letters: 9 applications, each letter on a cut
        # of the dim-144 table that spans the support, built once; an r >= s
        # word steps no strip of the narrow vector, whose sums are read off
        # the wide one; the values for n = 1 and 2 come from the same pass at
        # no extra step
        built, applied = [], []
        build_ops_, apply_operator_ = fock_numeric.build_ops, fock_numeric.apply_operator

        def counting_build_ops(dim, bits):
            built.append(dim)
            return build_ops_(dim, bits)

        def counting_apply(op, vec):
            applied.append(op.dim)
            return apply_operator_(op, vec)

        monkeypatch.setattr(fock_numeric, "build_ops", counting_build_ops)
        monkeypatch.setattr(fock_numeric, "apply_operator", counting_apply)
        p = Params(2, 1)
        expectation_table([(p, 3)], [Fraction(1, 2)], 128)
        assert built == [144]
        assert len(applied) == 9 and max(applied) < 144
        assert applied == support_dims(p, 3, applied[0], 144)

    @pytest.mark.parametrize("precision", [64, 256])
    def test_every_fock_suite_case_is_within_its_rounding_part(self, precision):
        # at dim 128 the truncation part is far below the rounding part, so
        # every value of the suite is within its rounding part alone of its
        # exact value, and within 2^8 units of 2^-F of max(1, |exact|) (at
        # most 174 seen), under 2^-12 of what the bound allows: a kernel that
        # lost bits would show here before the tolerance noticed
        dim = fock_numeric.dimension_for(precision, SUITE, SUITE_ZS)
        assert dim == 128
        bits = fock_numeric._fraction_bits(precision, SUITE, SUITE_ZS, dim + 16)
        table = expectation_table(SUITE, SUITE_ZS, dim, precision)
        for p, top in SUITE:
            for z in SUITE_ZS:
                for n, (value, _) in enumerate(table[p, top, z], 1):
                    exact = exact_value(p, n, z)
                    err = abs(value - exact)
                    assert err <= rounding_part(p, n, z, dim + 16, bits), (p, n, z)
                    assert err <= Fraction(1 << 8, 1 << bits) * max(1, abs(exact)), (p, n, z)

    def test_powers_return_every_prefix_in_order(self):
        # B(1), ..., B(6) in order, each within its rounding part alone and
        # within 2^8 units of 2^-F of B(n)
        p = Params(1, 1)
        values = expectation_table([(p, 6)], [1], 128)[p, 6, 1]
        bits = fock_numeric._fraction_bits(256, [(p, 6)], [1], 144)
        bells = [1, 2, 5, 15, 52, 203]
        assert len(values) == len(bells)
        for n, ((value, bound), bell) in enumerate(zip(values, bells), 1):
            err = abs(value - bell)
            assert err <= min(bound, rounding_part(p, n, 1, 144, bits)), n
            assert err <= Fraction(bell << 8, 1 << bits), n
        assert values[-1] == expectation_power(p, 6, 1, 128)

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    def test_prefix_values_equal_the_single_power_path_bit_for_bit(self, precision):
        dim = fock_numeric.dimension_for(precision, SUITE, SUITE_ZS)
        for p, top in SUITE:
            for z in SUITE_ZS:
                bits = fock_numeric._fraction_bits(precision, [(p, top)], [z], dim + 16)
                values = expectation_table([(p, top)], [z], dim, precision)[p, top, z]
                assert len(values) == top
                for n, (value, _) in enumerate(values, 1):
                    assert value == Fraction(single_power_reference(p, n, z, dim + 16, bits),
                                             1 << 2 * bits), (p, n, z)

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
        p = Params(1, 1)
        bits = fock_numeric._fraction_bits(256, [(p, 3)], [1], 144)
        value, bound = expectation_power(p, 3, 1, 128)
        assert abs(value - 5) <= min(bound, rounding_part(p, 3, 1, 144, bits))
        assert abs(value - 5) <= Fraction(5 << 8, 1 << bits)

    def test_truncation_rejected_when_word_cannot_fit(self):
        with pytest.raises(FockTruncationError):
            expectation_power(Params(3, 1), 5, 1, 8)

    def test_every_word_is_checked_before_any_table_is_built(self, monkeypatch):
        # a bad word anywhere in the list stops the call before build_ops
        built = []
        monkeypatch.setattr(fock_numeric, "build_ops", lambda dim, bits: built.append(dim))
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            expectation_table([(Params(1, 1), 3), (Params(2, 1), 0)], [1], 128)
        with pytest.raises(FockTruncationError, match="^dim=8 cannot hold 3 applications of a word of height 3$"):
            expectation_table([(Params(1, 1), 3), (Params(3, 1), 3)], [1], 8)
        assert built == []

    @pytest.mark.parametrize("precision", [-5, 0, 15])
    def test_a_precision_below_the_floor_is_refused_before_any_work(self, monkeypatch, precision):
        built = []
        monkeypatch.setattr(fock_numeric, "build_ops", lambda dim, bits: built.append(dim))
        with pytest.raises(ValueError, match=f"^precision must be >= 16 bits, got {precision}$"):
            expectation_table([(Params(1, 1), 3)], [1], 128, precision)
        assert built == []

    def test_one_table_for_many_words_equals_one_table_per_word(self):
        # the words share one sqrt table and one coherent vector per z, whose
        # F follows the longest word and the largest amplitude error of the
        # call: the other words of a call reach a value through F alone.  A
        # word whose own call has that F gets the same values and bounds bit
        # for bit; every value, shared or not, is the full pass of its own
        # word at its call's F, and its bound is that word's bound there
        table = expectation_table(SUITE, SUITE_ZS, 128)
        assert set(table) == {(p, n, z) for p, n in SUITE for z in SUITE_ZS}
        bits = fock_numeric._fraction_bits(256, SUITE, SUITE_ZS, 144)
        same_bits = []
        for p, n in SUITE:
            for z in SUITE_ZS:
                own_bits = fock_numeric._fraction_bits(256, [(p, n)], [z], 144)
                own = expectation_table([(p, n)], [z], 128)[p, n, z]
                for call, f in ((table[p, n, z], bits), (own, own_bits)):
                    assert call == [(Fraction(single_power_reference(p, k, z, 144, f), 1 << 2 * f),
                                     Fraction(b, 1 << 2 * f))
                                    for k, b in enumerate(fock_numeric._bound_units(p, n, z, 144, f), 1)]
                if own_bits == bits:
                    same_bits.append((p.r, p.s, z))
                    assert own == table[p, n, z]
                else:
                    assert own_bits < bits and own != table[p, n, z]
        # the two 12-letter words set the call's F at either z; the 9-letter
        # words (2, 1) and (1, 2) take fewer bits on their own
        assert same_bits == [(r, s, z) for r, s in ((1, 1), (2, 2)) for z in SUITE_ZS]

    def test_error_shrinks_with_dimension(self):
        # z = 2 pushes the knee high enough that truncation is visible
        p = Params(2, 2)
        exact = bell_polynomial(p, 3, 4)
        errors = [abs(Fraction(single_power_reference(p, 3, 2, dim, BITS), 1 << 2 * BITS) - exact)
                  for dim in (56, 64, 80)]
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
        a, adag = build_ops(dim, BITS)
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
        # at 2048 bits the truncation part of the suite's words needs 177
        # states; <1|(a+ a)^3|1> = B(3) = 5 there
        assert fock_numeric.dimension_for(2048, SUITE, SUITE_ZS) == 177
        value, bound = expectation_power(Params(1, 1), 3, 1, 177, 2048)
        assert abs(value - 5) <= bound <= fock_numeric.tolerance(2048) * 5
