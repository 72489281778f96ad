import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonbell import boson_oracle
from bosonbell.boson_oracle import (
    OracleStructureError,
    WordLengthError,
    _inversions,
    antinormalize,
    extract_anti_stirling_row,
    extract_stirling_row,
    normalize,
    power_word,
)
from bosonbell.stirling_bell import Params, bell_polynomial, stirling

from _oracles import (
    lah_brute,
    normal_form_product,
    poly_apply_normal_form,
    poly_apply_word,
    stirling_brute,
    wick_normal_form,
)

words = st.text(alphabet="aA", min_size=0, max_size=10)
# the power words [(a+)^r a^s]^n of 24-64 letters the rewrite benchmark times
POWER_ROWS = ((1, 1, 28), (2, 1, 19), (1, 2, 19), (2, 2, 14), (3, 1, 15),
              (1, 3, 15), (3, 2, 11), (2, 3, 11), (3, 3, 9))


def balanced_word(rng: random.Random, length: int) -> str:
    """Equal numbers of each letter and an inversion count within 10% of
    the median, like the words the rewrite benchmark times."""
    half = length // 2
    while True:
        word = "".join(rng.sample("a" * half + "A" * half, 2 * half))
        if abs(_inversions(word) - half * half / 2) <= half * half / 20:
            return word


def rescanning_normalize(word: str, strategy: str, rng: random.Random):
    """(terms, words_rewritten) of the bucket engine with every child's
    inversion count rescanned rather than stepped from its parent's."""
    buckets, rewritten = {_inversions(word): {word: 1}}, 0
    while max(buckets):
        level = buckets.pop(max(buckets))
        rewritten += len(level)
        for w, c in level.items():
            pairs = [i for i in range(len(w) - 1) if w[i:i + 2] == "aA"]
            if strategy == "random":
                i = rng.choice(pairs)
            else:
                i = pairs[-1] if strategy == "rightmost" else pairs[0]
            for child in (w[:i] + "Aa" + w[i + 2:], w[:i] + w[i + 2:]):
                bucket = buckets.setdefault(_inversions(child), {})
                bucket[child] = bucket.get(child, 0) + c
    return {(w.count("A"), w.count("a")): c for w, c in buckets[0].items()}, rewritten


class TestNormalize:
    def test_commutation_rule_itself(self):
        assert normalize("aA").terms == {(1, 1): 1, (0, 0): 1}

    def test_number_operator_squared(self):
        assert normalize("AaAa").terms == {(1, 1): 1, (2, 2): 1}

    def test_already_normal(self):
        assert normalize("AAaa").terms == {(2, 2): 1}

    def test_two_rewrites(self):
        # a A A = 2 A + A A a
        assert normalize("aAA").terms == {(1, 0): 2, (2, 1): 1}

    def test_empty_word(self):
        assert normalize("").terms == {(0, 0): 1}

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            normalize("abA")

    def test_word_cap(self, monkeypatch):
        with pytest.raises(WordLengthError):
            normalize("aA" * 40)
        monkeypatch.setattr(boson_oracle, "DEFAULT_WORD_CAP", 128)
        assert normalize("aA" * 40).terms[(40, 40)] == 1

    @given(words)
    def test_offset_law(self, word):
        nf = normalize(word)
        surplus = word.count("A") - word.count("a")
        assert all(i - j == surplus for (i, j) in nf.terms)

    @settings(max_examples=60)
    @given(words, st.integers(min_value=0, max_value=2**30))
    def test_confluence_under_rewrite_strategies(self, word, seed):
        left = normalize(word, strategy="leftmost")
        right = normalize(word, strategy="rightmost")
        rand = normalize(word, strategy="random", rng=random.Random(seed))
        assert left == right == rand

    @settings(max_examples=60)
    @given(words, st.integers(min_value=0, max_value=8))
    def test_faithful_on_polynomials(self, word, degree):
        """The normal form acts on x^m exactly like the original word
        under a = d/dx, a+ = x."""
        nf = normalize(word)
        assert poly_apply_word(word, degree) == poly_apply_normal_form(nf.terms, degree)


class TestMerging:
    """Equal words must meet in one bucket.  A child filed under a wrong
    inversion count can still give the right terms, so the number of
    words rewritten is compared with an engine that rescans every child."""

    def test_counts_of_small_words(self):
        assert normalize("AAaa").words_rewritten == 0
        assert normalize("aA").words_rewritten == 1
        # aAA -> AaA + A, then AaA -> AAa + A
        assert normalize("aAA").words_rewritten == 2

    @settings(max_examples=60)
    @given(words, st.integers(min_value=0, max_value=2**30))
    def test_stepped_counts_match_rescanned_ones(self, word, seed):
        for strategy in ("leftmost", "rightmost", "random"):
            nf = normalize(word, strategy=strategy, rng=random.Random(seed))
            expected = rescanning_normalize(word, strategy, random.Random(seed))
            assert (nf.terms, nf.words_rewritten) == expected, strategy

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost", "random"])
    def test_longer_words(self, strategy):
        rng = random.Random(11)
        lengths = (12, 16, 20) if strategy == "random" else (12, 16, 20, 32, 40, 48, 64)
        for length in lengths:
            word = balanced_word(rng, length)
            nf = normalize(word, strategy=strategy, rng=random.Random(length))
            expected = rescanning_normalize(word, strategy, random.Random(length))
            assert (nf.terms, nf.words_rewritten) == expected, word

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    @pytest.mark.parametrize("r,s,n", POWER_ROWS)
    def test_power_rows_of_the_benchmark(self, r, s, n, strategy):
        word = ("A" * r + "a" * s) * n
        nf = normalize(word, strategy=strategy)
        assert (nf.terms, nf.words_rewritten) == rescanning_normalize(word, strategy, None)

    def test_power_word_passes_the_count_through(self):
        word = "AAa" * 5
        assert power_word(Params(2, 1), 5).words_rewritten == \
            rescanning_normalize(word, "leftmost", None)[1] > 0


class TestBitCoding:
    """The engine holds each word as an int under a marker bit: words with
    no letter, no creator, no annihilator, a long run of leading
    annihilators, and the two extreme orders at the length cap: the
    normal one rewrites no word, the other has the most inversions a
    capped word can have."""

    @pytest.mark.parametrize("word", [
        "", "a", "A", "aaaa", "AAAA", "aaaaaA", "A" * 32 + "a" * 32, "a" * 32 + "A" * 32])
    def test_edge_words(self, word):
        strategies = ["leftmost", "rightmost"]
        if len(word) <= boson_oracle.RANDOM_WORD_CAP:
            strategies.append("random")
        for strategy in strategies:
            nf = normalize(word, strategy=strategy, rng=random.Random(len(word)))
            assert nf.terms == wick_normal_form(word), strategy
            expected = rescanning_normalize(word, strategy, random.Random(len(word)))
            assert (nf.terms, nf.words_rewritten) == expected, strategy

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost", "random"])
    @pytest.mark.parametrize("word", ["Aa", "aA", "aAA"])
    def test_a_word_filed_too_high_raises(self, monkeypatch, word, strategy):
        # with every inversion count one too high, some word without a pair
        # reaches a bucket above 0: it must raise, not return a wrong form
        counted = _inversions
        monkeypatch.setattr(boson_oracle, "_inversions", lambda w: counted(w) + 1)
        with pytest.raises((ValueError, IndexError)):
            normalize(word, strategy=strategy, rng=random.Random(1))


class TestAntinormalize:
    def test_single_pair(self):
        # A a = a A - 1
        assert antinormalize("Aa").terms == {(1, 1): 1, (0, 0): -1}

    def test_already_antinormal(self):
        assert antinormalize("aaA").terms == {(2, 1): 1}

    @settings(max_examples=40)
    @given(words, st.integers(min_value=0, max_value=6))
    def test_consistent_with_normal_form(self, word, degree):
        """Re-expanding the anti-normal form through the polynomial
        representation reproduces the original word's action."""
        anf = antinormalize(word)
        out: dict = {}
        for (j, i), c in anf.terms.items():
            # x^i after differentiating: apply (a+)^i a^j is NOT this term's
            # meaning; here terms mean a^j (a+)^i, i.e. differentiate last.
            part = poly_apply_word("a" * j + "A" * i, degree)
            for d, v in part.items():
                out[d] = out.get(d, 0) + c * v
        out = {d: v for d, v in out.items() if v}
        assert out == poly_apply_word(word, degree)


class TestPowerWord:
    def test_classical_row(self):
        assert power_word(Params(1, 1), 3).terms == {(1, 1): 1, (2, 2): 3, (3, 3): 1}

    def test_diagonal_row(self):
        assert power_word(Params(2, 2), 2).terms == {(2, 2): 2, (3, 3): 4, (4, 4): 1}

    def test_single_copy_already_normal(self):
        assert power_word(Params(2, 1), 1).terms == {(2, 1): 1}


class TestExtractRows:
    def test_lah_row(self):
        assert extract_stirling_row(Params(2, 1), 2) == {1: 2, 2: 1}

    def test_symmetric_orders_agree(self):
        assert extract_stirling_row(Params(1, 2), 2) == {1: 2, 2: 1}

    def test_trivial_row(self):
        assert extract_stirling_row(Params(1, 1), 1) == {1: 1}

    def test_rows_match_closed_forms(self):
        for r in range(1, 4):
            for s in range(1, 4):
                p = Params(r, s)
                for n in range(1, 5):
                    row = extract_stirling_row(p, n)
                    assert row == {k: stirling(p, n, k) for k in p.band(n)}

    @pytest.mark.parametrize("r,s,n", [(4, 2, 3), (4, 1, 4), (2, 4, 3), (4, 4, 2)])
    def test_rows_beyond_the_small_grid(self, r, s, n):
        p = Params(r, s)
        assert extract_stirling_row(p, n) == {k: stirling(p, n, k) for k in p.band(n)}

    def test_conjugation_duality(self):
        for r in range(1, 4):
            for s in range(1, 4):
                for n in range(1, 4):
                    assert (extract_stirling_row(Params(r, s), n)
                            == extract_stirling_row(Params(s, r), n))

    def test_classical_rows_count_partitions(self):
        for n in range(1, 6):
            row = extract_stirling_row(Params(1, 1), n)
            assert row == {k: stirling_brute(n, k) for k in range(1, n + 1)}


class TestAntiRows:
    def test_frozen_examples(self):
        assert extract_anti_stirling_row(Params(1, 1), 1) == {0: 1, 1: 1}
        assert extract_anti_stirling_row(Params(1, 1), 2) == {0: 1, 1: 3, 2: 1}
        assert extract_anti_stirling_row(Params(2, 1), 1) == {0: 2, 1: 1}

    def test_shift_identity_against_closed_form(self):
        for r in range(1, 4):
            for s in range(1, r + 1):
                p = Params(r, s)
                for n in range(1, 4):
                    row = extract_anti_stirling_row(p, n)
                    assert row == {k: stirling(p, n + 1, k + s)
                                   for k in range(0, n * s + 1)}

    def test_requires_r_at_least_s(self):
        with pytest.raises(ValueError):
            extract_anti_stirling_row(Params(1, 2), 1)


class TestCoherentExpectation:
    # <z|(a+)^i a^j|z> = z^(i+j) for real z, so <z|nf|z> is read off the terms

    def test_number_operator(self):
        nf, z = power_word(Params(1, 1), 1), 1
        assert sum(c * z**(i + j) for (i, j), c in nf.terms.items()) == 1

    def test_diagonal_bell_value(self):
        nf, z = power_word(Params(2, 2), 2), 1
        assert sum(c * z**(i + j) for (i, j), c in nf.terms.items()) == 7

    def test_polynomial_value_at_half(self):
        nf, z = power_word(Params(1, 1), 2), Fraction(1, 2)
        assert sum(c * z**(i + j) for (i, j), c in nf.terms.items()) == Fraction(5, 16)

    def test_matches_bell_polynomial_for_diagonal(self):
        for r in (1, 2):
            p = Params(r, r)
            for n in (1, 2, 3):
                nf = power_word(p, n)
                for z in (Fraction(1, 2), Fraction(2), Fraction(1)):
                    assert (sum(c * z**(i + j) for (i, j), c in nf.terms.items())
                            == bell_polynomial(p, n, z * z))


class TestAgainstProductFormula:
    """Third route: the closed-form reordering identity, no rewriting."""

    @settings(max_examples=50)
    @given(st.text(alphabet="aA", min_size=0, max_size=6),
           st.text(alphabet="aA", min_size=0, max_size=6))
    def test_rewriting_respects_the_product(self, w1, w2):
        joined = normalize(w1 + w2).terms
        assembled = normal_form_product(normalize(w1).terms, normalize(w2).terms)
        assert joined == assembled

    def test_power_words_from_repeated_products(self):
        for r in range(1, 4):
            for s in range(1, 4):
                factor = {(r, s): 1}
                acc = dict(factor)
                for n in range(2, 5):
                    acc = normal_form_product(acc, factor)
                    assert acc == power_word(Params(r, s), n).terms, (r, s, n)

    def test_longer_words_beyond_the_hypothesis_cap(self):
        rng = random.Random(7)
        for _ in range(10):
            word = "".join(rng.choice("aA") for _ in range(rng.randint(12, 16)))
            cut = rng.randint(0, len(word))
            joined = normalize(word).terms
            assembled = normal_form_product(
                normalize(word[:cut]).terms, normalize(word[cut:]).terms)
            assert joined == assembled


class TestAgainstWickContractions:
    """Fourth route, at the word lengths the rewrite benchmark times: rook
    numbers of the word's Ferrers board, no rewriting."""

    @given(words, st.integers(min_value=0, max_value=6))
    def test_oracle_acts_like_the_word(self, word, degree):
        assert poly_apply_normal_form(wick_normal_form(word), degree) == poly_apply_word(word, degree)

    @pytest.mark.parametrize("length", [40, 52, 64])
    def test_long_balanced_words(self, length):
        word = balanced_word(random.Random(length), length)
        for strategy in ("leftmost", "rightmost"):
            assert normalize(word, strategy=strategy).terms == wick_normal_form(word), strategy
        assert antinormalize(word).terms == wick_normal_form(word, anti=True)

    def test_random_strategy_beyond_the_hypothesis_cap(self):
        # the random strategy merges few words: 24 letters rewrite ~30x more
        # words than leftmost, and 40 letters would take seconds
        rng = random.Random(24)
        word = balanced_word(rng, 24)
        assert normalize(word, strategy="random", rng=rng).terms == wick_normal_form(word)
        assert normalize(word, strategy="random", rng=rng) == normalize(word)

    def test_random_strategy_refuses_long_words_before_rewriting(self, monkeypatch):
        def no_rewriting(word):
            raise AssertionError("the cap must be checked before any rewriting")

        monkeypatch.setattr(boson_oracle, "_inversions", no_rewriting)
        word = balanced_word(random.Random(40), 40)
        with pytest.raises(WordLengthError, match="exceeds cap 24"):
            normalize(word, strategy="random", rng=random.Random(1))

    @pytest.mark.parametrize("r,s,n", [(1, 1, 28), (2, 2, 14), (3, 3, 9)])
    def test_power_words(self, r, s, n):
        word = ("A" * r + "a" * s) * n
        assert power_word(Params(r, s), n).terms == wick_normal_form(word)


def test_structure_error_type_exists():
    assert issubclass(OracleStructureError, RuntimeError)
