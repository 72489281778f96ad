"""Truncated Fock-space verification of coherent-state expectations.

The annihilation and creation operators act on the number basis
|0>, ..., |D-1> as bidiagonal operators: a|n> = sqrt(n)|n-1> and
a+|n-1> = sqrt(n)|n>, so both are one shared table of square roots and a
shift.  Vectors are integers scaled by 2^F, F = precision + 64: the table
holds floor(sqrt(n) 2^F) from math.isqrt, each product is rounded down by a
right shift, and the coherent amplitudes e^(-z^2/2) z^n / sqrt(n!) are
stepped from the same table after one mpmath exp.  Expectation values
<z| [(a+)^r a^s]^n |z> are formed by repeated O(D) shift-and-scale steps on
a truncated coherent vector, one letter per step, and compared against the
exact values z^(n|r-s|) B_{r,s}(n, z^2) from the triangle.  The vector
after k words is the input to word k+1, so expectation_table reads the
inner product after every word and returns the values for 1, ..., n from
one pass.  The stability re-check always widens the truncation by
STABILITY_STEP; the narrow vector differs from the wide one only in its top
n*max(r,s) entries, so it is stepped on that strip alone.  One table and one
coherent vector per z serve every word that expectation_table is given.

Only real z >= 0 is supported.  For r = s the expectation depends on z
only through z^2 (the phases cancel pairwise), so unit-modulus statements
are exercised at z = 1; for r != s a complex phase would contribute a
factor conj(z)^(n(r-s)) that this module does not model.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Tuple

from mpmath import mp

from .exact_core import DEFAULT_PRECISION_BITS, BigFloat, RationalLike
from .stirling_bell import Params

_GUARD_BITS = 64

# expectation_table re-checks every value at dim + STABILITY_STEP
STABILITY_STEP = 16


def dimension_for(precision: int) -> int:
    """Truncation dimension for z <= 1 at ``precision`` bits: the coherent
    tail at z = 1 is about 1/dim!, and must fall below 2^(-precision/2)."""
    return max(128, precision // 8)


def tolerance(precision: int) -> Fraction:
    """Relative agreement 2^(-precision//2) of an expectation with its
    exact value: the bound expectation_table enforces between dim and
    dim + STABILITY_STEP."""
    return Fraction(1, 2 ** (precision // 2))


class FockTruncationError(RuntimeError):
    """Truncation dimension too small for the requested accuracy."""


@dataclass(frozen=True)
class FockOperator:
    roots: tuple  # roots[n] = floor(sqrt(n) 2^bits) for n < dim, shared by a and a+
    shift: int  # +1 for a (|n> -> |n-1>), -1 for a+ (|n-1> -> |n>)
    bits: int  # fraction bits F of the table and of the vectors it acts on

    @property
    def dim(self) -> int:
        return len(self.roots)

    def entry(self, i: int, j: int) -> Fraction:
        """The exact matrix entry: roots[max(i, j)] / 2^bits on the band, else 0."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i}, {j}) outside dim {self.dim}")
        return Fraction(self.roots[max(i, j)], 1 << self.bits) if j - i == self.shift else Fraction(0)


def build_ops(dim: int, precision: int = DEFAULT_PRECISION_BITS) -> Tuple[FockOperator, FockOperator]:
    """Truncated (annihilator, creator) pair on dimension ``dim``.

    Both share one table of sqrt(n) rounded down to F = precision + 64
    fraction bits, the scale of the coherent amplitudes that
    expectation_table steps from the same table.  On the truncated space
    [a, a+] equals the identity except for the corner entry (D-1, D-1),
    which is 1 - D.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    bits = precision + _GUARD_BITS
    roots = tuple(math.isqrt(n << 2 * bits) for n in range(dim))
    return (FockOperator(roots, 1, bits), FockOperator(roots, -1, bits))


def apply_operator(op: FockOperator, vec: List[int]) -> List[int]:
    """Shift and scale in O(D) on integers scaled by 2^op.bits; each
    product is rounded down, (root * x) >> op.bits.

    a:  out[n] = sqrt(n+1) vec[n+1], out[D-1] = 0.
    a+: out[n] = sqrt(n) vec[n-1],   out[0] = 0.
    """
    if len(vec) != op.dim:
        raise ValueError(f"vector length {len(vec)} does not match dim {op.dim}")
    if op.shift > 0:
        return [r * x >> op.bits for r, x in zip(op.roots[1:], vec[1:])] + [0]
    return [0] + [r * x >> op.bits for r, x in zip(op.roots[1:], vec)]


def _coherent(z: RationalLike, roots: tuple, bits: int, dim: int, tail_threshold) -> tuple:
    """Coherent amplitudes e^(-z^2/2) z^n / sqrt(n!) scaled by 2^bits on
    n < len(roots), stepped from roots[n] = floor(sqrt(n) 2^bits) after one
    mpmath exp.  The tail-mass guard reads the first ``dim`` amplitudes: if
    the weight 1 - sum_{n<dim} amps[n]^2 lost to truncation exceeds
    ``tail_threshold``, the dimension is rejected as too small."""
    p, q = Fraction(z).as_integer_ratio()
    if p < 0:
        raise ValueError("only real z >= 0 is supported")
    with mp.workprec(bits + 8):
        amps = [int(mp.ldexp(mp.exp(-mp.mpf(p * p) / (2 * q * q)), bits))]
    for root in roots[1:]:
        amps.append((amps[-1] * p << bits) // (q * root))
    one = 1 << 2 * bits
    tail = max(0, one - sum(a * a for a in amps[:dim]))
    if tail > tail_threshold * one:
        raise FockTruncationError(
            f"coherent tail mass {mp.nstr(mp.ldexp(tail, -2 * bits), 8)} above threshold "
            f"at dim={dim}")
    return tuple(amps)


def _expectation_prefixes(p: Params, n: int, amps: tuple, ops, dim: int) -> Tuple[List[int], List[int]]:
    """The expectations of amps after 1, ..., n words, each scaled by 2^(2F):
    the vector after k words is the input to word k+1.  Returns (wide,
    narrow) sums, wide on ops' dimension and narrow on its first ``dim``
    entries.

    The narrow vector is stepped only on its strip [lo - 1, dim), lo =
    dim - n*max(r,s) - 1.  At the lowest entry where the narrow and wide
    vectors differ, an a moves it down by at most one and an a+ never down,
    so below lo they agree at every letter: the strip's bottom entry is
    copied from the wide vector before each letter, and both sums share the
    head sum_{i<lo}.  The strip's operators hold the table slice
    roots[lo-1:dim], on which FockOperator.entry would read sqrt(i) wrongly,
    so they never leave this function.
    """
    lo = dim - n * max(p.r, p.s) - 1
    strip_ops = [replace(op, roots=op.roots[lo - 1:dim]) for op in ops]
    word = [(ops[0], strip_ops[0])] * p.s + [(ops[1], strip_ops[1])] * p.r
    vec, strip = list(amps), list(amps[lo - 1:dim])
    tail = amps[lo:]
    wide_sums, narrow_sums = [], []
    for _ in range(n):
        for op, strip_op in word:
            strip[0] = vec[lo - 1]
            strip = apply_operator(strip_op, strip)
            vec = apply_operator(op, vec)
        head = sum(map(operator.mul, amps, vec[:lo]))
        wide_sums.append(head + sum(map(operator.mul, tail, vec[lo:])))
        narrow_sums.append(head + sum(map(operator.mul, tail, strip[1:])))
    return wide_sums, narrow_sums


def expectation_table(words, zs, dim: int, precision: int = DEFAULT_PRECISION_BITS) -> dict:
    """<z| [(a+)^r a^s]^k |z> on the truncated space as {(p, n, z): [values
    for k = 1, ..., n]}, for every (p, n) in ``words`` and z in ``zs``.

    One sqrt table at dim + STABILITY_STEP and one coherent vector per z
    serve every word.  Each word and z take one pass: the word is applied
    letter by letter to the vector, never as a precomputed power, and the
    inner product is read after every word.  The pass runs at dim +
    STABILITY_STEP, the dim-wide values are stepped beside it on the top
    entries that can differ, and every one of the n values must agree with
    its wider value to 2^(-precision/2), otherwise the truncation is
    reported as too small.  Each sum is rounded once, to ``precision``
    bits.  The exact targets are z^(k|r-s|) B_{r,s}(k, z^2).
    """
    for p, n in words:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if dim < n * max(p.r, p.s) + 2:
            raise FockTruncationError(
                f"dim={dim} cannot hold {n} applications of a word of height {max(p.r, p.s)}")
    # one sqrt table and one coherent vector per z at the widest dimension; the
    # tail guard reads the narrow prefix, whose tail is never below the wide one
    ops = build_ops(dim + STABILITY_STEP, precision)
    bits = ops[0].bits
    amps = {z: _coherent(z, ops[0].roots, bits, dim, tolerance(precision)) for z in zs}
    table = {}
    for p, n in words:
        for z in zs:
            values, narrow_values = _expectation_prefixes(p, n, amps[z], ops, dim)
            for narrow, wide in zip(narrow_values, values):
                moved = abs(narrow - wide)
                if moved << precision // 2 > max(abs(narrow), abs(wide), 1 << 2 * bits):
                    raise FockTruncationError(
                        f"value moved by {mp.nstr(mp.ldexp(moved, -2 * bits), 8)} when widening "
                        f"dim {dim} -> {dim + STABILITY_STEP}")
            with mp.workprec(precision):
                table[p, n, z] = [
                    BigFloat(value=mp.ldexp(mp.mpf(v), -2 * bits), precision_bits=precision)
                    for v in values]
    return table
