"""Truncated Fock-space verification of coherent-state expectations.

The annihilation and creation operators act on the number basis
|0>, ..., |D-1> as bidiagonal operators: a|m> = sqrt(m)|m-1> and
a+|m-1> = sqrt(m)|m>, so both are one shared table of square roots and a
shift.  Vectors are integers scaled by 2^F: the table holds
floor(sqrt(m) 2^F) from math.isqrt, each product is rounded down by a right
shift, and the coherent amplitudes e^(-z^2/2) z^m / sqrt(m!) are stepped
from the same table after one mpmath exp, up to the first one that rounds
to zero.  Every entry at and above that support's top is an exact zero: an
a moves the top down by one and an a+ moves it up by one, capped at the
dimension, so each letter steps only the entries below it, and the
integers are those of stepping every entry.  Expectation values
<z| [(a+)^r a^s]^n |z> are formed one letter per O(D) shift-and-scale step
and compared against the exact values z^(n|r-s|) B_{r,s}(n, z^2) from the
triangle.  The vector after k words is the input to word k+1, so
expectation_table reads the inner product after every word and returns
the values for 1, ..., n from one pass, each an exact integer over 2^(2F)
with a proved error bound.

The error budget.  Let D' be the dimension of the pass, L = k(r+s) the
letters of the k-th value and d = k|r-s| its index shift.  The bound is a
rounding part plus a truncation part, and the sizes are the smallest that
hold each part to half of tolerance(precision):

* Rounding.  Each right shift loses under one unit of 2^-F in each of at
  most D' entries, each table entry lies under one unit below its root,
  and a letter multiplies a carried error by at most sqrt(D').  The one
  mpmath exp and the floored steps leave each coherent amplitude within A
  units of its value (:func:`_amplitude_units`).  Together these cost
  under 3 sqrt(D')^L (L + A sqrt(D')) units of 2^-F
  (:func:`_rounding_units`), and F (:func:`_fraction_bits`) is the fewest
  bits that hold this to tolerance/2 for the longest word.
* Truncation.  The path of |j> under the word never rises above
  max(i, j) on its way to |i>, so on D' states the truncated word is the
  untruncated one cut to D' x D'.  Truncation drops exactly the pairs
  (M, M - d) with M >= D', each weighing alpha_M alpha_(M-d) times the
  word's amplification there, at most M^(L/2).  These terms fall by a
  ratio under rho = z^2 (1 + 1/D')^ceil(L/2) / (D' + 1 - d), so they sum
  to under t_(D') / (1 - rho) (:func:`_truncation_units`).
  :func:`dimension_for` is the smallest D >= 128 that holds this to
  tolerance/2 for every word and z.

The stability re-check always widens the truncation by STABILITY_STEP;
the narrow vector differs from the wide one only in its top
s + (n-1)*max(0, s-r) entries, so it is stepped on that strip alone, and
for r >= s, where it equals the wide one after every word, not at all.
One table and one coherent vector per z serve every word that
expectation_table is given.

Only real z >= 0 is supported.  For r = s the expectation depends on z
only through z^2 (the phases cancel pairwise), so unit-modulus statements
are exercised at z = 1.  For complex z and r != s the expectation is
B_{r,s}(n, |z|^2) times conj(z)^(n(r-s)) if r > s and z^(n(s-r)) if
r < s, a phase this module does not model.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Tuple

from mpmath import mp

from .exact_core import DEFAULT_PRECISION_BITS, RationalLike, _check_precision
from .stirling_bell import Params

# dimension_for never goes below this many states
_MIN_DIM = 128

# expectation_table re-checks every value at dim + STABILITY_STEP
STABILITY_STEP = 16


def _ceil_sqrt(x: int) -> int:
    return math.isqrt(x - 1) + 1 if x > 0 else 0


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def _amplitude_units(z: RationalLike) -> int:
    """A: every amplitude of :func:`_coherent` lies within A units of 2^-F of
    e^(-z^2/2) z^m / sqrt(m!) 2^F.  The exp and its floor leave amps[0]
    within 2 units.  Step m multiplies the carried error by g = z/sqrt(m),
    its root's floor adds under one unit before that factor and its own
    floor one unit after it, so e_m <= g (e_(m-1) + 2) + 1.  Once g <= 1/2
    this keeps any e <= A with A >= 4 at most A, so only the steps before
    are taken here, each rounded up."""
    p, q = Fraction(z).as_integer_ratio()
    err = units = 2
    m = 1
    while 4 * p * p > m * q * q:
        err = _ceil_sqrt(_ceil_div((p * (err + 2)) ** 2, q * q * m)) + 1
        units = max(units, err)
        m += 1
    return max(4, units)


def _rounding_units(dim: int, letters: int, amp_units: int) -> int:
    """C with the rounding part of a ``letters``-letter value on ``dim``
    states under C units of 2^-F: 3 sqrt(dim)^L (L + A sqrt(dim)), sqrt(dim)
    rounded up in the odd power and in A sqrt(dim).  The factor 3 covers the
    norms 1 + eta of the coherent vector, which the F rule keeps under
    1 + 2^-9."""
    root = _ceil_sqrt(dim)
    return 3 * dim ** (letters // 2) * root ** (letters % 2) * (letters + amp_units * root)


def _truncation_units(p: Params, n: int, z: RationalLike, dim: int, scale: int):
    """T with every power k <= n of the word losing under T 2^-scale to
    truncation at ``dim`` states, or None where the ratio bound rho is not
    below 1.  The term t_dim is bounded for all k at once by the largest
    shift d = n|r-s| and letter count L = n(r+s), e^(-z^2) by 1, and
    z^(2 dim - d_k) by z^(2 dim - d) for z < 1 and by z^(2 dim) otherwise."""
    zp, zq = Fraction(z).as_integer_ratio()
    d, letters = n * abs(p.r - p.s), n * (p.r + p.s)
    half = _ceil_div(letters, 2)
    rho_num = zp * zp * (dim + 1) ** half
    rho_den = zq * zq * dim ** half * (dim + 1 - d)
    if rho_num >= rho_den:
        return None
    e = 2 * dim - (d if zp < zq else 0)
    term = _ceil_sqrt(_ceil_div(zp ** (2 * e) * dim ** letters << 2 * scale,
                                zq ** (2 * e) * math.factorial(dim) * math.factorial(dim - d)))
    return _ceil_div(term * rho_den, rho_den - rho_num)


def dimension_for(precision: int, words, zs) -> int:
    """Truncation dimension D: the smallest D >= 128 at which the
    truncation part of every value of ``words`` at every z in ``zs`` is at
    most tolerance(precision)/2.  At the default 256 bits, and up to 1024,
    the suite's words at z <= 1 keep D = 128."""
    # at most 2^8 units of 2^-(scale) is at most 2^-(precision // 2 + 1), the
    # half tolerance; the 8 spare bits absorb the ceilings of the units
    scale = precision // 2 + 1 + 8

    def meets(d):
        units = _truncation_units(p, n, z, d, scale)
        return units is not None and units <= 1 << 8

    dim = _MIN_DIM
    for p, n in words:
        for z in zs:
            if meets(dim):
                continue
            lo, hi = dim, 2 * dim
            while not meets(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if meets(mid) else (mid, hi)
            dim = hi
    return dim


def _fraction_bits(precision: int, words, zs, dim: int) -> int:
    """F: the fewest fraction bits at which the rounding part of every
    value of ``words`` at every z in ``zs`` on ``dim`` states is at most
    tolerance(precision)/2."""
    letters = max((n * (p.r + p.s) for p, n in words), default=0)
    amp_units = max(map(_amplitude_units, zs), default=4)
    return precision // 2 + 1 + (_rounding_units(dim, letters, amp_units) - 1).bit_length()


def tolerance(precision: int) -> Fraction:
    """Relative agreement 2^(-precision//2) of an expectation with its
    exact value: the most its error bound may be, and the bound
    expectation_table enforces between dim and dim + STABILITY_STEP."""
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


def build_ops(dim: int, bits: int) -> Tuple[FockOperator, FockOperator]:
    """Truncated (annihilator, creator) pair on dimension ``dim``.

    Both share one table of sqrt(n) rounded down to F = ``bits`` fraction
    bits, each entry under one unit of 2^-F below its root.  That is the
    scale of the coherent amplitudes expectation_table steps from the same
    table, with F from the rounding part of its error budget.  On the
    truncated space [a, a+] equals the identity except for the corner entry
    (D-1, D-1), which is 1 - D.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
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
    """Coherent amplitudes e^(-z^2/2) z^m / sqrt(m!) scaled by 2^bits,
    stepped from roots[m] = floor(sqrt(m) 2^bits) after one mpmath exp, up
    to the first one that rounds to zero: every later one would too.  The
    exp runs with 8 bits to spare beyond the bits of z^2.  The tail-mass
    guard reads the first ``dim`` amplitudes: if the weight
    1 - sum_{m<dim} amps[m]^2 lost to truncation exceeds ``tail_threshold``,
    the dimension is rejected as too small."""
    p, q = Fraction(z).as_integer_ratio()
    if p < 0:
        raise ValueError("only real z >= 0 is supported")
    with mp.workprec(bits + 8 + (p * p // (q * q)).bit_length()):
        amps = [int(mp.ldexp(mp.exp(-mp.mpf(p * p) / (2 * q * q)), bits))]
    for root in roots[1:]:
        amp = (amps[-1] * p << bits) // (q * root)
        if not amp:
            break
        amps.append(amp)
    one = 1 << 2 * bits
    tail = max(0, one - sum(a * a for a in amps[:dim]))
    if tail > tail_threshold * one:
        raise FockTruncationError(
            f"coherent tail mass {mp.nstr(mp.ldexp(tail, -2 * bits), 8)} above threshold "
            f"at dim={dim}")
    return tuple(amps)


def _step_support(op: FockOperator, vec: List[int]) -> List[int]:
    """``op`` on a vector whose entries from len(vec) up are zero, stepping
    only vec on op cut to it: an a drops the top entry, an a+ adds one
    unless vec already spans op.dim."""
    if op.shift < 0 and len(vec) < op.dim:
        vec.append(0)
    out = apply_operator(FockOperator(op.roots[:len(vec)], op.shift, op.bits), vec)
    if op.shift > 0:
        out.pop()
    return out


def _strip_bottom(p: Params, n: int, dim: int) -> int:
    """lo = dim - s - (n-1)*max(0, s-r): the lowest entry at which the
    narrow vector of :func:`_expectation_prefixes` can differ from the
    wide one during n words (r, s)."""
    return dim - p.s - (n - 1) * max(0, p.s - p.r)


def _expectation_prefixes(p: Params, n: int, amps: tuple, ops, dim: int) -> Tuple[List[int], List[int]]:
    """The expectations of amps after 1, ..., n words, each scaled by 2^(2F):
    the vector after k words is the input to word k+1.  Returns (wide,
    narrow) sums, wide on ops' dimension and narrow on its first ``dim``
    entries.  The wide vector is stepped on its support alone
    (:func:`_step_support`), which starts at len(amps).

    The narrow vector is stepped only on its strip [lo - 1, dim), lo =
    :func:`_strip_bottom`.  Let L bound the entries where the narrow and
    wide vectors agree: they agree on every entry below L.  Before the
    first letter L = dim, where the narrow vector ends.  An a (out[i] =
    sqrt(i+1) vec[i+1]) moves L down by one.  An a+ (out[i] = sqrt(i)
    vec[i-1]) moves it up by one, but not past dim, as the narrow vector
    drops what leaves its top entry.  A word (a+)^r a^s applies its s
    letters a first, so a word that starts at L goes down to L - s and
    ends at min(L - s + r, dim): word j starts at dim - (j-1) max(0, s-r),
    and over n words L never goes below dim - s - (n-1) max(0, s-r) = lo.
    Below lo the two vectors agree at every letter: the strip's bottom
    entry is copied from the wide vector before each letter, and both sums
    share the head sum_{i<lo}.  For s > r the bound is tight: a strip from
    lo + 1 up changes some narrow sum.  For r >= s each word ends at L =
    dim, so after every word the narrow vector is the wide one cut at dim:
    such a word steps no strip, and its narrow sums read the wide vector's
    entries [lo, dim).  The strip's operators hold the table slice
    roots[lo-1:dim], whose entry i is the root of lo - 1 + i, so they
    never leave this function.
    """
    lo = _strip_bottom(p, n, dim)
    stepped = p.s > p.r
    strip_ops = [replace(op, roots=op.roots[lo - 1:dim]) for op in ops]
    word = [(ops[0], strip_ops[0])] * p.s + [(ops[1], strip_ops[1])] * p.r
    vec, strip = list(amps), list(amps[lo - 1:dim])
    strip += [0] * (dim - lo + 1 - len(strip))
    tail = amps[lo:]
    wide_sums, narrow_sums = [], []
    for _ in range(n):
        for op, strip_op in word:
            if stepped:
                strip[0] = vec[lo - 1] if lo <= len(vec) else 0
                strip = apply_operator(strip_op, strip)
            vec = _step_support(op, vec)
        head = sum(map(operator.mul, amps, vec[:lo]))
        wide_sums.append(head + sum(map(operator.mul, tail, vec[lo:])))
        narrow_sums.append(head + sum(map(operator.mul, tail, strip[1:] if stepped else vec[lo:dim])))
    return wide_sums, narrow_sums


def _bound_units(p: Params, n: int, z: RationalLike, dim: int, bits: int) -> List[int]:
    """The error bounds of the values for 1, ..., n words on ``dim``
    states at F = ``bits``, in units of 2^(-2F): each value's own rounding
    part and the truncation part shared by all n."""
    truncation = _truncation_units(p, n, z, dim, 2 * bits)
    if truncation is None:
        raise FockTruncationError(f"dim={dim} is too small to bound the truncation at z={z}")
    amp_units = _amplitude_units(z)
    return [(_rounding_units(dim, k * (p.r + p.s), amp_units) << bits) + truncation
            for k in range(1, n + 1)]


def expectation_table(words, zs, dim: int, precision: int = DEFAULT_PRECISION_BITS) -> dict:
    """<z| [(a+)^r a^s]^k |z> on the truncated space as {(p, n, z): [(value,
    bound) for k = 1, ..., n]}, for every (p, n) in ``words`` and z in
    ``zs``.  Each value is an exact Fraction with denominator dividing
    2^(2F), and |value - exact| <= bound is proved (see the module's error
    budget); F is the fewest bits that hold the rounding part to
    tolerance(precision)/2.  The exact targets are z^(k|r-s|) B_{r,s}(k, z^2).

    One sqrt table at dim + STABILITY_STEP and one coherent vector per z
    serve every word.  Each word and z take one pass: the word is applied
    letter by letter to the vector, never as a precomputed power, and the
    inner product is read after every word.  The pass runs at dim +
    STABILITY_STEP, and its values and bounds are those of that dimension.
    The dim-wide values are stepped beside it on the top entries that can
    differ, and every one of the n values must agree with its wider value
    to 2^(-precision/2), otherwise the truncation is reported as too small.
    A precision below MIN_PRECISION_BITS is refused before any work.
    """
    _check_precision(precision)
    for p, n in words:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if dim < n * max(p.r, p.s) + 2:
            raise FockTruncationError(
                f"dim={dim} cannot hold {n} applications of a word of height {max(p.r, p.s)}")
    wide_dim = dim + STABILITY_STEP
    bits = _fraction_bits(precision, words, zs, wide_dim)
    bounds = {(p, n, z): _bound_units(p, n, z, wide_dim, bits) for p, n in words for z in zs}
    # one sqrt table and one coherent vector per z at the widest dimension; the
    # tail guard reads the narrow prefix, whose tail is never below the wide one
    ops = build_ops(wide_dim, bits)
    amps = {z: _coherent(z, ops[0].roots, bits, dim, tolerance(precision)) for z in zs}
    one = 1 << 2 * bits
    table = {}
    for p, n in words:
        for z in zs:
            values, narrow_values = _expectation_prefixes(p, n, amps[z], ops, dim)
            for narrow, wide in zip(narrow_values, values):
                moved = abs(narrow - wide)
                if moved << precision // 2 > max(abs(narrow), abs(wide), one):
                    raise FockTruncationError(
                        f"value moved by {mp.nstr(mp.ldexp(moved, -2 * bits), 8)} when widening "
                        f"dim {dim} -> {wide_dim}")
            table[p, n, z] = [(Fraction(v, one), Fraction(b, one))
                              for v, b in zip(values, bounds[p, n, z])]
    return table
