"""Truncated Fock-space verification of coherent-state expectations.

The annihilation and creation operators act on the number basis
|0>, ..., |D-1> as bidiagonal operators: a|n> = sqrt(n)|n-1> and
a+|n-1> = sqrt(n)|n>, so both are one shared table of arbitrary-precision
square roots and a shift; the coherent amplitudes e^(-z^2/2) z^n / sqrt(n!)
are built from the same table.  Expectation values <z| [(a+)^r a^s]^n |z> are
formed by repeated O(D) shift-and-scale steps on a truncated coherent
vector and compared against the exact values z^(n|r-s|) B_{r,s}(n, z^2)
from the triangle.

Only real z >= 0 is supported.  For r = s the expectation depends on z
only through z^2 (the phases cancel pairwise), so unit-modulus statements
are exercised at z = 1; for r != s a complex phase would contribute a
factor conj(z)^(n(r-s)) that this module does not model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Tuple

import mpmath
from mpmath import mp

from .exact_core import DEFAULT_PRECISION_BITS, BigFloat, RationalLike
from .stirling_bell import Params, bell_number

_GUARD_BITS = 64

# expectation_power re-checks every value at dim + STABILITY_STEP
STABILITY_STEP = 16


def dimension_for(precision: int) -> int:
    """Truncation dimension for z <= 1 at ``precision`` bits: the coherent
    tail at z = 1 is about 1/dim!, and must fall below 2^(-precision/2)."""
    return max(128, precision // 8)


def tolerance(precision: int) -> Fraction:
    """Relative agreement 2^(-precision//2) of an expectation with its
    exact value: the bound expectation_power enforces between dim and
    dim + STABILITY_STEP."""
    return Fraction(1, 2 ** (precision // 2))


class FockTruncationError(RuntimeError):
    """Truncation dimension too small for the requested accuracy."""

    def __init__(self, message: str, suggested_dim: int):
        super().__init__(message)
        self.suggested_dim = suggested_dim


@dataclass(frozen=True)
class FockOperator:
    dim: int
    roots: tuple  # roots[n] = sqrt(n) for n < dim, shared by a and a+
    shift: int  # +1 for a (|n> -> |n-1>), -1 for a+ (|n-1> -> |n>)

    def entry(self, i: int, j: int):
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i}, {j}) outside dim {self.dim}")
        return self.roots[max(i, j)] if j - i == self.shift else mp.mpf(0)


@dataclass(frozen=True)
class CoherentVector:
    amps: tuple
    tail_mass: mpmath.mpf


def _to_mpf(x) -> mpmath.mpf:
    if isinstance(x, BigFloat):
        return x.value
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def build_ops(dim: int, precision: int = DEFAULT_PRECISION_BITS) -> Tuple[FockOperator, FockOperator]:
    """Truncated (annihilator, creator) pair on dimension ``dim``.

    Both share one table of sqrt(n) rounded at ``precision``.  On the
    truncated space [a, a+] equals the identity except for the corner
    entry (D-1, D-1), which is 1 - D.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    with mp.workprec(precision):
        roots = tuple(mp.sqrt(n) for n in range(dim))
    return (FockOperator(dim, roots, 1), FockOperator(dim, roots, -1))


def apply_operator(op: FockOperator, vec: List[mpmath.mpf]) -> List[mpmath.mpf]:
    """Shift and scale in O(D); products are rounded at the caller's precision.

    a:  out[n] = sqrt(n+1) vec[n+1], out[D-1] = 0.
    a+: out[n] = sqrt(n) vec[n-1],   out[0] = 0.
    """
    if len(vec) != op.dim:
        raise ValueError(f"vector length {len(vec)} does not match dim {op.dim}")
    if op.shift > 0:
        return [r * x for r, x in zip(op.roots[1:], vec[1:])] + [mp.mpf(0)]
    return [mp.mpf(0)] + [r * x for r, x in zip(op.roots[1:], vec)]


def _coherent_from_roots(
    z: RationalLike, roots, precision: int, tail_threshold=None,
) -> CoherentVector:
    """Coherent amplitudes on dim = len(roots), with roots[n] = sqrt(n)
    rounded at precision + _GUARD_BITS, and the tail-mass guard."""
    dim = len(roots)
    with mp.workprec(precision + _GUARD_BITS):
        zf = _to_mpf(z)
        if zf < 0:
            raise ValueError("only real z >= 0 is supported")
        amps = [mp.exp(-(zf**2) / 2)]
        for n in range(1, dim):
            amps.append(amps[-1] * zf / roots[n])
        norm2 = mp.fsum(a * a for a in amps)
        tail = max(mp.mpf(0), 1 - norm2)
        if tail_threshold is None:
            tail_threshold = mp.mpf(2) ** (-(precision // 2))
        if tail > tail_threshold:
            raise FockTruncationError(
                f"coherent tail mass {mp.nstr(tail, 8)} above threshold at dim={dim}",
                suggested_dim=2 * dim,
            )
    return CoherentVector(amps=tuple(amps), tail_mass=tail)


def coherent_state(
    z: RationalLike, dim: int, precision: int = DEFAULT_PRECISION_BITS,
    tail_threshold=None,
) -> CoherentVector:
    """Truncated coherent vector with amplitudes e^(-z^2/2) z^n / sqrt(n!).

    ``tail_mass`` is the probability weight lost to truncation,
    1 - sum_n amps[n]^2; if it exceeds ``tail_threshold`` (default
    2^(-precision/2)) the dimension is rejected as too small.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    with mp.workprec(precision + _GUARD_BITS):
        roots = [mp.sqrt(n) for n in range(dim)]
    return _coherent_from_roots(z, roots, precision, tail_threshold)


def _expectation_once(p: Params, n: int, z, ops, precision: int) -> mpmath.mpf:
    a_op, adag_op = ops
    with mp.workprec(precision + _GUARD_BITS):
        # the operators' table (rounded at the same precision) feeds the amplitudes
        ket = _coherent_from_roots(z, a_op.roots, precision)
        vec = list(ket.amps)
        for _ in range(n):
            for _ in range(p.s):
                vec = apply_operator(a_op, vec)
            for _ in range(p.r):
                vec = apply_operator(adag_op, vec)
        return mp.fsum(b * x for b, x in zip(ket.amps, vec))


def expectation_power(
    p: Params, n: int, z: RationalLike, dim: int,
    precision: int = DEFAULT_PRECISION_BITS,
    check_stability: bool = True,
) -> BigFloat:
    """<z| [(a+)^r a^s]^n |z> on the truncated space.

    The word is applied letter by letter to the vector, never as a
    precomputed n-th power.  With ``check_stability`` the value is
    recomputed at dim + STABILITY_STEP and the two must agree to
    2^(-precision/2), otherwise the truncation is reported as too
    small.  The exact target is z^(n|r-s|) B_{r,s}(n, z^2).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if dim < n * max(p.r, p.s) + 2:
        raise FockTruncationError(
            f"dim={dim} cannot hold {n} applications of a word of height {max(p.r, p.s)}",
            suggested_dim=n * max(p.r, p.s) + 18,
        )
    # one sqrt table at the widest dimension, for both operators and the
    # coherent vector; the narrow pass reads its prefix
    ops = build_ops(dim + STABILITY_STEP if check_stability else dim, precision + _GUARD_BITS)
    narrow = [replace(op, dim=dim, roots=op.roots[:dim]) for op in ops]
    value = _expectation_once(p, n, z, narrow, precision)
    if check_stability:
        wider = _expectation_once(p, n, z, ops, precision)
        with mp.workprec(precision + _GUARD_BITS):
            scale = max(abs(value), abs(wider), mp.mpf(1))
            if abs(value - wider) > mp.mpf(2) ** (-(precision // 2)) * scale:
                raise FockTruncationError(
                    f"value moved by {mp.nstr(abs(value - wider), 8)} when widening "
                    f"dim {dim} -> {dim + STABILITY_STEP}",
                    suggested_dim=dim + 4 * STABILITY_STEP,
                )
        value = wider
    with mp.workprec(precision):
        return BigFloat(value=+value, precision_bits=precision)


def katriel_check(n: int, precision: int = DEFAULT_PRECISION_BITS) -> bool:
    """<z|(a+ a)^n|z> at z = 1 against the exact Bell number B_{1,1}(n),
    on dimension_for(precision) and to the relative tolerance(precision)."""
    value = expectation_power(Params(1, 1), n, 1, dimension_for(precision), precision)
    exact = bell_number(Params(1, 1), n)
    return abs(value.to_fraction() - exact) <= tolerance(precision) * exact
