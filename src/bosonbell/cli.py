"""Command-line front end.

Subcommands:

* ``triangle R S N_MAX``: rows of the generalized Stirling triangle.
* ``bell R S N_MAX``: the Bell sequence B(0..N_MAX).
* ``normalize WORD``: normal-order a boson word over {a, A} (A = creator).
* ``verify SUITE``: run a named cross-check suite; exit 0 iff all pass.

Integer values are printed as exact decimal strings in every format.
Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb

from . import boson_oracle, fock_numeric, series_eval, stirling_bell
from .boson_oracle import OracleStructureError
from .exact_core import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS
from .fock_numeric import FockTruncationError
from .series_eval import TermBudgetError
from .stirling_bell import DivisibilityError, Params

# exit 3; DivisibilityError is an ArithmeticError but signals a bug, not bad input
_INTERNAL_ERRORS = (TermBudgetError, FockTruncationError, OracleStructureError, DivisibilityError)

@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


# ---------------------------------------------------------------------------
# Data commands


# (command, format) -> renderer; triangle rows arrive as (n, sorted (k, v) pairs)
_FORMATTERS = {
    ("triangle", "plain"): lambda rows, r, s: "\n".join(
        " ".join(str(v) for _, v in entries) for _, entries in rows),
    ("triangle", "csv"): lambda rows, r, s: "\n".join(
        f"{n},{k},{v}" for n, entries in rows for k, v in entries),
    ("triangle", "json"): lambda rows, r, s: json.dumps({"r": r, "s": s, "rows": [
        {"n": n, "entries": {str(k): str(v) for k, v in entries}} for n, entries in rows]}),
    ("triangle", "oeis"): lambda rows, r, s: ", ".join(
        str(v) for _, entries in rows for _, v in entries),
    ("bell", "plain"): lambda values, r, s: "\n".join(str(v) for v in values),
    ("bell", "csv"): lambda values, r, s: "\n".join(f"{n},{v}" for n, v in enumerate(values)),
    ("bell", "json"): lambda values, r, s: json.dumps(
        {"r": r, "s": s, "values": [str(v) for v in values]}),
    ("bell", "oeis"): lambda values, r, s: ", ".join(str(v) for v in values),
    ("normalize", "plain"): lambda terms, word: " ".join(
        f"({i},{j}):{c}" for (i, j), c in terms),
    ("normalize", "csv"): lambda terms, word: "\n".join(f"{i},{j},{c}" for (i, j), c in terms),
    ("normalize", "json"): lambda terms, word: json.dumps({"word": word, "terms": [
        {"i": i, "j": j, "coeff": str(c)} for (i, j), c in terms]}),
}


def _render(command: str, fmt: str, *data) -> str:
    renderer = _FORMATTERS.get((command, fmt))
    if renderer is None:
        raise ValueError(f"unknown format {fmt!r}")
    return renderer(*data)


def cmd_triangle(r: int, s: int, n_max: int, fmt: str = "plain") -> str:
    tri = stirling_bell.triangle(Params(r, s), n_max)
    rows = [(n, sorted(tri.row(n).items())) for n in range(1, n_max + 1)]
    return _render("triangle", fmt, rows, r, s)


def cmd_bell(r: int, s: int, n_max: int, fmt: str = "plain") -> str:
    return _render("bell", fmt, stirling_bell.bell_sequence(Params(r, s), n_max).values, r, s)


def cmd_normalize(word: str, fmt: str = "plain") -> str:
    return _render("normalize", fmt, boson_oracle.normalize(word).sorted_terms(), word)


# ---------------------------------------------------------------------------
# Verification suites


def _suite_oracle(args) -> list:
    checks = []
    for r in range(1, args.rmax + 1):
        for s in range(1, r + 1):
            p = Params(r, s)
            explicit_rows = {}
            for n in range(1, args.nmax + 1):
                oracle_row = boson_oracle.extract_stirling_row(p, n)
                lib_row = stirling_bell.triangle(p, n).row(n)
                diffop_row = {
                    k: v for k in p.band(n)
                    if (v := stirling_bell.stirling_diffop(p, n, k))
                }
                explicit_rows[n] = explicit_row = {
                    k: v for k in p.band(n) if (v := stirling_bell.stirling(p, n, k))
                }
                ok = oracle_row == lib_row == diffop_row == explicit_row
                detail = ""
                if not ok:
                    detail = (f"oracle={oracle_row} table={lib_row} diffop={diffop_row} "
                              f"explicit={explicit_row}")
                checks.append(Check(
                    f"S_({r},{s})(n={n},.): finite sum = differential route = word rewriting",
                    ok, detail))
            if r == s:
                # the table's recurrence stepped afresh from row 0: unmemoized
                # and unperturbed, so it checks _next_row itself
                row, ok = {0: 1}, True
                for n in range(1, args.nmax + 1):
                    row = stirling_bell._next_row(p, row)
                    ok = ok and row == explicit_rows[n]
                checks.append(Check(
                    f"S_({r},{r}): diagonal recurrence matches the finite sum", ok))
    rng = random.Random(args.seed)
    confluent = True
    witness = ""
    for _ in range(24):
        length = rng.randint(1, 10)
        word = "".join(rng.choice("aA") for _ in range(length))
        left = boson_oracle.normalize(word, strategy="leftmost")
        right = boson_oracle.normalize(word, strategy="rightmost")
        rand = boson_oracle.normalize(word, strategy="random", rng=rng)
        if not (left == right == rand):
            confluent = False
            witness = word
            break
    checks.append(Check(
        "rewrite confluence: leftmost = rightmost = random strategy on random words",
        confluent, witness))
    return checks


def _suite_symmetry(args) -> list:
    checks = []
    for r in range(1, args.rmax + 1):
        for s in range(1, args.rmax + 1):
            if r == s:
                continue
            # the explicit sum of (r,s) against the table (_next_row) of (s,r)
            table = stirling_bell.triangle(Params(s, r), args.nmax)
            p = Params(r, s)
            ok = all(
                stirling_bell.stirling(p, n, k) == table.value(n, k)
                for n in range(1, args.nmax + 1)
                for k in p.band(n)
            )
            checks.append(Check(f"S_({r},{s}) = S_({s},{r}) on the common band", ok))
    # each word is rewritten once, for its own check and for its conjugate's
    rows = {(r, s, n): boson_oracle.extract_stirling_row(Params(r, s), n)
            for r in range(1, args.rmax + 1) for s in range(1, args.rmax + 1)
            for n in range(1, args.nmax + 1)}
    for (r, s, n), row in rows.items():
        checks.append(Check(
            f"word rewriting row for ({r},{s}) equals its conjugate ({s},{r}), n={n}",
            row == rows[s, r, n]))
    return checks


def _suite_anti(args) -> list:
    checks = []
    nmax = min(args.nmax, 3)
    for r in range(1, args.rmax + 1):
        for s in range(1, r + 1):
            p = Params(r, s)
            for n in range(1, nmax + 1):
                oracle_row = boson_oracle.extract_anti_stirling_row(p, n)
                shift_row = {
                    k: v for k in range(0, n * s + 1)
                    if (v := stirling_bell.anti_stirling(p, n, k))
                }
                ok = oracle_row == shift_row
                checks.append(Check(
                    f"anti-row ({r},{s}, n={n}): word rewriting equals the shift S(n+1, k+s)",
                    ok, "" if ok else f"oracle={oracle_row} shift={shift_row}"))
    return checks


# the weights and (r, s) of the weighted-series checks, n = 1, 2, 3 each
_WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(2))
_WEIGHTED_PAIRS = ((1, 1), (2, 1), (2, 2))
_WEIGHTED_NMAX = 3


def _suite_dobinski(args) -> list:
    checks = []
    prec = args.prec
    # B_{r,s} = B_{s,r}, and the weighted series at t = 1 is the Bell series,
    # so each series is summed once, in the family of its (max, min, t)
    # with every n its checks read: at t = 1 that is n <= 3 for the weighted
    # pairs whatever --nmax says.  Every check still compares its series with
    # the exact value read from the table of its own (r, s).
    sizes = {(r, s, Fraction(1)): args.nmax for r in range(1, args.rmax + 1) for s in range(1, r + 1)}
    for t in _WEIGHTS:
        for r, s in _WEIGHTED_PAIRS:
            sizes[r, s, t] = max(sizes.get((r, s, t), 0), _WEIGHTED_NMAX)
    sums = {(r, s, t): series_eval.dobinski_polynomials(Params(r, s), n_max, t, precision=prec)
            for (r, s, t), n_max in sizes.items()}
    gammas = {(r, s): series_eval.dobinski_gamma_forms(Params(r, s), args.nmax, precision=prec)
              for r in range(1, args.rmax + 1) for s in range(1, r)}

    def series(r, s, n, t):
        return sums[max(r, s), min(r, s), t][n - 1]

    # the sums stop at a tail relative to the value, so the cap
    # max(1, B) / 2^cap_bits is too
    cap_bits = max(prec - 56, 8)
    for r in range(1, args.rmax + 1):
        for s in range(1, args.rmax + 1):
            p = Params(r, s)
            for n in range(1, args.nmax + 1):
                exact = stirling_bell.bell_number(p, n)
                cap = max(1, exact)
                sv = series(r, s, n, Fraction(1))
                ok = sv.brackets(exact) and sv.tail_bound.at_most(cap, cap_bits)
                checks.append(Check(
                    f"series B_({r},{s})({n}) brackets the exact value {exact}", ok,
                    f"tail={sv.tail_bound}"))
                if r > s:
                    sv2 = gammas[r, s][n - 1]
                    ok2 = sv2.brackets(exact) and sv2.tail_bound.at_most(cap, cap_bits)
                    checks.append(Check(
                        f"Gamma-ratio series B_({r},{s})({n}) brackets {exact}", ok2))
    for t in _WEIGHTS:
        for (r, s) in _WEIGHTED_PAIRS:
            p = Params(r, s)
            for n in range(1, _WEIGHTED_NMAX + 1):
                exact_poly = stirling_bell.bell_polynomial(p, n, t)
                sv = series(r, s, n, t)
                checks.append(Check(
                    f"weighted series B_({r},{s})({n}, t={t}) brackets the exact polynomial",
                    sv.brackets(exact_poly)))
    return checks


def _suite_laguerre(args) -> list:
    return [
        Check(f"B_(2,1)({n}) = (n-1)! L^(1)_(n-1)(-1), exact",
              series_eval.laguerre_bell_check(n))
        for n in range(1, args.nmax + 1)
    ]


def _suite_kummer(args) -> list:
    return [
        Check(f"B_({2*r},{r})({n}) = (rn)!/(e r!) 1F1(rn+1; r+1; 1), certified interval",
              series_eval.kummer_bell_check(r, n, precision=args.prec))
        for r in range(1, min(args.rmax, 2) + 1)
        for n in range(1, args.nmax + 1)
    ]


def _suite_family(args) -> list:
    checks = []
    for (p_, r_) in ((1, 1), (1, 2), (2, 1)):
        for n in range(1, min(args.nmax, 3) + 1):
            checks.append(Check(
                f"family series for B_({p_*(r_+1)},{p_*r_})({n}), certified interval",
                series_eval.family_bell_check(p_, r_, n, precision=args.prec)))
    for r in (2, 3, 4):
        for n in range(1, min(args.nmax, 4) + 1):
            checks.append(Check(
                f"B_({r},1)({n}) from the 1F{r-1} combination, certified interval",
                series_eval.bell_r1_hypergeometric_check(r, n, precision=args.prec)))
    return checks


def _suite_egf(args) -> list:
    checks = []
    order = 6
    for r in (1, 2, 3):
        checks.append(Check(
            f"egf of B_({r},1): coefficients match to order {order}, exact",
            series_eval.egf_bell_r1_check(r, order)))
    for r in (1, 2):
        for k in range(r, 5):
            checks.append(Check(
                f"column egf of S_({r},{r})(., k={k}) to order {order}, exact",
                series_eval.egf_stirling_diag_check(r, k, order)))
    for r in (2, 3):
        for k in (1, 2, 3):
            checks.append(Check(
                f"column egf of S_({r},1)(., k={k}) with k-th power, exact",
                series_eval.egf_stirling_r1_check(r, k, order)))
    for r in (1, 2, 3):
        for n in (1, 2, 3):
            checks.append(Check(
                f"diagonal generating-function coefficient n={n} terminates to B_({r},{r})({n})/n!",
                series_eval.bell_diag_egf_coefficient_check(r, n)))
    return checks


def _suite_hgf(args) -> list:
    checks = []
    cases = ((3, 2, Fraction(1, 5)), (4, 2, Fraction(1, 20)))
    # the certified tail is the final rounding, about 2^-prec of a value near 1,
    # plus a k-sum tail below 2^-(prec+8) of the sum; the cap 1 / 2^(prec-16)
    # leaves 16 bits
    cap_bits = args.prec - MIN_PRECISION_BITS
    for (r, s, lam) in cases:
        res = series_eval.hgf_check(r, s, lam, 12, precision=args.prec)
        ok = res.ok and res.lhs.tail_bound.at_most(1, cap_bits)
        checks.append(Check(
            f"hgf G_({r},{s}) at lambda={lam}, order 12: k-sum route equals exact route",
            ok, f"diff={res.difference} tail={res.lhs.tail_bound}"))
    return checks


def _sci(x: Fraction) -> str:
    """``x`` in ``.2e`` form; past the float range (about 1.8e308) through Decimal."""
    try:
        return f"{float(x):.2e}"
    except OverflowError:
        return f"{Decimal(x.numerator) / x.denominator:.2e}"


def _suite_fock(args) -> list:
    checks = []
    prec = args.prec
    tol = fock_numeric.tolerance(prec)
    zs = (Fraction(1, 2), Fraction(1))
    katriel = {}  # n -> whether <1|(a+ a)^n|1> matched B(n), Katriel's identity
    words = [(Params(r, s), nmax) for (r, s, nmax) in ((1, 1, 6), (2, 1, 3), (2, 2, 3), (1, 2, 3))]
    dim = fock_numeric.dimension_for(prec, words, zs)
    # one sqrt table, one coherent vector per z, and one prefix pass per word
    # and z that gives every power up to the word's n, each with its bound
    values = fock_numeric.expectation_table(words, zs, dim, prec)
    for p, nmax in words:
        r, s = p.r, p.s
        for n in range(1, nmax + 1):
            for z in zs:
                got, bound = values[p, nmax, z][n - 1]
                exact = z ** (n * abs(r - s)) * stirling_bell.bell_polynomial(p, n, z * z)
                err = abs(got - exact)
                ok = err <= bound <= tol * max(abs(exact), Fraction(1))
                if r == s == 1 and z == 1:
                    katriel[n] = ok
                checks.append(Check(
                    f"<z|[(a+)^{r} a^{s}]^{n}|z> at z={z}, dim {dim}(+{fock_numeric.STABILITY_STEP}) "
                    "matches the exact polynomial",
                    ok, f"err={_sci(err)}"))
    for n, expected in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)):
        ok = stirling_bell.bell_number(Params(1, 1), n) == expected and katriel[n]
        checks.append(Check(f"number-operator expectation at z=1 gives {expected} (n={n})", ok))
    return checks


def _suite_recurrence(args) -> list:
    checks = []
    nmax = max(args.nmax, 8)
    for r in (1, 2, 3):
        seq = stirling_bell.bell_recurrence_r1(r, nmax)
        exact = tuple(stirling_bell.bell_number(Params(r, 1), n) for n in range(nmax + 1))
        checks.append(Check(
            f"B_({r},1) recursion reproduces the row sums to n={nmax}",
            seq.values == exact,
            "" if seq.values == exact else f"recursion={seq.values} rows={exact}"))
    seq = stirling_bell.bell_recurrence_r1(1, nmax)
    transform = [1]
    for n in range(nmax):
        transform.append(sum(comb(n, k) * transform[k] for k in range(n + 1)))
    checks.append(Check(
        "r=1 recursion is the plain binomial transform",
        list(seq.values) == transform))
    ok_diag = all(
        stirling_bell.bell_number(Params(2, 2), n) == stirling_bell.bell_diag_from_classical(n)
        for n in range(1, nmax + 1)
    )
    checks.append(Check(
        f"B_(2,2)(n) from classical Bell numbers, n <= {nmax}, exact", ok_diag))
    return checks


def _suite_connection(args) -> list:
    checks = []
    for r in range(1, args.rmax + 1):
        for s in range(1, r + 1):
            p = Params(r, s)
            ok = all(
                stirling_bell.connection_identity_check(p, n, -3, -1, 0, 1, 2, 5)
                for n in range(1, args.nmax + 1)
            )
            checks.append(Check(
                f"falling-factorial connection identity for ({r},{s}), n <= {args.nmax}", ok))
    return checks


_SUITE_RUNNERS = {
    "oracle": _suite_oracle,
    "symmetry": _suite_symmetry,
    "anti": _suite_anti,
    "dobinski": _suite_dobinski,
    "laguerre": _suite_laguerre,
    "kummer": _suite_kummer,
    "family": _suite_family,
    "egf": _suite_egf,
    "hgf": _suite_hgf,
    "fock": _suite_fock,
    "recurrence": _suite_recurrence,
    "connection": _suite_connection,
}
SUITES = tuple(_SUITE_RUNNERS)

# _suite_fock reads no nmax; every suite not listed here defaults to 4
_SUITE_DEFAULT_NMAX = {"laguerre": 20, "recurrence": 8}


def cmd_verify(args, perturbed=None) -> int:
    """Run the suites; ``perturbed`` is the (Params, n, k) of a corrupted entry."""
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    all_checks = []
    for name in suites:
        local = argparse.Namespace(**vars(args))
        if args.nmax is None:
            local.nmax = _SUITE_DEFAULT_NMAX.get(name, 4)
        results = _SUITE_RUNNERS[name](local)
        all_checks.extend((name, c) for c in results)
    if perturbed:
        # a perturbation that no check reads cannot be caught, so it must fail
        p, n, k = perturbed
        reads = stirling_bell.perturbation_reads(p, n, k)
        all_checks.append(("perturb", Check(
            f"perturbed entry S_({p.r},{p.s})({n},{k}) was read by a check",
            reads > 0, f"reads={reads}")))
    failed = [(s, c) for s, c in all_checks if not c.ok]
    if args.json:
        payload = {
            "suites": suites,
            "checks": [
                {"suite": s, "name": c.name, "ok": c.ok, "detail": c.detail}
                for s, c in all_checks
            ],
            "passed": len(all_checks) - len(failed),
            "failed": len(failed),
            "ok": not failed,
        }
        print(json.dumps(payload))
    else:
        for s, c in all_checks:
            status = "PASS" if c.ok else "FAIL"
            line = f"{status} [{s}] {c.name}"
            if c.detail and not c.ok:
                line += f"  <- {c.detail}"
            print(line)
        print(f"{len(all_checks) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache  # built on the first call to main, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonbell",
        description="Generalized Stirling and Bell numbers from boson normal ordering.",
    )
    parser.add_argument("--prec", type=int, default=DEFAULT_PRECISION_BITS,
                        help=f"working precision in bits (default 256, at least {MIN_PRECISION_BITS})")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized strategy tests")
    parser.add_argument("--json", action="store_true",
                        help="structured JSON reports for verify")

    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering the values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=int, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    fmt_kwargs = dict(choices=("plain", "csv", "json", "oeis"), default="plain")
    tri = sub.add_parser("triangle", parents=[common],
                         help="rows of the S_{r,s} triangle")
    tri.add_argument("r", type=_positive_int)
    tri.add_argument("s", type=_positive_int)
    tri.add_argument("n_max", type=_positive_int)
    tri.add_argument("--format", **fmt_kwargs)

    bell = sub.add_parser("bell", parents=[common],
                          help="the Bell sequence B_{r,s}(0..n_max)")
    bell.add_argument("r", type=_positive_int)
    bell.add_argument("s", type=_positive_int)
    bell.add_argument("n_max", type=_positive_int)
    bell.add_argument("--format", **fmt_kwargs)

    norm = sub.add_parser("normalize", parents=[common],
                          help="normal-order a word over {a, A}")
    norm.add_argument("word")
    norm.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    ver = sub.add_parser("verify", parents=[common], help="run a cross-check suite")
    ver.add_argument("suite", choices=SUITES + ("all",))
    ver.add_argument("--rmax", type=_positive_int, default=3)
    ver.add_argument("--nmax", type=_positive_int, default=None)
    ver.add_argument("--perturb", metavar="R,S,N,K[,DELTA]", default=None,
                     help="corrupt one triangle entry first (suite must then fail)")
    return parser


def _parse_perturb(text: str) -> tuple:
    """R,S,N,K[,DELTA] -> (r, s, n, k, delta), with DELTA 1 when left out."""
    shown = repr(text) if len(text) <= 60 else f"'{text[:20]}...{text[-20:]}' ({len(text)} chars)"
    parts = []
    for field in text.split(","):
        try:
            parts.append(int(field))
        except ValueError:
            digits = field.strip().lstrip("+-")
            if digits.isdecimal():  # int() refuses a well-formed integer only for its length
                raise ValueError(f"--perturb number too long ({len(digits)} digits), "
                                 f"got {shown}") from None
            raise ValueError(f"--perturb expects integers R,S,N,K[,DELTA], got {shown}") from None
    if len(parts) == 4:
        parts.append(1)
    if len(parts) != 5:
        raise ValueError(f"--perturb expects integers R,S,N,K[,DELTA], got {shown}")
    if parts[4] == 0:
        raise ValueError(f"--perturb DELTA must be nonzero, got {shown}")
    return tuple(parts)


@contextlib.contextmanager
def _any_length_ints():
    """Lift CPython's digit limit on int <-> str conversion (4300 by default,
    since 3.10.7) so that every exact value prints whole, and restore the
    caller's limit on the way out; older Pythons have no limit to lift."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    """Exit 0 if every check passed, 1 if one failed, 2 on a usage or
    domain error, 3 on an internal error or an exceeded budget, and 141
    (128 + SIGPIPE), with nothing on stderr, when the reader closed stdout."""
    try:
        try:
            args = _build_parser().parse_args(argv)
        finally:
            sys.stdout.flush()  # argparse exits after --help, before the flush below
        code = _dispatch(args)
        sys.stdout.flush()  # so a small output fails here, not at interpreter exit
    except BrokenPipeError:
        # point stdout at devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _dispatch(args) -> int:
    try:
        if args.prec < MIN_PRECISION_BITS:
            raise ValueError(f"--prec must be at least {MIN_PRECISION_BITS} bits, got {args.prec}")
        perturbed = None
        if args.command == "verify" and args.perturb:
            r, s, n, k, delta = _parse_perturb(args.perturb)
            perturbed = (Params(r, s), n, k)
            stirling_bell.set_perturbation(*perturbed, delta)
        # the input is read under the interpreter's digit limit, the output is not
        with _any_length_ints():
            if args.command == "triangle":
                print(cmd_triangle(args.r, args.s, args.n_max, args.format))
                return 0
            if args.command == "bell":
                print(cmd_bell(args.r, args.s, args.n_max, args.format))
                return 0
            if args.command == "normalize":
                print(cmd_normalize(args.word, args.format))
                return 0
            if args.command == "verify":
                try:
                    return cmd_verify(args, perturbed)
                finally:
                    stirling_bell.clear_perturbations()
    except (ValueError, ArithmeticError, *_INTERNAL_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, _INTERNAL_ERRORS) else 2
    raise AssertionError("unreachable")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
