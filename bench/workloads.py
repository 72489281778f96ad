"""The four workloads: seeded op sequences, their warm-up and their checks.

Each workload is one cycle of ops.  A run repeats whole cycles, so every
run has the same mix; the seed picks parameters from narrow, equally
costly sets and the order of the ops, so different seeds do the same
amount of work.

An op has an untimed ``before`` step (cache clearing), the timed
``run`` call, an ``expect`` thunk computed once before timing starts,
and a ``check`` that compares the result with the expectation outside
the timed interval.  ``check`` raises :class:`Mismatch` on a wrong
result and may return counters for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

import reference


class Mismatch(Exception):
    """An op returned a value, output or exit code other than expected."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    expect: Callable[[], object]
    check: Callable[[object, object], Optional[dict]]
    before: Optional[Callable[[], None]] = None


@dataclass
class Workload:
    name: str
    ops: list
    warm: list = field(default_factory=list)  # set-up steps before the first timed op


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def clear_caches(bb) -> None:
    """Empty the triangle memo and the exp(t) enclosure cache, as in a fresh process."""
    bb.stirling_bell.clear_perturbations()
    exp_bounds = getattr(bb.series_eval, "_exp_bounds", None)
    if exp_bounds is not None:
        exp_bounds.cache_clear()


def run_cli(bb, argv):
    """cli.main with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bb.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# verify_all

# Checks each suite reports at the default --rmax/--nmax (286 in all).
SUITE_CHECKS = {
    "oracle": 28, "symmetry": 42, "anti": 18, "dobinski": 75, "laguerre": 20,
    "kummer": 8, "family": 21, "egf": 25, "hgf": 2, "fock": 36,
    "recurrence": 5, "connection": 6,
}

# Suites whose checks read every in-band entry of rows n <= 4 (r, s <= 3):
# oracle and connection for r >= s, symmetry for r != s, dobinski for all.
# The two dobinski ops put the 90th percentile inside a cluster of three
# dobinski-sized ops instead of on the single clean dobinski suite.
_PERTURB_SUITES = ("oracle", "symmetry", "connection", "dobinski", "dobinski")


def _check_verify(want_code: int, want_checks: Optional[int]):
    def check(result, _expected):
        code, out, _ = result
        _require(code == want_code, f"exit code {code}, expected {want_code}")
        report = json.loads(out)
        n_checks = len(report["checks"])
        if want_code == 0:
            _require(report["ok"] and report["failed"] == 0
                     and all(c["ok"] for c in report["checks"]),
                     f"{report['failed']} checks failed")
            _require(n_checks == want_checks, f"{n_checks} checks, expected {want_checks}")
        else:
            _require(not report["ok"] and report["failed"] > 0,
                     "perturbed entry went undetected")
        return {"cli.checks_reported": n_checks}
    return check


def verify_all(bb, seed: int, ref) -> Workload:
    rng = random.Random(seed)
    cli_seed = str(rng.randrange(1 << 30))
    ops = []
    for i, suite in enumerate(bb.cli.SUITES):
        ops.append(Op(
            label=f"verify {suite}",
            run=lambda suite=suite: run_cli(bb, ["--json", "--seed", cli_seed, "verify", suite]),
            expect=lambda: None,
            check=_check_verify(0, SUITE_CHECKS[suite]),
            before=(lambda: clear_caches(bb)) if i == 0 else None,
        ))
    for suite in _PERTURB_SUITES:
        while True:
            r, s = rng.randint(1, 3), rng.randint(1, 3)
            if {"symmetry": r != s, "dobinski": True}.get(suite, r >= s):
                break
        n = rng.randint(1, 4)
        lo = min(r, s)
        k = rng.randint(lo, n * lo)
        spec = f"{r},{s},{n},{k},{rng.choice((-2, -1, 1, 2))}"
        ops.append(Op(
            label=f"verify {suite} --perturb",
            run=lambda suite=suite, spec=spec: run_cli(
                bb, ["--json", "verify", suite, "--perturb", spec]),
            expect=lambda: None,
            check=_check_verify(1, None),
        ))
    return Workload("verify_all", ops)


# ---------------------------------------------------------------------------
# tables

# n_max per (r, s) so that every cold build takes about the same time,
# about 100 ms: the 90th percentile then falls inside one cluster of builds.
TRIANGLE_NMAX = {(1, 1): 38, (2, 1): 35, (1, 2): 34, (2, 2): 26, (3, 1): 36,
                 (1, 3): 36, (3, 2): 24, (2, 3): 24, (3, 3): 21}
# Row index of the point reads per (r, s), each read taking ~10-15 ms.
POINT_N = {(1, 1): 250, (2, 1): 230, (1, 2): 250, (2, 2): 180, (3, 1): 240,
           (1, 3): 250, (3, 2): 170, (2, 3): 175, (3, 3): 140}
POINT_READS_PER_PAIR = 2
_FORMATS = ("plain", "csv", "json", "oeis")


def _parse_table(text: str, fmt: str) -> dict:
    """Formatted triangle -> {n: [values by increasing k]}."""
    if fmt == "json":
        return {row["n"]: [int(v) for _, v in sorted(row["entries"].items(), key=lambda kv: int(kv[0]))]
                for row in json.loads(text)["rows"]}
    if fmt == "plain":
        return {n: [int(v) for v in line.split()]
                for n, line in enumerate(text.split("\n"), start=1)}
    if fmt == "csv":
        rows: dict = {}
        for line in text.split("\n"):
            n, k, v = (int(x) for x in line.split(","))
            rows.setdefault(n, []).append((k, v))
        return {n: [v for _, v in sorted(kv)] for n, kv in rows.items()}
    return {0: [int(v) for v in text.split(", ")]}  # oeis: one flat list


def _check_table(fmt: str, n_max: int):
    def check(text, expected_rows):
        got = _parse_table(text, fmt)
        want = {n: [v for _, v in sorted(expected_rows[n].items())] for n in range(1, n_max + 1)}
        if fmt == "oeis":
            want = {0: [v for n in range(1, n_max + 1) for v in want[n]]}
        _require(got == want, f"{fmt} table differs from the reference rows")
    return check


def _equal(what: str):
    def check(got, want):
        _require(got == want, f"{what} differs from the reference")
    return check


def tables(bb, seed: int, ref) -> Workload:
    rng = random.Random(seed)
    P = bb.stirling_bell.Params
    units = []
    for (r, s), n_max in TRIANGLE_NMAX.items():
        fmt = rng.choice(_FORMATS)
        p = P(r, s)
        build = Op(label="cmd_triangle cold",
                   run=lambda r=r, s=s, n_max=n_max, fmt=fmt: bb.cli.cmd_triangle(r, s, n_max, fmt),
                   expect=lambda r=r, s=s, n_max=n_max: ref.rows(r, s, n_max),
                   check=_check_table(fmt, n_max),
                   before=lambda: bb.stirling_bell.clear_perturbations())
        # one warm read follows each build: 9 fast reads, 18 point reads and
        # 9 builds put the median in the middle of the point reads
        if rng.random() < 0.5:
            read = Op(label="bell_sequence warm",
                      run=lambda p=p, n_max=n_max: bb.stirling_bell.bell_sequence(p, n_max).values,
                      expect=lambda r=r, s=s, n_max=n_max: tuple(ref.bell(r, s, n) for n in range(n_max + 1)),
                      check=_equal("Bell sequence"))
        else:
            t = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2)))
            read = Op(label="bell_polynomial warm",
                      run=lambda p=p, n_max=n_max, t=t: bb.stirling_bell.bell_polynomial(p, n_max, t),
                      expect=lambda r=r, s=s, n_max=n_max, t=t: ref.bell_polynomial(r, s, n_max, t),
                      check=_equal("Bell polynomial"))
        units.append([build, read])
        for _ in range(POINT_READS_PER_PAIR):
            n = POINT_N[(r, s)]
            lo = min(r, s)
            width = n * lo - lo
            k = lo + width // 2 + rng.randint(-width // 50, width // 50)
            units.append([Op(
                label="stirling point read",
                run=lambda p=p, n=n, k=k: bb.stirling_bell.stirling(p, n, k),
                expect=lambda r=r, s=s, n=n, k=k: ref.value(r, s, n, k),
                check=_equal("point value"))])
    rng.shuffle(units)
    return Workload("tables", [op for unit in units for op in unit])


# ---------------------------------------------------------------------------
# rewrite

# Power words [(a+)^r a^s]^n of 24-64 letters, one per (r, s).
POWER_ROWS = ((1, 1, 28), (2, 1, 19), (1, 2, 19), (2, 2, 14), (3, 1, 15),
              (1, 3, 15), (3, 2, 11), (2, 3, 11), (3, 3, 9))
ANTI_ROWS = ((1, 1, 26), (2, 1, 18), (2, 1, 12), (2, 2, 13), (3, 1, 15), (3, 2, 10), (3, 3, 8))
RANDOM_WORD_LENGTHS = (24, 32, 40, 48, 56, 64)
RANDOM_STRATEGY_LENGTH = 20
RANDOM_STRATEGY_OPS = 3


def balanced_word(rng: random.Random, length: int) -> str:
    """A word with length/2 of each letter and an inversion count within
    10% of the median, so every seed draws words of about the same cost."""
    half = length // 2
    target = half * half / 2
    while True:
        letters = ["a"] * half + ["A"] * (length - half)
        rng.shuffle(letters)
        seen_a = inversions = 0
        for ch in letters:
            if ch == "a":
                seen_a += 1
            else:
                inversions += seen_a
        if abs(inversions - target) <= 0.1 * target:
            return "".join(letters)


def rewrite(bb, seed: int, ref) -> Workload:
    rng = random.Random(seed)
    bo = bb.boson_oracle
    P = bb.stirling_bell.Params
    ops = []
    for r, s, n in POWER_ROWS:
        ops.append(Op(
            label="extract_stirling_row",
            run=lambda r=r, s=s, n=n: bo.extract_stirling_row(P(r, s), n),
            expect=lambda r=r, s=s, n=n: ref.row(r, s, n),
            check=_equal("rewritten row")))
    for r, s, n in ANTI_ROWS:
        ops.append(Op(
            label="extract_anti_stirling_row",
            run=lambda r=r, s=s, n=n: bo.extract_anti_stirling_row(P(r, s), n),
            expect=lambda r=r, s=s, n=n: {k - s: v for k, v in ref.row(r, s, n + 1).items()},
            check=_equal("anti-normal row")))
    for length in RANDOM_WORD_LENGTHS:
        for strategy in ("leftmost", "rightmost"):
            word = balanced_word(rng, length)
            ops.append(Op(
                label=f"normalize {strategy}",
                run=lambda word=word, strategy=strategy: bo.normalize(word, strategy=strategy).terms,
                expect=lambda word=word: reference.normal_form(word),
                check=_equal("normal form")))
        word = balanced_word(rng, length)
        ops.append(Op(
            label="antinormalize",
            run=lambda word=word: bo.antinormalize(word).terms,
            expect=lambda word=word: reference.anti_normal_form(word),
            check=_equal("anti-normal form")))
    for _ in range(RANDOM_STRATEGY_OPS):
        word = balanced_word(rng, RANDOM_STRATEGY_LENGTH)
        strategy_seed = rng.randrange(1 << 30)
        ops.append(Op(
            label="normalize random",
            run=lambda word=word, sd=strategy_seed: bo.normalize(
                word, strategy="random", rng=random.Random(sd)).terms,
            expect=lambda word=word: reference.normal_form(word),
            check=_equal("normal form")))
    rng.shuffle(ops)
    return Workload("rewrite", ops)


# ---------------------------------------------------------------------------
# series

_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
# Interchangeable parameter sets per op slot: each evaluates in < 0.5 s, and
# at each precision a slot uses, its sets cost within about 10% of each other,
# so the seed changes the inputs but not the cost of the ops around p50 and p90.
DOBINSKI = ((1, 1, 5), (2, 1, 4), (2, 2, 4), (3, 3, 3), (3, 1, 5))
GAMMA_FORM = ((3, 2, 3), (3, 1, 4), (3, 1, 5))
POLYNOMIAL = ((1, 1, 5), (2, 2, 3), (3, 2, 2))
POLY_T = (Fraction(4, 3), Fraction(3, 2))
HYPER_SLOTS = (
    # (parameter choices, argument, bits)
    ((((_HALF, _THIRD), (Fraction(5, 2),)), ((_THIRD, Fraction(2, 3)), (Fraction(3, 2),)),
      ((_HALF, _HALF), (Fraction(3, 2),))), Fraction(1, 4), 2048),
    ((((Fraction(3),), (Fraction(2),)), ((Fraction(5, 2),), (Fraction(3, 2),))), Fraction(1), 4096),
    ((((Fraction(7, 2),), (Fraction(3, 2), Fraction(2))), ((Fraction(5, 2),), (_HALF, Fraction(3))),
      ((Fraction(3),), (Fraction(5, 2), Fraction(2)))), Fraction(3), 2048),
    ((((_HALF, _THIRD), (Fraction(5, 2),)), ((_HALF, _HALF), (Fraction(3, 2),)),
      ((_THIRD, _HALF), (Fraction(2),))), _HALF, 1024),
    # the same slot again: with hgf_check (3, 2, 1/2) and the first slot, the
    # four costliest ops of a cycle hold its 90th percentile inside them
    ((((_HALF, _THIRD), (Fraction(5, 2),)), ((_HALF, _HALF), (Fraction(3, 2),)),
      ((_THIRD, _HALF), (Fraction(2),))), _HALF, 1024),
)
KUMMER = ((2, 3), (2, 4))
FAMILY = ((2, 1, 3), (1, 1, 2))
BELL_R1 = ((2, 3), (2, 5), (3, 4))
# (r, s, lambda, lowest order, bits); the seed adds 0 or 1 to the order
HGF_SLOTS = ((3, 2, Fraction(1, 5), 23, 1024), (3, 2, _HALF, 13, 1024), (4, 2, Fraction(1, 5), 20, 512))
HGF_ORDER_STEPS = (0, 1)
EGF_ORDER = 40


def _check_brackets(sv, exact):
    _require(sv.brackets(exact), "certified interval misses the exact value")


def _check_hyper(sv, want):
    tol = sv.tail_bound.to_fraction() + abs(want) / 2 ** (sv.precision_bits + 32)
    _require(abs(sv.value.to_fraction() - want) <= tol, "pFq value off the mpmath reference")


def _check_true(result, _expected):
    _require(result is True, f"check returned {result!r}")


def _check_hgf(res, rhs):
    _require(res.ok and res.lhs.brackets(rhs), "hgf routes disagree with the reference")


def series(bb, seed: int, ref) -> Workload:
    rng = random.Random(seed)
    se = bb.series_eval
    P = bb.stirling_bell.Params
    ops = []
    # What the ops of any seed can read: triangle rows per (r, s) and exp(t)
    # enclosures per (t, bits).  A library user's process has both warm, so
    # set-up builds them, the same for every seed.
    rows: dict = {}
    exps: set = set()

    def reads(r, s, n):
        rows[(r, s)] = max(rows.get((r, s), 0), n)

    # 31 ops in all: an odd count puts the median inside one op's samples
    for bits in (1024, 1024, 2048, 2048, 4096):
        exps.add((Fraction(1), bits))
        r, s, n = rng.choice(DOBINSKI)
        ops.append(Op("dobinski_bell", lambda r=r, s=s, n=n, b=bits: se.dobinski_bell(P(r, s), n, precision=b),
                      lambda r=r, s=s, n=n: ref.bell(r, s, n), _check_brackets))
    for bits in (1024, 2048, 4096):
        r, s, n = rng.choice(GAMMA_FORM)
        ops.append(Op("dobinski_gamma_form",
                      lambda r=r, s=s, n=n, b=bits: se.dobinski_gamma_form(P(r, s), n, precision=b),
                      lambda r=r, s=s, n=n: ref.bell(r, s, n), _check_brackets))
    for bits in (1024, 2048, 4096):
        exps.update((t, bits) for t in POLY_T)
        (r, s, n), t = rng.choice(POLYNOMIAL), rng.choice(POLY_T)
        ops.append(Op("dobinski_polynomial",
                      lambda r=r, s=s, n=n, t=t, b=bits: se.dobinski_polynomial(P(r, s), n, t, precision=b),
                      lambda r=r, s=s, n=n, t=t: ref.bell_polynomial(r, s, n, t), _check_brackets))
    for choices, x, bits in HYPER_SLOTS:
        upper, lower = rng.choice(choices)
        ops.append(Op("hypergeometric",
                      lambda u=upper, lo=lower, x=x, b=bits: se.hypergeometric(se.HyperParams(u, lo, x), precision=b),
                      lambda u=upper, lo=lower, x=x, b=bits: reference.hypergeometric(u, lo, x, b),
                      _check_hyper))
    for bits in (2048, 4096):
        for r, n in KUMMER:
            reads(2 * r, r, n)
        r, n = rng.choice(KUMMER)
        ops.append(Op("kummer_bell_check", lambda r=r, n=n, b=bits: se.kummer_bell_check(r, n, precision=b),
                      lambda: True, _check_true))
        for p, q, n in FAMILY:
            reads(p * (q + 1), p * q, n)
        p, q, n = rng.choice(FAMILY)
        ops.append(Op("family_bell_check", lambda p=p, q=q, n=n, b=bits: se.family_bell_check(p, q, n, precision=b),
                      lambda: True, _check_true))
        for r, n in BELL_R1:
            reads(r, 1, n)
        r, n = rng.choice(BELL_R1)
        ops.append(Op("bell_r1_hypergeometric_check",
                      lambda r=r, n=n, b=bits: se.bell_r1_hypergeometric_check(r, n, precision=b),
                      lambda: True, _check_true))
    for r, s, lam, base_order, bits in HGF_SLOTS:
        reads(r, s, base_order + max(HGF_ORDER_STEPS))
        exps.add((Fraction(1), bits))
        order = base_order + rng.choice(HGF_ORDER_STEPS)
        t_power = 1 if (r, s) == (3, 2) else s - 1
        ops.append(Op("hgf_check",
                      lambda r=r, s=s, lam=lam, o=order, b=bits: se.hgf_check(r, s, lam, o, precision=b),
                      lambda r=r, s=s, lam=lam, o=order, tp=t_power: 1 + sum(
                          Fraction(ref.bell(r, s, n), factorial(n) ** (tp + 1)) * lam**n
                          for n in range(1, o + 1)),
                      _check_hgf))
    for r in (1, 2, 3):
        reads(r, 1, EGF_ORDER)
    for _ in range(2):
        r = rng.choice((1, 2, 3))
        ops.append(Op("egf_bell_r1_check", lambda r=r: se.egf_bell_r1_check(r, EGF_ORDER),
                      lambda: True, _check_true))
        r = rng.choice((1, 2))
        k = rng.randint(r, 4)
        ops.append(Op("egf_stirling_diag_check", lambda r=r, k=k: se.egf_stirling_diag_check(r, k, EGF_ORDER),
                      lambda: True, _check_true))
        r, k = rng.choice((2, 3)), rng.choice((1, 2, 3))
        ops.append(Op("egf_stirling_r1_check", lambda r=r, k=k: se.egf_stirling_r1_check(r, k, EGF_ORDER),
                      lambda: True, _check_true))
    rng.shuffle(ops)

    sb = bb.stirling_bell
    warm = [lambda p=P(r, s), n=n: sb.bell_sequence(p, n) for (r, s), n in sorted(rows.items())]
    exp_bounds = getattr(se, "_exp_bounds", None)
    if exp_bounds is not None:
        warm += [lambda a=a: exp_bounds(*a) for a in sorted(exps)]
    return Workload("series", ops, warm)


WORKLOADS = {"verify_all": verify_all, "tables": tables, "rewrite": rewrite, "series": series}


# ---------------------------------------------------------------------------
# Known defects: run once per run, reported by name, not timed.

KNOWN_DEFECTS = (
    # (name, argv, correct behaviour, test of the outcome for that behaviour)
    ("low_prec_hgf_traceback", ["--prec", "8", "verify", "hgf"],
     "one-line error and exit 2",
     lambda code, err: code == 2 and err.count("\n") <= 1),
    ("unread_perturbation_passes", ["verify", "connection", "--perturb", "9,9,1,1"],
     "nonzero exit when no check reads the perturbed entry",
     lambda code, err: code not in (0, None)),
)


def probe_known_defects(bb) -> dict:
    """{name: outcome}, each outcome 'present: ...' or 'fixed'."""
    outcomes = {}
    for name, argv, wanted, is_correct in KNOWN_DEFECTS:
        try:
            code, _, err = run_cli(bb, argv)
            detail = f"exit {code}"
        except Exception as exc:  # the defect under probe may be a traceback
            code, err, detail = None, "", f"raised {type(exc).__name__}"
        finally:
            bb.stirling_bell.clear_perturbations()
        outcomes[name] = "fixed" if is_correct(code, err) else f"present: {detail}, want {wanted}"
    return outcomes
