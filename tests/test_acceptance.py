"""Acceptance suite.

One test per criterion, run at the stated tolerance.  Each prints a
PASS line (visible with ``pytest -s``); any assertion failure means the
criterion is not met.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from bosonbell import boson_oracle, cli, fock_numeric, series_eval, stirling_bell
from bosonbell.exact_core import binomial
from bosonbell.stirling_bell import Params

from _oracles import bell_brute, stirling_brute

TAIL_CAP = Fraction(1, 2**200)          # for 256-bit series evaluations
HGF_CAP = Fraction(1, 10**15)
FOCK_RTOL = Fraction(1, 10**30)


def _report(num: int, name: str, t0: float) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS  [{time.time() - t0:.2f}s]")


def test_criterion_1_route_equivalence():
    t0 = time.time()
    for r in range(1, 4):
        for s in range(1, r + 1):
            p = Params(r, s)
            table = stirling_bell.triangle(p, 4)
            for n in range(1, 5):
                explicit = {k: v for k in p.band(n)
                            if (v := stirling_bell.stirling_explicit(p, n, k))}
                diffop = {k: v for k in p.band(n)
                          if (v := stirling_bell.stirling_diffop(p, n, k))}
                oracle = boson_oracle.extract_stirling_row(p, n)
                assert explicit == diffop == oracle == table.row(n), (r, s, n)
    _report(1, "route equivalence, exact", t0)


def test_criterion_2_symmetry_and_anti_stirling():
    t0 = time.time()
    for r in range(1, 4):
        for s in range(1, 4):
            p, q = Params(r, s), Params(s, r)
            for n in range(1, 4):
                for k in range(0, n * min(r, s) + 2):
                    assert stirling_bell.stirling(p, n, k) == stirling_bell.stirling(q, n, k)
    for r in range(1, 4):
        for s in range(1, r + 1):
            p = Params(r, s)
            for n in range(1, 4):
                oracle_row = boson_oracle.extract_anti_stirling_row(p, n)
                shift_row = {k: stirling_bell.stirling(p, n + 1, k + s)
                             for k in range(0, n * s + 1)}
                assert oracle_row == shift_row, (r, s, n)
    _report(2, "symmetry and anti-Stirling shift, exact", t0)


def test_criterion_3_specializations():
    t0 = time.time()
    classical = Params(1, 1)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert stirling_bell.stirling(classical, n, k) == stirling_brute(n, k)
    lah = Params(2, 1)
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert stirling_bell.stirling(lah, n, k) == stirling_bell.lah_closed_form(n, k)
    for n in range(1, 11):
        for k in range(1, n + 2):
            assert (stirling_bell.stirling(classical, n + 1, k)
                    == k * stirling_bell.stirling(classical, n, k)
                    + stirling_bell.stirling(classical, n, k - 1))
    _report(3, "classical and Lah specializations, exact", t0)


def test_criterion_4_dobinski_bracketing():
    t0 = time.time()
    for r in range(1, 4):
        for s in range(1, 4):
            p = Params(r, s)
            for n in range(1, 5):
                exact = stirling_bell.bell_number(p, n)
                sv = series_eval.dobinski_bell(p, n, precision=256)
                assert sv.brackets(exact), (r, s, n)
                assert sv.tail_bound.to_fraction() <= TAIL_CAP, (r, s, n)
                if r > s:
                    sv2 = series_eval.dobinski_gamma_form(p, n, precision=256)
                    assert sv2.brackets(exact), (r, s, n)
                    assert sv2.tail_bound.to_fraction() <= TAIL_CAP, (r, s, n)
                for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
                    target = stirling_bell.bell_polynomial(p, n, t)
                    sv3 = series_eval.dobinski_polynomial(p, n, t, precision=256)
                    assert sv3.brackets(target), (r, s, n, t)
    _report(4, "Dobinski-type series bracket the exact values, tails <= 2^-200", t0)


def test_criterion_5_closed_forms():
    t0 = time.time()
    for n in range(1, 21):
        assert series_eval.laguerre_bell_check(n), n
    for r in (1, 2):
        for n in range(1, 5):
            sv = series_eval.kummer_bell_value(r, n, precision=256)
            assert sv.brackets(stirling_bell.bell_number(Params(2 * r, r), n)), (r, n)
            assert sv.tail_bound.to_fraction() <= TAIL_CAP, (r, n)
    for (p_, r_) in ((1, 1), (1, 2)):
        for n in range(1, 4):
            assert series_eval.family_bell_check(p_, r_, n, precision=256), (p_, r_, n)
    for n in range(1, 9):
        assert (stirling_bell.bell_diag_from_classical(n)
                == stirling_bell.bell_number(Params(2, 2), n)), n
    _report(5, "Laguerre, Kummer, family and classical-Bell closed forms", t0)


def test_criterion_6_generating_functions():
    t0 = time.time()
    for r in (1, 2, 3):
        assert series_eval.egf_bell_r1_check(r, 6), r
    for r in (1, 2):
        for k in range(r, 5):
            assert series_eval.egf_stirling_diag_check(r, k, 6), (r, k)
    for (r, s, lam) in ((3, 2, Fraction(1, 5)), (4, 2, Fraction(1, 20))):
        res = series_eval.hgf_check(r, s, lam, 12, precision=256)
        assert res.ok, (r, s)
        combined = res.lhs.tail_bound.to_fraction()
        assert combined <= HGF_CAP, (r, s, combined)
        assert res.difference.to_fraction() <= HGF_CAP, (r, s)
    _report(6, "generating functions: egf exact, hgf within 1e-15", t0)


def test_criterion_7_fock_numerics():
    t0 = time.time()
    cases = [(1, 1, n) for n in range(1, 7)]
    cases += [(r, s, n) for (r, s) in ((2, 1), (2, 2), (1, 2)) for n in range(1, 4)]
    katriel = {}  # n -> <1|(a+ a)^n|1>
    for (r, s, n) in cases:
        p = Params(r, s)
        for z in (Fraction(1, 2), Fraction(1)):
            value = fock_numeric.expectation_table([(p, n)], [z], 128, precision=256)[p, n, z][-1]
            exact = z ** (n * abs(r - s)) * stirling_bell.bell_polynomial(p, n, z * z)
            err = abs(value.to_fraction() - exact)
            assert err <= FOCK_RTOL * max(abs(exact), Fraction(1)), (r, s, n, z)
            if (r, s, z) == (1, 1, 1):
                katriel[n] = value.to_fraction()
    katriel_expected = (1, 2, 5, 15, 52, 203)
    for n, expected in enumerate(katriel_expected, start=1):
        assert stirling_bell.bell_number(Params(1, 1), n) == expected
        assert abs(katriel[n] - expected) <= FOCK_RTOL * expected, n
    _report(7, "Fock-space expectations, rel err <= 1e-30 with D->D+16 stability", t0)


def test_criterion_8_recurrences():
    t0 = time.time()
    for r in (1, 2, 3):
        seq = stirling_bell.bell_recurrence_r1(r, 8)
        for n in range(9):
            assert seq.values[n] == stirling_bell.bell_number(Params(r, 1), n), (r, n)
    transform = [1]
    for n in range(8):
        transform.append(sum(binomial(n, k) * transform[k] for k in range(n + 1)))
    assert list(stirling_bell.bell_recurrence_r1(1, 8).values) == transform
    assert transform == [bell_brute(n) for n in range(9)]
    _report(8, "Bell recursions match row sums; r=1 is the binomial transform", t0)


def test_criterion_9_cli_contract(capsys):
    t0 = time.time()
    assert cli.main(["bell", "1", "1", "5", "--format", "oeis"]) == 0
    assert capsys.readouterr().out.strip() == "1, 1, 2, 5, 15, 52"

    assert cli.main(["verify", "oracle", "--nmax", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "recurrence"]) == 0
    capsys.readouterr()

    # mutation smoke test: a single corrupted entry must flip the exit code
    assert cli.main(["verify", "oracle", "--nmax", "3", "--perturb", "2,1,2,1"]) == 1
    capsys.readouterr()
    assert cli.main(["verify", "recurrence", "--perturb", "3,1,2,2"]) == 1
    capsys.readouterr()

    result = subprocess.run(
        [sys.executable, "-m", "bosonbell", "bell", "2", "1", "3", "--format", "oeis"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0 and result.stdout.strip() == "1, 1, 3, 13"
    _report(9, "CLI output contract and mutation smoke test", t0)
