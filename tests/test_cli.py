import ast
import contextlib
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from bosonbell import boson_oracle, cli, fock_numeric, series_eval, stirling_bell
from bosonbell.fock_numeric import FockTruncationError
from bosonbell.stirling_bell import Params, stirling


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangleCommand:
    def test_plain_rows(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "1", "1", "3")
        assert code == 0
        assert out.splitlines() == ["1", "1 1", "1 3 1"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "2", "1", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["1,1,1", "2,1,2", "2,2,1"]

    def test_oeis_single_entry(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "1", "1", "1", "--format", "oeis")
        assert code == 0
        assert out.strip() == "1"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "3", "3", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == 3 and payload["s"] == 3
        p = Params(3, 3)
        for row in payload["rows"]:
            n = row["n"]
            for k_str, v_str in row["entries"].items():
                assert int(v_str) == stirling(p, n, int(k_str))

    def test_rejects_bad_parameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["triangle", "0", "1", "3"])
        assert exc.value.code == 2


class TestBellCommand:
    def test_oeis_classical(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "1", "1", "5", "--format", "oeis")
        assert code == 0
        assert out.strip() == "1, 1, 2, 5, 15, 52"

    def test_oeis_lah(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "2", "1", "3", "--format", "oeis")
        assert code == 0
        assert out.strip() == "1, 1, 3, 13"

    def test_oeis_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "2", "2", "2", "--format", "oeis")
        assert code == 0
        assert out.strip() == "1, 1, 7"

    def test_json_values_are_exact_strings(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "3", "3", "6", "--format", "json")
        payload = json.loads(out)
        values = [int(v) for v in payload["values"]]
        from bosonbell.stirling_bell import bell_number
        assert values == [bell_number(Params(3, 3), n) for n in range(7)]
        assert all(isinstance(v, str) for v in payload["values"])


class TestNormalizeCommand:
    def test_single_pair(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "aA")
        assert code == 0
        assert out.strip() == "(0,0):1 (1,1):1"

    def test_number_operator_squared(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "AaAa")
        assert code == 0
        assert out.strip() == "(1,1):1 (2,2):1"

    def test_already_normal(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "AAaa")
        assert code == 0
        assert out.strip() == "(2,2):1"

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown format"):
            cli.cmd_normalize("aA", "oeis")
        with pytest.raises(ValueError, match="unknown format"):
            cli.cmd_triangle(1, 1, 2, "xml")
        with pytest.raises(ValueError, match="unknown format"):
            cli.cmd_bell(1, 1, 2, "xml")

    def test_bad_alphabet_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "normalize", "abc")
        assert code == 2
        assert "error" in err


class TestVerifyCommand:
    def test_clean_suite_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "laguerre", "--nmax", "6")
        assert code == 0
        assert "0 failed" in out

    def test_perturbed_entry_is_detected(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "oracle", "--nmax", "3",
                               "--perturb", "2,1,2,1")
        assert code == 1
        assert "FAIL" in out

    def test_perturbation_does_not_leak(self, capsys):
        run_cli(capsys, "verify", "oracle", "--nmax", "2", "--perturb", "2,1,2,1")
        assert stirling(Params(2, 1), 2, 1) == 2

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "connection", "--nmax", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["failed"] == 0
        assert all(c["ok"] for c in payload["checks"])

    def test_json_report_on_failure(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "recurrence",
                               "--perturb", "2,1,3,2")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False and payload["failed"] >= 1

    def test_every_in_band_perturbation_is_caught(self, capsys):
        import random as random_mod

        rng = random_mod.Random(3)
        for _ in range(5):
            r = rng.randint(1, 3)
            s = rng.randint(1, r)
            n = rng.randint(1, 3)
            k = rng.randint(s, n * s)
            code, _, _ = run_cli(capsys, "verify", "oracle", "--nmax", "3",
                                 "--perturb", f"{r},{s},{n},{k}")
            assert code == 1, (r, s, n, k)

    def test_corrupted_row_recurrence_is_caught(self, capsys, monkeypatch):
        next_row = stirling_bell._next_row

        def corrupt(p, row):
            out = next_row(p, row)
            if (p.r, p.s) == (2, 1) and max(out) == 3:
                out[2] += 1
            return out

        stirling_bell.clear_perturbations()
        monkeypatch.setattr(stirling_bell, "_next_row", corrupt)
        try:
            code, out, _ = run_cli(capsys, "verify", "oracle")
        finally:
            stirling_bell.clear_perturbations()
        assert code == 1
        assert "FAIL [oracle] S_(2,1)(n=3,.)" in out

    @pytest.mark.parametrize("delta,errs", [
        ("1", ("7.81e-03", "1.00e+00")),
        (str(10**400), ("7.81e+397", "1.00e+400")),
    ], ids=["in-float-range", "past-float-range"])
    def test_fock_failure_exits_one_at_any_size(self, capsys, delta, errs):
        code, out, err = run_cli(capsys, "verify", "fock", "--perturb", f"2,1,3,2,{delta}")
        assert code == 1 and err == ""
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            f"FAIL [fock] <z|[(a+)^2 a^1]^3|z> at z={z}, dim 128(+16) matches the exact "
            f"polynomial  <- err={e}" for z, e in zip(("1/2", "1"), errs)]
        assert out.endswith("35 passed, 2 failed\n")

    @pytest.mark.parametrize("perturb,suite", [
        ("3,3,2,4", "oracle"),      # diagonal entry, caught by route equivalence
        ("2,3,2,3", "symmetry"),    # r < s entry, caught against the swapped order
        ("3,1,4,2", "oracle"),      # off-diagonal entry
    ])
    def test_perturbations_in_every_parameter_regime(self, capsys, perturb, suite):
        code, _, _ = run_cli(capsys, "verify", suite, "--perturb", perturb)
        assert code == 1


def test_verify_all_json_matches_the_snapshot(capsys):
    """A refactor keeps every check's suite, name, verdict and detail; the
    projection leaves room for added report fields."""
    code, out, _ = run_cli(capsys, "--json", "verify", "all")
    assert code == 0
    got = [{key: c[key] for key in ("suite", "name", "ok", "detail")}
           for c in json.loads(out)["checks"]]
    snapshot = pathlib.Path(__file__).with_name("verify_all_checks.json")
    assert got == json.loads(snapshot.read_text())


@pytest.mark.parametrize("prec", ["16", "64"])
def test_low_precision_keeps_every_name_and_verdict(capsys, prec):
    """Details follow --prec; the suite, name and verdict of each check do not."""
    code, out, _ = run_cli(capsys, "--prec", prec, "--json", "verify", "all")
    assert code == 0
    got = [[c[key] for key in ("suite", "name", "ok")] for c in json.loads(out)["checks"]]
    snapshot = pathlib.Path(__file__).with_name("verify_all_checks.json")
    assert got == [[c[key] for key in ("suite", "name", "ok")]
                   for c in json.loads(snapshot.read_text())]


@pytest.mark.parametrize("prec,suite", [("16", "all"), ("64", "all"), ("2048", "fock")])
def test_low_precision_output_matches_its_digest(capsys, prec, suite):
    """Where ``bits`` is smallest a rounding slip moves a detail and no
    verdict: the whole ``--json`` output, every value, tail bound and Fock
    error in its details, is pinned by a sha256 in verify_series_digests.json."""
    code, out, _ = run_cli(capsys, "--json", "--prec", prec, "verify", suite)
    assert code == 0
    digests = json.loads(pathlib.Path(__file__).with_name("verify_series_digests.json").read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == digests[prec][suite]


@pytest.mark.parametrize("suite", ["dobinski", "kummer", "family", "hgf"])
def test_high_precision_output_matches_its_digest(capsys, suite):
    """The whole ``--json`` output of a certified-series suite at 4096
    bits, every value and tail bound in its details, is pinned by a sha256
    in verify_series_digests.json; CI compares the file's 8192-bit digests."""
    code, out, _ = run_cli(capsys, "--json", "--prec", "4096", "verify", suite)
    assert code == 0
    digests = json.loads(pathlib.Path(__file__).with_name("verify_series_digests.json").read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == digests["4096"][suite]


@pytest.mark.parametrize("before,after,read", [
    (["--json", "--prec", "64", "--seed", "3"], ["verify", "hgf"], (64, 3)),
    (["--seed", "7", "--json"], ["verify", "oracle"], (256, 7)),
])
def test_global_flags_after_the_subcommand(capsys, monkeypatch, before, after, read):
    """--prec, --seed and --json mean the same after the subcommand as before it."""
    suite = after[-1]
    seen = []
    runner = cli._SUITE_RUNNERS[suite]
    monkeypatch.setitem(cli._SUITE_RUNNERS, suite,
                        lambda args: seen.append((args.prec, args.seed)) or runner(args))
    leading = run_cli(capsys, *before, *after)
    trailing = run_cli(capsys, *after, *before)
    assert leading == trailing and leading[0] == 0 and leading[1].startswith("{")
    # the oracle report does not show the seed, so compare what the suite read
    assert seen == [read, read]


class TestParserIsBuiltOnce:
    def test_one_parser_serves_every_call(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flags_of_one_call_do_not_reach_the_next(self, capsys, monkeypatch):
        seen = []
        runner = cli._SUITE_RUNNERS["hgf"]
        monkeypatch.setitem(cli._SUITE_RUNNERS, "hgf",
                            lambda args: seen.append((args.prec, args.json)) or runner(args))
        code, out, _ = run_cli(capsys, "verify", "hgf", "--json", "--prec", "64")
        assert code == 0 and json.loads(out)["ok"]
        code, out, _ = run_cli(capsys, "verify", "hgf")
        assert code == 0
        assert out.startswith("PASS [hgf] ") and out.endswith(" passed, 0 failed\n")
        assert seen == [(64, True), (256, False)]

    @pytest.mark.parametrize("args", [("--help",), ("verify", "--help")])
    def test_help_prints_the_same_bytes_twice(self, capsys, args):
        printed = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(list(args))
            assert exc.value.code == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0].startswith("usage: bosonbell")


def test_cli_reaches_no_private_fock_numeric_name():
    # the Fock suite goes through the public entry point, so a tracer that
    # wraps public names charges the Fock work to fock_numeric, not to cli
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    private = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "fock_numeric" and node.attr.startswith("_")]
    private += [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "fock_numeric"
                for alias in node.names if alias.name.startswith("_")]
    assert private == []


class TestFockSuiteComputesEachValueOnce:
    @staticmethod
    def recording(monkeypatch, shifted=None):
        """Record each (r, s, n, z) that expectation_table computes, one list
        per call, and move the value at power k of the ``shifted`` case
        (r, s, k, z) by 2^-70."""
        calls = []
        expectation_table = fock_numeric.expectation_table

        def wrapper(words, zs, *args, **kwargs):
            table = expectation_table(words, zs, *args, **kwargs)
            calls.append([(p.r, p.s, n, Fraction(z)) for (p, n, z) in table])
            for (p, n, z), values in table.items():
                for k, (value, bound) in enumerate(values, 1):
                    if (p.r, p.s, k, Fraction(z)) == shifted:
                        values[k - 1] = (value + Fraction(1, 2**70), bound)
            return table

        monkeypatch.setattr(fock_numeric, "expectation_table", wrapper)
        return calls

    def test_one_expectation_per_case(self, capsys, monkeypatch):
        calls = self.recording(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "fock")
        assert code == 0 and out.endswith("36 passed, 0 failed\n")
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(
            (r, s, n, z) for (r, s, n) in ((1, 1, 6), (2, 1, 3), (2, 2, 3), (1, 2, 3))
            for z in (Fraction(1, 2), Fraction(1)))
        assert len({(r, s, z) for (r, s, _, z) in calls[0]}) == len(calls[0]) == 8

    def test_one_table_and_one_coherent_vector_per_z_for_the_suite(self, capsys, monkeypatch):
        # one build_ops at dim 128 + 16 takes all 144 roots at F = 180, the
        # last isqrt calls after a few small ones of the error budget; the
        # two coherent vectors (z = 1/2 and 1) step from that table, and
        # every word reads them
        built = counting(monkeypatch, fock_numeric, "build_ops", lambda dim, bits: (dim, bits))
        coherent = counting(monkeypatch, fock_numeric, "_coherent", lambda z, *rest: Fraction(z))
        roots = counting(monkeypatch, math, "isqrt", lambda x: x)
        applied = counting(monkeypatch, fock_numeric, "apply_operator", lambda op, vec: op.dim)
        code, out, _ = run_cli(capsys, "verify", "fock")
        assert code == 0 and out.endswith("36 passed, 0 failed\n")
        assert built == [(144, 180)]
        assert coherent == [Fraction(1, 2), Fraction(1)]
        assert roots[-144:] == [n << 2 * 180 for n in range(144)]
        assert max(roots[:-144]) < 1 << 16
        # each letter steps a cut of the dim-144 table that spans the
        # support, which starts at 56 entries for z = 1/2 and 75 for z = 1:
        # an a steps the support and lowers it by one, an a+ raises it and
        # steps the raised one.  Only an s > r word also steps the strip of
        # the dim-128 vector before each letter, s + (n-1)*(s-r) + 1
        # entries: 5 for (1,2,3).  (1,1,6), (2,1,3) and (2,2,3) read their
        # narrow sums off the wide vector
        want = []
        for r, s, n in ((1, 1, 6), (2, 1, 3), (2, 2, 3), (1, 2, 3)):
            for top in (56, 75):
                for _ in range(n):
                    for lowers in [True] * s + [False] * r:
                        if s > r:
                            want.append(5)
                        if lowers:
                            want.append(top)
                            top -= 1
                        else:
                            top = min(top + 1, 144)
                            want.append(top)
        assert applied == want and len(applied) == 102
        assert sum(applied) < 144 * 84 // 2

    def test_every_word_is_applied_one_letter_per_step(self, capsys, monkeypatch):
        # per word and z: n x (r + s) letters, (1,1) to n = 6 and (2,1),
        # (2,2), (1,2) to n = 3, and a second pass on the strip for the s > r
        # word (1,2) only: 24 + 18 + 24 + 2 x 18 = 102 steps
        letters = []
        apply_operator = fock_numeric.apply_operator

        def recording_apply(op, vec):
            letters.append(op.shift)
            return apply_operator(op, vec)

        monkeypatch.setattr(fock_numeric, "apply_operator", recording_apply)
        code, _, _ = run_cli(capsys, "verify", "fock")
        assert code == 0
        assert len(letters) == 102 and set(letters) == {1, -1}

    def test_katriel_checks_read_the_suite_value(self, capsys, monkeypatch):
        calls = self.recording(monkeypatch, shifted=(1, 1, 3, 1))
        code, out, _ = run_cli(capsys, "--json", "verify", "fock")
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed == [
            "<z|[(a+)^1 a^1]^3|z> at z=1, dim 128(+16) matches the exact polynomial",
            "number-operator expectation at z=1 gives 5 (n=3)",
        ]
        assert len(calls) == 1 and calls[0].count((1, 1, 6, 1)) == 1


def counting(monkeypatch, module, name, key):
    """Wrap module.name so that each call appends key(*args) to the returned list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSuitesComputeEachValueOnce:
    def test_dobinski_sums_each_series_once(self, capsys, monkeypatch):
        # 36 Bell checks need the 24 series of r >= s; the 27 weighted checks
        # add 18 at t != 1, and their t = 1 series are Bell series: 42 series
        # in 12 families of one (max(r,s), min(r,s), t), and the 12
        # Gamma-ratio series in the 3 families of r > s
        families = counting(monkeypatch, series_eval, "_dobinski_family",
                            lambda p, ns, t, gamma, bits: (p.r, p.s, t, gamma, tuple(ns)))
        code, out, _ = run_cli(capsys, "verify", "dobinski")
        assert code == 0 and out.endswith("75 passed, 0 failed\n")
        for gamma, n_families, n_series in ((False, 12, 42), (True, 3, 12)):
            calls = [call for call in families if call[3] == gamma]
            assert len(calls) == len({(max(r, s), min(r, s), t) for r, s, t, _, _ in calls}) == n_families
            sums = [(max(r, s), min(r, s), t, n) for r, s, t, _, ns in calls for n in ns]
            assert len(sums) == len(set(sums)) == n_series

    @pytest.mark.parametrize("rmax,nmax", [(1, 1), (2, 2), (5, 6)])
    def test_dobinski_edges_match_the_snapshot(self, capsys, rmax, nmax):
        # the t = 1 weighted checks of (1,1), (2,1) and (2,2) read n <= 3
        # whatever --rmax and --nmax say, so their families are sized by both
        code, out, _ = run_cli(capsys, "--json", "verify", "dobinski",
                               "--rmax", str(rmax), "--nmax", str(nmax))
        snapshot = pathlib.Path(__file__).with_name("verify_dobinski_edges.json")
        assert code == 0
        assert json.loads(out) == json.loads(snapshot.read_text())[f"--rmax {rmax} --nmax {nmax}"]

    def test_symmetry_rewrites_each_word_once(self, capsys, monkeypatch):
        words = counting(monkeypatch, boson_oracle, "extract_stirling_row",
                         lambda p, n: (p.r, p.s, n))
        code, out, _ = run_cli(capsys, "verify", "symmetry")
        assert code == 0 and out.endswith("42 passed, 0 failed\n")
        assert sorted(words) == [(r, s, n) for r in (1, 2, 3) for s in (1, 2, 3)
                                 for n in (1, 2, 3, 4)]

    def test_connection_reads_each_entry_once(self, capsys, monkeypatch):
        reads = counting(monkeypatch, stirling_bell, "stirling",
                         lambda p, n, k: (p.r, p.s, n, k))
        code, out, _ = run_cli(capsys, "verify", "connection")
        assert code == 0 and out.endswith("6 passed, 0 failed\n")
        assert sorted(reads) == [(r, s, n, k) for r in (1, 2, 3) for s in range(1, r + 1)
                                 for n in (1, 2, 3, 4) for k in Params(r, s).band(n)]

    def test_shared_series_reads_its_own_table(self, capsys):
        # the series of (r, s), r < s, is summed as that of (s, r), but the
        # check of (r, s, n) still compares it with its own row sum
        code, out, _ = run_cli(capsys, "--json", "verify", "dobinski", "--perturb", "1,3,2,2")
        assert code == 1
        assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == [
            "series B_(1,3)(2) brackets the exact value 5"]
        for r, s in ((1, 2), (1, 3), (2, 3)):
            p = Params(r, s)
            for n in (1, 2, 3, 4):
                for k in p.band(n):
                    code, out, _ = run_cli(capsys, "--json", "verify", "dobinski",
                                           "--perturb", f"{r},{s},{n},{k}")
                    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
                    exact = stirling_bell.bell_number(p, n) + 1
                    assert code == 1 and failed == [
                        f"series B_({r},{s})({n}) brackets the exact value {exact}"]


class TestFockToleranceFollowsPrecision:
    @staticmethod
    def run_offset(capsys, monkeypatch, prec, offset, bound=None):
        """verify fock at ``prec`` with every value moved off its exact
        polynomial by offset(exact) and bound(exact) as its bound, by
        default the offset itself, so only the tolerance decides; returns
        the CLI result and the calls."""
        bound = bound or offset
        calls = []

        def moved(words, zs, dim, precision):
            table = {}
            for p, n in words:
                for z in zs:
                    calls.append((p.r, p.s, n, z))
                    exact = [z ** (k * abs(p.r - p.s)) * stirling_bell.bell_polynomial(p, k, z * z)
                             for k in range(1, n + 1)]
                    table[p, n, z] = [(x + offset(x), bound(x)) for x in exact]
            return table

        monkeypatch.setattr(fock_numeric, "expectation_table", moved)
        return run_cli(capsys, "--prec", str(prec), "verify", "fock"), calls

    def test_low_precision_allows_its_own_rounding(self, capsys, monkeypatch):
        (code, out, _), calls = self.run_offset(
            capsys, monkeypatch, 64, lambda exact: abs(exact) / 2**62)
        assert code == 0 and out.endswith("36 passed, 0 failed\n")
        assert len(calls) == 8

    def test_high_precision_rejects_a_2_to_the_minus_100_error(self, capsys, monkeypatch):
        (code, out, _), calls = self.run_offset(
            capsys, monkeypatch, 256, lambda exact: max(abs(exact), Fraction(1)) / 2**100)
        assert code == 1 and out.endswith("0 passed, 36 failed\n")
        assert len(calls) == 8

    # the verdict is err <= bound <= tol * max(1, |exact|): each half of the
    # chain fails on its own, and both hold with equality
    @staticmethod
    def tol_scale(exact):
        return fock_numeric.tolerance(256) * max(abs(exact), Fraction(1))

    def test_an_exact_value_with_a_bound_past_the_tolerance_fails(self, capsys, monkeypatch):
        (code, out, _), _ = self.run_offset(
            capsys, monkeypatch, 256, lambda exact: 0, lambda exact: 2 * self.tol_scale(exact))
        assert code == 1 and out.endswith("0 passed, 36 failed\n")

    def test_a_value_twice_its_bound_off_fails_well_inside_the_tolerance(self, capsys, monkeypatch):
        (code, out, _), _ = self.run_offset(
            capsys, monkeypatch, 256, lambda exact: self.tol_scale(exact) / 2**9,
            lambda exact: self.tol_scale(exact) / 2**10)
        assert code == 1 and out.endswith("0 passed, 36 failed\n")

    def test_an_error_at_its_bound_at_the_tolerance_passes(self, capsys, monkeypatch):
        (code, out, _), _ = self.run_offset(capsys, monkeypatch, 256, self.tol_scale)
        assert code == 0 and out.endswith("36 passed, 0 failed\n")


class TestExitCodes:
    def test_internal_error_exits_three_with_one_line(self, capsys, monkeypatch):
        def truncated(args):
            raise FockTruncationError(
                "coherent tail mass 9.6e-217 above threshold at dim=128")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "fock", truncated)
        code, out, err = run_cli(capsys, "verify", "fock")
        assert code == 3
        assert out == ""
        assert "tail mass" in err and err.startswith("error: ") and err.count("\n") == 1

    def test_broken_rewriter_exits_three_not_as_bad_input(self, capsys, monkeypatch):
        # every inversion count one too high files "Aa" at level 1, where it
        # has no pair to rewrite: a fault of the oracle, not of the word
        counted = boson_oracle._inversions
        monkeypatch.setattr(boson_oracle, "_inversions", lambda w: counted(w) + 1)
        code, out, err = run_cli(capsys, "normalize", "aA")
        assert code == 3
        assert out == ""
        assert "no pair to rewrite" in err and err.startswith("error: ") and err.count("\n") == 1

    def test_fock_dimension_follows_precision(self, capsys):
        # dim 128 holds the truncation part of the bound to 2^-1025 only up
        # to 1024 bits; at 2048 the suite's words need 177 states
        code, out, err = run_cli(capsys, "--prec", "2048", "verify", "fock")
        assert code == 0, err
        assert "dim 177(+16)" in out and out.endswith("36 passed, 0 failed\n")

    @pytest.mark.parametrize("spec", ["1,2", "1,1,2,x", "1,1,2,1,1,1"])
    def test_malformed_perturbation_names_the_form(self, capsys, monkeypatch, spec):
        def must_not_run(args):
            raise AssertionError("suite ran despite a malformed --perturb")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "oracle", must_not_run)
        code, out, err = run_cli(capsys, "verify", "oracle", "--perturb", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "R,S,N,K[,DELTA]" in err and err.count("\n") == 1

    def test_overlong_perturbation_number_gets_its_own_short_line(self, capsys, monkeypatch):
        # int() refuses decimal strings past its digit limit (4300 by default)
        def must_not_run(args):
            raise AssertionError("suite ran despite an overlong --perturb DELTA")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "fock", must_not_run)
        spec = "1,1,2,1,1" + "0" * 5000
        code, out, err = run_cli(capsys, "verify", "fock", "--perturb", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --perturb number too long (5001 digits)")
        assert err.count("\n") == 1 and len(err) < 200
        assert spec[:20] in err and spec[-20:] in err and f"({len(spec)} chars)" in err

    def test_zero_perturbation_exits_two_before_any_work(self, capsys, monkeypatch):
        # a zero DELTA corrupts nothing, so no suite could fail on it
        def must_not_run(args):
            raise AssertionError("suite ran despite a zero --perturb DELTA")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "oracle", must_not_run)
        code, out, err = run_cli(capsys, "verify", "oracle", "--perturb", "1,1,2,1,0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --perturb") and err.count("\n") == 1

    @pytest.mark.parametrize("prec", ["16", "32", "62"])
    @pytest.mark.parametrize("suite", ["hgf", "dobinski"])
    def test_series_caps_follow_an_accepted_precision(self, capsys, prec, suite):
        code, out, _ = run_cli(capsys, "--prec", prec, "verify", suite)
        assert code == 0, out

    def test_fock_names_and_table_follow_the_stability_step(self, capsys, monkeypatch):
        dims = []
        build_ops = fock_numeric.build_ops

        def recording_build_ops(dim, precision):
            dims.append(dim)
            return build_ops(dim, precision)

        monkeypatch.setattr(fock_numeric, "STABILITY_STEP", 8)
        monkeypatch.setattr(fock_numeric, "build_ops", recording_build_ops)
        code, out, _ = run_cli(capsys, "verify", "fock")
        assert code == 0
        assert "dim 128(+8)" in out and "(+16)" not in out
        assert set(dims) == {136}

    def test_precision_below_floor_exits_two_before_any_work(self, capsys, monkeypatch):
        def must_not_run(args):
            raise AssertionError("suite ran despite an invalid --prec")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "hgf", must_not_run)
        code, out, err = run_cli(capsys, "--prec", "8", "verify", "hgf")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --prec") and err.count("\n") == 1

    def test_unread_perturbation_fails_by_name(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "connection",
                               "--perturb", "9,9,1,1")
        assert code == 1
        payload = json.loads(out)
        failed = [(c["suite"], c["name"]) for c in payload["checks"] if not c["ok"]]
        assert failed == [("perturb", "perturbed entry S_(9,9)(1,1) was read by a check")]

    def test_read_perturbation_passes_the_read_check(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "connection", "--nmax", "2",
                               "--perturb", "2,1,2,1")
        assert code == 1
        read_check = json.loads(out)["checks"][-1]
        assert read_check["name"] == "perturbed entry S_(2,1)(2,1) was read by a check"
        assert read_check["ok"]


class TestIntegersOfAnyLength:
    # CPython refuses int <-> str conversion past 4300 digits by default
    # (since 3.10.7); S_(1700,1700)(2, 1700) = 1700!, which has 4755 digits

    @staticmethod
    @contextlib.contextmanager
    def digit_limit(limit):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_main_prints_every_digit_and_keeps_the_callers_limit(self, capsys):
        with self.digit_limit(4500):
            code, out, err = run_cli(capsys, "triangle", "1700", "1700", "2", "--format", "csv")
            assert code == 0 and err == ""
            assert sys.get_int_max_str_digits() == 4500
            code, bell_out, err = run_cli(capsys, "bell", "1700", "1700", "2")
            assert code == 0 and err == ""
            assert sys.get_int_max_str_digits() == 4500
        with self.digit_limit(0):
            assert f"\n2,1700,{math.factorial(1700)}\n" in out
            assert bell_out.split() == [
                "1", "1", str(stirling_bell.bell_number(Params(1700, 1700), 2))]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_a_check_that_reads_a_long_perturbation_exits_one(self, capsys):
        # a 4300-digit DELTA parses, and the failing check's detail holds the
        # perturbed entry 6 + (10^4300 - 1), which has 4301 digits
        code, out, err = run_cli(capsys, "verify", "oracle", "--perturb", "2,1,3,2," + "9" * 4300)
        assert code == 1 and err == ""
        assert " table={1: 6, 2: 1" + "0" * 4299 + "5, 3: 1}" in out
        assert sys.get_int_max_str_digits() == 4300

    def test_pythons_without_a_digit_limit_print_as_before(self, capsys, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        code, out, _ = run_cli(capsys, "bell", "1", "1", "5", "--format", "oeis")
        assert code == 0 and out == "1, 1, 2, 5, 15, 52\n"

    @pytest.mark.parametrize("command", ["triangle", "bell"])
    def test_module_entry_point_prints_every_digit(self, command):
        result = subprocess.run(
            [sys.executable, "-m", "bosonbell", command, "1700", "1700", "2", "--format", "csv"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0 and result.stderr == ""
        lines = result.stdout.splitlines()
        # the Bell sequence ends on B(2); the triangle's row 2 has 1701 entries
        widest = max(lines, key=len)
        assert widest.startswith("2,") and len(widest.rsplit(",", 1)[1]) > 4300


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "bosonbell", "bell", "1", "1", "5", "--format", "oeis"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1, 1, 2, 5, 15, 52"


@pytest.mark.parametrize("args, lines_read", [(("triangle", "1", "1", "300"), 1),
                                              (("bell", "1", "1", "3"), 0)])
def test_closed_stdout_pipe_exits_141_without_a_traceback(args, lines_read):
    # the reader closes the pipe early, as `| head -1` does.  The 8.7 MB
    # triangle fails inside print; the short Bell sequence, block-buffered,
    # fails at the flush, which must come before interpreter exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "bosonbell", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("args", [("--help",), ("verify", "--help")])
def test_help_into_a_closed_pipe_exits_141_without_a_traceback(args):
    # argparse writes the help and exits inside parse_args.  The reader end
    # is closed before the process starts, so the help's one write fails.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "bosonbell", *args],
                                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == b""
