import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp

from bosonbell import cli, fock_numeric, stirling_bell
from bosonbell.exact_core import BigFloat
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


class TestFockSuiteComputesEachValueOnce:
    @staticmethod
    def recording(monkeypatch, shifted=None):
        """Record each (r, s, n, z) passed to expectation_power, and move the
        value of the ``shifted`` case by 2^-70."""
        calls = []
        expectation_power = fock_numeric.expectation_power

        def wrapper(p, n, z, *args, **kwargs):
            case = (p.r, p.s, n, Fraction(z))
            calls.append(case)
            value = expectation_power(p, n, z, *args, **kwargs)
            if case == shifted:
                with mp.workprec(value.precision_bits + 64):
                    value = replace(value, value=value.value + mp.mpf(2) ** -70)
            return value

        monkeypatch.setattr(fock_numeric, "expectation_power", wrapper)
        return calls

    def test_one_expectation_per_case(self, capsys, monkeypatch):
        calls = self.recording(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "fock")
        assert code == 0 and out.endswith("36 passed, 0 failed\n")
        assert len(calls) == len(set(calls)) == 30

    def test_katriel_checks_read_the_suite_value(self, capsys, monkeypatch):
        calls = self.recording(monkeypatch, shifted=(1, 1, 3, 1))
        code, out, _ = run_cli(capsys, "--json", "verify", "fock")
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed == [
            "<z|[(a+)^1 a^1]^3|z> at z=1, dim 128(+16) matches the exact polynomial",
            "number-operator expectation at z=1 gives 5 (n=3)",
        ]
        assert calls.count((1, 1, 3, 1)) == 1


class TestFockToleranceFollowsPrecision:
    @staticmethod
    def run_offset(capsys, monkeypatch, prec, offset):
        """verify fock at ``prec`` with every value moved off its exact
        polynomial by offset(exact)."""
        def moved(p, n, z, dim, precision):
            exact = z ** (n * abs(p.r - p.s)) * stirling_bell.bell_polynomial(p, n, z * z)
            return BigFloat.from_fraction(exact + offset(exact), precision + 128)

        monkeypatch.setattr(fock_numeric, "expectation_power", moved)
        return run_cli(capsys, "--prec", str(prec), "verify", "fock")

    def test_low_precision_allows_its_own_rounding(self, capsys, monkeypatch):
        code, out, _ = self.run_offset(
            capsys, monkeypatch, 64, lambda exact: abs(exact) / 2**62)
        assert code == 0 and out.endswith("36 passed, 0 failed\n")

    def test_high_precision_rejects_a_2_to_the_minus_100_error(self, capsys, monkeypatch):
        code, out, _ = self.run_offset(
            capsys, monkeypatch, 256, lambda exact: max(abs(exact), Fraction(1)) / 2**100)
        assert code == 1 and out.endswith("0 passed, 36 failed\n")


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

    def test_fock_dimension_follows_precision(self, capsys):
        # dim 128 holds the coherent vector only to about 1400 bits
        code, out, err = run_cli(capsys, "--prec", "2048", "verify", "fock")
        assert code == 0, err
        assert "dim 256(+16)" in out and out.endswith("36 passed, 0 failed\n")

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
