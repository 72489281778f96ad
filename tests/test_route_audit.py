"""Route audit: every route can fail a check, and a read perturbation is caught.

Each route's entry point is patched with a small wrong-value mutant and
``verify all`` runs in process.  Every mutant must fail some check, and the
checks that no mutant fails must be exactly ``UNCAUGHT``: checks whose two
sides both go through one route, so that no wrong value of that route shows.
"""

import contextlib
import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from bosonbell import boson_oracle, cli, fock_numeric, series_eval, stirling_bell
from bosonbell.exact_core import BigFloat, PowerSeries
from bosonbell.stirling_bell import Params

SMALL = Fraction(1, 2**32)


def _top_entry_plus(delta):
    """Mutant of a point-read route: ``delta`` added to the top band entry k = n s."""
    return lambda real: lambda p, n, k: real(p, n, k) + (delta if k == n * p.s else 0)


def _top_row_entry_plus_one(real):
    def next_row(p, row):
        out = real(p, row)
        out[max(out)] += 1
        return out
    return next_row


def _top_term_plus_one(real):
    def normalize(word, *args, **kwargs):
        nf = real(word, *args, **kwargs)
        top = max(nf.terms)
        return replace(nf, terms={**nf.terms, top: nf.terms[top] + 1})
    return normalize


def _values_moved(real):
    # the verdicts read the exact enclosure, so it moves by the value's shift
    def family(*args, **kwargs):
        moved = []
        for sv in real(*args, **kwargs):
            v = sv.value.to_fraction()
            shift = SMALL * max(abs(v), 1)
            moved.append(replace(sv, value=BigFloat.from_fraction(v + shift, sv.precision_bits),
                                 interval=sv.interval + shift))
        return moved
    return family


def _interval_moved(real):
    def enclosure(*args):
        iv, used = real(*args)
        return iv + SMALL, used
    return enclosure


# route -> (owner, entry point, mutant factory); the routes of ROADMAP item 5
MUTANTS = {
    "explicit sum": (stirling_bell, "stirling_explicit", _top_entry_plus(7)),
    "differential operator": (stirling_bell, "stirling_diffop", _top_entry_plus(1)),
    "table": (stirling_bell, "_next_row", _top_row_entry_plus_one),
    "rewriter": (boson_oracle, "normalize", _top_term_plus_one),
    "Dobinski stream": (series_eval, "_dobinski_family", _values_moved),
    "pFq": (series_eval, "_hyp_enclosure", _interval_moved),
    "egf power series": (PowerSeries, "coeff",
                         lambda real: lambda self, n: real(self, n) + (SMALL if n == 2 else 0)),
    "Fock": (fock_numeric, "apply_operator",
             lambda real: lambda op, vec: [x + (x >> 32) for x in real(op, vec)]),
    "Laguerre": (series_eval, "laguerre_value",
                 lambda real: lambda *args, **kwargs: real(*args, **kwargs) + SMALL),
}

UNCAUGHT = [
    "rewrite confluence: leftmost = rightmost = random strategy on random words",
    *(f"word rewriting row for ({r},{s}) equals its conjugate ({s},{r}), n={n}"
      for r in (1, 2, 3) for s in (1, 2, 3) for n in (1, 2, 3, 4)),
    "r=1 recursion is the plain binomial transform",
]

# the checks whose two sides are the explicit sum and the table's _next_row
REROUTED = [f"S_({r},{r}): diagonal recurrence matches the finite sum" for r in (1, 2, 3)] + [
    f"S_({r},{s}) = S_({s},{r}) on the common band"
    for r in (1, 2, 3) for s in (1, 2, 3) if r != s]

# the checks whose series side is compared with table.value, grown by _next_row
COLUMN_EGF = [f"column egf of S_({r},{r})(., k={k}) to order 6, exact"
              for r in (1, 2) for k in range(r, 5)] + [
    f"column egf of S_({r},1)(., k={k}) with k-th power, exact"
    for r in (2, 3) for k in (1, 2, 3)]

# n! times the lambda^n coefficient, summed from the explicit sum over the band,
# against the Bell number of the table
DIAGONAL_COEFFICIENT = [
    f"diagonal generating-function coefficient n={n} terminates to B_({r},{r})({n})/n!"
    for r in (1, 2, 3) for n in (1, 2, 3)]

# The failing mutants of every check of ``verify all``, by position, as runs
# of (start of the first check's name, number of checks, the mutants that
# fail each check of the run).  A comment says why a run has fewer than two.
ROUTE_MATRIX = [
    ("S_(1,1)(n=1,.): finite sum", 4, {"explicit sum", "differential operator", "table", "rewriter"}),
    ("S_(1,1): diagonal recurrence", 1, {"explicit sum", "table"}),
    ("S_(2,1)(n=1,.): finite sum", 8, {"explicit sum", "differential operator", "table", "rewriter"}),
    ("S_(2,2): diagonal recurrence", 1, {"explicit sum", "table"}),
    ("S_(3,1)(n=1,.): finite sum", 12, {"explicit sum", "differential operator", "table", "rewriter"}),
    ("S_(3,3): diagonal recurrence", 1, {"explicit sum", "table"}),
    # the rewriter against itself under three strategies
    ("rewrite confluence", 1, set()),
    ("S_(1,2) = S_(2,1) on the common band", 6, {"explicit sum", "table"}),
    # each word normalized twice
    ("word rewriting row for (1,1) equals its conjugate", 36, set()),
    ("anti-row (1,1, n=1)", 18, {"explicit sum", "rewriter"}),
    ("series B_(1,1)(1) brackets", 75, {"table", "Dobinski stream"}),
    ("B_(2,1)(1) = (n-1)! L^(1)_(n-1)(-1)", 20, {"table", "Laguerre"}),
    ("B_(2,1)(1) = (rn)!/(e r!) 1F1(rn+1; r+1; 1)", 8, {"table", "pFq"}),
    ("family series for B_(2,1)(1)", 9, {"table", "pFq"}),
    ("B_(2,1)(1) from the 1F1 combination", 12, {"table", "pFq"}),
    ("egf of B_(1,1)", 16, {"table", "egf power series"}),
    ("diagonal generating-function coefficient n=1", 9, {"explicit sum", "table"}),
    # the k-sum side is hgf_check's own stream
    ("hgf G_(3,2)", 2, {"table"}),
    ("<z|[(a+)^1 a^1]^1|z> at z=1/2", 36, {"table", "Fock"}),
    # the other sides are bell_recurrence_r1, one sum coded twice,
    # bell_diag_from_classical and a second coding of the falling factorials
    ("B_(1,1) recursion reproduces the row sums", 3, {"table"}),
    ("r=1 recursion is the plain binomial transform", 1, set()),
    ("B_(2,2)(n) from classical Bell numbers", 1, {"table"}),
    ("falling-factorial connection identity for (1,1)", 6, {"explicit sum"}),
]


def _verify_all():
    """Exit code and checks of ``verify all --json``, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", "verify", "all"])
    return code, json.loads(out.getvalue())["checks"]


@pytest.fixture(scope="module")
def mutant_runs():
    """route -> (exit code, checks) of ``verify all`` under the route's
    mutant, and None -> the clean run.  The triangle memo is cleared
    around each run, so no mutated row outlives it."""
    runs = {None: _verify_all()}
    for route, (owner, name, make) in MUTANTS.items():
        real = getattr(owner, name)
        stirling_bell.clear_perturbations()
        setattr(owner, name, make(real))
        try:
            runs[route] = _verify_all()
        finally:
            setattr(owner, name, real)
            stirling_bell.clear_perturbations()
    return runs


def _failed_positions(checks):
    # by position: some names print a value read from the table
    return {i for i, c in enumerate(checks) if not c["ok"]}


@pytest.mark.parametrize("route", MUTANTS)
def test_every_route_mutant_fails_a_check(mutant_runs, route):
    code, checks = mutant_runs[route]
    assert code == 1 and len(checks) == len(mutant_runs[None][1])
    assert _failed_positions(checks)


def test_the_checks_no_mutant_fails_are_the_listed_ones(mutant_runs):
    code, clean = mutant_runs[None]
    assert code == 0
    caught = set().union(*(_failed_positions(checks)
                           for route, (_, checks) in mutant_runs.items() if route))
    assert [c["name"] for i, c in enumerate(clean) if i not in caught] == UNCAUGHT
    assert not set(REROUTED) & set(UNCAUGHT)


def test_the_failing_mutants_of_every_check_are_pinned(mutant_runs):
    _, clean = mutant_runs[None]
    expected = []
    for first, count, routes in ROUTE_MATRIX:
        assert clean[len(expected)]["name"].startswith(first), (len(expected), first)
        expected += [routes] * count
    failing = [{route for route, (_, checks) in mutant_runs.items() if route and not checks[i]["ok"]}
               for i in range(len(clean))]
    assert failing == expected


def test_the_table_mutant_fails_every_column_egf_check(mutant_runs):
    _, clean = mutant_runs[None]
    positions = {i for i, c in enumerate(clean) if c["name"] in COLUMN_EGF}
    assert len(positions) == len(COLUMN_EGF) == 13
    assert positions <= _failed_positions(mutant_runs["table"][1])


def test_the_explicit_sum_mutant_fails_every_diagonal_coefficient_check(mutant_runs):
    _, clean = mutant_runs[None]
    positions = {i for i, c in enumerate(clean) if c["name"] in DIAGONAL_COEFFICIENT}
    assert len(positions) == len(DIAGONAL_COEFFICIENT) == 9
    assert positions <= _failed_positions(mutant_runs["explicit sum"][1])


def _row_four_entries():
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            for k in Params(r, s).band(4):
                yield r, s, k


@pytest.mark.parametrize("suite", ["oracle", "symmetry", "egf"])
def test_a_read_perturbation_is_a_caught_one(capsys, suite):
    """``verify SUITE --perturb`` on any row-4 entry exits 1, and either no
    check read the entry or some check outside ``perturb`` failed: a suite
    that reads an entry no check compares would pass it silently."""
    entries = list(_row_four_entries())
    assert len(entries) == 51
    for r, s, k in entries:
        code = cli.main(["--json", "verify", suite, "--perturb", f"{r},{s},4,{k}"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        perturb = [c for c in checks if c["suite"] == "perturb"]
        assert code == 1, (r, s, k)
        assert (perturb[0]["detail"] == "reads=0"
                or any(not c["ok"] for c in checks if c["suite"] != "perturb")), (r, s, k)
