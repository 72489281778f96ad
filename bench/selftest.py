"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py [--seed N]

Runs one cycle of every workload twice: once clean, where no op may
fail, and once with S_{3,2}(3,4) corrupted through
``stirling_bell.set_perturbation`` before every op.  The corrupted
entry is read by verify_all (oracle, symmetry, connection and dobinski
suites), tables (the (3,2) triangle and its Bell numbers) and series
(hgf_check on (3,2) sums B_{3,2}(n) for n up to its order >= 12), so
each of those must report failed ops.  rewrite never reads the table,
so it must still report none.  Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads

PERTURBED = (3, 2, 3, 4)  # (r, s, n, k) of the corrupted entry
READS_PERTURBED = {"verify_all": True, "tables": True, "series": True, "rewrite": False}


def failed_ratio(bb, workload, expected, before_each=None) -> float:
    phase = run.Phase()
    try:
        run.run_cycle(workload, expected, phase, before_each=before_each)
    finally:
        bb.stirling_bell.clear_perturbations()
    return len(phase.failures) / phase.ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check that the benchmark's checks catch a corrupted entry.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bb = run.load_package()
    r, s, n, k = PERTURBED

    def corrupt():
        bb.stirling_bell.set_perturbation(bb.stirling_bell.Params(r, s), n, k, 1)

    ok = True
    for name, reads in READS_PERTURBED.items():
        workloads.clear_caches(bb)
        workload = run.build(bb, name, args.seed)
        expected = [op.expect() for op in workload.ops]
        clean = failed_ratio(bb, workload, expected)
        perturbed = failed_ratio(bb, workload, expected, before_each=corrupt)
        good = clean == 0 and (perturbed > 0) == reads
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {name:10s} failed_ratio clean {clean:.3f}, "
              f"with S_({r},{s})({n},{k}) + 1: {perturbed:.3f} (expected {'> 0' if reads else '0'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
