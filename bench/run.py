"""bosonbell benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 25 --trace 0

runs whole cycles of the workload's seeded op sequence for at least
``--seconds`` seconds, checks every result outside its timed interval,
and prints the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
Times are scaled to a reference machine speed, measured beside the ops
with a fixed calibration loop, because a shared host's speed drifts.
``--workload all`` runs the four workloads one after another.

Run it from the repository root; the package is imported from ./src.
See bench/NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, before the package is imported

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # set-ups per run whose median is setup_s: this one and 2 fresh processes
MIN_OPS = 100  # so that at least 10 latency samples lie beyond the 90th percentile
REF_CALIBRATION_S = 0.001  # times are scaled as if one calibration_work() took this long
SPEED_WINDOW = 3  # an op's machine speed is the median calibration of the ops within this many of it
SETUP_CALIBRATIONS = 15  # calibration samples after each set-up

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402  (needs BENCH_DIR on sys.path)
from reference import StirlingReference  # noqa: E402


def load_package():
    """Import bosonbell from ./src, and only from there."""
    sys.path.insert(0, str(SRC))
    import bosonbell
    import bosonbell.cli  # not imported by the package itself
    if Path(bosonbell.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"bosonbell imported from {bosonbell.__file__}, not from {SRC}")
    return bosonbell


def build(bb, name: str, seed: int):
    """The seeded workload with its warm-up done: the part of a run that setup_s times."""
    workload = workloads.WORKLOADS[name](bb, seed, StirlingReference())
    for step in workload.warm:
        step()
    return workload


def calibration_work() -> int:
    """Fixed pure-Python work, independent of bosonbell, that stands in for
    the machine's speed: products of small ints growing into big ints, as
    in the package's exact arithmetic, and dict updates."""
    total = 0
    for q in range(1, 120):
        prod = 1
        for j in range(60):
            prod *= q + j
        total += prod if q & 1 else -prod
    counts: dict = {}
    for i in range(1200):
        counts[i % 37] = counts.get(i % 37, 0) + i
    return total + len(counts)


def calibrate() -> float:
    """Seconds taken by one ``calibration_work()``."""
    t = time.perf_counter()
    calibration_work()
    return time.perf_counter() - t


def scaled_setup(seconds: float) -> float:
    """A set-up time scaled to the reference speed by calibrations made right after it."""
    speed = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    return seconds * REF_CALIBRATION_S / speed


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)  # one per op, made just before it
    failures: list = field(default_factory=list)   # (op label, message)
    cycles: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.latencies)

    def scaled(self) -> list:
        """Latencies scaled to the reference speed.

        The shared host's speed drifts by up to 2x over seconds, and the
        package's code slows with it.  Each latency is multiplied by
        REF_CALIBRATION_S over the median calibration time of the ops
        within SPEED_WINDOW of it, before and after, which were made at
        about the same time.
        """
        cal = self.calibrations
        return [t * REF_CALIBRATION_S /
                statistics.median(cal[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
                for i, t in enumerate(self.latencies)]

    @property
    def scaled_ops_per_s(self) -> float:
        return self.ops / sum(self.scaled())


def run_cycle(workload, expected, phase: Phase, tracer=None, before_each=None) -> None:
    """One pass over the workload's ops; only ``op.run()`` is timed.

    ``before_each`` runs untimed before every op (the self-test uses it
    to corrupt a table entry).
    """
    for op, want in zip(workload.ops, expected):
        if op.before is not None:
            op.before()
        if before_each is not None:
            before_each()
        phase.calibrations.append(calibrate())
        t = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
            phase.latencies.append(time.perf_counter() - t)
            phase.failures.append((op.label, f"raised {type(exc).__name__}: {exc}"))
            continue
        phase.latencies.append(time.perf_counter() - t)
        try:
            counters = op.check(result, want)
        except Exception as exc:  # Mismatch, or output that does not even parse
            phase.failures.append((op.label, f"{type(exc).__name__}: {exc}"))
            continue
        if tracer is not None and counters:
            for name, amount in counters.items():
                tracer.count(name, amount)
    phase.cycles += 1


def measure(workload, expected, seconds: float) -> Phase:
    """Run whole cycles until ``seconds`` have passed and ``MIN_OPS`` ops are done."""
    phase = Phase()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or phase.ops < MIN_OPS:
        run_cycle(workload, expected, phase)
    return phase


def measure_traced(workload, expected, seconds: float, tracer):
    """Alternate untraced and traced cycles for ``seconds``: (untraced, traced).

    Alternating keeps drift in machine speed out of the overhead ratio.
    """
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced.cycles:
        run_cycle(workload, expected, plain)
        tracer.install()
        try:
            run_cycle(workload, expected, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh process: import, input generation and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def git_sha():
    """HEAD of ./.git read from its files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code outside git too."""
    h = hashlib.sha256()
    for path in sorted((SRC / "bosonbell").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(bb, args, workload, phases) -> dict:
    import mpmath
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "bosonbell": bb.__version__,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_cycle": len(workload.ops),
        "ops_per_run": sum(p.ops for p in phases),
        "cycles_per_run": sum(p.cycles for p in phases),
    }


def percentile_ms(latencies: list, q: int) -> float:
    """q-th percentile (exclusive method) in milliseconds."""
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000.0


def run_workload(bb, name: str, args, setup_start: float):
    """Set up and measure one workload: (workload, metrics, phases, extra report lines)."""
    workload = build(bb, name, args.seed)
    setup_here = scaled_setup(time.perf_counter() - setup_start)
    expected = [op.expect() for op in workload.ops]

    if not args.trace:
        phase = measure(workload, expected, args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_here] + [setup_probe(name, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        scaled = phase.scaled()
        metrics = {
            "ops_per_s": (phase.scaled_ops_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(scaled) * 1000.0, "ms"),
            "latency_p90_ms": (percentile_ms(scaled, 90), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
        phases = [phase]
        cal_ms = [c * 1000.0 for c in phase.calibrations]
        lines = [f"  unscaled: ops_per_s {phase.ops_per_s:.6g} 1/s, latency_p50_ms "
                 f"{statistics.median(phase.latencies) * 1000.0:.6g} ms, latency_p90_ms "
                 f"{percentile_ms(phase.latencies, 90):.6g} ms",
                 f"  calibration: median {statistics.median(cal_ms):.4g} ms, min {min(cal_ms):.4g}, "
                 f"max {max(cal_ms):.4g}; reference {REF_CALIBRATION_S * 1000.0:g} ms"]
    else:
        from tracing import Tracer
        tracer = Tracer(bb)
        plain, traced = measure_traced(workload, expected, args.seconds, tracer)
        layer, shares = tracer.summary(traced.ops)
        # cumulative over the whole process: warm-up misses, then hits
        exp_bounds = getattr(bb.series_eval, "_exp_bounds", None)
        hit_ratio = 0.0
        if exp_bounds is not None:
            info = exp_bounds.cache_info()
            hit_ratio = info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0
        layer["series_eval.exp_cache_hit_ratio"] = hit_ratio
        layer["trace.overhead_ratio"] = traced.scaled_ops_per_s / plain.scaled_ops_per_s
        units = {"self_s": "s/op", "hit_ratio": "ratio", "overhead_ratio": "ratio",
                 "per_expectation": "ratio"}
        metrics = {m: (v, next((u for suffix, u in units.items() if m.endswith(suffix)), "count/op"))
                   for m, v in layer.items()}
        phases = [plain, traced]
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{name}.json.gz"
        tracer.write(trace_path, {"workload": name, "seed": args.seed, "ops": traced.ops})
        lines = [f"  traced {traced.ops} ops in {traced.cycles} cycles; spans in "
                 f"{trace_path.relative_to(ROOT)}",
                 "  share of traced self time: " + ", ".join(
                     f"{layer_name} {share:.1%}" for layer_name, share in
                     sorted(shares.items(), key=lambda kv: -kv[1]))]
    return workload, metrics, phases, lines


def report(workload, metrics, phases, lines, env, defects) -> None:
    ops = sum(p.ops for p in phases)
    failures = [f for p in phases for f in p.failures]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for defect, outcome in defects.items():
        print(f"# known defect {defect}: {outcome}")
    print(f"{workload.name}: {ops} ops in {sum(p.cycles for p in phases)} cycles "
          f"of {len(workload.ops)}, {len(failures)} failed")
    for label, message in failures[:20]:
        print(f"  FAILED {label}: {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for line in lines:
        print(line)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time in seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bb = load_package()
    except ImportError as exc:
        print(f"error: cannot import bosonbell from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        build(bb, args.workload, args.seed)
        print(f"{scaled_setup(time.perf_counter() - _T0):.9f}")
        return 0

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    import_s = time.perf_counter() - _T0
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workloads.clear_caches(bb)
        setup_start = time.perf_counter() - import_s
        workload, metrics, phases, lines = run_workload(bb, name, args, setup_start)
        defects = workloads.probe_known_defects(bb)
        env = environment(bb, args, workload, phases)
        report(workload, metrics, phases, lines, env, defects)
        failed = sum(len(p.failures) for p in phases)
        result["attempted"] += sum(p.ops for p in phases)
        result["failed"] += failed
        result["correct"] = result["correct"] and failed == 0
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
