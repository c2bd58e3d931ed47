"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``gvcglab`` from ``src/``
next to this directory and nowhere else.  Set-up (import, input generation
from the seed, warm-up) happens before the timed section, which is a closed
loop with one caller: whole passes over every case, each op started after
the previous one returned, until ``--seconds`` of op time have passed.
Outputs are checked after the timed section.  ``--trace 1`` then runs every
case once more with every module boundary wrapped and reports per-layer
metrics instead.

Times are scaled to a reference machine speed measured around and during
every op (see ``calibration.py``); the raw figures are printed as well.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every op succeeded
and passed its check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibration

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DIGESTS_PATH = BENCH_DIR / "digests.json"
SPANS_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("solve-large", "audit-small", "dominance-large")
COMMITTED_SEED = 1
# How often each workload sets up; setup_s is the median.  A short set-up
# repeats more, so its median is as steady as that of a long one.  The counts
# are fixed because every fresh import leaves the old classes in typing's
# caches, so the number of set-ups moves peak_rss_mb.
SETUP_REPEATS = {"solve-large": 5, "audit-small": 5, "dominance-large": 25}
# A percentile needs at least ten ops beyond it.
P90_MIN_OPS = 100
MAX_FAILURES_SHOWN = 20
# gvcglab and the benchmark modules that bind its names; set-up imports them afresh
PACKAGE_MODULES = ("gvcglab", "workloads", "spans")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "allocation.wd.calls": "count",
    "allocation.wd.self_s": "s",
    "allocation.wd.us_per_call": "us",
    "allocation.tables.calls": "count",
    "allocation.tables.self_s": "s",
    "allocation.denom_bits_max": "bits",
    "mechanism.run_gvcg.calls": "count",
    "mechanism.run_gvcg.self_s": "s",
    "mechanism.wd_per_run": "ratio",
    "mechanism.guarantees.calls": "count",
    "mechanism.guarantees.self_s": "s",
    "audit.dominance.calls": "count",
    "audit.dominance.self_s": "s",
    "audit.dominance.witness_rate": "ratio",
    "audit.dominance.candidates": "count",
    "audit.dsic.calls": "count",
    "audit.dsic.self_s": "s",
    "audit.dsic.mech_runs": "count",
    "audit.ir.calls": "count",
    "audit.ir.self_s": "s",
    "prefs.compare.calls": "count",
    "prefs.compare.self_s": "s",
    "prefs.eet.calls": "count",
    "prefs.eet.self_s": "s",
    "serialize.parse.calls": "count",
    "serialize.parse.self_s": "s",
    "serialize.dumps.calls": "count",
    "serialize.dumps.self_s": "s",
    "serialize.dumps.bytes": "bytes",
    "scenarios.scenario_from_json.self_s": "s",
    "scenarios.run_scenario.self_s": "s",
    "bench.op.self_s": "s",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def import_package() -> None:
    """Import gvcglab from this checkout's ``src/`` and nowhere else."""
    if not (SRC_DIR / "gvcglab" / "__init__.py").is_file():
        raise SystemExit(f"gvcglab sources not found under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import gvcglab
    import workloads  # noqa: F401  (binds gvcglab's modules)

    if Path(gvcglab.__file__).resolve().parent != SRC_DIR / "gvcglab":
        raise SystemExit(f"imported gvcglab from {gvcglab.__file__}, not {SRC_DIR}")


def set_up(name: str, seed: int, tiny: bool):
    """Import the package afresh, generate the inputs from the seed and warm up.

    The warm-up runs a tiny instance of the same workload.  Tiny workloads,
    for the smoke tests, skip it.
    """
    for module in list(sys.modules):
        if module.split(".")[0] in PACKAGE_MODULES:
            del sys.modules[module]
    import_package()
    import workloads

    workload = workloads.build(name, seed, tiny=tiny)
    if not tiny:
        for case in workloads.build(name, seed, tiny=True).cases:
            case.op()
    return workload


def scale(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured where the kernel took ``calibration_s``, at reference speed."""
    return seconds * calibration.REFERENCE_S / calibration_s


def scaled_times(
    op_seconds: list[float], calibrations: list[float], during: list[list[float]]
) -> list[float]:
    """Scale each op by the mean of the calibrations around and during it.

    ``calibrations`` holds one reading before every op and one after the
    last; ``during`` the readings taken while each op ran.  The machine's
    speed changes within a second, so readings next to an op track it better
    than any longer average.
    """
    return [
        scale(seconds, statistics.fmean([calibrations[i], *during[i], calibrations[i + 1]]))
        for i, seconds in enumerate(op_seconds)
    ]


def scaled_call(fn):
    """Call ``fn`` once; return its time at reference speed and its result.

    Like an op, the call is scaled by the readings taken just before, during
    and just after it.
    """
    before = calibration.seconds()
    with calibration.Sampler() as sampler:
        start = perf_counter()
        out = fn()
        elapsed = perf_counter() - start - sampler.spent
    after = calibration.seconds()
    return scale(elapsed, statistics.fmean([before, *sampler.readings, after])), out


class Run:
    """Latencies and outputs of a timed section, checked afterwards.

    The timed section runs whole passes over every case, so each case repeats
    the same number of times.  The calibration kernel runs before every op
    and once after the last (see :func:`scaled_times`); a case's latency is
    the median of its scaled repeats.
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload_name = workload.name
        self.seed = seed
        self.cases = workload.cases
        self.op_case: list[int] = []
        self.op_seconds: list[float] = []
        self.calibrations: list[float] = []
        self.during: list[list[float]] = []
        self.sampler = calibration.Sampler()
        self.first: list[object] = [None] * len(self.cases)
        self.seen = [False] * len(self.cases)
        self.errors: dict[int, str] = {}
        self.changed: set[int] = set()

    def run_op(self, k: int) -> float:
        op = self.cases[k].op
        self.calibrations.append(calibration.seconds())
        with self.sampler as sampler:
            start = perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failing op is counted, the loop goes on
                elapsed = perf_counter() - start - sampler.spent
                self.errors.setdefault(k, f"{type(exc).__name__}: {exc}")
                out = exc
            else:
                elapsed = perf_counter() - start - sampler.spent
        # bookkeeping stays outside the timed interval
        self.op_case.append(k)
        self.op_seconds.append(elapsed)
        self.during.append(sampler.readings)
        if not self.seen[k]:
            self.seen[k] = True
            self.first[k] = out
        elif out != self.first[k]:
            self.changed.add(k)
        return elapsed

    def timed(self, seconds: float) -> None:
        spent = 0.0
        while spent < seconds:
            for k in range(len(self.cases)):
                spent += self.run_op(k)
        self.calibrations.append(calibration.seconds())

    def scaled(self) -> list[float]:
        return scaled_times(self.op_seconds, self.calibrations, self.during)

    def case_latencies(self) -> list[float]:
        """Each case's median op time, scaled to reference speed."""
        per_case: list[list[float]] = [[] for _ in self.cases]
        for k, seconds in zip(self.op_case, self.scaled()):
            per_case[k].append(seconds)
        return [statistics.median(times) for times in per_case]

    def check(self, expected_digests: dict[str, str] | None) -> tuple[dict[int, list[str]], int]:
        """Problems per case; and how many cases matched a committed digest."""
        problems: dict[int, list[str]] = {}
        matched = 0
        for k, (case, out) in enumerate(zip(self.cases, self.first)):
            if k in self.errors:
                problems[k] = [self.errors[k]]
                continue
            try:
                found = case.check(out)
            except Exception as exc:  # malformed output: a failure, not a crash
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if k in self.changed:
                found.append("output changed between repeats")
            if expected_digests is not None:
                if expected_digests.get(case.label) == digest(case.digest_text(out)):
                    matched += 1
                else:
                    found.append("output digest differs from the committed one")
            if found:
                problems[k] = found
        return problems, matched

    def failed_ops(self, problems: dict[int, list[str]]) -> int:
        per_case = Counter(self.op_case)
        return sum(per_case[k] for k in problems)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_digests(name: str, seed: int) -> dict[str, str] | None:
    if seed != COMMITTED_SEED:
        return None
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)[name]


def record_digests(name: str, seed: int) -> None:
    """Run every case once and store its output digest as the committed one."""
    import workloads

    entries = {}
    for case in workloads.build(name, seed).cases:
        out = case.op()
        problems = case.check(out)
        if problems:
            raise SystemExit(f"{case.label}: {problems}")
        entries[case.label] = digest(case.digest_text(out))
    stored = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    stored[name] = entries
    DIGESTS_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} digests for {name} at seed {seed}")


def observers():
    """Values taken from boundary results, after the span has ended."""
    import workloads

    return {
        "allocation.normalized_mask_tables": lambda args, result: result[1].bit_length(),
        "audit.find_pareto_improvement": lambda args, result: (
            result is not None,
            workloads.dominance_candidates(args[0].num_agents, args[0].num_objects, result),
        ),
        "serialize.dumps": lambda args, result: len(result),
    }


def traced_pass(run: Run) -> tuple[dict[str, float], list[str]]:
    """Run every case twice more, untraced and then with spans at every boundary.

    Each of these ops is scaled by the calibration readings just before and
    just after it, and so is the self time of every span inside a traced op.
    No in-op sampler runs here: its readings would land inside spans and
    count as their self time.  Both sides of ``trace.overhead_frac`` are
    scaled the same way and run next to each other, case by case.
    """
    import spans

    tracer = spans.Tracer()
    problems = []
    untraced_s = []
    traced_s = []
    factors = []
    for k, case in enumerate(run.cases):
        before = calibration.seconds()
        start = perf_counter()
        case.op()
        elapsed = perf_counter() - start
        between = calibration.seconds()
        with spans.installed(tracer, observers()):
            tracer.op_id = k
            start = perf_counter()
            root = tracer.open(spans.OP_SPAN)
            try:
                out = case.op()
            finally:
                tracer.close(root)
            traced = perf_counter() - start
        after = calibration.seconds()
        factor = scale(1.0, (between + after) / 2)
        untraced_s.append(scale(elapsed, (before + between) / 2))
        traced_s.append(traced * factor)
        factors.append(factor)
        if out != run.first[k]:
            problems.append(f"{case.label}: traced output differs from untraced")
    calls, self_s = spans.layer_totals(tracer, factors)
    observed = tracer.observed

    def total(*names: str) -> float:
        return sum(self_s[name] for name in names)

    def count(*names: str) -> int:
        return sum(calls[name] for name in names)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    wd = "allocation.winner_determination"
    tables = "allocation.normalized_mask_tables"
    dominance = observed["audit.find_pareto_improvement"]
    parse = ("serialize.economy_from_json", "serialize.preference_from_json")
    metrics = {
        "allocation.wd.calls": count(wd),
        "allocation.wd.self_s": total(wd),
        "allocation.wd.us_per_call": ratio(total(wd) * 1e6, count(wd)),
        "allocation.tables.calls": count(tables),
        "allocation.tables.self_s": total(tables),
        "allocation.denom_bits_max": max(observed[tables], default=0),
        "mechanism.run_gvcg.calls": count("mechanism.run_gvcg"),
        "mechanism.run_gvcg.self_s": total("mechanism.run_gvcg"),
        "mechanism.wd_per_run": ratio(count(wd), count("mechanism.run_gvcg")),
        "mechanism.guarantees.calls": count("mechanism.run_gvcg_with_audit"),
        "mechanism.guarantees.self_s": total("mechanism.run_gvcg_with_audit"),
        "audit.dominance.calls": len(dominance),
        "audit.dominance.self_s": total("audit.find_pareto_improvement"),
        "audit.dominance.witness_rate": ratio(sum(found for found, _ in dominance), len(dominance)),
        "audit.dominance.candidates": sum(n for _, n in dominance),
        "audit.dsic.calls": count("audit.audit_dsic"),
        "audit.dsic.self_s": total("audit.audit_dsic"),
        "audit.dsic.mech_runs": spans.calls_under(tracer, "mechanism.run_gvcg", "audit.audit_dsic"),
        "audit.ir.calls": count("audit.audit_ir_no_subsidy"),
        "audit.ir.self_s": total("audit.audit_ir_no_subsidy"),
        "prefs.compare.calls": count("prefs.compare_outcomes"),
        "prefs.compare.self_s": total("prefs.compare_outcomes"),
        "prefs.eet.calls": count("prefs.empty_equivalent_transfer"),
        "prefs.eet.self_s": total("prefs.empty_equivalent_transfer"),
        "serialize.parse.calls": count(*parse),
        "serialize.parse.self_s": total(*parse),
        "serialize.dumps.calls": count("serialize.dumps"),
        "serialize.dumps.self_s": total("serialize.dumps"),
        "serialize.dumps.bytes": sum(observed["serialize.dumps"]),
        "scenarios.scenario_from_json.self_s": total("scenarios.scenario_from_json"),
        "scenarios.run_scenario.self_s": total("scenarios.run_scenario"),
        "bench.op.self_s": total(spans.OP_SPAN),
        "trace.ops": len(run.cases),
        "trace.spans": len(tracer),
        "trace.overhead_frac": sum(traced_s) / sum(untraced_s) - 1.0,
    }
    missing = sorted(b for b in spans.EXPECTED[run.workload_name] if calls[b] == 0)
    if missing:
        problems.append(f"boundaries never reached: {', '.join(missing)}")
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write_csv(str(SPANS_DIR / f"spans-{run.workload_name}-{run.seed}.csv"))
    return metrics, problems


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run the timed section, check outputs; return the result object."""
    setup_times = []
    for _ in range(SETUP_REPEATS[name]):
        seconds_scaled, workload = scaled_call(lambda: set_up(name, seed, tiny))
        setup_times.append(seconds_scaled)
    # set-up objects live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    run = Run(workload, seed)
    try:
        run.timed(seconds)
    finally:
        gc.unfreeze()
    problems, matched = run.check(None if tiny else load_digests(name, seed))
    attempted = len(run.op_case)
    failed = run.failed_ops(problems)
    messages = [f"{run.cases[k].label}: {'; '.join(p)}" for k, p in sorted(problems.items())]

    latencies = run.case_latencies()
    e2e = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_s = sum(run.op_seconds)
    calibration_ms = statistics.median(run.calibrations) * 1e3
    print(
        f"workload {name} seed {seed}: {len(latencies)} cases x {attempted // len(latencies)}"
        f" repeats = {attempted} ops in {raw_s:.3f} s of op time"
    )
    print(
        f"  times at reference speed: the calibration kernel took {calibration_ms:.4g} ms"
        f" (median) here and {calibration.REFERENCE_S * 1e3:.4g} ms at reference"
    )
    for metric, value in e2e.items():
        print(f"  {metric:<12} {value:.6g} {END_TO_END_UNITS[metric]}")
    print(f"  {'raw ops/s':<12} {attempted / raw_s:.6g} 1/s  (every op, unscaled)")
    if attempted >= P90_MIN_OPS:
        p90 = statistics.quantiles(run.scaled(), n=10)[8] * 1e3
        print(f"  {'op_ms_p90':<12} {p90:.6g} ms  (every op, over {attempted} ops)")
    else:
        print(f"  {'op_ms_p90':<12} not reported: {attempted} ops < {P90_MIN_OPS}")
    print(f"  {'fail_frac':<12} {failed / attempted:.6g}  ({failed} of {attempted})")
    if not tiny and seed == COMMITTED_SEED:
        print(f"  committed digests matched for {matched} of {len(latencies)} cases")

    metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in e2e.items()}
    if trace:
        layer, trace_problems = traced_pass(run)
        messages += trace_problems
        metrics = {m: {"value": v, "unit": PER_LAYER_UNITS[m]} for m, v in layer.items()}
        for metric, entry in metrics.items():
            print(f"  {metric:<36} {entry['value']:.6g} {entry['unit']}")
    for message in messages[:MAX_FAILURES_SHOWN]:
        print(f"  FAILED {message}")
    if len(messages) > MAX_FAILURES_SHOWN:
        print(f"  ... and {len(messages) - MAX_FAILURES_SHOWN} more failures")
    return {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="store the output digests of every case as the committed ones",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record_digests:
        import_package()
        record_digests(args.workload, args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
