"""One benchmark run of one workload, in its own process.

Started by run.py.  Lowers its own address-space limit, sets the
workload up several times from a fresh import, runs whole rounds of
operations in one closed loop (one client, one thread) until the time is
spent, checks every answer, and prints a detail line and then the
result line on stdout.  With ``--trace 1`` each operation runs twice,
once plain and once under the span tracer, in alternating order, and the
result holds the per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibration import CHUNK_ITERATIONS, CHUNKS_PER_CAL, SAMPLE_INTERVAL_S, Calibrator
from tracing import (CALL_METRICS, COUNT_METRICS, LAYERS, SELF_TIME_METRICS,
                     Tracer, layer_of)
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
ADDRESS_SPACE_LIMIT = 2 << 30  # bytes; a blow-up becomes a MemoryError
SETUP_REPETITIONS = 5
MAX_FAILURES_PRINTED = 20
SEED_NOTE = "qbf-decide draws its formulas from the seed; families-cli and " \
            "streett-counter are deterministic and ignore it"


def set_up(workload) -> tuple[float, object]:
    """Import costparity afresh from src/ and set the workload up on it;
    returns the seconds this took and the package."""
    for name in [m for m in sys.modules if m == "costparity" or m.startswith("costparity.")]:
        del sys.modules[name]
    start = time.perf_counter()
    package = importlib.import_module("costparity")
    importlib.import_module("costparity.cli")
    workload.setup(package)
    elapsed = time.perf_counter() - start
    gc.collect()  # the previous import's modules
    return elapsed, package


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's method for the continued fraction of the incomplete beta
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for aa in (m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))):
            d = 1 + aa * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-13:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1 - front * _beta_continued_fraction(b, a, 1 - x) / b


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by Beta(p(n+1), (1-p)(n+1)).

    Operations shorter than 50 ms vary by 10-18% from one execution to
    the next even after calibration; a single order statistic carries
    all of that, the weighted mean averages its neighbours."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def round_percentile(values: list[float], starts: list[int], p: float) -> float:
    """The percentile within each round, averaged over the rounds.

    Rounds are identical on the deterministic workloads, so a percentile
    pooled over all operations would weigh the copies of the operations
    near it differently depending on how many rounds fitted in the run."""
    bounds = starts + [len(values)]
    return statistics.mean(percentile(values[a:b], p) for a, b in zip(bounds, bounds[1:]))


class Run:
    """Operations executed so far, with their calibration samples."""

    def __init__(self, calibrator: Calibrator):
        self.calibrator = calibrator
        self.cal_s: list[float] = []         # one cal over each operation
        self.cal_before_s: list[float] = []  # one cal just before it
        self.samples_during: list[int] = []
        self.op_s: list[float] = []
        self.attempted = 0
        self.failures: list[dict] = []

    def execute(self, op, tracer: Tracer | None = None) -> None:
        calibrator = self.calibrator
        if tracer is not None:
            tracer.begin_op()
            tracer.install()
        calibrator.start()
        start = calibrator.clock()
        try:
            result, problem = op.run(), None
        except Exception as exc:  # BudgetExceededError, MemoryError, bugs
            result, problem = None, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        elapsed = calibrator.clock() - start
        cal = calibrator.stop()
        if tracer is not None:
            tracer.remove()
        if problem is None:
            problem = op.check(result)
        self.attempted += 1
        self.cal_s.append(cal)
        self.cal_before_s.append(calibrator.before_s())
        self.samples_during.append(len(calibrator.during))
        self.op_s.append(elapsed)
        if problem is not None:
            self.failures.append({"op": op.label, "input": str(op.input),
                                  "problem": problem})
            if len(self.failures) <= MAX_FAILURES_PRINTED:
                print(f"FAILED {op.label}: {problem}\n  input: {op.input}",
                      file=sys.stderr)

    def op_cal(self) -> list[float]:
        return [t / c for t, c in zip(self.op_s, self.cal_s)]


def run_rounds(workload, seconds: float, run_round, before_round=None) -> int:
    """Whole rounds until `seconds` are spent; a round starts only if at
    least half of it fits, judged by the round before."""
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds == 0 or time.perf_counter() - start + last / 2 <= seconds:
        if before_round is not None:
            before_round(rounds)
        began = time.perf_counter()
        run_round(workload.round(rounds))
        last = time.perf_counter() - began
        rounds += 1
    return rounds


def plain_metrics(workload, seconds: float, first_setup_s: float) -> tuple[Run, dict, dict]:
    """The end-to-end figures.  Every round after the first starts from a
    fresh set-up, and set-ups are added at the end up to
    SETUP_REPETITIONS, so that `setup_s` samples the host's speed across
    the run rather than in one phase of it."""
    run = Run(Calibrator())
    starts: list[int] = []
    setup_s = [first_setup_s]

    def before_round(index):
        if index:
            setup_s.append(set_up(workload)[0])

    def run_round(ops):
        starts.append(run.attempted)
        for op in ops:
            run.execute(op)

    rounds = run_rounds(workload, seconds, run_round, before_round)
    while len(setup_s) < SETUP_REPETITIONS:
        setup_s.append(set_up(workload)[0])
    op_cal = run.op_cal()
    ok = run.attempted - len(run.failures)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_kcal": (1000 * len(op_cal) / sum(op_cal), "1/kcal"),
        "latency_p50_cal": (round_percentile(op_cal, starts, 0.5), "cal"),
        "latency_p90_cal": (round_percentile(op_cal, starts, 0.9), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": (ok / run.attempted, "ratio"),
    }
    raw = {
        "rounds": rounds,
        "samples": len(op_cal),
        "fail_ratio": len(run.failures) / run.attempted,
        "ops_per_s": len(run.op_s) / sum(run.op_s),
        "latency_p50_ms": 1000 * round_percentile(run.op_s, starts, 0.5),
        "latency_p90_ms": 1000 * round_percentile(run.op_s, starts, 0.9),
        "setup_s_samples": setup_s,
    }
    return run, metrics, raw


def traced_metrics(workload, seconds: float, package) -> tuple[Run, dict, dict, Tracer]:
    """Each operation plain and traced, in alternating order; per-layer
    figures are per round, in cal and in raw seconds."""
    run = Run(Calibrator())
    tracer = Tracer(package, run.calibrator.clock)
    pair_times = {"plain": [0.0, 0.0], "traced": [0.0, 0.0]}  # [cal, s]
    cal_totals: dict[str, float] = defaultdict(float)
    sec_totals: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)

    def timed(op, kind):
        run.execute(op, tracer if kind == "traced" else None)
        cal, elapsed = run.cal_s[-1], run.op_s[-1]
        pair_times[kind][0] += elapsed / cal
        pair_times[kind][1] += elapsed
        if kind == "traced":
            for name, self_s in tracer.op_self.items():
                for key in (layer_of(name) + ".self_cal", name):
                    cal_totals[key] += self_s / cal
                    sec_totals[key] += self_s
            for name, n in tracer.op_calls.items():
                counts[layer_of(name) + ".calls"] += n
                counts[name] += n
            for name, n in tracer.op_counters().items():
                counts[name] += n

    def run_round(ops):
        for i, op in enumerate(ops):
            for kind in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
                timed(op, kind)

    rounds = run_rounds(workload, seconds, run_round)
    metrics, raw_s = {}, {}

    def put_cal(metric, cal, secs):
        metrics[metric] = (cal / rounds, "cal")
        raw_s[metric] = secs / rounds

    for layer in LAYERS:
        key = layer + ".self_cal"
        put_cal(key, cal_totals[key], sec_totals[key])
        metrics[layer + ".calls"] = (counts[layer + ".calls"] / rounds, "count")
    for metric, spans in SELF_TIME_METRICS.items():
        put_cal(metric, sum(cal_totals[s] for s in spans), sum(sec_totals[s] for s in spans))
    for metric, spans in CALL_METRICS.items():
        metrics[metric] = (sum(counts[s] for s in spans) / rounds, "count")
    for metric, unit in COUNT_METRICS.items():
        metrics[metric] = (counts[metric] / rounds, unit)
    traced_cal, traced_s = pair_times["traced"]
    plain_cal, plain_s = pair_times["plain"]
    layers_cal = sum(cal_totals[layer + ".self_cal"] for layer in LAYERS)
    layers_s = sum(sec_totals[layer + ".self_cal"] for layer in LAYERS)
    put_cal("trace.traced_op_cal", traced_cal, traced_s)
    put_cal("trace.plain_op_cal", plain_cal, plain_s)
    put_cal("trace.unattributed_cal", traced_cal - layers_cal, traced_s - layers_s)
    overhead = traced_cal / plain_cal - 1
    metrics["trace.overhead_share"] = (overhead, "ratio")
    unattributed = 1 - layers_cal / traced_cal
    metrics["trace.unattributed_share"] = (unattributed, "ratio")
    raw = {
        "rounds": rounds,
        "samples": len(run.op_s),
        "per_round": "every per-layer figure is per round (one pass over the workload's ops)",
        "raw_seconds": raw_s,
        "accounting": {
            "layer_self_cal": layers_cal / rounds,
            "traced_op_cal": traced_cal / rounds,
            "unattributed_share": unattributed,
            "tracing_overhead_share": overhead,
            "within_overhead": unattributed <= abs(overhead),
        },
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
    }
    return run, metrics, raw, tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR / f"work-{args.workload}")
    setup_s, package = set_up(workload)
    if Path(package.__file__).resolve().parent != ROOT / "src" / "costparity":
        print(f"error: costparity imported from {package.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    if args.trace:
        run, metrics, raw, tracer = traced_metrics(workload, args.seconds, package)
    else:
        run, metrics, raw = plain_metrics(workload, args.seconds, setup_s)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.uses_seed,
        "seed_note": SEED_NOTE,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "load": "closed loop, one client, one thread, one process",
        "calibration": {
            "cal": f"{CHUNKS_PER_CAL} chunks of {CHUNK_ITERATIONS} loop iterations; "
                   f"{CHUNKS_PER_CAL} chunks before each operation and one every "
                   f"{SAMPLE_INTERVAL_S} s during it",
            "median_ms": 1000 * statistics.median(run.cal_s),
            "per_op_ms": [round(1000 * c, 4) for c in run.cal_s],
            "before_op_ms": [round(1000 * c, 4) for c in run.cal_before_s],
            "samples_during_op": run.samples_during,
        },
        "op_raw_ms": [round(1000 * t, 4) for t in run.op_s],
        "raw": raw,
        "failures": run.failures,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps({
            "columns": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": tracer.spans,
            "dropped": tracer.dropped_spans,
        }) + "\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
