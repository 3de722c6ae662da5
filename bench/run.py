"""Benchmark of the eqsat engine: one workload per run, timed end to end.

    python3 bench/run.py --workload simplify-arith --seed 1 --seconds 12 --trace 0

The run imports eqsat from `src/` beside this directory, loads the
workload's theories, builds its seeded batch, and solves the whole batch in
rounds. The number of rounds is --seconds over the workload's calibrated
round time, so a run takes about --seconds at the nominal speed and does the
same work on a fast or a slow machine. Every output is checked by the
independent checkers in `checkers.py`. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it holds the uncalibrated figures. With --trace 0 the metrics are the
end-to-end ones. With --trace 1 they are the per-layer ones, from rounds
run with the engine's public functions wrapped (see `tracing.py`), and the
spans are written to `.bench_out/` at the root of the checkout.

All times are calibrated to a nominal machine speed (see `calibrate.py`).
"""

import time

# The interpreter's start-up is counted by the CPU time it used, since the
# wall time at which a process started is known only to a clock tick.
_STARTUP_CPU_S = time.process_time()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def import_engine():
    """Import eqsat from this checkout's sources and nowhere else."""
    if not (SRC / "eqsat" / "__init__.py").is_file():
        sys.exit(f"no eqsat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eqsat

    if Path(eqsat.__file__).resolve().parent != SRC / "eqsat":
        sys.exit(f"eqsat was imported from {eqsat.__file__}, not from {SRC}")


class Round:
    """One pass over the batch: the work time, wall interval and output of
    each problem. `rescale` fills in the calibrated times afterwards."""

    def __init__(self, workload, sampler, tracer=None):
        self.raw, self.walls, self.outputs = [], [], []
        self.reports, self.errors = [], []
        for i, problem in enumerate(workload.problems):
            if tracer is not None:
                tracer.problem = i
            w0, c0 = time.perf_counter(), sampler.clock()
            try:
                out, reports = workload.solve(problem)
            except Exception as exc:  # a failed problem is counted, not fatal
                out, reports = None, []
                self.errors.append(f"{problem.texts}: {type(exc).__name__}: {exc}")
            self.raw.append(sampler.clock() - c0)
            self.walls.append((w0, time.perf_counter()))
            self.outputs.append(out)
            self.reports.extend(reports)

    def rescale(self, sampler) -> None:
        self.scale = [sampler.scale(w0, w1) for w0, w1 in self.walls]
        self.calibrated = [r * k for r, k in zip(self.raw, self.scale)]

    @property
    def failed(self) -> int:
        return sum(o is None for o in self.outputs)


def check_rounds(workload, rounds) -> list[str]:
    """Checker verdicts on the first round; later rounds must repeat it."""
    first = rounds[0].outputs
    errors = []
    for p, out in zip(workload.problems, first):
        if out is not None:
            msg = workload.check(p, out)
            if msg:
                errors.append(msg)
    if any(r.outputs != first for r in rounds[1:]):
        errors.append("outputs differ between rounds")
    return errors


def batch_and_latency(rounds, times):
    """Median batch time over rounds, and the median over problems of each
    problem's median time over rounds."""
    batch = statistics.median(sum(times(r)) for r in rounds)
    per_problem = [statistics.median(ts) for ts in zip(*(times(r) for r in rounds))]
    return batch, statistics.median(per_problem)


def end_to_end(workload, rounds, setup_s):
    batch_s, latency_s = batch_and_latency(rounds, lambda r: r.calibrated)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "batch_s": (batch_s, "s"),
        "latency_p50_ms": (1000 * latency_s, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB"),
        # A prove-ac verdict is one atom, so that workload counts one node a pair.
        "output_size": (workload.output_size(rounds[0].outputs), "nodes"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def uncalibrated(rounds, setup_raw_s, sampler):
    batch_s, latency_s = batch_and_latency(rounds, lambda r: r.raw)
    q1, median, q3 = statistics.quantiles(sampler.seconds, n=4)
    return {
        "rounds": len(rounds),
        "raw_setup_s": setup_raw_s,
        "raw_batch_s": batch_s,
        "raw_latency_p50_ms": 1000 * latency_s,
        "reference_pass_s": {
            "q1": q1, "median": median, "q3": q3, "n": len(sampler.seconds)
        },
    }


def main() -> int:
    args = parse_args()
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        return run(args, sampler)
    finally:
        sampler.disarm()


def run(args, sampler) -> int:
    import_engine()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        names = sorted(workloads.WORKLOADS)
        sys.exit(f"unknown workload {args.workload!r}; one of {names}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(sampler.clock)
        tracer.install()
    workload.setup()
    setup_raw_s = _STARTUP_CPU_S + sampler.clock() - _T0
    setup_wall = (_T0, time.perf_counter())
    if tracer is not None:
        tracer.uninstall()
        setup_trace = tracer.take()

    # A traced run alternates untraced and traced rounds.
    n_rounds = max(1, round(args.seconds / workload.round_s / (2 if tracer else 1)))
    rounds, traced = [], []
    for _ in range(n_rounds):
        rounds.append(Round(workload, sampler))
        if tracer is not None:
            tracer.install()
            traced.append((Round(workload, sampler, tracer), tracer.take()))
            tracer.uninstall()
    sampler.stop()

    all_rounds = rounds + [r for r, _ in traced]
    for r in all_rounds:
        r.rescale(sampler)
    setup_scale = sampler.scale(*setup_wall)
    errors = check_rounds(workload, all_rounds)
    if tracer is None:
        metrics = end_to_end(workload, rounds, setup_raw_s * setup_scale)
        detail = uncalibrated(rounds, setup_raw_s, sampler)
    else:
        metrics, detail = traced_metrics(
            rounds, traced, setup_trace, setup_scale, errors
        )
        write_trace(args, setup_trace, traced[0][1], detail)
    for r in all_rounds:
        for e in r.errors:
            print("PROBLEM FAILED:", e, file=sys.stderr)
    for e in errors:
        print("CHECK FAILED:", e, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    result = {
        "correct": not errors,
        "attempted": sum(len(r.raw) for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def traced_metrics(rounds, traced, setup_trace, setup_scale, errors):
    """Per-layer metrics of the traced set-up plus one traced round. Times
    are medians over the traced rounds; counters must repeat exactly, and
    must agree with the totals in the engine's own reports."""
    import tracing

    setup_spans, setup_counts = setup_trace
    times, counts = [], None
    for r, (spans, round_counts) in traced:
        t = tracing.layer_times(setup_spans, lambda _: setup_scale)
        for k, v in tracing.layer_times(spans, r.scale.__getitem__).items():
            t[k] += v
        times.append(t)
        c = tracing.layer_counts(setup_counts + round_counts, r.reports)
        if counts is None:
            counts = c
            errors += tracing.cross_check(round_counts, r.reports)
        elif c != counts:
            errors.append("per-layer counters differ between traced rounds")
    metrics = {
        k: {"value": v, "unit": "ratio" if isinstance(v, float) else "count"}
        for k, v in counts.items()
    }
    for k in times[0]:
        metrics[k] = {"value": statistics.median(t[k] for t in times), "unit": "s"}
    untraced_s = statistics.median(sum(r.calibrated) for r in rounds)
    traced_s = statistics.median(sum(r.calibrated) for r, _ in traced)
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    detail = {
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "batch_s": untraced_s,
        "traced_batch_s": traced_s,
    }
    return metrics, detail


def write_trace(args, setup_trace, round_trace, detail):
    """Spans and counters of the set-up and of the first traced round."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "detail": detail,
        "span_fields": ["name", "parent", "start_s", "end_s", "problem"],
        "setup": {"spans": setup_trace[0], "counters": setup_trace[1]},
        "round": {"spans": round_trace[0], "counters": round_trace[1]},
    }
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
