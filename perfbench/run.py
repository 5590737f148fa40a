"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload readapt-hard --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` there and nowhere else. ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` replays the same workload through each
layer's public functions, writes the spans to ``perfbench/out/`` and prints
the per-layer metrics.
"""

import os

# One BLAS thread: on a small shared machine a second one spreads the timings
# more than it speeds them up.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import PROBE_REF_S, Tracer, clock, duration, probe, quantile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# At least this many set-ups, and until they have taken this much CPU: a
# short set-up (stream-online's) is as noisy as its probes, so it repeats more.
SETUP_REPEATS = 5
SETUP_MIN_S = 4.0


def _import_program() -> None:
    if not (SRC / "adathresh" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'adathresh'}")
    sys.path.insert(0, str(SRC))
    import adathresh

    if Path(adathresh.__file__).resolve().parent != (SRC / "adathresh").resolve():
        sys.exit(f"perfbench: imported adathresh from {adathresh.__file__}, not {SRC}")


def _declared_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(rounds, setups) -> dict[str, float]:
    """Each timing over the probe timed next to it, in seconds of the
    reference machine (``spans.PROBE_REF_S``)."""
    op_ref = [
        t / r.probes[i * len(r.probes) // len(r.op_times)]
        for r in rounds
        for i, t in enumerate(r.op_times)
    ]
    round_ref = [sum(c / p for c, p in zip(r.chunks, r.probes)) for r in rounds]
    return {
        "setup_s": statistics.median(setups) * PROBE_REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ref_ms_p50": statistics.median(op_ref) * PROBE_REF_S * 1e3,
        # per round, not over the run: a burst of load from outside the
        # process then moves one round, not the figure
        "ops_per_ref_s": len(rounds[0].op_times) / (statistics.median(round_ref) * PROBE_REF_S),
    }


def per_layer(tracer, rounds) -> dict[str, float]:
    def times(name):
        return [duration(s) for s in tracer.named(name)]

    def counts(name):
        return tracer.counts.get(name, [])

    def per_op(names):
        by_op = {}
        for name in names:
            for s in tracer.named(name):
                by_op[s["op"]] = by_op.get(s["op"], 0.0) + duration(s)
        return list(by_op.values())

    adapts = tracer.named("optimizer.adapt")
    fits = [
        sum(duration(c) for c in tracer.children(a) if c["name"].startswith("stats."))
        for a in adapts
    ]
    sweeps = [
        a for a in adapts
        if any(c["name"] == "optimizer.optimize_f1" for c in tracer.children(a))
    ]
    embeddings = counts("similarity.embeddings")
    plain = sum(r.plain_s for r in rounds)
    return {
        "gallery.load_ms": quantile(times("gallery.load"), 0.5) * 1e3,
        "gallery.snapshot_us_p50": quantile(times("gallery.snapshot"), 0.5) * 1e6,
        "gallery.match_ms_p50": quantile(times("gallery.match_query"), 0.5) * 1e3,
        "gallery.match_ms_p99": quantile(times("gallery.match_query"), 0.99) * 1e3,
        "gallery.register_us_p50": quantile(times("gallery.register"), 0.5) * 1e6,
        "similarity.build_ms_p50": quantile(times("similarity.build_distributions"), 0.5) * 1e3,
        "similarity.samples": quantile(counts("similarity.samples"), 0.5),
        "similarity.gram_mb": max(embeddings, default=0) ** 2 * 8 / 2**20,
        "stats.fit_us_p50": quantile(fits, 0.5) * 1e6,
        "optimizer.sweep_ms_p50": quantile(times("optimizer.optimize_f1"), 0.5) * 1e3,
        "optimizer.sweeps": len(sweeps) / len(rounds),
        "optimizer.distinct_values": quantile(counts("optimizer.distinct_values"), 0.5),
        "optimizer.select_us_p50": quantile(times("optimizer.select_threshold"), 0.5) * 1e6,
        "optimizer.adapt_self_ms_p50": quantile(counts("optimizer.adapt_self"), 0.5) * 1e3,
        "metrics.metrics_at_us_p50": quantile(times("metrics.metrics_at"), 0.5) * 1e6,
        "metrics.roc_ms": quantile(times("metrics.roc_sweep"), 0.5) * 1e3,
        "experiment.protocol_ms": quantile(times("experiment.run_incremental"), 0.5) * 1e3,
        "experiment.steps": quantile(counts("experiment.steps"), 0.5),
        "experiment.export_ms": quantile(
            per_op(["experiment.export", "experiment.summarize"]), 0.5
        ) * 1e3,
        "experiment.stream_self_us_p50": quantile(counts("experiment.stream_self"), 0.5) * 1e6,
        "cli.simulate_self_ms": quantile(counts("cli.simulate_self"), 0.5) * 1e3,
        "trace.overhead_pct": (sum(r.replay_s for r in rounds) - plain) / plain * 100.0,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Checks, note  # imports the program

    workload = WORKLOADS[workload_name]
    units = _declared_units(trace)
    out_root = BENCH_DIR / "out"
    out = out_root / f"{workload_name}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        # each set-up over the mean of the probes timed before and after it:
        # a set-up is too long for one probe to pair with it closely
        setups = []
        before = probe()
        spent = 0.0
        while len(setups) < SETUP_REPEATS or spent < SETUP_MIN_S:
            t0 = clock()
            ctx = workload.setup(out, seed, tracer)
            dt = clock() - t0
            after = probe()
            setups.append(2 * dt / (before + after))
            before = after
            spent += dt
        rounds = []
        start = perf_counter()  # the run's length is wall time
        while not rounds or perf_counter() - start < seconds:
            rounds.append(workload.traced_round(ctx, tracer) if trace else workload.round(ctx))
        metrics = per_layer(tracer, rounds) if trace else end_to_end(rounds, setups)
        checks = Checks()
        failed = workload.check(ctx, rounds, checks)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if trace:
        tracer.write(out_root / f"trace-{workload_name}-seed{seed}.jsonl")
    for problem in checks.problems[:20]:
        note(f"check failed: {problem}")
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")
    return {
        "correct": not checks.problems,
        "attempted": sum(len(r.op_times) for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["readapt-hard", "grow-protocol", "stream-online"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
