"""The benchmark's workloads.

Each workload makes its inputs from the seed, sets up, runs timed rounds of
the same operations, checks every output against ``oracles`` and, in traced
mode, replays each operation through the public functions of the layers it
crosses. A round is one pass of fixed, seeded work, so every round sees the
same gallery sizes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from spans import Tracer, clock, duration, probe
from adathresh import (
    AdaptConfig,
    DegenerateDataError,
    ExperimentRow,
    Gallery,
    SynthSpec,
    ThresholdState,
    adapt,
    build_distributions,
    cli,
    estimate_gaussian,
    export,
    generate_synthetic,
    initialize_threshold,
    intersect_gaussians,
    maybe_adapt,
    metrics_at,
    optimize_f1,
    roc_sweep,
    run_incremental,
    select_threshold,
    simulate_stream,
    summarize,
)

TOL = 1e-12
CONFIG = AdaptConfig()


@dataclass
class Round:
    """CPU time of each op, what each op returned, and the probes timed beside them.

    ``plain_s`` is the CPU time of the ops and of the work between them (the
    re-adaptations on stream-online); ``chunks`` splits it at each probe, so
    ``chunks[k]`` is the work timed just before ``probes[k]``. A traced round
    also carries the replayed time (``replay_s``) of the same ops.
    """

    op_times: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    plain_s: float = 0.0
    replay_s: float = 0.0
    chunks: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def probe(self) -> None:
        self.chunks.append(self.plain_s - sum(self.chunks))
        self.probes.append(probe())


class Checks:
    """Collects the checks that failed; the run is correct when none did."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return bool(ok)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def adapted_exactly(state: ThresholdState, auto: np.ndarray, cross: np.ndarray, checks: Checks) -> bool:
    """Check one adaptation against the oracle samples of its gallery.

    The f1 recounted at the returned threshold must equal ``f1_current``
    (a failed check). The method then either met the target ``tau`` or found
    the exact optimum; the return value says which held.
    """
    recount = oracles.f1_at(auto, cross, state.lambda_current)
    checks.expect(
        _close(recount, state.f1_current),
        f"f1 {state.f1_current!r} at lambda {state.lambda_current!r}, recounted {recount!r}",
    )
    opt = oracles.exact_f1_optimum(auto, cross)
    return state.f1_current >= state.tau or _close(state.f1_current, opt)


def _vectors_and_labels(gallery: Gallery):
    embs = [e for label in gallery.identities for e in gallery.embeddings_of(label)]
    return np.array([e.vector for e in embs]), [e.identity for e in embs]


def clone(gallery: Gallery) -> Gallery:
    """Fresh copy with the same embeddings, ids and version, counted as adapted."""
    copy = Gallery(gallery.dimension)
    for label in gallery.identities:
        for e in gallery.embeddings_of(label):
            copy.register(label, e.vector, instance_id=e.instance_id)
    copy.mark_adapted()
    return copy


# -- replays: the public calls each entry point makes, in its order ----------


def traced_build(gallery: Gallery, tracer: Tracer):
    dist = tracer.call("similarity.build_distributions", build_distributions, gallery)
    tracer.count("similarity.samples", dist.auto_samples.size + dist.cross_samples.size)
    tracer.count("similarity.embeddings", len(gallery))
    return dist


def replay_adapt(gallery: Gallery, state, config: AdaptConfig, tracer: Tracer):
    """``adapt`` as its steps; returns (new state, the span around them)."""
    with tracer.span("optimizer.adapt") as root:
        new, dist = _replay_adapt_steps(gallery, state, config, tracer)
        if new is not state:
            tracer.call("gallery.mark_adapted", gallery.mark_adapted)
    if any(c["name"] == "optimizer.optimize_f1" for c in tracer.children(root)):
        values = np.unique(np.concatenate([dist.auto_samples, dist.cross_samples]))
        tracer.count("optimizer.distinct_values", values.size)
    return new, root


def _replay_adapt_steps(gallery, state, config, tracer):
    dist = traced_build(gallery, tracer)
    if not dist.estimable:
        return state, dist
    try:
        auto_g = tracer.call("stats.estimate_gaussian", estimate_gaussian, dist.auto_samples)
        cross_g = tracer.call("stats.estimate_gaussian", estimate_gaussian, dist.cross_samples)
        inter = tracer.call("stats.intersect_gaussians", intersect_gaussians, auto_g, cross_g)
    except DegenerateDataError:
        return state, dist
    lam0 = tracer.call("stats.initialize_threshold", initialize_threshold, inter, auto_g, cross_g)
    source = "intersection" if lam0 == inter.chosen else "mean_fallback"
    lam0 = min(1.0, max(0.0, lam0))
    f1_init = tracer.call(
        "metrics.metrics_at", metrics_at, dist, lam0, config.epsilon, config.tpr_denominator
    ).f1
    incumbent = ThresholdState(
        lam0, lam0, f1_init, f1_init, source, dist.gallery_version, config.tau
    )
    if f1_init >= config.tau:
        return incumbent, dist
    candidate, candidate_f1 = tracer.call("optimizer.optimize_f1", optimize_f1, dist, config)
    selected = tracer.call(
        "optimizer.select_threshold", select_threshold, candidate, candidate_f1, incumbent, config
    )
    return selected, dist


def _should_adapt(gallery: Gallery, state, config: AdaptConfig) -> bool:
    """The trigger rule of ``maybe_adapt``."""
    if state is None or gallery.registrations_since_adapt >= config.recompute_every_n:
        return True
    return gallery.change_counter - state.gallery_version > gallery.registrations_since_adapt


def _in_turn(op: int, plain, replay):
    """Run an untraced op and its replay, alternating which goes first so that
    neither always meets the colder caches."""
    if op % 2:
        return plain(), replay()
    replayed = replay()
    return plain(), replayed


def _adapt_self(tracer: Tracer, plain_s: float, root) -> None:
    children_s = sum(duration(c) for c in tracer.children(root))
    tracer.count("optimizer.adapt_self", plain_s - children_s)


# -- readapt-hard ---------------------------------------------------------------

# Fixed, whatever the seed: the optimizer fault this workload keeps (see the
# README) is a property of this gallery, so it must not move with the seed.
READAPT_SPEC = SynthSpec(500, 4, 128, 0.18, 1.0, rng_seed=0)


@dataclass
class ReadaptCtx:
    gallery: Gallery
    source: Gallery


class ReadaptHard:
    def setup(self, out: Path, seed: int, tracer: Tracer) -> ReadaptCtx:
        source = tracer.call("experiment.generate_synthetic", generate_synthetic, READAPT_SPEC)
        path = out / "readapt-hard.csv"
        tracer.call("gallery.save", source.save, path)
        gallery = tracer.call("gallery.load", Gallery.load, path)
        adapt(gallery, None, CONFIG)  # warm-up op
        return ReadaptCtx(gallery, source)

    def round(self, ctx: ReadaptCtx) -> Round:
        t0 = clock()
        state = adapt(ctx.gallery, None, CONFIG)
        dt = clock() - t0
        r = Round([dt], [state], plain_s=dt)
        r.probe()
        return r

    def traced_round(self, ctx: ReadaptCtx, tracer: Tracer) -> Round:
        tracer.op = (tracer.op or 0) + 1
        tracer.call("gallery.snapshot", ctx.gallery.snapshot)
        r, (replayed, root) = _in_turn(
            tracer.op,
            lambda: self.round(ctx),
            lambda: replay_adapt(ctx.gallery, None, CONFIG, tracer),
        )
        r.outputs.append(replayed)
        _adapt_self(tracer, r.plain_s, root)
        r.replay_s = duration(root)
        return r

    def check(self, ctx: ReadaptCtx, rounds: list[Round], checks: Checks) -> int:
        auto, cross = oracles.BlockMax(*_vectors_and_labels(ctx.source)).samples()
        dist = build_distributions(ctx.gallery)
        for got, want, side in ((dist.auto_samples, auto, "auto"), (dist.cross_samples, cross, "cross")):
            checks.expect(
                got.size == want.size and np.allclose(np.sort(got), want, rtol=0.0, atol=TOL),
                f"{side} samples differ from the block-max oracle",
            )
        # Whatever its path, the optimizer keeps the best score it evaluates,
        # and the grid path evaluates at least this grid.
        grid = np.linspace(0.0, 1.0, CONFIG.grid_points)
        tp, fp, fn, _ = oracles.counts_at(auto, cross, grid)
        grid_best = float(oracles.f1_from_counts(tp, fp, fn).max())
        failed = 0
        for r in rounds:
            state = r.outputs[0]
            for replayed in r.outputs[1:]:
                checks.expect(replayed == state, f"replayed adapt {replayed} != adapt {state}")
            checks.expect(
                state.f1_current >= grid_best - TOL,
                f"adapt f1 {state.f1_current!r} is below the grid's best {grid_best!r}",
            )
            if not adapted_exactly(state, auto, cross, checks):
                failed += 1
        if failed:
            opt = oracles.exact_f1_optimum(auto, cross)
            note(
                f"{failed} adapt ops returned f1 {rounds[0].outputs[0].f1_current!r}; "
                f"the exact optimum is {opt!r} (counted as failed ops)"
            )
        return failed


# -- grow-protocol --------------------------------------------------------------

FIXED = (0.3, 0.5, 0.7)
ROC_POINTS = 1001


def grow_spec(seed: int) -> SynthSpec:
    return SynthSpec(60, 4, 64, 0.18, 1.0, rng_seed=seed)


@dataclass
class GrowCtx:
    source: Gallery
    path: Path
    out: Path


class GrowProtocol:
    def setup(self, out: Path, seed: int, tracer: Tracer) -> GrowCtx:
        source = tracer.call("experiment.generate_synthetic", generate_synthetic, grow_spec(seed))
        path = out / "grow-protocol.csv"
        tracer.call("gallery.save", source.save, path)
        tracer.call("gallery.load", Gallery.load, path)
        ctx = GrowCtx(source, path, out)
        self._simulate(ctx, "warmup")  # warm-up op
        return ctx

    def _simulate(self, ctx: GrowCtx, tag: str):
        rows_path = ctx.out / f"rows-{tag}.csv"
        summary_path = ctx.out / f"summary-{tag}.json"
        argv = [
            "simulate", "--embeddings", str(ctx.path),
            "--out", str(rows_path), "--summary", str(summary_path),
        ]
        # the CLI reports to stdout, where the result line must come last
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            code = cli.main(argv)
            dt = clock() - t0
        return dt, (code, rows_path.read_text(), summary_path.read_text())

    def round(self, ctx: GrowCtx) -> Round:
        dt, output = self._simulate(ctx, "op")
        r = Round([dt], [output], plain_s=dt)
        r.probe()
        return r

    def traced_round(self, ctx: GrowCtx, tracer: Tracer) -> Round:
        tracer.op = (tracer.op or 0) + 1
        r, (rows, root) = _in_turn(
            tracer.op, lambda: self.round(ctx), lambda: self._replay_simulate(ctx, tracer)
        )
        tracer.count("cli.simulate_self", r.plain_s - sum(duration(c) for c in tracer.children(root)))
        r.replay_s = duration(root)
        code = r.outputs[0][0]
        files = (ctx.out / "rows-replay.csv", ctx.out / "summary-replay.json")
        r.outputs.append((code,) + tuple(f.read_text() for f in files))
        r.outputs.append(walk_protocol(ctx.source, tracer) == rows)
        return r

    def _replay_simulate(self, ctx: GrowCtx, tracer: Tracer):
        """``adathresh simulate`` as its library calls."""
        with tracer.span("cli.simulate") as root:
            gallery = tracer.call("gallery.load", Gallery.load, ctx.path)
            rows = tracer.call(
                "experiment.run_incremental", run_incremental, gallery, CONFIG, list(FIXED)
            )
            tracer.call("experiment.export", export, rows, ctx.out / "rows-replay.csv")
            report = tracer.call("experiment.summarize", summarize, rows)
            tracer.call("experiment.export", export, report, ctx.out / "summary-replay.json")
        return rows, root

    def check(self, ctx: GrowCtx, rounds: list[Round], checks: Checks) -> int:
        labels = ctx.source.identities
        oracle = oracles.BlockMax(*_vectors_and_labels(ctx.source))
        steps = {}
        for step in range(2, len(labels) + 1):
            auto, cross = oracle.samples(labels[:step])
            steps[step] = (auto, cross, oracles.exact_f1_optimum(auto, cross))
        for r in rounds:
            plain = r.outputs[0]
            self._check_output(plain, steps, checks)
            if len(r.outputs) > 1:
                checks.expect(r.outputs[1] == plain, "replayed simulate wrote other files")
                checks.expect(r.outputs[2], "step-by-step replay gave other rows")
        return 0

    def _check_output(self, output, steps, checks: Checks) -> None:
        code, rows_text, summary_text = output
        checks.expect(code == 0, f"simulate exited {code}")
        rows = list(csv.DictReader(io.StringIO(rows_text)))
        kinds = ["adaptive"] + [f"fixed@{v:g}" for v in FIXED]
        want = [(step, kind) for step in steps for kind in kinds]
        got = [(int(row["step"]), row["threshold_kind"]) for row in rows]
        if not checks.expect(got == want, "rows are not one per step and threshold kind"):
            return
        last = max(steps)
        eps = CONFIG.epsilon
        for row in rows:
            step, kind = int(row["step"]), row["threshold_kind"]
            auto, cross, opt = steps[step]
            lam = float(row["lambda"])
            if kind != "adaptive":
                checks.expect(lam == float(kind.split("@")[1]), f"{kind} row has lambda {lam}")
            tp, fp, fn, tn = (int(x) for x in oracles.counts_at(auto, cross, lam))
            expected = {
                "precision": tp / (tp + fp) if tp + fp else 0.0,
                "recall": tp / (tp + fn),
                "f1": float(oracles.f1_from_counts(tp, fp, fn)),
                "accuracy": (tp + tn) / (tp + fp + fn + tn),
                "tpr": tp / (tp + fn + eps),
                "fpr": fp / (fp + tn + eps),
            }
            for name, value in expected.items():
                checks.expect(
                    _close(float(row[name]), value),
                    f"step {step} {kind}: {name} {row[name]} but recounted {value!r}",
                )
            f1 = float(row["f1"])
            if kind == "adaptive":
                checks.expect(f1 <= opt + TOL, f"step {step}: adaptive f1 {f1} above optimum {opt}")
                adapted = (
                    auto.size >= 2 and cross.size >= 2 and auto.mean() > cross.mean()
                )
                if adapted:
                    checks.expect(
                        f1 >= min(CONFIG.tau, opt) - TOL,
                        f"step {step}: adaptive f1 {f1} below min(tau, optimum {opt})",
                    )
            if step == last:
                mw = oracles.mann_whitney_auc(auto, cross)
                checks.expect(
                    row["auc"] != "" and abs(float(row["auc"]) - mw) <= 0.01,
                    f"final AUC {row['auc']!r} vs Mann-Whitney {mw}",
                )
            else:
                checks.expect(row["auc"] == "", f"step {step} carries an AUC")
        summary = json.loads(summary_text)
        for k in summary["kinds"]:
            krows = [row for row in rows if row["threshold_kind"] == k["threshold_kind"]]
            mean_acc = 100.0 * sum(float(row["accuracy"]) for row in krows) / len(krows)
            hits = 100.0 * sum(float(row["f1"]) >= summary["f1_target"] for row in krows) / len(krows)
            checks.expect(
                _close(k["mean_accuracy_pct"], mean_acc, 1e-9)
                and _close(k["f1_at_least_target_pct"], hits, 1e-9)
                and k["auc"] == float(krows[-1]["auc"]),
                f"summary of {k['threshold_kind']} does not match its rows",
            )


def walk_protocol(source: Gallery, tracer: Tracer) -> list[ExperimentRow]:
    """``run_incremental`` (input order, no per-step ROC) as its steps."""
    labels = source.identities
    gallery = Gallery(source.dimension)
    state = None
    rows = []
    for idx, label in enumerate(labels):
        for emb in source.embeddings_of(label):
            tracer.call("gallery.register", gallery.register, label, emb.vector)
        step = idx + 1
        if step < 2:
            continue
        with tracer.span("experiment.step"):
            tracer.call("gallery.snapshot", gallery.snapshot)
            dist = traced_build(gallery, tracer)
            means_ordered = dist.auto_samples.size > 0 and float(
                np.mean(dist.auto_samples)
            ) > float(np.mean(dist.cross_samples))
            if means_ordered:
                state, _ = replay_adapt(gallery, state, CONFIG, tracer)
            if means_ordered and state is not None:
                adaptive = state.lambda_current
            else:
                adaptive, _ = tracer.call("optimizer.optimize_f1", optimize_f1, dist, CONFIG)
            step_rows = []
            for kind, lam in [("adaptive", adaptive)] + [(f"fixed@{v:g}", float(v)) for v in FIXED]:
                m = tracer.call(
                    "metrics.metrics_at", metrics_at, dist, lam, CONFIG.epsilon, CONFIG.tpr_denominator
                )
                step_rows.append(
                    ExperimentRow(
                        step, kind, float(lam), m.precision, m.recall, m.f1,
                        m.accuracy, m.tpr, m.fpr,
                    )
                )
            if step == len(labels):
                auc = tracer.call("metrics.roc_sweep", roc_sweep, dist, ROC_POINTS, CONFIG.epsilon).auc
                step_rows = [
                    ExperimentRow(**{**r.__dict__, "auc": auc}) for r in step_rows
                ]
            rows.extend(step_rows)
    tracer.count("experiment.steps", len(labels) - 1)
    return rows


# -- stream-online --------------------------------------------------------------

STREAM_CONFIG = AdaptConfig(recompute_every_n=20)
PROBE_EVERY = 20  # queries; divides the stream, so every query has a probe after it
ENROLLED, PER_ENROLLED, HELD_OUT, NOVEL = 150, 4, 6, 300


def stream_inputs(seed: int):
    """The enrolled gallery and the shuffled query stream."""
    source = generate_synthetic(
        SynthSpec(ENROLLED + NOVEL, PER_ENROLLED + HELD_OUT, 128, 0.10, 1.0, rng_seed=seed)
    )
    enrolled = Gallery(source.dimension)
    queries = []
    for k, label in enumerate(source.identities):
        embs = source.embeddings_of(label)
        if k < ENROLLED:
            for e in embs[:PER_ENROLLED]:
                enrolled.register(label, e.vector, instance_id=e.instance_id)
            queries.extend(embs[PER_ENROLLED:])
        else:
            queries.append(embs[0])  # first embedding of a novel identity
    random.Random(seed).shuffle(queries)
    return enrolled, queries


@dataclass
class StreamCtx:
    gallery: Gallery
    state0: ThresholdState
    enrolled: Gallery
    queries: list


@dataclass
class Pass:
    lambdas: list = field(default_factory=list)
    events: list = field(default_factory=list)
    readapts: dict = field(default_factory=dict)  # query index -> new state


class StreamOnline:
    def setup(self, out: Path, seed: int, tracer: Tracer) -> StreamCtx:
        enrolled, queries = tracer.call("experiment.generate_synthetic", stream_inputs, seed)
        path = out / "stream-online.csv"
        tracer.call("gallery.save", enrolled.save, path)
        gallery = tracer.call("gallery.load", Gallery.load, path)
        state0 = adapt(gallery, None, STREAM_CONFIG)  # threshold in force at the start
        warm = clone(gallery)  # warm-up op
        simulate_stream(warm, queries[:1], state0.lambda_current, auto_register=True)
        maybe_adapt(warm, state0, STREAM_CONFIG)
        return StreamCtx(gallery, state0, enrolled, queries)

    @staticmethod
    def _query(gallery: Gallery, state: ThresholdState, q, r: Round, p: Pass):
        """One query op and the re-adaptation check after it; returns the
        event, the state now in force and the time the check took."""
        t0 = clock()
        event = simulate_stream(gallery, [q], state.lambda_current, auto_register=True)[0]
        t1 = clock()
        new = maybe_adapt(gallery, state, STREAM_CONFIG)
        t2 = clock()
        r.op_times.append(t1 - t0)
        r.plain_s += t2 - t0
        p.lambdas.append(state.lambda_current)
        p.events.append(event)
        if new is not state:
            p.readapts[len(p.events) - 1] = new
        return event, new, t2 - t1

    def round(self, ctx: StreamCtx) -> Round:
        gallery, state = clone(ctx.gallery), ctx.state0
        r, p = Round(), Pass()
        for i, q in enumerate(ctx.queries, 1):
            _, state, _ = self._query(gallery, state, q, r, p)
            if i % PROBE_EVERY == 0:
                r.probe()
        r.outputs.append(p)
        return r

    def traced_round(self, ctx: StreamCtx, tracer: Tracer) -> Round:
        plain, replay = clone(ctx.gallery), clone(ctx.gallery)
        state = replayed = ctx.state0
        r, p = Round(), Pass()
        mismatches = 0
        for i, q in enumerate(ctx.queries):
            tracer.op = i
            event, new, readapt_s = self._query(plain, state, q, r, p)

            tracer.call("gallery.snapshot", replay.snapshot)
            with tracer.span("experiment.query") as root:
                with tracer.span("gallery.match_query") as reads:
                    match = replay.match_query(q.vector, replayed.lambda_current)
                inner = duration(reads)
                if not match.matched:
                    with tracer.span("gallery.register") as writes:
                        replay.register(plain.identities[-1], q.vector)
                    inner += duration(writes)
                adapt_root = None
                if _should_adapt(replay, replayed, STREAM_CONFIG):
                    replayed, adapt_root = replay_adapt(replay, replayed, STREAM_CONFIG, tracer)
            tracer.count("experiment.stream_self", r.op_times[-1] - inner)
            if adapt_root is not None and new is not state:
                _adapt_self(tracer, readapt_s, adapt_root)
            mismatches += (match.matched, match.identity, match.best_similarity) != (
                event.matched, event.identity, event.best_similarity
            ) or replayed != new
            r.replay_s += duration(root)
            state = new
        r.outputs += [p, mismatches]
        return r

    def check(self, ctx: StreamCtx, rounds: list[Round], checks: Checks) -> int:
        vectors, labels = _vectors_and_labels(ctx.enrolled)
        # every pass runs the same queries on a fresh copy of the same
        # gallery: the first is checked against the oracles, the rest must
        # repeat it exactly
        first = rounds[0].outputs[0]
        self._check_pass(ctx, vectors, labels, first, checks)
        for r in rounds:
            checks.expect(r.outputs[0] == first, "a pass gave other events or states than the first")
            if len(r.outputs) > 1:
                checks.expect(r.outputs[1] == 0, f"{r.outputs[1]} replayed queries differ")
        return 0

    def _check_pass(self, ctx: StreamCtx, vectors, labels, p: Pass, checks: Checks) -> None:
        n = len(labels)
        raw = np.empty((n + len(ctx.queries), vectors.shape[1]))
        raw[:n] = vectors
        units = np.empty_like(raw)
        units[:n] = oracles.unit_rows(vectors)
        labels = list(labels)
        registered = unmatched = 0
        for i, (q, event, lam) in enumerate(zip(ctx.queries, p.events, p.lambdas)):
            best, identity = oracles.best_match(units[:n], labels, q.vector, tol=TOL)
            checks.expect(
                _close(event.best_similarity, best),
                f"query {i}: best similarity {event.best_similarity!r}, brute force {best!r}",
            )
            checks.expect(
                event.matched == (event.best_similarity >= lam),
                f"query {i}: matched={event.matched} at similarity {event.best_similarity} "
                f"and threshold {lam}",
            )
            if event.matched:
                checks.expect(
                    event.identity == identity and event.action == "matched",
                    f"query {i}: matched {event.identity!r}, brute force {identity!r}",
                )
            else:
                unmatched += 1
                registered += event.action == "registered"
                raw[n] = q.vector
                units[n] = oracles.unit_rows(raw[n : n + 1])[0]
                labels.append(f"novel-{unmatched:04d}")
                n += 1
            if i in p.readapts:
                auto, cross = oracles.BlockMax(raw[:n], labels).samples()
                checks.expect(
                    adapted_exactly(p.readapts[i], auto, cross, checks),
                    f"re-adaptation after query {i}: f1 {p.readapts[i].f1_current!r} is below "
                    "tau and not the exact optimum",
                )
        checks.expect(
            registered == unmatched,
            f"{registered} registrations for {unmatched} unmatched queries",
        )


def note(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


WORKLOADS = {
    "readapt-hard": ReadaptHard(),
    "grow-protocol": GrowProtocol(),
    "stream-online": StreamOnline(),
}
