"""Incremental-growth experiment protocol, synthetic data, and result export."""

from __future__ import annotations

import csv
import json
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InputContractError
from .gallery import FLOAT_FORMAT, Embedding, Gallery
from .metrics import metrics_at, roc_auc, roc_sweep
from .optimizer import AdaptConfig, _adapt_built, optimize_f1
from .similarity import build_distributions

ROW_COLUMNS = (
    "step",
    "threshold_kind",
    "lambda",
    "precision",
    "recall",
    "f1",
    "accuracy",
    "tpr",
    "fpr",
    "auc",
)

EVENT_COLUMNS = ("query_id", "matched", "identity", "best_similarity", "action")


@dataclass(frozen=True)
class ExperimentRow:
    """Metrics for one threshold kind at one gallery size."""

    step: int
    threshold_kind: str
    lambda_: float
    precision: float
    recall: float
    f1: float
    accuracy: float
    tpr: float
    fpr: float
    auc: float | None = None


@dataclass(frozen=True)
class KindSummary:
    threshold_kind: str
    mean_accuracy_pct: float
    auc: float | None
    f1_at_least_target_pct: float
    relative_accuracy_gain_pct: float | None


@dataclass(frozen=True)
class SummaryReport:
    """Per-kind aggregate of an incremental run.

    The AUC is a property of the final-step score distributions and is shared
    by every kind; relative gains compare adaptive mean accuracy against each
    fixed baseline as (adaptive - fixed) / fixed * 100.
    """

    kinds: list[KindSummary]
    f1_target: float


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for clustered unit-sphere embeddings standing in for real data."""

    num_identities: int
    embeddings_per_identity: int
    dimension: int
    within_spread: float
    between_spread: float
    rng_seed: int

    def __post_init__(self):
        if self.num_identities < 1 or self.embeddings_per_identity < 1:
            raise InputContractError("identity and embedding counts must be positive")
        if self.dimension < 2:
            raise InputContractError("dimension must be >= 2")
        if self.within_spread <= 0.0 or self.between_spread <= 0.0:
            raise InputContractError("spreads must be positive")


@dataclass(frozen=True)
class StreamEvent:
    """Outcome of one query replayed against the gallery."""

    query_id: str
    matched: bool
    identity: str | None
    best_similarity: float
    action: str


def _as_gallery(source) -> Gallery:
    if isinstance(source, Gallery):
        return source
    return Gallery.load(source)


def run_incremental(
    embeddings_source,
    config: AdaptConfig | None = None,
    fixed_list=(0.3, 0.5, 0.7),
    identity_order: str = "input",
    seed: int = 0,
    per_step_roc: bool = False,
) -> list[ExperimentRow]:
    """Grow the gallery one identity at a time, adapting and scoring each step.

    The gallery starts with the first two identities; each later step
    registers all embeddings of one more identity, re-runs adaptation, and
    scores the adaptive threshold plus every fixed baseline against the
    current distributions. While the distributions are still too thin for
    Gaussian estimation (the two-identity step has a single cross sample), the
    adaptive threshold falls back to direct f1 maximization over the same
    samples.

    Emits one row per (step, threshold kind); the final step always carries
    the exact ROC AUC, every step does with ``per_step_roc``.
    """
    config = config or AdaptConfig()
    source = _as_gallery(embeddings_source)
    labels = source.identities
    if len(labels) < 2:
        raise InputContractError("need at least 2 identities for an incremental run")
    if identity_order == "shuffle":
        random.Random(seed).shuffle(labels)
    elif identity_order != "input":
        raise InputContractError(f"unknown identity order {identity_order!r}")
    if not any(len(source.embeddings_of(lab)) >= 2 for lab in labels[:2]):
        raise InputContractError(
            "one of the first two identities must hold at least 2 embeddings"
        )

    gallery = Gallery(source.dimension)
    state = None
    rows: list[ExperimentRow] = []
    for idx, label in enumerate(labels):
        for emb in source.embeddings_of(label):
            gallery.register(label, emb.vector)
        step = idx + 1
        if step < 2:
            continue
        dist = build_distributions(gallery)
        # Gaussian initialization needs estimable samples and auto above cross
        # on average; small early galleries can miss either by chance, so the
        # adaptive threshold falls back to the bare optimizer there.
        means_ordered = (
            dist.auto_samples.size > 0
            and float(np.mean(dist.auto_samples)) > float(np.mean(dist.cross_samples))
        )
        if means_ordered:
            state = _adapt_built(gallery, dist, state, config)
        if means_ordered and state is not None:
            adaptive_lambda = state.lambda_current
        else:
            adaptive_lambda, _ = optimize_f1(dist, config)
        kinds = [("adaptive", adaptive_lambda)]
        kinds += [(f"fixed@{value:g}", float(value)) for value in fixed_list]
        step_rows = []
        for kind, threshold in kinds:
            m = metrics_at(dist, threshold, config.epsilon, config.tpr_denominator)
            step_rows.append(
                ExperimentRow(
                    step=step,
                    threshold_kind=kind,
                    lambda_=float(threshold),
                    precision=m.precision,
                    recall=m.recall,
                    f1=m.f1,
                    accuracy=m.accuracy,
                    tpr=m.tpr,
                    fpr=m.fpr,
                )
            )
        if per_step_roc or step == len(labels):
            auc = roc_auc(dist)
            step_rows = [replace(r, auc=auc) for r in step_rows]
        rows.extend(step_rows)
    return rows


def generate_synthetic(spec: SynthSpec, path=None) -> Gallery:
    """Clustered unit-sphere embeddings: one random center direction per
    identity, Gaussian jitter within it, everything re-normalized.

    Deterministic for a given seed; written to ``path`` when given (gallery
    CSV/JSON format by extension).
    """
    rng = np.random.default_rng(spec.rng_seed)
    gallery = Gallery(spec.dimension)
    for i in range(spec.num_identities):
        label = f"id{i:04d}"
        center = rng.standard_normal(spec.dimension)
        center = center / np.linalg.norm(center) * spec.between_spread
        for _ in range(spec.embeddings_per_identity):
            v = center + spec.within_spread * rng.standard_normal(spec.dimension)
            gallery.register(label, v / np.linalg.norm(v))
    if path is not None:
        gallery.save(path)
    return gallery


def summarize(rows: list[ExperimentRow], f1_target: float = 0.8) -> SummaryReport:
    """Aggregate rows per threshold kind: mean accuracy (%), final-step AUC,
    and the share of steps reaching the f1 target (%)."""
    if not rows:
        raise InputContractError("no rows to summarize")
    order: list[str] = []
    by_kind: dict[str, list[ExperimentRow]] = {}
    for row in rows:
        if row.threshold_kind not in by_kind:
            order.append(row.threshold_kind)
            by_kind[row.threshold_kind] = []
        by_kind[row.threshold_kind].append(row)

    mean_acc = {
        kind: sum(r.accuracy for r in krows) / len(krows)
        for kind, krows in by_kind.items()
    }
    adaptive_acc = mean_acc.get("adaptive")

    kinds = []
    for kind in order:
        krows = by_kind[kind]
        final = max(krows, key=lambda r: r.step)
        hits = sum(1 for r in krows if r.f1 >= f1_target)
        if kind == "adaptive" or adaptive_acc is None or mean_acc[kind] == 0.0:
            gain = None
        else:
            gain = (adaptive_acc - mean_acc[kind]) / mean_acc[kind] * 100.0
        kinds.append(
            KindSummary(
                threshold_kind=kind,
                mean_accuracy_pct=mean_acc[kind] * 100.0,
                auc=final.auc,
                f1_at_least_target_pct=hits / len(krows) * 100.0,
                relative_accuracy_gain_pct=gain,
            )
        )
    return SummaryReport(kinds=kinds, f1_target=f1_target)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


def _row_values(row: ExperimentRow) -> list:
    return [
        row.step,
        row.threshold_kind,
        row.lambda_,
        row.precision,
        row.recall,
        row.f1,
        row.accuracy,
        row.tpr,
        row.fpr,
        row.auc,
    ]


def export(data, path) -> None:
    """Write experiment rows or a summary report to CSV or JSON.

    The path extension picks the format: .json means JSON, anything else CSV.
    Row CSVs use the canonical column order; floats carry 17 significant
    digits so parsing them back is lossless.
    """
    path = Path(path)
    fmt = "json" if path.suffix.lower() == ".json" else "csv"

    if isinstance(data, SummaryReport):
        _export_report(data, path, fmt)
        return
    rows = list(data)
    if fmt == "json":
        payload = [dict(zip(ROW_COLUMNS, _row_values(r))) for r in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ROW_COLUMNS)
            for r in rows:
                writer.writerow([_fmt(v) for v in _row_values(r)])


def _export_report(report: SummaryReport, path: Path, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(asdict(report), fh, indent=2)
            fh.write("\n")
    else:
        fields = [
            "threshold_kind",
            "mean_accuracy_pct",
            "auc",
            "f1_at_least_target_pct",
            "relative_accuracy_gain_pct",
        ]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for k in report.kinds:
                writer.writerow([_fmt(getattr(k, f)) for f in fields])


def read_rows(path) -> list[ExperimentRow]:
    """Parse rows written by :func:`export` (CSV or JSON)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        with open(path) as fh:
            records = json.load(fh)
    else:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            records = list(reader)
    rows = []
    for rec in records:
        rows.append(
            ExperimentRow(
                step=int(rec["step"]),
                threshold_kind=rec["threshold_kind"],
                lambda_=float(rec["lambda"]),
                precision=float(rec["precision"]),
                recall=float(rec["recall"]),
                f1=float(rec["f1"]),
                accuracy=float(rec["accuracy"]),
                tpr=float(rec["tpr"]),
                fpr=float(rec["fpr"]),
                auc=float(rec["auc"]) if rec["auc"] not in ("", None) else None,
            )
        )
    return rows


def roc_export(dist, path, num_points: int = 1001, epsilon: float = 1e-9) -> None:
    """CSV of (lambda, fpr, tpr) sweep triples with the AUC in a trailing
    comment row."""
    roc = roc_sweep(dist, num_points, epsilon)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "fpr", "tpr"])
        for fpr, tpr, lam in roc.points:
            writer.writerow([_fmt(lam), _fmt(fpr), _fmt(tpr)])
        fh.write(f"# auc={format(roc.auc, FLOAT_FORMAT)}\n")


def _query_stream(source) -> list[Embedding]:
    gallery = _as_gallery(source)
    return [e for label in gallery.identities for e in gallery.embeddings_of(label)]


def simulate_stream(
    gallery: Gallery,
    queries,
    threshold: float,
    auto_register: bool = False,
    append_matched: bool = False,
) -> list[StreamEvent]:
    """Replay queries against the gallery under the chosen registration policy.

    Unmatched queries are rejected, or stored as brand-new identities
    (``novel-0001``, ``novel-0002``, ... skipping labels already taken) with
    ``auto_register``. Matched queries can additionally be appended to the
    identity they hit with ``append_matched``; by default matching leaves the
    gallery untouched so evaluation ground truth stays fixed.
    """
    if isinstance(queries, (str, Path)):
        queries = _query_stream(queries)
    events = []
    novel_count = 0
    taken = None  # the gallery's labels, gathered when a novel label is first needed
    for q in queries:
        result = gallery.match_query(q.vector, threshold)
        if result.matched:
            action = "matched"
            if append_matched:
                gallery.register(result.identity, q.vector)
                action = "appended"
        elif auto_register:
            if taken is None:
                taken = set(gallery.identities)
            novel_count += 1
            label = f"novel-{novel_count:04d}"
            while label in taken:
                novel_count += 1
                label = f"novel-{novel_count:04d}"
            gallery.register(label, q.vector)
            action = "registered"
        else:
            action = "rejected"
        events.append(
            StreamEvent(
                query_id=q.instance_id,
                matched=result.matched,
                identity=result.identity,
                best_similarity=result.best_similarity,
                action=action,
            )
        )
    return events


def export_stream_events(events: list[StreamEvent], path) -> None:
    """Write stream replay events as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_COLUMNS)
        for e in events:
            writer.writerow(
                [
                    e.query_id,
                    str(e.matched).lower(),
                    e.identity or "",
                    format(e.best_similarity, FLOAT_FORMAT),
                    e.action,
                ]
            )
