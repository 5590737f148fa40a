"""Incremental-growth experiment protocol, synthetic data, and result export."""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InputContractError, real_number, whole_number
from .gallery import FLOAT_FORMAT, Embedding, Gallery
from .metrics import rates_at, roc_auc, roc_sweep
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
        for name in ("num_identities", "embeddings_per_identity", "dimension", "rng_seed"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        if self.num_identities < 1 or self.embeddings_per_identity < 1:
            raise InputContractError("identity and embedding counts must be positive")
        if self.dimension < 2:
            raise InputContractError("dimension must be >= 2")
        if self.rng_seed < 0:
            raise InputContractError("rng_seed must be >= 0")
        for name in ("within_spread", "between_spread"):
            value = real_number(getattr(self, name), name)
            object.__setattr__(self, name, value)
            if not 0.0 < value < math.inf:
                raise InputContractError(f"{name} must be finite and > 0")


@dataclass(frozen=True, slots=True)
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
    samples, and nothing is logged; a warning means adaptation failed on
    samples that were estimable.

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

    fixed = [real_number(value, "fixed threshold") for value in fixed_list]
    kinds = ["adaptive", *(f"fixed@{value!r}" for value in fixed)]
    gallery = Gallery(source.dimension)
    state = None
    rows: list[ExperimentRow] = []
    for idx, label in enumerate(labels):
        embs = source.embeddings_of(label)
        gallery.register_rows([label] * len(embs), [e.vector for e in embs])
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
        # too few samples is the fallback above, not a failure to warn about
        if means_ordered and dist.estimable:
            state = _adapt_built(gallery, dist, state, config)
        if means_ordered and state is not None:
            adaptive_lambda = state.lambda_current
        else:
            adaptive_lambda, _ = optimize_f1(dist, config)
        # one rates_at call for every kind; it works element by element, so each
        # kind scores exactly as it would alone
        thresholds = np.array([adaptive_lambda, *fixed], dtype=np.float64)
        r = rates_at(dist, thresholds, config.epsilon, config.tpr_denominator)
        auc = roc_auc(dist) if per_step_roc or step == len(labels) else None
        columns = (thresholds, r.precision, r.recall, r.f1, r.accuracy, r.tpr, r.fpr)
        rows.extend(
            ExperimentRow(step, kind, *values, auc=auc)
            for kind, *values in zip(kinds, *(c.tolist() for c in columns))
        )
    return rows


def generate_synthetic(spec: SynthSpec, path=None) -> Gallery:
    """Clustered unit-sphere embeddings: one random center direction per
    identity, Gaussian jitter within it, everything re-normalized.

    Deterministic for a given seed; written to ``path`` when given (as
    :meth:`Gallery.save` writes it). Spreads under which a draw's squared
    norm overflows or underflows to 0 raise :class:`InputContractError`.
    """
    rng = np.random.default_rng(spec.rng_seed)
    gallery = Gallery(spec.dimension)
    k = spec.embeddings_per_identity
    for i in range(spec.num_identities):
        center = rng.standard_normal(spec.dimension)
        center = center / np.linalg.norm(center) * spec.between_spread
        with np.errstate(over="ignore"):
            # the k draws of one (k, d) call are the k draws of k (d,) calls
            v = center + spec.within_spread * rng.standard_normal((k, spec.dimension))
            # np.linalg.norm of one row is the BLAS dot that vecdot takes per row
            sq = np.vecdot(v, v)
        if not np.all((sq > 0.0) & (sq < math.inf)):
            raise InputContractError(
                f"within_spread {spec.within_spread!r} and between_spread {spec.between_spread!r}"
                " give an embedding whose squared norm overflows or is 0"
            )
        v = v / np.sqrt(sq)[:, None]
        gallery.register_rows([f"id{i:04d}"] * k, v)
    if path is not None:
        gallery.save(path)
    return gallery


def summarize(rows: list[ExperimentRow], f1_target: float = 0.8) -> SummaryReport:
    """Aggregate rows per threshold kind: mean accuracy (%), final-step AUC,
    and the share of steps reaching the f1 target (%); ``f1_target`` is
    checked by :func:`real_number`."""
    f1_target = real_number(f1_target, "f1_target")
    if not rows:
        raise InputContractError("no rows to summarize")
    by_kind: dict[str, list[ExperimentRow]] = {}  # in first-seen order
    for row in rows:
        by_kind.setdefault(row.threshold_kind, []).append(row)

    mean_acc = {
        kind: sum(r.accuracy for r in krows) / len(krows)
        for kind, krows in by_kind.items()
    }
    adaptive_acc = mean_acc.get("adaptive")

    kinds = []
    for kind, krows in by_kind.items():
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


def _values(record) -> list:
    return [getattr(record, f.name) for f in fields(record)]


def export(data, path) -> None:
    """Write experiment rows or a summary report to CSV or JSON.

    The path extension picks the format: .json means JSON, anything else CSV.
    Values are written in field order (rows under ``ROW_COLUMNS``, a report's
    CSV under ``KindSummary``'s field names); floats carry 17 significant
    digits so parsing them back is lossless.
    """
    path = Path(path)
    if isinstance(data, SummaryReport):
        header = [f.name for f in fields(KindSummary)]
        records = [_values(k) for k in data.kinds]
        payload = asdict(data)
    else:
        header = ROW_COLUMNS
        records = [_values(r) for r in data]
        payload = [dict(zip(header, values)) for values in records]
    if path.suffix.lower() == ".json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in values] for values in records)


def roc_export(dist, path, num_points: int = 1001, epsilon: float = 1e-9) -> None:
    """CSV of (lambda, fpr, tpr) sweep triples with the AUC in a trailing
    comment row."""
    roc = roc_sweep(dist, num_points, epsilon)
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    gallery untouched so evaluation ground truth stays fixed. ``threshold``
    is checked by :func:`real_number` before any query is read.
    """
    threshold = real_number(threshold, "threshold")
    if isinstance(queries, (str, Path)):
        queries = _query_stream(queries)
    events = []
    novel_count = 0
    for q in queries:
        result = gallery.match_query(q.vector, threshold)
        if result.matched:
            action = "matched"
            if append_matched:
                gallery.register(result.identity, q.vector)
                action = "appended"
        elif auto_register:
            novel_count += 1
            label = f"novel-{novel_count:04d}"
            while label in gallery:
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
