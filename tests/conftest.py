"""Shared fixtures and naive oracles (pure-Python, independent of the library
code paths they check)."""

import bisect
import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from adathresh import ExperimentRow, Gallery


def naive_cosine(x, y) -> float:
    dot = sum(float(a) * float(b) for a, b in zip(x, y))
    nx = math.sqrt(sum(float(a) ** 2 for a in x))
    ny = math.sqrt(sum(float(b) ** 2 for b in y))
    return dot / (nx * ny)


def naive_distributions(gallery):
    """Brute-force auto/cross best similarities by exhaustive pair loops."""
    _, identities = gallery.snapshot()
    labels = sorted(identities)
    auto = []
    for label in labels:
        embs = identities[label]
        if len(embs) >= 2:
            auto.append(
                max(
                    naive_cosine(a.vector, b.vector)
                    for i, a in enumerate(embs)
                    for b in embs[i + 1 :]
                )
            )
    cross = []
    for i, li in enumerate(labels):
        for lj in labels[i + 1 :]:
            cross.append(
                max(
                    naive_cosine(a.vector, b.vector)
                    for a in identities[li]
                    for b in identities[lj]
                )
            )
    return auto, cross


def naive_confusion(auto, cross, threshold):
    tp = sum(1 for s in auto if s >= threshold)
    fp = sum(1 for s in cross if s >= threshold)
    return tp, fp, len(auto) - tp, len(cross) - fp


def naive_f1(auto, cross, threshold) -> float:
    tp, fp, fn, _ = naive_confusion(auto, cross, threshold)
    return f1_from_counts(tp, fp, fn)


def f1_from_counts(tp, fp, fn) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def plateau_candidates(auto, cross):
    """One threshold per plateau of [0, 1]: both bounds plus every sample
    value between them."""
    values = sorted(set(float(s) for s in auto) | set(float(s) for s in cross))
    return [0.0] + [v for v in values if 0.0 < v < 1.0] + [1.0]


def plateau_optimum(auto, cross, score) -> tuple[float, float]:
    """(threshold, score) an exact sweep must return, by enumeration: the
    best score over the plateau candidates, reported at the midpoint of the
    lowest plateau that reaches it, or at that plateau's candidate when the
    midpoint rounds out of the plateau. ``score`` maps a list of thresholds
    to a list of scores."""
    candidates = plateau_candidates(auto, cross)
    scores = score(candidates)
    best = max(scores)
    x = candidates[scores.index(best)]
    values = sorted(set(float(s) for s in auto) | set(float(s) for s in cross))
    # the plateau (left, right] holding x, clipped to [0, 1]
    k = bisect.bisect_left(values, x)
    left = values[k - 1] if k > 0 else -math.inf
    right = values[k] if k < len(values) else math.inf
    mid = 0.5 * (max(left, 0.0) + min(right, 1.0))
    return (mid, best) if score([mid])[0] >= best else (x, best)


def f1_by_counts(auto, cross):
    """A ``plateau_optimum`` scorer for f1 at any sample count: the counts at
    or above each threshold come from a binary search of each sorted side."""
    auto, cross = np.sort(auto), np.sort(cross)

    def score(thresholds):
        tp = auto.size - np.searchsorted(auto, thresholds, side="left")
        fp = cross.size - np.searchsorted(cross, thresholds, side="left")
        return [f1_from_counts(t, f, auto.size - t) for t, f in zip(tp.tolist(), fp.tolist())]

    return score


def plateau_oracle_max(auto, cross) -> float:
    """Exhaustive maximum f1 over every plateau in [0, 1]."""
    return max(naive_f1(auto, cross, t) for t in plateau_candidates(auto, cross))


def mann_whitney_auc(auto, cross) -> float:
    """Pairwise-comparison AUC: P(auto > cross) + 0.5 P(auto == cross)."""
    auto = np.asarray(auto, dtype=np.float64)
    cross = np.asarray(cross, dtype=np.float64)
    greater = (auto[:, None] > cross[None, :]).sum()
    equal = (auto[:, None] == cross[None, :]).sum()
    return float((greater + 0.5 * equal) / (auto.size * cross.size))


def large_sweep_samples() -> tuple[np.ndarray, np.ndarray]:
    """(auto, cross): 400 and 120,000 samples inside (0, 1), over 100,000
    distinct values, on a seed where a 512-point grid with golden-section
    refinement misses the f1 optimum (0.56373 against 0.56530)."""
    rng = np.random.default_rng(4)
    return rng.uniform(0.4, 1.0, size=400), rng.uniform(0.0, 0.8, size=120_000)


def clustered_gallery(
    num_identities=4, per_identity=3, dim=16, within=0.2, seed=0
) -> Gallery:
    """Gallery of unit vectors jittered around one random center per identity."""
    rng = np.random.default_rng(seed)
    gallery = Gallery(dim)
    for i in range(num_identities):
        center = rng.standard_normal(dim)
        center /= np.linalg.norm(center)
        for _ in range(per_identity):
            v = center + within * rng.standard_normal(dim)
            gallery.register(f"id{i:02d}", v / np.linalg.norm(v))
    return gallery


@pytest.fixture
def make_gallery():
    return clustered_gallery


def reference_synthetic(spec) -> Gallery:
    """``generate_synthetic`` one embedding at a time: one draw, one
    ``np.linalg.norm`` and one ``register`` per embedding."""
    rng = np.random.default_rng(spec.rng_seed)
    gallery = Gallery(spec.dimension)
    for i in range(spec.num_identities):
        center = rng.standard_normal(spec.dimension)
        center = center / np.linalg.norm(center) * spec.between_spread
        for _ in range(spec.embeddings_per_identity):
            v = center + spec.within_spread * rng.standard_normal(spec.dimension)
            gallery.register(f"id{i:04d}", v / np.linalg.norm(v))
    return gallery


def gallery_contents(gallery) -> tuple:
    """Everything two galleries must share to be the same: each embedding's
    label, id and raw bits by identity, the labels and bits of the unit rows
    in registration order, and both counters."""
    _, unit, labels = gallery.unit_rows()
    return (
        [
            (e.identity, e.instance_id, e.vector.tobytes())
            for label in gallery.identities
            for e in gallery.embeddings_of(label)
        ],
        labels,
        unit.tobytes(),
        gallery.change_counter,
        gallery.registrations_since_adapt,
    )


def read_exported_rows(path) -> list[ExperimentRow]:
    """Rows parsed back from a file ``export`` wrote, with the standard
    library alone: ``csv.DictReader`` or ``json``, then ``int`` for the step
    and ``float`` for every rate; an empty cell or a null is a missing AUC."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        records = json.load(fh) if path.suffix == ".json" else list(csv.DictReader(fh))
    rates = ("lambda", "precision", "recall", "f1", "accuracy", "tpr", "fpr")
    return [
        ExperimentRow(
            int(rec["step"]),
            rec["threshold_kind"],
            *(float(rec[col]) for col in rates),
            auc=None if rec["auc"] in ("", None) else float(rec["auc"]),
        )
        for rec in records
    ]


# bytes a mutation inserts or writes over the file: quotes, separators,
# line ends, comments, brackets, deep nesting, and huge or odd numbers
MUTANT_BYTES = st.one_of(
    st.binary(min_size=1, max_size=8),
    st.sampled_from(
        [b'"', b",", b"\n", b"\r\n", b"#", b"# change_counter=", b"{", b"[", b"]", b"\\"]
        + [b"[" * 5000, b'{"a":' * 5000, b"1e400", b"-1e400", b"1e-400", b"9" * 5000]
        + [b"1" + b"0" * 400, b"1_0", b"0x10", b"nan", b"-inf", b"4.9e-324"]
    ),
)
MUTATIONS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 2**20), st.integers(1, 64)),
    st.tuples(st.just("insert"), st.integers(0, 2**20), MUTANT_BYTES),
    st.tuples(st.just("replace"), st.integers(0, 2**20), st.integers(1, 16), MUTANT_BYTES),
    st.tuples(st.just("duplicate line"), st.integers(0, 2**20), st.integers(1, 3)),
    st.tuples(st.just("number"), st.integers(0, 2**20), MUTANT_BYTES),
)


def mutated(data: bytes, mutations) -> bytes:
    """``data`` with each of ``mutations`` (drawn from ``MUTATIONS``) applied in turn."""
    data = bytearray(data)
    for op, position, *args in mutations:
        i = position % (len(data) + 1)
        if op == "cut":
            del data[i : i + args[0]]
        elif op == "insert":
            data[i:i] = args[0]
        elif op == "replace":
            data[i : i + args[0]] = args[1]
        elif op == "duplicate line":
            lines = bytes(data).splitlines(keepends=True)
            if lines:
                k = position % len(lines)
                lines[k:k] = lines[k : k + 1] * args[0]
                data = bytearray(b"".join(lines))
        else:  # a number of the file written over
            numbers = list(re.finditer(rb"-?[0-9][0-9.e+-]*", bytes(data)))
            if numbers:
                found = numbers[position % len(numbers)]
                data[found.start() : found.end()] = args[0]
    return bytes(data)
