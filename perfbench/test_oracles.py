"""Each benchmark oracle against a plain Python loop on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math
import random

import numpy as np
import pytest

import oracles


def _cos(x, y) -> float:
    dot = sum(a * b for a, b in zip(x, y))
    return dot / (math.sqrt(sum(a * a for a in x)) * math.sqrt(sum(b * b for b in y)))


def _tiny_gallery(seed: int):
    rng = random.Random(seed)
    labels, vectors = [], []
    for k in range(rng.randint(2, 6)):
        label = f"p{rng.randint(0, 99):02d}-{k}"  # registration order != label order
        for _ in range(rng.randint(1, 4)):
            labels.append(label)
            vectors.append([rng.gauss(0.0, 1.0) for _ in range(5)])
    # interleave identities, as a gallery file need not group them
    order = list(range(len(labels)))
    rng.shuffle(order)
    return [labels[i] for i in order], [vectors[i] for i in order]


@pytest.mark.parametrize("seed", range(20))
def test_block_max_samples_match_pair_loops(seed):
    labels, vectors = _tiny_gallery(seed)
    by_label = {}
    for label, v in zip(labels, vectors):
        by_label.setdefault(label, []).append(v)

    def pair_loops(names):
        auto = [
            max(_cos(a, b) for i, a in enumerate(vs) for j, b in enumerate(vs) if i != j)
            for vs in (by_label[n] for n in names)
            if len(vs) >= 2
        ]
        cross = [
            max(_cos(a, b) for a in by_label[x] for b in by_label[y])
            for i, x in enumerate(names)
            for y in names[i + 1 :]
        ]
        return sorted(auto), sorted(cross)

    auto, cross = pair_loops(sorted(by_label))
    got_auto, got_cross = oracles.BlockMax(vectors, labels).samples()
    assert got_auto == pytest.approx(auto, abs=1e-12)
    assert got_cross == pytest.approx(cross, abs=1e-12)
    # the gallery of only some identities, as at an early protocol step
    some = list(by_label)[:2]
    got_auto, got_cross = oracles.BlockMax(vectors, labels).samples(some)
    auto, cross = pair_loops(some)
    assert got_auto == pytest.approx(auto, abs=1e-12)
    assert got_cross == pytest.approx(cross, abs=1e-12)


def _f1_loop(auto, cross, t):
    tp = sum(1 for a in auto if a >= t)
    fp = sum(1 for c in cross if c >= t)
    fn = len(auto) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


@pytest.mark.parametrize("seed", range(20))
def test_exact_f1_optimum_matches_dense_threshold_loop(seed):
    rng = random.Random(seed)
    # values on a coarse grid so that ties and equal auto/cross values occur
    auto = sorted(round(rng.uniform(-0.2, 1.2), 1) for _ in range(rng.randint(1, 8)))
    cross = sorted(round(rng.uniform(-0.2, 1.2), 1) for _ in range(rng.randint(1, 8)))
    # every plateau inside [0, 1] holds one of these thresholds
    grid = [k / 200 for k in range(201)]
    best = max(_f1_loop(auto, cross, t) for t in grid)
    got = oracles.exact_f1_optimum(np.array(auto), np.array(cross))
    assert got == pytest.approx(best, abs=1e-12)
    for t in grid[::7]:
        assert oracles.f1_at(np.array(auto), np.array(cross), t) == pytest.approx(
            _f1_loop(auto, cross, t), abs=1e-12
        )


@pytest.mark.parametrize("seed", range(20))
def test_mann_whitney_auc_matches_pair_loop(seed):
    rng = random.Random(seed)
    auto = [round(rng.uniform(0, 1), 1) for _ in range(rng.randint(1, 9))]
    cross = [round(rng.uniform(0, 1), 1) for _ in range(rng.randint(1, 9))]
    wins = sum(1.0 if a > c else 0.5 if a == c else 0.0 for a in auto for c in cross)
    assert oracles.mann_whitney_auc(auto, cross) == pytest.approx(
        wins / (len(auto) * len(cross)), abs=1e-12
    )


@pytest.mark.parametrize("seed", range(20))
def test_best_match_matches_row_loop_with_lexicographic_ties(seed):
    labels, vectors = _tiny_gallery(seed)
    rng = random.Random(seed)
    # an exact duplicate under a smaller label must win the tie
    labels.append("a-dup")
    vectors.append(list(vectors[rng.randrange(len(vectors) - 1)]))
    query = vectors[-1] if seed % 2 else [rng.gauss(0.0, 1.0) for _ in range(5)]
    best_sim, best_label = -math.inf, None
    for label, v in sorted(zip(labels, vectors)):
        s = _cos(query, v)
        if s > best_sim + 1e-12:
            best_sim, best_label = s, label
    sim, label = oracles.best_match(
        oracles.unit_rows(vectors), labels, query, tol=1e-12
    )
    assert sim == pytest.approx(best_sim, abs=1e-12)
    assert label == best_label
