"""The benchmark's replays (``perfbench/workloads.py``) and checks against
the program.

The benchmark's traced runs rebuild ``run_incremental``, ``adapt`` and the
``maybe_adapt`` trigger from the layers' public functions, and its runs check
the similarity samples against ``perfbench/oracles.py``. If the program
changes under them, these checks fail here rather than only in a benchmark
run.
"""

import sys
from pathlib import Path

import numpy as np

from adathresh import (
    Gallery,
    SynthSpec,
    adapt,
    build_distributions,
    generate_synthetic,
    maybe_adapt,
    run_incremental,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from conftest import gallery_contents, reference_synthetic  # noqa: E402


def source():
    return generate_synthetic(SynthSpec(12, 3, 16, 0.3, 1.0, rng_seed=4))


def test_walk_protocol_equals_run_incremental():
    g = source()
    expected = run_incremental(g, workloads.CONFIG, list(workloads.FIXED))
    assert workloads.walk_protocol(g, Tracer()) == expected


def test_replay_adapt_equals_adapt():
    g = source()
    replayed, _ = workloads.replay_adapt(workloads.clone(g), None, workloads.CONFIG, Tracer())
    assert replayed is not None
    assert replayed == adapt(workloads.clone(g), None, workloads.CONFIG)


def test_should_adapt_is_the_trigger_of_maybe_adapt():
    config = workloads.STREAM_CONFIG
    gallery = workloads.clone(source())
    state = adapt(gallery, None, config)
    rng = np.random.default_rng(9)
    adapted = 0
    for i in range(25):
        gallery.register(f"late{i % 4}", rng.standard_normal(gallery.dimension))
        expected = workloads._should_adapt(gallery, state, config)
        new = maybe_adapt(gallery, state, config)
        assert (new is not state) == expected
        adapted += expected
        state = new
    assert adapted >= 1  # the trigger fired at least once within the run


def test_build_matches_the_block_max_oracle_across_bands():
    # the check readapt-hard runs after its rounds, on a gallery whose
    # identities span several row bands: uneven sizes, one identity larger
    # than a band and rows registered out of label order
    sizes = [3, 300, 1, 17, 120, 2, 90, 64, 5, 200, 1, 33]
    rng = np.random.default_rng(11)
    labels = [f"u{i:02d}" for i, k in enumerate(sizes) for _ in range(k)]
    g = Gallery(16)
    for i in rng.permutation(len(labels)):
        g.register(labels[i], rng.standard_normal(16))
    auto, cross = oracles.BlockMax(*workloads._vectors_and_labels(g)).samples()
    dist = build_distributions(g)
    assert dist.auto_samples.size == auto.size and dist.cross_samples.size == cross.size
    assert np.allclose(np.sort(dist.auto_samples), auto, rtol=0.0, atol=1e-12)
    assert np.allclose(np.sort(dist.cross_samples), cross, rtol=0.0, atol=1e-12)


def test_inputs_are_those_of_the_per_embedding_generator(monkeypatch):
    # the galleries and queries every workload sets up, whatever path
    # generate_synthetic takes to them
    for spec in (workloads.READAPT_SPEC, workloads.grow_spec(1)):
        assert gallery_contents(generate_synthetic(spec)) == gallery_contents(
            reference_synthetic(spec)
        )
    enrolled, queries = workloads.stream_inputs(1)
    monkeypatch.setattr(workloads, "generate_synthetic", reference_synthetic)
    want_enrolled, want_queries = workloads.stream_inputs(1)
    assert gallery_contents(enrolled) == gallery_contents(want_enrolled)
    assert [(q.identity, q.instance_id, q.vector.tobytes()) for q in queries] == [
        (q.identity, q.instance_id, q.vector.tobytes()) for q in want_queries
    ]


def test_traced_stream_replay_equals_simulate_stream():
    # a small stream-online: each held-out query should match its enrolled
    # identity, each novel one be registered, and the registrations trigger
    # a re-adaptation midway
    source = generate_synthetic(SynthSpec(40, 4, 16, 0.1, 1.0, rng_seed=5))
    enrolled = Gallery(source.dimension)
    queries = []
    for k, label in enumerate(source.identities):
        embs = source.embeddings_of(label)
        if k < 12:
            for e in embs[:3]:
                enrolled.register(label, e.vector, instance_id=e.instance_id)
            queries.append(embs[3])
        else:
            queries.append(embs[0])
    np.random.default_rng(5).shuffle(queries)
    gallery = workloads.clone(enrolled)
    ctx = workloads.StreamCtx(
        gallery, adapt(gallery, None, workloads.STREAM_CONFIG), enrolled, queries
    )
    stream = workloads.StreamOnline()
    r = stream.traced_round(ctx, Tracer())
    p, mismatches = r.outputs
    assert mismatches == 0
    assert len(p.events) == 40 and len(p.readapts) >= 1
    assert {e.action for e in p.events} == {"matched", "registered"}
    checks = workloads.Checks()
    stream.check(ctx, [r], checks)
    assert checks.problems == []
