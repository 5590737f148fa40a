"""The benchmark's replays (``perfbench/workloads.py``) against the program.

The benchmark's traced runs rebuild ``run_incremental``, ``adapt`` and the
``maybe_adapt`` trigger from the layers' public functions. If the program
changes under them, these checks fail here rather than only in a benchmark
run.
"""

import sys
from pathlib import Path

import numpy as np

from adathresh import SynthSpec, adapt, generate_synthetic, maybe_adapt, run_incremental

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


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
