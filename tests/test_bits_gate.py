"""The bits gate: every output of the paper's pipeline digested bit for bit
and compared with ``bits_golden.json``.

Five keys digest the benchmark's workloads on their own inputs, imported
from ``perfbench/workloads.py``; the files they write go to a temporary
directory, never into ``perfbench/``:

- ``readapt-hard``: the auto and cross sample bytes of its gallery and the
  ``adapt`` state under the benchmark's config, ``tau`` 1.0 and the paper's
  TPR denominator with ``epsilon`` 0.5;
- ``grow-protocol``: the rows and summary files that ``simulate`` writes on
  its inputs, seeds 1-3;
- ``stream-online``: one pass's events, the threshold in force at each query
  and the re-adaptations, seeds 1-3;
- ``metrics-layer``: on the ``readapt-hard`` gallery, the stdout of
  ``adathresh adapt``, the bytes of the ``adathresh roc --points 1001`` file,
  and ``metrics_at``'s six rates, read by name, at 101 thresholds in
  [-0.05, 1.05] under both TPR denominators;
- ``persistence-workloads``: ``Gallery.load`` of the CSV each workload saves
  (``readapt-hard``'s gallery, and ``grow-protocol``'s and
  ``stream-online``'s at seeds 1-3): every row's label, instance id, raw and
  unit-row bits in registration order, and the counters.

The other keys cover, at small fixed specs, what the workloads do not
reach: galleries wider than one band, one stream call that registers many
novel labels, the confusion counts, the f1 sweep on tie-heavy sides, and a
save/load round trip of a label that needs quoting.

A change that moves any output in its last bit fails here. When the move is
meant (a re-baseline), rewrite the golden file and name the outputs that
moved and by how much:

    PYTHONPATH=src python tests/test_bits_gate.py

The bits may depend on the numpy build and its BLAS, so the golden file
records both, and a mismatch prints them beside this machine's.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from adathresh import (
    AdaptConfig,
    Gallery,
    SimilarityDistributions,
    SynthSpec,
    adapt,
    build_distributions,
    generate_synthetic,
    metrics_at,
    optimize_f1,
    simulate_stream,
)
from adathresh.cli import main as cli
from conftest import gallery_contents

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "bits_golden.json"
SPEC = SynthSpec(40, 4, 32, 0.18, 1.0, rng_seed=7)
SEEDS = (1, 2, 3)


def _text(value) -> str:
    """A canonical text of ``value`` that names each float by its bits."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, float):
        return float(value).hex()
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + _text(dataclasses.astuple(value))
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(map(_text, value)) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_text(k)}:{_text(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else _text(part).encode())
    return h.hexdigest()


def readapt_hard(out: Path) -> str:
    ctx = workloads.ReadaptHard().setup(out, 0, workloads.Tracer())
    dist = build_distributions(ctx.gallery)
    configs = (
        workloads.CONFIG,
        AdaptConfig(tau=1.0),
        AdaptConfig(tpr_denominator="paper", epsilon=0.5),
    )
    states = [adapt(ctx.gallery, None, config) for config in configs]
    return _sha(dist.auto_samples.tobytes(), dist.cross_samples.tobytes(), *states)


def grow_protocol(out: Path) -> str:
    parts, grow = [], workloads.GrowProtocol()
    for seed in SEEDS:
        code, rows, summary = grow.round(grow.setup(out, seed, workloads.Tracer())).outputs[0]
        parts.append(f"{seed}:{code}\n{rows}\n{summary}\n".encode())
    return _sha(*parts)


def stream_online(out: Path) -> str:
    parts, stream = [], workloads.StreamOnline()
    for seed in SEEDS:
        p = stream.round(stream.setup(out, seed, workloads.Tracer())).outputs[0]
        parts.append(f"{seed}:{_text((p.events, p.lambdas, p.readapts))}\n".encode())
    return _sha(*parts)


def metrics_layer(out: Path) -> str:
    gallery, roc = out / "metrics-layer.csv", out / "metrics-layer-roc.csv"
    generate_synthetic(workloads.READAPT_SPEC, gallery)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli(["adapt", "--gallery", str(gallery)])
    # roc's stdout names only the temporary output path
    with contextlib.redirect_stdout(io.StringIO()):
        code += cli(["roc", "--embeddings", str(gallery), "--points", "1001", "--out", str(roc)])
    parts = [f"{code}\n{stdout.getvalue()}".encode(), roc.read_bytes()]
    dist = build_distributions(Gallery.load(gallery))
    for denominator in ("standard", "paper"):
        for lam in np.linspace(-0.05, 1.05, 101).tolist():
            m = metrics_at(dist, lam, tpr_denominator=denominator)
            rates = (m.precision, m.recall, m.f1, m.accuracy, m.tpr, m.fpr)
            parts.append(f"{denominator}:{lam.hex()}:{_text(rates)}\n".encode())
    return _sha(*parts)


def persistence_workloads(out: Path) -> str:
    sources = [("readapt-hard", generate_synthetic(workloads.READAPT_SPEC))]
    for seed in SEEDS:
        sources.append((f"grow-protocol-{seed}", generate_synthetic(workloads.grow_spec(seed))))
        sources.append((f"stream-online-{seed}", workloads.stream_inputs(seed)[0]))
    parts = []
    for name, source in sources:
        path = out / f"{name}.csv"
        source.save(path)
        g = Gallery.load(path)
        _, unit, labels = g.unit_rows()
        of = {label: iter(g.embeddings_of(label)) for label in g.identities}
        parts.append(f"{name}:{g.change_counter}:{g.registrations_since_adapt}\n".encode())
        for e in (next(of[label]) for label in labels):
            parts.append(f"{e.identity!r}:{e.instance_id!r}:".encode() + e.vector.tobytes())
        parts.append(unit.tobytes())
    return _sha(*parts)


def mixed_gallery() -> Gallery:
    """More rows than one band holds (256), registered out of label order,
    whose one-row identities sort between the larger ones and after them all."""
    rng = np.random.default_rng(9)
    sizes = [*rng.choice([1, 1, 2, 3, 5], 100).tolist(), *[1] * 40]
    labels = [f"m{k:03d}" for k, size in enumerate(sizes) for _ in range(size)]
    order = rng.permutation(len(labels))
    g = Gallery(16)
    g.register_rows([labels[k] for k in order], rng.standard_normal((len(labels), 16)))
    return g


def tall_gallery() -> Gallery:
    """Identities of 300 rows, more than one band holds, between groups of
    identities of 1-5 rows in label order, registered out of label order."""
    rng = np.random.default_rng(10)
    sizes = []
    for _ in range(4):
        sizes += [*rng.integers(1, 6, 12).tolist(), 300]
    sizes += rng.integers(1, 6, 12).tolist()
    labels = [f"t{k:03d}" for k, size in enumerate(sizes) for _ in range(size)]
    order = rng.permutation(len(labels))
    g = Gallery(16)
    g.register_rows([labels[k] for k in order], rng.standard_normal((len(labels), 16)))
    return g


def sweeps() -> list[tuple[float, float]]:
    """The f1 sweep alone: tie-heavy sides that share values, some at and
    beyond 0 and 1; a tie between two plateaus; a separable pair; and auto
    wholly below 0, where f1 is 0 everywhere."""
    rng = np.random.default_rng(11)
    values = [-0.25, 0.0, 0.2, 0.3, 0.45, 0.5, 0.7, 1.0, 1.25]
    cases = [(rng.choice(values[k:], 30), rng.choice(values[: k + 3], 90)) for k in range(1, 6)]
    cases += [
        (np.round(rng.normal(0.6, 0.3, 300), 2), np.round(rng.normal(0.3, 0.3, 3000), 2)),
        ([0.4, 1.0], [0.2, 0.4, 0.4]),
        ([0.9, 0.95], [0.1, 0.3]),
        ([-0.4, -0.1], [0.2, 0.5]),
    ]
    return [optimize_f1(SimilarityDistributions(auto, cross)) for auto, cross in cases]


def digests(tmp: Path) -> dict[str, str]:
    g = generate_synthetic(SPEC)
    dist = build_distributions(g)
    mixed = build_distributions(mixed_gallery())
    tall = build_distributions(tall_gallery())

    # the stream: three of each identity's rows enrolled for the first 30
    # identities, and every identity's last row queried, auto-registering
    enrolled, queries = Gallery(SPEC.dimension), []
    for k, label in enumerate(g.identities):
        *first, last = g.embeddings_of(label)
        if k < 30:
            enrolled.register_rows([label] * len(first), [e.vector for e in first])
        queries.append(last)
    threshold = adapt(g, None, AdaptConfig()).lambda_current
    events = simulate_stream(enrolled, queries, threshold, auto_register=True)

    rates = [
        metrics_at(dist, lam, tpr_denominator=denominator)
        for denominator in ("standard", "paper")
        for lam in np.linspace(-0.05, 1.05, 23).tolist()
    ]

    # the round trip: a label that needs quoting first, then two copies of
    # the gallery's rows, more than one load chunk
    kept = Gallery(SPEC.dimension)
    kept.register('a, "quoted"\nlabel', [1e-300, *[0.5] * (SPEC.dimension - 1)])
    for copy in range(2):
        for label in g.identities:
            for e in g.embeddings_of(label):
                kept.register(f"{label}/{copy}", e.vector)
    kept.remove(kept.embeddings_of(g.identities[0] + "/0")[1].instance_id)
    kept.mark_adapted()
    kept.register("late", g.embeddings_of(g.identities[1])[0].vector)
    kept.save(tmp / "g.csv")
    back = Gallery.load(tmp / "g.csv")
    return {
        "readapt-hard": readapt_hard(tmp),
        "grow-protocol": grow_protocol(tmp),
        "stream-online": stream_online(tmp),
        "metrics-layer": metrics_layer(tmp),
        "persistence-workloads": persistence_workloads(tmp),
        "samples-mixed": _sha(mixed.auto_samples.tobytes(), mixed.cross_samples.tobytes()),
        "samples-tall": _sha(tall.auto_samples.tobytes(), tall.cross_samples.tobytes()),
        "stream": _sha(events, gallery_contents(enrolled)),
        "metrics_at": _sha(rates),
        "optimize_f1": _sha(sweeps()),
        "persistence": _sha(gallery_contents(back)),
    }


def machine() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "machine": platform.machine(),
    }


def test_every_output_keeps_its_bits():
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        got = digests(Path(tmp))
    moved = sorted(name for name in golden["digests"] if got.get(name) != golden["digests"][name])
    assert not moved and got.keys() == golden["digests"].keys(), (
        f"outputs that moved: {moved}\n"
        f"golden file made with: {golden['machine']}\n"
        f"this machine:          {machine()}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        new = {"machine": machine(), "digests": digests(Path(tmp))}
    old = json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
    for name, digest in new["digests"].items():
        print(f"{name}\t{digest}\t{'same' if old.get(name) == digest else 'MOVED'}", file=sys.stderr)
