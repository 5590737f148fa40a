"""The bits gate: every output of the paper's pipeline, at small fixed
specs, digested bit for bit and compared with ``bits_golden.json``.

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

GOLDEN = Path(__file__).resolve().parent / "bits_golden.json"
SPEC = SynthSpec(40, 4, 32, 0.18, 1.0, rng_seed=7)
GROW_SPEC = SynthSpec(24, 4, 16, 0.18, 1.0, rng_seed=8)


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
    return repr(value)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else _text(part).encode())
    return h.hexdigest()


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli(argv)


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
    states = [adapt(g, None, AdaptConfig()), adapt(g, None, AdaptConfig(tau=1.0, tpr_denominator="paper"))]

    grow = tmp / "grow.csv"
    generate_synthetic(GROW_SPEC, grow)
    code = _quiet_cli(
        ["simulate", "--embeddings", str(grow), "--out", str(tmp / "rows.csv"),
         "--summary", str(tmp / "summary.json")]
    )  # fmt: skip

    # the stream: three of each identity's rows enrolled for the first 30
    # identities, and every identity's last row queried, auto-registering
    enrolled, queries = Gallery(SPEC.dimension), []
    for k, label in enumerate(g.identities):
        *first, last = g.embeddings_of(label)
        if k < 30:
            enrolled.register_rows([label] * len(first), [e.vector for e in first])
        queries.append(last)
    events = simulate_stream(enrolled, queries, states[0].lambda_current, auto_register=True)

    roc = tmp / "roc.csv"
    code += _quiet_cli(["roc", "--embeddings", str(grow), "--points", "101", "--out", str(roc)])
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
        "samples": _sha(dist.auto_samples.tobytes(), dist.cross_samples.tobytes()),
        "samples-mixed": _sha(mixed.auto_samples.tobytes(), mixed.cross_samples.tobytes()),
        "samples-tall": _sha(tall.auto_samples.tobytes(), tall.cross_samples.tobytes()),
        "adapt": _sha(states),
        "simulate": _sha(code, (tmp / "rows.csv").read_bytes(), (tmp / "summary.json").read_bytes()),
        "stream": _sha(events, gallery_contents(enrolled)),
        "roc": _sha(roc.read_bytes()),
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
