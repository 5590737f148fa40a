"""Print one SHA-256 per benchmark workload's outputs, to show that a change
keeps them bit for bit.

    python3 tools/output_digest.py

Run it from the root of a source checkout: the program is imported from
``src/`` there, and the workloads' inputs and steps from ``perfbench/``,
which it only reads. It prints five lines, each a workload and the digest
of:

- ``readapt-hard``: the auto and cross sample bytes of its gallery and the
  ``adapt`` state under the benchmark's config, ``tau`` 1.0 and the paper's
  TPR denominator with ``epsilon`` 0.5;
- ``grow-protocol``: the rows and summary files that ``simulate`` writes on
  its inputs, seeds 1-3;
- ``stream-online``: one pass's events, the threshold in force at each query
  and the re-adaptations, seeds 1-3.
- ``metrics-layer``: every output of the metrics layer on the
  ``readapt-hard`` gallery: the stdout of ``adathresh adapt``, the bytes of
  the ``adathresh roc --points 1001`` file, and ``metrics_at``'s six rates at
  101 thresholds in [-0.05, 1.05] under both TPR denominators. The rates are
  read by name, so the line compares across a change of their result type.
- ``persistence``: ``Gallery.load`` of the CSV each workload saves
  (``readapt-hard``'s gallery, and ``grow-protocol``'s and
  ``stream-online``'s at seeds 1-3): every row's label, instance id, raw
  and unit-row bits in registration order, and the counters.

Every float enters a digest as its exact bits (``float.hex``). Run it on two
commits and compare the lines; equal lines mean equal outputs.
"""

import os

# the benchmark's BLAS setting, so the digests are of the outputs it checks
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
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


def readapt_hard(out: Path, workloads) -> str:
    from adathresh import AdaptConfig, adapt, build_distributions

    ctx = workloads.ReadaptHard().setup(out, 0, workloads.Tracer())
    dist = build_distributions(ctx.gallery)
    configs = (
        workloads.CONFIG,
        AdaptConfig(tau=1.0),
        AdaptConfig(tpr_denominator="paper", epsilon=0.5),
    )
    h = hashlib.sha256(dist.auto_samples.tobytes() + dist.cross_samples.tobytes())
    for config in configs:
        h.update(_text(adapt(ctx.gallery, None, config)).encode())
    return h.hexdigest()


def grow_protocol(out: Path, workloads) -> str:
    h = hashlib.sha256()
    grow = workloads.GrowProtocol()
    for seed in SEEDS:
        ctx = grow.setup(out, seed, workloads.Tracer())
        code, rows, summary = grow.round(ctx).outputs[0]
        h.update(f"{seed}:{code}\n{rows}\n{summary}\n".encode())
    return h.hexdigest()


def stream_online(out: Path, workloads) -> str:
    h = hashlib.sha256()
    stream = workloads.StreamOnline()
    for seed in SEEDS:
        ctx = stream.setup(out, seed, workloads.Tracer())
        p = stream.round(ctx).outputs[0]
        h.update(f"{seed}:{_text((p.events, p.lambdas, p.readapts))}\n".encode())
    return h.hexdigest()


def metrics_layer(out: Path, workloads) -> str:
    from adathresh import Gallery, build_distributions, generate_synthetic, metrics_at
    from adathresh.cli import main as cli

    gallery, roc = out / "metrics-layer.csv", out / "metrics-layer-roc.csv"
    generate_synthetic(workloads.READAPT_SPEC, gallery)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli(["adapt", "--gallery", str(gallery)])
    # roc's stdout names only the temporary output path
    with contextlib.redirect_stdout(io.StringIO()):
        code += cli(["roc", "--embeddings", str(gallery), "--points", "1001", "--out", str(roc)])
    h = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode() + roc.read_bytes())
    dist = build_distributions(Gallery.load(gallery))
    for denominator in ("standard", "paper"):
        for lam in np.linspace(-0.05, 1.05, 101).tolist():
            m = metrics_at(dist, lam, tpr_denominator=denominator)
            rates = (m.precision, m.recall, m.f1, m.accuracy, m.tpr, m.fpr)
            h.update(f"{denominator}:{lam.hex()}:{_text(rates)}\n".encode())
    return h.hexdigest()


def persistence(out: Path, workloads) -> str:
    from adathresh import Gallery, generate_synthetic

    sources = [("readapt-hard", generate_synthetic(workloads.READAPT_SPEC))]
    for seed in SEEDS:
        sources.append((f"grow-protocol-{seed}", generate_synthetic(workloads.grow_spec(seed))))
        sources.append((f"stream-online-{seed}", workloads.stream_inputs(seed)[0]))
    h = hashlib.sha256()
    for name, source in sources:
        path = out / f"{name}.csv"
        source.save(path)
        g = Gallery.load(path)
        _, unit, labels = g.unit_rows()
        of = {label: iter(g.embeddings_of(label)) for label in g.identities}
        rows = [next(of[label]) for label in labels]
        h.update(f"{name}:{g.change_counter}:{g.registrations_since_adapt}\n".encode())
        for e in rows:
            h.update(f"{e.identity!r}:{e.instance_id!r}:".encode() + e.vector.tobytes())
        h.update(unit.tobytes())
    return h.hexdigest()


def main() -> None:
    # perfbench/ is read, never written: no bytecode cache beside its modules
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in (
            ("readapt-hard", readapt_hard),
            ("grow-protocol", grow_protocol),
            ("stream-online", stream_online),
            ("metrics-layer", metrics_layer),
            ("persistence", persistence),
        ):
            print(f"{name}\t{digest(Path(tmp), workloads)}", flush=True)


if __name__ == "__main__":
    main()
