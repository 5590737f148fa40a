"""Command-line interface: adapt, simulate, simulate-stream, synth, and roc."""

import argparse
import json
import logging
import sys
from dataclasses import asdict, fields

from .errors import InputContractError
from .experiment import (
    SynthSpec,
    export,
    export_stream_events,
    generate_synthetic,
    roc_export,
    run_incremental,
    simulate_stream,
    summarize,
)
from .gallery import Gallery
from .optimizer import AdaptConfig, adapt
from .similarity import build_distributions

EXIT_OK = 0
EXIT_CONTRACT = 2
EXIT_DEGENERATE = 3

_OBJECTIVES = {"f1": "f1", "tpr-fpr-gap": "tpr_fpr_gap"}
_BOUNDS = {"unbounded": "unbounded_01", "means": "means_bounded"}


def _config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with AdaptConfig field values")
    parser.add_argument("--tau", type=float, help="target f1 (default 0.8)")
    parser.add_argument("--epsilon", type=float, help="division guard (default 1e-9)")
    parser.add_argument("--objective", choices=sorted(_OBJECTIVES))
    parser.add_argument("--bound", choices=sorted(_BOUNDS))
    parser.add_argument("--tpr-denominator", choices=["standard", "paper"])
    parser.add_argument("--recompute-every", type=int)


def _build_config(args) -> AdaptConfig:
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputContractError(f"cannot read config file: {exc}") from exc
        known = {f.name for f in fields(AdaptConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise InputContractError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        values.update(file_values)
    overrides = {
        "tau": getattr(args, "tau", None),
        "epsilon": getattr(args, "epsilon", None),
        "recompute_every_n": getattr(args, "recompute_every", None),
        "tpr_denominator": getattr(args, "tpr_denominator", None),
    }
    if getattr(args, "objective", None) is not None:
        overrides["objective"] = _OBJECTIVES[args.objective]
    if getattr(args, "bound", None) is not None:
        overrides["bound_mode"] = _BOUNDS[args.bound]
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return AdaptConfig(**values)
    except TypeError as exc:
        raise InputContractError(str(exc)) from exc


def _cmd_adapt(args) -> int:
    gallery = Gallery.load(args.gallery)
    config = _build_config(args)
    state = adapt(gallery, None, config)
    if state is None:
        print(
            "adaptation skipped: distributions too degenerate for estimation",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    print(json.dumps(asdict(state), indent=2))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _build_config(args)
    fixed = [float(v) for v in args.fixed.split(",") if v.strip()] if args.fixed else []
    rows = run_incremental(
        args.embeddings,
        config,
        fixed,
        identity_order=args.order,
        seed=args.seed,
        per_step_roc=args.per_step_roc,
    )
    export(rows, args.out)
    if args.summary:
        export(summarize(rows), args.summary)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        num_identities=args.identities,
        embeddings_per_identity=args.per_identity,
        dimension=args.dim,
        within_spread=args.within,
        between_spread=args.between,
        rng_seed=args.seed,
    )
    gallery = generate_synthetic(spec, args.out)
    print(f"wrote {len(gallery)} embeddings ({args.identities} identities) to {args.out}")
    return EXIT_OK


def _cmd_roc(args) -> int:
    gallery = Gallery.load(args.embeddings)
    config = _build_config(args)
    dist = build_distributions(gallery)
    roc_export(dist, args.out, num_points=args.points, epsilon=config.epsilon)
    print(f"wrote ROC sweep to {args.out}")
    return EXIT_OK


def _cmd_stream(args) -> int:
    gallery = Gallery.load(args.gallery)
    events = simulate_stream(
        gallery,
        args.queries,
        threshold=args.threshold,
        auto_register=args.auto_register,
        append_matched=args.append_matched,
    )
    if args.out:
        export_stream_events(events, args.out)
    else:
        for e in events:
            print(
                f"{e.query_id}\t{e.action}\t{e.identity or '-'}\t{e.best_similarity:.6f}"
            )
    if args.save_gallery:
        gallery.save(args.save_gallery)
    matched = sum(1 for e in events if e.matched)
    print(f"{matched}/{len(events)} queries matched", file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adathresh",
        description="Adaptive decision thresholds over identity embedding galleries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adapt", help="run one adaptation pass and print the state")
    p.add_argument("--gallery", required=True, help="embedding file (CSV or JSON)")
    _config_flags(p)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("simulate", help="incremental-growth evaluation run")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--fixed", default="0.3,0.5,0.7", help="comma list of fixed thresholds")
    p.add_argument("--order", choices=["input", "shuffle"], default="input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="rows CSV/JSON path")
    p.add_argument("--summary", help="optional summary JSON path")
    p.add_argument("--per-step-roc", action="store_true", help="AUC at every step")
    _config_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("synth", help="generate clustered synthetic embeddings")
    p.add_argument("--identities", type=int, required=True)
    p.add_argument("--per-identity", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--within", type=float, required=True)
    p.add_argument("--between", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("roc", help="export a ROC sweep for an embedding file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--out", required=True)
    _config_flags(p)
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser(
        "simulate-stream", help="replay queries against a gallery (matching flow)"
    )
    p.add_argument("--gallery", required=True)
    p.add_argument("--queries", required=True, help="query embeddings (gallery format)")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument(
        "--auto-register",
        action="store_true",
        help="store unmatched queries as new identities",
    )
    p.add_argument(
        "--append-matched",
        action="store_true",
        help="append matched queries to the identity they hit",
    )
    p.add_argument("--out", help="events CSV path (default: print)")
    p.add_argument("--save-gallery", help="write the mutated gallery here")
    p.set_defaults(func=_cmd_stream)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
