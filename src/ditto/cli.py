"""Command-line entry point.

Subcommands:

    generate   synthesize a multi-domain dataset and write it as CSV splits
    train      train one variant on one grid cell and write its run directory
    eval       score a saved checkpoint on every domain's eval split (reads
               only the manifest and the eval split files)
    analyze    aggregate per-run artifacts into analysis/correlation tables
    cost       annotation cost table for a finished results directory
    run-all    generate (or load) data, run the full grid, then analyze

Flags always override the corresponding config-file fields.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import write_eval_csv, zero_shot_eval
from .data import generate_synthetic, load_dataset
from .errors import ConfigError, DataError, ParseError
from .experiment import (
    BASELINE,
    Cell,
    ExperimentConfig,
    analyze_results,
    dataset_from_dict,
    experiment_from_dict,
    export_features,
    load_config,
    run_experiment,
    write_cost_csv,
)
from .model import load_checkpoint
from .rng import Rng


def _non_negative_int(text: str) -> int:
    """argparse type of `--k` and `--seed`: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, required=True, help="JSON config file")
    p.add_argument("--seed", type=_non_negative_int, default=None, help="override config seed")
    p.add_argument("--out", type=Path, required=True, help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser tree, built on first use; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(prog="ditto",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset")
    _add_common(p)

    p = sub.add_parser("train", help="train a single variant/seed")
    _add_common(p)
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--variant", type=str, default="ditto")
    p.add_argument("--source-fraction", type=int, default=100, choices=(1, 10, 100))
    p.add_argument("--k", type=_non_negative_int, default=0, help="few-shot rows per target")

    p = sub.add_parser("eval", help="score a checkpoint on the eval splits")
    p.add_argument("--model", type=Path, required=True, help="checkpoint (.npz)")
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument("--method", type=str, default="model", help="method column tag")

    p = sub.add_parser("analyze", help="aggregate run artifacts")
    p.add_argument("--results", type=Path, required=True, help="results directory")
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("cost", help="annotation cost table")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--results", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument("--cs", type=float, default=None, help="cents per source label")
    p.add_argument("--ct-over-s", type=float, default=None,
                   help="target/source labeling cost ratio")
    p.add_argument("--k", type=_non_negative_int, action="append", default=None,
                   help="extra few-shot sizes to list (repeatable)")

    p = sub.add_parser("run-all", help="generate+train+analyze in one go")
    _add_common(p)
    p.add_argument("--data", type=Path, default=None,
                   help="reuse an existing dataset directory instead of generating")
    p.add_argument("--variant", type=str, action="append", default=None,
                   help="restrict to these variants (repeatable)")
    p.add_argument("--source-fraction", type=int, action="append", default=None,
                   choices=(1, 10, 100), help="restrict source fractions (repeatable)")
    p.add_argument("--k", type=_non_negative_int, action="append", default=None,
                   help="restrict few-shot sizes (repeatable)")
    return parser


def _generate(args) -> int:
    cfg = load_config(args.config)
    if "dataset" not in cfg:
        raise ConfigError("config has no 'dataset' section")
    data = dataset_from_dict(cfg["dataset"])
    seed = args.seed if args.seed is not None else data.seed
    generate_synthetic(data.base, data.domains, Rng(seed), out_dir=args.out)
    print(f"wrote dataset to {args.out}")
    return 0


def _train(args) -> int:
    cfg = load_config(args.config)
    exp = experiment_from_dict(cfg.get("experiment", {}))
    seed = args.seed if args.seed is not None else exp.seeds[0]
    cell = Cell(exp, load_dataset(args.data), args.source_fraction, args.k, seed)
    variant = exp.variant_of(args.variant)
    if variant.kind != BASELINE:  # as in run-all: its scores seed priors and gains
        print("training the cell's baseline first")
        cell.run(exp.variant_of(BASELINE))
    bundle, report = cell.write_run(variant.name, args.out)
    export_features(bundle, cell.dataset, args.out / "features.csv")
    accs = ", ".join(f"{d}={a:.2f}" for d, a in
                     sorted(report.final_per_domain_acc.items()))
    print(f"{variant.name} seed={seed}: {accs}")
    return 0


def _eval(args) -> int:
    bundle = load_checkpoint(args.model)
    dataset = load_dataset(args.data, splits=("eval",))
    misfit = dataset.misfit(bundle.spec.input_dim, bundle.num_classes)
    if misfit:
        raise DataError(f"{args.model}: checkpoint {' '.join(misfit)}")
    table = zero_shot_eval(bundle, dataset, method=args.method)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_eval_csv(table, args.out)
    for dom in table.domains(args.method):
        print(f"{dom}: {table.get(args.method, dom):.2f}")
    return 0


def _analyze(args) -> int:
    out = analyze_results(args.results, args.out)
    print(f"wrote {out / 'analysis.csv'} and {out / 'correlation.csv'}")
    return 0


def _cost(args) -> int:
    cfg = load_config(args.config)
    exp = experiment_from_dict(cfg.get("experiment", {}))
    exp = _override(exp, c_s=args.cs, c_t_over_s=args.ct_over_s)
    write_cost_csv(exp, Path(args.results), args.out, extra_ks=args.k)
    print(f"wrote {args.out}")
    return 0


def _run_all(args) -> int:
    cfg = load_config(args.config)
    exp = experiment_from_dict(cfg.get("experiment", {}))
    exp = _override(exp, seeds=None if args.seed is None else [args.seed],
                    variants=args.variant, source_fractions=args.source_fraction,
                    ks=args.k)

    if args.data is not None:
        dataset = load_dataset(args.data)
    else:
        if "dataset" not in cfg:
            raise ConfigError("config has no 'dataset' section and no --data given")
        data = dataset_from_dict(cfg["dataset"])
        data_dir = args.out / "data"
        dataset = generate_synthetic(data.base, data.domains, Rng(data.seed),
                                     out_dir=data_dir)
        print(f"wrote dataset to {data_dir}")

    results = run_experiment(exp, dataset, args.out / "results")
    analyze_results(results, args.out / "analysis")
    print(f"results under {results}, tables under {args.out / 'analysis'}")
    return 0


def _override(exp: ExperimentConfig, **flags) -> ExperimentConfig:
    """`exp` with the given flags' values (None: flag not given), validated
    and ordered again as a fresh config."""
    return replace(exp, **{name: value for name, value in flags.items()
                           if value is not None})


_HANDLERS = {
    "generate": _generate,
    "train": _train,
    "eval": _eval,
    "analyze": _analyze,
    "cost": _cost,
    "run-all": _run_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, DataError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
