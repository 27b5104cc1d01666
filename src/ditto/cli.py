"""Command-line entry point.

Subcommands:

    generate   synthesize a multi-domain dataset and write one .npy file per
               (domain, split)
    train      train one variant on one grid cell and write its run directory
    eval       score a saved checkpoint on every domain's eval split (reads
               only the manifest and the eval split files)
    analyze    aggregate per-run artifacts into analysis/correlation tables
    cost       annotation cost table for a finished results directory
    run-all    generate (or load) data, run the full grid, then analyze

Each config flag names the JSON key it sets (`FLAG_KEYS`); its value is
written there and checked with the file by `parse_config`, and a rejected
one names both: `error: experiment.cost.c_s (--cs): must be >= 0, got -1.0`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .adaptation import domain_accuracies
from .analysis import write_eval_csv, zero_shot_eval
from .data import generate_synthetic, load_dataset
from .errors import ConfigError, DataError, parse_config
from .experiment import (
    Cell,
    DatasetConfig,
    ExperimentConfig,
    analyze_results,
    export_features,
    load_config,
    run_experiment,
    write_cost_csv,
)
from .model import load_checkpoint
from .rng import Rng

# the config key each overriding flag of a command sets; a list key takes the
# flag's values as its list, except that `cost --k` adds its values to `ks`
_GRID = {"--seed": "experiment.seeds", "--variant": "experiment.variants",
         "--source-fraction": "experiment.source_fractions", "--k": "experiment.ks"}
FLAG_KEYS = {"generate": {"--seed": "dataset.seed"}, "train": _GRID, "run-all": _GRID,
             "cost": {"--cs": "experiment.cost.c_s",
                      "--ct-over-s": "experiment.cost.c_t_over_s", "--k": "experiment.ks"}}


def _add_common(p: argparse.ArgumentParser, seed_nargs: int | None) -> None:
    p.add_argument("--config", type=Path, required=True, help="JSON config file")
    p.add_argument("--seed", type=int, nargs=seed_nargs, help="override config seed")
    p.add_argument("--out", type=Path, required=True, help="output directory")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser tree, built on first use; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(prog="ditto",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset")
    _add_common(p, None)

    p = sub.add_parser("train", help="train a single variant/seed")
    _add_common(p, 1)  # each grid key of its cell becomes a one-element list
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--variant", nargs=1, default=["ditto"])
    p.add_argument("--source-fraction", type=int, nargs=1, default=[100])
    p.add_argument("--k", type=int, nargs=1, default=[0], help="few-shot rows per target")

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
    p.add_argument("--cs", type=float, help="cents per source label")
    p.add_argument("--ct-over-s", type=float, help="target/source labeling cost ratio")
    p.add_argument("--k", type=int, action="append",
                   help="extra few-shot sizes to list (repeatable)")

    p = sub.add_parser("run-all", help="generate+train+analyze in one go")
    _add_common(p, 1)
    p.add_argument("--data", type=Path, default=None,
                   help="reuse an existing dataset directory instead of generating")
    p.add_argument("--variant", action="append", help="restrict to these variants (repeatable)")
    p.add_argument("--source-fraction", type=int, action="append",
                   help="restrict source fractions (repeatable)")
    p.add_argument("--k", type=int, action="append", help="restrict few-shot sizes (repeatable)")
    return parser


def _parse(cfg: dict, section: str, args):
    """The `section` ("dataset" or "experiment") of the config `cfg`, built by
    parse_config once the command's given flags are written into it."""
    obj, flags = cfg.setdefault(section, {}), {}  # each key path a flag wrote -> the flag
    for flag, key in FLAG_KEYS[args.command].items():
        value = getattr(args, flag[2:].replace("-", "_"))
        head, *parents, last = key.split(".")
        node = obj if head == section and value is not None else None
        for part in parents:  # an object of the wrong type is parse_config's to reject
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        first = 0
        if (args.command, flag) == ("cost", "--k"):  # each k once, after the config's ks
            listed = node.get(last, ExperimentConfig.__dataclass_fields__[last].default_factory())
            if not isinstance(listed, list):
                continue
            first = len(listed)
            value = listed + [k for k in dict.fromkeys(value) if k not in listed]
        node[last] = value
        items = range(first, len(value)) if isinstance(value, list) else ()
        flags.update(dict.fromkeys([key, *(f"{key}[{i}]" for i in items)], flag))
    try:
        return parse_config(DatasetConfig if section == "dataset" else ExperimentConfig, obj,
                            section)
    except ConfigError as exc:
        if exc.key not in flags:
            raise
        raise ConfigError(exc.args[0], key=f"{exc.key} ({flags[exc.key]})") from None


def _generate(args) -> int:
    cfg = load_config(args.config)
    if "dataset" not in cfg:
        raise ConfigError("config has no 'dataset' section")
    data = _parse(cfg, "dataset", args)
    generate_synthetic(data.base, data.domains, Rng(data.seed), out_dir=args.out)
    print(f"wrote dataset to {args.out}")
    return 0


def _train(args) -> int:
    exp = _parse(load_config(args.config), "experiment", args)
    cell = Cell(exp, load_dataset(args.data), exp.source_fractions[0], exp.ks[0],
                exp.seeds[0])
    for baseline in exp.variants[:-1]:  # as in run-all: its scores seed priors and gains
        print("training the cell's baseline first")
        cell.run(exp.variant_of(baseline))
    report, features = cell.write_run(exp.variants[-1], args.out)
    export_features(features, cell.dataset, args.out / "features.csv")
    accs = ", ".join(f"{d}={a:.2f}" for d, a in
                     sorted(report.final_per_domain_acc.items()))
    print(f"{exp.variants[-1]} seed={cell.record.seed}: {accs}")
    return 0


def _eval(args) -> int:
    bundle = load_checkpoint(args.model)
    dataset = load_dataset(args.data, eval_only=True)
    misfit = dataset.misfit(bundle.spec.input_dim, bundle.num_classes)
    if misfit:
        name, reason, split_file = misfit
        where = f", read from {args.data / split_file}" if split_file else ""
        raise DataError(f"{args.model}: checkpoint {name} {reason}{where}")
    table = zero_shot_eval(args.method, domain_accuracies(bundle, dataset))
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
    exp = _parse(load_config(args.config), "experiment", args)
    write_cost_csv(exp, Path(args.results), args.out)
    print(f"wrote {args.out}")
    return 0


def _run_all(args) -> int:
    cfg = load_config(args.config)
    exp = _parse(cfg, "experiment", args)
    data = _parse(cfg, "dataset", args) if "dataset" in cfg else None  # checked with --data too

    if args.data is not None:
        dataset = load_dataset(args.data)
    else:
        if data is None:
            raise ConfigError("config has no 'dataset' section and no --data given")
        data_dir = args.out / "data"
        dataset = generate_synthetic(data.base, data.domains, Rng(data.seed),
                                     out_dir=data_dir)
        print(f"wrote dataset to {data_dir}")

    results = run_experiment(exp, dataset, args.out / "results")
    analyze_results(results, args.out / "analysis")
    print(f"results under {results}, tables under {args.out / 'analysis'}")
    return 0


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
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
