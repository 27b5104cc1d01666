"""Experiment orchestration: run grids of (variant, source fraction, few-shot
k, seed), write per-run artifacts, and aggregate summary tables.

Per-run artifacts, under `out/S{frac}/k{k}/{variant}/seed{n}/`:

    metrics.jsonl   one JSON record per epoch plus a final summary record
    eval.csv        per-domain accuracies for the variant and the same-cell
                    baseline, with relative gains (two decimals)
    cka.csv         per-target similarity to the source under this model
    model.npz       checkpoint (bit-exact parameter round-trip)
    run.json        run metadata (no timings, fully deterministic)

Aggregates, under `out/`:

    summary.csv           rows = variants, columns = source fractions,
                          cells = mean relative gain over targets at the
                          best-of-seeds runs (first configured k)
    summary_per_seed.csv  one row per run with per-seed gains
    cost.csv              annotation cost against best-of-seeds accuracy

Every aggregate is a deterministic function of (config, dataset, seeds), so
reruns produce byte-identical files; wall-clock time appears only in
metrics.jsonl.
"""

from __future__ import annotations

import csv
import json
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .adaptation import (
    TrainConfig,
    TrainReport,
    TrainVariant,
    compute_prior,
    few_shot_augment,
    train,
)
from .analysis import (
    CostParams,
    EvalTable,
    annotation_cost,
    fmt_acc,
    linear_cka,
    pearson,
    read_cka_csv,
    read_eval_csv,
    relative_gain,
    spearman,
    write_cka_csv,
    write_eval_csv,
    zero_shot_eval,
)
from .data import DomainDataset, DomainSpec, MixtureSpec, read_json_object, subsample_source
from .errors import ConfigError, DataError, ParameterError, UndefinedResultError
from .model import ModelBundle, extract_features, save_checkpoint
from .rng import Rng

BASELINE = "baseline"


@dataclass
class ExperimentConfig:
    """The full grid: variants x source fractions x few-shot ks x seeds.

    In the JSON `experiment` section the TrainConfig keys sit flat beside
    the grid keys, `lam` is spelled "lambda", and the cost constants sit
    under "cost"; the `json` key paths in the field metadata say so.
    """

    train: TrainConfig = field(metadata={"json": ""})
    variants: list[str] = field(default_factory=lambda: [BASELINE, "ditto"])
    lam: float = field(default=1.0, metadata={"json": "lambda"})
    rho: float = 0.05
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    source_fractions: list[int] = field(default_factory=lambda: [100])
    ks: list[int] = field(default_factory=lambda: [0])
    c_s: float = field(default=3.0, metadata={"json": "cost.c_s"})
    c_t_over_s: float = field(default=1.0, metadata={"json": "cost.c_t_over_s"})
    out_dir: str = "results"

    def __post_init__(self):
        for key, what in (("variants", "variant"), ("seeds", "seed"),
                          ("source_fractions", "source fraction"), ("ks", "few-shot k")):
            values = getattr(self, key)
            if not values and key != "variants":  # an empty list runs the baseline
                raise ConfigError(f"need at least one {what}", key=key)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"{what} {value!r} is listed twice", key=f"{key}[{i}]")
        for key, value in (("lambda", self.lam), ("rho", self.rho)):
            if not value >= 0:
                raise ConfigError(f"{key} must be >= 0, got {value}", key=key)
        for f in self.source_fractions:
            if f not in (1, 10, 100):
                raise ConfigError(f"source fractions must be in {{1,10,100}}, got {f}")
        if any(k < 0 for k in self.ks):
            raise ConfigError(f"few-shot ks must be >= 0, got {self.ks}")
        if not (self.c_s >= 0 and self.c_t_over_s >= 0):  # NaN too
            raise ConfigError(f"cost constants must be >= 0, got c_s={self.c_s}, "
                              f"c_t_over_s={self.c_t_over_s}")
        for i, name in enumerate(self.variants):
            try:
                TrainVariant.parse(name)  # the name only: a ditto_single target
            except ConfigError as exc:  # is checked against the dataset per run
                raise ConfigError(str(exc), key=f"variants[{i}]") from None
        ordered = [v for v in self.variants if v != BASELINE]
        self.variants = [BASELINE] + ordered  # baseline first: it seeds the prior

    def variant_of(self, name: str) -> TrainVariant:
        return TrainVariant.parse(name, lam=self.lam, rho=self.rho)


@dataclass
class DatasetConfig:
    """The JSON `dataset` section: class mixture, domains, generation seed."""

    base: MixtureSpec
    domains: list[DomainSpec]
    seed: int = 0


# ---------------------------------------------------------------------------
# config file handling (JSON; CLI flags override individual fields)
#
# One strict parser builds every config dataclass by walking its fields, so
# the dataclass defaults are the only defaults.  A field's JSON key is its
# name unless its metadata gives a `json` key path: a dotted path nests the
# key in a sub-object, and "" puts a nested config's keys in the enclosing
# object.

_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string"),
               list: ((list,), "a list"), dict: ((dict,), "an object")}


def _expect(tp: type, raw, path: str):
    """`raw` as JSON type `tp` (bool is not a number, and `json` reads NaN,
    Infinity and integers past float range, which no float field takes),
    else ConfigError."""
    types, wanted = _JSON_TYPES[tp]
    if not isinstance(raw, types) or (isinstance(raw, bool) and tp is not bool):
        raise ConfigError(f"{path}: expected {wanted}, got {json.dumps(raw, default=repr)}")
    if tp is float and not abs(raw) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {json.dumps(raw)}")
    return float(raw) if tp is float else raw


def _key_path(f) -> tuple[str, ...]:
    key = f.metadata.get("json", f.name)
    return tuple(key.split(".")) if key else ()


def _known_keys(cls) -> set[tuple[str, ...]]:
    """Every key path an object for `cls` may hold."""
    hints = typing.get_type_hints(cls)
    known = set()
    for f in fields(cls):
        key = _key_path(f)
        known |= {key} if key else _known_keys(hints[f.name])
    return known


def _check_keys(obj: dict, known: set, path: str, prefix: tuple = ()) -> None:
    for key, raw in obj.items():
        here = prefix + (key,)
        if here in known:
            continue
        where = ".".join((path,) + here)
        if not any(k[:len(here)] == here for k in known):
            raise ConfigError(f"{where}: unknown key")
        _check_keys(_expect(dict, raw, where), known, path, here)  # e.g. "cost"


def _build(cls, obj: dict, path: str):
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = _key_path(f)
        if not key:
            kwargs[f.name] = _build(hints[f.name], obj, path)
            continue
        node = obj
        for part in key[:-1]:
            node = node.get(part, {})
        where = ".".join((path,) + key)
        if key[-1] in node:
            kwargs[f.name] = _value(hints[f.name], node[key[-1]], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: required key missing")
    try:
        return cls(**kwargs)
    except (ConfigError, ParameterError) as exc:
        key = getattr(exc, "key", "")
        raise ConfigError(f"{path}.{key}: {exc}" if key else f"{path}: {exc}") from None


def _value(tp, raw, path: str):
    if is_dataclass(tp):
        return parse_config(tp, raw, path)
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        return [_value(item, v, f"{path}[{i}]") for i, v in enumerate(_expect(list, raw, path))]
    return dict(_expect(dict, raw, path)) if tp is dict else _expect(tp, raw, path)


def parse_config(cls, data, path: str):
    """Build the config dataclass `cls` from the JSON value at `path`.

    Unknown keys, missing required keys, values of the wrong JSON type (a
    float is not an int, a string is not a list) and values the dataclass
    itself rejects all raise ConfigError naming the JSON path, e.g.
    `experiment.lamda` or `dataset.domains[1].sizes`.
    """
    obj = _expect(dict, data, path)
    _check_keys(obj, _known_keys(cls), path)
    return _build(cls, obj, path)


def experiment_from_dict(d: dict) -> ExperimentConfig:
    return parse_config(ExperimentConfig, d, "experiment")


def dataset_from_dict(d: dict) -> DatasetConfig:
    return parse_config(DatasetConfig, d, "dataset")


def load_config(path: str | Path) -> dict:
    """The JSON object in `path`, holding a `dataset` and/or an `experiment`
    section."""
    cfg = read_json_object(path, ConfigError)
    for key in cfg:
        if key not in ("dataset", "experiment"):
            raise ConfigError(f"{key}: unknown config section")
    return cfg


# ---------------------------------------------------------------------------
# per-run output


def write_report_jsonl(report: TrainReport, path: str | Path) -> None:
    """One record per epoch plus a final summary record."""
    with open(path, "w") as fh:
        for rec in report.epochs:
            fh.write(json.dumps({
                "epoch": rec.epoch,
                "task_loss": rec.task_loss,
                "adv_loss": rec.adv_loss,
                "disc_loss": rec.disc_loss,
                "per_domain_acc": rec.per_domain_acc,
            }, sort_keys=True) + "\n")
        fh.write(json.dumps({
            "final": True,
            "variant": report.variant,
            "seed": report.seed,
            "per_domain_acc": report.final_per_domain_acc,
            "target_sample_counts": report.target_sample_counts,
            "wall_clock_seconds": report.wall_clock_seconds,
        }, sort_keys=True) + "\n")


def export_features(bundle: ModelBundle, dataset: DomainDataset, path: str | Path) -> None:
    """Eval-split encoder features for every domain, one row per example.

    Columns: domain,row_index,class_label_or_empty,f0..f{d-1}.  Features are
    written with repr, so reloading reproduces similarity values to well
    under the 1e-9 text round-trip budget.
    """
    dim = bundle.feature_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["domain", "row_index", "class_label_or_empty"]
                        + [f"f{i}" for i in range(dim)])
        for dom in [dataset.source] + dataset.target_ids():
            rows = dataset.domains[dom].eval
            feats = extract_features(bundle, rows.X)
            for i in range(feats.shape[0]):
                label = "" if rows.y is None else str(int(rows.y[i]))
                writer.writerow([dom, i, label] + [repr(float(v)) for v in feats[i]])


def _variant_dirname(name: str) -> str:
    return name.replace(":", "_")


def _run_dir(out: Path, frac: int, k: int, variant: str, seed: int) -> Path:
    return out / f"S{frac}" / f"k{k}" / _variant_dirname(variant) / f"seed{seed}"


class Cell:
    """One (source fraction, k, seed) cell of the grid.

    Its training set keeps `frac` percent of the source labeled rows (a
    seeded subsample), then gains k few-shot rows per target.  Variants run
    on it one at a time; one that needs a target prior builds it from the
    zero-shot scores of the cell's baseline, which must have run before it.
    An experiment whose input_dim or num_classes does not fit the dataset
    raises ConfigError here, before anything trains.
    """

    def __init__(self, config: ExperimentConfig, dataset: DomainDataset,
                 frac: int, k: int, seed: int):
        dim, classes = config.train.encoder.input_dim, config.train.num_classes
        if dataset.feature_dim != dim:
            raise ConfigError(f"experiment.encoder.input_dim: {dim} does not match the "
                              f"dataset's {dataset.feature_dim} feature columns")
        for dom, splits in dataset.domains.items():
            for tag, rows in (("labeled", splits.labeled), ("fewshot", splits.fewshot),
                              ("eval", splits.eval)):
                if rows.y is not None and rows.n and rows.y.max() >= classes:
                    raise ConfigError(f"experiment.num_classes: {classes} is too few for "
                                      f"label {rows.y.max()} of domain {dom!r} split {tag}")
        self.config = config
        self.seed = seed
        ds = subsample_source(dataset, frac, Rng(seed).child("subsample"))
        self.n_labeled_source = ds.domains[ds.source].labeled.n
        if k > 0:
            ds = few_shot_augment(ds, k, Rng(seed).child("fewshot"))
        self.dataset = ds
        self.baseline_scores: dict[str, float] | None = None

    def run(self, variant: TrainVariant) -> tuple[ModelBundle, TrainReport]:
        """Train `variant` on the cell; a baseline's scores seed later priors."""
        prior = None
        if variant.needs_prior:
            if self.baseline_scores is None:
                raise ConfigError("baseline run unavailable; cannot build the "
                                  "target prior")
            prior = compute_prior(self.baseline_scores, self.dataset.source)
        bundle, report = train(self.config.train, self.dataset, variant, self.seed, prior)
        if variant.kind == BASELINE:
            self.baseline_scores = report.final_per_domain_acc
        return bundle, report


def run_experiment(config: ExperimentConfig, dataset: DomainDataset,
                   out_dir: str | Path | None = None) -> Path:
    """Run the whole grid and write per-run artifacts plus aggregate tables.

    The baseline always runs first within each (fraction, k, seed) cell: its
    zero-shot scores define the target prior for the prior-based variants and
    the denominators of every relative gain.  A failed run is recorded in its
    run.json (status/error) and the remaining runs proceed.
    """
    out = Path(out_dir if out_dir is not None else config.out_dir)
    dataset.validate()
    targets = dataset.target_ids()

    for frac in config.source_fractions:
        for k in config.ks:
            for seed in config.seeds:
                cell = Cell(config, dataset, frac, k, seed)
                ds = cell.dataset
                baseline_table: EvalTable | None = None
                for name in config.variants:
                    run_dir = _run_dir(out, frac, k, name, seed)
                    # makes `out` too, once the first Cell has checked the fit
                    run_dir.mkdir(parents=True, exist_ok=True)
                    meta = {
                        "variant": name, "seed": seed, "S": frac, "k": k,
                        "source": ds.source, "targets": targets,
                        "n_labeled_source": cell.n_labeled_source, "status": "ok",
                    }
                    try:
                        bundle, report = cell.run(config.variant_of(name))
                        table = zero_shot_eval(bundle, ds, method=name)
                        if name == BASELINE:
                            baseline_table = table
                        elif baseline_table is not None:
                            table.merge(baseline_table)
                        write_report_jsonl(report, run_dir / "metrics.jsonl")
                        write_eval_csv(table, run_dir / "eval.csv")
                        feats = {dom: extract_features(bundle, ds.domains[dom].eval.X)
                                 for dom in [ds.source] + targets}
                        ckas = {t: linear_cka(feats[ds.source], feats[t])
                                for t in targets}
                        accs = {t: report.final_per_domain_acc[t] for t in targets}
                        write_cka_csv(ckas, accs, run_dir / "cka.csv")
                        save_checkpoint(bundle, run_dir / "model.npz")
                    except Exception as exc:  # record and continue with the grid
                        meta["status"] = "failed"
                        meta["error"] = f"{type(exc).__name__}: {exc}"
                        with open(run_dir / "error.txt", "w") as fh:
                            fh.write(meta["error"] + "\n")
                    with open(run_dir / "run.json", "w") as fh:
                        json.dump(meta, fh, indent=2, sort_keys=True)
                        fh.write("\n")

    write_summaries(config, out)
    return out


# ---------------------------------------------------------------------------
# aggregates: every table reads each run back once (`_finished_runs`), and
# every gain is `_mean_gain` of the two-decimal accuracies in eval.csv

_RUN_KEYS = {"S": int, "k": int, "variant": str, "seed": int, "source": str,
             "targets": list, "n_labeled_source": int}  # the keys the tables read


def _finished_runs(results: Path) -> dict[tuple[int, int, str, int], tuple[dict, EvalTable]]:
    """{(S, k, variant, seed): (run.json, eval.csv)} of every run under
    `results` whose status is "ok" and whose eval.csv exists, in path order.
    A missing `results` directory or a corrupt, misplaced or incomplete
    artifact raises DataError naming it."""
    if not results.is_dir():
        raise DataError(f"{results}: no such results directory")
    runs = {}
    for meta_path in sorted(results.glob("S*/k*/*/seed*/run.json")):
        meta = read_json_object(meta_path)
        eval_path = meta_path.parent / "eval.csv"
        if meta.get("status") != "ok" or not eval_path.exists():
            continue
        for name, tp in _RUN_KEYS.items():
            if not isinstance(meta.get(name), tp):
                raise DataError(f"{meta_path}: {name!r} missing or not {tp.__name__}")
        key = (meta["S"], meta["k"], meta["variant"], meta["seed"])
        if _run_dir(results, *key) != meta_path.parent:
            raise DataError(f"{meta_path}: describes S={key[0]} k={key[1]} {key[2]} "
                            f"seed={key[3]}, which belongs in another directory")
        table, _ = read_eval_csv(eval_path)
        for dom in [meta["source"]] + meta["targets"]:
            if (meta["variant"], dom) not in table.entries:
                raise DataError(f"{eval_path}: no {meta['variant']} accuracy on {dom!r}")
        runs[key] = meta, table
    return runs


def _accs(table: EvalTable, method: str) -> dict[str, float]:
    return {dom: acc for (m, dom), acc in table.entries.items() if m == method}


def _mean_target_acc(meta: dict, accs: dict[str, float]) -> float:
    return float(np.mean([accs[t] for t in meta["targets"]]))


def _mean_gain(base_accs: dict[str, float], accs: dict[str, float], targets) -> str:
    """The mean relative gain over `targets` as a table cell; empty when a
    target has no baseline accuracy or a gain is undefined (a 0.00 baseline)."""
    try:
        return fmt_acc(float(np.mean([relative_gain(base_accs[t], accs[t]) for t in targets])))
    except (KeyError, UndefinedResultError):
        return ""


def _best_seed_accs(runs: dict, config: ExperimentConfig, frac: int, k: int,
                    variant: str) -> tuple[dict, dict[str, float]] | None:
    """(meta, accuracies) of the best seed: the highest mean target accuracy,
    ties to the seed listed first in config.seeds; None if none finished."""
    finished = [runs[frac, k, variant, seed] for seed in config.seeds
                if (frac, k, variant, seed) in runs]
    return max([(meta, _accs(table, variant)) for meta, table in finished],
               key=lambda run: _mean_target_acc(*run), default=None)


def write_summaries(config: ExperimentConfig, out: Path) -> None:
    """summary.csv, summary_per_seed.csv and cost.csv from the runs under `out`."""
    runs = _finished_runs(out)
    k0 = config.ks[0]

    # cross-variant summary at the first configured k, best-of-seeds
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant"] + [f"S{f}" for f in config.source_fractions])
        bases = [_best_seed_accs(runs, config, f, k0, BASELINE) for f in config.source_fractions]
        for name in config.variants:
            bests = [_best_seed_accs(runs, config, f, k0, name) for f in config.source_fractions]
            writer.writerow([name] + ["" if base is None or best is None else
                                      _mean_gain(base[1], best[1], base[0]["targets"])
                                      for base, best in zip(bases, bests)])

    # per-seed summary across the whole grid
    with open(out / "summary_per_seed.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "S", "k", "seed",
                         "mean_target_accuracy", "mean_relative_gain"])
        for frac, k, name, seed in product(config.source_fractions, config.ks,
                                           config.variants, config.seeds):
            run, base = runs.get((frac, k, name, seed)), runs.get((frac, k, BASELINE, seed))
            if run is None:
                writer.writerow([name, frac, k, seed, "", ""])
                continue
            meta, accs = run[0], _accs(run[1], name)
            gain = "" if base is None else _mean_gain(_accs(base[1], BASELINE), accs,
                                                      meta["targets"])
            writer.writerow([name, frac, k, seed, fmt_acc(_mean_target_acc(meta, accs)), gain])

    # annotation cost against best-of-seeds accuracy
    _write_cost(config, runs, config.ks, out / "cost.csv")


def write_cost_csv(config: ExperimentConfig, results: Path, path: Path,
                   extra_ks: list[int] | None = None) -> None:
    """Cost/accuracy table; requested-but-missing grid cells stay empty.  The
    directory of `path` is made only once the runs have been read."""
    ks = list(dict.fromkeys(config.ks + (extra_ks or [])))
    runs = _finished_runs(results)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _write_cost(config, runs, ks, path)


def _write_cost(config: ExperimentConfig, runs: dict, ks: list[int], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "S", "k", "c_t_over_s",
                         "cost_cents", "mean_target_accuracy"])
        for frac, k, name in product(config.source_fractions, ks, config.variants):
            best = _best_seed_accs(runs, config, frac, k, name)
            if best is None:
                writer.writerow([name, frac, k, config.c_t_over_s, "", ""])
                continue
            meta, accs = best
            cost = annotation_cost(CostParams(
                c_s=config.c_s, n_labeled_source=meta["n_labeled_source"],
                c_t_over_s=config.c_t_over_s, k=k, num_targets=len(meta["targets"])))
            writer.writerow([name, frac, k, config.c_t_over_s,
                             f"{cost:.2f}", fmt_acc(_mean_target_acc(meta, accs))])


def analyze_results(results: str | Path, out_dir: str | Path) -> Path:
    """Post-hoc tables from a results directory: per-run accuracy/gain/gap in
    analysis.csv and CKA-accuracy correlations in correlation.csv."""
    results, out = Path(results), Path(out_dir)
    runs = _finished_runs(results)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "analysis.csv", "w", newline="") as afh, \
         open(out / "correlation.csv", "w", newline="") as cfh:
        a_writer = csv.writer(afh, lineterminator="\n")
        c_writer = csv.writer(cfh, lineterminator="\n")
        a_writer.writerow(["variant", "S", "k", "seed", "mean_target_accuracy",
                           "mean_relative_gain", "gap"])
        c_writer.writerow(["variant", "S", "k", "seed", "pearson", "spearman"])
        for (frac, k, name, seed), (meta, table) in runs.items():
            targets = meta["targets"]
            accs = _accs(table, name)
            gain = "" if name == BASELINE else _mean_gain(_accs(table, BASELINE), accs,
                                                          targets)
            gap = float(np.mean([accs[meta["source"]] - accs[t] for t in targets]))
            a_writer.writerow([name, frac, k, seed, fmt_acc(_mean_target_acc(meta, accs)),
                               gain, fmt_acc(gap)])

            cka_path = _run_dir(results, frac, k, name, seed) / "cka.csv"
            if cka_path.exists() and len(targets) >= 3:
                rows = read_cka_csv(cka_path)
                if not set(targets) <= set(rows):
                    raise DataError(f"{cka_path}: no row for some of the targets {targets}")
                ckas, target_accs = zip(*[rows[t] for t in targets])
                try:
                    cells = [f"{pearson(ckas, target_accs):.4f}",
                             f"{spearman(ckas, target_accs):.4f}"]
                except UndefinedResultError:
                    cells = ["", ""]
                c_writer.writerow([name, frac, k, seed] + cells)
    return out
