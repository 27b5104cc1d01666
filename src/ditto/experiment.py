"""Experiment orchestration: run grids of (variant, source fraction, few-shot
k, seed), write per-run artifacts, and aggregate summary tables.

Per-run artifacts, under `out/S{frac}/k{k}/{variant}/seed{n}/`, all written
by `Cell.write_run` (for `ditto train` and `run_experiment` alike; a failed
grid run gets error.txt and a failed run.json instead):

    metrics.jsonl   one JSON record per epoch plus a final summary record
    eval.csv        per-domain accuracies for the variant and the same-cell
                    baseline, with relative gains (two decimals)
    cka.csv         per-target similarity to the source under this model
    model.npz       checkpoint (bit-exact parameter round-trip)
    run.json        the run's `RunRecord` (no timings, fully deterministic)

Aggregates, under `out/`:

    summary.csv           rows = variants, columns = source fractions,
                          cells = mean relative gain over targets at the
                          best-of-seeds runs (first configured k)
    summary_per_seed.csv  one row per run with per-seed gains
    cost.csv              annotation cost against best-of-seeds accuracy

Every aggregate is a deterministic function of (config, dataset, seeds), so
reruns produce byte-identical files; wall-clock time appears only in
metrics.jsonl.  The tables read each run back through its run.json, parsed
by `parse_record` as the config dataclass `RunRecord` it was written from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
    mean_gain,
    pearson,
    read_cka_csv,
    read_eval_csv,
    spearman,
    write_cka_csv,
    write_eval_csv,
    zero_shot_eval,
)
from .data import (SOURCE_FRACTIONS, DomainDataset, DomainSpec, MixtureSpec, check_domains,
                   subsample_source, write_csv, write_record)
from .errors import ConfigError, DataError, UndefinedResultError, check_fields, parse_record
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
    # an empty variants list still runs the baseline
    variants: list[str] = field(default_factory=lambda: [BASELINE, "ditto"],
                                metadata={"unique": True})
    lam: float = field(default=1.0, metadata={"json": "lambda", "min": 0})
    rho: float = field(default=0.05, metadata={"min": 0})
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2],
                             metadata={"min": 0, "len": 1, "unique": True})
    source_fractions: list[int] = field(default_factory=lambda: [100],
                                        metadata={"in": SOURCE_FRACTIONS, "len": 1,
                                                  "unique": True})
    ks: list[int] = field(default_factory=lambda: [0],
                          metadata={"min": 0, "len": 1, "unique": True})
    c_s: float = field(default=3.0, metadata={"json": "cost.c_s", "min": 0})
    c_t_over_s: float = field(default=1.0, metadata={"json": "cost.c_t_over_s", "min": 0})

    def __post_init__(self):
        check_fields(self)
        for i, name in enumerate(self.variants):
            try:
                TrainVariant.parse(name)  # the name only: a ditto_single target
            except ConfigError as exc:  # is checked against the dataset per run
                raise ConfigError(exc.args[0], key=f"variants[{i}]") from None
        ordered = [v for v in self.variants if v != BASELINE]
        self.variants = [BASELINE] + ordered  # baseline first: it seeds the prior

    def variant_of(self, name: str) -> TrainVariant:
        return TrainVariant.parse(name, lam=self.lam, rho=self.rho)


@dataclass
class DatasetConfig:
    """The JSON `dataset` section: class mixture, domains, generation seed."""

    base: MixtureSpec
    domains: list[DomainSpec]
    seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)
        check_domains(self.domains)


@dataclass
class RunRecord:
    """A run's run.json: its grid coordinates, its dataset's domains and kept
    source rows, and whether it finished ("ok") or failed with `error`."""

    frac: int = field(metadata={"json": "S"})
    variant: str
    seed: int = field(metadata={"min": 0})
    k: int = field(metadata={"min": 0})
    n_labeled_source: int = field(metadata={"min": 0})
    source: str = field(metadata={"id": True})
    targets: list[str] = field(metadata={"id": True, "len": 1, "unique": True})
    status: str = field(metadata={"in": ("ok", "failed")})
    error: str | None = None

    def __post_init__(self):
        check_fields(self)
        if self.source in self.targets:
            raise ConfigError(f"the source {self.source!r} is no target", key="targets")


def load_config(path: str | Path) -> dict:
    """The JSON object in `path`, holding a `dataset` and/or an `experiment`
    section."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected an object, got {type(cfg).__name__}")
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
            fh.write(json.dumps(vars(rec), sort_keys=True) + "\n")
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
    rows = []
    for dom in [dataset.source] + dataset.target_ids():
        split = dataset.domains[dom].eval
        feats = extract_features(bundle, split.X)
        for i in range(feats.shape[0]):
            rows.append([dom, i, str(int(split.y[i]))] + [repr(float(v)) for v in feats[i]])
    write_csv(path, ["domain", "row_index", "class_label_or_empty"]
              + [f"f{i}" for i in range(bundle.feature_dim)], rows)


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
    raises ConfigError here, and a dataset without a target domain
    DataError, before anything trains.
    """

    def __init__(self, config: ExperimentConfig, dataset: DomainDataset,
                 frac: int, k: int, seed: int):
        misfit = dataset.misfit(config.train.encoder.input_dim, config.train.num_classes)
        if misfit:
            name, reason, _ = misfit
            key = "encoder.input_dim" if name == "input_dim" else name
            raise ConfigError(reason, key=f"experiment.{key}")
        if not dataset.target_ids():
            raise DataError("the dataset has no target domain")
        self.config = config
        ds = subsample_source(dataset, frac, Rng(seed).child("subsample"))
        self.record = RunRecord(  # each run.json of the cell, but for variant and status
            frac=frac, variant=BASELINE, seed=seed, k=k,
            n_labeled_source=ds.domains[ds.source].labeled.n, source=ds.source,
            targets=ds.target_ids(), status="ok")
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
        bundle, report = train(self.config.train, self.dataset, variant, self.record.seed,
                               prior)
        if variant.kind == BASELINE:
            self.baseline_scores = report.final_per_domain_acc
        return bundle, report

    def write_run(self, name: str, run_dir: Path) -> tuple[ModelBundle, TrainReport]:
        """Train variant `name` on the cell and write its run directory:
        metrics.jsonl, eval.csv (with the cell's baseline rows once the
        baseline has run), cka.csv, model.npz and an ok run.json."""
        bundle, report = self.run(self.config.variant_of(name))
        ds, targets = self.dataset, self.dataset.target_ids()
        table = zero_shot_eval(bundle, ds, method=name)
        for dom, acc in (self.baseline_scores or {}).items():
            table.add(BASELINE, dom, acc)
        run_dir.mkdir(parents=True, exist_ok=True)
        write_report_jsonl(report, run_dir / "metrics.jsonl")
        write_eval_csv(table, run_dir / "eval.csv")
        feats = {dom: extract_features(bundle, ds.domains[dom].eval.X)
                 for dom in [ds.source] + targets}
        write_cka_csv({t: linear_cka(feats[ds.source], feats[t]) for t in targets},
                      {t: report.final_per_domain_acc[t] for t in targets},
                      run_dir / "cka.csv")
        save_checkpoint(bundle, run_dir / "model.npz")
        self.write_meta(name, run_dir)
        return bundle, report

    def write_meta(self, name: str, run_dir: Path, error: str | None = None) -> None:
        """The run.json of variant `name` on the cell: ok, or failed with `error`."""
        write_record(run_dir / "run.json", replace(
            self.record, variant=name, status="ok" if error is None else "failed", error=error))


def run_experiment(config: ExperimentConfig, dataset: DomainDataset,
                   out_dir: str | Path) -> Path:
    """Run the whole grid and write per-run artifacts plus aggregate tables.

    Every cell is built before any run trains, so a grid that does not fit
    the dataset writes nothing.  The baseline always runs first within each
    cell: its zero-shot scores define the target prior for the prior-based
    variants and the denominators of every relative gain.  A failed run is
    recorded in its run.json (status/error) and the remaining runs proceed.
    """
    out = Path(out_dir)
    dataset.validate()
    cells = [Cell(config, dataset, frac, k, seed) for frac, k, seed
             in product(config.source_fractions, config.ks, config.seeds)]
    for cell in cells:
        for name in config.variants:
            run_dir = _run_dir(out, cell.record.frac, cell.record.k, name, cell.record.seed)
            run_dir.mkdir(parents=True, exist_ok=True)
            try:
                cell.write_run(name, run_dir)
            except Exception as exc:  # record and continue with the grid
                error = f"{type(exc).__name__}: {exc}"
                (run_dir / "error.txt").write_text(error + "\n")
                cell.write_meta(name, run_dir, error)

    write_summaries(config, out)
    return out


# ---------------------------------------------------------------------------
# aggregates: every table reads each run back once (`_finished_runs`), and
# every gain is `mean_gain` of the two-decimal accuracies in eval.csv

def _finished_runs(results: Path) -> dict[tuple[int, int, str, int],
                                          tuple[RunRecord, EvalTable]]:
    """{(S, k, variant, seed): (run.json, eval.csv)} of every run under
    `results` whose status is "ok" and whose eval.csv exists, in path order.
    Every run.json is parsed, a failed run's too.  A missing `results`
    directory or a corrupt, misplaced or incomplete artifact raises DataError
    naming it."""
    if not results.is_dir():
        raise DataError(f"{results}: no such results directory")
    runs = {}
    for meta_path in sorted(results.glob("S*/k*/*/seed*/run.json")):
        run = parse_record(RunRecord, meta_path.read_bytes(), meta_path)
        eval_path = meta_path.parent / "eval.csv"
        if run.status != "ok" or not eval_path.exists():
            continue
        key = (run.frac, run.k, run.variant, run.seed)
        if _run_dir(results, *key) != meta_path.parent:
            raise DataError(f"{meta_path}: describes S={key[0]} k={key[1]} {key[2]} "
                            f"seed={key[3]}, which belongs in another directory")
        table, _ = read_eval_csv(eval_path)
        for dom in [run.source] + run.targets:
            if (run.variant, dom) not in table.entries:
                raise DataError(f"{eval_path}: no {run.variant} accuracy on {dom!r}")
        runs[key] = run, table
    return runs


def _accs(table: EvalTable, method: str) -> dict[str, float]:
    return {dom: acc for (m, dom), acc in table.entries.items() if m == method}


def _mean_target_acc(run: RunRecord, accs: dict[str, float]) -> float:
    return float(np.mean([accs[t] for t in run.targets]))


def _best_seed_accs(runs: dict, config: ExperimentConfig, frac: int, k: int,
                    variant: str) -> tuple[RunRecord, dict[str, float]] | None:
    """(run, accuracies) of the best seed: the highest mean target accuracy,
    ties to the seed listed first in config.seeds; None if none finished."""
    finished = [runs[frac, k, variant, seed] for seed in config.seeds
                if (frac, k, variant, seed) in runs]
    return max([(run, _accs(table, variant)) for run, table in finished],
               key=lambda best: _mean_target_acc(*best), default=None)


def write_summaries(config: ExperimentConfig, out: Path) -> None:
    """summary.csv, summary_per_seed.csv and cost.csv from the runs under `out`."""
    runs = _finished_runs(out)
    k0 = config.ks[0]

    # cross-variant summary at the first configured k, best-of-seeds
    rows = []
    bases = [_best_seed_accs(runs, config, f, k0, BASELINE) for f in config.source_fractions]
    for name in config.variants:
        bests = [_best_seed_accs(runs, config, f, k0, name) for f in config.source_fractions]
        rows.append([name] + ["" if base is None or best is None else
                              mean_gain(base[1], best[1], base[0].targets)
                              for base, best in zip(bases, bests)])
    write_csv(out / "summary.csv", ["variant"] + [f"S{f}" for f in config.source_fractions],
              rows)

    # per-seed summary across the whole grid
    rows = []
    for frac, k, name, seed in product(config.source_fractions, config.ks,
                                       config.variants, config.seeds):
        run, base = runs.get((frac, k, name, seed)), runs.get((frac, k, BASELINE, seed))
        if run is None:
            rows.append([name, frac, k, seed, "", ""])
            continue
        accs = _accs(run[1], name)
        gain = "" if base is None else mean_gain(_accs(base[1], BASELINE), accs,
                                                  run[0].targets)
        rows.append([name, frac, k, seed, fmt_acc(_mean_target_acc(run[0], accs)), gain])
    write_csv(out / "summary_per_seed.csv", ["variant", "S", "k", "seed",
                                             "mean_target_accuracy", "mean_relative_gain"],
              rows)

    # annotation cost against best-of-seeds accuracy
    _write_cost(config, runs, out / "cost.csv")


def write_cost_csv(config: ExperimentConfig, results: Path, path: Path) -> None:
    """Cost/accuracy table; requested-but-missing grid cells stay empty.  The
    directory of `path` is made only once the runs have been read."""
    runs = _finished_runs(results)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _write_cost(config, runs, path)


def _write_cost(config: ExperimentConfig, runs: dict, path: Path) -> None:
    rows = []
    for frac, k, name in product(config.source_fractions, config.ks, config.variants):
        best = _best_seed_accs(runs, config, frac, k, name)
        if best is None:
            rows.append([name, frac, k, config.c_t_over_s, "", ""])
            continue
        run, accs = best
        cost = annotation_cost(CostParams(
            c_s=config.c_s, n_labeled_source=run.n_labeled_source,
            c_t_over_s=config.c_t_over_s, k=k, num_targets=len(run.targets)))
        rows.append([name, frac, k, config.c_t_over_s,
                     f"{cost:.2f}", fmt_acc(_mean_target_acc(run, accs))])
    write_csv(path, ["method", "S", "k", "c_t_over_s", "cost_cents", "mean_target_accuracy"],
              rows)


def analyze_results(results: str | Path, out_dir: str | Path) -> Path:
    """Post-hoc tables from a results directory: per-run accuracy/gain/gap in
    analysis.csv and CKA-accuracy correlations in correlation.csv, both
    written once every run is read (a corrupt artifact leaves neither)."""
    results, out = Path(results), Path(out_dir)
    runs = _finished_runs(results)
    a_rows, c_rows = [], []
    for (frac, k, name, seed), (run, table) in runs.items():
        targets = run.targets
        accs = _accs(table, name)
        gain = "" if name == BASELINE else mean_gain(_accs(table, BASELINE), accs, targets)
        gap = float(np.mean([accs[run.source] - accs[t] for t in targets]))
        a_rows.append([name, frac, k, seed, fmt_acc(_mean_target_acc(run, accs)), gain,
                       fmt_acc(gap)])

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
            c_rows.append([name, frac, k, seed] + cells)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "analysis.csv", ["variant", "S", "k", "seed", "mean_target_accuracy",
                                     "mean_relative_gain", "gap"], a_rows)
    write_csv(out / "correlation.csv", ["variant", "S", "k", "seed", "pearson", "spearman"],
              c_rows)
    return out
