"""The benchmark's three workloads, driven through ditto's public API and CLI.

Each workload builds its inputs from the benchmark seed in `setup`, runs one
pass of the timed work in `execute`, and checks that pass's outputs in
`verify` (outside the timed region).  Every call into ditto goes through a
module attribute (`ditto.train`, `ditto.cli.main`, ...) looked up at call
time, so the tracer's wrappers see the benchmark's own calls too.

The frozen ladder and grid constants restate `tests/test_acceptance.py`;
`test_bench.py` reads that file as an AST and fails if they drift.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ditto
import ditto.cli

# --- frozen constants (mirrors tests/test_acceptance.py) ----------------------

MEANS = [[0.0, 1.8], [3.0, 0.0], [-3.44, -2.409]]
SIGMA = 0.55
DATA_SEED = 7
BENCH_ANGLES = (15, 30, 45, 60)
LADDER_ANGLES = (15, 30, 45, 60, 75)
LAM = 0.25
RHO = 0.05
SINGLE_TARGET = "rot45"
SOURCE = "src"

# split sizes of the ladder's source and target domains
SOURCE_SIZES = {"labeled": 2000, "unlabeled": 2000, "fewshot": 100, "eval": 2000}
TARGET_SIZES = {**SOURCE_SIZES, "labeled": 0}

# keyword arguments of the acceptance suite's BENCH_TRAIN TrainConfig
BENCH_TRAIN = {
    "encoder": {"input_dim": 2, "hidden_dims": [32, 16]},
    "num_classes": 3, "epochs": 100, "batch_size": 64,
    "lr": 0.02, "disc_lr": 0.1, "weight_decay": 0.01,
}

# criterion 10's run-all config; `seeds` is replaced by the benchmark seed pair
GRID_CONFIG = {
    "dataset": {
        "seed": 5,
        "base": {"means": MEANS, "sigma": SIGMA},
        "domains": [
            {"id": "src", "kind": "source", "transform": {"kind": "identity"},
             "sizes": {"labeled": 128, "unlabeled": 128, "fewshot": 16, "eval": 90}},
            {"id": "rot25", "kind": "target",
             "transform": {"kind": "rotation", "angle": 25},
             "sizes": {"labeled": 0, "unlabeled": 128, "fewshot": 16, "eval": 90}},
            {"id": "rot55", "kind": "target",
             "transform": {"kind": "rotation", "angle": 55},
             "sizes": {"labeled": 0, "unlabeled": 128, "fewshot": 16, "eval": 90}},
        ],
    },
    "experiment": {
        "encoder": {"input_dim": 2, "hidden_dims": [16, 8], "activation": "tanh"},
        "num_classes": 3, "epochs": 3, "batch_size": 32, "lr": 0.02,
        "disc_lr": 0.1, "variants": ["baseline", "ditto", "ditto_minus_sam"],
        "lambda": LAM, "rho": RHO, "seeds": [0, 1], "source_fractions": [100, 10],
        "ks": [0, 4], "cost": {"c_s": 3.0, "c_t_over_s": 1.0},
    },
}

# epochs of the baseline whose checkpoint ladder_eval scores; enough to move
# accuracies off chance, cheap enough to repeat in every set-up sample
EVAL_CHECKPOINT_EPOCHS = 5


def train_config(overrides: dict | None = None) -> "ditto.TrainConfig":
    kwargs = {**BENCH_TRAIN, **(overrides or {})}
    return ditto.TrainConfig(encoder=ditto.EncoderSpec(**kwargs.pop("encoder")), **kwargs)


def ladder_dataset(angles, out_dir: Path | None = None) -> "ditto.DomainDataset":
    domains = [ditto.DomainSpec(SOURCE, "source", {"kind": "identity"},
                                ditto.SizeSpec(**SOURCE_SIZES))]
    for a in angles:
        domains.append(ditto.DomainSpec(f"rot{a}", "target",
                                        {"kind": "rotation", "angle": float(a)},
                                        ditto.SizeSpec(**TARGET_SIZES)))
    return ditto.generate_synthetic(ditto.MixtureSpec(MEANS, SIGMA), domains,
                                    ditto.Rng(DATA_SEED), out_dir=out_dir)


def write_grid_config(seed: int, path: Path) -> dict:
    """The criterion-10 config with the training seeds {seed, seed + 1}."""
    config = json.loads(json.dumps(GRID_CONFIG))
    config["experiment"]["seeds"] = [seed, seed + 1]
    path.write_text(json.dumps(config, indent=2))
    return config


def run_cli(argv: list[str]) -> None:
    """`ditto <argv>` in-process, its progress lines discarded; a non-zero
    exit status raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = ditto.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"ditto {argv[0]} returned {rc}")


def cka_per_target(bundle, dataset) -> dict[str, float]:
    src = ditto.extract_features(bundle, dataset.domains[SOURCE].eval.X)
    return {t: ditto.linear_cka(src, ditto.extract_features(bundle, dataset.domains[t].eval.X))
            for t in dataset.target_ids()}


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def mean_gain_pp(ditto_acc: dict[str, float], base_acc: dict[str, float],
                 targets) -> float:
    return float(np.mean([ditto_acc[t] - base_acc[t] for t in targets]))


@dataclass
class PassResult:
    """What one pass did and whether its outputs hold up."""

    attempted: int
    failed: int
    steps: int
    digest: str
    gain_pp: float | None = None
    errors: list[str] = field(default_factory=list)
    runs: int = 0  # grid runs found (grid_runall only)


class Workload:
    """Base: a named set of inputs plus the timed work run on them."""

    name = ""
    warmup = 0  # untimed passes before measuring (cheap passes only)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self):
        """One timed pass; returns the raw outputs `verify` checks."""
        raise NotImplementedError

    def verify(self, outputs) -> PassResult:
        raise NotImplementedError


def _attempt(errors: list[str], tag: str, fn) -> bool:
    """Run one operation of a pass; a raise counts as a failed operation."""
    try:
        fn()
        return True
    except Exception as exc:  # the benchmark counts failures and keeps going
        errors.append(f"{tag}: {type(exc).__name__}: {exc}")
        return False


class LadderTrain(Workload):
    name = "ladder_train"
    variants = ("baseline", "ditto", f"ditto_single:{SINGLE_TARGET}")

    def setup(self) -> None:
        self.dataset = ladder_dataset(BENCH_ANGLES)
        self.config = train_config()
        n = self.dataset.domains[SOURCE].labeled.n
        self.steps_per_train = self.config.epochs * math.ceil(n / self.config.batch_size)

    def execute(self):
        ds, accs, ckas, errors = self.dataset, {}, {}, []

        def run(name: str) -> None:
            prior = None
            if name == "ditto":
                prior = ditto.compute_prior(accs["baseline"], SOURCE)
            variant = ditto.TrainVariant.parse(name, LAM, RHO)
            bundle, _ = ditto.train(self.config, ds, variant, self.seed, prior=prior)
            accs[name] = ditto.domain_accuracies(bundle, ds)
            ckas[name] = cka_per_target(bundle, ds)

        ok = [_attempt(errors, name, lambda name=name: run(name)) for name in self.variants]
        return ok, accs, ckas, errors

    def verify(self, outputs) -> PassResult:
        ok, accs, ckas, errors = outputs
        for name, per_domain in accs.items():
            for dom, acc in per_domain.items():
                if not 0.0 <= acc <= 100.0:
                    errors.append(f"{name}: accuracy {acc} on {dom} outside [0, 100]")
            if sorted(per_domain) != sorted([SOURCE] + self.dataset.target_ids()):
                errors.append(f"{name}: accuracies for {sorted(per_domain)}")
        for name, per_target in ckas.items():
            if not all(0.0 <= c <= 1.0 for c in per_target.values()):
                errors.append(f"{name}: CKA outside [0, 1]: {per_target}")
        gain = None
        if "ditto" in accs and "baseline" in accs:
            gain = mean_gain_pp(accs["ditto"], accs["baseline"], self.dataset.target_ids())
        return PassResult(
            attempted=len(ok), failed=ok.count(False),
            steps=self.steps_per_train * ok.count(True),
            digest=digest(json.dumps(accs, sort_keys=True).encode()),
            gain_pp=gain, errors=errors)


def count_runs(results: Path) -> tuple[int, int, list[dict]]:
    """(runs found, runs whose run.json status is not ok, the ok metas)."""
    metas = []
    for path in sorted(results.glob("S*/k*/*/seed*/run.json")):
        with open(path) as fh:
            metas.append(json.load(fh))
    ok = [m for m in metas if m.get("status") == "ok"]
    return len(metas), len(metas) - len(ok), ok


class GridRunAll(Workload):
    name = "grid_runall"
    warmup = 1
    summaries = ("summary.csv", "summary_per_seed.csv", "cost.csv")

    def setup(self) -> None:
        self.config_path = self.work / "grid.json"
        self.config = write_grid_config(self.seed, self.config_path)
        exp = self.config["experiment"]
        self.expected_runs = (len(exp["variants"]) * len(exp["source_fractions"])
                              * len(exp["ks"]) * len(exp["seeds"]))
        self.passes = 0

    def execute(self):
        out = self.work / f"grid{self.passes}"
        self.passes += 1
        errors = []
        _attempt(errors, "run-all", lambda: run_cli(
            ["run-all", "--config", str(self.config_path), "--out", str(out)]))
        return out, errors

    def verify(self, outputs) -> PassResult:
        out, errors = outputs
        results = out / "results"
        found, failed, metas = count_runs(results)
        if found != self.expected_runs:
            errors.append(f"found {found} run.json files, expected {self.expected_runs}")
        exp = self.config["experiment"]
        steps = 0
        for m in metas:
            rows = m["n_labeled_source"] + m["k"] * len(m["targets"])
            steps += exp["epochs"] * math.ceil(rows / exp["batch_size"])
        parts = []
        for name in self.summaries:
            path = results / name
            parts.append(path.read_bytes() if path.exists() else b"")
            if not path.exists():
                errors.append(f"missing {name}")
        gains = []
        for path in sorted(results.glob("S*/k*/ditto/seed*/eval.csv")):
            table, _ = ditto.analysis.read_eval_csv(path)
            targets = [d for d in table.domains("ditto") if d != SOURCE]
            gains.append(mean_gain_pp(
                {t: table.get("ditto", t) for t in targets},
                {t: table.get("baseline", t) for t in targets}, targets))
        shutil.rmtree(out, ignore_errors=True)
        attempted = max(found, self.expected_runs)
        return PassResult(
            attempted=attempted, failed=attempted - found + failed, steps=steps,
            digest=digest(*parts), gain_pp=float(np.mean(gains)) if gains else None,
            errors=errors, runs=found)


class LadderEval(Workload):
    name = "ladder_eval"
    warmup = 1

    def setup(self) -> None:
        self.data_dir = self.work / "data"
        self.model_path = self.work / "model.npz"
        self.eval_path = self.work / "eval.csv"
        self.analysis_dir = self.work / "analysis"
        self.dataset = ladder_dataset(LADDER_ANGLES, out_dir=self.data_dir)
        config = train_config({"epochs": EVAL_CHECKPOINT_EPOCHS})
        bundle, _ = ditto.train(config, self.dataset,
                                ditto.TrainVariant.parse("baseline", LAM, RHO), self.seed)
        ditto.save_checkpoint(bundle, str(self.model_path))
        grid_path = self.work / "grid.json"
        write_grid_config(self.seed, grid_path)
        run_cli(["run-all", "--config", str(grid_path), "--out", str(self.work / "grid")])
        self.results_dir = self.work / "grid" / "results"
        self.runs = count_runs(self.results_dir)[0]

    def execute(self):
        errors, out = [], {}

        def run_eval():
            self.eval_path.unlink(missing_ok=True)
            run_cli(["eval", "--model", str(self.model_path), "--data", str(self.data_dir),
                     "--out", str(self.eval_path)])

        def run_cka():
            out["bundle"] = ditto.load_checkpoint(str(self.model_path))
            out["cka"] = cka_per_target(out["bundle"], self.dataset)

        def run_analyze():
            shutil.rmtree(self.analysis_dir, ignore_errors=True)
            run_cli(["analyze", "--results", str(self.results_dir),
                     "--out", str(self.analysis_dir)])

        ok = [_attempt(errors, "eval", run_eval), _attempt(errors, "cka", run_cka),
              _attempt(errors, "analyze", run_analyze)]
        return ok, out, errors

    def verify(self, outputs) -> PassResult:
        ok, out, errors = outputs
        raw = self.eval_path.read_bytes() if ok[0] else b""
        if ok[0] and ok[1]:
            expected = {d: f"{a:.2f}" for d, a in
                        ditto.domain_accuracies(out["bundle"], self.dataset).items()}
            rows = list(csv.DictReader(io.StringIO(raw.decode())))
            got = {r["domain"]: r["accuracy"] for r in rows}
            if got != expected:
                errors.append(f"eval.csv {got} != domain_accuracies {expected}")
        tables = [b"", b""]
        if ok[2]:
            tables = [(self.analysis_dir / name).read_bytes()
                      for name in ("analysis.csv", "correlation.csv")]
            listed = len(tables[0].splitlines()) - 1
            if listed != self.runs:
                errors.append(f"analysis.csv lists {listed} runs, the grid has {self.runs}")
        return PassResult(
            attempted=len(ok), failed=ok.count(False), steps=0,
            digest=digest(raw, json.dumps(out.get("cka"), sort_keys=True).encode(), *tables),
            errors=errors)


WORKLOADS = {w.name: w for w in (LadderTrain, GridRunAll, LadderEval)}
