"""Grid runner, per-run artifacts, aggregate tables, and the command line."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import ditto.experiment
import ditto.model
from ditto import (
    DomainDataset,
    DomainSpec,
    DomainSplits,
    EncoderSpec,
    ExperimentConfig,
    MixtureSpec,
    Rng,
    Rows,
    SizeSpec,
    TrainConfig,
    TrainVariant,
    analyze_results,
    generate_synthetic,
    init_params,
    linear_cka,
    load_checkpoint,
    load_dataset,
    run_experiment,
    save_checkpoint,
    train,
)
from ditto.analysis import read_eval_csv, relative_gain
from ditto.cli import main
from ditto.data import Manifest
from ditto.errors import DOMAIN_ID_RULE, ConfigError, config_json, parse_config
from ditto.experiment import (
    Cell,
    DatasetConfig,
    RunRecord,
    export_features,
    write_report_jsonl,
)
from ditto.model import CheckpointMeta, ModelBundle, extract_features

from conftest import make_dataset
from test_data import spoil_split_file

TRAIN_CFG = TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[16, 8]),
                        num_classes=3, epochs=2, batch_size=32, lr=0.02, disc_lr=0.05)


def small_config(**overrides):
    defaults = dict(train=TRAIN_CFG, variants=["baseline", "ditto"], lam=0.5,
                    rho=0.05, seeds=[0, 1], source_fractions=[100], ks=[0])
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_orders_baseline_first():
    cfg = small_config(variants=["ditto", "ditto_uniform"])
    assert cfg.variants[0] == "baseline"
    cfg2 = small_config(variants=["ditto", "baseline", "ditto_uniform"])
    assert cfg2.variants == ["baseline", "ditto", "ditto_uniform"]


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(seeds=[])
    with pytest.raises(ConfigError):
        small_config(source_fractions=[50])
    with pytest.raises(ConfigError):
        small_config(ks=[-1])


def test_experiment_from_dict_overrides():
    cfg = parse_config(ExperimentConfig, {
        "encoder": {"input_dim": 2, "hidden_dims": [8], "activation": "relu"},
        "num_classes": 3, "epochs": 4, "lr": 0.005,
        "variants": ["ditto"], "lambda": 0.25, "rho": 0.1,
        "seeds": [7], "source_fractions": [10], "ks": [0, 3],
        "cost": {"c_s": 2.0, "c_t_over_s": 4.0},
    }, "experiment")
    assert cfg.train.encoder.activation == "relu"
    assert cfg.train.epochs == 4
    assert cfg.lam == 0.25
    assert cfg.variants == ["baseline", "ditto"]
    assert cfg.ks == [0, 3]
    assert cfg.c_t_over_s == 4.0
    v = cfg.variant_of("ditto")
    assert v.lam == 0.25 and v.rho == 0.1


@pytest.fixture(scope="module")
def grid_out(tmp_path_factory):
    dataset = make_dataset()
    out = tmp_path_factory.mktemp("grid")
    cfg = small_config(variants=["baseline", "ditto", "ditto_single:rot999"])
    run_experiment(cfg, dataset, out)
    return cfg, dataset, out


def test_run_artifact_layout(grid_out):
    _, _, out = grid_out
    for seed in (0, 1):
        run_dir = out / "S100" / "k0" / "ditto" / f"seed{seed}"
        for name in ("metrics.jsonl", "eval.csv", "cka.csv", "model.npz", "run.json"):
            assert (run_dir / name).exists(), (seed, name)
        meta = json.loads((run_dir / "run.json").read_text())
        assert meta["status"] == "ok"
        assert meta["variant"] == "ditto"
        assert meta["targets"] == ["rot15", "rot30", "rot45"]
        assert meta["n_labeled_source"] == 240


def test_failed_run_recorded_and_grid_continues(grid_out):
    # ditto_single:rot999 references a target the dataset lacks
    _, _, out = grid_out
    bad_dir = out / "S100" / "k0" / "ditto_single_rot999" / "seed0"
    meta = json.loads((bad_dir / "run.json").read_text())
    assert meta["status"] == "failed"
    assert "rot999" in meta["error"]
    assert (bad_dir / "error.txt").exists()
    assert not (bad_dir / "eval.csv").exists()
    # the sibling ditto runs still completed
    assert json.loads((out / "S100/k0/ditto/seed1/run.json").read_text())["status"] == "ok"


def test_summary_contents(grid_out):
    cfg, _, out = grid_out
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "variant,S100"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert rows["baseline"] == ["0.00"]
    assert rows["ditto"][0] != ""  # a numeric gain
    assert rows["ditto_single:rot999"] == [""]  # failed everywhere: empty cell


def test_summary_gain_recomputed_from_csv_values(grid_out):
    cfg, _, out = grid_out
    # find the best seed per variant by mean target accuracy, as the writer does
    def best(variant):
        best_score, best_accs = None, None
        for seed in cfg.seeds:
            table, _ = read_eval_csv(out / "S100" / "k0" / variant / f"seed{seed}" / "eval.csv")
            accs = {d: table.get(variant, d) for d in table.domains(variant)}
            score = np.mean([accs[t] for t in ("rot15", "rot30", "rot45")])
            if best_score is None or score > best_score:
                best_score, best_accs = score, accs
        return best_accs

    base, var = best("baseline"), best("ditto")
    gains = [relative_gain(base[t], var[t]) for t in ("rot15", "rot30", "rot45")]
    expect = f"{float(np.mean(gains)):.2f}"
    summary = {line.split(",")[0]: line.split(",")[1]
               for line in (out / "summary.csv").read_text().splitlines()[1:]}
    assert summary["ditto"] == expect


def test_per_seed_summary_rows(grid_out):
    cfg, _, out = grid_out
    with open(out / "summary_per_seed.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cfg.variants) * len(cfg.seeds)
    ok = [r for r in rows if r["variant"] == "ditto" and r["seed"] == "0"]
    assert len(ok) == 1 and ok[0]["mean_target_accuracy"] != ""
    failed = [r for r in rows if r["variant"] == "ditto_single:rot999"]
    assert all(r["mean_target_accuracy"] == "" for r in failed)


def test_cost_table(grid_out):
    _, _, out = grid_out
    with open(out / "cost.csv") as fh:
        rows = {(r["method"], r["S"], r["k"]): r for r in csv.DictReader(fh)}
    base = rows[("baseline", "100", "0")]
    # c_s * n = 3 * 240, no few-shot term at k=0
    assert base["cost_cents"] == "720.00"
    assert base["mean_target_accuracy"] != ""
    assert rows[("ditto_single:rot999", "100", "0")]["cost_cents"] == ""


def test_rerun_summaries_byte_identical(grid_out, tmp_path):
    cfg, dataset, out = grid_out
    out2 = tmp_path / "again"
    run_experiment(cfg, dataset, out2)
    for name in ("summary.csv", "summary_per_seed.csv", "cost.csv"):
        assert (out2 / name).read_bytes() == (out / name).read_bytes(), name


def test_checkpoint_reloads_and_scores(grid_out):
    _, dataset, out = grid_out
    bundle = load_checkpoint(out / "S100/k0/baseline/seed0/model.npz")
    from ditto import zero_shot_eval
    table = zero_shot_eval(bundle, dataset, method="reload")
    eval_table, _ = read_eval_csv(out / "S100/k0/baseline/seed0/eval.csv")
    for dom in ("src", "rot15", "rot30", "rot45"):
        # CSV stores two decimals of the same accuracy
        assert abs(table.get("reload", dom) - eval_table.get("baseline", dom)) < 0.005


def test_analyze_results_tables(grid_out, tmp_path):
    _, _, out = grid_out
    adir = analyze_results(out, tmp_path / "analysis")
    analysis = (adir / "analysis.csv").read_text().splitlines()
    assert analysis[0] == "variant,S,k,seed,mean_target_accuracy,mean_relative_gain,gap"
    assert len(analysis) == 1 + 4  # failed runs skipped: 2 variants x 2 seeds
    corr = (adir / "correlation.csv").read_text().splitlines()
    assert corr[0] == "variant,S,k,seed,pearson,spearman"
    assert len(corr) == 1 + 4


def _eval_features(bundle, dataset):
    return {dom: extract_features(bundle, split.eval.X) for dom, split in dataset.domains.items()}


def test_export_features_round_trip(grid_out, tmp_path):
    _, dataset, out = grid_out
    bundle = load_checkpoint(out / "S100/k0/ditto/seed0/model.npz")
    path = tmp_path / "features.csv"
    export_features(_eval_features(bundle, dataset), dataset, path)

    by_domain = {}
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header[:3] == ["domain", "row_index", "class_label_or_empty"]
        for row in reader:
            by_domain.setdefault(row[0], []).append([float(v) for v in row[3:]])

    src = np.array(by_domain["src"])
    far = np.array(by_domain["rot45"])
    direct = linear_cka(extract_features(bundle, dataset.domains["src"].eval.X),
                        extract_features(bundle, dataset.domains["rot45"].eval.X))
    assert abs(linear_cka(src, far) - direct) < 1e-9


def test_export_features_bytes_pinned(tmp_path):
    # relu features of hand-set weights, exact in float64; the source first
    bundle = ModelBundle(EncoderSpec(input_dim=2, hidden_dims=[2], activation="relu"), 3,
                         ["t"])
    bundle.store["encoder.layer0.W"].value[...] = [[0.5, -1.0], [0.25, 3.0]]
    bundle.store["encoder.layer0.b"].value[...] = [[0.1, 0.0]]
    X = np.array([[1.0, 2.0], [-1.0, 0.5]])
    splits = lambda X: DomainSplits(labeled=Rows(X, [0, 2]), unlabeled=X,
                                    fewshot=Rows(X, [0, 2]), eval=Rows(X, [0, 2]))
    dataset = DomainDataset(source="s,q", domains={"t": splits(X[::-1].copy()),
                                                   "s,q": splits(X)})
    export_features(_eval_features(bundle, dataset), dataset, tmp_path / "features.csv")
    assert (tmp_path / "features.csv").read_bytes() == (
        b"domain,row_index,class_label_or_empty,f0,f1\n"
        b'"s,q",0,0,1.1,5.0\n'
        b'"s,q",1,2,0.0,2.5\n'
        b"t,0,0,0.0,2.5\n"
        b"t,1,2,1.1,5.0\n")


def test_metrics_jsonl_schema(tmp_path):
    dataset = make_dataset()
    _, report = train(TRAIN_CFG, dataset, TrainVariant.parse("baseline", 1.0, 0.0), 0)
    path = tmp_path / "metrics.jsonl"
    write_report_jsonl(report, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == TRAIN_CFG.epochs + 1
    for i, rec in enumerate(lines[:-1]):
        assert rec["epoch"] == i
        assert rec["adv_loss"] is None  # baseline has no adversarial pass
        assert set(rec["per_domain_acc"]) == {"src", "rot15", "rot30", "rot45"}
    final = lines[-1]
    assert final["final"] is True
    assert final["variant"] == "baseline"
    assert final["wall_clock_seconds"] > 0
    assert final["target_sample_counts"] == {"rot15": 0, "rot30": 0, "rot45": 0}


# --- command line ------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "dataset": {
            "seed": 7,
            "base": {"means": [[0.0, 2.2], [1.9, -1.1], [-2.3, -1.4]], "sigma": 0.45},
            "domains": [
                {"id": "src", "kind": "source", "transform": {"kind": "identity"},
                 "sizes": {"labeled": 96, "unlabeled": 96, "fewshot": 12, "eval": 60}},
                {"id": "rot30", "kind": "target",
                 "transform": {"kind": "rotation", "angle": 30},
                 "sizes": {"labeled": 0, "unlabeled": 96, "fewshot": 12, "eval": 60}},
                {"id": "rot60", "kind": "target",
                 "transform": {"kind": "rotation", "angle": 60},
                 "sizes": {"labeled": 0, "unlabeled": 96, "fewshot": 12, "eval": 60}},
            ],
        },
        "experiment": {
            "encoder": {"input_dim": 2, "hidden_dims": [16, 8], "activation": "tanh"},
            "num_classes": 3, "epochs": 2, "batch_size": 32, "lr": 0.02,
            "disc_lr": 0.05, "variants": ["baseline", "ditto_uniform"],
            "lambda": 0.5, "rho": 0.05, "seeds": [0], "source_fractions": [100],
            "ks": [0], "cost": {"c_s": 3.0, "c_t_over_s": 1.0},
        },
    }))
    return path


def test_cli_generate_and_train(cli_config, tmp_path):
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(cli_config), "--out", str(data_dir)]) == 0
    assert (data_dir / "manifest.json").exists()
    assert (data_dir / "rot60.unlabeled.npy").exists()

    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cli_config), "--data", str(data_dir),
                 "--variant", "ditto_uniform", "--seed", "3",
                 "--out", str(run_dir)]) == 0
    for name in ("metrics.jsonl", "eval.csv", "model.npz", "features.csv"):
        assert (run_dir / name).exists()

    eval_out = tmp_path / "scores.csv"
    assert main(["eval", "--model", str(run_dir / "model.npz"),
                 "--data", str(data_dir), "--out", str(eval_out),
                 "--method", "check"]) == 0
    table, _ = read_eval_csv(eval_out)
    assert table.domains("check") == ["rot30", "rot60", "src"]


def test_cli_train_writes_features_csv_from_the_features_of_cka_csv(cli_config, tmp_path,
                                                                     monkeypatch):
    # a 3-domain, 3-epoch `ditto train --variant ditto` trains the baseline and
    # ditto (4 feature passes per domain each, inside train); after training,
    # zero_shot_eval and the one pass cka.csv and features.csv share make 2
    # per domain
    cfg = json.loads(cli_config.read_text())
    cfg["experiment"]["epochs"] = 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--config", str(config), "--out", str(data_dir)]) == 0
    calls, depth = {"inside": 0, "outside": 0}, []
    real_extract, real_train = ditto.model.extract_features, ditto.experiment.train

    def counted_extract(*args):
        calls["inside" if depth else "outside"] += 1
        return real_extract(*args)

    def tracked_train(*args):
        depth.append(args)
        try:
            return real_train(*args)
        finally:
            depth.pop()

    for module in (ditto.model, ditto.experiment):
        monkeypatch.setattr(module, "extract_features", counted_extract)
    monkeypatch.setattr(ditto.experiment, "train", tracked_train)
    assert main(["train", "--config", str(config), "--data", str(data_dir),
                 "--variant", "ditto", "--out", str(run_dir)]) == 0
    assert calls == {"inside": 2 * (3 + 1) * 3, "outside": 2 * 3}
    monkeypatch.undo()
    dataset = load_dataset(data_dir)  # at S100 and k0 the cell keeps every eval split
    export_features(_eval_features(load_checkpoint(run_dir / "model.npz"), dataset), dataset,
                    tmp_path / "features.csv")
    assert (run_dir / "features.csv").read_bytes() == (tmp_path / "features.csv").read_bytes()


def test_cli_train_source_fraction_and_k(cli_config, tmp_path):
    data_dir = tmp_path / "data"
    main(["generate", "--config", str(cli_config), "--out", str(data_dir)])
    run_dir = tmp_path / "frac"
    assert main(["train", "--config", str(cli_config), "--data", str(data_dir),
                 "--variant", "baseline", "--source-fraction", "10", "--k", "2",
                 "--out", str(run_dir)]) == 0
    meta = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
    assert meta["final"] is True


def test_cli_run_all_and_downstream(cli_config, tmp_path):
    out = tmp_path / "full"
    assert main(["run-all", "--config", str(cli_config), "--out", str(out)]) == 0
    assert (out / "results" / "summary.csv").exists()
    assert (out / "analysis" / "analysis.csv").exists()

    cost_path = tmp_path / "cost.csv"
    assert main(["cost", "--config", str(cli_config),
                 "--results", str(out / "results"), "--out", str(cost_path),
                 "--cs", "2.0", "--k", "7"]) == 0
    with open(cost_path) as fh:
        rows = {(r["method"], r["k"]): r for r in csv.DictReader(fh)}
    assert rows[("baseline", "0")]["cost_cents"] == "192.00"  # 2 cents x 96 rows
    assert rows[("baseline", "7")]["cost_cents"] == ""  # requested, absent

    adir = tmp_path / "tables"
    assert main(["analyze", "--results", str(out / "results"),
                 "--out", str(adir)]) == 0
    assert (adir / "correlation.csv").exists()


KINDS = ["baseline", "ditto", "ditto_minus_sam", "ditto_minus_la", "ditto_single:rot60",
         "ditto_uniform"]


@pytest.fixture(scope="module")
def kinds_grid(cli_config, tmp_path_factory):
    """(dataset dir, results dir) of a run-all over every variant kind at seed
    3, S in {100, 10} and k in {0, 4}."""
    work = tmp_path_factory.mktemp("kinds")
    assert main(["generate", "--config", str(cli_config), "--out", str(work / "data")]) == 0
    grid = [flag for kind in KINDS for flag in ("--variant", kind)]
    assert main(["run-all", "--config", str(cli_config), "--data", str(work / "data"),
                 "--out", str(work / "grid"), "--seed", "3", *grid,
                 "--source-fraction", "100", "--source-fraction", "10",
                 "--k", "0", "--k", "4"]) == 0
    return work / "data", work / "grid" / "results"


def _records_without_wall_clock(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record.pop("wall_clock_seconds", None)
    return records


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("frac,k", [(100, 0), (100, 4), (10, 0), (10, 4)])
def test_cli_train_writes_the_run_directory_run_all_writes(kinds_grid, cli_config, tmp_path,
                                                           frac, k, kind):
    data_dir, results = kinds_grid
    run_dir = tmp_path / "run"
    grid_dir = results / f"S{frac}" / f"k{k}" / kind.replace(":", "_") / "seed3"
    assert main(["train", "--config", str(cli_config), "--data", str(data_dir),
                 "--variant", kind, "--seed", "3", "--source-fraction", str(frac),
                 "--k", str(k), "--out", str(run_dir)]) == 0
    assert json.loads((grid_dir / "run.json").read_text())["status"] == "ok"
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(
        [p.name for p in grid_dir.iterdir()] + ["features.csv"])
    for name in ("eval.csv", "cka.csv", "run.json"):
        assert (run_dir / name).read_bytes() == (grid_dir / name).read_bytes(), name
    assert (_records_without_wall_clock(run_dir / "metrics.jsonl")
            == _records_without_wall_clock(grid_dir / "metrics.jsonl"))
    with np.load(run_dir / "model.npz") as ours, np.load(grid_dir / "model.npz") as theirs:
        assert ours.files == theirs.files
        for key in ours.files:
            assert np.array_equal(ours[key], theirs[key]), key


def test_every_record_parses_back_to_the_dataclass_it_was_written_from(kinds_grid):
    # generate's manifest.json, and each run.json and checkpoint `__meta__` of a grid
    data_dir, results = kinds_grid
    text = (data_dir / "manifest.json").read_text()
    manifest = parse_config(Manifest, json.loads(text), "")
    assert manifest == Manifest(source="src", domains=["src", "rot30", "rot60"], feature_dim=2)
    assert json.dumps(config_json(manifest), indent=2, sort_keys=True) + "\n" == text
    runs = sorted(results.glob("S*/k*/*/seed*/run.json"))
    assert len(runs) == 4 * len(KINDS)
    for path in runs:
        text = path.read_text()
        run = parse_config(RunRecord, json.loads(text), "")
        frac, k = int(path.parts[-5][1:]), int(path.parts[-4][1:])
        assert run == RunRecord(frac=frac, variant=run.variant, seed=3, k=k,
                                n_labeled_source=96 * frac // 100, source="src",
                                targets=["rot30", "rot60"], status="ok")
        assert path.parts[-3] == run.variant.replace(":", "_") and run.variant in KINDS
        assert json.dumps(config_json(run), indent=2, sort_keys=True) + "\n" == text
        with np.load(path.parent / "model.npz") as data:
            raw = bytes(data["__meta__"])
        meta = parse_config(CheckpointMeta, json.loads(raw), "")
        assert meta == CheckpointMeta(encoder=EncoderSpec(2, [16, 8], "tanh"), num_classes=3,
                                      target_ids=["rot30", "rot60"])
        assert json.dumps(config_json(meta)).encode() == raw


def test_cli_run_all_with_data_still_parses_the_dataset_section(cli_config, tmp_path,
                                                                 capsys):
    data_dir, out = tmp_path / "data", tmp_path / "out"
    assert main(["generate", "--config", str(cli_config), "--out", str(data_dir)]) == 0
    cfg = json.loads(cli_config.read_text())
    cfg["dataset"]["bogus"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run-all", "--config", str(bad), "--data", str(data_dir),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: dataset.bogus: unknown key\n"
    assert not out.exists()


@pytest.mark.parametrize("spoil,named", [
    (lambda domains: domains[1].update(kind="source"),
     "dataset.domains: need exactly one source domain, got 2"),
    (lambda domains: domains[2].update(id="src"), "dataset.domains[2].id: 'src' is listed twice"),
    (lambda domains: domains[2]["sizes"].update(eval=30),
     "dataset.domains[2].sizes.eval: must equal the first domain's eval size 60 (eval rows "
     "are paired), got 30"),
], ids=["two_sources", "repeated_id", "unequal_eval"])
@pytest.mark.parametrize("command", ["generate", "run-all"])
def test_cli_bad_domain_list_is_one_error_in_generate_and_run_all(cli_config, tmp_path, capsys,
                                                                 spoil, named, command):
    # run-all checks the dataset section even when --data names a dataset to use
    data_dir, out = tmp_path / "data", tmp_path / "out"
    assert main(["generate", "--config", str(cli_config), "--out", str(data_dir)]) == 0
    cfg = json.loads(cli_config.read_text())
    spoil(cfg["dataset"]["domains"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    capsys.readouterr()
    data = ["--data", str(data_dir)] if command == "run-all" else []
    assert main([command, "--config", str(bad), *data, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not out.exists()


def test_cli_run_all_refuses_a_colon_in_a_domain_id(cli_config, tmp_path, capsys):
    # ':' separates a variant's kind from its target, and each variant's run
    # directory spells it '_': 'ditto_single:a:b' and 'ditto_single:a_b'
    # would write one directory
    cfg = json.loads(cli_config.read_text())
    cfg["dataset"]["domains"][1]["id"], cfg["dataset"]["domains"][2]["id"] = "a:b", "a_b"
    cfg["experiment"].update(epochs=1, variants=["ditto_single:a:b", "ditto_single:a_b"])
    config, out = tmp_path / "colon.json", tmp_path / "out"
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run-all", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: experiment.variants[0]: domain id 'a:b' must "
                                       f"be {DOMAIN_ID_RULE}\n")
    assert not out.exists()


def test_cli_run_all_on_a_dataset_without_targets_fails_before_training(cli_config, tmp_path,
                                                                       capsys):
    cfg = json.loads(cli_config.read_text())
    cfg["dataset"]["domains"] = cfg["dataset"]["domains"][:1]
    config, out = tmp_path / "source_only.json", tmp_path / "out"
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run-all", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the dataset has no target domain\n"
    assert sorted(p.name for p in out.iterdir()) == ["data"]  # nothing trained


def test_cli_missing_config_is_error(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "d")]) == 2


def _rewrite_model(run_dir, edit):
    with np.load(run_dir / "model.npz") as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    np.savez(run_dir / "model.npz", **arrays)


def _drop_arena(run_dir, data_dir):
    _rewrite_model(run_dir, lambda arrays: arrays.pop("params"))
    return "model.npz: no 'params' entry"


def _model_nan_weight(run_dir, data_dir):
    _rewrite_model(run_dir, lambda arrays: arrays["params"].__setitem__(0, np.nan))
    return "model.npz: parameter 'encoder.layer0.W' holds a non-finite value"


def _model_float32(run_dir, data_dir):
    _rewrite_model(run_dir, lambda arrays: arrays.update(
        params=arrays["params"].astype(np.float32)))
    return "model.npz: 'params': holds [('', '<f4')] rows, expected [('', '<f8')]"


def _model_per_parameter_form(run_dir, data_dir):
    bundle = load_checkpoint(run_dir / "model.npz")
    _rewrite_model(run_dir, lambda arrays: arrays.update(
        {f"param::{name}": bundle.store[name].value for name in bundle.store.names()}))
    return "model.npz: unexpected entry 'param::encoder.layer0.W'"


def _drop_manifest(run_dir, data_dir):
    (data_dir / "manifest.json").unlink()
    return "manifest.json"


def _split_fault(case):
    """A spoiler applying the split file fault `case` of `test_data` to rot30."""
    return lambda run_dir, data_dir: spoil_split_file(data_dir, "rot30", case)[1]


def _model_is_a_directory(run_dir, data_dir):
    (run_dir / "model.npz").unlink()
    (run_dir / "model.npz").mkdir()
    return "model.npz"


def _manifest_not_json(run_dir, data_dir):
    (data_dir / "manifest.json").write_text("{not json")
    return "manifest.json: not valid JSON"


def _manifest_empty(run_dir, data_dir):
    (data_dir / "manifest.json").write_text("{}")
    return "manifest.json: source: required key missing"


def _model_not_npz(run_dir, data_dir):
    (run_dir / "model.npz").write_text("not an archive")
    return "model.npz: not a checkpoint archive"


def _model_without_meta(run_dir, data_dir):
    with np.load(run_dir / "model.npz") as data:
        arrays = {key: data[key] for key in data.files if key != "__meta__"}
    np.savez(run_dir / "model.npz", **arrays)
    return "model.npz: no '__meta__' entry"


def _model_wider_input(run_dir, data_dir):
    spec = EncoderSpec(input_dim=3, hidden_dims=[16, 8])
    save_checkpoint(init_params(spec, 3, ["rot30", "rot60"], Rng(0)), run_dir / "model.npz")
    return "model.npz: checkpoint input_dim 3 does not match the dataset's 2 feature columns"


def _model_fewer_classes(run_dir, data_dir):
    spec = EncoderSpec(input_dim=2, hidden_dims=[16, 8])
    save_checkpoint(init_params(spec, 2, ["rot30", "rot60"], Rng(0)), run_dir / "model.npz")
    return (f"{run_dir / 'model.npz'}: checkpoint num_classes 2 is too few for label 2 of "
            f"domain 'src' split eval, read from {data_dir / 'src.eval.npy'}")


def _split_label_past_classes(run_dir, data_dir):
    path = data_dir / "rot60.eval.npy"
    rows = np.load(path, allow_pickle=False)
    rows["label"][1] = 7
    np.save(path, rows, allow_pickle=False)
    return (f"{run_dir / 'model.npz'}: checkpoint num_classes 3 is too few for label 7 of "
            f"domain 'rot60' split eval, read from {path}")


@pytest.mark.parametrize("spoil", [_drop_arena, _drop_manifest, _split_fault("text_file"),
                                   _split_fault("pickled_object_array"),
                                   _split_fault("wrong_width"), _split_fault("empty_file"),
                                   _split_fault("big_endian"),
                                   _split_fault("header_unclosed_bracket"),
                                   _split_fault("python2_header"), _split_fault("nan_feature"),
                                   _manifest_not_json, _manifest_empty, _model_not_npz,
                                   _model_without_meta, _model_is_a_directory,
                                   _model_wider_input, _model_fewer_classes,
                                   _split_label_past_classes, _model_nan_weight, _model_float32,
                                   _model_per_parameter_form],
                         ids=["checkpoint_missing_param", "no_manifest", "split_not_npy",
                              "split_object_array", "split_wrong_width", "split_empty_file",
                              "split_big_endian", "split_header_unclosed_bracket",
                              "split_python2_header", "split_nan_feature",
                              "manifest_not_json", "manifest_empty", "model_not_npz",
                              "model_without_meta", "model_is_a_directory",
                              "model_input_dim_misfit", "model_num_classes_misfit",
                              "split_label_past_num_classes", "model_nan_weight", "model_float32",
                              "model_per_parameter_form"])
def test_cli_eval_bad_input_is_one_line_error(cli_config, tmp_path, capsys, spoil):
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--config", str(cli_config), "--out", str(data_dir)]) == 0
    cfg = json.loads(cli_config.read_text())["experiment"]
    spec = EncoderSpec(**cfg["encoder"])
    run_dir.mkdir()
    save_checkpoint(init_params(spec, cfg["num_classes"], ["rot30", "rot60"], Rng(0)),
                    run_dir / "model.npz")
    named = spoil(run_dir, data_dir)
    capsys.readouterr()
    assert main(["eval", "--model", str(run_dir / "model.npz"), "--data", str(data_dir),
                 "--out", str(tmp_path / "scores.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "scores.csv").exists()


def _data_and_checkpoint(cli_config, tmp_path):
    """A generated dataset directory and a fitting untrained checkpoint."""
    data_dir, model = tmp_path / "data", tmp_path / "model.npz"
    assert main(["generate", "--config", str(cli_config), "--out", str(data_dir)]) == 0
    spec = EncoderSpec(**json.loads(cli_config.read_text())["experiment"]["encoder"])
    save_checkpoint(init_params(spec, 3, ["rot30", "rot60"], Rng(0)), model)
    return data_dir, model


def _spoil_training_splits(data_dir):
    """Break a file of each training split; every eval split stays intact."""
    (data_dir / "rot30.labeled.npy").unlink()
    (data_dir / "src.unlabeled.npy").write_text("not,a,header\n")
    path = data_dir / "rot60.fewshot.npy"
    rows = np.load(path, allow_pickle=False)
    rows["x"][1, 1] = np.nan
    np.save(path, rows, allow_pickle=False)


def test_cli_eval_ignores_broken_training_splits(cli_config, tmp_path):
    data_dir, model = _data_and_checkpoint(cli_config, tmp_path)
    argv = ["eval", "--model", str(model), "--data", str(data_dir), "--out"]
    assert main(argv + [str(tmp_path / "intact.csv")]) == 0
    _spoil_training_splits(data_dir)
    assert main(argv + [str(tmp_path / "spoiled.csv")]) == 0
    assert (tmp_path / "spoiled.csv").read_bytes() == (tmp_path / "intact.csv").read_bytes()


@pytest.mark.parametrize("command", ["train", "run-all"])
def test_cli_training_still_reads_every_split(cli_config, tmp_path, capsys, command):
    data_dir, _ = _data_and_checkpoint(cli_config, tmp_path)
    _spoil_training_splits(data_dir)
    capsys.readouterr()
    assert main([command, "--config", str(cli_config), "--data", str(data_dir),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {data_dir / 'src.unlabeled.npy'}: not a .npy split file (the magic string "
        f"is not correct; expected b'\\x93NUMPY', got b'not,a,')\n")


def test_cli_eval_reads_one_split_file_per_domain(cli_config, tmp_path, monkeypatch):
    import ditto.data

    data_dir, model = _data_and_checkpoint(cli_config, tmp_path)
    read = []
    read_split = ditto.data._read_split

    def counted(path, dim, labeled):
        read.append(path.name)
        return read_split(path, dim, labeled)

    monkeypatch.setattr(ditto.data, "_read_split", counted)
    assert main(["eval", "--model", str(model), "--data", str(data_dir),
                 "--out", str(tmp_path / "eval.csv")]) == 0
    assert read == ["src.eval.npy", "rot30.eval.npy", "rot60.eval.npy"]
    read.clear()
    ditto.data.load_dataset(data_dir)
    assert read == [f"{dom}.{split}.npy" for dom in ("src", "rot30", "rot60")
                    for split in ("labeled", "unlabeled", "fewshot", "eval")]


def test_cli_eval_of_a_csv_dataset_directory_is_one_error_naming_it(cli_config, tmp_path,
                                                                    capsys):
    data_dir, model = _data_and_checkpoint(cli_config, tmp_path)
    for path in data_dir.glob("*.npy"):  # the older form: one CSV per split
        path.with_suffix(".csv").write_text("domain,split,label,f0,f1\n")
        path.unlink()
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(data_dir),
                 "--out", str(tmp_path / "eval.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {data_dir}: holds the CSV dataset form, which is no longer read; write the "
        f"dataset again with `ditto generate`\n")
    assert not (tmp_path / "eval.csv").exists()


def test_cli_run_all_respects_variant_restriction(cli_config, tmp_path):
    out = tmp_path / "restricted"
    assert main(["run-all", "--config", str(cli_config), "--out", str(out),
                 "--variant", "baseline", "--seed", "5"]) == 0
    runs = sorted(p.parent.name for p in (out / "results").glob("S*/k*/*/seed*/run.json"))
    assert runs == ["seed5"]
    variants = sorted(p.name for p in (out / "results" / "S100" / "k0").iterdir())
    assert variants == ["baseline"]


# --- strict config parsing -----------------------------------------------------


MALFORMED = {
    # (section, spoil the section in place, JSON path the error must name)
    "typo_keys": ("experiment", lambda e: e.update(lamda=0.0, epoch=1), "experiment.lamda"),
    "float_epochs": ("experiment", lambda e: e.update(epochs=2.9), "experiment.epochs"),
    "bool_as_int": ("experiment", lambda e: e.update(num_classes=True),
                    "experiment.num_classes"),
    "variants_string": ("experiment", lambda e: e.update(variants="ditto"),
                        "experiment.variants"),
    "hidden_dims_string": ("experiment", lambda e: e["encoder"].update(hidden_dims="32"),
                           "experiment.encoder.hidden_dims"),
    "sigmoid_activation": ("experiment", lambda e: e["encoder"].update(activation="sigmoid"),
                           "experiment.encoder.activation"),
    "unknown_cost_key": ("experiment", lambda e: e["cost"].update(c_u=1.0),
                         "experiment.cost.c_u"),
    "rho_grid": ("experiment", lambda e: e.update(rho_grid=[0.01, 0.05]),
                 "experiment.rho_grid"),
    "out_dir": ("experiment", lambda e: e.update(out_dir="results"), "experiment.out_dir"),
    "no_base": ("dataset", lambda d: d.pop("base"), "dataset.base"),
    "no_eval_size": ("dataset", lambda d: d["domains"][1]["sizes"].pop("eval"),
                     "dataset.domains[1].sizes.eval"),
    "no_sizes": ("dataset", lambda d: d["domains"][1].pop("sizes"),
                 "dataset.domains[1].sizes"),
    "no_transform": ("dataset", lambda d: d["domains"][1].pop("transform"),
                     "dataset.domains[1].transform"),
    "unknown_variant": ("experiment", lambda e: e.update(variants=["baseline", "dito"]),
                        "experiment.variants[1]"),
    "rotation_without_angle": ("dataset", lambda d: d["domains"][1]["transform"].pop("angle"),
                               "dataset.domains[1].transform.angle"),
    "angle_string": ("dataset", lambda d: d["domains"][1]["transform"].update(angle="abc"),
                     "dataset.domains[1].transform.angle"),
    "sigma_string": ("dataset", lambda d: d["domains"][1].update(
        transform={"kind": "noise", "sigma": "x"}), "dataset.domains[1].transform.sigma"),
    "perm_string": ("dataset", lambda d: d["domains"][1].update(
        transform={"kind": "permutation", "perm": "ab"}), "dataset.domains[1].transform.perm"),
    "unknown_transform_key": ("dataset", lambda d: d["domains"][1].update(
        transform={"kind": "translation", "offset": [1.0], "bogus": 3}),
        "dataset.domains[1].transform.bogus"),
    "empty_ks": ("experiment", lambda e: e.update(ks=[]), "experiment.ks"),
    "empty_source_fractions": ("experiment", lambda e: e.update(source_fractions=[]),
                               "experiment.source_fractions"),
    "domain_id_climbs_out": ("dataset", lambda d: d["domains"][1].update(id="../escape"),
                             "dataset.domains[1].id"),
    "empty_domain_id": ("dataset", lambda d: d["domains"][1].update(id=""),
                        "dataset.domains[1].id"),
    "domain_id_with_comma": ("dataset", lambda d: d["domains"][1].update(id="a,b"),
                             "dataset.domains[1].id"),
    "domain_id_with_nul": ("dataset", lambda d: d["domains"][1].update(id="a\u0000b"),
                           "dataset.domains[1].id"),
    "negative_seed": ("experiment", lambda e: e.update(seeds=[0, -1]), "experiment.seeds[1]"),
    "negative_k": ("experiment", lambda e: e.update(ks=[-2]), "experiment.ks[0]"),
    "negative_dataset_seed": ("dataset", lambda d: d.update(seed=-1), "dataset.seed"),
    "single_target_climbs_out": ("experiment", lambda e: e.update(
        variants=["baseline", "ditto_single:../rot30"]), "experiment.variants[1]"),
    "negative_lambda": ("experiment", lambda e: e.update({"lambda": -0.25}),
                        "experiment.lambda"),
    "negative_rho": ("experiment", lambda e: e.update(rho=-0.1), "experiment.rho"),
    "nan_lambda": ("experiment", lambda e: e.update({"lambda": float("nan")}),
                   "experiment.lambda"),
    "nan_lr": ("experiment", lambda e: e.update(lr=float("nan")), "experiment.lr"),
    "lr_past_float_range": ("experiment", lambda e: e.update(lr=10 ** 400), "experiment.lr"),
    "inf_weight_decay": ("experiment", lambda e: e.update(weight_decay=float("inf")),
                         "experiment.weight_decay"),
    "negative_weight_decay": ("experiment", lambda e: e.update(weight_decay=-0.5),
                              "experiment.weight_decay"),
    "nan_cost": ("experiment", lambda e: e["cost"].update(c_s=float("nan")),
                 "experiment.cost.c_s"),
    "nan_base_sigma": ("dataset", lambda d: d["base"].update(sigma=float("nan")),
                       "dataset.base.sigma"),
    "repeated_variant": ("experiment", lambda e: e.update(
        variants=["baseline", "ditto", "ditto"]), "experiment.variants[2]"),
    "repeated_seed": ("experiment", lambda e: e.update(seeds=[0, 0]), "experiment.seeds[1]"),
    "repeated_k": ("experiment", lambda e: e.update(ks=[0, 0]), "experiment.ks[1]"),
    "repeated_source_fraction": ("experiment", lambda e: e.update(source_fractions=[100, 100]),
                                 "experiment.source_fractions[1]"),
    "source_fraction_50": ("experiment", lambda e: e.update(source_fractions=[100, 50]),
                           "experiment.source_fractions[1]"),
    "negative_epochs": ("experiment", lambda e: e.update(epochs=-1), "experiment.epochs"),
    "zero_batch_size": ("experiment", lambda e: e.update(batch_size=0),
                        "experiment.batch_size"),
    "zero_lr": ("experiment", lambda e: e.update(lr=0.0), "experiment.lr"),
    "one_class": ("experiment", lambda e: e.update(num_classes=1), "experiment.num_classes"),
    "zero_input_dim": ("experiment", lambda e: e["encoder"].update(input_dim=0),
                       "experiment.encoder.input_dim"),
    "zero_hidden_dim": ("experiment", lambda e: e["encoder"].update(hidden_dims=[4, 0]),
                        "experiment.encoder.hidden_dims[1]"),
    "negative_cost": ("experiment", lambda e: e["cost"].update(c_s=-1.0),
                      "experiment.cost.c_s"),
    "negative_base_sigma": ("dataset", lambda d: d["base"].update(sigma=-0.5),
                            "dataset.base.sigma"),
    "zero_width_means": ("dataset", lambda d: d["base"].update(means=[[], [], []]),
                         "dataset.base.means"),
    "zero_eval_size": ("dataset", lambda d: d["domains"][0]["sizes"].update(eval=0),
                       "dataset.domains[0].sizes.eval"),
    "negative_labeled_size": ("dataset", lambda d: d["domains"][0]["sizes"].update(labeled=-1),
                              "dataset.domains[0].sizes.labeled"),
}


@pytest.mark.parametrize("case", list(MALFORMED), ids=list(MALFORMED))
def test_malformed_config_names_its_json_path(cli_config, case):
    section, spoil, path = MALFORMED[case]
    cfg = json.loads(cli_config.read_text())[section]
    spoil(cfg)
    cls = ExperimentConfig if section == "experiment" else DatasetConfig
    with pytest.raises(ConfigError) as exc:
        parse_config(cls, cfg, section)
    assert str(exc.value).startswith(path + ":"), str(exc.value)
    assert exc.value.key == path  # the full JSON path, which the CLI maps to a flag


@pytest.mark.parametrize("command,case", [("run-all", "typo_keys"), ("generate", "no_base"),
                                          ("run-all", "unknown_variant"),
                                          ("generate", "rotation_without_angle"),
                                          ("generate", "angle_string"),
                                          ("generate", "unknown_transform_key"),
                                          ("run-all", "empty_ks"),
                                          ("run-all", "empty_source_fractions"),
                                          ("generate", "domain_id_climbs_out"),
                                          ("generate", "domain_id_with_nul"),
                                          ("run-all", "domain_id_with_comma"),
                                          ("run-all", "negative_seed"),
                                          ("generate", "negative_dataset_seed"),
                                          ("run-all", "single_target_climbs_out"),
                                          ("run-all", "negative_lambda"),
                                          ("run-all", "negative_rho"),
                                          ("run-all", "repeated_variant"),
                                          ("run-all", "repeated_seed"),
                                          ("run-all", "nan_cost"),
                                          ("run-all", "negative_weight_decay"),
                                          ("run-all", "negative_epochs"),
                                          ("generate", "nan_base_sigma"),
                                          ("generate", "zero_width_means")])
def test_cli_malformed_config_is_one_line_error(cli_config, tmp_path, capsys, command, case):
    section, spoil, path = MALFORMED[case]
    cfg = json.loads(cli_config.read_text())
    spoil(cfg[section])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err
    assert not (tmp_path / "out").exists()  # nothing generated or trained


@pytest.mark.parametrize("command", ["train", "run-all"])
@pytest.mark.parametrize("spoil,named", [
    (MALFORMED["nan_lr"][1], "experiment.lr: expected a finite number, got NaN"),
    (lambda e: e["encoder"].update(input_dim=3),
     "experiment.encoder.input_dim: 3 does not match the dataset's 2 feature columns"),
    (lambda e: e.update(num_classes=2),
     "experiment.num_classes: 2 is too few for label 2 of domain 'src' split labeled"),
], ids=["nan_lr", "input_dim_misfit", "num_classes_misfit"])
def test_cli_experiment_that_does_not_fit_is_one_line_error(cli_config, tmp_path, capsys,
                                                           command, spoil, named):
    data_dir, out = tmp_path / "data", tmp_path / "out"
    assert main(["generate", "--config", str(cli_config), "--out", str(data_dir)]) == 0
    cfg = json.loads(cli_config.read_text())
    spoil(cfg["experiment"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([command, "--config", str(bad), "--data", str(data_dir),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {named}\n"
    assert not out.exists()  # nothing trained or written, no directory made


@pytest.mark.parametrize("flags,named", [
    (["--variant", "ditto", "--variant", "ditto"],
     "experiment.variants[1] (--variant): 'ditto' is listed twice"),
    (["--k", "0", "--k", "0"], "experiment.ks[1] (--k): 0 is listed twice"),
], ids=["variant", "k"])
def test_cli_run_all_repeated_flag_is_one_line_error(cli_config, tmp_path, capsys, flags,
                                                    named):
    capsys.readouterr()
    assert main(["run-all", "--config", str(cli_config), "--out", str(tmp_path / "out"),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


def test_cli_run_all_builds_every_cell_before_training_any(cli_config, tmp_path, capsys):
    # the k=0 cells would train, but the k=50 cells cannot draw their few-shot rows
    data_dir, out = tmp_path / "data", tmp_path / "out"
    assert main(["generate", "--config", str(cli_config), "--out", str(data_dir)]) == 0
    capsys.readouterr()
    assert main(["run-all", "--config", str(cli_config), "--data", str(data_dir),
                 "--out", str(out), "--k", "0", "--k", "50"]) == 2
    err = capsys.readouterr().err
    assert err == "error: target 'rot30' few-shot pool has 12 labeled rows, need 50\n"
    assert not out.exists()  # no run directory, no summary


def test_cli_run_all_corrupt_stale_run_is_one_line_error(cli_config, tmp_path, capsys):
    # a run the config does not list is still read back, so it must parse
    stale = tmp_path / "out" / "results" / "S100" / "k0" / "ditto" / "seed9"
    stale.mkdir(parents=True)
    (stale / "run.json").write_text("{oops")
    capsys.readouterr()
    assert main(["run-all", "--config", str(cli_config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed9/run.json: not valid JSON" in err


@pytest.mark.parametrize("text,named", [
    ('{"dataset": {}, "experimnt": {}}', "experimnt"),
    ('{"experiment": {"epochs": 3,}}', "not valid JSON"),
    ('[{"experiment": {}}]', "expected an object"),
], ids=["unknown_section", "not_json", "not_an_object"])
def test_cli_bad_config_file_is_one_line_error(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["run-all", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_cli_config_that_is_a_directory_is_one_line_error(tmp_path, capsys):
    capsys.readouterr()
    assert main(["generate", "--config", str(tmp_path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"Is a directory: '{tmp_path}'" in err


def test_criterion_10_config_parses_as_before():
    experiment = {
        "encoder": {"input_dim": 2, "hidden_dims": [16, 8], "activation": "tanh"},
        "num_classes": 3, "epochs": 3, "batch_size": 32, "lr": 0.02,
        "disc_lr": 0.1, "variants": ["baseline", "ditto", "ditto_minus_sam"],
        "lambda": 0.25, "rho": 0.05, "seeds": [0, 1], "source_fractions": [100, 10],
        "ks": [0, 4], "cost": {"c_s": 3.0, "c_t_over_s": 1.0},
    }
    sizes = {"labeled": 0, "unlabeled": 128, "fewshot": 16, "eval": 90}
    dataset = {
        "seed": 5,
        "base": {"means": [[0.0, 1.8], [3.0, 0.0], [-3.44, -2.409]], "sigma": 0.55},
        "domains": [
            {"id": "src", "kind": "source", "transform": {"kind": "identity"},
             "sizes": {**sizes, "labeled": 128}},
            {"id": "rot25", "kind": "target",
             "transform": {"kind": "rotation", "angle": 25}, "sizes": sizes},
        ],
    }
    assert parse_config(ExperimentConfig, experiment, "experiment") == ExperimentConfig(
        train=TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[16, 8],
                                              activation="tanh"),
                          num_classes=3, epochs=3, batch_size=32, lr=0.02, disc_lr=0.1,
                          weight_decay=0.0),
        variants=["baseline", "ditto", "ditto_minus_sam"], lam=0.25, rho=0.05,
        seeds=[0, 1], source_fractions=[100, 10], ks=[0, 4], c_s=3.0, c_t_over_s=1.0)
    assert parse_config(DatasetConfig, dataset, "dataset") == DatasetConfig(
        base=MixtureSpec(means=[[0.0, 1.8], [3.0, 0.0], [-3.44, -2.409]], sigma=0.55),
        domains=[
            DomainSpec("src", "source", {"kind": "identity"},
                       SizeSpec(labeled=128, unlabeled=128, fewshot=16, eval=90)),
            DomainSpec("rot25", "target", {"kind": "rotation", "angle": 25},
                       SizeSpec(labeled=0, unlabeled=128, fewshot=16, eval=90)),
        ],
        seed=5)


def test_readme_config_example_parses_strictly():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config file", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = json.loads(block)
    assert set(cfg) == {"dataset", "experiment"}
    exp = parse_config(ExperimentConfig, cfg["experiment"], "experiment")
    data = parse_config(DatasetConfig, cfg["dataset"], "dataset")
    assert exp.variants[0] == "baseline"
    assert [d.kind for d in data.domains].count("source") == 1


README_JSON = re.findall(r"```json\n(.*?)```",
                         (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.S)


@pytest.mark.parametrize("block", README_JSON, ids=[f"block{i}" for i in range(len(README_JSON))])
def test_readme_json_block_is_a_config_that_fits_its_dataset(block):
    cfg = json.loads(block)
    assert cfg and set(cfg) <= {"dataset", "experiment"}
    if "dataset" in cfg:
        data = parse_config(DatasetConfig, cfg["dataset"], "dataset")
        dataset = generate_synthetic(data.base, data.domains, Rng(data.seed))
    if "experiment" in cfg:
        exp = parse_config(ExperimentConfig, cfg["experiment"], "experiment")
    if len(cfg) == 2:
        Cell(exp, dataset, 100, 0, 0)  # the experiment fits the dataset it documents


@pytest.mark.parametrize("argv,path", [
    (["train", "--variant", "baseline", "--k", "-1"], "experiment.ks[0]"),
    (["run-all", "--k", "0", "--k", "-1"], "experiment.ks[1]"),
    (["cost", "--results", "results", "--k", "-1"], "experiment.ks[1]"),
    (["train", "--variant", "baseline", "--seed", "-1"], "experiment.seeds[0]"),
    (["generate", "--seed", "-3"], "dataset.seed"),
    (["run-all", "--seed", "-1"], "experiment.seeds[0]"),
], ids=["train", "run-all", "cost", "train_seed", "generate_seed", "run-all_seed"])
def test_cli_negative_k_or_seed_rejected_before_training(cli_config, tmp_path, capsys, argv,
                                                         path):
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(cli_config), "--out", str(data_dir)]) == 0
    command, *flags = argv
    extra = ["--data", str(data_dir)] if command == "train" else []
    capsys.readouterr()
    assert main([command, "--config", str(cli_config), "--out", str(tmp_path / "out"),
                 *extra, *flags]) == 2
    assert capsys.readouterr().err == (f"error: {path} ({flags[-2]}): must be >= 0, "
                                       f"got {flags[-1]}\n")
    assert not (tmp_path / "out").exists()


def test_cli_parser_serves_one_call_after_another(cli_config, tmp_path, capsys):
    data_dir, model = _data_and_checkpoint(cli_config, tmp_path)  # a successful `generate`
    train = ["train", "--config", str(cli_config), "--data", str(data_dir),
             "--out", str(tmp_path / "run")]
    capsys.readouterr()
    for bad, message in ((["--k", "x"], "argument --k: invalid int value: 'x'"),
                         (["--bogus"], "unrecognized arguments: --bogus")):
        with pytest.raises(SystemExit) as exc:
            main(train + bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ditto ") and err.endswith(f": error: {message}\n")
    assert not (tmp_path / "run").exists()
    scores = tmp_path / "scores.csv"
    assert main(["eval", "--model", str(model), "--data", str(data_dir),
                 "--out", str(scores), "--method", "m"]) == 0
    assert scores.read_text().splitlines()[1].split(",")[1] == "m"


@pytest.mark.parametrize("results,flags,named", [
    ("nope", [], "nope"),
    (".", ["--cs", "nan"], "experiment.cost.c_s (--cs): expected a finite number, got NaN"),
    (".", ["--cs", "inf"],
     "experiment.cost.c_s (--cs): expected a finite number, got Infinity"),
    (".", ["--ct-over-s", "inf"],
     "experiment.cost.c_t_over_s (--ct-over-s): expected a finite number, got Infinity"),
], ids=["missing_results", "nan_cs", "inf_cs", "inf_ct_over_s"])
def test_cli_cost_failure_leaves_no_out_directory(cli_config, tmp_path, capsys, results,
                                                  flags, named):
    capsys.readouterr()
    assert main(["cost", "--config", str(cli_config), "--results", str(tmp_path / results),
                 "--out", str(tmp_path / "made" / "cost.csv"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "made").exists()


def test_cli_cost_rejects_negative_cost_constant(cli_config, tmp_path, capsys):
    capsys.readouterr()
    assert main(["cost", "--config", str(cli_config), "--results", str(tmp_path),
                 "--out", str(tmp_path / "cost.csv"), "--cs", "-1"]) == 2
    assert capsys.readouterr().err == ("error: experiment.cost.c_s (--cs): "
                                       "must be >= 0, got -1.0\n")
    assert not (tmp_path / "cost.csv").exists()


# every overriding flag of every command that takes it: (command, flags, the
# error line's key path and reason); each flag names the JSON key it sets
REJECTED_FLAGS = {
    ("cost", "--cs"): (["--cs", "-1"], "experiment.cost.c_s", "must be >= 0, got -1.0"),
    ("cost", "--ct-over-s"): (["--ct-over-s", "nan"], "experiment.cost.c_t_over_s",
                              "expected a finite number, got NaN"),
    ("cost", "--k"): (["--k", "-1"], "experiment.ks[1]", "must be >= 0, got -1"),
    ("generate", "--seed"): (["--seed", "-3"], "dataset.seed", "must be >= 0, got -3"),
    **{(command, flag): case for command in ("train", "run-all") for flag, case in {
        "--seed": (["--seed", "-1"], "experiment.seeds[0]", "must be >= 0, got -1"),
        "--k": (["--k", "-1"], "experiment.ks[0]", "must be >= 0, got -1"),
        "--source-fraction": (["--source-fraction", "5"], "experiment.source_fractions[0]",
                              "must be in {1,10,100}, got 5"),
        "--variant": (["--variant", "bogus"], "experiment.variants[0]",
                      "unknown variant name 'bogus'"),
    }.items()},
}


def test_every_overriding_flag_has_a_rejection_case():
    from ditto.cli import FLAG_KEYS
    assert set(REJECTED_FLAGS) == {(command, flag) for command, flags in FLAG_KEYS.items()
                                   for flag in flags}
    for (command, flag), (_, path, _) in REJECTED_FLAGS.items():
        assert path.split("[")[0] == FLAG_KEYS[command][flag]


@pytest.mark.parametrize("command,flag", list(REJECTED_FLAGS),
                         ids=[f"{command}{flag}" for command, flag in REJECTED_FLAGS])
def test_cli_rejected_flag_names_its_key_and_itself(cli_config, tmp_path, capsys, command,
                                                   flag):
    flags, path, reason = REJECTED_FLAGS[command, flag]
    extra = {"cost": ["--results", str(tmp_path)], "train": ["--data", str(tmp_path)]}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cli_config), "--out", str(out),
                 *extra.get(command, []), *flags]) == 2
    assert capsys.readouterr().err == f"error: {path} ({flag}): {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("spoil,flags,named", [
    (lambda e: e.update(ks=[-2]), ["--k", "8"], "experiment.ks[0]: must be >= 0, got -2"),
    (lambda e: e.update(ks=[0, 0]), ["--k", "8"],
     "experiment.ks[1]: 0 is listed twice"),
    (lambda e: e.update(ks="0"), ["--k", "8"], "experiment.ks: expected a list, got \"0\""),
    (lambda e: e.update(cost=3.0), ["--cs", "1"], "experiment.cost: expected an object, got 3.0"),
], ids=["negative_k", "repeated_k", "ks_string", "cost_number"])
def test_cli_cost_config_error_beside_a_flag_is_the_configs(cli_config, tmp_path, capsys,
                                                           spoil, flags, named):
    # a bad value of the file keeps its message and names no flag
    cfg = json.loads(cli_config.read_text())
    spoil(cfg["experiment"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["cost", "--config", str(bad), "--results", str(tmp_path),
                 "--out", str(tmp_path / "out" / "cost.csv"), *flags]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "out").exists()
