"""The aggregate tables of a hand-built results directory.

The directory holds run.json, eval.csv and cka.csv files written directly,
with no training, so every edge case of the read-back path is pinned by
exact bytes: a best-of-seeds tie, failed runs, an ok run without eval.csv, a
0.00 baseline, and a stale run the config does not list.
"""

import dataclasses
import json
import shutil

import pytest

import ditto.experiment
from ditto import EncoderSpec, ExperimentConfig, TrainConfig, analyze_results
from ditto.analysis import EvalTable, write_cka_csv, write_eval_csv
from ditto.cli import main
from ditto.errors import DataError
from ditto.experiment import write_cost_csv, write_summaries

TARGETS = ["t1", "t2", "t3"]

# seeds in descending order: a best-of-seeds tie keeps the first listed seed
CONFIG = ExperimentConfig(
    train=TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[4]),
                      num_classes=3, epochs=1),
    variants=["baseline", "ditto", "ditto_single:t2"],
    seeds=[1, 0], source_fractions=[100, 10], ks=[0, 4], c_s=3.0, c_t_over_s=2.0)


def _run(results, frac, k, variant, seed, accs=None, base=None, ckas=(0.9, 0.8, 0.7),
         status="ok", targets=TARGETS):
    """One run directory as the grid runner leaves it; `accs` and `base` are
    the variant's and the same-cell baseline's accuracies on the source and
    then `targets`, and no `accs` means no eval.csv."""
    run_dir = results / f"S{frac}" / f"k{k}" / variant.replace(":", "_") / f"seed{seed}"
    run_dir.mkdir(parents=True)
    meta = {"variant": variant, "seed": seed, "S": frac, "k": k, "source": "src",
            "targets": targets, "n_labeled_source": frac, "status": status}
    (run_dir / "run.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if accs is None:
        return run_dir
    table = EvalTable(source="src")
    for method, values in ((variant, accs), ("baseline", base or ())):
        for dom, acc in zip(("src", *targets), values):
            table.add(method, dom, acc)
    write_eval_csv(table, run_dir / "eval.csv")
    write_cka_csv(dict(zip(targets, ckas)), dict(zip(targets, accs[1:])), run_dir / "cka.csv")
    return run_dir


@pytest.fixture
def results(tmp_path):
    out = tmp_path / "results"
    b1, b0 = [90.0, 60.0, 50.0, 40.0], [92.0, 40.0, 50.0, 60.0]  # both mean 50 on targets
    _run(out, 100, 0, "baseline", 1, b1)
    _run(out, 100, 0, "baseline", 0, b0, ckas=(0.3, 0.2, 0.1))
    _run(out, 100, 0, "ditto", 1, [91.0, 66.0, 55.0, 41.0], b1)
    _run(out, 100, 0, "ditto", 0, [90.0, 45.0, 52.0, 62.0], b0, ckas=(0.5, 0.5, 0.5))
    _run(out, 100, 0, "ditto_single:t2", 1, status="failed")
    _run(out, 100, 0, "ditto_single:t2", 0)  # ok, but its eval.csv is gone
    b4 = [88.0, 0.0, 50.0, 70.0]  # a 0.00 baseline: every gain against it is undefined
    _run(out, 100, 4, "baseline", 1, b4)
    _run(out, 100, 4, "baseline", 0, status="failed")
    _run(out, 100, 4, "ditto", 1, [89.0, 20.0, 55.0, 77.0], b4)
    _run(out, 100, 4, "ditto", 0, [90.0, 30.0, 60.0, 75.0])
    b10 = [80.0, 0.0, 30.0, 30.0]
    _run(out, 10, 0, "baseline", 1, b10, ckas=(0.1, 0.2, 0.3))
    _run(out, 10, 0, "ditto", 1, [82.0, 10.0, 35.0, 33.0], b10)
    _run(out, 100, 0, "ditto_uniform", 7, [93.0, 70.0, 60.0, 50.0], b1)  # stale
    return out


SUMMARY = """\
variant,S100,S10
baseline,0.00,
ditto,7.50,
ditto_single:t2,,
"""

SUMMARY_PER_SEED = """\
variant,S,k,seed,mean_target_accuracy,mean_relative_gain
baseline,100,0,1,50.00,0.00
baseline,100,0,0,50.00,0.00
ditto,100,0,1,54.00,7.50
ditto,100,0,0,53.00,6.61
ditto_single:t2,100,0,1,,
ditto_single:t2,100,0,0,,
baseline,100,4,1,40.00,
baseline,100,4,0,,
ditto,100,4,1,50.67,
ditto,100,4,0,55.00,
ditto_single:t2,100,4,1,,
ditto_single:t2,100,4,0,,
baseline,10,0,1,20.00,
baseline,10,0,0,,
ditto,10,0,1,26.00,
ditto,10,0,0,,
ditto_single:t2,10,0,1,,
ditto_single:t2,10,0,0,,
baseline,10,4,1,,
baseline,10,4,0,,
ditto,10,4,1,,
ditto,10,4,0,,
ditto_single:t2,10,4,1,,
ditto_single:t2,10,4,0,,
"""

COST = """\
method,S,k,c_t_over_s,cost_cents,mean_target_accuracy
baseline,100,0,2.0,300.00,50.00
ditto,100,0,2.0,300.00,54.00
ditto_single:t2,100,0,2.0,,
baseline,100,4,2.0,372.00,40.00
ditto,100,4,2.0,372.00,55.00
ditto_single:t2,100,4,2.0,,
baseline,10,0,2.0,30.00,20.00
ditto,10,0,2.0,30.00,26.00
ditto_single:t2,10,0,2.0,,
baseline,10,4,2.0,,
ditto,10,4,2.0,,
ditto_single:t2,10,4,2.0,,
"""

COST_EXTRA_K = COST.replace("baseline,10,0,", "baseline,100,8,2.0,,\nditto,100,8,2.0,,\n"
                            "ditto_single:t2,100,8,2.0,,\nbaseline,10,0,", 1) + """\
baseline,10,8,2.0,,
ditto,10,8,2.0,,
ditto_single:t2,10,8,2.0,,
"""

ANALYSIS = """\
variant,S,k,seed,mean_target_accuracy,mean_relative_gain,gap
baseline,10,0,1,20.00,,60.00
ditto,10,0,1,26.00,,56.00
baseline,100,0,0,50.00,,42.00
baseline,100,0,1,50.00,,40.00
ditto,100,0,0,53.00,6.61,37.00
ditto,100,0,1,54.00,7.50,37.00
ditto_uniform,100,0,7,60.00,20.56,33.00
baseline,100,4,1,40.00,,48.00
ditto,100,4,0,55.00,,35.00
ditto,100,4,1,50.67,,38.33
"""

CORRELATION = """\
variant,S,k,seed,pearson,spearman
baseline,10,0,1,0.8660,0.8660
ditto,10,0,1,-0.8278,-0.5000
baseline,100,0,0,-1.0000,-1.0000
baseline,100,0,1,1.0000,1.0000
ditto,100,0,0,,
ditto,100,0,1,0.9976,1.0000
ditto_uniform,100,0,7,1.0000,1.0000
baseline,100,4,1,-0.9707,-1.0000
ditto,100,4,0,-0.9820,-1.0000
ditto,100,4,1,-0.9914,-1.0000
"""


def test_summaries_pinned(results):
    write_summaries(CONFIG, results)
    assert (results / "summary.csv").read_text() == SUMMARY
    assert (results / "summary_per_seed.csv").read_text() == SUMMARY_PER_SEED
    assert (results / "cost.csv").read_text() == COST


def test_cost_with_an_extra_k_pinned(results, tmp_path):
    write_cost_csv(dataclasses.replace(CONFIG, ks=[0, 4, 8]), results, tmp_path / "cost.csv")
    assert (tmp_path / "cost.csv").read_text() == COST_EXTRA_K


def test_analysis_pinned(results, tmp_path):
    shutil.rmtree(results / "S100" / "k0" / "ditto_single_t2" / "seed0")
    out = analyze_results(results, tmp_path / "analysis")
    assert (out / "analysis.csv").read_text() == ANALYSIS
    assert (out / "correlation.csv").read_text() == CORRELATION


def test_analysis_skips_an_ok_run_without_eval_csv(results, tmp_path):
    # the same rule as the summaries: a run counts once its eval.csv exists
    out = analyze_results(results, tmp_path / "analysis")
    assert (out / "analysis.csv").read_text() == ANALYSIS
    assert (out / "correlation.csv").read_text() == CORRELATION



def test_cka_accuracy_correlation_needs_three_targets(tmp_path):
    # a run with two targets gets its analysis row but no correlation row
    results = tmp_path / "results"
    _run(results, 100, 0, "baseline", 0, [90.0, 60.0, 50.0], ckas=(0.9, 0.8),
         targets=["t1", "t2"])
    out = analyze_results(results, tmp_path / "analysis")
    assert (out / "analysis.csv").read_text().splitlines()[1:] == [
        "baseline,100,0,0,55.00,,35.00"]
    assert (out / "correlation.csv").read_text() == "variant,S,k,seed,pearson,spearman\n"

def test_each_finished_run_is_read_once(results, tmp_path, monkeypatch):
    reads = []
    read = ditto.experiment.read_eval_csv
    monkeypatch.setattr(ditto.experiment, "read_eval_csv",
                        lambda path: reads.append(path) or read(path))
    finished = 10  # ok runs with an eval.csv, the stale one included
    write_summaries(CONFIG, results)
    assert len(reads) == len(set(reads)) == finished
    reads.clear()
    analyze_results(results, tmp_path / "analysis")
    assert len(reads) == len(set(reads)) == finished


# --- corrupt run artifacts -----------------------------------------------------


def _ditto_seed1(results):
    return results / "S100" / "k0" / "ditto" / "seed1"


def _run_json_not_json(results):
    (_ditto_seed1(results) / "run.json").write_text("{oops")
    return "ditto/seed1/run.json: not valid JSON"


def _run_json_not_object(results):
    (_ditto_seed1(results) / "run.json").write_text("[1, 2]")
    return "ditto/seed1/run.json: expected an object"


def _run_json_no_targets(results):
    path = _ditto_seed1(results) / "run.json"
    meta = json.loads(path.read_text())
    del meta["targets"]
    path.write_text(json.dumps(meta))
    return "ditto/seed1/run.json: targets: required key missing"


def _run_json_elsewhere(results):
    path = _ditto_seed1(results) / "run.json"
    path.write_text(path.read_text().replace('"seed": 1', '"seed": 0'))
    return "ditto/seed1/run.json: describes S=100 k=0 ditto seed=0"


def _set_run_json(results, key, value):
    path = _ditto_seed1(results) / "run.json"
    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))


def _run_json_negative_source_count(results):
    _set_run_json(results, "n_labeled_source", -5)
    return "ditto/seed1/run.json: n_labeled_source: must be >= 0, got -5"


def _run_json_source_count_true(results):
    _set_run_json(results, "n_labeled_source", True)
    return "ditto/seed1/run.json: n_labeled_source: expected an integer, got true"


def _run_json_no_target(results):
    _set_run_json(results, "targets", [])
    return "ditto/seed1/run.json: targets: needs 1 or more items, got 0"


def _run_json_repeated_target(results):
    _set_run_json(results, "targets", ["t1", "t1"])
    return "ditto/seed1/run.json: targets[1]: 't1' is listed twice"


def _run_json_source_as_target(results):
    _set_run_json(results, "targets", ["src", "t1"])
    return "ditto/seed1/run.json: targets: the source 'src' is no target"


def _run_json_bad_status(results):
    _set_run_json(results, "status", "OK")
    return "ditto/seed1/run.json: status: must be in {ok,failed}, got OK"


def _run_json_no_status(results):
    path = _ditto_seed1(results) / "run.json"
    meta = json.loads(path.read_text())
    del meta["status"]
    path.write_text(json.dumps(meta))
    return "ditto/seed1/run.json: status: required key missing"


def _run_json_unknown_key(results):
    _set_run_json(results, "seeds", [1])
    return "ditto/seed1/run.json: seeds: unknown key"


def _failed_run_json_negative_k(results):
    # a failed run's run.json is parsed too, though no table reads it
    path = results / "S100" / "k0" / "ditto_single_t2" / "seed1" / "run.json"
    path.write_text(path.read_text().replace('"k": 0', '"k": -1'))
    return "ditto_single_t2/seed1/run.json: k: must be >= 0, got -1"


def _eval_csv_short_row(results):
    with open(_ditto_seed1(results) / "eval.csv", "a") as fh:
        fh.write("src,ditto\n")
    return "ditto/seed1/eval.csv:10: expected 4 columns, got 2"


def _eval_csv_bad_number(results):
    path = _ditto_seed1(results) / "eval.csv"
    path.write_text(path.read_text().replace("66.00", "sixty-six"))
    return "ditto/seed1/eval.csv:7: 'sixty-six' is not a number"


def _eval_csv_nan_accuracy(results):
    path = _ditto_seed1(results) / "eval.csv"
    path.write_text(path.read_text().replace("66.00", "nan"))
    return "ditto/seed1/eval.csv:7: 'nan' is not a finite number"


def _eval_csv_field_too_large(results):
    path = _ditto_seed1(results) / "eval.csv"
    text = path.read_text().replace("66.00", "6" * 140_000, 1).replace("\n", "\r\n")
    path.write_bytes(text.encode())
    return "ditto/seed1/eval.csv:7: field larger than field limit (131072)"


def _eval_csv_undecodable(results):
    path = _ditto_seed1(results) / "eval.csv"
    path.write_bytes(path.read_bytes().replace(b"\nt3,ditto,", b"\nt3,ditt\xe9,", 1))
    return "ditto/seed1/eval.csv: cannot decode b'\\xe9'"


def _eval_csv_no_target(results):
    path = _ditto_seed1(results) / "eval.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("t3,ditto,")))
    return "ditto/seed1/eval.csv: no ditto accuracy on 't3'"


def _eval_csv_empty(results):
    (_ditto_seed1(results) / "eval.csv").write_text("")
    return "ditto/seed1/eval.csv: unexpected eval CSV header None"


def _eval_csv_repeated_row(results):
    with open(_ditto_seed1(results) / "eval.csv", "a") as fh:
        fh.write("t1,ditto,50.00,\n")  # the run's t1 row says 66.00
    return "ditto/seed1/eval.csv:10: a second ditto row for domain 't1'"


def _cka_csv_short_row(results):
    with open(_ditto_seed1(results) / "cka.csv", "a") as fh:
        fh.write("t4,0.5\n")
    return "ditto/seed1/cka.csv:5: expected 3 columns, got 2"


def _cka_csv_repeated_row(results):
    with open(_ditto_seed1(results) / "cka.csv", "a") as fh:
        fh.write("t1,0.500000,90.00\n")
    return "ditto/seed1/cka.csv:5: a second row for domain 't1'"


def _cka_csv_inf(results):
    path = _ditto_seed1(results) / "cka.csv"
    path.write_text(path.read_text().replace("0.800000", "inf"))
    return "ditto/seed1/cka.csv:3: 'inf' is not a finite number"


def _cka_csv_no_target(results):
    path = _ditto_seed1(results) / "cka.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
    return "ditto/seed1/cka.csv: no row for some of the targets"


SPOILERS = [_run_json_not_json, _run_json_not_object, _run_json_no_targets,
            _run_json_elsewhere, _run_json_negative_source_count,
            _run_json_source_count_true, _run_json_no_target, _run_json_repeated_target,
            _run_json_source_as_target, _run_json_bad_status, _run_json_no_status,
            _run_json_unknown_key, _failed_run_json_negative_k, _eval_csv_short_row,
            _eval_csv_bad_number,
            _eval_csv_nan_accuracy, _eval_csv_field_too_large, _eval_csv_undecodable, _eval_csv_no_target,
            _eval_csv_empty, _eval_csv_repeated_row]


@pytest.mark.parametrize("spoil", SPOILERS + [_cka_csv_short_row, _cka_csv_no_target,
                                              _cka_csv_repeated_row, _cka_csv_inf],
                         ids=lambda f: f.__name__[1:])
def test_analyze_corrupt_artifact_is_one_line_error(results, tmp_path, capsys, spoil):
    named = spoil(results)
    capsys.readouterr()
    assert main(["analyze", "--results", str(results), "--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_analyze_corrupt_cka_csv_leaves_no_tables(results, tmp_path):
    # the corrupt run sorts after finished runs whose rows come first
    named = _cka_csv_short_row(results)
    with pytest.raises(DataError, match=named):
        analyze_results(results, tmp_path / "a")
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("spoil", SPOILERS, ids=lambda f: f.__name__[1:])
def test_cost_corrupt_artifact_is_one_line_error(results, tmp_path, capsys, spoil):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": {
        "encoder": {"input_dim": 2, "hidden_dims": [4]}, "num_classes": 3, "epochs": 1,
        "variants": CONFIG.variants, "seeds": CONFIG.seeds,
        "source_fractions": CONFIG.source_fractions, "ks": CONFIG.ks}}))
    named = spoil(results)
    capsys.readouterr()
    assert main(["cost", "--config", str(config), "--results", str(results),
                 "--out", str(tmp_path / "cost.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def _cost_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": {
        "encoder": {"input_dim": 2, "hidden_dims": [4]}, "num_classes": 3, "epochs": 1,
        "variants": CONFIG.variants, "seeds": CONFIG.seeds,
        "source_fractions": CONFIG.source_fractions, "ks": CONFIG.ks,
        "cost": {"c_s": CONFIG.c_s, "c_t_over_s": CONFIG.c_t_over_s}}}))
    return config


def test_cli_cost_lists_a_repeated_k_once(results, tmp_path):
    assert main(["cost", "--config", str(_cost_config(tmp_path)), "--results", str(results),
                 "--out", str(tmp_path / "cost.csv"), "--k", "0", "--k", "8", "--k", "8"]) == 0
    assert (tmp_path / "cost.csv").read_text() == COST_EXTRA_K


@pytest.mark.parametrize("command", ["analyze", "cost"])
def test_missing_results_directory_is_one_line_error(tmp_path, capsys, command):
    missing, out = tmp_path / "no_such_dir", tmp_path / "out" / "tables"
    config = ["--config", str(_cost_config(tmp_path))] if command == "cost" else []
    capsys.readouterr()
    assert main([command, *config, "--results", str(missing), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{missing}: no such results directory" in err
    assert not out.exists()
