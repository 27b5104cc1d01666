"""Self-tests of the benchmark: frozen constants, tracer wiring, output checks
and the output contract.  Run with `python3 -m pytest bench/`.

The traced workloads here are shrunk (2 epochs on ladder_train) so the
whole file runs in seconds; the span structure does not depend on size.
"""

import ast
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ditto
import ditto.adaptation
import ditto.experiment
import ditto.optim
import run
import tracer as tracer_mod
import workloads
from tracer import Tracer, ditto_step_shares

ACCEPTANCE = run.ROOT / "tests" / "test_acceptance.py"


# --- the frozen constants restate tests/test_acceptance.py ----------------------


def _acceptance():
    tree = ast.parse(ACCEPTANCE.read_text())
    consts = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            try:
                consts[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                consts[node.targets[0].id] = node.value
    return tree, consts


def _call_kwargs(node: ast.Call) -> dict:
    return {kw.arg: _call_kwargs(kw.value) if isinstance(kw.value, ast.Call)
            else ast.literal_eval(kw.value) for kw in node.keywords}


def test_frozen_constants_match_acceptance_suite():
    tree, consts = _acceptance()
    for name in ("MEANS", "SIGMA", "DATA_SEED", "BENCH_ANGLES", "LADDER_ANGLES",
                 "LAM", "RHO", "SINGLE_TARGET"):
        assert getattr(workloads, name) == consts[name], name
    assert workloads.BENCH_TRAIN == _call_kwargs(consts["BENCH_TRAIN"])

    ladder = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                  and n.name == "ladder_dataset")
    sizes = sorted((n for n in ast.walk(ladder) if isinstance(n, ast.Call)
                    and getattr(n.func, "id", None) == "SizeSpec"),
                   key=lambda n: n.lineno)
    assert [_call_kwargs(n) for n in sizes] == [workloads.SOURCE_SIZES,
                                                workloads.TARGET_SIZES]

    class Substitute(ast.NodeTransformer):
        def visit_Name(self, node):
            return ast.copy_location(ast.Constant(consts[node.id]), node)

    crit10 = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                  and n.name == "test_criterion_10_run_all_byte_identical")
    assign = next(n for n in crit10.body if isinstance(n, ast.Assign)
                  and getattr(n.targets[0], "id", None) == "config")
    assert workloads.GRID_CONFIG == ast.literal_eval(Substitute().visit(assign.value))


# --- tracer wiring -----------------------------------------------------------------


def _bindings():
    out = {}
    for name in tracer_mod.PACKAGE_MODULES:
        module = sys.modules[name]
        out.update({(name, attr): value for attr, value in vars(module).items()
                    if callable(value)})
    out[("ParamStore", "reset_grads")] = vars(ditto.ParamStore)["reset_grads"]
    out[("Tape", "_record")] = vars(ditto.Tape)["_record"]
    return out


def test_wrappers_bind_where_the_caller_looks_and_are_restored():
    before = _bindings()
    originals = (ditto.optim.adamw_step, ditto.optim.backward, ditto.adaptation.train)
    with Tracer():
        assert ditto.adaptation.adamw_step is not originals[0]
        assert ditto.adaptation.adamw_step is ditto.optim.adamw_step is ditto.adamw_step
        assert ditto.optim.backward is not originals[1]
        assert ditto.optim.backward is ditto.adaptation.backward
        assert ditto.experiment.train is not originals[2]
        assert ditto.experiment.train is ditto.adaptation.train is ditto.train
    assert _bindings() == before


# --- small traced runs of each workload -------------------------------------------


def _small(name, work):
    """The workload set up at seed 0; ladder_train trains 2 epochs, not 100."""
    w = workloads.WORKLOADS[name](0, work)
    w.setup()
    if name == "ladder_train":
        w.steps_per_train = w.steps_per_train // w.config.epochs * 2
        w.config = workloads.train_config({"epochs": 2})
    return w


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """workload -> (untraced PassResult, traced PassResult, Spans, counts)."""
    out = {}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        w = _small(name, work)
        plain = w.verify(w.execute())
        tr = Tracer()
        with tr:
            outputs = w.execute()
        result = w.verify(outputs)
        out[name] = (plain, result, tr.spans(), tr.counts)
    return out


# the spans each metric family reads, and the workload that must fire them
FIRES_ON = {
    "ladder_train": (
        [f"autodiff.{op}" for op in tracer_mod.OPS]
        + [f"autodiff.{op}.vjp" for op in tracer_mod.OPS]
        + ["autodiff.backward", "autodiff.reset_grads", "optim.adamw_step",
           "optim.sam_backward", "optim.sam_perturb", "optim.sam_restore",
           "model.encode.task", "model.encode.adv", "model.classify",
           "model.discriminate", "model.extract_features", "model.init_params",
           "adaptation.ditto_step", "adaptation.baseline_step",
           "adaptation.domain_accuracies", "adaptation.train.baseline",
           "adaptation.train.ditto", "adaptation.train.ditto_single",
           "analysis.linear_cka"]),
    "grid_runall": [
        "adaptation.train.ditto_minus_sam", "model.save_checkpoint",
        "data.generate_synthetic", "data.save_dataset", "data.subsample_source",
        "analysis.zero_shot_eval", "analysis.write_eval_csv", "analysis.read_eval_csv",
        "experiment.run_experiment", "experiment.write_report_jsonl",
        "experiment.write_summaries", "experiment.analyze_results", "cli.main"],
    "ladder_eval": [
        "model.load_checkpoint", "data.load_dataset", "model.extract_features",
        "analysis.linear_cka", "analysis.zero_shot_eval", "cli.main"],
}


def test_every_named_span_fires_on_its_workload(traced):
    for name, span_names in FIRES_ON.items():
        spans = traced[name][2]
        silent = [s for s in span_names if spans.count(s) == 0]
        assert not silent, f"{name}: {silent}"
    all_spans = {s for _, _, spans, _ in traced.values() for s in spans.ids}
    assert all_spans == {s for names in FIRES_ON.values() for s in names}


def test_ditto_step_phases_cover_the_step(traced):
    spans = traced["ladder_train"][2]
    shares = ditto_step_shares(spans)
    base = shares.pop("base_us_per_step")
    assert base > 0
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert all(shares[p] > 0 for p in [*tracer_mod.DITTO_PHASES.values(), "eval"])
    # leftover self time is reported, and small next to the phases it sits between
    assert 0 < shares["other"] < 0.5


def test_traced_and_untraced_passes_give_identical_digests(traced):
    for name, (plain, result, _, _) in traced.items():
        assert not plain.errors and not result.errors, name
        assert plain.digest == result.digest, name
        assert plain.failed == result.failed == 0, name


def test_layer_metrics_count_per_pass(traced):
    spans, counts = traced["ladder_train"][2:]
    metrics = tracer_mod.layer_metrics(spans, counts, passes=1)
    # 3 trainings x 2 epochs x 32 batches; ditto/single take two adamw calls a step
    assert metrics["adaptation.ditto_step.n"] == 128
    assert metrics["adaptation.baseline_step.n"] == 64
    assert metrics["optim.adamw_step.calls_per_step"] == pytest.approx((64 + 2 * 128) / 192)
    # per train: 2 epochs + final inside `train`, then the cell's own evaluation
    assert metrics["adaptation.domain_accuracies.calls_per_run"] == 4
    assert metrics["model.load_checkpoint.n"] == 0


# --- output checks -------------------------------------------------------------------


def test_failed_run_json_counts_as_failed(tmp_path):
    w = workloads.GridRunAll(0, tmp_path)
    w.setup()
    out, errors = w.execute()
    run_json = sorted((out / "results").glob("S*/k*/ditto/seed*/run.json"))[0]
    meta = json.loads(run_json.read_text())
    run_json.write_text(json.dumps({**meta, "status": "failed", "error": "injected"}))
    result = w.verify((out, errors))
    assert (result.attempted, result.failed) == (w.expected_runs, 1)


def test_ladder_train_rejects_out_of_range_accuracy(tmp_path):
    w = workloads.LadderTrain(0, tmp_path)
    w.dataset = workloads.ladder_dataset(workloads.BENCH_ANGLES)
    w.steps_per_train = 0
    accs = {"baseline": {d: 50.0 for d in ["src"] + w.dataset.target_ids()}}
    accs["baseline"]["rot60"] = 100.5
    result = w.verify(([True], accs, {}, []))
    assert result.errors and "outside [0, 100]" in result.errors[0]


# --- the output contract ---------------------------------------------------------------


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("grid_runall", "0"), ("ladder_eval", "1")])
def test_run_prints_every_metric(workload, trace):
    proc = _bench(run.ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "ladder_eval", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
