"""In-memory span tracer for the benchmark's traced mode.

`Tracer.install()` wraps ditto's public functions with span recorders and
`uninstall()` puts the originals back.  A function is wrapped where its
caller binds it: `ditto.adaptation` does `from .optim import adamw_step`, so
patching `ditto.optim.adamw_step` alone would miss every training step.
`install` therefore rebinds every module-level name in the ditto package
that refers to the original function object.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the workload runs and only turned into numbers afterwards; self time is a
span's duration minus the durations of its direct children (calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

PACKAGE_MODULES = ("ditto", "ditto.autodiff", "ditto.optim", "ditto.model", "ditto.data",
                   "ditto.adaptation", "ditto.analysis", "ditto.experiment", "ditto.cli")

OPS = ("affine", "activation", "sigmoid", "softmax_cross_entropy", "binary_cross_entropy")

# functions that need nothing but a span named "<module>.<function>"; `install`
# adds the ops, `encode`, `train` and the counting wrappers itself
PLAIN_SPANS = (
    "autodiff.backward", "optim.sam_backward", "optim.sam_restore", "model.classify",
    "model.discriminate", "model.extract_features", "model.init_params",
    "model.save_checkpoint", "model.load_checkpoint", "data.generate_synthetic",
    "data.subsample_source", "adaptation.ditto_step", "adaptation.baseline_step",
    "adaptation.domain_accuracies", "analysis.linear_cka", "analysis.zero_shot_eval",
    "analysis.write_eval_csv", "analysis.read_eval_csv", "experiment.run_experiment",
    "experiment.write_report_jsonl", "experiment.write_summaries",
    "experiment.analyze_results", "cli.main",
)

TRAIN_KINDS = ("baseline", "ditto", "ditto_single", "ditto_minus_sam")

# children of a ditto_step span, by name, and the phase each one is
DITTO_PHASES = {
    "optim.sam_backward": "sam_task",
    "model.encode.adv": "adv_encode",
    "model.discriminate": "disc_forward",
    "autodiff.backward": "adv_backward",
    "optim.adamw_step": "adamw",
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Records spans around ditto's functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._installed = False

    # --- recording -------------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _inside(self, nid: int) -> bool:
        return any(self.name_id[i] == nid for i in self.stack)

    def _spanned(self, fn, name: str | None, name_of=None, after=None):
        """Wrap fn in a span; `name_of(args, kwargs)` picks the name per call
        and `after(result, args, kwargs)` records counts outside the span."""
        nid = self.intern(name) if name else None
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid if name_of is None else self.intern(name_of(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _op(self, fn, name: str):
        """An autodiff op: span around the forward, and a span around the
        vjp of the node it returns, which `backward` calls later."""
        vid = self.intern(name + ".vjp")
        open_, close = self.open, self.close

        def time_vjp(node, args, kwargs):
            vjp = node.vjp

            def timed_vjp(g):
                idx = open_(vid)
                try:
                    return vjp(g)
                finally:
                    close(idx)

            node.vjp = timed_vjp

        return self._spanned(fn, name, after=time_vjp)

    # --- installing --------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        bound = 0
        for modname in PACKAGE_MODULES:
            module = importlib.import_module(modname)
            for attr, value in vars(module).items():
                if value is original:
                    self._patches.append((module, attr, original, wrapper))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original!r} is bound nowhere in the ditto package")

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, vars(cls)[attr], wrapper))

    def install(self) -> "Tracer":
        """Swap the wrappers in (built on first use); cheap to repeat, so a
        run can trace each pass and leave its output checks untraced."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True
        return self

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    def _build(self) -> None:
        mod = {m.removeprefix("ditto."): importlib.import_module(m) for m in PACKAGE_MODULES}
        for name in PLAIN_SPANS:
            m, fn = name.split(".")
            original = getattr(mod[m], fn)
            self._rebind(original, self._spanned(original, name))
        for op in OPS:
            original = getattr(mod["autodiff"], op)
            self._rebind(original, self._op(original, f"autodiff.{op}"))

        sam_id = self.intern("optim.sam_backward")
        self._rebind(mod["model"].encode, self._spanned(
            mod["model"].encode, None,
            name_of=lambda a, k: "model.encode.task" if self._inside(sam_id)
            else "model.encode.adv"))
        self._rebind(mod["adaptation"].train, self._spanned(
            mod["adaptation"].train, None,
            name_of=lambda a, k: "adaptation.train." + _arg(a, k, 2, "variant").kind))

        counts = self.counts

        def count_params(result, args, kwargs):
            names = _arg(args, kwargs, 3, "names")
            counts["optim.adamw_step.params"] += len(names if names is not None else args[0])

        self._rebind(mod["optim"].adamw_step, self._spanned(
            mod["optim"].adamw_step, "optim.adamw_step", after=count_params))

        degenerate = importlib.import_module("ditto.errors").DegenerateGradientError
        perturb = self._spanned(mod["optim"].sam_perturb, "optim.sam_perturb")

        @functools.wraps(mod["optim"].sam_perturb)
        def sam_perturb(*args, **kwargs):
            try:
                return perturb(*args, **kwargs)
            except degenerate:
                counts["optim.sam_perturb.degenerate"] += 1
                raise

        self._rebind(mod["optim"].sam_perturb, sam_perturb)

        def dataset_bytes(result, args, kwargs):
            out = Path(_arg(args, kwargs, 1, "out_dir"))
            counts["data.save_dataset.bytes"] += sum(p.stat().st_size for p in out.iterdir())

        def dataset_rows(result, args, kwargs):
            counts["data.load_dataset.rows"] += sum(
                s.labeled.n + s.unlabeled.shape[0] + s.fewshot.n + s.eval.n
                for s in result.domains.values())

        self._rebind(mod["data"].save_dataset, self._spanned(
            mod["data"].save_dataset, "data.save_dataset", after=dataset_bytes))
        self._rebind(mod["data"].load_dataset, self._spanned(
            mod["data"].load_dataset, "data.load_dataset", after=dataset_rows))

        store_cls, tape_cls = mod["autodiff"].ParamStore, mod["autodiff"].Tape
        self._patch_method(store_cls, "reset_grads",
                           self._spanned(store_cls.reset_grads, "autodiff.reset_grads"))
        record = tape_cls._record

        @functools.wraps(record)
        def counted_record(tape, value, parents, vjp, param=None):
            if parents:
                counts["autodiff.ops"] += 1
            return record(tape, value, parents, vjp, param)

        self._patch_method(tape_cls, "_record", counted_record)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- output ------------------------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(self)

    def save(self, path: Path) -> None:
        """Write the raw spans (times in ns) once the run has ended."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.name_id),
                            parent=np.array(self.parent), start=np.array(self.start),
                            end=np.array(self.end))


class Spans:
    """Array view of a tracer's spans with per-name lookups (times in ns)."""

    def __init__(self, tracer: Tracer):
        self.ids = dict(tracer._ids)
        self.nid = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        start = np.frombuffer(tracer.start, dtype=np.int64)
        self.dur = np.frombuffer(tracer.end, dtype=np.int64) - start
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested],
                            minlength=len(self.dur))
        self.self_ = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        nid = self.ids.get(name, -1)
        return self.nid == nid

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def durations(self, name: str, self_time: bool = False) -> np.ndarray:
        return (self.self_ if self_time else self.dur)[self.mask(name)]

    def children_of(self, parents: np.ndarray) -> np.ndarray:
        """Mask of spans whose parent is one of the given span indices."""
        return np.isin(self.parent, parents)


def _pct(values: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) / scale if values.size else 0.0


def layer_metrics(spans: Spans, counts: Counter, passes: int) -> dict[str, float]:
    """Per-layer numbers from one traced run of `passes` passes.

    Timings are percentiles over every span of a name (0 with `.n` = 0 when
    the workload never calls it); plain counts are per pass.
    """
    US, MS = 1e3, 1e6
    out: dict[str, float] = {}

    def timed(span: str, key: str, scale: float, self_time=False, p99=False, n_key=".n",
              metric=None):
        metric = metric or span
        d = spans.durations(span, self_time)
        out[f"{metric}{key}"] = _pct(d, 50, scale)
        if p99:
            out[f"{metric}.p99_us"] = _pct(d, 99, scale)
        out[f"{metric}{n_key}"] = d.size

    steps = spans.count("adaptation.ditto_step") + spans.count("adaptation.baseline_step")
    trains = sum(spans.count(f"adaptation.train.{k}") for k in TRAIN_KINDS)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    for op in OPS:
        timed(f"autodiff.{op}", ".fwd_p50_us", US, n_key=".fwd_n")
        timed(f"autodiff.{op}.vjp", ".vjp_p50_us", US, n_key=".vjp_n", metric=f"autodiff.{op}")
    timed("autodiff.backward", ".self_p50_us", US, self_time=True)
    timed("autodiff.reset_grads", ".p50_us", US)
    out["autodiff.ops_per_step"] = per(counts["autodiff.ops"], steps)

    timed("optim.sam_backward", ".self_p50_us", US, self_time=True)
    timed("optim.adamw_step", ".p50_us", US)
    adamw_calls = spans.count("optim.adamw_step")
    out["optim.adamw_step.calls_per_step"] = per(adamw_calls, steps)
    out["optim.adamw_step.params_per_call"] = per(counts["optim.adamw_step.params"], adamw_calls)
    perturbs = spans.count("optim.sam_perturb")
    degenerate = counts["optim.sam_perturb.degenerate"]
    out["optim.sam_perturb.calls"] = per(perturbs, passes)
    out["optim.sam_perturb.degenerate"] = per(degenerate, passes)
    out["optim.sam_perturb.ok_ratio"] = per(perturbs - degenerate, perturbs)
    timed("optim.sam_restore", ".p50_us", US)

    timed("model.encode.task", ".self_p50_us", US, self_time=True)
    timed("model.encode.adv", ".self_p50_us", US, self_time=True)
    timed("model.classify", ".p50_us", US)
    timed("model.discriminate", ".self_p50_us", US, self_time=True)
    timed("model.extract_features", ".p50_us", US)
    timed("model.init_params", ".p50_us", US)
    timed("model.save_checkpoint", ".p50_ms", MS)
    timed("model.load_checkpoint", ".p50_ms", MS)

    timed("adaptation.ditto_step", ".p50_us", US, p99=True)
    timed("adaptation.baseline_step", ".p50_us", US, p99=True)
    step_mask = spans.mask("adaptation.ditto_step") | spans.mask("adaptation.baseline_step")
    for kind in TRAIN_KINDS:
        runs = np.flatnonzero(spans.mask(f"adaptation.train.{kind}"))
        kind_steps = int((step_mask & spans.children_of(runs)).sum())
        out[f"adaptation.train.{kind}.us_per_step"] = per(spans.dur[runs].sum() / US, kind_steps)
    for phase, value in ditto_step_shares(spans).items():
        out[f"adaptation.ditto_step.share.{phase}"] = value
    timed("adaptation.domain_accuracies", ".p50_ms", MS)
    out["adaptation.domain_accuracies.calls_per_run"] = per(
        spans.count("adaptation.domain_accuracies"), trains)

    timed("data.generate_synthetic", ".ms", MS)
    timed("data.save_dataset", ".ms", MS)
    out["data.save_dataset.bytes"] = per(counts["data.save_dataset.bytes"],
                                         spans.count("data.save_dataset"))
    timed("data.load_dataset", ".ms", MS)
    out["data.load_dataset.rows"] = per(counts["data.load_dataset.rows"],
                                        spans.count("data.load_dataset"))
    out["data.subsample_source.calls"] = per(spans.count("data.subsample_source"), passes)

    timed("analysis.linear_cka", ".p50_us", US)
    timed("analysis.zero_shot_eval", ".p50_ms", MS)
    out["analysis.zero_shot_eval.calls_per_run"] = per(
        spans.count("analysis.zero_shot_eval"), trains)
    timed("analysis.write_eval_csv", ".p50_ms", MS)
    out["analysis.read_eval_csv.calls"] = per(spans.count("analysis.read_eval_csv"), passes)

    timed("experiment.run_experiment", ".self_ms", MS, self_time=True)
    timed("experiment.write_report_jsonl", ".p50_ms", MS)
    timed("experiment.write_summaries", ".ms", MS)
    timed("experiment.analyze_results", ".ms", MS)
    timed("cli.main", ".self_ms", MS, self_time=True)
    return out


def ditto_step_shares(spans: Spans) -> dict[str, float]:
    """Split of ditto-step time into phases, as shares of a stated base.

    base = all ditto_step time plus the per-epoch and final evaluations
    (domain_accuracies called by `train`) of the variants that run ditto_step.
    `other` is ditto_step time no phase span covers: the step's own self
    time plus unphased children (target sampling, batch assembly, the
    reversal and the loss).  The shares sum to 1.
    """
    steps = np.flatnonzero(spans.mask("adaptation.ditto_step"))
    total = float(spans.dur[steps].sum())
    under_step = spans.children_of(steps)
    phases = {}
    for span, phase in DITTO_PHASES.items():
        phases[phase] = float(spans.dur[under_step & spans.mask(span)].sum())
    adv_trains = np.flatnonzero(np.logical_or.reduce(
        [spans.mask(f"adaptation.train.{k}") for k in TRAIN_KINDS if k != "baseline"]))
    phases["eval"] = float(spans.dur[spans.children_of(adv_trains)
                                     & spans.mask("adaptation.domain_accuracies")].sum())
    phases["other"] = total - sum(phases[p] for p in DITTO_PHASES.values())
    base = total + phases["eval"]
    shares = {p: (v / base if base else 0.0) for p, v in phases.items()}
    shares["base_us_per_step"] = base / 1e3 / steps.size if steps.size else 0.0
    return shares
