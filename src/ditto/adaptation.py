"""Training procedures for joint multi-target adversarial adaptation.

The full method trains an encoder/classifier on labeled source data with
sharpness-aware minimization while, at every step, sampling one target domain
from a prior weighted toward the weakest targets and playing a minimax game
against that target's discriminator through a gradient-reversal pass.

The variants are the rows of `VARIANTS`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tape, backward
from .data import DomainDataset, Rows
from .errors import ConfigError, DataError, LabelError, ParameterError, check_fields
from .model import (
    EncoderSpec,
    ModelBundle,
    classify,
    discriminate,
    encode,
    init_params,
    predict_logits,
)
from .autodiff import binary_cross_entropy, grad_reverse, softmax_cross_entropy
from .optim import AdamWConfig, adamw_step, sam_backward, sam_step
from .rng import Rng

# kind -> (takes lambda, takes rho, prior source); a kind that does not take
# lambda or rho runs with it at 0.  `train` gets the target prior from the
# source: the caller's, built from a baseline's zero-shot scores ("baseline"),
# uniform, the variant's one target ("single"), or none.
VARIANTS = {
    "baseline": (False, False, None),  # plain source fine-tuning
    "ditto": (True, True, "baseline"),  # the full method
    "ditto_minus_sam": (True, False, "baseline"),  # adversarial phase only
    "ditto_minus_la": (False, True, None),  # SAM only, discriminators never trained
    "ditto_single": (True, True, "single"),  # adversary against one fixed target
    "ditto_uniform": (True, True, "uniform"),
}


# ---------------------------------------------------------------------------
# target prior


@dataclass
class LanguagePrior:
    """Sampling distribution over target domains."""

    probs: dict[str, float] = field(metadata={"min": 0, "len": 1})

    def __post_init__(self):
        check_fields(self)
        total = sum(self.probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"probabilities sum to {total!r}, not 1", key="probs")

    @staticmethod
    def uniform(targets: Sequence[str]) -> "LanguagePrior":
        ids = sorted(targets)
        return LanguagePrior({t: 1.0 / len(ids) for t in ids})

    @staticmethod
    def single(target: str) -> "LanguagePrior":
        return LanguagePrior({target: 1.0})


def compute_prior(zero_shot_scores: dict[str, float], source: str) -> LanguagePrior:
    """Prior from zero-shot deficits.

    delta_t = max(score(source) - score(t), 0); sigma = population std of the
    deltas; weight_t = delta_t + sigma; probabilities are the normalized
    weights.  If every weight is 0 (no target trails the source) the prior is
    uniform.

    >>> p = compute_prior({"s": 60.0, "a": 50.0, "b": 60.0}, "s")
    >>> [round(p.probs[t], 2) for t in ("a", "b")]
    [0.75, 0.25]
    """
    if source not in zero_shot_scores:
        raise DataError(f"source domain {source!r} missing from scores")
    targets = sorted(t for t in zero_shot_scores if t != source)
    if not targets:
        raise DataError("scores contain no target domains")
    for dom, score in zero_shot_scores.items():
        if not (0.0 <= score <= 100.0):
            raise DataError(f"accuracy for {dom!r} out of [0, 100]: {score}")
    src = zero_shot_scores[source]
    deltas = np.array([max(src - zero_shot_scores[t], 0.0) for t in targets])
    sigma = float(np.sqrt(np.mean((deltas - deltas.mean()) ** 2)))
    weights = deltas + sigma
    total = float(weights.sum())
    if total <= 0.0:
        return LanguagePrior.uniform(targets)
    return LanguagePrior({t: float(w) / total for t, w in zip(targets, weights)})


def sample_target(prior: LanguagePrior, rng: Rng) -> str:
    """Inverse-CDF draw over the sorted target ids."""
    ids = sorted(prior.probs)
    u = rng.random()
    acc = 0.0
    for t in ids:
        acc += prior.probs[t]
        if u < acc:
            return t
    return ids[-1]  # guard against cumulative rounding just below 1


# ---------------------------------------------------------------------------
# variants and configs


@dataclass
class TrainVariant:
    """Which training procedure to run, with its lambda and SAM radius rho
    (the L2 radius of the perturbation neighborhood; 0 disables SAM)."""

    kind: str
    lam: float = field(metadata={"min": 0})
    rho: float = field(metadata={"min": 0})
    single_target: str | None = field(default=None, metadata={"id": True})

    def __post_init__(self):
        check_fields(self)
        if self.kind not in VARIANTS:
            raise ConfigError(f"unknown variant kind {self.kind!r}; "
                              f"expected one of {tuple(VARIANTS)}", key="kind")
        takes_lam, takes_rho, prior = VARIANTS[self.kind]
        if not takes_lam and self.lam != 0.0:
            raise ConfigError(f"{self.kind} requires lambda = 0, got {self.lam}", key="lam")
        if not takes_rho and self.rho != 0.0:
            raise ConfigError(f"{self.kind} requires rho = 0, got {self.rho}", key="rho")
        if (prior == "single") != (self.single_target is not None):
            raise ConfigError(f"only ditto_single takes a target ('ditto_single:<target>'); "
                              f"got {self.kind} with target {self.single_target!r}",
                              key="single_target")

    @property
    def needs_prior(self) -> bool:
        """Whether the target prior comes from a baseline's zero-shot scores."""
        return VARIANTS[self.kind][2] == "baseline"

    @property
    def name(self) -> str:
        if self.kind == "ditto_single":
            return f"ditto_single:{self.single_target}"
        return self.kind

    @staticmethod
    def parse(name: str, lam: float, rho: float) -> "TrainVariant":
        """Build a variant from its CLI name `kind[:target]`; a kind that does
        not take lambda or rho gets 0."""
        kind, sep, target = name.partition(":")
        if kind not in VARIANTS:
            raise ConfigError(f"unknown variant name {name!r}")
        takes_lam, takes_rho, _ = VARIANTS[kind]
        return TrainVariant(kind, lam=lam if takes_lam else 0.0,
                            rho=rho if takes_rho else 0.0,
                            single_target=target if sep else None)


@dataclass
class TrainConfig:
    """Hyperparameters shared by every variant.

    The discriminator keeps a 5x higher learning rate than the encoder and
    classifier by default.
    """

    encoder: EncoderSpec
    num_classes: int = field(metadata={"min": 2})
    epochs: int = field(metadata={"min": 0})
    batch_size: int = field(default=32, metadata={"min": 1})
    lr: float = field(default=0.01, metadata={"above": 0})
    disc_lr: float = field(default=0.05, metadata={"above": 0})
    weight_decay: float = field(default=0.0, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)


@dataclass
class Optimizers:
    enc: AdamWConfig
    disc: AdamWConfig


# ---------------------------------------------------------------------------
# training steps


def _task_loss_proc(bundle: ModelBundle, X: np.ndarray, y: np.ndarray):
    def proc():
        tape = Tape()
        feats = encode(bundle, tape, X)
        logits = classify(bundle, feats)
        return softmax_cross_entropy(logits, y)
    return proc


def baseline_step(
    bundle: ModelBundle,
    X: np.ndarray,
    y: np.ndarray,
    opts: Optimizers,
    variant: TrainVariant,
    step: int,
) -> float:
    """Cross-entropy step on a labeled source batch (SAM per the variant's
    rho); discriminators untouched."""
    if X.shape[0] == 0:
        raise DataError("empty batch")
    return sam_step(_task_loss_proc(bundle, X, y), bundle.store, variant.rho, opts.enc,
                    step, bundle.task_param_names())


def ditto_step(
    bundle: ModelBundle,
    X: np.ndarray,
    y: np.ndarray,
    prior: LanguagePrior,
    datasets: DomainDataset,
    opts: Optimizers,
    variant: TrainVariant,
    step: int,
    rng: Rng,
) -> tuple[float, float, str]:
    """One joint step: sharpness-aware task phase, then an adversarial phase
    against one sampled target.

    Phase order:
      1. SAM backward on the source batch leaves task gradients in the slots.
      2. Sample t from the prior.
      3. At the restored weights, run source + target rows through
         encoder -> grad_reverse(lambda) -> discriminator t -> binary
         cross-entropy; one backward accumulates reversed encoder gradients
         into the task slots and fills t's discriminator slots.
      4. AdamW updates encoder/classifier (summed gradients) and t's
         discriminator (its own, faster optimizer).  Other discriminators
         are untouched.

    Returns (task loss, adversarial loss, t).
    """
    if X.shape[0] == 0:
        raise DataError("empty batch")
    store = bundle.store
    task_names = bundle.task_param_names()
    task_loss = sam_backward(_task_loss_proc(bundle, X, y), store, variant.rho, task_names)

    t = sample_target(prior, rng)
    pool = datasets.domains[t].unlabeled
    if pool.shape[0] == 0:
        raise DataError(f"target domain {t!r} has an empty unlabeled pool")
    m = X.shape[0]
    target_rows = pool[rng.integers(0, pool.shape[0], m)]
    domain_X = np.vstack([X, target_rows])

    tape = Tape()
    feats = encode(bundle, tape, domain_X)
    reversed_feats = grad_reverse(feats, variant.lam)
    probs = discriminate(bundle, t, reversed_feats)
    adv = binary_cross_entropy(probs, np.repeat([1.0, 0.0], m))
    backward(adv)  # adds encoder gradients onto the task slots

    adamw_step(store, opts.enc, step, task_names)
    adamw_step(store, opts.disc, step, bundle.disc_param_names(t))
    return task_loss, float(adv.value[0, 0]), t


# ---------------------------------------------------------------------------
# evaluation helper (the single accuracy implementation in the package)


def domain_accuracies(bundle: ModelBundle, datasets: DomainDataset) -> dict[str, float]:
    """Percent accuracy of argmax predictions on every domain's eval split."""
    out = {}
    for dom in [datasets.source] + datasets.target_ids():
        rows = datasets.domains[dom].eval
        if rows.n == 0:
            raise DataError(f"domain {dom!r} has no labeled eval rows")
        if rows.y.max() >= bundle.num_classes:
            raise LabelError(f"domain {dom!r} eval labels exceed "
                             f"{bundle.num_classes} classes")
        pred = np.argmax(predict_logits(bundle, rows.X), axis=1)
        out[dom] = 100.0 * float(np.mean(pred == rows.y))
    return out


# ---------------------------------------------------------------------------
# full training loop


@dataclass
class EpochRecord:
    epoch: int
    task_loss: float
    adv_loss: float | None
    disc_loss: float | None
    per_domain_acc: dict[str, float]


@dataclass
class TrainReport:
    variant: str
    seed: int
    epochs: list[EpochRecord]
    target_sample_counts: dict[str, int]
    final_per_domain_acc: dict[str, float]
    wall_clock_seconds: float

    def comparable(self) -> dict:
        """Everything except wall clock, for determinism comparisons."""
        return {
            "variant": self.variant,
            "seed": self.seed,
            "epochs": [vars(e) for e in self.epochs],
            "target_sample_counts": self.target_sample_counts,
            "final_per_domain_acc": self.final_per_domain_acc,
        }


def train(
    config: TrainConfig,
    datasets: DomainDataset,
    variant: TrainVariant,
    seed: int,
    prior: LanguagePrior | None = None,
) -> tuple[ModelBundle, TrainReport]:
    """Run one variant to completion; a pure function of (config, datasets,
    variant, seed, prior).

    The kind's prior source in `VARIANTS` decides the prior: "baseline" needs
    the caller's (from a baseline's zero-shot scores), "uniform" and "single"
    build theirs here, and None takes none.  A `prior` passed to a kind
    whose source is not "baseline" is a ConfigError.

    A variant with lambda = 0 steps by `baseline_step` (no sampling, no
    discriminator pass, no rng draws), so the reductions hold exactly: ditto
    with lambda = 0 runs ditto_minus_la's instructions, and with rho = 0 as
    well it is bit-for-bit the baseline.
    """
    started = time.perf_counter()
    datasets.validate()
    targets = datasets.target_ids()
    source = VARIANTS[variant.kind][2]
    if prior is not None and source != "baseline":
        raise ConfigError(f"variant {variant.kind!r} takes no target prior from the caller")
    if source == "single":
        if variant.single_target not in targets:
            raise ConfigError(f"single target {variant.single_target!r} not in "
                              f"dataset targets {targets}")
        prior = LanguagePrior.single(variant.single_target)
    elif source == "uniform":
        prior = LanguagePrior.uniform(targets)
    elif source == "baseline":
        if prior is None:
            raise ConfigError(f"variant {variant.kind!r} needs a target prior "
                              "computed from baseline zero-shot scores")
        if set(prior.probs) != set(targets):
            raise ConfigError(f"prior targets {sorted(prior.probs)} do not match "
                              f"dataset targets {targets}")

    rng = Rng(seed)
    bundle = init_params(config.encoder, config.num_classes, targets, rng.child("init"))
    src = datasets.domains[datasets.source]
    n = src.labeled.n
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = max(1, config.epochs * steps_per_epoch)
    opts = Optimizers(
        enc=AdamWConfig(lr=config.lr, total_steps=total_steps,
                        weight_decay=config.weight_decay),
        disc=AdamWConfig(lr=config.disc_lr, total_steps=total_steps,
                         weight_decay=config.weight_decay),
    )
    shuffle_rng = rng.child("shuffle")
    adv_rng = rng.child("adversarial")
    sample_counts = {t: 0 for t in targets}
    records: list[EpochRecord] = []
    step = 0
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        task_losses: list[float] = []
        adv_losses: list[float] = []
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            X, y = src.labeled.X[idx], src.labeled.y[idx]
            if variant.lam == 0.0:
                task_loss = baseline_step(bundle, X, y, opts, variant, step)
                adv_loss, t = None, None
            else:
                task_loss, adv_loss, t = ditto_step(
                    bundle, X, y, prior, datasets, opts, variant, step, adv_rng)
            task_losses.append(task_loss)
            if adv_loss is not None:
                adv_losses.append(adv_loss)
                sample_counts[t] += 1
            step += 1
        mean_adv = float(np.mean(adv_losses)) if adv_losses else None
        records.append(EpochRecord(
            epoch=epoch,
            task_loss=float(np.mean(task_losses)),
            adv_loss=mean_adv,
            disc_loss=mean_adv,  # one shared pass: same scalar both sides
            per_domain_acc=domain_accuracies(bundle, datasets),
        ))
    report = TrainReport(
        variant=variant.name,
        seed=seed,
        epochs=records,
        target_sample_counts=sample_counts,
        final_per_domain_acc=domain_accuracies(bundle, datasets),
        wall_clock_seconds=time.perf_counter() - started,
    )
    return bundle, report


def few_shot_augment(datasets: DomainDataset, k: int, rng: Rng) -> DomainDataset:
    """Copy k labeled rows per target, drawn from its few-shot pool without
    replacement, into the source labeled set.  Every target split, the pool
    included, is left as it was.

    k = 0 returns the dataset untouched.
    """
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    if k == 0:
        return datasets
    src = datasets.domains[datasets.source]
    xs, ys = [src.labeled.X], [src.labeled.y]
    for t in datasets.target_ids():
        pool = datasets.domains[t].fewshot
        if pool.n < k:
            raise DataError(f"target {t!r} few-shot pool has {pool.n} labeled rows, "
                            f"need {k}")
        idx = rng.choice(pool.n, k, replace=False)
        xs.append(pool.X[idx])
        ys.append(pool.y[idx])
    return datasets.with_source_labeled(Rows(np.vstack(xs), np.concatenate(ys)))
