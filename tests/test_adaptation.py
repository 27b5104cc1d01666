"""Adaptation machinery: target prior, variant algebra, the training loop and
its exact degenerate-case reductions."""

import collections

import numpy as np
import pytest

from ditto import (
    DomainDataset,
    EncoderSpec,
    LanguagePrior,
    Rng,
    TrainConfig,
    TrainVariant,
    compute_prior,
    domain_accuracies,
    few_shot_augment,
    init_params,
    sample_target,
    train,
)
from ditto.adaptation import VARIANTS, Rows
from ditto.errors import ConfigError, DataError, LabelError, ParameterError
from ditto.model import predict_logits


CFG = TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[16, 8]),
                  num_classes=3, epochs=2, batch_size=32, lr=0.02, disc_lr=0.05)


def full_prior(dataset, seed=0):
    _, rep = train(CFG, dataset, TrainVariant.parse("baseline", 1.0, 0.05), seed)
    return compute_prior(rep.final_per_domain_acc, dataset.source)


# --- language prior ----------------------------------------------------------


def test_prior_pinned_recomputation():
    # spreadsheet-style independent route: deficits, population spread, weights
    scores = {"en": 57.17, "es": 50.12, "sw": 37.82, "th": 36.61}
    deltas = [57.17 - 50.12, 57.17 - 37.82, 57.17 - 36.61]
    mean = sum(deltas) / 3
    sigma = (sum((d - mean) ** 2 for d in deltas) / 3) ** 0.5
    weights = [d + sigma for d in deltas]
    expect = {t: w / sum(weights) for t, w in zip(["es", "sw", "th"], weights)}

    prior = compute_prior(scores, "en")
    assert set(prior.probs) == {"es", "sw", "th"}
    for t in expect:
        assert abs(prior.probs[t] - expect[t]) < 1e-12
    assert abs(sum(prior.probs.values()) - 1.0) < 1e-12
    # harder targets draw more of the mass
    assert prior.probs["th"] > prior.probs["sw"] > prior.probs["es"]


def test_prior_two_target_exact_example():
    # deficits {10, 0}: sigma = 5, weights {15, 5}, probabilities {0.75, 0.25}
    prior = compute_prior({"s": 80.0, "far": 70.0, "near": 80.0}, "s")
    assert prior.probs["far"] == 0.75
    assert prior.probs["near"] == 0.25


def test_prior_sums_to_one_on_random_tables():
    rng = Rng(100)
    for _ in range(200):
        n_targets = 2 + int(rng.integers(0, 6, 1)[0])
        scores = {"src": float(rng.uniform(30, 90, (1,))[0])}
        for i in range(n_targets):
            scores[f"t{i}"] = float(rng.uniform(0, 100, (1,))[0])
        prior = compute_prior(scores, "src")
        assert abs(sum(prior.probs.values()) - 1.0) < 1e-12
        assert all(p >= 0 for p in prior.probs.values())


def test_prior_targets_above_source_are_clipped():
    # both targets beat the source: all deficits clip to 0 -> uniform fallback
    prior = compute_prior({"s": 50.0, "a": 60.0, "b": 70.0}, "s")
    assert prior.probs == {"a": 0.5, "b": 0.5}


def test_prior_all_equal_scores_uniform():
    prior = compute_prior({"s": 50.0, "a": 50.0, "b": 50.0, "c": 50.0}, "s")
    assert all(abs(p - 1 / 3) < 1e-12 for p in prior.probs.values())


def test_prior_validation():
    with pytest.raises(DataError):
        compute_prior({"a": 50.0, "b": 40.0}, "missing")
    with pytest.raises(DataError):
        compute_prior({"s": 50.0}, "s")  # no targets
    with pytest.raises(DataError):
        compute_prior({"s": 50.0, "t": 101.0}, "s")
    with pytest.raises(DataError):
        compute_prior({"s": -1.0, "t": 40.0}, "s")
    with pytest.raises(ConfigError):
        LanguagePrior({"a": 0.7, "b": 0.7})
    with pytest.raises(ConfigError):
        LanguagePrior({"a": 1.5, "b": -0.5})


@pytest.mark.parametrize("probs,key", [
    ({"a": float("nan"), "b": 0.5}, "probs.a"),  # passed both the sign and the sum test
    ({"a": True, "b": 0.0}, "probs.a"),
    ({"a": 0.5, "b": float("inf")}, "probs.b"),
], ids=["nan", "bool", "inf"])
def test_prior_probability_that_is_not_a_finite_number_is_rejected(probs, key):
    with pytest.raises(ConfigError, match="expected a") as exc:
        LanguagePrior(probs)
    assert exc.value.key == key


def test_prior_statics():
    assert LanguagePrior.single("x").probs == {"x": 1.0}
    uni = LanguagePrior.uniform(["a", "b", "c", "d"])
    assert all(p == 0.25 for p in uni.probs.values())


def test_sampling_frequencies_match_prior():
    prior = LanguagePrior({"a": 0.6, "b": 0.3, "c": 0.1})
    rng = Rng(55)
    counts = collections.Counter(sample_target(prior, rng) for _ in range(100_000))
    l1 = sum(abs(counts[t] / 100_000 - p) for t, p in prior.probs.items())
    assert l1 <= 0.02


def test_sampling_deterministic():
    prior = LanguagePrior({"a": 0.5, "b": 0.5})
    draws1 = [sample_target(prior, Rng(9).child("adversarial")) for _ in range(5)]
    draws2 = [sample_target(prior, Rng(9).child("adversarial")) for _ in range(5)]
    assert draws1 == draws2


def test_single_target_prior_always_samples_it():
    prior = LanguagePrior.single("only")
    rng = Rng(0)
    assert all(sample_target(prior, rng) == "only" for _ in range(50))


# --- variant algebra ---------------------------------------------------------


def test_variant_parse_names():
    v = TrainVariant.parse("baseline", lam=1.0, rho=0.05)
    assert v.kind == "baseline" and v.lam == 0.0 and v.rho == 0.0

    v = TrainVariant.parse("ditto", lam=0.7, rho=0.05)
    assert v.lam == 0.7 and v.rho == 0.05

    v = TrainVariant.parse("ditto_minus_sam", lam=0.7, rho=0.05)
    assert v.lam == 0.7 and v.rho == 0.0

    v = TrainVariant.parse("ditto_minus_la", lam=0.7, rho=0.05)
    assert v.lam == 0.0 and v.rho == 0.05

    v = TrainVariant.parse("ditto_single:rot45", lam=1.0, rho=0.05)
    assert v.kind == "ditto_single" and v.single_target == "rot45"
    assert v.name == "ditto_single:rot45"

    v = TrainVariant.parse("ditto_uniform", lam=1.0, rho=0.05)
    assert v.kind == "ditto_uniform"


@pytest.mark.parametrize("target", ["", "../rot15", "a/b", "a\\b"])
def test_variant_parse_rejects_a_single_target_with_a_separator(target):
    # the variant name becomes a run directory under the results root
    with pytest.raises(ConfigError, match="without '/'"):
        TrainVariant.parse(f"ditto_single:{target}", 1.0, 0.05)


def test_variant_parse_rejects_unknown():
    with pytest.raises(ConfigError):
        TrainVariant.parse("dittoo", 1.0, 0.05)
    with pytest.raises(ConfigError):
        TrainVariant.parse("ditto_single", 1.0, 0.05)  # no target id
    with pytest.raises(ConfigError):
        TrainVariant.parse("ditto", -1.0, 0.05)


# (CLI name, lambda, rho, prior source) of each kind parsed with lam=0.7, rho=0.05
VARIANT_ROWS = [
    ("baseline", 0.0, 0.0, None),
    ("ditto", 0.7, 0.05, "baseline"),
    ("ditto_minus_sam", 0.7, 0.0, "baseline"),
    ("ditto_minus_la", 0.0, 0.05, None),
    ("ditto_single:rot45", 0.7, 0.05, "single"),
    ("ditto_uniform", 0.7, 0.05, "uniform"),
]


def test_variant_table_has_the_six_kinds():
    assert sorted(VARIANTS) == sorted(name.partition(":")[0] for name, *_ in VARIANT_ROWS)


@pytest.mark.parametrize("name,lam,rho,prior", VARIANT_ROWS,
                         ids=[row[0] for row in VARIANT_ROWS])
def test_variant_parse_follows_the_table(name, lam, rho, prior):
    v = TrainVariant.parse(name, lam=0.7, rho=0.05)
    assert (v.lam, v.rho, VARIANTS[v.kind][2], v.name) == (lam, rho, prior, name)
    assert v.needs_prior == (prior == "baseline")


@pytest.mark.parametrize("build,message", [
    (lambda: TrainVariant("baseline", lam=0.5, rho=0.0),
     "baseline requires lambda = 0"),
    (lambda: TrainVariant("ditto_minus_la", lam=0.5, rho=0.05),
     "ditto_minus_la requires lambda = 0"),
    (lambda: TrainVariant("baseline", lam=0.0, rho=0.1),
     "baseline requires rho = 0"),
    (lambda: TrainVariant("ditto_minus_sam", lam=1.0, rho=0.1),
     "ditto_minus_sam requires rho = 0"),
    (lambda: TrainVariant("ditto_uniform", 1.0, 0.05, single_target="rot45"),
     "only ditto_single takes a target"),
    (lambda: TrainVariant("ditto_single", lam=1.0, rho=0.05),
     "only ditto_single takes a target"),
    (lambda: TrainVariant.parse("ditto:foo", 1.0, 0.05), "only ditto_single takes a target"),
    (lambda: TrainVariant.parse("baseline:x", 1.0, 0.05), "only ditto_single takes a target"),
    (lambda: TrainVariant("ditto", lam=float("nan"), rho=0.05),
     "lam: expected a finite number, got NaN"),
    (lambda: TrainConfig(encoder=CFG.encoder, num_classes=3, epochs=1, lr=float("nan")),
     "lr: expected a finite number, got NaN"),
], ids=["lambda_on_baseline", "lambda_on_minus_la", "rho_on_baseline", "rho_on_minus_sam",
        "target_on_uniform", "single_without_target", "ditto_with_suffix",
        "baseline_with_suffix", "nan_lambda", "nan_lr"])
def test_variant_construction_enforces_the_table(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


@pytest.mark.parametrize("kind", list(VARIANTS))
def test_variant_takes_lambda_and_rho_explicitly(kind):
    # defaults once built a ditto without SAM and a baseline that rejected its own lambda;
    # parse has no defaults either, so the grid's lambda and rho live in ExperimentConfig only
    with pytest.raises(TypeError, match="lam"):
        TrainVariant(kind)
    with pytest.raises(TypeError, match="rho"):
        TrainVariant(kind, 0.0)
    with pytest.raises(TypeError, match="lam"):
        TrainVariant.parse(kind)
    with pytest.raises(TypeError, match="rho"):
        TrainVariant.parse(kind, 0.0)


# --- training loop -----------------------------------------------------------


def test_baseline_reaches_source_accuracy(small_dataset):
    cfg = TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[16, 8]),
                      num_classes=3, epochs=12, batch_size=32, lr=0.03, disc_lr=0.05)
    _, rep = train(cfg, small_dataset, TrainVariant.parse("baseline", 1.0, 0.0), seed=0)
    assert rep.final_per_domain_acc["src"] >= 99.0


def test_train_requires_prior_for_weighted_variants(small_dataset):
    with pytest.raises(ConfigError):
        train(CFG, small_dataset, TrainVariant.parse("ditto", 1.0, 0.05), 0, prior=None)
    bad = LanguagePrior({"x": 1.0})
    with pytest.raises(ConfigError):
        train(CFG, small_dataset, TrainVariant.parse("ditto", 1.0, 0.05), 0, prior=bad)
    with pytest.raises(ConfigError):
        train(CFG, small_dataset, TrainVariant.parse("ditto_single:rot99", 1.0, 0.05), 0)


@pytest.mark.parametrize("name", [kind + (":rot15" if source == "single" else "")
                                  for kind, (_, _, source) in VARIANTS.items()
                                  if source != "baseline"])
def test_train_rejects_a_prior_for_a_kind_that_takes_none(small_dataset, name):
    variant = TrainVariant.parse(name, 1.0, 0.05)
    prior = LanguagePrior.uniform(small_dataset.target_ids())
    with pytest.raises(ConfigError, match=f"^variant '{variant.kind}' takes no target prior"):
        train(CFG, small_dataset, variant, 0, prior=prior)


def _params_equal(a, b):
    names_a, names_b = a.store.names(), b.store.names()
    if names_a != names_b:
        return False
    return all(np.array_equal(a.store[n].value, b.store[n].value) for n in names_a)


def test_reduction_lambda_and_rho_zero_is_baseline(small_dataset):
    # at least 10 optimizer steps: 240 rows / 32 per batch = 8 steps/epoch
    base_bundle, base_rep = train(CFG, small_dataset,
                                  TrainVariant.parse("baseline", 1.0, 0.0), seed=3)
    red_bundle, red_rep = train(CFG, small_dataset,
                                TrainVariant("ditto", lam=0.0, rho=0.0), seed=3,
                                prior=full_prior(small_dataset, seed=3))
    assert _params_equal(base_bundle, red_bundle)
    assert base_rep.final_per_domain_acc == red_rep.final_per_domain_acc


def test_reduction_lambda_zero_is_minus_la(small_dataset):
    la_bundle, _ = train(CFG, small_dataset,
                         TrainVariant.parse("ditto_minus_la", 1.0, 0.05), seed=4)
    red_bundle, _ = train(CFG, small_dataset,
                          TrainVariant("ditto", lam=0.0, rho=0.05),
                          seed=4, prior=full_prior(small_dataset, seed=4))
    assert _params_equal(la_bundle, red_bundle)


def test_reduction_rho_zero_is_minus_sam(small_dataset):
    prior = full_prior(small_dataset, seed=5)
    sam_bundle, sam_rep = train(CFG, small_dataset,
                                TrainVariant.parse("ditto_minus_sam", 1.0, 0.0),
                                seed=5, prior=prior)
    red_bundle, red_rep = train(CFG, small_dataset,
                                TrainVariant("ditto", lam=1.0, rho=0.0), seed=5,
                                prior=prior)
    assert _params_equal(sam_bundle, red_bundle)
    assert sam_rep.target_sample_counts == red_rep.target_sample_counts


def test_train_deterministic(small_dataset):
    prior = full_prior(small_dataset)
    v = TrainVariant.parse("ditto", 0.5, 0.05)
    b1, r1 = train(CFG, small_dataset, v, seed=11, prior=prior)
    b2, r2 = train(CFG, small_dataset, v, seed=11, prior=prior)
    assert _params_equal(b1, b2)
    assert r1.comparable() == r2.comparable()
    b3, _ = train(CFG, small_dataset, v, seed=12, prior=prior)
    assert not _params_equal(b1, b3)


def test_wall_clock_excluded_from_comparable(small_dataset):
    _, rep = train(CFG, small_dataset, TrainVariant.parse("baseline", 1.0, 0.0), 0)
    assert rep.wall_clock_seconds > 0
    assert "wall_clock_seconds" not in rep.comparable()


def test_zero_epochs_returns_init(small_dataset):
    cfg = TrainConfig(encoder=CFG.encoder, num_classes=3, epochs=0)
    bundle, rep = train(cfg, small_dataset, TrainVariant.parse("baseline", 1.0, 0.0),
                        seed=8)
    init = init_params(cfg.encoder, 3, small_dataset.target_ids(), Rng(8).child("init"))
    assert _params_equal(bundle, init)
    assert rep.epochs == []


def test_final_accuracies_equal_last_epoch_record(small_dataset):
    # no step runs after the last epoch's evaluation
    cfg = TrainConfig(encoder=CFG.encoder, num_classes=3, epochs=3)
    bundle, rep = train(cfg, small_dataset, TrainVariant.parse("ditto_uniform", 1.0, 0.05),
                        seed=9)
    assert rep.final_per_domain_acc == rep.epochs[-1].per_domain_acc
    assert rep.final_per_domain_acc == domain_accuracies(bundle, small_dataset)


def test_single_target_leaves_other_discriminators_untouched(small_dataset):
    bundle, rep = train(CFG, small_dataset,
                        TrainVariant.parse("ditto_single:rot45", 1.0, 0.05), seed=2)
    init = init_params(CFG.encoder, 3, small_dataset.target_ids(), Rng(2).child("init"))
    for t in ("rot15", "rot30"):
        assert rep.target_sample_counts[t] == 0
        for name in bundle.disc_param_names(t):
            assert np.array_equal(bundle.store[name].value, init.store[name].value), name
    assert rep.target_sample_counts["rot45"] == 16  # every step: 2 epochs x 8
    # the selected discriminator did move
    assert not np.array_equal(bundle.store["disc.rot45.head.W"].value,
                              init.store["disc.rot45.head.W"].value)


def test_adversarial_sample_counts_partition_steps(small_dataset):
    prior = full_prior(small_dataset)
    _, rep = train(CFG, small_dataset, TrainVariant.parse("ditto", 1.0, 0.05),
                   seed=6, prior=prior)
    assert sum(rep.target_sample_counts.values()) == 16
    _, rep_la = train(CFG, small_dataset,
                      TrainVariant.parse("ditto_minus_la", 1.0, 0.05), seed=6)
    assert sum(rep_la.target_sample_counts.values()) == 0
    assert all(r.adv_loss is None for r in rep_la.epochs)


def test_epoch_records_shape(small_dataset):
    prior = full_prior(small_dataset)
    _, rep = train(CFG, small_dataset, TrainVariant.parse("ditto", 1.0, 0.05),
                   seed=1, prior=prior)
    assert len(rep.epochs) == CFG.epochs
    for i, rec in enumerate(rep.epochs):
        assert rec.epoch == i
        assert np.isfinite(rec.task_loss)
        assert rec.adv_loss is not None and np.isfinite(rec.adv_loss)
        assert rec.disc_loss == rec.adv_loss  # one shared adversarial pass
        assert set(rec.per_domain_acc) == {"src", "rot15", "rot30", "rot45"}


def test_untrained_discriminator_near_maximal_confusion(small_dataset):
    # fresh head weights are small: probabilities hover around 0.5, so the
    # first adversarial losses sit near ln 2
    prior = full_prior(small_dataset)
    cfg = TrainConfig(encoder=CFG.encoder, num_classes=3, epochs=1,
                      batch_size=32, lr=1e-6, disc_lr=1e-6)
    _, rep = train(cfg, small_dataset, TrainVariant.parse("ditto", 1.0, 0.0),
                   seed=0, prior=prior)
    assert abs(rep.epochs[0].adv_loss - np.log(2.0)) < 0.05


def test_domain_accuracies_matches_recount(small_dataset):
    bundle, _ = train(CFG, small_dataset, TrainVariant.parse("baseline", 1.0, 0.0), 0)
    accs = domain_accuracies(bundle, small_dataset)
    for dom, splits in small_dataset.domains.items():
        logits = predict_logits(bundle, splits.eval.X)
        hits = sum(int(np.argmax(logits[i]) == splits.eval.y[i])
                   for i in range(logits.shape[0]))
        # fraction first, then percent: the exact arithmetic shape of the op
        assert accs[dom] == 100.0 * (hits / logits.shape[0])


def test_domain_accuracies_rejects_out_of_range_labels(small_dataset):
    bundle, _ = train(CFG, small_dataset, TrainVariant.parse("baseline", 1.0, 0.0), 0)
    broken = DomainDataset(
        source=small_dataset.source,
        domains=dict(small_dataset.domains))
    bad_eval = Rows(small_dataset.domains["src"].eval.X,
                    np.full(small_dataset.domains["src"].eval.n, 7))
    import dataclasses
    broken.domains["src"] = dataclasses.replace(broken.domains["src"], eval=bad_eval)
    with pytest.raises(LabelError):
        domain_accuracies(bundle, broken)


# --- few-shot augmentation ---------------------------------------------------


def test_few_shot_zero_is_identity(small_dataset):
    assert few_shot_augment(small_dataset, 0, Rng(0)) is small_dataset


def test_few_shot_adds_k_rows_per_target(small_dataset):
    k = 5
    aug = few_shot_augment(small_dataset, k, Rng(1))
    n0 = small_dataset.domains["src"].labeled.n
    assert aug.domains["src"].labeled.n == n0 + k * 3
    # target splits untouched
    for t in small_dataset.target_ids():
        assert aug.domains[t].labeled.n == small_dataset.domains[t].labeled.n

    # every added row exists in the corresponding few-shot pool
    added = aug.domains["src"].labeled.X[n0:]
    pools = np.vstack([small_dataset.domains[t].fewshot.X
                       for t in small_dataset.target_ids()])
    for row in added:
        assert np.any(np.all(pools == row, axis=1))


def test_few_shot_rows_distinct_within_target(small_dataset):
    aug = few_shot_augment(small_dataset, 8, Rng(2))
    n0 = small_dataset.domains["src"].labeled.n
    added = aug.domains["src"].labeled.X[n0:]
    assert len(np.unique(added, axis=0)) == added.shape[0]


def test_few_shot_deterministic(small_dataset):
    a = few_shot_augment(small_dataset, 4, Rng(3))
    b = few_shot_augment(small_dataset, 4, Rng(3))
    assert np.array_equal(a.domains["src"].labeled.X, b.domains["src"].labeled.X)
    assert np.array_equal(a.domains["src"].labeled.y, b.domains["src"].labeled.y)


def test_few_shot_pool_exhaustion_raises(small_dataset):
    with pytest.raises(DataError):
        few_shot_augment(small_dataset, 31, Rng(0))  # pools hold 30 rows
    with pytest.raises(ParameterError):
        few_shot_augment(small_dataset, -1, Rng(0))


# --- the recorded graph of a training step ---------------------------------------


def test_training_steps_record_a_fixed_graph(small_dataset, monkeypatch):
    # Non-leaf tape records per step, counted at `Tape._record` as the bench
    # tracer counts them (its autodiff.ops_per_step).  A baseline step is one
    # task pass: 2 x (affine, tanh), classifier affine, cross-entropy.  A ditto
    # step with SAM and lambda > 0 is two task passes plus the adversarial
    # pass: encoder (4), grad_reverse, discriminator (affine, tanh, affine,
    # sigmoid) and binary cross-entropy.
    from ditto.adaptation import Optimizers, baseline_step, ditto_step
    from ditto.autodiff import Tape
    from ditto.optim import AdamWConfig

    recorded = []
    record = Tape._record

    def counted(tape, value, parents, vjp, param=None):
        if parents:
            recorded.append(vjp)
        return record(tape, value, parents, vjp, param)

    monkeypatch.setattr(Tape, "_record", counted)
    bundle = init_params(CFG.encoder, CFG.num_classes, small_dataset.target_ids(), Rng(0))
    opts = Optimizers(enc=AdamWConfig(lr=0.02, total_steps=10),
                      disc=AdamWConfig(lr=0.05, total_steps=10))
    src = small_dataset.domains[small_dataset.source].labeled
    X, y = src.X[:32], src.y[:32]
    prior = LanguagePrior.uniform(small_dataset.target_ids())
    per_step = {}
    for step, name in enumerate(["baseline", "ditto", "ditto_minus_la", "ditto_minus_sam"]):
        variant = TrainVariant.parse(name, lam=0.25, rho=0.05)
        recorded.clear()
        if name == "baseline":
            baseline_step(bundle, X, y, opts, variant, step)
        else:
            ditto_step(bundle, X, y, prior, small_dataset, opts, variant, step, Rng(1))
        per_step[name] = len(recorded)
    assert per_step == {"baseline": 6, "ditto": 22, "ditto_minus_la": 12, "ditto_minus_sam": 16}
