"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s, or in
the captured output of a failing run) and then asserts.  The rotation-ladder
benchmark constants are frozen here: three Gaussian classes at distinct radii
so that cluster correspondence across rotations stays resolvable, with one
tight 90-degree angular gap so that even small rotations cost accuracy.
"""

import csv
import json
import time

import numpy as np
import pytest

from ditto import (
    AdamWConfig,
    DomainSpec,
    EncoderSpec,
    MixtureSpec,
    ParamStore,
    Rng,
    SizeSpec,
    Tape,
    TrainConfig,
    TrainVariant,
    adamw_step,
    CostParams,
    EvalTable,
    annotation_cost,
    backward,
    compute_prior,
    domain_accuracies,
    extract_features,
    finite_diff_check,
    gap_table,
    generate_synthetic,
    linear_cka,
    pearson,
    relative_gain,
    sam_step,
    sample_target,
    train,
)
from ditto.autodiff import (
    activation,
    affine,
    binary_cross_entropy,
    grad_reverse,
    hadamard,
    matmul,
    minimum,
    sigmoid,
    softmax_cross_entropy,
    summation,
)
from ditto.cli import main as cli_main
from ditto.optim import sam_perturb

from test_analysis import XNLI_BASELINES, hsic_cka
from test_optim import LEFT_CROSSING, RIGHT_CROSSING, quad_loss, run_double_well

# --- frozen benchmark ---------------------------------------------------------

MEANS = [[0.0, 1.8], [3.0, 0.0], [-3.44, -2.409]]
SIGMA = 0.55
DATA_SEED = 7
SEEDS = (0, 1, 2, 3, 4)
BENCH_ANGLES = (15, 30, 45, 60)
LADDER_ANGLES = (15, 30, 45, 60, 75)
LAM = 0.25
RHO = 0.05
FAR_TARGET = "rot60"
SINGLE_TARGET = "rot45"

BENCH_TRAIN = TrainConfig(
    encoder=EncoderSpec(input_dim=2, hidden_dims=[32, 16]),
    num_classes=3, epochs=100, batch_size=64,
    lr=0.02, disc_lr=0.1, weight_decay=0.01,
)


def _report(tag, ok):
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'}")
    assert ok


def ladder_dataset(angles):
    domains = [DomainSpec("src", "source", {"kind": "identity"},
                          SizeSpec(labeled=2000, unlabeled=2000, fewshot=100, eval=2000))]
    for a in angles:
        domains.append(DomainSpec(f"rot{a}", "target",
                                  {"kind": "rotation", "angle": float(a)},
                                  SizeSpec(labeled=0, unlabeled=2000, fewshot=100, eval=2000)))
    return generate_synthetic(MixtureSpec(MEANS, SIGMA), domains, Rng(DATA_SEED))


def cka_per_target(bundle, dataset):
    src = extract_features(bundle, dataset.domains["src"].eval.X)
    return {t: linear_cka(src, extract_features(bundle, dataset.domains[t].eval.X))
            for t in dataset.target_ids()}


@pytest.fixture(scope="module")
def bench():
    """Five seeded (baseline, ditto, ditto_single) triples on the 60-degree
    ladder; the baseline+ditto portion is timed for the runtime bound."""
    dataset = ladder_dataset(BENCH_ANGLES)
    runs = []
    timed = 0.0
    for seed in SEEDS:
        t0 = time.perf_counter()
        base_bundle, _ = train(BENCH_TRAIN, dataset,
                               TrainVariant.parse("baseline", LAM, RHO), seed)
        base_acc = domain_accuracies(base_bundle, dataset)
        prior = compute_prior(base_acc, "src")
        ditto_bundle, _ = train(BENCH_TRAIN, dataset,
                                TrainVariant.parse("ditto", LAM, RHO), seed,
                                prior=prior)
        timed += time.perf_counter() - t0
        single_bundle, _ = train(BENCH_TRAIN, dataset,
                                 TrainVariant.parse(f"ditto_single:{SINGLE_TARGET}",
                                                    LAM, RHO), seed)
        runs.append({
            "baseline": (base_acc, cka_per_target(base_bundle, dataset)),
            "ditto": (domain_accuracies(ditto_bundle, dataset),
                      cka_per_target(ditto_bundle, dataset)),
            "single": (domain_accuracies(single_bundle, dataset),
                       cka_per_target(single_bundle, dataset)),
        })
    targets = [f"rot{a}" for a in BENCH_ANGLES]
    return {"runs": runs, "targets": targets, "seconds": timed}


def _seed_mean(bench_data, variant, kind, target):
    idx = 0 if kind == "acc" else 1
    return float(np.mean([r[variant][idx][target] for r in bench_data["runs"]]))


# --- 1: gradient checks ---------------------------------------------------------


def test_criterion_01_finite_difference_gradients():
    rng = Rng(101)
    started = time.perf_counter()

    def scalar(proc):
        def loss():
            return summation(proc())
        return loss

    def case_matmul(store, tape_ref):
        store.add("A", rng.normal(0, 1, (3, 4)))
        store.add("B", rng.normal(0, 1, (4, 2)))
        def proc():
            tape = Tape()
            return matmul(tape.watch(store["A"]), tape.watch(store["B"]))
        return scalar(proc)

    def case_affine(store, tape_ref):
        store.add("X", rng.normal(0, 1, (4, 3)))
        store.add("W", rng.normal(0, 1, (3, 2)))
        store.add("b", rng.normal(0, 1, (1, 2)))
        def proc():
            tape = Tape()
            return affine(tape.watch(store["X"]), tape.watch(store["W"]),
                          tape.watch(store["b"]))
        return scalar(proc)

    def _away_from_kink(shape):
        x = rng.normal(0, 1, shape)
        x[np.abs(x) < 0.05] += 0.2
        return x

    def case_tanh(store, tape_ref):
        store.add("X", rng.normal(0, 1, (5, 4)))
        def proc():
            tape = Tape()
            return activation(tape.watch(store["X"]), "tanh")
        return scalar(proc)

    def case_relu(store, tape_ref):
        store.add("X", _away_from_kink((5, 4)))
        def proc():
            tape = Tape()
            return activation(tape.watch(store["X"]), "relu")
        return scalar(proc)

    def case_sigmoid(store, tape_ref):
        store.add("X", rng.normal(0, 1, (5, 4)))
        def proc():
            tape = Tape()
            return sigmoid(tape.watch(store["X"]))
        return scalar(proc)

    def case_hadamard(store, tape_ref):
        store.add("A", rng.normal(0, 1, (4, 4)))
        store.add("B", rng.normal(0, 1, (4, 4)))
        def proc():
            tape = Tape()
            return hadamard(tape.watch(store["A"]), tape.watch(store["B"]))
        return scalar(proc)

    def case_minimum(store, tape_ref):
        a = rng.normal(0, 1, (4, 3))
        b = a + np.where(rng.normal(0, 1, (4, 3)) > 0, 0.5, -0.5)
        store.add("A", a)
        store.add("B", b)
        def proc():
            tape = Tape()
            return minimum(tape.watch(store["A"]), tape.watch(store["B"]))
        return scalar(proc)

    def case_softmax_ce(store, tape_ref):
        store.add("Z", rng.normal(0, 2, (6, 3)))
        y = rng.integers(0, 3, 6)
        def loss():
            tape = Tape()
            return softmax_cross_entropy(tape.watch(store["Z"]), y)
        return loss

    def case_bce(store, tape_ref):
        store.add("Z", rng.normal(0, 1, (6, 1)))
        y = rng.integers(0, 2, 6).astype(np.float64).reshape(6, 1)
        def loss():
            tape = Tape()
            return binary_cross_entropy(sigmoid(tape.watch(store["Z"])), y)
        return loss

    def case_pipeline(store, tape_ref):
        store.add("W1", rng.normal(0, 0.5, (2, 8)))
        store.add("b1", rng.normal(0, 0.1, (1, 8)))
        store.add("W2", rng.normal(0, 0.5, (8, 3)))
        store.add("b2", rng.normal(0, 0.1, (1, 3)))
        X = rng.normal(0, 1, (5, 2))
        y = rng.integers(0, 3, 5)
        def loss():
            tape = Tape()
            h = activation(affine(tape.constant(X), tape.watch(store["W1"]),
                                  tape.watch(store["b1"])), "tanh")
            z = affine(h, tape.watch(store["W2"]), tape.watch(store["b2"]))
            return softmax_cross_entropy(z, y)
        return loss

    cases = [case_matmul, case_affine, case_tanh, case_relu, case_sigmoid,
             case_hadamard, case_minimum, case_softmax_ce, case_bce,
             case_pipeline]
    worst = 0.0
    for case in cases:
        for _ in range(50):
            store = ParamStore()
            loss = case(store, None)
            err = finite_diff_check(loss, store, h=1e-5)
            worst = max(worst, err)

    # the reversal op's forward is deliberately not the antiderivative of its
    # backward, so it is checked against its defining contract instead
    x = rng.normal(0, 1, (4, 3))
    store = ParamStore()
    store.add("X", x)
    tape = Tape()
    node = tape.watch(store["X"])
    backward(summation(grad_reverse(node, 0.7)))
    reversal_ok = (np.array_equal(node.value, x)
                   and np.allclose(store["X"].grad, -0.7, atol=1e-15))

    elapsed = time.perf_counter() - started
    _report("01", worst < 1e-4 and reversal_ok and elapsed < 30.0)


# --- 2: the two-step perturbation protocol --------------------------------------


def test_criterion_02a_exact_perturbation():
    store = ParamStore()
    store.add("w", np.zeros((1, 2)))
    store["w"].grad[...] = np.array([[3.0, 4.0]])
    sam_perturb(store, rho=0.05)
    _report("02a", np.array_equal(store["w"].value, np.array([[0.03, 0.04]])))


def test_criterion_02b_perturbation_norm():
    rng = Rng(21)
    ok = True
    for trial in range(10):
        store = ParamStore()
        store.add("A", rng.normal(0, 1, (4, 3)))
        store.add("B", rng.normal(0, 1, (2, 5)))
        originals = {n: store[n].value.copy() for n in store.names()}
        store["A"].grad[...] = rng.normal(0, 1, (4, 3))
        store["B"].grad[...] = rng.normal(0, 1, (2, 5))
        rho = 0.05 * (trial + 1)
        sam_perturb(store, rho=rho)
        sq = sum(np.sum((store[n].value - originals[n]) ** 2) for n in store.names())
        ok = ok and abs(np.sqrt(sq) - rho) < 1e-12
    _report("02b", ok)


def test_criterion_02c_zero_radius_is_adamw():
    cfg = AdamWConfig(lr=0.05, total_steps=10, weight_decay=0.01)
    a = ParamStore()
    a.add("w", np.array([[1.5, -2.0]]))
    b = ParamStore()
    b.add("w", np.array([[1.5, -2.0]]))
    ok = True
    for step in range(10):
        sam_step(quad_loss(a), a, 0.0, cfg, step)
        b.reset_grads()
        backward(quad_loss(b)())
        adamw_step(b, cfg, step)
        ok = ok and np.array_equal(a["w"].value, b["w"].value)
    _report("02c", ok)


def test_criterion_02d_double_well_basins():
    w_plain = run_double_well(rho=0.0)
    w_sam = run_double_well(rho=0.3)
    sharp = LEFT_CROSSING < w_plain < RIGHT_CROSSING and abs(w_plain - 1.0) < 0.05
    flat = w_sam < LEFT_CROSSING
    _report("02d", sharp and flat)


# --- 3: variant reductions -------------------------------------------------------


def test_criterion_03_variant_reductions():
    domains = [DomainSpec("src", "source", {"kind": "identity"},
                          SizeSpec(labeled=320, unlabeled=320, fewshot=10, eval=60)),
               DomainSpec("rot20", "target", {"kind": "rotation", "angle": 20.0},
                          SizeSpec(labeled=0, unlabeled=320, fewshot=10, eval=60)),
               DomainSpec("rot50", "target", {"kind": "rotation", "angle": 50.0},
                          SizeSpec(labeled=0, unlabeled=320, fewshot=10, eval=60))]
    dataset = generate_synthetic(MixtureSpec(MEANS, SIGMA), domains, Rng(11))
    # 320 rows / 64 per batch = 5 steps per epoch; 2 epochs = 10 steps
    cfg = TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[16, 8]),
                      num_classes=3, epochs=2, batch_size=64, lr=0.02, disc_lr=0.1)

    def params(bundle):
        return {n: bundle.store[n].value for n in bundle.store.names()}

    def equal(a, b):
        pa, pb = params(a), params(b)
        return set(pa) == set(pb) and all(np.array_equal(pa[n], pb[n]) for n in pa)

    def prior_for(seed):
        bundle, _ = train(cfg, dataset, TrainVariant.parse("baseline", 0.0, 0.0), seed)
        return compute_prior(domain_accuracies(bundle, dataset), "src")

    base, _ = train(cfg, dataset, TrainVariant.parse("baseline", 1.0, 0.0), seed=3)
    red_base, _ = train(cfg, dataset, TrainVariant("ditto", lam=0.0, rho=0.0),
                        seed=3, prior=prior_for(3))

    minus_la, _ = train(cfg, dataset, TrainVariant.parse("ditto_minus_la", 1.0, RHO),
                        seed=4)
    red_la, _ = train(cfg, dataset, TrainVariant("ditto", lam=0.0, rho=RHO),
                      seed=4, prior=prior_for(4))

    prior5 = prior_for(5)
    minus_sam, _ = train(cfg, dataset, TrainVariant.parse("ditto_minus_sam", LAM, 0.0),
                         seed=5, prior=prior5)
    red_sam, _ = train(cfg, dataset, TrainVariant("ditto", lam=LAM, rho=0.0),
                       seed=5, prior=prior5)

    _report("03", equal(base, red_base) and equal(minus_la, red_la)
            and equal(minus_sam, red_sam))


# --- 4: the target prior ---------------------------------------------------------


def test_criterion_04_prior_distribution():
    rng = Rng(404)
    sums_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 6, 1)[0])
        scores = {f"t{i}": float(rng.uniform(0, 100, 1)[0]) for i in range(n)}
        scores["src"] = float(rng.uniform(0, 100, 1)[0])
        prior = compute_prior(scores, "src")
        sums_ok = sums_ok and abs(sum(prior.probs.values()) - 1.0) < 1e-12

    flat = compute_prior({"src": 80.0, "a": 55.0, "b": 55.0, "c": 55.0}, "src")
    uniform_ok = all(abs(p - 1 / 3) < 1e-15 for p in flat.probs.values())

    pair = compute_prior({"src": 90.0, "a": 80.0, "b": 90.0}, "src")
    example_ok = pair.probs["a"] == 0.75 and pair.probs["b"] == 0.25

    prior = compute_prior({"src": 90.0, "a": 80.0, "b": 85.0, "c": 88.0}, "src")
    draw_rng = Rng(99)
    counts = {t: 0 for t in prior.probs}
    n_draws = 100_000
    for _ in range(n_draws):
        counts[sample_target(prior, draw_rng)] += 1
    l1 = sum(abs(counts[t] / n_draws - prior.probs[t]) for t in prior.probs)

    _report("04", sums_ok and uniform_ok and example_ok and l1 <= 0.02)


# --- 5: representation similarity -------------------------------------------------


def test_criterion_05_cka_properties():
    rng = Rng(505)
    ok = True
    for trial in range(20):
        n = int(rng.integers(20, 40, 1)[0])
        p = int(rng.integers(3, 10, 1)[0])
        q = int(rng.integers(3, 10, 1)[0])
        X = rng.normal(0, 1, (n, p))
        Y = rng.normal(0, 1, (n, q))
        ok = ok and abs(linear_cka(X, X) - 1.0) < 1e-10
        Q, _ = np.linalg.qr(rng.normal(0, 1, (p, p)))
        ok = ok and abs(linear_cka(X @ Q, Y) - linear_cka(X, Y)) < 1e-10
        ok = ok and abs(linear_cka(2.7 * X, Y) - linear_cka(X, Y)) < 1e-10
        ok = ok and abs(linear_cka(X, Y) - linear_cka(Y, X)) < 1e-12
        ok = ok and abs(linear_cka(X, Y) - hsic_cka(X, Y)) < 1e-10
        ok = ok and 0.0 <= linear_cka(X, Y) <= 1.0
    _report("05", ok)


# --- 6: the rotation-ladder benchmark ----------------------------------------------


def test_criterion_06_adaptation_beats_baseline(bench):
    targets = bench["targets"]
    base_mean = np.mean([_seed_mean(bench, "baseline", "acc", t) for t in targets])
    ditto_mean = np.mean([_seed_mean(bench, "ditto", "acc", t) for t in targets])
    gain_ok = ditto_mean - base_mean >= 5.0

    cka_ok = all(_seed_mean(bench, "ditto", "cka", t)
                 > _seed_mean(bench, "baseline", "cka", t) for t in targets)

    gains = {t: _seed_mean(bench, "ditto", "acc", t)
             - _seed_mean(bench, "baseline", "acc", t) for t in targets}
    far_ok = max(gains, key=gains.get) == FAR_TARGET

    time_ok = bench["seconds"] < 300.0
    print(f"  mean target accuracy {base_mean:.2f} -> {ditto_mean:.2f} "
          f"(+{ditto_mean - base_mean:.2f}); per-target gains "
          + " ".join(f"{t}:{gains[t]:+.2f}" for t in targets)
          + f"; benchmark wall clock {bench['seconds']:.0f}s")
    _report("06", gain_ok and cka_ok and far_ok and time_ok)


# --- 7: similarity tracks transfer --------------------------------------------------


def test_criterion_07_cka_accuracy_correlation():
    dataset = ladder_dataset(LADDER_ANGLES)
    targets = [f"rot{a}" for a in LADDER_ANGLES]
    rs = []
    for seed in SEEDS:
        bundle, _ = train(BENCH_TRAIN, dataset,
                          TrainVariant.parse("baseline", LAM, RHO), seed)
        accs = domain_accuracies(bundle, dataset)
        ckas = cka_per_target(bundle, dataset)
        rs.append(pearson([ckas[t] for t in targets], [accs[t] for t in targets]))
    mean_r = float(np.mean(rs))
    print(f"  per-seed pearson {[f'{r:+.3f}' for r in rs]}, mean {mean_r:+.3f}")
    _report("07", mean_r > 0.5)


# --- 8: single-target variant ---------------------------------------------------------


def test_criterion_08_single_target_locality(bench):
    targets = bench["targets"]
    rest = [t for t in targets if t != SINGLE_TARGET]
    single_gain = (_seed_mean(bench, "single", "acc", SINGLE_TARGET)
                   - _seed_mean(bench, "baseline", "acc", SINGLE_TARGET))
    single_rest = np.mean([_seed_mean(bench, "single", "acc", t)
                           - _seed_mean(bench, "baseline", "acc", t) for t in rest])
    multi_rest = np.mean([_seed_mean(bench, "ditto", "acc", t)
                          - _seed_mean(bench, "baseline", "acc", t) for t in rest])
    print(f"  selected-target gain {single_gain:+.2f}; remaining-target gains "
          f"single {single_rest:+.2f} vs multi {multi_rest:+.2f}")
    _report("08", single_gain >= 3.0 and single_rest < multi_rest)


# --- 9: closed-form arithmetic ----------------------------------------------------------


def test_criterion_09a_relative_gain_value():
    # The paper's 20.52 comes from accuracies it prints rounded to 47.09 and
    # 56.75, so it must lie among the gains of inputs that round to those.
    # relative_gain rises in method and falls in baseline, so the corners of
    # that input box bound the gain over the whole box.
    corners = [relative_gain(b, m) for b in (47.085, 47.095)
               for m in (56.745, 56.755)]
    print(f"  gain of the printed inputs {relative_gain(47.09, 56.75):.4f}; "
          f"reachable range [{min(corners):.4f}, {max(corners):.4f}]")
    _report("09a", min(corners) <= 20.52 <= max(corners))


def test_criterion_09b_annotation_cost_value():
    p = CostParams(c_s=3.0, n_labeled_source=1000, c_t_over_s=1.0, k=500,
                   num_targets=5)
    _report("09b", annotation_cost(p) == 10500)


def test_criterion_09c_gap_value():
    table = EvalTable(source="en")
    for dom, acc in XNLI_BASELINES.items():
        table.add("baseline", dom, acc)
    gap = gap_table(table)
    _report("09c", abs(gap - 10.3) <= 0.1)


# --- 10: repeatable experiment runs ------------------------------------------------------


def test_criterion_10_run_all_byte_identical(tmp_path):
    config = {
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
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli_main(["run-all", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out / "results")

    ok = True
    for name in ("summary.csv", "summary_per_seed.csv", "cost.csv"):
        ok = ok and (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report("10", ok)
