"""Optimizer contracts: the linear schedule, hand-executed AdamW steps, the
two-phase sharpness-aware protocol, and its exact reductions."""

import dataclasses

import numpy as np
import pytest

from ditto import AdamWConfig, ParamStore, Tape, TrainVariant, adamw_step, lr_at, sam_step
from ditto.autodiff import affine, backward, hadamard, minimum, summation
from ditto.errors import (
    ConfigError,
    DegenerateGradientError,
    NumericError,
    ParameterError,
    StateError,
)
from ditto.optim import BETA1, BETA2, EPS, sam_backward, sam_perturb, sam_restore
from ditto.rng import Rng


def quad_loss(store, name="w"):
    """f(w) = sum(w*w); gradient 2w."""

    def loss_proc():
        tape = Tape()
        w = tape.watch(store[name])
        return summation(hadamard(w, w))

    return loss_proc


# --- learning rate schedule --------------------------------------------------


def test_lr_schedule_endpoints_and_midpoint():
    cfg = AdamWConfig(lr=0.2, total_steps=10)
    assert lr_at(cfg, 0) == 0.2
    assert lr_at(cfg, 10) == 0.0
    assert abs(lr_at(cfg, 5) - 0.1) < 1e-15


def test_lr_schedule_monotone_linear():
    cfg = AdamWConfig(lr=1.0, total_steps=100)
    values = [lr_at(cfg, s) for s in range(101)]
    diffs = np.diff(values)
    assert np.all(diffs < 0)
    assert np.allclose(diffs, diffs[0])


def test_lr_schedule_past_end_clamps_and_warns():
    cfg = AdamWConfig(lr=0.5, total_steps=10)
    with pytest.warns(UserWarning):
        assert lr_at(cfg, 11) == 0.0
    with pytest.raises(ParameterError):
        lr_at(cfg, -1)


def test_adamw_config_validation():
    with pytest.raises(ConfigError):
        AdamWConfig(lr=0.0, total_steps=1)
    with pytest.raises(ConfigError):
        AdamWConfig(lr=0.1, total_steps=0)
    with pytest.raises(ConfigError):
        AdamWConfig(lr=0.1, total_steps=1, weight_decay=-0.1)


def test_adamw_config_fields_are_lr_total_steps_weight_decay():
    # the moment decays and the denominator floor are constants, not settings
    assert [f.name for f in dataclasses.fields(AdamWConfig)] == [
        "lr", "total_steps", "weight_decay"]


def test_adamw_constants_are_the_published_defaults():
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)


@pytest.mark.parametrize("build,error,message", [
    (lambda: AdamWConfig(lr=float("nan"), total_steps=1), ConfigError,
     "lr: expected a finite number, got NaN"),
    (lambda: AdamWConfig(lr=0.1, total_steps=1, weight_decay=float("nan")), ConfigError,
     "weight_decay: expected a finite number, got NaN"),
    (lambda: TrainVariant("ditto", lam=1.0, rho=float("nan")), ConfigError,
     "rho: expected a finite number, got NaN"),
    (lambda: sam_perturb(ParamStore([]), rho=float("nan")), ParameterError, None),
], ids=["adamw_lr", "adamw_weight_decay", "sam_rho", "sam_perturb_rho"])
def test_nan_hyperparameter_is_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


# --- AdamW -------------------------------------------------------------------


def test_adamw_zero_gradient_zero_decay_is_identity():
    store = ParamStore([("w", np.array([[1.0, -2.0]]))])
    before = store["w"].value.copy()
    adamw_step(store, AdamWConfig(lr=0.1, total_steps=100), 0)
    assert np.array_equal(store["w"].value, before)


def test_adamw_single_step_hand_oracle():
    # w=1, g=1, lr=0.1: m_hat=1, v_hat=1, update = 0.1/(1+1e-8) -> w ~ 0.9
    store = ParamStore([("w", np.array([[1.0]]))])
    store["w"].grad[...] = 1.0
    adamw_step(store, AdamWConfig(lr=0.1, total_steps=10**6), 0)
    assert abs(float(store["w"].value[0, 0]) - 0.9) < 1e-8


def test_adamw_single_step_with_weight_decay_hand_oracle():
    # decoupled decay adds -lr*wd*w = -0.001 -> w ~ 0.899
    store = ParamStore([("w", np.array([[1.0]]))])
    store["w"].grad[...] = 1.0
    adamw_step(store, AdamWConfig(lr=0.1, total_steps=10**6, weight_decay=0.01), 0)
    assert abs(float(store["w"].value[0, 0]) - 0.899) < 1e-8


@pytest.mark.parametrize("g", [1e-12, 1e-8, 1e-3, 1.0, 1e3])
def test_adamw_first_step_is_lr_times_g_over_abs_g_plus_eps(g):
    # bias correction gives m_hat = g and v_hat = g*g at t = 1, so the step is
    # lr*g/(|g| + EPS): about lr*sign(g) for |g| >> EPS, lr/2 at |g| = EPS
    store = ParamStore([("w", np.array([[0.0, 0.0]]))])
    store["w"].grad[...] = [[g, -g]]
    adamw_step(store, AdamWConfig(lr=0.1, total_steps=10), 0)
    moved = 0.1 * g / (g + EPS)
    np.testing.assert_allclose(store["w"].value, [[-moved, moved]], rtol=1e-12, atol=0)


def test_adamw_constant_gradient_moves_lr_t_every_step():
    # a constant gradient keeps m_hat = g and v_hat = g*g at every update
    # count, so step s moves w by lr_at(s) * g / (|g| + EPS)
    store = ParamStore([("w", np.array([[0.0]]))])
    cfg = AdamWConfig(lr=0.1, total_steps=50)
    for step in range(40):
        before = float(store["w"].value[0, 0])
        store["w"].grad[...] = 2.0
        adamw_step(store, cfg, step)
        moved = before - float(store["w"].value[0, 0])
        assert abs(moved - lr_at(cfg, step) * 2.0 / (2.0 + EPS)) < 1e-13, step


def test_adamw_nonfinite_gradient_names_parameter():
    store = ParamStore([("encoder.layer0.W", np.ones((1, 1)))])
    store["encoder.layer0.W"].grad[...] = np.nan
    with pytest.raises(NumericError, match="encoder.layer0.W"):
        adamw_step(store, AdamWConfig(lr=0.1, total_steps=10), 0)


def test_adamw_names_argument_restricts_update():
    store = ParamStore([("a", np.array([[1.0]])), ("b", np.array([[1.0]]))])
    store["a"].grad[...] = 1.0
    store["b"].grad[...] = 1.0
    adamw_step(store, AdamWConfig(lr=0.1, total_steps=100), 0, names=["a"])
    assert float(store["a"].value[0, 0]) != 1.0
    assert float(store["b"].value[0, 0]) == 1.0


def test_adamw_per_parameter_step_counts():
    # a parameter updated for the first time at global step 7 must use
    # first-step bias correction (its own counter), not the global step:
    # with g=1 both corrected moments are exactly 1, so the update is
    # lr_t(7)/(1+eps); global-step correction would give ~3.5x less
    late = ParamStore([("w", np.array([[1.0]]))])
    cfg = AdamWConfig(lr=0.05, total_steps=10**6)

    for step in range(7):
        adamw_step(late, cfg, step, names=[])  # skipped: no update, no state
    late["w"].grad[...] = 1.0
    adamw_step(late, cfg, 7, names=["w"])
    expected = 1.0 - (lr_at(cfg, 7) * 1.0) / (1.0 + EPS)
    assert abs(float(late["w"].value[0, 0]) - expected) < 1e-12


# --- SAM protocol ------------------------------------------------------------


def test_perturbation_exact_three_four_example():
    # w=0 so the parameter values ARE eps_hat, with no addition rounding:
    # ||(3,4)|| = 5, scale = 0.05/5 = 0.01, eps_hat = (0.03, 0.04) exactly
    store = ParamStore([("w", np.zeros((1, 2)))])
    store["w"].grad[...] = np.array([[3.0, 4.0]])
    sam_perturb(store, rho=0.05)
    assert np.array_equal(store["w"].value, np.array([[0.03, 0.04]]))


def test_perturbation_norm_equals_rho():
    rng = Rng(21)
    for trial in range(10):
        store = ParamStore([("A", rng.normal(0, 1, (4, 3))), ("B", rng.normal(0, 1, (2, 5)))])
        originals = {n: store[n].value.copy() for n in store.names()}
        store["A"].grad[...] = rng.normal(0, 1, (4, 3))
        store["B"].grad[...] = rng.normal(0, 1, (2, 5))
        rho = 0.05 * (trial + 1)
        sam_perturb(store, rho=rho)
        sq = sum(np.sum((store[n].value - originals[n]) ** 2) for n in store.names())
        assert abs(np.sqrt(sq) - rho) < 1e-12


def test_perturbation_zero_rho_is_identity():
    store = ParamStore([("w", np.array([[2.0]]))])
    store["w"].grad[...] = 5.0
    sam_perturb(store, rho=0.0)
    assert np.array_equal(store["w"].value, np.array([[2.0]]))


def test_degenerate_gradient_raises():
    store = ParamStore([("w", np.array([[1.0]]))])
    with pytest.raises(DegenerateGradientError):
        sam_perturb(store, rho=0.1)


def test_restore_bit_exact_and_single_use():
    store = ParamStore([("w", np.array([[0.1, -0.7, 3.3]]))])
    before = store["w"].value.copy()
    store["w"].grad[...] = np.array([[1.0, 2.0, -1.0]])
    pert = sam_perturb(store, rho=0.2)
    assert not np.array_equal(store["w"].value, before)
    sam_restore(store, pert)
    assert np.array_equal(store["w"].value, before)
    with pytest.raises(StateError):
        sam_restore(store, pert)


def test_restore_rejects_foreign_store():
    a = ParamStore([("w", np.array([[1.0]]))])
    a["w"].grad[...] = 1.0
    pert = sam_perturb(a, rho=0.1)
    b = ParamStore([("w", np.array([[1.0]]))])
    with pytest.raises(StateError):
        sam_restore(b, pert)


def test_restore_reproduces_loss_exactly():
    store = ParamStore([("w", np.array([[1.3, -0.4]]))])
    loss_proc = quad_loss(store)
    loss_before = float(loss_proc().value[0, 0])
    store.reset_grads()
    backward(loss_proc())
    pert = sam_perturb(store, rho=0.3)
    sam_restore(store, pert)
    assert float(loss_proc().value[0, 0]) == loss_before


def test_sam_backward_phase3_gradient_at_perturbed_point():
    # f(w)=w^2 at w=1, rho=0.5: phase-1 grad 2, |g|=2, eps=0.5 -> w+eps=1.5,
    # phase-3 grad = 3 (not 2); parameters restored to w=1
    store = ParamStore([("w", np.array([[1.0]]))])
    loss = sam_backward(quad_loss(store), store, rho=0.5)
    assert loss == 1.0  # loss reported at w, not at w+eps
    assert float(store["w"].grad[0, 0]) == 3.0
    assert float(store["w"].value[0, 0]) == 1.0


def test_sam_backward_rho_zero_single_pass():
    store = ParamStore([("w", np.array([[2.0]]))])
    loss = sam_backward(quad_loss(store), store, rho=0.0)
    assert loss == 4.0
    assert float(store["w"].grad[0, 0]) == 4.0  # plain gradient 2w


def test_sam_backward_degenerate_falls_back_to_plain():
    # loss is constant in w: zero gradient, perturbation skipped, no error
    store = ParamStore([("w", np.array([[1.0]]))])

    def flat_loss():
        tape = Tape()
        w = tape.watch(store["w"])
        zero = hadamard(w, tape.constant([[0.0]]))
        return summation(zero)

    loss = sam_backward(flat_loss, store, rho=0.5)
    assert loss == 0.0
    assert float(store["w"].grad[0, 0]) == 0.0


def test_sam_rho_zero_trajectory_bit_identical_to_adamw():
    cfg = AdamWConfig(lr=0.05, total_steps=10, weight_decay=0.01)
    a = ParamStore([("w", np.array([[1.5, -2.0]]))])
    b = ParamStore([("w", np.array([[1.5, -2.0]]))])

    for step in range(10):
        sam_step(quad_loss(a), a, 0.0, cfg, step)
        b.reset_grads()
        backward(quad_loss(b)())
        adamw_step(b, cfg, step)
        assert np.array_equal(a["w"].value, b["w"].value), f"diverged at step {step}"


@pytest.mark.parametrize("rho", [-0.1, -np.inf, np.inf, np.nan])
def test_sam_step_rejects_a_rho_that_is_not_a_finite_number_at_least_0(rho):
    store = ParamStore([("w", np.array([[1.5, -2.0]]))])
    with pytest.raises(ParameterError, match="rho must be a finite number >= 0"):
        sam_step(quad_loss(store), store, rho, AdamWConfig(lr=0.1, total_steps=10), 0)
    assert np.array_equal(store["w"].value, [[1.5, -2.0]])


def test_sam_rho_positive_differs_from_adamw():
    cfg = AdamWConfig(lr=0.05, total_steps=20)
    a = ParamStore([("w", np.array([[1.5]]))])
    b = ParamStore([("w", np.array([[1.5]]))])
    for step in range(5):
        sam_step(quad_loss(a), a, 0.3, cfg, step)
        sam_step(quad_loss(b), b, 0.0, cfg, step)
    assert not np.array_equal(a["w"].value, b["w"].value)


# --- the double well ---------------------------------------------------------

# f(w) = min(w^2, 25*(w-1)^2 + 0.01): a flat basin at 0 (value 0) and a much
# sharper one at 1 (value 0.01).  The branches cross at 0.83435 and 1.24898.
# From w0=0.9 the plain optimizer descends the sharp parabola to 1; with
# rho=0.3 the perturbed gradient is evaluated past the sharp minimum, which
# steers the iterate out into the flat basin (it settles near 1 - rho).
SHARP_SCALE = 25.0
SHARP_CENTER = 1.0
SHARP_LIFT = 0.01
LEFT_CROSSING = 0.83435
RIGHT_CROSSING = 1.24898
DOUBLE_WELL_START = 0.9


def double_well_loss(store):
    def loss_proc():
        tape = Tape()
        w = tape.watch(store["w"])
        flat = hadamard(w, w)
        shifted = affine(w, tape.constant([[1.0]]), tape.constant([[-SHARP_CENTER]]))
        sharp = affine(hadamard(shifted, shifted),
                       tape.constant([[SHARP_SCALE]]), tape.constant([[SHARP_LIFT]]))
        return summation(minimum(flat, sharp))

    return loss_proc


def run_double_well(rho, lr=0.02, steps=400):
    store = ParamStore([("w", np.array([[DOUBLE_WELL_START]]))])
    cfg = AdamWConfig(lr=lr, total_steps=steps)
    for step in range(steps):
        sam_step(double_well_loss(store), store, rho, cfg, step)
    return float(store["w"].value[0, 0])


def test_double_well_basin_selection():
    w_adamw = run_double_well(rho=0.0)
    w_sam = run_double_well(rho=0.3)
    # plain AdamW ends inside the sharp basin, near its minimum
    assert LEFT_CROSSING < w_adamw < RIGHT_CROSSING
    assert abs(w_adamw - SHARP_CENTER) < 0.05
    # SAM ends where the flat branch is active
    assert w_sam < LEFT_CROSSING


# --- flat arenas ---------------------------------------------------------------

ARENA_SHAPES = {"enc.W": (2, 32), "enc.b": (1, 32), "mid.W": (32, 16), "mid.b": (1, 16),
                "cls.W": (16, 3), "cls.b": (1, 3)}


def arena_store(seed):
    rng = Rng(seed)
    return ParamStore((name, rng.normal(0, 1, shape)) for name, shape in ARENA_SHAPES.items())


def reference_adamw(state, config, step, names):
    """Per-matrix AdamW on plain arrays: the oracle the arena update must match."""
    lr_t = lr_at(config, step)
    for name in names:
        p = state[name]
        p["step"] += 1
        p["m"] = BETA1 * p["m"] + (1.0 - BETA1) * p["grad"]
        p["v"] = BETA2 * p["v"] + (1.0 - BETA2) * p["grad"] * p["grad"]
        m_hat = p["m"] / (1.0 - BETA1 ** p["step"])
        v_hat = p["v"] / (1.0 - BETA2 ** p["step"])
        update = lr_t * m_hat / (np.sqrt(v_hat) + EPS)
        if config.weight_decay:
            update = update + lr_t * config.weight_decay * p["value"]
        p["value"] = p["value"] - update


def test_arena_adamw_bit_identical_to_per_matrix_loop():
    # whole-store, contiguous-subset and non-contiguous-subset updates, so
    # runs split both by adjacency and by differing update counts
    store = arena_store(3)
    state = {n: {"value": store[n].value.copy(), "m": np.zeros(s), "v": np.zeros(s), "step": 0}
             for n, s in ARENA_SHAPES.items()}
    cfg = AdamWConfig(lr=0.02, total_steps=50, weight_decay=0.01)
    schedule = [None, ["enc.W", "enc.b"], ["mid.b", "enc.W", "cls.W"], None, []]
    rng = Rng(4)
    for step in range(12):
        names = schedule[step % len(schedule)]
        chosen = list(ARENA_SHAPES) if names is None else names
        for n, s in ARENA_SHAPES.items():
            g = rng.normal(0, 1, s)
            store[n].grad[...] = g
            state[n]["grad"] = g
        adamw_step(store, cfg, step, names)
        reference_adamw(state, cfg, step, chosen)
        for n in ARENA_SHAPES:
            p = store[n]
            assert p.step == state[n]["step"], (step, n)
            for field in ("value", "m", "v"):
                arena = getattr(store, field)[p.start:p.stop].reshape(p.shape)
                assert np.array_equal(arena, state[n][field]), (step, n, field)


def test_adamw_nonfinite_gradient_in_large_matrix_names_it_and_moves_nothing():
    store = ParamStore([
        ("a", np.ones((3, 3))),
        ("big", np.ones((64, 32))),
        ("c", np.ones((1, 4))),
    ])
    store.grad[...] = 1.0
    store["big"].grad[17, 5] = np.nan
    before = store.value.copy()
    with pytest.raises(NumericError, match="'big'"):
        adamw_step(store, AdamWConfig(lr=0.1, total_steps=10), 0)
    assert np.array_equal(store.value, before)
    assert all(p.step == 0 for p in store.params())


def test_param_views_alias_the_arena():
    store = arena_store(5)
    p = store["mid.W"]
    assert np.shares_memory(p.value, store.value) and np.shares_memory(p.grad, store.grad)
    x = Rng(6).normal(0, 1, p.shape)
    p.value[...] = x  # zero gradient: only the decay term moves the weights
    cfg = AdamWConfig(lr=0.1, total_steps=10, weight_decay=0.5)
    adamw_step(store, cfg, 0, names=["mid.W"])
    assert np.array_equal(store["mid.W"].value, x - lr_at(cfg, 0) * cfg.weight_decay * x)
    assert np.array_equal(store.value[p.start:p.stop], store["mid.W"].value.ravel())


def test_sam_perturb_restore_bit_exact_over_multi_param_store():
    for names in (None, ["cls.W", "enc.W", "enc.b"]):
        store = arena_store(7)
        before = store.value.copy()
        rng = Rng(8)
        for n, s in ARENA_SHAPES.items():
            store[n].grad[...] = rng.normal(0, 1, s)
        chosen = list(ARENA_SHAPES) if names is None else names
        sq = 0.0
        for n in chosen:
            g = store[n].grad
            sq += float((g * g).sum())
        scale = 0.05 / float(np.sqrt(sq))
        expected = {n: store[n].value + scale * store[n].grad for n in ARENA_SHAPES
                    if n in chosen}
        pert = sam_perturb(store, rho=0.05, names=names)
        assert pert.grad_norm == float(np.sqrt(sq))
        for n in ARENA_SHAPES:
            want = expected[n] if n in chosen else before[store[n].start:store[n].stop]
            assert np.array_equal(store[n].value.ravel(), want.ravel()), n
        sam_restore(store, pert)
        assert np.array_equal(store.value, before)


def test_sam_norm_sums_each_matrix_over_its_own_elements():
    # gradients over many magnitudes, in matrices large enough for numpy's
    # pairwise summation to split them: any other grouping of the squares
    # would change the last bits of the norm
    shapes = {"a": (64, 32), "b": (1, 32), "c": (32, 48), "d": (7, 3)}
    store = ParamStore((name, np.zeros(shape)) for name, shape in shapes.items())
    rng = Rng(9)
    for p in store.params():
        p.grad[...] = rng.normal(0, 1, p.shape) * 10.0 ** rng.uniform(-8, 8, p.shape)
    for names in (None, ["c", "a", "d"]):
        chosen = list(shapes) if names is None else names
        sq = 0.0
        for n in chosen:
            g = store[n].grad
            sq += float((g * g).sum())
        pert = sam_perturb(store, rho=0.05, names=names)
        assert pert.grad_norm == float(np.sqrt(sq))
        sam_restore(store, pert)


def test_spans_are_computed_once_per_name_sequence():
    store = arena_store(2)
    names = ["enc.W", "enc.b", "cls.W"]
    spans = store.spans(names)
    assert store.spans(tuple(names)) is spans
    assert [(s.start, s.stop) for s, _ in spans] == [
        (store["enc.W"].start, store["enc.b"].stop), (store["cls.W"].start, store["cls.W"].stop)]
    everything = store.spans()
    assert store.spans() is everything
    assert everything == [(slice(0, store.value.size), list(store.params()))]
