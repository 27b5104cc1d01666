"""Gradient correctness against independent oracles.

Every differentiable operation is checked with central finite differences
(h=1e-5), and the loss operations additionally against direct closed-form
recomputations that share no code with the tape.
"""

import gc
import weakref

import numpy as np
import pytest

from ditto import ParamStore, Rng, Tape, backward, finite_diff_check
from ditto.autodiff import (
    BCE_CLAMP,
    activation,
    all_finite,
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
from ditto.errors import (
    LabelError,
    NumericError,
    ParameterError,
    ShapeError,
    StateError,
)

FD_TOL = 1e-6
INSTANCES = 50


def _sweep(build, n=INSTANCES, tol=FD_TOL, seed=0):
    """Run finite_diff_check over n randomly drawn instances of one op."""
    worst = 0.0
    for i in range(n):
        rng = Rng(seed * 1000 + i)
        store, loss_proc = build(rng)
        worst = max(worst, finite_diff_check(loss_proc, store))
    assert worst < tol, f"max relative error {worst:.3e} >= {tol}"


def test_matmul_gradients():
    def build(rng):
        store = ParamStore([("A", rng.normal(0, 1, (3, 4))), ("B", rng.normal(0, 1, (4, 2)))])

        def loss_proc():
            tape = Tape()
            return summation(matmul(tape.watch(store["A"]), tape.watch(store["B"])))

        return store, loss_proc

    _sweep(build)


def test_affine_gradients():
    def build(rng):
        store = ParamStore([
            ("x", rng.normal(0, 1, (5, 3))),
            ("W", rng.normal(0, 1, (3, 4))),
            ("b", rng.normal(0, 1, (1, 4))),
        ])

        def loss_proc():
            tape = Tape()
            return summation(affine(tape.watch(store["x"]), tape.watch(store["W"]),
                                    tape.watch(store["b"])))

        return store, loss_proc

    _sweep(build)


@pytest.mark.parametrize("kind", ["tanh", "relu"])
def test_activation_gradients(kind):
    def build(rng):
        # keep relu inputs away from its kink at 0
        x = rng.normal(0, 1, (4, 5))
        x = np.where(np.abs(x) < 0.1, x + 0.3, x)
        store = ParamStore([("x", x)])

        def loss_proc():
            tape = Tape()
            return summation(activation(tape.watch(store["x"]), kind))

        return store, loss_proc

    _sweep(build)


def test_sigmoid_gradients():
    def build(rng):
        store = ParamStore([("x", rng.normal(0, 2, (4, 3)))])

        def loss_proc():
            tape = Tape()
            return summation(sigmoid(tape.watch(store["x"])))

        return store, loss_proc

    _sweep(build)


def test_hadamard_gradients():
    def build(rng):
        store = ParamStore([("a", rng.normal(0, 1, (4, 4))), ("b", rng.normal(0, 1, (4, 4)))])

        def loss_proc():
            tape = Tape()
            return summation(hadamard(tape.watch(store["a"]), tape.watch(store["b"])))

        return store, loss_proc

    _sweep(build)


def test_minimum_gradients():
    def build(rng):
        # keep the two branches well separated so h=1e-5 cannot flip the min
        a = rng.normal(0, 1, (4, 3))
        b = a + np.where(rng.uniform(-1, 1, (4, 3)) > 0, 0.5, -0.5)
        store = ParamStore([("a", a), ("b", b)])

        def loss_proc():
            tape = Tape()
            return summation(minimum(tape.watch(store["a"]), tape.watch(store["b"])))

        return store, loss_proc

    _sweep(build)


def test_softmax_cross_entropy_gradients():
    def build(rng):
        store = ParamStore([("logits", rng.normal(0, 1, (5, 3)))])
        labels = rng.integers(0, 3, 5)

        def loss_proc():
            tape = Tape()
            return softmax_cross_entropy(tape.watch(store["logits"]), labels)

        return store, loss_proc

    _sweep(build)


def test_binary_cross_entropy_gradients():
    def build(rng):
        store = ParamStore([("x", rng.normal(0, 1, (6, 1)))])
        labels = rng.integers(0, 2, 6)

        def loss_proc():
            tape = Tape()
            return binary_cross_entropy(sigmoid(tape.watch(store["x"])), labels)

        return store, loss_proc

    _sweep(build)


def test_full_mlp_pipeline_gradients():
    # end to end: two hidden layers, classifier head, softmax loss
    def build(rng):
        x = rng.normal(0, 1, (8, 3))
        store = ParamStore([
            ("W0", rng.normal(0, 0.5, (3, 6))),
            ("b0", rng.normal(0, 0.1, (1, 6))),
            ("W1", rng.normal(0, 0.5, (6, 4))),
            ("b1", rng.normal(0, 0.1, (1, 4))),
            ("W2", rng.normal(0, 0.5, (4, 3))),
            ("b2", rng.normal(0, 0.1, (1, 3))),
        ])
        labels = rng.integers(0, 3, 8)

        def loss_proc():
            tape = Tape()
            h = activation(affine(tape.constant(x), tape.watch(store["W0"]),
                                  tape.watch(store["b0"])), "tanh")
            h = activation(affine(h, tape.watch(store["W1"]),
                                  tape.watch(store["b1"])), "tanh")
            logits = affine(h, tape.watch(store["W2"]), tape.watch(store["b2"]))
            return softmax_cross_entropy(logits, labels)

        return store, loss_proc

    _sweep(build, n=20, tol=1e-4)


# --- direct formula oracles ------------------------------------------------


def test_softmax_cross_entropy_matches_logsumexp_oracle():
    rng = Rng(42)
    for _ in range(20):
        logits = rng.normal(0, 2, (5, 3))
        y = rng.integers(0, 3, 5)
        tape = Tape()
        store = ParamStore([("logits", logits)])
        loss = softmax_cross_entropy(tape.watch(store["logits"]), y)
        backward(loss)

        # independent route: log-sum-exp per row, no shared code with the op
        m = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m
        oracle_loss = float(np.mean(lse[np.arange(5), 0] - logits[np.arange(5), y]))
        softmax = np.exp(logits - lse)
        onehot = np.zeros_like(logits)
        onehot[np.arange(5), y] = 1.0
        oracle_grad = (softmax - onehot) / 5

        assert abs(float(loss.value[0, 0]) - oracle_loss) < 1e-10
        assert np.max(np.abs(store["logits"].grad - oracle_grad)) < 1e-10
        store.reset_grads()


def test_softmax_cross_entropy_shift_invariant():
    rng = Rng(3)
    logits = rng.normal(0, 1, (6, 4))
    y = rng.integers(0, 4, 6)
    tape = Tape()
    a = softmax_cross_entropy(tape.constant(logits), y)
    b = softmax_cross_entropy(tape.constant(logits + 1000.0), y)
    assert abs(float(a.value[0, 0]) - float(b.value[0, 0])) < 1e-10


def test_softmax_cross_entropy_uniform_logits():
    tape = Tape()
    loss = softmax_cross_entropy(tape.constant(np.zeros((4, 3))), [0, 1, 2, 0])
    assert abs(float(loss.value[0, 0]) - np.log(3.0)) < 1e-12


def test_softmax_cross_entropy_label_validation():
    tape = Tape()
    logits = tape.constant(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        softmax_cross_entropy(logits, [0, 1])
    with pytest.raises(LabelError):
        softmax_cross_entropy(logits, [0.0, 1.0, 2.0])
    with pytest.raises(LabelError):
        softmax_cross_entropy(logits, [0, 1, 4])
    with pytest.raises(LabelError):
        softmax_cross_entropy(logits, [0, -1, 2])
    # no rows: the mean loss is undefined, not a label error
    with pytest.warns(RuntimeWarning), pytest.raises(NumericError):
        softmax_cross_entropy(tape.constant(np.zeros((0, 4))), np.zeros(0, dtype=np.int64))


def test_binary_cross_entropy_matches_direct_formula():
    rng = Rng(17)
    for _ in range(20):
        p = rng.uniform(0.01, 0.99, (7, 1))
        y = rng.integers(0, 2, 7).astype(float).reshape(-1, 1)
        tape = Tape()
        loss = binary_cross_entropy(tape.constant(p), y.ravel().astype(int))
        oracle = -float(np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert abs(float(loss.value[0, 0]) - oracle) < 1e-12


def test_binary_cross_entropy_half_is_ln2():
    tape = Tape()
    loss = binary_cross_entropy(tape.constant([[0.5], [0.5]]), [1, 0])
    assert abs(float(loss.value[0, 0]) - np.log(2.0)) < 1e-12


def test_binary_cross_entropy_clamps_saturated_probabilities():
    store = ParamStore([("p", np.array([[0.0], [1.0], [0.5]]))])

    def loss_proc():
        tape = Tape()
        return binary_cross_entropy(tape.watch(store["p"]), [0, 1, 1])

    loss = loss_proc()
    assert np.isfinite(loss.value[0, 0])
    # loss at the clamp boundary, not infinity
    assert float(loss.value[0, 0]) < -np.log(BCE_CLAMP)

    backward(loss)
    # saturated rows sit outside the clamp window: zero gradient
    assert store["p"].grad[0, 0] == 0.0
    assert store["p"].grad[1, 0] == 0.0
    assert store["p"].grad[2, 0] != 0.0


def test_binary_cross_entropy_validation():
    tape = Tape()
    with pytest.raises(ShapeError):
        binary_cross_entropy(tape.constant(np.full((3, 2), 0.5)), [0, 1, 0])
    with pytest.raises(ShapeError):
        binary_cross_entropy(tape.constant(np.full((3, 1), 0.5)), [0, 1])
    for bad in ([0, 1, 2], [0.5, 1.0, 0.0], [0.0, 1.0, np.nan]):
        with pytest.raises(LabelError, match="binary labels must be 0 or 1"):
            binary_cross_entropy(tape.constant(np.full((3, 1), 0.5)), bad)


def test_grad_reverse_negates_and_scales():
    # f(x) = sum(r(x) * r(x)) with r = grad_reverse: true derivative of the
    # recorded function is 2x, the reversal layer must deliver -2*lam*x
    for lam in (1.0, 0.5, 0.0):
        x = np.array([[1.0, -2.0, 3.0]])
        store = ParamStore([("x", x)])
        tape = Tape()
        node = tape.watch(store["x"])
        rev = grad_reverse(node, lam)
        assert rev.value is node.value  # identity forward, shared array
        backward(summation(hadamard(rev, rev)))
        assert np.allclose(store["x"].grad, -2.0 * lam * x, atol=1e-15)


def test_grad_reverse_rejects_negative_lambda():
    tape = Tape()
    with pytest.raises(ParameterError):
        grad_reverse(tape.constant([[1.0]]), -0.1)


# --- engine mechanics --------------------------------------------------------


def test_backward_requires_scalar_loss():
    tape = Tape()
    node = tape.constant(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        backward(node)


def test_gradients_accumulate_across_backward_calls():
    store = ParamStore([("w", np.array([[2.0]]))])

    def loss():
        tape = Tape()
        w = tape.watch(store["w"])
        return summation(hadamard(w, w))

    backward(loss())
    once = store["w"].grad.copy()
    backward(loss())
    assert np.array_equal(store["w"].grad, 2.0 * once)

    store.reset_grads()
    assert np.all(store["w"].grad == 0.0)


def test_backward_deterministic_on_same_tape():
    rng = Rng(8)
    store = ParamStore([("W", rng.normal(0, 1, (3, 3)))])
    tape = Tape()
    loss = summation(matmul(tape.watch(store["W"]), tape.watch(store["W"])))
    backward(loss)
    g1 = store["W"].grad.copy()
    store.reset_grads()
    backward(loss)
    assert np.array_equal(store["W"].grad, g1)


def test_diamond_reuse_sums_both_paths():
    # w feeds two branches that are added via a second watch of the same node
    store = ParamStore([("w", np.array([[3.0]]))])
    tape = Tape()
    w = tape.watch(store["w"])
    sq = hadamard(w, w)  # w^2, dL/dw = 2w = 6
    backward(summation(sq))
    assert float(store["w"].grad[0, 0]) == 6.0


def test_shared_node_is_visited_once_after_every_consumer():
    # h feeds u and then v, and the product lists v first: a walk that took
    # the pending nodes in the order it reached them would visit h from u
    # and then once more from v
    store = ParamStore([("W", Rng(3).normal(0, 1, (3, 2)))])
    X = Rng(4).normal(0, 1, (4, 3))
    h = matmul(Tape().constant(X), store["W"])
    u = sigmoid(h)
    v = activation(h, "tanh")
    loss = summation(hadamard(v, u))
    seen, vjp = [], h.vjp
    h.vjp = lambda g: seen.append(g) or vjp(g)
    backward(loss)
    assert len(seen) == 1
    dh = (1.0 - v.value ** 2) * u.value + v.value * u.value * (1.0 - u.value)
    assert np.allclose(seen[0], dh, rtol=1e-12, atol=0.0)
    assert np.allclose(store["W"].grad, X.T @ dh, rtol=1e-12, atol=1e-15)


def test_minimum_ties_go_to_first_operand():
    store = ParamStore([("a", np.array([[1.0]])), ("b", np.array([[1.0]]))])
    tape = Tape()
    backward(summation(minimum(tape.watch(store["a"]), tape.watch(store["b"]))))
    assert float(store["a"].grad[0, 0]) == 1.0
    assert float(store["b"].grad[0, 0]) == 0.0


def test_nonfinite_values_raise_numeric_error():
    tape = Tape()
    with pytest.raises(NumericError):
        tape.constant([[np.nan]])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        matmul(tape.constant(np.full((2, 2), 1e200)), tape.constant(np.full((2, 2), 1e200)))


def test_cross_tape_operands_raise_state_error():
    t1, t2 = Tape(), Tape()
    a = t1.constant(np.ones((2, 2)))
    b = t2.constant(np.ones((2, 2)))
    with pytest.raises(StateError):
        hadamard(a, b)
    # parameter operands take no part in choosing the tape
    W = ParamStore([("W", np.ones((2, 2)))])["W"]
    with pytest.raises(StateError):
        affine(a, W, t2.constant(np.ones((1, 2))))
    # with no recorded operand there is no tape to record on
    with pytest.raises(StateError):
        hadamard(W, W)


def test_nonfinite_param_operand_raises_numeric_error():
    store = ParamStore([("W", np.array([[1.0], [np.nan]])), ("b", np.zeros((1, 1)))])
    W, b = store["W"], store["b"]
    tape = Tape()
    with pytest.raises(NumericError, match="'W'"):
        affine(tape.constant(np.ones((3, 2))), W, b)
    W.value[1, 0] = np.inf
    with pytest.raises(NumericError, match="'W'"):
        matmul(tape.constant(np.ones((3, 2))), W)


def test_param_operand_gradient_lands_in_its_slot():
    # a parameter passed as is gets no node; its gradient goes straight into
    # its slot, and adds onto what an earlier pass left there
    store = ParamStore([("W", np.array([[1.0, 2.0], [3.0, 4.0]])), ("b", np.array([[0.5, -0.5]]))])
    W, b = store["W"], store["b"]
    tape = Tape()
    x = tape.constant(np.array([[1.0, -1.0], [2.0, 0.0]]))
    out = affine(x, W, b)
    assert out.parents[1] is W and out.parents[2] is b
    assert tape.size == 2  # the constant and the affine node
    backward(summation(out))
    assert np.array_equal(W.grad, np.array([[3.0, 3.0], [-1.0, -1.0]]))
    assert np.array_equal(b.grad, np.array([[2.0, 2.0]]))
    backward(summation(affine(Tape().constant(np.ones((1, 2))), W, b)))
    assert np.array_equal(W.grad, np.array([[4.0, 4.0], [0.0, 0.0]]))
    assert np.array_equal(b.grad, np.array([[3.0, 3.0]]))


def test_shape_errors():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.constant([1.0, 2.0])  # 1-D
    with pytest.raises(ShapeError):
        matmul(tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        hadamard(tape.constant(np.ones((2, 3))), tape.constant(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        affine(tape.constant(np.ones((2, 3))), tape.constant(np.ones((3, 4))),
               tape.constant(np.ones((1, 5))))
    with pytest.raises(ParameterError):
        activation(tape.constant(np.ones((2, 2))), "gelu")


def test_finite_diff_check_restores_parameter_values():
    store = ParamStore([("w", np.array([[1.5, -0.5]]))])
    before = store["w"].value.copy()

    def loss():
        tape = Tape()
        w = tape.watch(store["w"])
        return summation(hadamard(w, w))

    finite_diff_check(loss, store)
    assert np.array_equal(store["w"].value, before)


def test_finite_diff_check_flags_wrong_gradients():
    # a deliberately broken vjp must be caught by the checker
    store = ParamStore([("w", np.array([[2.0]]))])

    def loss():
        tape = Tape()
        w = tape.watch(store["w"])
        out = hadamard(w, w)
        # tamper: double the recorded gradient on the way down
        orig = out.vjp
        out.vjp = lambda g: tuple(2.0 * p for p in orig(g))
        return summation(out)

    assert finite_diff_check(loss, store) > 1e-2


def test_finite_diff_check_covers_every_parameter():
    # only the last parameter's gradient is wrong; the checker must still reach it
    store = ParamStore([("a", np.array([[0.5, -1.0]])), ("b", np.array([[2.0, 1.5]]))])

    def loss():
        tape = Tape()
        out = hadamard(tape.watch(store["a"]), tape.watch(store["b"]))
        orig = out.vjp
        out.vjp = lambda g: (orig(g)[0], 2.0 * orig(g)[1])  # tamper: double b's gradient
        return summation(out)

    assert finite_diff_check(loss, store) > 1e-2
    store["a"].value[...] = 0.0  # b's gradient is a, so zero whether doubled or not
    assert finite_diff_check(loss, store) < 1e-6


def test_duplicate_parameter_name_rejected():
    with pytest.raises(ParameterError, match="duplicate parameter name: w"):
        ParamStore([("w", np.ones((1, 1))), ("w", np.zeros((1, 1)))])


def test_finite_arrays_whose_sum_overflows_are_accepted():
    huge = np.array([[1e308, 1e308]])
    with np.errstate(over="ignore"):  # the fast-path sum overflows to inf
        assert all_finite(huge)
        assert np.array_equal(Tape().constant(huge).value, huge)
    assert not all_finite(np.array([[1.0, np.nan]]))
    with np.errstate(invalid="ignore"):  # inf + -inf sums to nan
        assert not all_finite(np.array([[np.inf, -np.inf]]))


def test_reset_grads_zeroes_every_slot():
    store = ParamStore([("a", np.array([[1.0, 2.0]])), ("b", np.array([[4.0], [5.0]]))])
    a, b = store["a"], store["b"]
    assert store.grad.size == 4
    a.grad[...] = 3.0
    b.grad[...] = 6.0
    assert np.array_equal(a.value, [[1.0, 2.0]]) and np.array_equal(a.grad, [[3.0, 3.0]])
    assert np.array_equal(store.grad, [3.0, 3.0, 6.0, 6.0])
    store.reset_grads()
    assert np.array_equal(store.grad, np.zeros(4))
    assert not a.grad.any() and not b.grad.any()


def test_store_is_laid_out_once_from_all_of_its_values():
    a0, b0 = np.array([[1.0, 2.0]]), np.array([[4.0], [5.0]])
    store = ParamStore([("a", a0), ("b", b0)])
    assert store.names() == ["a", "b"]
    assert [(p.start, p.stop, p.shape) for p in store.params()] == [
        (0, 2, (1, 2)), (2, 4, (2, 1))]
    assert np.array_equal(store.value, [1.0, 2.0, 4.0, 5.0])
    assert not store.grad.any() and not store.m.any() and not store.v.any()
    a0[...] = 0.0  # the initial values are copied in
    assert np.array_equal(store["a"].value, [[1.0, 2.0]])
    view = store["b"].value
    view[...] = 7.0  # a view taken at any time writes through to the arena
    assert np.array_equal(store.value, [1.0, 2.0, 7.0, 7.0])
    assert not hasattr(store, "add")
    assert ParamStore([]).names() == [] and ParamStore([]).value.size == 0
    with pytest.raises(TypeError):
        ParamStore()
    with pytest.raises(ShapeError):
        ParamStore([("w", np.ones(3))])


def test_finished_pass_is_freed_without_cyclic_gc():
    store = ParamStore([("w", np.array([[1.0, -2.0]]))])
    gc.disable()
    try:
        tape = Tape()
        w = tape.watch(store["w"])
        loss = summation(hadamard(w, affine(w, tape.constant(np.eye(2)), tape.constant([[0.0, 1.0]]))))
        backward(loss)
        freed = weakref.ref(tape)
        del tape, w, loss
        assert freed() is None
    finally:
        gc.enable()


# --- the lean primitives keep the old results ---------------------------------


def _bits(a):
    """The raw bit patterns of a float64 array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def test_constant_operand_gets_no_gradient():
    store = ParamStore([("W", np.array([[1.0, 2.0], [3.0, 4.0]])), ("b", np.array([[0.5, -0.5]]))])
    W, b = store["W"], store["b"]
    tape = Tape()
    x = tape.constant(np.array([[1.0, -1.0], [2.0, 0.0]]))
    g = np.array([[1.0, -2.0], [0.5, 3.0]])
    out = affine(x, W, b)
    dx, dW, db = out.vjp(g)
    assert dx is None
    assert np.array_equal(dW, x.value.T @ g) and np.array_equal(db, g.sum(axis=0, keepdims=True))
    # a recorded operand, a watched parameter and a parameter operand all get one
    h = activation(out, "tanh")
    w = tape.watch(W)
    for grads in (affine(h, W, b).vjp(g), affine(h, w, b).vjp(g)):
        assert all(grad is not None for grad in grads)
    assert np.array_equal(affine(h, W, b).vjp(g)[0], g @ W.value.T)
    # constant weights and bias get None as well
    assert affine(h, x, tape.constant(np.zeros((1, 2)))).vjp(g)[1:] == (None, None)
    da, db_ = matmul(x, W).vjp(g)
    assert da is None and np.array_equal(db_, x.value.T @ g)
    da, db_ = matmul(h, x).vjp(g)
    assert np.array_equal(da, g @ x.value.T) and db_ is None
    assert all(grad is not None for grad in matmul(h, w).vjp(g))


def test_constant_input_changes_no_parameter_gradient():
    # backward skips the None a VJP returns for the constant input
    store = ParamStore([("W", np.array([[1.0, 2.0], [3.0, 4.0]])), ("b", np.array([[0.5, -0.5]]))])
    W, b = store["W"], store["b"]
    x = np.array([[1.0, -1.0], [2.0, 0.0]])
    backward(summation(activation(affine(Tape().constant(x), W, b), "tanh")))
    local = 1.0 - np.tanh(x @ W.value + b.value) ** 2
    assert np.array_equal(W.grad, x.T @ local)
    assert np.array_equal(b.grad, local.sum(axis=0, keepdims=True))


def test_backward_on_a_constant_loss_is_a_no_op():
    store = ParamStore([("w", np.array([[2.0]]))])
    backward(Tape().constant([[3.0]]))
    assert not store.grad.any()
    with pytest.raises(ShapeError):
        backward(Tape().constant(np.ones((1, 2))))


def test_all_finite_fast_path_and_its_exact_fallback():
    # squares beyond the float64 range send finite arrays to the exact check
    assert all_finite(np.full((3, 4), 1e200)) and all_finite(np.full((3, 4), -1e200))
    assert all_finite(np.empty((0, 5))) and all_finite(np.empty((4, 0)))
    for bad in (np.nan, np.inf, -np.inf):
        a = np.arange(20.0).reshape(4, 5)
        a[0, 0] = 1e200
        a[2, 3] = bad
        assert not all_finite(a)
        assert not all_finite(a.T)
        assert not all_finite(a[::2, 1::2])  # a strided view holding (2, 3)
        assert all_finite(a[1::2, ::2]) and all_finite(a[:, :3].T)  # views without it
        assert not all_finite(a.ravel()[13:14])


def test_sigmoid_matches_the_where_split_form_bit_for_bit():
    xv = np.array([[0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 2.5, -2.5, 36.7, -745.0]])
    e = np.exp(-np.abs(xv))
    d = 1.0 + e
    want = np.where(xv >= 0.0, 1.0 / d, e / d)
    assert np.array_equal(_bits(sigmoid(Tape().constant(xv)).value), _bits(want))


def test_binary_cross_entropy_clamp_matches_np_clip_bit_for_bit():
    lo, hi = BCE_CLAMP, 1.0 - BCE_CLAMP
    p = np.array([0.0, 1e-300, np.nextafter(lo, 0.0), lo, np.nextafter(lo, 1.0), 0.3, 0.5,
                  np.nextafter(hi, 0.0), hi, np.nextafter(hi, 1.0), 1.0]).reshape(-1, 1)
    y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]).reshape(-1, 1)
    m = p.shape[0]
    # the loss and gradient as written with np.clip and an explicit range mask
    clamped = np.clip(p, lo, hi)
    inside = (p >= lo) & (p <= hi)
    want_loss = -((y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped)).sum() / m)
    want_grad = 0.75 * ((-y / clamped + (1.0 - y) / (1.0 - clamped)) / m) * inside
    loss = binary_cross_entropy(Tape().constant(p), y.ravel())
    assert _bits(loss.value)[0, 0] == _bits(np.array([want_loss]))[0]
    (grad,) = loss.vjp(np.array([[0.75]]))
    assert np.array_equal(_bits(grad), _bits(want_grad))


def test_softmax_cross_entropy_matches_the_full_log_softmax_form_bit_for_bit():
    rng = Rng(12)
    lv = rng.normal(0, 3, (64, 3))
    lv[5] = [0.0, -0.0, 0.0]
    y = rng.integers(0, 3, 64)
    rows = np.arange(64)
    # the loss and gradient through the whole log-softmax matrix and a copy
    shifted = lv - lv.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=1, keepdims=True)
    want_loss = -((shifted - np.log(total))[rows, y].sum() / 64)
    want_grad = (exps / total).copy()
    want_grad[rows, y] -= 1.0
    want_grad = 0.375 * want_grad / 64
    loss = softmax_cross_entropy(Tape().constant(lv), y)
    assert _bits(loss.value)[0, 0] == _bits(np.array([want_loss]))[0]
    assert np.array_equal(_bits(loss.vjp(np.array([[0.375]]))[0]), _bits(want_grad))


def test_tanh_vjp_matches_the_textbook_form_bit_for_bit():
    rng = Rng(13)
    node = activation(Tape().constant(rng.normal(0, 2, (16, 8))), "tanh")
    g = rng.normal(0, 1, (16, 8))
    (got,) = node.vjp(g)
    assert np.array_equal(_bits(got), _bits(g * (1.0 - node.value * node.value)))
