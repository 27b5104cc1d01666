"""Reverse-mode automatic differentiation over dense 2-D float64 matrices.

A `Tape` records one forward pass (define-by-run) and is rebuilt for every
pass; `backward` walks the tape in reverse and accumulates gradients into the
`ParamStore` slots.  Accumulation is deliberate: calling `backward` on two
different tapes without a reset in between sums both contributions into the
same slots, which is exactly what the joint adaptation step needs to combine
task and adversarial gradients.  `ParamStore.reset_grads` zeroes every slot.

Parameters enter a pass in one of two ways.  An operation takes a `Param`
directly as an operand next to at least one TapeNode operand, whose tape it
records on: the parameter's values are checked for finiteness, it gets no
node of its own, and `backward` adds its gradient straight into
`param.grad`.  The model passes its weights this way.  `Tape.watch` records
a parameter as an identity node over it instead, which sums the parameter's
gradient over its uses before the one `+=`; only an operation whose
operands are all parameters, such as `hadamard(w, w)`, needs it, because an
operation takes its tape from a TapeNode operand.

Parameter storage is flat.  A `ParamStore` owns four contiguous 1-D float64
arenas, `value`, `grad`, `m` and `v`, laid out once when the store is
built; parameter i occupies the span [start_i, stop_i) of each, in
construction order, and its `.value`/`.grad` are reshaped views of that span
(the optimizer reads the moments `m`/`v` as arena slices).  Whole-store
operations are therefore single vector operations over a span: `reset_grads`
zeroes the grad arena once, and the optimizer updates each run of adjacent
parameters at once (`ParamStore.spans`).

A constant (`Tape.constant`, such as the encoder's input) is a leaf that
takes no gradient: `affine` and `matmul` return None for it instead of
computing its product, and `backward` never queues a leaf.

Everything is 64-bit: finite-difference checks at 1e-4 relative tolerance are
not reliable in float32.  All values must stay finite; any operation that
produces a NaN/Inf raises `NumericError` immediately (`all_finite`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    LabelError,
    NumericError,
    ParameterError,
    ShapeError,
    StateError,
    all_finite,
)

# probabilities entering binary cross-entropy are clamped to [TAU, 1-TAU]
BCE_CLAMP = 1e-7
# finite_diff_check's central-difference step
FD_STEP = 1e-5


def _as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


class Param:
    """A named trainable matrix: views of one span of its store's arenas.

    `value` and `grad` are reshaped views of [start, stop) in the store's
    arenas, so write through them (`p.value[...] = x`) and never rebind them.
    `step` is the per-parameter update count used for bias correction.
    """

    __slots__ = ("name", "shape", "start", "stop", "step", "value", "grad")

    def __init__(self, name: str, shape: tuple[int, int], start: int, store: "ParamStore"):
        self.name = name
        self.shape = shape
        self.start = start
        self.stop = start + shape[0] * shape[1]
        self.step = 0
        span = slice(self.start, self.stop)
        self.value = store.value[span].reshape(shape)
        self.grad = store.grad[span].reshape(shape)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.shape})"


class ParamStore:
    """Ordered mapping from hierarchical names to parameters in flat arenas.

    The layout is fixed at construction: `values` lists every (name, initial
    matrix) pair, and the arenas are allocated once and never grow.
    Iteration order is the order of `values`, which is also arena order, and
    keeps every whole-store operation (global gradient norms, optimizer
    sweeps) deterministic.
    """

    def __init__(self, values: Iterable[tuple[str, object]]):
        values = [(name, _as_matrix(value)) for name, value in values]
        size = sum(value.size for _, value in values)
        self.value, self.grad, self.m, self.v = (np.zeros(size) for _ in range(4))
        self._params: dict[str, Param] = {}
        self._spans: dict[tuple[str, ...] | None, list[tuple[slice, list[Param]]]] = {}
        start = 0
        for name, value in values:
            if name in self._params:
                raise ParameterError(f"duplicate parameter name: {name}")
            p = self._params[name] = Param(name, value.shape, start, self)
            p.value[...] = value
            start = p.stop

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def params(self) -> Iterable[Param]:
        return self._params.values()

    def spans(self, names: Sequence[str] | None = None) -> list[tuple[slice, list[Param]]]:
        """The named parameters (all by default), in the given order, cut into
        maximal runs that lie back to back in the arenas; each run comes
        with the arena slice it covers.

        The result is computed once per name sequence and shared: do not
        modify it.
        """
        key = None if names is None else tuple(names)
        cached = self._spans.get(key)
        if cached is not None:
            return cached
        runs: list[list[Param]] = []
        for p in (self._params.values() if names is None else map(self.__getitem__, names)):
            if runs and runs[-1][-1].stop == p.start:
                runs[-1].append(p)
            else:
                runs.append([p])
        cached = self._spans[key] = [(slice(run[0].start, run[-1].stop), run) for run in runs]
        return cached

    def reset_grads(self) -> None:
        """Zero every gradient slot."""
        self.grad[...] = 0.0


class TapeNode:
    """One recorded value in a forward pass.

    `parents` holds the operation's operands, TapeNodes and Params alike.
    """

    __slots__ = ("tape", "idx", "value", "parents", "vjp")

    def __init__(self, tape, idx, value, parents, vjp):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Define-by-run record of a single forward pass.

    Nodes are numbered in execution order, so the numbering is a
    topological order and `backward` can visit a loss's ancestors from the
    highest number down, keeping only the nodes still pending, keyed by
    number.  The tape keeps no list of its nodes: nodes point to their tape
    and parents, never back, so a finished pass is freed by reference
    counting as soon as its last node is dropped, not at the next cyclic
    garbage collection.
    """

    def __init__(self):
        self.size = 0

    def _record(
        self,
        value: np.ndarray,
        parents: tuple[TapeNode, ...],
        vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None,
        param: Param | None = None,
    ) -> TapeNode:
        # `param` is unused: a watched parameter is the parent of its node.
        # The argument stays so that wrappers passing it keep working.
        if not all_finite(value):
            raise NumericError("operation produced a non-finite value")
        node = TapeNode(self, self.size, value, parents, vjp)
        self.size += 1
        return node

    def constant(self, x) -> TapeNode:
        """Record a leaf that receives no gradient."""
        return self._record(_as_matrix(x), (), None)

    def watch(self, param: Param) -> TapeNode:
        """Record `param` as an identity node whose gradient, summed over its
        uses, accumulates into `param.grad`.

        An operation takes its tape from a TapeNode operand, so one whose
        operands are all parameters, such as `hadamard(w, w)`, needs them
        watched; next to a TapeNode operand a parameter is passed as is.
        """
        return self._record(param.value, (param,), _identity_vjp)


def _identity_vjp(g):
    return (g,)


def _is_constant(x: TapeNode | Param) -> bool:
    """Whether `x` is a recorded leaf with no VJP, which takes no gradient."""
    return x.__class__ is TapeNode and x.vjp is None


def _same_tape(*operands: TapeNode | Param) -> Tape:
    """The tape of the operation's TapeNode operands, which must all share it.

    A `Param` operand is checked for finite values, as `Tape.watch` checks
    it; an operation needs at least one TapeNode operand to have a tape.
    """
    tape = None
    for x in operands:
        if x.__class__ is Param:
            if not all_finite(x.value):
                raise NumericError(f"parameter {x.name!r} holds a non-finite value")
        elif tape is None:
            tape = x.tape
        elif x.tape is not tape:
            raise StateError("operands were recorded on different tapes")
    if tape is None:
        raise StateError("an operation needs a recorded operand; watch a parameter "
                         "to use it without one")
    return tape


def matmul(a: TapeNode | Param, b: TapeNode | Param) -> TapeNode:
    """Matrix product a @ b.

    Backward: dL/da = g @ b^T, dL/db = a^T @ g; a constant operand gets None.
    """
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {av.shape} x {bv.shape}")
    a_const, b_const = _is_constant(a), _is_constant(b)

    def vjp(g):
        return (None if a_const else g @ bv.T,
                None if b_const else av.T @ g)

    return tape._record(av @ bv, (a, b), vjp)


def affine(x: TapeNode | Param, W: TapeNode | Param, b: TapeNode | Param) -> TapeNode:
    """x @ W + b, the bias row broadcast over rows of x.

    Backward: g @ W^T, x^T @ g and the column sums of g; a constant operand,
    such as the encoder's input, gets None instead.
    """
    tape = _same_tape(x, W, b)
    xv, Wv, bv = x.value, W.value, b.value
    if xv.shape[1] != Wv.shape[0]:
        raise ShapeError(f"affine inner dimensions disagree: {xv.shape} x {Wv.shape}")
    if bv.shape != (1, Wv.shape[1]):
        raise ShapeError(f"bias shape {bv.shape} does not match (1, {Wv.shape[1]})")
    x_const, W_const, b_const = _is_constant(x), _is_constant(W), _is_constant(b)

    def vjp(g):
        return (None if x_const else g @ Wv.T,
                None if W_const else xv.T @ g,
                None if b_const else np.add.reduce(g, axis=0, keepdims=True))

    out = xv @ Wv
    out += bv
    return tape._record(out, (x, W, b), vjp)


def activation(x: TapeNode, kind: str) -> TapeNode:
    """Elementwise tanh or relu."""
    if kind == "tanh":
        out = np.tanh(x.value)

        def vjp(g):
            local = out * out
            np.subtract(1.0, local, out=local)
            local *= g  # g * (1 - out^2), built in one array
            return (local,)

    elif kind == "relu":
        mask = x.value > 0.0
        out = np.where(mask, x.value, 0.0)

        def vjp(g):
            return (g * mask,)

    else:
        raise ParameterError(f"unknown activation kind: {kind!r}")
    return x.tape._record(out, (x,), vjp)


def sigmoid(x: TapeNode) -> TapeNode:
    """Elementwise logistic function in the overflow-safe split form:
    1/(1+e) where x >= 0 and e/(1+e) elsewhere, with e = exp(-|x|)."""
    xv = x.value
    e = np.exp(-np.abs(xv))
    d = 1.0 + e
    out = np.divide(e, d)
    np.divide(1.0, d, out=out, where=xv >= 0.0)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return x.tape._record(out, (x,), vjp)


def hadamard(a: TapeNode | Param, b: TapeNode | Param) -> TapeNode:
    """Elementwise product of equal-shape matrices."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"hadamard shapes disagree: {av.shape} vs {bv.shape}")

    def vjp(g):
        return g * bv, g * av

    return tape._record(av * bv, (a, b), vjp)


def minimum(a: TapeNode | Param, b: TapeNode | Param) -> TapeNode:
    """Elementwise minimum; the gradient follows the active branch (ties to a)."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ShapeError(f"minimum shapes disagree: {av.shape} vs {bv.shape}")
    mask = av <= bv

    def vjp(g):
        return g * mask, g * ~mask

    return tape._record(np.where(mask, av, bv), (a, b), vjp)


def summation(x: TapeNode) -> TapeNode:
    """Sum of all entries as a 1x1 matrix."""

    def vjp(g):
        return (np.full_like(x.value, g[0, 0]),)

    return x.tape._record(np.array([[x.value.sum()]]), (x,), vjp)


def grad_reverse(x: TapeNode, lam: float) -> TapeNode:
    """Identity forward; backward multiplies the upstream gradient by -lam.

    This turns a discriminator's minimization into the encoder's maximization
    within one backward pass.  With lam=0 the input receives zero gradient.

    >>> tape = Tape()
    >>> node = grad_reverse(tape.constant([[1.0, 2.0]]), lam=1.0)
    >>> node.value.tolist()
    [[1.0, 2.0]]
    """
    if lam < 0:
        raise ParameterError(f"grad_reverse lambda must be >= 0, got {lam}")
    lam = float(lam)

    def vjp(g):
        return (-lam * g,)

    # forward output shares the input array: bit-identical by construction
    return x.tape._record(x.value, (x,), vjp)


def softmax_cross_entropy(logits: TapeNode, labels) -> TapeNode:
    """Mean negative log-softmax at the labeled class, as a 1x1 matrix.

    Stabilized by row-max subtraction.  Backward is (softmax - onehot) / m.

    >>> tape = Tape()
    >>> loss = softmax_cross_entropy(tape.constant([[0.0, 0.0, 0.0]]), [1])
    >>> round(float(loss.value[0, 0]), 4)  # uniform logits: ln 3
    1.0986
    """
    lv = logits.value
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != lv.shape[0]:
        raise ShapeError(f"labels must be a vector of length {lv.shape[0]}, got shape {y.shape}")
    if y.dtype.kind not in "iu":
        raise LabelError(f"labels must be integers, got dtype {y.dtype}")
    m, num_classes = lv.shape
    if m and (np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= num_classes):
        raise LabelError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{y.min()}, {y.max()}]")
    rows = np.arange(m)
    shifted = lv - np.maximum.reduce(lv, axis=1, keepdims=True)
    exps = np.exp(shifted)
    total = np.add.reduce(exps, axis=1, keepdims=True)
    # the log-softmax at the labels only: shifted - log(total), row by row
    picked = shifted[rows, y]
    picked -= np.log(total).ravel()
    loss = -(np.add.reduce(picked) / m)

    def vjp(g):
        grad = exps / total
        grad[rows, y] -= 1.0
        grad *= g[0, 0]
        grad /= m
        return (grad,)

    return logits.tape._record(np.array([[loss]]), (logits,), vjp)


def binary_cross_entropy(p: TapeNode, y) -> TapeNode:
    """Mean binary cross-entropy of probabilities p (m x 1) against labels y.

    Inputs are clamped to [1e-7, 1 - 1e-7] before the logs, so saturated
    probabilities never produce infinities; gradients are zero in the clamped
    region.

    >>> tape = Tape()
    >>> loss = binary_cross_entropy(tape.constant([[0.5], [0.5]]), [1, 0])
    >>> round(float(loss.value[0, 0]), 4)  # maximal confusion: ln 2
    0.6931
    """
    pv = p.value
    if pv.ndim != 2 or pv.shape[1] != 1:
        raise ShapeError(f"probabilities must be m x 1, got shape {pv.shape}")
    yv = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if yv.shape[0] != pv.shape[0]:
        raise ShapeError(f"labels must have length {pv.shape[0]}, got {yv.shape[0]}")
    if not np.logical_and.reduce((yv == 0.0) | (yv == 1.0), axis=None):
        raise LabelError("binary labels must be 0 or 1")
    m = pv.shape[0]
    clamped = np.minimum(np.maximum(pv, BCE_CLAMP), 1.0 - BCE_CLAMP)
    inside = clamped == pv  # pv lies in [BCE_CLAMP, 1 - BCE_CLAMP]
    not_y, not_clamped = 1.0 - yv, 1.0 - clamped
    loss = -(np.add.reduce(yv * np.log(clamped) + not_y * np.log(not_clamped),
                           axis=None) / m)

    def vjp(g):
        local = (-yv / clamped + not_y / not_clamped) / m
        return (g[0, 0] * local * inside,)

    return p.tape._record(np.array([[loss]]), (p,), vjp)


_SEED_GRADIENT = np.ones((1, 1))
_SEED_GRADIENT.flags.writeable = False


def backward(loss: TapeNode) -> None:
    """Accumulate d(loss)/d(param) into the grad slot of every parameter the
    loss depends on, whether it was an operand or watched.

    Visits the loss and its non-leaf ancestors in reverse topological
    (creation) order, each at most once: one dict maps the number of each
    node reached but not yet visited to the gradient summed into it so far,
    and the highest number is popped next.  A `Param` operand receives its
    share at once, one `+=` per use; a watched one receives the sum over its
    uses.  A None from a VJP is no gradient, and a constant leaf is never
    queued, so a constant loss returns at once.  Repeated calls without
    `reset_grads` in between add their contributions.
    """
    if loss.value.shape != (1, 1):
        raise ShapeError(f"backward requires a scalar (1x1) loss, got shape {loss.value.shape}")
    if loss.vjp is None:
        return
    # node number -> (node, gradient summed so far)
    pending = {loss.idx: (loss, _SEED_GRADIENT)}
    while pending:
        node, g = pending.pop(max(pending))
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            if parent.__class__ is Param:
                parent.grad += pg
            elif parent.vjp is not None:
                idx = parent.idx
                if idx in pending:
                    pending[idx] = (parent, pending[idx][1] + pg)
                else:
                    pending[idx] = (parent, pg)


def finite_diff_check(loss_proc: Callable[[], TapeNode], store: ParamStore) -> float:
    """Max relative error between analytic and central-difference gradients,
    over every coordinate of every parameter in `store`.

    `loss_proc` must build a fresh tape, read the current parameter values,
    and return a scalar loss node; it must be deterministic for fixed
    parameter values.  For each coordinate the numeric gradient is
    (f(w+h) - f(w-h)) / 2h with h = FD_STEP and the reported error is
    |analytic - numeric| / max(1, |numeric|), maximized over coordinates.
    """
    store.reset_grads()
    backward(loss_proc())
    analytic = store.grad.copy()

    def value() -> float:
        out = loss_proc().value
        if out.shape != (1, 1):
            raise ShapeError(f"loss procedure must return a scalar, got shape {out.shape}")
        return float(out[0, 0])

    flat = store.value
    max_rel = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        f_plus = value()
        flat[i] = orig - FD_STEP
        f_minus = value()
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
        err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
        max_rel = max(max_rel, err)
    return max_rel
