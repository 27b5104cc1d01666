"""Record a small computation on the tape, differentiate it in reverse, and
corroborate every gradient with central finite differences.

The checker rebuilds the loss from scratch for each probe, so the loss
procedure must be a pure function of the current parameter values.
"""

import numpy as np

from ditto import ParamStore, Tape, backward, finite_diff_check
from ditto.autodiff import (
    activation,
    affine,
    grad_reverse,
    matmul,
    softmax_cross_entropy,
    summation,
)
from ditto.rng import Rng


def classifier_loss(store, x, labels):
    """Two affine layers with tanh between, mean cross-entropy on top."""

    def loss_proc():
        tape = Tape()
        h = activation(affine(tape.constant(x), tape.watch(store["W1"]),
                              tape.watch(store["b1"])), "tanh")
        logits = affine(h, tape.watch(store["W2"]), tape.watch(store["b2"]))
        return softmax_cross_entropy(logits, labels)

    return loss_proc


def main():
    rng = Rng(0)
    x = rng.normal(0, 1, (6, 2))
    labels = np.array([0, 1, 2, 0, 1, 2])

    store = ParamStore([
        ("W1", rng.normal(0, 0.5, (2, 8))),
        ("b1", np.zeros((1, 8))),
        ("W2", rng.normal(0, 0.5, (8, 3))),
        ("b2", np.zeros((1, 3))),
    ])

    loss_proc = classifier_loss(store, x, labels)

    loss = loss_proc()
    backward(loss)
    print(f"loss value            {loss.value[0, 0]:.6f}")
    print(f"dL/dW1 norm           {np.linalg.norm(store['W1'].grad):.6f}")
    print(f"dL/db2                {np.round(store['b2'].grad, 4)}")

    worst = finite_diff_check(loss_proc, store)
    print(f"worst relative error  {worst:.3e}  (central differences, h=1e-5)")

    # A single op checked the same way: C = A @ B, loss = sum(C).
    mm_store = ParamStore([("A", rng.normal(0, 1, (3, 4))), ("B", rng.normal(0, 1, (4, 2)))])

    def mm_loss():
        tape = Tape()
        return summation(matmul(tape.watch(mm_store["A"]), tape.watch(mm_store["B"])))

    print(f"matmul op check       {finite_diff_check(mm_loss, mm_store):.3e}")

    # The reversal op is the one place finite differences must NOT agree:
    # its forward is the identity while its backward scales by -lam.
    rv_store = ParamStore([("v", rng.normal(0, 1, (2, 3)))])

    def reversed_sum():
        tape = Tape()
        return summation(grad_reverse(tape.watch(rv_store["v"]), 0.7))

    node = reversed_sum()
    backward(node)
    print(f"reversal forward      identity ({np.array_equal(node.value, [[rv_store['v'].value.sum()]])})")
    print(f"reversal gradient     {rv_store['v'].grad[0, 0]:+.1f}  (sum's gradient is +1, scaled by -0.7)")


if __name__ == "__main__":
    main()
