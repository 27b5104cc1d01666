"""AdamW with a linear learning-rate decay schedule, plus the
sharpness-aware minimization (SAM) wrapper.

SAM runs each batch as a two-phase protocol:

    1. forward + backward at w
    2. perturb: w <- w + eps_hat, with eps_hat = rho * grad / ||grad||_2
       (a single global L2 norm over all perturbed parameters jointly)
    3. reset grads, forward + backward at w + eps_hat
    4. restore w bit-exactly from a stored copy
    5. AdamW update using the phase-3 gradients

With rho = 0 phases 2-4 are skipped entirely, so the trajectory is
bit-identical to plain AdamW.  A vanishing phase-1 gradient norm (< 1e-12)
also falls back to the plain step for that batch.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .autodiff import ParamStore, TapeNode, all_finite, backward
from .errors import (DegenerateGradientError, NumericError, ParameterError, StateError,
                     check_fields)

DEGENERATE_NORM = 1e-12
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass
class AdamWConfig:
    lr: float = field(metadata={"above": 0})
    total_steps: int = field(metadata={"min": 1})
    weight_decay: float = field(default=0.0, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)


def lr_at(config: AdamWConfig, step: int) -> float:
    """Linearly decayed rate lr * (1 - step/total_steps); exactly 0 at the end.

    Steps past total_steps clamp to 0 with a warning.
    """
    if step < 0:
        raise ParameterError(f"step must be >= 0, got {step}")
    if step > config.total_steps:
        warnings.warn(f"step {step} exceeds total_steps {config.total_steps}; "
                      f"learning rate clamped to 0", stacklevel=2)
        return 0.0
    return config.lr * (1.0 - step / config.total_steps)


def adamw_step(
    store: ParamStore,
    config: AdamWConfig,
    step: int,
    names: Sequence[str] | None = None,
) -> None:
    """One decoupled-weight-decay Adam update on the named parameters.

    w <- w - lr_t*wd*w - lr_t * m_hat / (sqrt(v_hat) + EPS), with the usual
    bias-corrected moments; lr_t comes from the linear schedule at `step`,
    while bias correction uses each parameter's own update count (so rarely
    updated discriminators are corrected properly).  Every gradient is
    checked before any value moves.  The update is elementwise, so it runs
    once per stretch of arena whose parameters share an update count.  The
    moments are updated in place and the update is built in two scratch
    arrays, with the same operations in the same order as
    m = BETA1*m + (1-BETA1)*g, v = BETA2*v + ((1-BETA2)*g)*g,
    update = (lr_t*m_hat) / (sqrt(v_hat) + EPS) + (lr_t*wd)*w, w -= update.
    """
    lr_t = lr_at(config, step)
    spans = store.spans(names)
    for span, run in spans:
        if not all_finite(store.grad[span]):
            bad = next(p for p in run if not np.all(np.isfinite(p.grad)))
            raise NumericError(f"non-finite gradient in parameter {bad.name!r}")
    for _, run in spans:
        for count, group in itertools.groupby(run, key=attrgetter("step")):
            group = list(group)
            t = count + 1
            for p in group:
                p.step = t
            span = slice(group[0].start, group[-1].stop)
            w, g, m, v = (arena[span] for arena in (store.value, store.grad, store.m, store.v))
            # m <- BETA1*m + (1-BETA1)*g
            m *= BETA1
            scratch = np.multiply(g, 1.0 - BETA1)
            m += scratch
            # v <- BETA2*v + ((1-BETA2)*g)*g
            np.multiply(g, 1.0 - BETA2, out=scratch)
            scratch *= g
            v *= BETA2
            v += scratch
            # update = (lr_t * m_hat) / (sqrt(v_hat) + EPS)
            np.divide(v, 1.0 - BETA2 ** t, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPS
            update = np.divide(m, 1.0 - BETA1 ** t)
            update *= lr_t
            update /= scratch
            if config.weight_decay:
                np.multiply(w, lr_t * config.weight_decay, out=scratch)
                update += scratch
            w -= update


class Perturbation:
    """Record of one sam_perturb: exact copies of the perturbed arena spans."""

    def __init__(self, store: ParamStore, originals: list[tuple[slice, np.ndarray]],
                 norm: float):
        self.store = store
        self.originals = originals
        self.grad_norm = norm
        self.restored = False


def sam_perturb(store: ParamStore, rho: float, names: Sequence[str] | None = None) -> Perturbation:
    """Set w <- w + eps_hat with eps_hat = rho * grad / ||grad||_2.

    The norm is a single global L2 norm over the concatenation of all named
    parameters' gradients, so ||eps_hat||_2 = rho exactly.  Each arena span
    is squared once; the squares are then summed matrix by matrix in name
    order, each matrix's sum over its own slice of the squares, and those
    sums added up as Python floats.  A norm below 1e-12 raises
    DegenerateGradientError and leaves parameters untouched; callers skip
    the perturbation for that step.
    """
    if not (math.isfinite(rho) and rho >= 0):
        raise ParameterError(f"rho must be a finite number >= 0, got {rho}")
    spans = store.spans(names)
    sq = 0.0
    for span, run in spans:
        g = store.grad[span]
        squares = g * g
        for p in run:
            sq += float(np.add.reduce(squares[p.start - span.start:p.stop - span.start]))
    norm = math.sqrt(sq)
    if norm < DEGENERATE_NORM:
        raise DegenerateGradientError(f"gradient norm {norm:.3e} below {DEGENERATE_NORM}")
    scale = rho / norm
    originals = []
    for span, _ in spans:
        originals.append((span, store.value[span].copy()))
        store.value[span] += scale * store.grad[span]
    return Perturbation(store, originals, norm)


def sam_restore(store: ParamStore, perturbation: Perturbation) -> None:
    """Restore the exact pre-perturbation values (stored copy, not subtraction)."""
    if perturbation.store is not store:
        raise StateError("perturbation was produced for a different ParamStore")
    if perturbation.restored:
        raise StateError("perturbation already restored")
    for span, value in reversed(perturbation.originals):
        store.value[span] = value
    perturbation.restored = True


def sam_backward(
    loss_proc: Callable[[], TapeNode],
    store: ParamStore,
    rho: float,
    names: Sequence[str] | None = None,
) -> float:
    """Run the SAM backward protocol, leaving the update gradients in place.

    Resets all gradient slots, then: with rho = 0 a single backward at w;
    otherwise backward at w, perturb, fresh backward at w + eps_hat, restore.
    Returns the loss at w.  No optimizer update happens here, which lets the
    joint adaptation step accumulate further gradients before updating.
    """
    store.reset_grads()
    loss = loss_proc()
    backward(loss)
    if rho == 0.0:
        return float(loss.value[0, 0])
    try:
        perturbation = sam_perturb(store, rho, names)
    except DegenerateGradientError:
        return float(loss.value[0, 0])  # keep phase-1 gradients: plain step
    store.reset_grads()
    backward(loss_proc())
    sam_restore(store, perturbation)
    return float(loss.value[0, 0])


def sam_step(
    loss_proc: Callable[[], TapeNode],
    store: ParamStore,
    rho: float,
    adamw: AdamWConfig,
    step: int,
    names: Sequence[str] | None = None,
) -> float:
    """Full SAM step: sharpness-aware backward followed by an AdamW update."""
    loss = sam_backward(loss_proc, store, rho, names)
    adamw_step(store, adamw, step, names)
    return loss
