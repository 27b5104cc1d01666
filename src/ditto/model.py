"""Three-part model: encoder, task classifier, per-target discriminators.

The encoder maps input feature vectors to a shared representation; a single
affine classifier head predicts task classes; and each target domain gets its
own small discriminator (feature_dim -> 64 -> 1 with tanh hidden layer and a
sigmoid head) that scores whether a representation came from the source
domain.  All parameters live in one ParamStore under hierarchical names,
laid out in its flat arenas in this order (`param_layout`):

    encoder.layer{i}.W / .b
    classifier.W / .b
    disc.{target}.layer0.W / .b   and   disc.{target}.head.W / .b   (sorted ids)

So the task parameters (encoder + classifier) form one span of the arenas
and each discriminator another; the optimizer and SAM touch each span with a
handful of vector operations.  The store is allocated once, zero-filled, when
the bundle is built; `init_params` and `load_checkpoint` then fill it.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import ParamStore, Tape, TapeNode, activation, affine, sigmoid
from .errors import DataError, ParameterError, ShapeError
from .rng import Rng

DISC_HIDDEN = 64
ACTIVATIONS = ("tanh", "relu")


@dataclass
class EncoderSpec:
    """Architecture of the encoder MLP; the last hidden dim is the feature
    dimension consumed by the classifier and every discriminator."""

    input_dim: int
    hidden_dims: list[int] = field(default_factory=lambda: [32, 16])
    activation: str = "tanh"

    def __post_init__(self):
        if self.input_dim <= 0:
            raise ParameterError(f"input_dim must be positive, got {self.input_dim}")
        if not self.hidden_dims:
            raise ParameterError("hidden_dims must be non-empty")
        if any(d <= 0 for d in self.hidden_dims):
            raise ParameterError(f"hidden dims must be positive, got {self.hidden_dims}")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"activation must be one of {ACTIVATIONS}, "
                                 f"got {self.activation!r}")

    @property
    def feature_dim(self) -> int:
        return self.hidden_dims[-1]


def param_layout(
    spec: EncoderSpec, num_classes: int, target_ids: Sequence[str]
) -> list[tuple[str, tuple[int, int]]]:
    """(name, shape) of every parameter, in arena order."""
    layout = []
    fan_in = spec.input_dim
    for i, width in enumerate(spec.hidden_dims):
        layout += [(f"encoder.layer{i}.W", (fan_in, width)), (f"encoder.layer{i}.b", (1, width))]
        fan_in = width
    layout += [("classifier.W", (spec.feature_dim, num_classes)),
               ("classifier.b", (1, num_classes))]
    for t in target_ids:
        layout += [(f"disc.{t}.layer0.W", (spec.feature_dim, DISC_HIDDEN)),
                   (f"disc.{t}.layer0.b", (1, DISC_HIDDEN)),
                   (f"disc.{t}.head.W", (DISC_HIDDEN, 1)),
                   (f"disc.{t}.head.b", (1, 1))]
    return layout


class ModelBundle:
    """Encoder + classifier + one discriminator per target domain.

    Construct through `init_params` or `load_checkpoint`; the bundle owns its
    ParamStore, allocated zero-filled from `param_layout`, for the duration
    of a training run.
    """

    def __init__(self, spec: EncoderSpec, num_classes: int, target_ids: Sequence[str]):
        if num_classes <= 0:
            raise ParameterError(f"num_classes must be positive, got {num_classes}")
        self.spec = spec
        self.num_classes = num_classes
        self.target_ids = tuple(sorted(str(t) for t in target_ids))
        if len(set(self.target_ids)) != len(self.target_ids):
            raise ParameterError(f"duplicate target ids: {target_ids}")
        layout = param_layout(spec, num_classes, self.target_ids)
        self.store = ParamStore(layout)
        self._task_names = [name for name, _ in layout if not name.startswith("disc.")]

    @property
    def feature_dim(self) -> int:
        return self.spec.feature_dim

    def task_param_names(self) -> list[str]:
        """Encoder and classifier parameters, the ones SAM perturbs.

        The list is built once per bundle and shared: do not modify it.
        """
        return self._task_names

    def disc_param_names(self, t: str) -> list[str]:
        self._check_target(t)
        return [f"disc.{t}.layer0.W", f"disc.{t}.layer0.b",
                f"disc.{t}.head.W", f"disc.{t}.head.b"]

    def _check_target(self, t: str) -> None:
        if t not in self.target_ids:
            raise KeyError(f"unknown target id {t!r}; known targets: {list(self.target_ids)}")


def _glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, (fan_in, fan_out))


def init_params(
    spec: EncoderSpec,
    num_classes: int,
    targets: int | Sequence[str],
    rng: Rng,
) -> ModelBundle:
    """Glorot-uniform weights (a = sqrt(6/(fan_in+fan_out))), zero biases.

    `targets` may be a count (ids become t0..t{n-1}) or explicit domain ids.
    Initialization is deterministic given the rng seed: weights are drawn in
    arena order (encoder layers, classifier, discriminators by sorted target
    id).
    """
    if isinstance(targets, int):
        if targets < 0:
            raise ParameterError(f"target count must be >= 0, got {targets}")
        targets = [f"t{i}" for i in range(targets)]
    bundle = ModelBundle(spec, num_classes, targets)
    for p in bundle.store.params():
        if p.name.endswith(".W"):
            p.value[...] = _glorot(rng, *p.shape)
    return bundle


def encode(bundle: ModelBundle, tape: Tape, x) -> TapeNode:
    """Run the encoder on the tape; x is an m x input_dim matrix or node."""
    node = x if isinstance(x, TapeNode) else tape.constant(x)
    if node.value.shape[1] != bundle.spec.input_dim:
        raise ShapeError(f"encoder expects {bundle.spec.input_dim} input columns, "
                         f"got {node.value.shape[1]}")
    store = bundle.store
    for i in range(len(bundle.spec.hidden_dims)):
        node = activation(affine(node, store[f"encoder.layer{i}.W"],
                                 store[f"encoder.layer{i}.b"]), bundle.spec.activation)
    return node


def classify(bundle: ModelBundle, features: TapeNode) -> TapeNode:
    """Affine classifier head producing m x num_classes logits."""
    return affine(features, bundle.store["classifier.W"], bundle.store["classifier.b"])


def discriminate(bundle: ModelBundle, t: str, features: TapeNode) -> TapeNode:
    """Target t's discriminator: m x 1 probabilities, strictly inside (0, 1)."""
    bundle._check_target(t)
    store = bundle.store
    hidden = activation(affine(features, store[f"disc.{t}.layer0.W"],
                               store[f"disc.{t}.layer0.b"]), "tanh")
    return sigmoid(affine(hidden, store[f"disc.{t}.head.W"], store[f"disc.{t}.head.b"]))


def extract_features(bundle: ModelBundle, x) -> np.ndarray:
    """Encoder outputs with no tape recording (inference); row order preserved.

    Performs the same float64 operations in the same order as `encode`, so
    the values are bit-identical to a recorded forward pass.  Each layer's
    matmul allocates the array the bias and tanh then update in place, so
    `x` is never written.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != bundle.spec.input_dim:
        raise ShapeError(f"expected m x {bundle.spec.input_dim} inputs, got shape {h.shape}")
    store = bundle.store
    for i in range(len(bundle.spec.hidden_dims)):
        h = h @ store[f"encoder.layer{i}.W"].value
        h += store[f"encoder.layer{i}.b"].value
        if bundle.spec.activation == "tanh":
            np.tanh(h, out=h)
        else:
            h = np.where(h > 0.0, h, 0.0)
    return h


def predict_logits(bundle: ModelBundle, x) -> np.ndarray:
    """Inference-mode logits: classifier head applied to extracted features."""
    logits = extract_features(bundle, x) @ bundle.store["classifier.W"].value
    logits += bundle.store["classifier.b"].value
    return logits


def save_checkpoint(bundle: ModelBundle, path: str) -> None:
    """Serialize every parameter matrix plus architecture metadata.

    The npz container stores float64 matrices verbatim, so a save/load
    round-trip is bit-exact.
    """
    meta = {
        "input_dim": bundle.spec.input_dim,
        "hidden_dims": list(bundle.spec.hidden_dims),
        "activation": bundle.spec.activation,
        "num_classes": bundle.num_classes,
        "target_ids": list(bundle.target_ids),
    }
    arrays = {f"param::{name}": bundle.store[name].value for name in bundle.store.names()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path: str) -> ModelBundle:
    """Rebuild a bundle from `save_checkpoint` output.

    A file that is not an npz archive, a missing or malformed `__meta__`
    entry, and stored parameters that do not match the layout the metadata
    implies (a missing, extra or wrong-shaped `param::` entry) raise
    DataError naming the file.
    """
    with open(path, "rb") as fh:
        try:
            data = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: not a checkpoint archive: {exc}") from None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DataError(f"{path}: not a checkpoint archive: a single .npy array")
        with data:
            if "__meta__" not in data.files:
                raise DataError(f"{path}: no '__meta__' entry")
            try:
                meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
                spec = EncoderSpec(meta["input_dim"], list(meta["hidden_dims"]),
                                   meta["activation"])
                bundle = ModelBundle(spec, meta["num_classes"], meta["target_ids"])
            except (ValueError, TypeError, KeyError) as exc:  # ParameterError is a ValueError
                raise DataError(f"{path}: bad checkpoint metadata: {type(exc).__name__}: "
                                f"{exc}") from None
            keys = {key for key in data.files if key.startswith("param::")}
            extra = sorted(keys - {f"param::{name}" for name in bundle.store.names()})
            if extra:
                raise DataError(f"{path}: unexpected parameter {extra[0]!r}")
            for p in bundle.store.params():
                key = f"param::{p.name}"
                if key not in keys:
                    raise DataError(f"{path}: missing parameter {key!r}")
                value = data[key]
                if value.shape != p.shape:
                    raise DataError(f"{path}: parameter {key!r} has shape {value.shape}, "
                                    f"expected {p.shape}")
                p.value[...] = value
    return bundle
