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
the bundle is built; `init_params` and `load_checkpoint` then fill it.  A
checkpoint is that value arena as one float64 vector beside the metadata the
layout is rebuilt from (the config dataclass `CheckpointMeta`, written by
`config_json` and read back by `parse_record`): two `read_npy` entries, so a
load is one checked copy.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import ParamStore, Tape, TapeNode, activation, affine, all_finite, sigmoid
from .data import read_npy
from .errors import (DataError, ParameterError, ShapeError, check_fields, config_json,
                     parse_record)
from .rng import Rng

DISC_HIDDEN = 64
ARENA = "params"  # the checkpoint entry holding the value arena
ACTIVATIONS = ("tanh", "relu")


@dataclass
class EncoderSpec:
    """Architecture of the encoder MLP; the last hidden dim is the feature
    dimension consumed by the classifier and every discriminator."""

    input_dim: int = field(metadata={"min": 1})
    hidden_dims: list[int] = field(default_factory=lambda: [32, 16],
                                   metadata={"min": 1, "len": 1})
    activation: str = field(default="tanh", metadata={"in": ACTIVATIONS})

    def __post_init__(self):
        check_fields(self)

    @property
    def feature_dim(self) -> int:
        return self.hidden_dims[-1]


@dataclass
class CheckpointMeta:
    """A checkpoint's `__meta__` entry: the architecture its arena is laid out
    by, with the encoder's keys flat beside `num_classes` and `target_ids`."""

    encoder: EncoderSpec = field(metadata={"json": ""})
    num_classes: int = field(metadata={"min": 1})
    target_ids: list[str] = field(metadata={"id": True, "unique": True})

    def __post_init__(self):
        check_fields(self)


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
        self.store = ParamStore((name, np.zeros(shape)) for name, shape in layout)
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


def init_params(
    spec: EncoderSpec,
    num_classes: int,
    targets: Sequence[str],
    rng: Rng,
) -> ModelBundle:
    """Glorot-uniform weights (a = sqrt(6/(fan_in+fan_out))), zero biases,
    with one discriminator per target id.

    Initialization is deterministic given the rng seed: weights are drawn in
    arena order (encoder layers, classifier, discriminators by sorted target
    id).
    """
    bundle = ModelBundle(spec, num_classes, targets)
    for p in bundle.store.params():
        if p.name.endswith(".W"):
            a = np.sqrt(6.0 / sum(p.shape))
            p.value[...] = rng.uniform(-a, a, p.shape)
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
    """Write the architecture metadata and the parameter arena.

    The npz archive holds exactly two entries: `__meta__`, the metadata as
    UTF-8 JSON bytes, and `params`, the store's value arena verbatim (a 1-D
    float64 vector in `param_layout` order).  A save/load round trip is
    bit-exact.
    """
    meta = config_json(CheckpointMeta(bundle.spec, bundle.num_classes,
                                      list(bundle.target_ids)))
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
             **{ARENA: bundle.store.value})


def load_checkpoint(path: str) -> ModelBundle:
    """Rebuild a bundle from `save_checkpoint` output: `read_npy` reads each
    entry of the zip archive, CRC-checked, `__meta__` as `u1` bytes and
    `params` as a `<f8` vector (another dtype, `>f8` too, is refused).  A
    path that cannot be opened is an OSError naming it; any other fault is
    one DataError naming the file: bytes zipfile cannot read, an entry other
    than the two (the old per-parameter form is named by its first `param::`
    entry), a missing entry or one `read_npy` refuses, a `__meta__` that
    `parse_record` rejects (named by its key), an arena not of the layout's
    length, or a non-finite value (named by the parameter holding the first).
    """
    entries = {}
    with open(path, "rb") as fh:
        try:
            archive = zipfile.ZipFile(fh)  # reads through `fh`, which it leaves open
            names = archive.namelist()
            for name in names:
                if name not in ("__meta__.npy", f"{ARENA}.npy"):
                    raise DataError(f"{path}: unexpected entry {name.removesuffix('.npy')!r}")
            for key, dtype in (("__meta__", "u1"), (ARENA, "<f8")):
                if f"{key}.npy" not in names:
                    raise DataError(f"{path}: no {key!r} entry")
                data = archive.read(f"{key}.npy")
                entries[key] = read_npy(io.BytesIO(data), len(data), np.dtype(dtype),
                                        f"{path}: {key!r}", "array")
        except DataError:  # each names the file
            raise
        except Exception as exc:  # BadZipFile, EOFError, OSError, RuntimeError, zlib.error...
            raise DataError(f"{path}: not a checkpoint archive: "
                            f"{str(exc) or type(exc).__name__}") from None
    meta = parse_record(CheckpointMeta, entries["__meta__"].tobytes(),
                        f"{path}: bad checkpoint metadata")
    bundle = ModelBundle(meta.encoder, meta.num_classes, meta.target_ids)
    arena, value = entries[ARENA], bundle.store.value
    if arena.size != value.size:
        raise DataError(f"{path}: {ARENA!r} holds {arena.size} values, expected {value.size}")
    if not all_finite(arena):
        first = int(np.flatnonzero(~np.isfinite(arena))[0])
        name = next(p.name for p in bundle.store.params() if first < p.stop)
        raise DataError(f"{path}: parameter {name!r} holds a non-finite value")
    value[...] = arena
    return bundle
