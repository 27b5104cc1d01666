"""Multi-domain datasets: the in-memory containers (`Rows`, `DomainSplits`,
`DomainDataset`), synthetic generation, and the on-disk CSV format.

Each domain is a transformed view of a shared Gaussian class mixture, which
plays the role of a separate language over a common task.  Training splits
(labeled/unlabeled/fewshot) are fresh draws per domain; the eval split is one
shared base sample pushed through every domain's transform, so eval row i
corresponds across domains and feature matrices are genuinely paired for
similarity analysis.

File format, one CSV per (domain, split) named `{domain}.{split}.csv`:

    domain,split,label,f0,f1,...

with split in {labeled, unlabeled, fewshot, eval}; the label field is empty
for unlabeled rows.  Floats are written with repr, so generate -> load
round-trips bit-exactly.  A `manifest.json` in the same directory records the
source domain id, the domain order, and the feature dimension.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParameterError, ParseError
from .rng import Rng

SPLITS = ("labeled", "unlabeled", "fewshot", "eval")
# each transform kind and the parameter key it requires
TRANSFORM_KINDS = {"identity": None, "rotation": "angle", "translation": "offset",
                   "permutation": "perm", "noise": "sigma"}


# ---------------------------------------------------------------------------
# in-memory containers


@dataclass
class Rows:
    """A block of feature rows with optional integer class labels."""

    X: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise DataError(f"feature rows must be 2-D, got shape {self.X.shape}")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.int64)
            if self.y.shape != (self.X.shape[0],):
                raise DataError(f"labels length {self.y.shape} does not match "
                                f"{self.X.shape[0]} rows")

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class DomainSplits:
    """The four splits of one domain; unlabeled rows carry no labels."""

    labeled: Rows
    unlabeled: np.ndarray
    fewshot: Rows
    eval: Rows

    def __post_init__(self):
        self.unlabeled = np.asarray(self.unlabeled, dtype=np.float64)


@dataclass
class DomainDataset:
    """All domains of one benchmark; exactly one is the source."""

    source: str
    domains: dict[str, DomainSplits]

    def target_ids(self) -> list[str]:
        return sorted(d for d in self.domains if d != self.source)

    @property
    def feature_dim(self) -> int:
        return self.domains[self.source].eval.X.shape[1]

    def validate(self) -> "DomainDataset":
        if self.source not in self.domains:
            raise DataError(f"source domain {self.source!r} missing from dataset")
        dim = self.feature_dim
        for dom, splits in self.domains.items():
            for tag, X in (("labeled", splits.labeled.X), ("unlabeled", splits.unlabeled),
                           ("fewshot", splits.fewshot.X), ("eval", splits.eval.X)):
                if X.shape[1] != dim and X.shape[0] > 0:
                    raise DataError(f"domain {dom!r} split {tag} has {X.shape[1]} "
                                    f"feature columns, expected {dim}")
            if splits.eval.n == 0 or splits.eval.y is None:
                raise DataError(f"domain {dom!r} needs a labeled, non-empty eval split")
            if dom != self.source and splits.unlabeled.shape[0] == 0:
                raise DataError(f"target domain {dom!r} has an empty unlabeled split")
        if self.domains[self.source].labeled.n == 0:
            raise DataError(f"source domain {self.source!r} has no labeled rows")
        return self


# ---------------------------------------------------------------------------
# generation specs


@dataclass
class MixtureSpec:
    """Isotropic Gaussian mixture with one component per class."""

    means: list[list[float]]
    sigma: float = 0.5

    def __post_init__(self):
        if len(self.means) < 2:
            raise ConfigError(f"need at least 2 classes, got {len(self.means)}")
        dims = {len(m) for m in self.means}
        if len(dims) != 1:
            raise ConfigError(f"class means have mixed dimensions: {sorted(dims)}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        pairs = {tuple(m) for m in self.means}
        if len(pairs) != len(self.means) and self.sigma == 0.0:
            raise ConfigError("coincident class means with sigma = 0 make a "
                              "degenerate mixture")

    @property
    def dim(self) -> int:
        return len(self.means[0])

    @property
    def num_classes(self) -> int:
        return len(self.means)


@dataclass
class SizeSpec:
    labeled: int = 0
    unlabeled: int = 0
    fewshot: int = 0
    eval: int = 0

    def __post_init__(self):
        for name in ("labeled", "unlabeled", "fewshot", "eval"):
            if getattr(self, name) < 0:
                raise ConfigError(f"split size {name} must be >= 0")
        if self.eval <= 0:
            raise ConfigError("eval split must be non-empty")


@dataclass
class DomainSpec:
    """One domain: its role, its transform of the base mixture, and sizes."""

    id: str
    kind: str  # source | target
    transform: dict = field(default_factory=lambda: {"kind": "identity"})
    sizes: SizeSpec = field(default_factory=SizeSpec)

    def __post_init__(self):
        if self.kind not in ("source", "target"):
            raise ConfigError(f"domain kind must be source or target, got {self.kind!r}")
        tkind = self.transform.get("kind")
        if not isinstance(tkind, str) or tkind not in TRANSFORM_KINDS:
            raise ConfigError(f"unknown transform kind {tkind!r} for domain {self.id!r}")
        key = TRANSFORM_KINDS[tkind]
        if key and key not in self.transform:
            raise ConfigError(f"required key missing: the {tkind} transform of domain "
                              f"{self.id!r} needs {key!r}", key=f"transform.{key}")
        if tkind == "rotation":
            angle = float(self.transform["angle"])
            if not (0.0 <= angle < 360.0):
                raise ConfigError(f"rotation angle must lie in [0, 360), got {angle}")


def apply_transform(X: np.ndarray, transform: dict, rng: Rng | None = None) -> np.ndarray:
    """Apply one domain transform to feature rows (the rows keep their order)."""
    kind = transform["kind"]
    if kind == "identity":
        return X.copy()
    if kind == "rotation":
        if X.shape[1] < 2:
            raise ConfigError("rotation needs at least 2 feature dimensions")
        theta = math.radians(float(transform["angle"]))
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        out = X.copy()
        out[:, :2] = X[:, :2] @ rot.T
        return out
    if kind == "translation":
        offset = np.asarray(transform["offset"], dtype=np.float64)
        if offset.shape != (X.shape[1],):
            raise ConfigError(f"translation offset length {offset.shape[0]} does not "
                              f"match {X.shape[1]} features")
        return X + offset
    if kind == "permutation":
        perm = list(transform["perm"])
        if sorted(perm) != list(range(X.shape[1])):
            raise ConfigError(f"perm {perm} is not a permutation of 0..{X.shape[1]-1}")
        return X[:, perm]
    if kind == "noise":
        sigma = float(transform["sigma"])
        if sigma < 0:
            raise ConfigError(f"noise sigma must be >= 0, got {sigma}")
        if rng is None:
            raise ParameterError("noise transform needs an rng")
        return X + rng.normal(0.0, sigma, X.shape)
    raise ConfigError(f"unknown transform kind {kind!r}")


def _draw_mixture(base: MixtureSpec, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """n rows with classes as balanced as n allows, in class-block order."""
    counts = [n // base.num_classes] * base.num_classes
    for c in range(n % base.num_classes):
        counts[c] += 1
    y = np.repeat(np.arange(base.num_classes), counts)
    means = np.asarray(base.means, dtype=np.float64)
    X = means[y] + rng.normal(0.0, base.sigma, (n, base.dim))
    return X, y


def generate_synthetic(
    base: MixtureSpec,
    domains: list[DomainSpec],
    rng: Rng,
    out_dir: str | Path | None = None,
) -> DomainDataset:
    """Draw every domain's splits and (optionally) write them as CSV files.

    Eval rows are paired: one shared draw, transformed per domain, with a
    per-domain noise stream when the transform itself is stochastic.  All
    other splits are fresh draws per domain.  Eval sizes must agree across
    domains so the pairing is total.
    """
    sources = [d for d in domains if d.kind == "source"]
    if len(sources) != 1:
        raise ConfigError(f"need exactly one source domain, got {len(sources)}")
    ids = [d.id for d in domains]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate domain ids: {ids}")
    eval_sizes = {d.sizes.eval for d in domains}
    if len(eval_sizes) != 1:
        raise ConfigError(f"eval sizes must agree across domains for pairing, "
                          f"got {sorted(eval_sizes)}")

    eval_X, eval_y = _draw_mixture(base, eval_sizes.pop(), rng.child("eval_base"))
    built: dict[str, DomainSplits] = {}
    for spec in domains:
        dom_rng = rng.child(f"domain.{spec.id}")
        lab_X, lab_y = _draw_mixture(base, spec.sizes.labeled, dom_rng.child("labeled"))
        unl_X, _ = _draw_mixture(base, spec.sizes.unlabeled, dom_rng.child("unlabeled"))
        few_X, few_y = _draw_mixture(base, spec.sizes.fewshot, dom_rng.child("fewshot"))
        built[spec.id] = DomainSplits(
            labeled=Rows(apply_transform(lab_X, spec.transform, dom_rng.child("labeled.t")), lab_y),
            unlabeled=apply_transform(unl_X, spec.transform, dom_rng.child("unlabeled.t")),
            fewshot=Rows(apply_transform(few_X, spec.transform, dom_rng.child("fewshot.t")), few_y),
            eval=Rows(apply_transform(eval_X, spec.transform, dom_rng.child("eval.t")), eval_y),
        )
    dataset = DomainDataset(source=sources[0].id, domains=built).validate()
    if out_dir is not None:
        save_dataset(dataset, out_dir)
    return dataset


# ---------------------------------------------------------------------------
# CSV I/O


def _header(dim: int) -> list[str]:
    return ["domain", "split", "label"] + [f"f{i}" for i in range(dim)]


def save_dataset(dataset: DomainDataset, out_dir: str | Path) -> None:
    """Write manifest.json plus one CSV per (domain, split)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dim = dataset.feature_dim
    for dom, splits in dataset.domains.items():
        blocks = {
            "labeled": (splits.labeled.X, splits.labeled.y),
            "unlabeled": (splits.unlabeled, None),
            "fewshot": (splits.fewshot.X, splits.fewshot.y),
            "eval": (splits.eval.X, splits.eval.y),
        }
        for split, (X, y) in blocks.items():
            with open(out / f"{dom}.{split}.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_header(dim))
                for i in range(X.shape[0]):
                    label = "" if y is None else str(int(y[i]))
                    writer.writerow([dom, split, label] + [repr(float(v)) for v in X[i]])
    manifest = {
        "source": dataset.source,
        "domains": list(dataset.domains),
        "feature_dim": dim,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_split_file(path: Path, domain: str, split: str, dim: int,
                      labeled: bool) -> tuple[np.ndarray, np.ndarray | None]:
    xs: list[list[float]] = []
    ys: list[int] = []
    expected_cols = 3 + dim
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}:1: empty file, expected header") from None
        if header != _header(dim):
            raise ParseError(f"{path}:1: bad header {header[:4]}..., expected "
                             f"domain,split,label,f0..f{dim-1}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != expected_cols:
                raise ParseError(f"{path}:{lineno}: expected {expected_cols} columns, "
                                 f"got {len(row)}")
            if row[0] != domain:
                raise ParseError(f"{path}:{lineno}: domain {row[0]!r} does not match "
                                 f"file domain {domain!r}")
            if row[1] != split:
                raise ParseError(f"{path}:{lineno}: split {row[1]!r} does not match "
                                 f"file split {split!r}")
            if labeled:
                if row[2] == "":
                    raise ParseError(f"{path}:{lineno}: missing label in {split} split")
                try:
                    ys.append(int(row[2]))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: label {row[2]!r} is not an "
                                     f"integer") from None
                if ys[-1] < 0:
                    raise ParseError(f"{path}:{lineno}: label must be >= 0")
            elif row[2] != "":
                raise ParseError(f"{path}:{lineno}: unlabeled rows must have an empty "
                                 f"label, got {row[2]!r}")
            try:
                xs.append([float(v) for v in row[3:]])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric feature value") from None
    X = np.array(xs, dtype=np.float64).reshape(len(xs), dim)
    return X, (np.array(ys, dtype=np.int64) if labeled else None)


def load_dataset(path: str | Path) -> DomainDataset:
    """Load a dataset directory written by save_dataset; validates invariants."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {root}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    dim = int(manifest["feature_dim"])
    domains: dict[str, DomainSplits] = {}
    for dom in manifest["domains"]:
        parts = {}
        for split in SPLITS:
            split_path = root / f"{dom}.{split}.csv"
            if not split_path.exists():
                raise DataError(f"missing split file {split_path}")
            parts[split] = _parse_split_file(split_path, dom, split, dim,
                                             labeled=(split != "unlabeled"))
        domains[dom] = DomainSplits(
            labeled=Rows(*parts["labeled"]),
            unlabeled=parts["unlabeled"][0],
            fewshot=Rows(*parts["fewshot"]),
            eval=Rows(*parts["eval"]),
        )
    return DomainDataset(source=manifest["source"], domains=domains).validate()


def subsample_source(dataset: DomainDataset, fraction: int, rng: Rng) -> DomainDataset:
    """Keep a seeded shuffled prefix of the source labeled rows.

    `fraction` is a percentage in {1, 10, 100}; other splits are untouched.
    """
    if fraction not in (1, 10, 100):
        raise ConfigError(f"source fraction must be 1, 10 or 100, got {fraction}")
    if fraction == 100:
        return dataset
    src = dataset.domains[dataset.source]
    n = src.labeled.n
    keep = max(1, (n * fraction) // 100)
    idx = rng.permutation(n)[:keep]
    domains = dict(dataset.domains)
    domains[dataset.source] = replace(
        src, labeled=Rows(src.labeled.X[idx], src.labeled.y[idx]))
    return DomainDataset(source=dataset.source, domains=domains)
