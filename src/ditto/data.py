"""Multi-domain datasets: the in-memory containers (`Rows`, `DomainSplits`,
`DomainDataset`), synthetic generation, and the on-disk form.

Each domain is a transformed view of a shared Gaussian class mixture, which
plays the role of a separate language over a common task.  Training splits
(labeled/unlabeled/fewshot) are fresh draws per domain; the eval split is one
shared base sample pushed through every domain's transform, so eval row i
corresponds across domains and feature matrices are genuinely paired for
similarity analysis.

On disk a dataset is a directory.  Its `manifest.json` records the source
domain id, the domain order, and the feature dimension: the config dataclass
`Manifest`, written by `config_json` and read back by `parse_record`, so an
unknown key is rejected.  Beside it is one `.npy` file per (domain, split),
named `{domain}.{split}.npy`, with split in {labeled, unlabeled, fewshot,
eval}.  Each holds a 1-D structured array with one element per row: a
`label` field (`<i8`) on every split but the unlabeled one, and an `x` field
(`<f8`, shape `(feature_dim,)`).  The file holds the values' bytes, so
save -> load round-trips bit-exactly.  Only that form loads: `read_npy`, the
package's one `.npy` reader (checkpoints' too), checks the header before any
row is read, and any other file is one ParseError naming it.  `write_csv` and
`csv_records` hold the package's one CSV dialect, which its tables use.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, ParameterError, ParseError, check_fields,
                     config_json, fit, is_finite_number, is_integer, parse_record)
from .rng import Rng

SPLITS = ("labeled", "unlabeled", "fewshot", "eval")
SOURCE_FRACTIONS = (1, 10, 100)  # the percentages of source labels a grid may keep
_MAX_LABEL = np.iinfo(np.int64).max


def _check_splits(splits) -> None:
    """Raise a ParameterError unless `splits` names one or more of SPLITS,
    each once."""
    if not isinstance(splits, (tuple, list)) or not splits:
        raise ParameterError(f"splits must name one or more of {SPLITS}, got {splits!r}")
    for i, split in enumerate(splits):
        if split not in SPLITS:
            raise ParameterError(f"unknown split {split!r}; splits are {SPLITS}")
        if split in splits[:i]:
            raise ParameterError(f"splits names {split!r} twice")


def _is_list_of(item):
    return lambda v: isinstance(v, (list, tuple)) and all(map(item, v))


# every transform kind: (its one parameter key, the test of that parameter's
# value, what the test wants); `_check_transform` is the one reader
TRANSFORMS = {
    "identity": (None, None, None),
    "rotation": ("angle", lambda v: is_finite_number(v) and 0 <= v < 360,
                 "a finite number in [0, 360)"),
    "translation": ("offset", _is_list_of(is_finite_number), "a list of finite numbers"),
    "permutation": ("perm", _is_list_of(is_integer), "a list of integers"),
    "noise": ("sigma", lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0"),
}


def _check_transform(transform: dict, owner: str = "") -> None:
    """Raise a ConfigError keyed `transform.<key>` for an unknown kind, an extra
    or missing key, or a parameter that fails its test in `TRANSFORMS`; `owner`
    (" of domain 'x'") names the transform's domain in the message."""
    kind = transform.get("kind")
    if not isinstance(kind, str) or kind not in TRANSFORMS:
        raise ConfigError(f"unknown transform kind {kind!r}{owner}", key="transform.kind")
    key, valid, wanted = TRANSFORMS[kind]
    for extra in transform:
        if extra not in ("kind", key):
            takes = f"only {key!r}" if key else "no parameter"
            raise ConfigError(f"unknown key: the {kind} transform{owner} takes {takes}",
                              key=f"transform.{extra}")
    if key is None:
        return
    if key not in transform:
        raise ConfigError(f"required key missing: the {kind} transform{owner} needs "
                          f"{key!r}", key=f"transform.{key}")
    if not valid(transform[key]):
        raise ConfigError(f"the {kind} {key}{owner} must be {wanted}, got "
                          f"{transform[key]!r}", key=f"transform.{key}")


# ---------------------------------------------------------------------------
# in-memory containers


@dataclass
class Rows:
    """A block of feature rows with their integer class labels (>= 0)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise DataError(f"feature rows must be 2-D, got shape {self.X.shape}")
        y = np.asarray(self.y)
        if y.shape != (self.X.shape[0],):
            raise DataError(f"labels length {y.shape} does not match {self.X.shape[0]} rows")
        if y.size and y.dtype.kind not in "iu":
            raise DataError(f"labels must be integers, got {y.dtype} values")
        if y.size and (y.min() < 0 or y.max() > _MAX_LABEL):
            raise DataError(f"labels must be >= 0 and fit in int64, got {y.min()}..{y.max()}")
        self.y = y.astype(np.int64, copy=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class DomainSplits:
    """The four splits of one domain, in SPLITS order; unlabeled rows carry no labels."""

    labeled: Rows
    unlabeled: np.ndarray
    fewshot: Rows
    eval: Rows

    def __post_init__(self):
        self.unlabeled = np.asarray(self.unlabeled, dtype=np.float64)
        if self.unlabeled.ndim != 2:
            raise DataError(f"unlabeled rows must be 2-D, got shape {self.unlabeled.shape}")

    @classmethod
    def from_blocks(cls, blocks: dict[str, tuple]) -> "DomainSplits":
        """The splits of `{split: (X, y)}`; the unlabeled split's y is ignored."""
        return cls(**{split: X if split == "unlabeled" else Rows(X, y)
                      for split, (X, y) in blocks.items()})

    def blocks(self):
        """(split, X, y) of every split in SPLITS order; y is None for the
        unlabeled split only."""
        for split in SPLITS:
            part = getattr(self, split)
            yield (split, part, None) if split == "unlabeled" else (split, part.X, part.y)


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

    def validate(self, splits: tuple[str, ...] = SPLITS) -> "DomainDataset":
        """Check every split's width and values; then that each of `splits`
        holds what training or scoring needs: labeled source rows, unlabeled
        target rows, labeled eval rows in every domain.  A split left out of
        `splits` (one `load_dataset` did not read) may be empty."""
        _check_splits(splits)
        if self.source not in self.domains:
            raise DataError(f"source domain {self.source!r} missing from dataset")
        if "labeled" in splits and self.domains[self.source].labeled.n == 0:
            raise DataError(f"source domain {self.source!r} has no labeled rows")
        dim = self.feature_dim
        for dom, parts in self.domains.items():
            for split, X, _ in parts.blocks():
                if X.shape[1] != dim and X.shape[0] > 0:
                    raise DataError(f"domain {dom!r} split {split} has {X.shape[1]} "
                                    f"feature columns, expected {dim}")
                if not np.isfinite(X).all():
                    raise DataError(f"domain {dom!r} split {split} has a non-finite "
                                    f"feature value")
            if "eval" in splits and parts.eval.n == 0:
                raise DataError(f"domain {dom!r} needs a labeled, non-empty eval split")
            if "unlabeled" in splits and dom != self.source and parts.unlabeled.shape[0] == 0:
                raise DataError(f"target domain {dom!r} has an empty unlabeled split")
        return self

    def misfit(self, input_dim: int, num_classes: int) -> tuple[str, str] | None:
        """Why a model with `input_dim` inputs and `num_classes` classes cannot
        take this dataset, as (the model field at fault, the reason); None when
        it fits."""
        if self.feature_dim != input_dim:
            return "input_dim", (f"{input_dim} does not match the dataset's "
                                 f"{self.feature_dim} feature columns")
        for dom, parts in self.domains.items():
            for split, _, y in parts.blocks():
                if y is not None and y.size and y.max() >= num_classes:
                    return "num_classes", (f"{num_classes} is too few for label "
                                           f"{y.max()} of domain {dom!r} split {split}")
        return None

    def with_source_labeled(self, rows: Rows) -> "DomainDataset":
        """This dataset with `rows` as the source's labeled split; every other
        split is shared with this one."""
        domains = dict(self.domains)
        domains[self.source] = replace(domains[self.source], labeled=rows)
        return DomainDataset(source=self.source, domains=domains)


# ---------------------------------------------------------------------------
# generation specs


@dataclass
class MixtureSpec:
    """Isotropic Gaussian mixture with one component per class."""

    means: list[list[float]] = field(metadata={"len": 2})
    sigma: float = field(default=0.5, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)
        dims = {len(m) for m in self.means}
        if len(dims) != 1:
            raise ConfigError(f"class means have mixed dimensions: {sorted(dims)}",
                              key="means")
        if not self.dim:
            raise ConfigError("class means need at least one feature column", key="means")
        pairs = {tuple(m) for m in self.means}
        if len(pairs) != len(self.means) and self.sigma == 0.0:
            raise ConfigError("coincident class means with sigma = 0 make a "
                              "degenerate mixture", key="means")

    @property
    def dim(self) -> int:
        return len(self.means[0])

    @property
    def num_classes(self) -> int:
        return len(self.means)


@dataclass
class SizeSpec:
    """Rows per split; the eval split is never empty."""

    labeled: int = field(default=0, metadata={"min": 0})
    unlabeled: int = field(default=0, metadata={"min": 0})
    fewshot: int = field(default=0, metadata={"min": 0})
    eval: int = field(default=0, metadata={"min": 1})

    def __post_init__(self):
        check_fields(self)


@dataclass
class DomainSpec:
    """One domain: its role, its transform of the base mixture, and sizes."""

    id: str = field(metadata={"id": True})
    kind: str = field(metadata={"in": ("source", "target")})
    transform: dict
    sizes: SizeSpec

    def __post_init__(self):
        check_fields(self)
        _check_transform(self.transform, f" of domain {self.id!r}")


def apply_transform(X: np.ndarray, transform: dict, rng: Rng | None = None) -> np.ndarray:
    """Apply one domain transform to feature rows (the rows keep their order);
    `transform` must pass a `DomainSpec`'s checks and fit the columns of `X`."""
    _check_transform(transform)
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
    if rng is None:  # noise, the one kind left
        raise ParameterError("noise transform needs an rng")
    return X + rng.normal(0.0, float(transform["sigma"]), X.shape)


def _draw_mixture(base: MixtureSpec, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """n rows with classes as balanced as n allows, in class-block order."""
    counts = [n // base.num_classes] * base.num_classes
    for c in range(n % base.num_classes):
        counts[c] += 1
    y = np.repeat(np.arange(base.num_classes), counts)
    means = np.asarray(base.means, dtype=np.float64)
    X = means[y] + rng.normal(0.0, base.sigma, (n, base.dim))
    return X, y


def check_domains(domains: list[DomainSpec]) -> str:
    """The id of the one source domain among `domains`, else a ConfigError
    keyed by the domain that breaks the rule: a second source, a repeated id,
    or an eval size other than the first domain's (eval rows are paired)."""
    sources = [d.id for d in domains if d.kind == "source"]
    if len(sources) != 1:
        raise ConfigError(f"need exactly one source domain, got {len(sources)}", key="domains")
    for i, spec in enumerate(domains):
        if spec.id in (d.id for d in domains[:i]):
            raise ConfigError(f"{spec.id!r} is listed twice", key=f"domains[{i}].id")
        if spec.sizes.eval != domains[0].sizes.eval:
            raise ConfigError(f"must equal the first domain's eval size {domains[0].sizes.eval} "
                              f"(eval rows are paired), got {spec.sizes.eval}",
                              key=f"domains[{i}].sizes.eval")
    return sources[0]


def generate_synthetic(
    base: MixtureSpec,
    domains: list[DomainSpec],
    rng: Rng,
    out_dir: str | Path | None = None,
) -> DomainDataset:
    """Draw every domain's splits and (optionally) write them with save_dataset.

    Eval rows are paired: one shared draw, transformed per domain, with a
    per-domain noise stream when the transform itself is stochastic.  All
    other splits are fresh draws per domain.  `domains` must pass
    `check_domains`, whose eval sizes agree so the pairing is total.
    """
    source = check_domains(domains)
    eval_base = _draw_mixture(base, domains[0].sizes.eval, rng.child("eval_base"))
    built: dict[str, DomainSplits] = {}
    for spec in domains:
        dom_rng = rng.child(f"domain.{spec.id}")
        blocks = {}
        for split in SPLITS:  # each stream comes from its tag, not the draw order
            X, y = eval_base if split == "eval" else _draw_mixture(
                base, getattr(spec.sizes, split), dom_rng.child(split))
            blocks[split] = apply_transform(X, spec.transform, dom_rng.child(f"{split}.t")), y
        built[spec.id] = DomainSplits.from_blocks(blocks)
    dataset = DomainDataset(source=source, domains=built).validate()
    if out_dir is not None:
        save_dataset(dataset, out_dir)
    return dataset


# ---------------------------------------------------------------------------
# dataset files


@dataclass
class Manifest:
    """A dataset directory's manifest.json: the source domain id, the domain
    order (each id by DOMAIN_ID_RULE, once), and the feature dimension."""

    source: str
    domains: list[str] = field(metadata={"id": True, "unique": True})
    feature_dim: int = field(metadata={"min": 1})

    def __post_init__(self):
        check_fields(self)


def _split_dtype(dim: int, labeled: bool) -> np.dtype:
    """The row of a split file: a little-endian int64 `label` on a labeled
    split only, beside `x`, the row's `dim` little-endian float64 features."""
    return np.dtype(([("label", "<i8")] if labeled else []) + [("x", "<f8", (dim,))])


def save_dataset(dataset: DomainDataset, out_dir: str | Path) -> None:
    """Write manifest.json plus one `.npy` file per (domain, split); a
    dataset `validate` rejects, or an id that breaks DOMAIN_ID_RULE, raises
    DataError before any file is written.  An empty split is written as zero
    rows of the dataset's width, whatever its own width."""
    dataset.validate()
    try:
        manifest = Manifest(dataset.source, list(dataset.domains), dataset.feature_dim)
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for dom, parts in dataset.domains.items():
        for split, X, y in parts.blocks():
            rows = np.empty(X.shape[0], _split_dtype(manifest.feature_dim, y is not None))
            rows["x"] = X.reshape(X.shape[0], manifest.feature_dim)
            if y is not None:
                rows["label"] = y
            np.save(out / f"{dom}.{split}.npy", rows, allow_pickle=False)
    write_record(out / "manifest.json", manifest)


def read_npy(fh, size: int, want: np.dtype, name, what: str = "split file") -> np.ndarray:
    """The 1-D `want` array in the `size`-byte `.npy` stream `fh`, if in `np.save`'s
    form: the magic string, version 1.0, a header of exactly `want` in one
    dimension and as many items as the bytes after it hold, checked before
    one read; else a ParseError naming `name` (not a `what`)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):  # what np.save writes for a header this short
                raise ValueError(f"format version {version[0]}.{version[1]}, not 1.0")
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    # numpy evaluates the header, a Python literal: bad bytes raise ValueError, SyntaxError,
    # TokenError, TypeError, RecursionError or MemoryError; a Python 2 one only warns
    except Exception as exc:
        why = (str(exc) or type(exc).__name__).splitlines()[0]
        raise ParseError(f"{name}: not a .npy {what} ({why})") from None
    if dtype != want:
        raise ParseError(f"{name}: holds {dtype.descr} rows, expected {want.descr}")
    if len(shape) != 1:
        raise ParseError(f"{name}: holds an array of shape {shape}, expected one dimension")
    left = size - fh.tell()
    if shape[0] * want.itemsize != left:
        raise ParseError(f"{name}: header claims {shape[0]} rows of {want.itemsize} "
                         f"bytes, but {left} bytes follow it")
    return np.frombuffer(bytearray(fh.read(left)), want)  # writable, unlike bytes


def _read_split(path: Path, dim: int, labeled: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """One split file's contiguous (X, y); y is None for an unlabeled split."""
    with open(path, "rb") as fh:
        rows = read_npy(fh, path.stat().st_size, _split_dtype(dim, labeled), path)
    return (np.ascontiguousarray(rows["x"]),
            np.ascontiguousarray(rows["label"]) if labeled else None)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write `header`, then `rows`, to `path`: csv quoting, `\\n` line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def csv_records(path: str | Path, error: type[Exception]):
    """(physical line the record ends on, row) of every record of the CSV file
    at `path`, header first.  A record csv rejects raises `error` naming the
    file and line; an undecodable byte, the file only (decoding runs in blocks)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise error(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # its position is within a block, not the file
            raise error(f"{path}: cannot decode {exc.object[exc.start:exc.end]!r} as "
                        f"{exc.encoding} ({exc.reason})") from None


def write_record(path: str | Path, record) -> None:
    """Write `config_json` of the record dataclass `record` to the file at
    `path`: indented two spaces, keys sorted, with a final newline."""
    with open(path, "w") as fh:
        json.dump(config_json(record), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str | Path, splits: tuple[str, ...] = SPLITS) -> DomainDataset:
    """Load a dataset directory written by save_dataset; validates invariants.

    Reads `manifest.json`, then the file of each domain's split named in
    `splits` (all four by default; `("eval",)` is what scoring needs).  A
    split not read is an empty block of the manifest's width, and the files
    of such splits are never opened.  A DataError names the manifest that
    `parse_record` rejects, the split file whose labels `Rows` rejects, or
    the directory (holding the older CSV split files, or a dataset that
    `validate` rejects); a split file `read_npy` refuses is a ParseError, and
    `splits` empty, repeating or naming an unknown split a ParameterError.
    """
    _check_splits(splits)
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"no manifest.json under {root}")
    manifest = parse_record(Manifest, manifest_path.read_bytes(), manifest_path)
    dim = manifest.feature_dim
    domains: dict[str, DomainSplits] = {}
    for dom in manifest.domains:
        blocks = {}
        for split in SPLITS:
            labeled = split != "unlabeled"
            split_path = root / f"{dom}.{split}.npy"
            if split not in splits:
                X, y = np.empty((0, dim)), (np.empty(0, np.int64) if labeled else None)
            elif split_path.is_file():
                X, y = _read_split(split_path, dim, labeled)
            elif (root / f"{dom}.{split}.csv").is_file():
                raise DataError(f"{root}: holds the CSV dataset form, which is no longer "
                                f"read; write the dataset again with `ditto generate`")
            else:
                raise DataError(f"missing split file {split_path}")
            try:
                blocks[split] = X if y is None else Rows(X, y)
            except DataError as exc:
                raise DataError(f"{split_path}: {exc}") from None
        domains[dom] = DomainSplits(**blocks)
    try:
        return DomainDataset(source=manifest.source, domains=domains).validate(splits)
    except DataError as exc:
        raise DataError(f"{root}: {exc}") from None


def subsample_source(dataset: DomainDataset, fraction: int, rng: Rng) -> DomainDataset:
    """Keep a seeded shuffled prefix of the source labeled rows.

    `fraction` is a percentage in SOURCE_FRACTIONS; other splits are untouched.
    """
    if fit(int, fraction, "fraction", {"in": SOURCE_FRACTIONS}) == 100:
        return dataset
    labeled = dataset.domains[dataset.source].labeled
    keep = max(1, (labeled.n * fraction) // 100)
    idx = rng.permutation(labeled.n)[:keep]
    return dataset.with_source_labeled(Rows(labeled.X[idx], labeled.y[idx]))
