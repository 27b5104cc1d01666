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
for unlabeled rows.  Feature values are finite floats written with repr, so
generate -> load round-trips bit-exactly.  A `manifest.json` in the same
directory records the source domain id, the domain order, and the feature
dimension.  A file in the exact form save_dataset writes for a domain id that
csv does not quote is parsed by numpy's C text reader, any other by the csv
module a row at a time; a malformed file raises one ParseError naming its
first bad line.
"""

from __future__ import annotations

import csv
import io
import json
import locale
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParameterError, ParseError
from .rng import Rng

SPLITS = ("labeled", "unlabeled", "fewshot", "eval")


def _is_finite_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _is_index(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def valid_domain_id(name) -> bool:
    """Whether `name` can be a domain id.  Ids name dataset files and run
    directories, so an id is a non-empty string with no path separator."""
    return isinstance(name, str) and name != "" and "/" not in name and "\\" not in name


def _is_list_of(item):
    return lambda v: isinstance(v, (list, tuple)) and all(map(item, v))


# every transform kind: (its one parameter key, the test of that parameter's
# value, what the test wants); `_check_transform` is the one reader
TRANSFORMS = {
    "identity": (None, None, None),
    "rotation": ("angle", lambda v: _is_finite_number(v) and 0 <= v < 360,
                 "a finite number in [0, 360)"),
    "translation": ("offset", _is_list_of(_is_finite_number), "a list of finite numbers"),
    "permutation": ("perm", _is_list_of(_is_index), "a list of integers"),
    "noise": ("sigma", lambda v: _is_finite_number(v) and v >= 0, "a finite number >= 0"),
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
                if not np.isfinite(X).all():
                    raise DataError(f"domain {dom!r} split {tag} has a non-finite "
                                    f"feature value")
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
        if not valid_domain_id(self.id):
            raise ConfigError(f"domain id {self.id!r} must be non-empty and contain "
                              f"no '/' or '\\'", key="id")
        if self.kind not in ("source", "target"):
            raise ConfigError(f"domain kind must be source or target, got {self.kind!r}")
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
    """Write manifest.json plus one CSV per (domain, split).

    Each file is written a column at a time: the features go through
    `X.T.tolist()` and `repr`, which gives the same digits as
    `repr(float(v))` per value, and `csv.writer` still does the quoting.
    """
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
            labels = repeat("", X.shape[0]) if y is None else map(str, y.tolist())
            with open(out / f"{dom}.{split}.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_header(dim))
                writer.writerows(zip(repeat(dom), repeat(split), labels,
                                     *[map(repr, col) for col in X.T.tolist()]))
    manifest = {
        "source": dataset.source,
        "domains": list(dataset.domains),
        "feature_dim": dim,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


_MAX_LABEL = np.iinfo(np.int64).max
# the bytes of a number column of `save_dataset`'s form, plus its separators.
# numpy's text reader and Python's `int`/`float` accept the same strings over
# this set, with the same values (floats go through PyOS_string_to_double on
# both sides); outside it they differ: `float` takes `1_0`, `nan` and spaces.
_NUMBER_BYTES = b"0123456789+-.eE,\n"


def _parse_saved_form(data: bytes, domain: str, split: str, dim: int,
                      labeled: bool) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The (X, y) of a split file's bytes in the exact form `save_dataset`
    writes, parsed by one `np.loadtxt` call; None for any other file.

    Every test is a C-level scan of the bytes.  A file it accepts is one the
    csv path reads to the same bits, so None only means "take the csv path",
    which reads every other valid file and words every error.
    """
    header = (",".join(_header(dim)) + "\n").encode()
    if not data.startswith(header):
        return None
    if len(data) == len(header):
        return np.empty((0, dim)), (np.empty(0, np.int64) if labeled else None)
    if any(c in domain for c in ',"\r\n'):
        return None  # an id csv quotes
    try:  # in the encoding of `save_dataset`'s and the csv path's open()
        prefix = f"\n{domain},{split},{'' if labeled else ','}".encode(
            locale.getpreferredencoding(False))
    except UnicodeEncodeError:
        return None
    n = data.count(b"\n") - 1  # rows below the header
    if not data.endswith(b"\n") or data.count(prefix, len(header) - 1) != n:
        return None
    # with every row starting with the prefix, the bytes outside the header
    # and the prefixes are all number bytes iff deleting the number bytes
    # leaves the header's and n prefixes' worth
    kept = [len(b.translate(None, _NUMBER_BYTES)) for b in (data, header, prefix)]
    if kept[0] != kept[1] + n * kept[2]:
        return None
    # loadtxt raises on a row without column 2 + dim, so with this total
    # every row has exactly 2 + dim commas, as the header does
    if data.count(b",") != (n + 1) * (2 + dim):
        return None
    first = 2 if labeled else 3
    fields = ([("y", np.int64)] if labeled else []) + [("X", np.float64, (dim,))]
    # latin-1 decodes any byte; the domain column is never read.  A warning
    # is an error here: numpy 1.23-1.26 read an int field such as `1.5` as a
    # float truncated to 1, and only warn that this is deprecated
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.BytesIO(data), np.dtype(fields), delimiter=",",
                              comments=None, skiprows=1, usecols=range(first, 3 + dim),
                              ndmin=1, encoding="latin-1")
    except (ValueError, Warning):
        return None
    X = np.ascontiguousarray(rows["X"])
    y = np.ascontiguousarray(rows["y"]) if labeled else None
    if (labeled and y.min() < 0) or not np.isfinite(X).all():
        return None
    return X, y


def _parse_row(path: Path, lineno: int, row: list[str], domain: str, split: str,
               dim: int, labeled: bool) -> tuple[int | None, list[float]]:
    """One csv row's label (None in an unlabeled split) and feature values;
    a malformed row raises the ParseError naming its line."""
    if len(row) != 3 + dim:
        raise ParseError(f"{path}:{lineno}: expected {3 + dim} columns, got {len(row)}")
    if row[0] != domain:
        raise ParseError(f"{path}:{lineno}: domain {row[0]!r} does not match "
                         f"file domain {domain!r}")
    if row[1] != split:
        raise ParseError(f"{path}:{lineno}: split {row[1]!r} does not match "
                         f"file split {split!r}")
    label = None
    if labeled:
        if row[2] == "":
            raise ParseError(f"{path}:{lineno}: missing label in {split} split")
        try:
            label = int(row[2])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: label {row[2]!r} is not an "
                             f"integer") from None
        if label < 0:
            raise ParseError(f"{path}:{lineno}: label must be >= 0")
        if label > _MAX_LABEL:
            raise ParseError(f"{path}:{lineno}: label {row[2]!r} does not fit in int64")
    elif row[2] != "":
        raise ParseError(f"{path}:{lineno}: unlabeled rows must have an empty "
                         f"label, got {row[2]!r}")
    try:
        values = [float(v) for v in row[3:]]
    except ValueError:
        raise ParseError(f"{path}:{lineno}: non-numeric feature value") from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{path}:{lineno}: non-finite feature value")
    return label, values


def _parse_csv_rows(path: Path, domain: str, split: str, dim: int,
                    labeled: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """One split file's (X, y) through the csv module, a row at a time: any
    valid file (quoted ids, CRLF, no final newline), and the ParseError of
    the first malformed line of any other."""
    labels, rows = [], []
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
            label, values = _parse_row(path, lineno, row, domain, split, dim, labeled)
            labels.append(label)
            rows.append(values)
    X = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    return X, (np.array(labels, dtype=np.int64) if labeled else None)


def _parse_split_file(path: Path, domain: str, split: str, dim: int,
                      labeled: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """One split file's (X, y); y is None for an unlabeled split.  A file in
    `save_dataset`'s own form, for a domain id without `,"\r\n`, is parsed by
    numpy's C text reader, any other by the csv module; both give the same
    bits and the same errors."""
    parsed = _parse_saved_form(path.read_bytes(), domain, split, dim, labeled)
    return parsed if parsed is not None else _parse_csv_rows(path, domain, split, dim,
                                                             labeled)


def read_json_object(path: str | Path, error: type[Exception] = DataError) -> dict:
    """The JSON object in the file at `path`; invalid JSON (or UTF-8) and any
    other JSON value raise `error` naming the file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def load_dataset(path: str | Path) -> DomainDataset:
    """Load a dataset directory written by save_dataset; validates invariants.

    A manifest that is not a JSON object with a string `source`, a list of
    valid domain ids `domains` and a positive integer `feature_dim` raises
    DataError naming it.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {root}")
    manifest = read_json_object(manifest_path)
    source, ids, dim = (manifest.get(key) for key in ("source", "domains", "feature_dim"))
    if not isinstance(source, str):
        raise DataError(f"{manifest_path}: 'source' must be a string, got {source!r}")
    if not isinstance(ids, list) or not all(map(valid_domain_id, ids)):
        raise DataError(f"{manifest_path}: 'domains' must be a list of non-empty ids "
                        f"without '/' or '\\', got {ids!r}")
    if not _is_index(dim) or dim < 1:
        raise DataError(f"{manifest_path}: 'feature_dim' must be a positive integer, "
                        f"got {dim!r}")
    for i, dom in enumerate(ids):
        if dom in ids[:i]:
            raise DataError(f"{manifest_path}: 'domains' lists {dom!r} twice")
    domains: dict[str, DomainSplits] = {}
    for dom in ids:
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
    return DomainDataset(source=source, domains=domains).validate()


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
