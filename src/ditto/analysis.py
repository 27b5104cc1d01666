"""Measurement apparatus: representation similarity, correlations, accuracy
tables, relative gains, and the annotation cost model.

eval.csv and cka.csv go through `data.write_csv` and `data.csv_records`; a
table that does not parse or decode raises DataError naming the file.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .adaptation import domain_accuracies
from .data import DomainDataset, csv_records, write_csv
from .errors import (DataError, ShapeError, UndefinedResultError, check_fields,
                     is_finite_number)
from .model import ModelBundle

CKA_DEGENERATE = 1e-12


def linear_cka(X: np.ndarray, Y: np.ndarray) -> float:
    """Linear centered kernel alignment between paired feature matrices.

    Rows of X and Y must correspond (row i in both comes from the same
    underlying example).  Columns are centered, then

        CKA = ||Yc^T Xc||_F^2 / (||Xc^T Xc||_F * ||Yc^T Yc||_F)

    which lies in [0, 1] and is invariant to orthogonal right-multiplication
    and isotropic scaling of either argument.  If either self-term is
    degenerate (< 1e-12, e.g. a constant feature matrix) the result is 0.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ShapeError(f"feature matrices must be 2-D, got {X.shape} and {Y.shape}")
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"row counts disagree: {X.shape[0]} vs {Y.shape[0]}")
    if X.shape[0] < 2:
        raise ShapeError(f"need at least 2 rows, got {X.shape[0]}")
    Xc = X - X.mean(axis=0, keepdims=True)
    Yc = Y - Y.mean(axis=0, keepdims=True)
    cross = float(np.linalg.norm(Yc.T @ Xc, "fro") ** 2)
    x_self = float(np.linalg.norm(Xc.T @ Xc, "fro"))
    y_self = float(np.linalg.norm(Yc.T @ Yc, "fro"))
    if x_self < CKA_DEGENERATE or y_self < CKA_DEGENERATE:
        return 0.0
    return cross / (x_self * y_self)


def pearson(xs, ys) -> float:
    """Sample linear correlation coefficient.

    Raises UndefinedResultError when either input has zero variance.
    """
    x = np.asarray(xs, dtype=np.float64).ravel()
    y = np.asarray(ys, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ShapeError(f"lengths disagree: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ShapeError(f"need at least 2 points, got {x.shape[0]}")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedResultError("correlation undefined: an input has zero variance")
    return float((xc * yc).sum()) / (sx * sy)


def _mean_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values all receive the mean of their rank range."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.shape[0], dtype=np.float64)
    sorted_v = v[order]
    i = 0
    while i < v.shape[0]:
        j = i
        while j + 1 < v.shape[0] and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Rank correlation: pearson of mean-ranked values."""
    x = np.asarray(xs, dtype=np.float64).ravel()
    y = np.asarray(ys, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ShapeError(f"lengths disagree: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ShapeError(f"need at least 2 points, got {x.shape[0]}")
    return pearson(_mean_ranks(x), _mean_ranks(y))


# ---------------------------------------------------------------------------
# accuracy tables


@dataclass
class EvalTable:
    """Accuracies in percent, keyed by (method, domain)."""

    source: str
    entries: dict[tuple[str, str], float] = field(default_factory=dict)

    def add(self, method: str, domain: str, accuracy: float) -> None:
        self.entries[(method, domain)] = float(accuracy)

    def get(self, method: str, domain: str) -> float:
        try:
            return self.entries[(method, domain)]
        except KeyError:
            raise DataError(f"no accuracy of method {method!r} on domain {domain!r}") from None

    def methods(self) -> list[str]:
        return sorted({m for m, _ in self.entries})

    def domains(self, method: str) -> list[str]:
        return sorted({d for m, d in self.entries if m == method})

    def targets(self, method: str) -> list[str]:
        return [d for d in self.domains(method) if d != self.source]


def zero_shot_eval(bundle: ModelBundle, datasets: DomainDataset, method: str) -> EvalTable:
    """Per-domain argmax accuracy of one trained model, tagged with `method`."""
    table = EvalTable(source=datasets.source)
    for dom, acc in domain_accuracies(bundle, datasets).items():
        table.add(method, dom, acc)
    return table


def gap_table(table: EvalTable, method: str | None = None) -> float:
    """Mean over targets of (source accuracy - target accuracy), signed."""
    methods = table.methods()
    if method is None:
        if len(methods) != 1:
            raise DataError(f"table holds methods {methods}; pick one")
        method = methods[0]
    src = table.get(method, table.source)
    targets = table.targets(method)
    if not targets:
        return 0.0
    return float(np.mean([src - table.get(method, t) for t in targets]))


def relative_gain(baseline_acc: float, method_acc: float) -> float:
    """(method - baseline) / baseline * 100."""
    if baseline_acc <= 0.0:
        raise UndefinedResultError(f"relative gain undefined for baseline "
                                   f"accuracy {baseline_acc}")
    return (method_acc - baseline_acc) / baseline_acc * 100.0


@dataclass
class CostParams:
    """Inputs of the annotation budget model; costs in cents."""

    c_s: float = field(default=3.0, metadata={"min": 0})
    n_labeled_source: int = field(default=0, metadata={"min": 0})
    c_t_over_s: float = field(default=1.0, metadata={"min": 0})
    k: int = field(default=0, metadata={"min": 0})
    num_targets: int = field(default=0, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)


def annotation_cost(p: CostParams) -> float:
    """Total labeling cost: c_s*n + c_s*c_t_over_s*k*num_targets (cents)."""
    return p.c_s * p.n_labeled_source + p.c_s * p.c_t_over_s * p.k * p.num_targets


# ---------------------------------------------------------------------------
# CSV export

# accuracies and gains are printed to two decimals; downstream arithmetic
# (summary gains) reads these files back, so the rounding is the contract


def fmt_acc(value: float) -> str:
    return f"{value:.2f}"


def mean_gain(base_accs: dict[str, float], accs: dict[str, float], targets) -> str:
    """The mean relative gain over `targets` as a table cell; empty when a
    target has no baseline accuracy or a gain is undefined (a 0.00 baseline)."""
    try:
        return fmt_acc(float(np.mean([relative_gain(base_accs[t], accs[t]) for t in targets])))
    except (KeyError, UndefinedResultError):
        return ""


def write_eval_csv(table: EvalTable, path) -> None:
    """Long-format per-domain accuracies: domain,method,accuracy,relative_gain.

    The relative_gain column is `mean_gain` over that one domain against the
    "baseline" method, from the two-decimal accuracies exactly as printed.
    """
    printed = {key: float(fmt_acc(acc)) for key, acc in table.entries.items()}
    base = {domain: acc for (method, domain), acc in printed.items() if method == "baseline"}
    write_csv(path, ["domain", "method", "accuracy", "relative_gain"],
              ([d, m, fmt_acc(table.get(m, d)), mean_gain(base, {d: printed[m, d]}, [d])]
               for m in table.methods() for d in table.domains(m)))


def _csv_body(path, header: list[str], what: str):
    """(line number, row) for each body row of a CSV file with `header`; a
    wrong header or a row of the wrong width raises DataError."""
    with closing(csv_records(path, DataError)) as records:
        _, first = next(records, (None, None))
        if first != header:
            raise DataError(f"{path}: unexpected {what} CSV header {first}")
        for lineno, row in records:
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} "
                                f"columns, got {len(row)}")
            yield lineno, row


def _number(path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: {text!r} is not a number") from None
    if not is_finite_number(value):
        raise DataError(f"{path}:{lineno}: {text!r} is not a finite number")
    return value


def read_eval_csv(path) -> tuple[EvalTable, dict[tuple[str, str], str]]:
    """Load a write_eval_csv file; returns the table (source unknown -> '')
    and the raw relative_gain strings.  A malformed file, or one that repeats
    a (method, domain) pair, raises DataError naming it (and the line, for a
    bad row)."""
    entries: dict[tuple[str, str], float] = {}
    gains: dict[tuple[str, str], str] = {}
    for lineno, (domain, method, acc, gain) in _csv_body(
            path, ["domain", "method", "accuracy", "relative_gain"], "eval"):
        if (method, domain) in entries:
            raise DataError(f"{path}:{lineno}: a second {method} row for domain {domain!r}")
        entries[(method, domain)] = _number(path, lineno, acc)
        gains[(method, domain)] = gain
    return EvalTable(source="", entries=entries), gains


def write_cka_csv(ckas: dict[str, float], accuracies: dict[str, float], path) -> None:
    """Per-target similarity report: domain,cka,accuracy."""
    write_csv(path, ["domain", "cka", "accuracy"],
              ([domain, f"{ckas[domain]:.6f}", fmt_acc(accuracies[domain])]
               for domain in sorted(ckas)))


def read_cka_csv(path) -> dict[str, tuple[float, float]]:
    """Load a write_cka_csv file as {domain: (cka, accuracy)}; a malformed
    file, or one that repeats a domain, raises DataError naming it (and the
    line, for a bad row)."""
    rows: dict[str, tuple[float, float]] = {}
    for lineno, (domain, cka, acc) in _csv_body(path, ["domain", "cka", "accuracy"], "CKA"):
        if domain in rows:
            raise DataError(f"{path}:{lineno}: a second row for domain {domain!r}")
        rows[domain] = (_number(path, lineno, cka), _number(path, lineno, acc))
    return rows
