"""Similarity, correlation and table arithmetic against independent oracles:
a Gram-matrix HSIC route for CKA, textbook formulas and scipy for the
correlations, and hand-pinned table values."""

import numpy as np
import pytest
import scipy.stats

from ditto import (
    CostParams,
    EvalTable,
    Rng,
    annotation_cost,
    gap_table,
    linear_cka,
    pearson,
    relative_gain,
    spearman,
)
from ditto.analysis import (
    fmt_acc,
    read_cka_csv,
    read_eval_csv,
    write_cka_csv,
    write_eval_csv,
)
from ditto.errors import (
    ConfigError,
    DataError,
    ShapeError,
    UndefinedResultError,
)


def hsic_cka(X, Y):
    """Independent route: centered linear-kernel HSIC alignment."""
    n = X.shape[0]
    K = X @ X.T
    L = Y @ Y.T
    H = np.eye(n) - np.ones((n, n)) / n
    hsic_xy = np.trace(K @ H @ L @ H)
    hsic_xx = np.trace(K @ H @ K @ H)
    hsic_yy = np.trace(L @ H @ L @ H)
    return hsic_xy / np.sqrt(hsic_xx * hsic_yy)


def test_cka_properties_on_random_matrices():
    rng = Rng(7)
    for trial in range(20):
        n = 10 + int(rng.integers(0, 20, 1)[0])
        dx = 3 + int(rng.integers(0, 5, 1)[0])
        dy = 3 + int(rng.integers(0, 5, 1)[0])
        X = rng.normal(0, 1, (n, dx))
        Y = rng.normal(0, 1, (n, dy))

        assert abs(linear_cka(X, X) - 1.0) < 1e-10
        assert abs(linear_cka(X, 3.0 * X) - 1.0) < 1e-10  # isotropic scaling
        assert abs(linear_cka(X, Y) - linear_cka(Y, X)) < 1e-12  # symmetry

        Q, _ = np.linalg.qr(rng.normal(0, 1, (dy, dy)))
        assert abs(linear_cka(X, Y @ Q) - linear_cka(X, Y)) < 1e-10  # orthogonal

        assert abs(linear_cka(X, Y) - hsic_cka(X, Y)) < 1e-10  # HSIC oracle

        assert 0.0 <= linear_cka(X, Y) <= 1.0


def test_cka_degenerate_inputs_give_zero():
    X = np.ones((8, 3))  # constant rows: centering wipes everything out
    Y = Rng(1).normal(0, 1, (8, 4))
    assert linear_cka(X, Y) == 0.0
    assert linear_cka(X, X) == 0.0


def test_cka_shape_validation():
    X = np.ones((4, 2))
    with pytest.raises(ShapeError):
        linear_cka(X, np.ones((5, 2)))
    with pytest.raises(ShapeError):
        linear_cka(np.ones(4), X)
    with pytest.raises(ShapeError):
        linear_cka(np.ones((1, 2)), np.ones((1, 2)))


def test_pearson_matches_textbook_and_scipy():
    rng = Rng(12)
    for _ in range(20):
        x = rng.normal(0, 1, (15,))
        y = 0.5 * x + rng.normal(0, 1, (15,))
        # textbook route
        xc, yc = x - x.mean(), y - y.mean()
        direct = float((xc * yc).sum() / np.sqrt((xc * xc).sum() * (yc * yc).sum()))
        assert abs(pearson(x, y) - direct) < 1e-12
        assert abs(pearson(x, y) - scipy.stats.pearsonr(x, y).statistic) < 1e-12


def test_spearman_matches_scipy_with_ties():
    rng = Rng(13)
    for _ in range(10):
        x = np.round(rng.normal(0, 1, (12,)), 1)  # rounding forces ties
        y = np.round(rng.normal(0, 1, (12,)), 1)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        assert abs(spearman(x, y) - scipy.stats.spearmanr(x, y).statistic) < 1e-12


def test_tied_ranks_get_group_means():
    from ditto.analysis import _mean_ranks
    assert _mean_ranks(np.array([1.0, 2.0, 2.0, 3.0])).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert _mean_ranks(np.array([5.0, 5.0, 5.0])).tolist() == [2.0, 2.0, 2.0]


def test_correlation_validation():
    with pytest.raises(ShapeError):
        pearson([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        pearson([1.0], [1.0])
    with pytest.raises(UndefinedResultError):
        pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedResultError):
        spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_perfect_monotone_spearman():
    assert abs(spearman([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 25.0, 90.0]) - 1.0) < 1e-12
    assert abs(spearman([1.0, 2.0, 3.0], [5.0, 4.0, 3.0]) + 1.0) < 1e-12


# --- tables ------------------------------------------------------------------

# per-domain accuracies of a 14-target evaluation, source first
XNLI_BASELINES = {
    "en": 57.17,
    "ar": 47.09, "bg": 50.00, "de": 49.44, "el": 48.70, "es": 50.12,
    "fr": 51.96, "hi": 46.57, "ru": 49.64, "sw": 37.82, "th": 36.61,
    "tr": 45.35, "ur": 45.19, "vi": 49.20, "zh": 48.74,
}


def test_gap_table_pinned_value():
    table = EvalTable(source="en")
    for dom, acc in XNLI_BASELINES.items():
        table.add("baseline", dom, acc)
    # mean over targets of (source - target), recomputed independently
    targets = [d for d in XNLI_BASELINES if d != "en"]
    expect = sum(57.17 - XNLI_BASELINES[t] for t in targets) / len(targets)
    gap = gap_table(table)
    assert abs(gap - expect) < 1e-12
    assert abs(gap - 10.2821) < 1e-3


def test_gap_table_requires_unique_method_or_name():
    table = EvalTable(source="s")
    table.add("a", "s", 90.0)
    table.add("a", "t", 80.0)
    table.add("b", "s", 90.0)
    table.add("b", "t", 85.0)
    with pytest.raises(DataError):
        gap_table(table)
    assert abs(gap_table(table, method="b") - 5.0) < 1e-12


def test_relative_gain():
    assert abs(relative_gain(50.0, 60.0) - 20.0) < 1e-12
    assert abs(relative_gain(50.0, 40.0) + 20.0) < 1e-12
    # the formula applied to two-decimal accuracies gives 20.5139...
    assert abs(relative_gain(47.09, 56.75) - (56.75 - 47.09) / 47.09 * 100.0) < 1e-12
    with pytest.raises(UndefinedResultError):
        relative_gain(0.0, 10.0)
    with pytest.raises(UndefinedResultError):
        relative_gain(-5.0, 10.0)


def test_annotation_cost_pinned_value():
    p = CostParams(c_s=3.0, n_labeled_source=1000, c_t_over_s=1.0, k=500, num_targets=5)
    assert annotation_cost(p) == 10500.0
    # zero few-shot rows: source labeling only
    assert annotation_cost(CostParams(3.0, 1000, 1.0, 0, 5)) == 3000.0
    # doubling the per-target cost ratio doubles only the target term
    assert annotation_cost(CostParams(3.0, 1000, 2.0, 500, 5)) == 18000.0
    with pytest.raises(ConfigError):
        CostParams(c_s=-1.0, n_labeled_source=10, c_t_over_s=1.0, k=0, num_targets=1)


def test_eval_table_operations():
    t = EvalTable(source="s")
    t.add("m", "s", 90.0)
    t.add("m", "a", 70.0)
    t.add("m", "b", 80.0)
    assert t.get("m", "a") == 70.0
    assert t.methods() == ["m"]
    assert t.domains("m") == ["a", "b", "s"]
    assert t.targets("m") == ["a", "b"]


def test_missing_accuracy_is_a_data_error_naming_the_pair(tmp_path):
    table = EvalTable(source="src")
    table.add("m", "src", 90.0)
    table.add("m", "t1", 80.0)
    path = tmp_path / "eval.csv"
    write_eval_csv(table, path)
    loaded, _ = read_eval_csv(path)  # a table read back has source ''
    with pytest.raises(DataError, match="^no accuracy of method 'm' on domain ''$"):
        gap_table(loaded)
    with pytest.raises(DataError, match="^no accuracy of method 'x' on domain 't1'$"):
        table.get("x", "t1")


def test_eval_csv_round_trip(tmp_path):
    table = EvalTable(source="src")
    table.add("baseline", "src", 95.0)
    table.add("baseline", "t1", 47.09)
    table.add("ditto", "src", 95.5)
    table.add("ditto", "t1", 56.75)
    path = tmp_path / "eval.csv"
    write_eval_csv(table, path)

    text = path.read_text()
    assert text.splitlines()[0] == "domain,method,accuracy,relative_gain"
    # gains recomputed from the two-decimal accuracy column
    loaded, gains = read_eval_csv(path)
    assert loaded.get("ditto", "t1") == 56.75
    assert gains[("ditto", "t1")] == f"{relative_gain(47.09, 56.75):.2f}"
    assert gains[("baseline", "t1")] == "0.00"


def test_eval_csv_no_baseline_leaves_gain_empty(tmp_path):
    table = EvalTable(source="src")
    table.add("ditto", "src", 95.0)
    table.add("ditto", "t1", 60.0)
    path = tmp_path / "eval.csv"
    write_eval_csv(table, path)
    _, gains = read_eval_csv(path)
    assert gains[("ditto", "t1")] == ""


def test_cka_csv_round_trip(tmp_path):
    ckas = {"t1": 0.912345678, "t2": 0.5}
    accs = {"t1": 88.8888, "t2": 70.0}
    path = tmp_path / "cka.csv"
    write_cka_csv(ckas, accs, path)
    rows = read_cka_csv(path)
    assert abs(rows["t1"][0] - ckas["t1"]) < 5e-7  # six-decimal serialization
    assert rows["t1"][1] == 88.89  # accuracies stored at two decimals
    assert rows["t2"] == (0.5, 70.0)


def test_eval_csv_bytes_pinned(tmp_path):
    # a quoted domain id, gains from the printed accuracies (94.996 prints as
    # 95.00, a gain of 0.00), a 0.00 baseline and a target with no baseline
    table = EvalTable(source="src")
    for method, domain, acc in [("baseline", "src", 95.0), ("baseline", "t,1", 47.094),
                                ("baseline", "t2", 0.0), ("ditto", "src", 94.996),
                                ("ditto", "t,1", 56.755), ("ditto", "t2", 12.5),
                                ("ditto", "t3", 60.0)]:
        table.add(method, domain, acc)
    write_eval_csv(table, tmp_path / "eval.csv")
    assert (tmp_path / "eval.csv").read_bytes() == (
        b"domain,method,accuracy,relative_gain\n"
        b"src,baseline,95.00,0.00\n"
        b'"t,1",baseline,47.09,0.00\n'
        b"t2,baseline,0.00,\n"
        b"src,ditto,95.00,0.00\n"
        b'"t,1",ditto,56.76,20.54\n'
        b"t2,ditto,12.50,\n"
        b"t3,ditto,60.00,\n")


def test_cka_csv_bytes_pinned(tmp_path):
    write_cka_csv({"t3": 1.0, "t2": 0.5, "t,1": 0.912345678},
                  {"t3": 33.333, "t2": 70.0, "t,1": 88.8888}, tmp_path / "cka.csv")
    assert (tmp_path / "cka.csv").read_bytes() == (
        b"domain,cka,accuracy\n"
        b'"t,1",0.912346,88.89\n'
        b"t2,0.500000,70.00\n"
        b"t3,1.000000,33.33\n")


def test_fmt_acc_two_decimals():
    assert fmt_acc(95.0) == "95.00"
    assert fmt_acc(47.093) == "47.09"
    assert fmt_acc(20.5139) == "20.51"


def test_cka_accuracy_correlation():
    # the per-target series that ditto analyze correlates: more feature
    # corruption gives a lower CKA to the source and, here, a lower accuracy
    rng = Rng(30)
    n = 40
    base = rng.normal(0, 1, (n, 6))
    ckas, accs = [], []
    for noise, acc in [(0.1, 90.0), (0.5, 80.0), (1.0, 70.0), (2.0, 55.0)]:
        ckas.append(linear_cka(base, base + rng.normal(0, noise, (n, 6))))
        accs.append(acc)
    assert pearson(ckas, accs) > 0.8
    assert abs(spearman(ckas, accs) - 1.0) < 1e-12  # monotone by construction
