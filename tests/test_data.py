"""Synthetic data generation, the CSV dataset format, and its failure modes."""

import ast
from pathlib import Path

import numpy as np
import pytest

from ditto import (
    DomainSpec,
    MixtureSpec,
    Rng,
    SizeSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    subsample_source,
)
import ditto.data
from ditto.data import apply_transform
from ditto.errors import ConfigError, DataError, ParameterError, ParseError

from conftest import make_dataset

MEANS = [[0.0, 2.0], [2.0, -1.0], [-2.0, -1.5]]


def two_domain(sizes=None, target_transform=None, seed=3):
    sizes = sizes or SizeSpec(labeled=60, unlabeled=45, fewshot=9, eval=30)
    return generate_synthetic(
        MixtureSpec(means=MEANS, sigma=0.4),
        [DomainSpec(id="s", kind="source", transform={"kind": "identity"}, sizes=sizes),
         DomainSpec(id="t", kind="target",
                    transform=target_transform or {"kind": "rotation", "angle": 30.0},
                    sizes=sizes)],
        Rng(seed))


# --- generation --------------------------------------------------------------


def test_generate_shapes_and_labels():
    ds = two_domain()
    assert ds.source == "s"
    assert ds.target_ids() == ["t"]
    s = ds.domains["s"]
    assert s.labeled.X.shape == (60, 2) and s.labeled.y.shape == (60,)
    assert s.unlabeled.shape == (45, 2)
    assert s.fewshot.X.shape == (9, 2)
    assert s.eval.X.shape == (30, 2) and s.eval.y is not None
    # balanced classes in the labeled split
    counts = np.bincount(s.labeled.y, minlength=3)
    assert counts.tolist() == [20, 20, 20]


def test_generate_deterministic():
    a, b = two_domain(seed=9), two_domain(seed=9)
    assert np.array_equal(a.domains["s"].labeled.X, b.domains["s"].labeled.X)
    assert np.array_equal(a.domains["t"].unlabeled, b.domains["t"].unlabeled)
    c = two_domain(seed=10)
    assert not np.array_equal(a.domains["s"].labeled.X, c.domains["s"].labeled.X)


def test_eval_splits_paired_across_domains():
    # identity-transform target shares the source's eval draw exactly
    ds = two_domain(target_transform={"kind": "identity"})
    assert np.array_equal(ds.domains["s"].eval.X, ds.domains["t"].eval.X)
    assert np.array_equal(ds.domains["s"].eval.y, ds.domains["t"].eval.y)
    # rotation target: same labels, rotated coordinates of the same base draw
    ds2 = two_domain(target_transform={"kind": "rotation", "angle": 90.0})
    assert np.array_equal(ds2.domains["s"].eval.y, ds2.domains["t"].eval.y)
    rotated = apply_transform(ds2.domains["s"].eval.X, {"kind": "rotation", "angle": 90.0})
    assert np.allclose(rotated, ds2.domains["t"].eval.X, atol=1e-12)


def test_training_splits_not_paired():
    ds = two_domain(target_transform={"kind": "identity"})
    assert not np.array_equal(ds.domains["s"].labeled.X, ds.domains["t"].labeled.X)


def test_generate_validation():
    sizes = SizeSpec(labeled=10, unlabeled=10, fewshot=2, eval=10)
    with pytest.raises(ConfigError):  # no source
        generate_synthetic(MixtureSpec(means=MEANS),
                           [DomainSpec(id="t", kind="target", sizes=sizes,
                                       transform={"kind": "identity"})], Rng(0))
    with pytest.raises(ConfigError):  # duplicate ids
        generate_synthetic(
            MixtureSpec(means=MEANS),
            [DomainSpec(id="d", kind="source", sizes=sizes, transform={"kind": "identity"}),
             DomainSpec(id="d", kind="target", sizes=sizes, transform={"kind": "identity"})],
            Rng(0))
    with pytest.raises(ConfigError):  # eval sizes must agree for pairing
        generate_synthetic(
            MixtureSpec(means=MEANS),
            [DomainSpec(id="s", kind="source", sizes=sizes, transform={"kind": "identity"}),
             DomainSpec(id="t", kind="target", transform={"kind": "identity"},
                        sizes=SizeSpec(labeled=10, unlabeled=10, fewshot=2, eval=20))],
            Rng(0))
    with pytest.raises(DataError):  # target with no unlabeled rows fails validate
        generate_synthetic(
            MixtureSpec(means=MEANS),
            [DomainSpec(id="s", kind="source", sizes=sizes, transform={"kind": "identity"}),
             DomainSpec(id="t", kind="target", transform={"kind": "identity"},
                        sizes=SizeSpec(labeled=0, unlabeled=0, fewshot=0, eval=10))],
            Rng(0))


def test_mixture_validation():
    with pytest.raises(ConfigError):
        MixtureSpec(means=[[0.0, 1.0]])  # one class
    with pytest.raises(ConfigError):
        MixtureSpec(means=[[0.0], [1.0, 2.0]])  # mixed dims
    with pytest.raises(ConfigError):
        MixtureSpec(means=[[0.0, 1.0], [0.0, 1.0]], sigma=0.0)  # unlearnable
    with pytest.raises(ConfigError):
        SizeSpec(labeled=10, eval=0)
    with pytest.raises(ConfigError):
        DomainSpec(id="x", kind="both", transform={"kind": "identity"},
                   sizes=SizeSpec(eval=5))


# --- transforms --------------------------------------------------------------


def test_rotation_preserves_norms_and_validates():
    X = Rng(4).normal(0, 1, (50, 2))
    R = apply_transform(X, {"kind": "rotation", "angle": 57.0})
    assert np.allclose(np.linalg.norm(R, axis=1), np.linalg.norm(X, axis=1))
    assert np.allclose(apply_transform(X, {"kind": "rotation", "angle": 0.0}), X)
    with pytest.raises(ConfigError):
        DomainSpec(id="x", kind="target", transform={"kind": "rotation", "angle": 360.0},
                   sizes=SizeSpec(eval=5))
    with pytest.raises(ConfigError):
        apply_transform(np.ones((3, 1)), {"kind": "rotation", "angle": 30.0})


def test_translation_and_permutation():
    X = Rng(5).normal(0, 1, (10, 3))
    T = apply_transform(X, {"kind": "translation", "offset": [1.0, -2.0, 0.5]})
    assert np.allclose(T, X + np.array([1.0, -2.0, 0.5]))
    with pytest.raises(ConfigError):
        apply_transform(X, {"kind": "translation", "offset": [1.0]})

    P = apply_transform(X, {"kind": "permutation", "perm": [2, 0, 1]})
    assert np.array_equal(P, X[:, [2, 0, 1]])
    with pytest.raises(ConfigError):
        apply_transform(X, {"kind": "permutation", "perm": [0, 0, 1]})


@pytest.mark.parametrize("kind,key", [("rotation", "angle"), ("translation", "offset"),
                                      ("permutation", "perm"), ("noise", "sigma")])
def test_transform_without_its_parameter_is_rejected_at_the_spec(kind, key):
    with pytest.raises(ConfigError) as exc:
        DomainSpec(id="far", kind="target", transform={"kind": kind}, sizes=SizeSpec(eval=5))
    assert "'far'" in str(exc.value) and repr(key) in str(exc.value)
    assert exc.value.key == f"transform.{key}"


def test_noise_transform():
    X = np.zeros((2000, 2))
    N = apply_transform(X, {"kind": "noise", "sigma": 0.5}, rng=Rng(6))
    assert abs(N.std() - 0.5) < 0.02
    with pytest.raises(ParameterError):
        apply_transform(X, {"kind": "noise", "sigma": 0.5})  # rng required
    with pytest.raises(ConfigError):
        apply_transform(X, {"kind": "warp"})


# --- CSV round trip ----------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path):
    ds = two_domain()
    save_dataset(ds, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "s.labeled.csv").exists()
    assert (tmp_path / "t.unlabeled.csv").exists()

    loaded = load_dataset(tmp_path)
    assert loaded.source == ds.source
    assert loaded.target_ids() == ds.target_ids()
    for dom in ds.domains:
        a, b = ds.domains[dom], loaded.domains[dom]
        # repr-serialized floats reload bit-exactly
        assert np.array_equal(a.labeled.X, b.labeled.X)
        assert np.array_equal(a.labeled.y, b.labeled.y)
        assert np.array_equal(a.unlabeled, b.unlabeled)
        assert np.array_equal(a.fewshot.X, b.fewshot.X)
        assert np.array_equal(a.eval.X, b.eval.X)
        assert np.array_equal(a.eval.y, b.eval.y)


def test_unlabeled_rows_have_empty_label(tmp_path):
    ds = two_domain()
    save_dataset(ds, tmp_path)
    lines = (tmp_path / "t.unlabeled.csv").read_text().splitlines()
    assert lines[0] == "domain,split,label,f0,f1"
    assert all(line.split(",")[2] == "" for line in lines[1:])


def test_regeneration_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    generate_synthetic(MixtureSpec(means=MEANS, sigma=0.4),
                       [DomainSpec(id="s", kind="source", transform={"kind": "identity"},
                                   sizes=SizeSpec(labeled=30, unlabeled=20, fewshot=5, eval=10)),
                        DomainSpec(id="t", kind="target",
                                   transform={"kind": "rotation", "angle": 45.0},
                                   sizes=SizeSpec(labeled=0, unlabeled=20, fewshot=5, eval=10))],
                       Rng(77), out_dir=d1)
    generate_synthetic(MixtureSpec(means=MEANS, sigma=0.4),
                       [DomainSpec(id="s", kind="source", transform={"kind": "identity"},
                                   sizes=SizeSpec(labeled=30, unlabeled=20, fewshot=5, eval=10)),
                        DomainSpec(id="t", kind="target",
                                   transform={"kind": "rotation", "angle": 45.0},
                                   sizes=SizeSpec(labeled=0, unlabeled=20, fewshot=5, eval=10))],
                       Rng(77), out_dir=d2)
    for f in sorted(d1.iterdir()):
        assert (d2 / f.name).read_bytes() == f.read_bytes(), f.name


# --- parse errors ------------------------------------------------------------


def _write_and_load(tmp_path, filename, content):
    ds = two_domain()
    save_dataset(ds, tmp_path)
    (tmp_path / filename).write_text(content)
    return load_dataset(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_missing_split_file(tmp_path):
    ds = two_domain()
    save_dataset(ds, tmp_path)
    (tmp_path / "t.unlabeled.csv").unlink()
    with pytest.raises(DataError, match="t.unlabeled.csv"):
        load_dataset(tmp_path)


def test_parse_error_empty_file(tmp_path):
    with pytest.raises(ParseError, match=r"s\.labeled\.csv:1"):
        _write_and_load(tmp_path, "s.labeled.csv", "")


def test_parse_error_bad_header(tmp_path):
    with pytest.raises(ParseError, match=":1"):
        _write_and_load(tmp_path, "s.labeled.csv",
                        "wrong,header,here,f0,f1\ns,labeled,0,1.0,2.0\n")


def test_parse_error_column_count_with_line_number(tmp_path):
    content = ("domain,split,label,f0,f1\n"
               "s,labeled,0,1.0,2.0\n"
               "s,labeled,1,3.0\n")
    with pytest.raises(ParseError, match=":3"):
        _write_and_load(tmp_path, "s.labeled.csv", content)


def test_parse_error_wrong_domain(tmp_path):
    content = ("domain,split,label,f0,f1\n"
               "OTHER,labeled,0,1.0,2.0\n")
    with pytest.raises(ParseError, match=":2"):
        _write_and_load(tmp_path, "s.labeled.csv", content)


def test_parse_error_bad_label(tmp_path):
    header = "domain,split,label,f0,f1\n"
    with pytest.raises(ParseError, match="label"):
        _write_and_load(tmp_path, "s.labeled.csv", header + "s,labeled,x,1.0,2.0\n")
    with pytest.raises(ParseError, match="label"):
        _write_and_load(tmp_path, "s.labeled.csv", header + "s,labeled,-1,1.0,2.0\n")
    with pytest.raises(ParseError, match="label"):
        _write_and_load(tmp_path, "s.labeled.csv", header + "s,labeled,,1.0,2.0\n")


def test_parse_error_label_in_unlabeled_split(tmp_path):
    content = ("domain,split,label,f0,f1\n"
               "t,unlabeled,1,1.0,2.0\n")
    with pytest.raises(ParseError, match="unlabeled"):
        _write_and_load(tmp_path, "t.unlabeled.csv", content)


def test_parse_error_non_numeric_feature(tmp_path):
    content = ("domain,split,label,f0,f1\n"
               "s,labeled,0,1.0,abc\n")
    with pytest.raises(ParseError, match=":2"):
        _write_and_load(tmp_path, "s.labeled.csv", content)


# --- source subsampling ------------------------------------------------------


def test_subsample_full_fraction_is_input():
    ds = two_domain()
    assert subsample_source(ds, 100, Rng(0)) is ds


def test_subsample_ten_percent():
    ds = make_dataset()  # 240 labeled source rows
    sub = subsample_source(ds, 10, Rng(1))
    assert sub.domains["src"].labeled.n == 24
    # rows come from the original split
    orig = ds.domains["src"].labeled.X
    for row in sub.domains["src"].labeled.X:
        assert np.any(np.all(orig == row, axis=1))
    # everything else untouched
    assert sub.domains["rot15"].labeled.n == ds.domains["rot15"].labeled.n
    assert np.array_equal(sub.domains["src"].eval.X, ds.domains["src"].eval.X)


def test_subsample_keeps_at_least_one_row():
    ds = two_domain()  # 60 labeled rows; 1% of 60 -> max(1, 0) = 1? 60//100 = 0
    sub = subsample_source(ds, 1, Rng(2))
    assert sub.domains["src" if "src" in sub.domains else "s"].labeled.n >= 1


def test_subsample_deterministic():
    ds = make_dataset()
    a = subsample_source(ds, 10, Rng(5))
    b = subsample_source(ds, 10, Rng(5))
    assert np.array_equal(a.domains["src"].labeled.X, b.domains["src"].labeled.X)


def test_subsample_invalid_fraction():
    ds = two_domain()
    with pytest.raises(ConfigError):
        subsample_source(ds, 50, Rng(0))


def test_data_does_not_import_the_training_module():
    # the dataset containers live in `data`, below the training code
    tree = ast.parse(Path(ditto.data.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "ditto" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            imported |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    assert not {m for m in imported if m.startswith("ditto.adaptation")}
