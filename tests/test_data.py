"""Synthetic data generation, the CSV dataset format, and its failure modes."""

import ast
import csv
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from ditto import (
    DomainDataset,
    DomainSpec,
    DomainSplits,
    EncoderSpec,
    MixtureSpec,
    Rng,
    Rows,
    SizeSpec,
    TrainConfig,
    TrainVariant,
    generate_synthetic,
    load_dataset,
    save_dataset,
    subsample_source,
    train,
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


# one domain per transform kind
FIVE_KINDS = [("s", "source", {"kind": "identity"}),
              ("rot", "target", {"kind": "rotation", "angle": 40.0}),
              ("shift", "target", {"kind": "translation", "offset": [0.5, -1.0]}),
              ("perm", "target", {"kind": "permutation", "perm": [1, 0]}),
              ("noisy", "target", {"kind": "noise", "sigma": 0.3})]


def test_generation_loop_matches_the_unrolled_draws_bit_for_bit():
    """Each split drawn and transformed by hand, one call per split with its
    own child tags, as the generator did before it walked SPLITS."""
    base = MixtureSpec(means=MEANS, sigma=0.4)
    specs = [DomainSpec(id=i, kind=kind, transform=t,
                        sizes=SizeSpec(labeled=7, unlabeled=11, fewshot=5, eval=13))
             for i, kind, t in FIVE_KINDS]
    ds = generate_synthetic(base, specs, Rng(21))
    draw, rng = ditto.data._draw_mixture, Rng(21)
    eval_X, eval_y = draw(base, 13, rng.child("eval_base"))
    for spec in specs:
        dom_rng = rng.child(f"domain.{spec.id}")
        lab_X, lab_y = draw(base, 7, dom_rng.child("labeled"))
        unl_X, _ = draw(base, 11, dom_rng.child("unlabeled"))
        few_X, few_y = draw(base, 5, dom_rng.child("fewshot"))
        got = ds.domains[spec.id]
        for a, b in [
            (got.labeled.X, apply_transform(lab_X, spec.transform, dom_rng.child("labeled.t"))),
            (got.labeled.y, lab_y),
            (got.unlabeled, apply_transform(unl_X, spec.transform, dom_rng.child("unlabeled.t"))),
            (got.fewshot.X, apply_transform(few_X, spec.transform, dom_rng.child("fewshot.t"))),
            (got.fewshot.y, few_y),
            (got.eval.X, apply_transform(eval_X, spec.transform, dom_rng.child("eval.t"))),
            (got.eval.y, eval_y),
        ]:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # the noise stream is in play: its eval rows differ from the source's
    assert not np.array_equal(ds.domains["noisy"].eval.X, ds.domains["s"].eval.X)


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


# --- containers --------------------------------------------------------------


@pytest.mark.parametrize("labels, message", [
    ([0.7, 1.5, 2.0], "labels must be integers, got float64 values"),
    ([0.0, 1.0, 2.0], "labels must be integers, got float64 values"),
    ([True, False, True], "labels must be integers, got bool values"),
    ([-1, 0, 1], "labels must be >= 0 and fit in int64, got -1..1"),
    (np.array([0, 1, 2**63], dtype=np.uint64),
     "labels must be >= 0 and fit in int64, got 0..9223372036854775808"),
    ([0, 1], "labels length (2,) does not match 3 rows"),
], ids=["fractional", "whole_floats", "bools", "negative", "past_int64", "short"])
def test_rows_rejects_labels_that_are_not_class_indices(labels, message):
    with pytest.raises(DataError, match=re.escape(message)):
        Rows(np.zeros((3, 2)), labels)


def test_rows_takes_empty_and_int32_labels_as_int64():
    empty = Rows(np.empty((0, 2)), [])
    assert empty.y.dtype == np.int64 and empty.y.shape == (0,)
    rows = Rows(np.zeros((3, 2)), np.array([2, 0, 1], dtype=np.int32))
    assert rows.y.dtype == np.int64 and rows.y.tolist() == [2, 0, 1]
    with pytest.raises(TypeError):  # labels are never optional
        Rows(np.zeros((3, 2)))


def test_domain_splits_rejects_unlabeled_rows_that_are_not_2d():
    rows = Rows(np.zeros((2, 2)), [0, 1])
    with pytest.raises(DataError, match=re.escape("unlabeled rows must be 2-D, got shape (4,)")):
        DomainSplits(labeled=rows, unlabeled=np.zeros(4), fewshot=rows, eval=rows)


def test_blocks_walk_the_splits_in_order_and_from_blocks_rebuilds_them():
    parts = two_domain().domains["t"]
    blocks = list(parts.blocks())
    assert [(split, y is None) for split, _, y in blocks] == [
        ("labeled", False), ("unlabeled", True), ("fewshot", False), ("eval", False)]
    assert blocks[1][1] is parts.unlabeled and blocks[3][2] is parts.eval.y
    again = DomainSplits.from_blocks({split: (X, y) for split, X, y in blocks})
    for (_, X, y), (_, X2, y2) in zip(blocks, again.blocks()):
        assert X2 is X and y2 is y


def test_with_source_labeled_swaps_only_the_source_labeled_rows():
    ds = two_domain()
    rows = Rows(np.ones((2, 2)), [1, 0])
    out = ds.with_source_labeled(rows)
    assert out.source == "s" and list(out.domains) == ["s", "t"]
    assert out.domains["s"].labeled is rows and ds.domains["s"].labeled.n == 60
    assert out.domains["s"].eval is ds.domains["s"].eval
    assert out.domains["t"] is ds.domains["t"]


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


# id: (a transform that TRANSFORMS rejects, the key its ConfigError names)
BAD_TRANSFORMS = {
    "angle_string": ({"kind": "rotation", "angle": "abc"}, "angle"),
    "angle_bool": ({"kind": "rotation", "angle": True}, "angle"),
    "sigma_string": ({"kind": "noise", "sigma": "x"}, "sigma"),
    "sigma_negative": ({"kind": "noise", "sigma": -0.5}, "sigma"),
    "perm_string": ({"kind": "permutation", "perm": "ab"}, "perm"),
    "perm_float": ({"kind": "permutation", "perm": [1, 0.5]}, "perm"),
    "offset_number": ({"kind": "translation", "offset": 1.0}, "offset"),
    "offset_inf": ({"kind": "translation", "offset": [1.0, float("inf")]}, "offset"),
    "translation_extra_key": ({"kind": "translation", "offset": [1.0], "bogus": 3}, "bogus"),
    "identity_extra_key": ({"kind": "identity", "angle": 30.0}, "angle"),
    "sigma_nan": ({"kind": "noise", "sigma": float("nan")}, "sigma"),
    "angle_720": ({"kind": "rotation", "angle": 720}, "angle"),
    "angle_missing": ({"kind": "rotation"}, "angle"),
    "unknown_kind": ({"kind": "warp"}, "kind"),
}


def _spec(transform):
    DomainSpec(id="far", kind="target", transform=transform, sizes=SizeSpec(eval=5))


def _apply(transform):
    apply_transform(np.zeros((4, 2)), transform, Rng(0))


# the DomainSpec cases keep their bare ids; apply_transform runs the same cases
@pytest.mark.parametrize("check,transform,key", [
    pytest.param(check, transform, key, id=name if check is _spec else f"apply-{name}")
    for check in (_spec, _apply) for name, (transform, key) in BAD_TRANSFORMS.items()])
def test_transform_parameter_of_wrong_type_or_unknown_key_is_rejected(check, transform, key):
    with pytest.raises(ConfigError) as exc:
        check(transform)
    assert ("'far'" in str(exc.value)) == (check is _spec)
    assert exc.value.key == f"transform.{key}"


def test_well_typed_transform_parameters_are_accepted():
    for transform in ({"kind": "identity"}, {"kind": "rotation", "angle": 25},
                      {"kind": "rotation", "angle": np.float64(359.5)},
                      {"kind": "noise", "sigma": 0}, {"kind": "permutation", "perm": (1, 0)},
                      {"kind": "translation", "offset": [1, -2.5]}):
        assert DomainSpec(id="t", kind="target", transform=transform,
                          sizes=SizeSpec(eval=5)).transform is transform


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
    (tmp_path / "manifest.json").mkdir()
    with pytest.raises(DataError, match="no manifest.json under"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("manifest,named", [
    ("{not json", "not valid JSON"),
    ("[]", "expected an object"),
    ("{}", "source: required key missing"),
    ('{"source": "s", "domains": "s,t", "feature_dim": 2}',
     'domains: expected a list, got "s,t"'),
    ('{"source": "s", "domains": ["s", "../t"], "feature_dim": 2}',
     "domains[1]: domain id '../t' must be a non-empty string"),
    ('{"source": "s", "domains": ["s", ""], "feature_dim": 2}',
     "domains[1]: domain id '' must be a non-empty string"),
    ('{"source": "s", "domains": ["s", "t"], "feature_dim": "2"}',
     'feature_dim: expected an integer, got "2"'),
    ('{"source": "s", "domains": ["s", "t"], "feature_dim": 0}',
     "feature_dim: must be >= 1, got 0"),
    ('{"source": "s", "domains": ["s", "t", "t"], "feature_dim": 2}',
     "domains[2]: domain 't' is listed twice"),
    ('{"source": "s", "domains": ["s", "a,b"], "feature_dim": 2}',
     "domains[1]: domain id 'a,b' must be"),
    ('{"source": "s", "domains": ["s", "a\\"b"], "feature_dim": 2}',
     "domains[1]: domain id 'a\"b' must be"),
    ('{"source": "s", "domains": ["s", "a\\nb"], "feature_dim": 2}',
     "domains[1]: domain id 'a\\nb' must be"),
    ('{"source": "s", "domains": ["s", "a\\u0000b"], "feature_dim": 2}',
     "domains[1]: domain id 'a\\x00b' must be"),
    ('{"source": "s", "domains": ["s", "t"], "feature_dim": 2, "feature_dims": 2}',
     "feature_dims: unknown key"),
], ids=["not_json", "not_object", "empty_object", "domains_string", "id_climbs_out",
        "empty_id", "dim_string", "dim_zero", "domain_twice", "id_with_comma", "id_with_quote",
        "id_with_newline", "id_with_nul", "unknown_key"])
def test_bad_manifest_is_a_data_error_naming_it(tmp_path, manifest, named):
    with pytest.raises(DataError, match="manifest.json: " + re.escape(named)):
        _write_and_load(tmp_path, "manifest.json", manifest)


@pytest.mark.parametrize("bad_id", ["", "../escape", "a/b", "a\\b", "a,b", 'say "hi"', "a\nb",
                                    "a\rb", "a\0b"])
def test_domain_id_must_be_a_plain_file_name(bad_id):
    with pytest.raises(ConfigError, match="domain id") as exc:
        DomainSpec(id=bad_id, kind="target", transform={"kind": "identity"},
                   sizes=SizeSpec(eval=1))
    assert exc.value.key == "id"


def test_missing_split_file(tmp_path):
    ds = two_domain()
    save_dataset(ds, tmp_path)
    (tmp_path / "t.unlabeled.csv").unlink()
    with pytest.raises(DataError, match="t.unlabeled.csv"):
        load_dataset(tmp_path)
    (tmp_path / "t.unlabeled.csv").mkdir()  # a directory is no split file either
    with pytest.raises(DataError, match="missing split file .*t.unlabeled.csv"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("bad_id", ["../escape", "a,b", 'say "hi"', "a\nb", "a\0b"])
def test_save_dataset_rejects_a_bad_domain_id_before_writing_any_file(tmp_path, bad_id):
    ds = _dataset_of(np.array([[0.5, -1.5], [2.0, 3.0]]), source="s", target=bad_id)
    with pytest.raises(DataError, match=re.escape(f"domain id {bad_id!r} must be")):
        save_dataset(ds, tmp_path / "o" / "x")
    assert list(tmp_path.iterdir()) == []


def _three_column_fewshot(ds):
    X = np.array([[0.5, -1.5, 1.0], [2.0, 3.0, 4.0]])
    t = ds.domains["t"]
    wide = DomainSplits(labeled=t.labeled, unlabeled=t.unlabeled,
                        fewshot=Rows(X, np.array([0, 1])), eval=t.eval)
    return DomainDataset(source=ds.source, domains={"s": ds.domains["s"], "t": wide})


@pytest.mark.parametrize("spoil,named", [
    (lambda ds: DomainDataset(source="x", domains=ds.domains),
     "source domain 'x' missing from dataset"),
    (_three_column_fewshot, "domain 't' split fewshot has 3 feature columns, expected 2"),
], ids=["source_not_a_domain", "three_column_split"])
def test_save_dataset_rejects_an_invalid_dataset_before_writing_any_file(tmp_path, spoil,
                                                                         named):
    ds = spoil(_dataset_of(np.array([[0.5, -1.5], [2.0, 3.0]])))
    with pytest.raises(DataError, match=re.escape(named)):
        save_dataset(ds, tmp_path / "o" / "x")
    assert list(tmp_path.iterdir()) == []


# --- reading some of the splits ------------------------------------------------


def _split_blocks(ds, dom):
    parts = ds.domains[dom]
    return {"labeled": (parts.labeled.X, parts.labeled.y), "unlabeled": (parts.unlabeled, None),
            "fewshot": (parts.fewshot.X, parts.fewshot.y), "eval": (parts.eval.X, parts.eval.y)}


@pytest.mark.parametrize("splits", [("eval",), ("labeled", "eval"), ("eval", "unlabeled"),
                                    ("fewshot", "labeled", "unlabeled", "eval")])
def test_load_named_splits_only(tmp_path, splits):
    save_dataset(two_domain(), tmp_path)
    full = load_dataset(tmp_path)
    for dom in full.domains:
        for split in set(ditto.data.SPLITS) - set(splits):
            (tmp_path / f"{dom}.{split}.csv").unlink()  # a split not named is never opened
    part = load_dataset(tmp_path, splits=splits)
    assert part.source == full.source and list(part.domains) == list(full.domains)
    for dom in full.domains:
        want, got = _split_blocks(full, dom), _split_blocks(part, dom)
        for split, (X, y) in got.items():
            assert X.dtype == np.float64 and X.flags["C_CONTIGUOUS"]
            if split in splits:  # bit for bit what a full load reads
                assert X.shape == want[split][0].shape and X.tobytes() == want[split][0].tobytes()
                assert y is None if split == "unlabeled" else y.tobytes() == want[split][1].tobytes()
            else:  # an empty block of the manifest's width, never None
                assert X.shape == (0, 2)
                assert y is None if split == "unlabeled" else (y.dtype, y.shape) == (np.int64, (0,))


@pytest.mark.parametrize("splits,named", [
    ((), "splits must name one or more"),
    ("eval", "splits must name one or more"),
    (("eval", "eval"), "splits names 'eval' twice"),
    (("eval", "test"), "unknown split 'test'"),
], ids=["empty", "a_string", "repeated", "unknown"])
def test_load_rejects_bad_splits(tmp_path, splits, named):
    save_dataset(two_domain(), tmp_path)
    with pytest.raises(ParameterError, match=re.escape(named)):
        load_dataset(tmp_path, splits=splits)


def test_partial_load_keeps_the_manifest_checks(tmp_path):
    save_dataset(two_domain(), tmp_path)
    (tmp_path / "manifest.json").write_text(
        '{"source": "x", "domains": ["s", "t"], "feature_dim": 2}')
    with pytest.raises(DataError, match="source domain 'x' missing from dataset"):
        load_dataset(tmp_path, splits=("eval",))


def test_eval_only_dataset_fails_training_validation(tmp_path):
    save_dataset(two_domain(), tmp_path)
    ds = load_dataset(tmp_path, splits=("eval",))
    with pytest.raises(DataError, match="source domain 's' has no labeled rows"):
        ds.validate()
    cfg = TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[4]), num_classes=3,
                      epochs=1)
    with pytest.raises(DataError, match="source domain 's' has no labeled rows"):
        train(cfg, ds, TrainVariant.parse("baseline"), 0)


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


# each error kind: the file it spoils, a row with that fault, and the message
GOOD_ROW = {"s.labeled.csv": "s,labeled,0,1.0,2.0", "t.unlabeled.csv": "t,unlabeled,,1.0,2.0"}
BAD_ROWS = {
    "columns": ("s.labeled.csv", "s,labeled,1,3.0", "expected 5 columns, got 4"),
    "blank_line": ("s.labeled.csv", "", "expected 5 columns, got 0"),
    "domain": ("s.labeled.csv", "OTHER,labeled,0,1.0,2.0",
               "domain 'OTHER' does not match file domain 's'"),
    "split": ("s.labeled.csv", "s,fewshot,0,1.0,2.0",
              "split 'fewshot' does not match file split 'labeled'"),
    "missing_label": ("s.labeled.csv", "s,labeled,,1.0,2.0", "missing label in labeled split"),
    "label_not_int": ("s.labeled.csv", "s,labeled,1.5,1.0,2.0", "label '1.5' is not an integer"),
    "negative_label": ("s.labeled.csv", "s,labeled,-1,1.0,2.0", "label must be >= 0"),
    "label_beyond_int64": ("s.labeled.csv", "s,labeled,9223372036854775808,1.0,2.0",
                           "label '9223372036854775808' does not fit in int64"),
    "label_in_unlabeled": ("t.unlabeled.csv", "t,unlabeled,1,1.0,2.0",
                           "unlabeled rows must have an empty label, got '1'"),
    "non_numeric": ("s.labeled.csv", "s,labeled,0,1.0,abc", "non-numeric feature value"),
    "non_finite": ("s.labeled.csv", "s,labeled,0,nan,-inf", "non-finite feature value"),
    "field_too_large": ("s.labeled.csv", "s,labeled,0," + "1" * 140_000 + ",2.0",
                        "field larger than field limit (131072)"),
}


# (first bad line, second bad line): near the start of the file, at lines
# 513 and 514, and both deep into the file; line 2 is the first row
BLOCK = 512
BAD_LINES = {"first_block": (2, 5), "block_boundary": (BLOCK + 1, BLOCK + 2),
             "later_block": (2 * BLOCK + 90, 2 * BLOCK + 91)}


@pytest.mark.parametrize("where", list(BAD_LINES))
@pytest.mark.parametrize("kind", list(BAD_ROWS))
def test_parse_error_names_the_first_of_two_bad_lines(tmp_path, kind, where):
    # the second bad line fails a check that runs earlier in a row, so a
    # parser that checked whole columns in turn would name it instead
    filename, bad, message = BAD_ROWS[kind]
    lines = BAD_LINES[where]
    later = "s,labeled,0" if kind != "columns" else "OTHER,labeled,0,1.0,2.0"
    if filename == "t.unlabeled.csv":
        later = "t,unlabeled,,1.0"
    rows = [GOOD_ROW[filename]] * (3 * BLOCK)
    rows[lines[0] - 2], rows[lines[1] - 2] = bad, later
    content = "domain,split,label,f0,f1\n" + "\n".join(rows) + "\n"
    with pytest.raises(ParseError) as exc:
        _write_and_load(tmp_path, filename, content)
    assert str(exc.value) == f"{tmp_path / filename}:{lines[0]}: {message}"


# files only the csv module's or the text decoder's error can name: a CRLF file
# with a field past csv's limit, and a byte that is not UTF-8 in a domain cell
UNREADABLE = {
    "field_too_large_crlf": ("s.eval.csv", b"domain,split,label,f0,f1\r\ns,eval,0,"
                             + b"1" * 140_000 + b",2.0\r\n",
                             r":2: field larger than field limit \(131072\)"),
    "undecodable_domain": ("t.labeled.csv", b"domain,split,label,f0,f1\nt\xe9,labeled,0,1.0,2.0\n",
                           r": cannot decode b'\\xe9' as [-\w]+ \(invalid continuation byte\)$"),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_split_file_is_a_parse_error_naming_it(tmp_path, case):
    filename, data, message = UNREADABLE[case]
    save_dataset(two_domain(), tmp_path)
    (tmp_path / filename).write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert re.match(re.escape(str(tmp_path / filename)) + message, str(exc.value))


# --- CSV format edge cases ---------------------------------------------------


def _dataset_of(X, source="s", target="t"):
    """Every split of both domains holds the rows X (labels 0, 1, 2, ...)."""
    y = np.arange(X.shape[0]) % 3
    splits = lambda: DomainSplits(labeled=Rows(X, y), unlabeled=X, fewshot=Rows(X, y),
                                  eval=Rows(X, y))
    return DomainDataset(source=source, domains={source: splits(), target: splits()})


def _assert_bit_identical(a, b):
    assert a.source == b.source and list(a.domains) == list(b.domains)
    for dom in a.domains:
        x, y = a.domains[dom], b.domains[dom]
        for u, v in ((x.labeled.X, y.labeled.X), (x.labeled.y, y.labeled.y),
                     (x.unlabeled, y.unlabeled), (x.fewshot.X, y.fewshot.X),
                     (x.fewshot.y, y.fewshot.y), (x.eval.X, y.eval.X), (x.eval.y, y.eval.y)):
            assert u.dtype == v.dtype and u.shape == v.shape
            assert v.flags["C_CONTIGUOUS"]
            assert u.tobytes() == v.tobytes()


def _float64_edges_dataset():
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.797e308, -1.797e308,
             np.finfo(np.float64).max, 0.1, -0.1, 1 / 3]
    bits = np.random.default_rng(0).integers(0, 2**64, size=4000, dtype=np.uint64)
    noise = bits.view(np.float64)
    values = np.concatenate([edges, noise[np.isfinite(noise)]])
    return _dataset_of(values[: values.size // 2 * 2].reshape(-1, 2))


def test_round_trip_is_bit_exact_at_the_edges_of_float64(tmp_path):
    ds = _float64_edges_dataset()
    save_dataset(ds, tmp_path)
    _assert_bit_identical(ds, load_dataset(tmp_path))


def test_quoted_field_is_rejected_naming_the_file(tmp_path):
    ds = _dataset_of(np.array([[0.5, -1.5], [2.0, 3.0]]))
    save_dataset(ds, tmp_path)
    path = tmp_path / "s.eval.csv"
    path.write_text(path.read_text().replace("s,eval,0,", '"s",eval,0,'))
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{path}: not in the form save_dataset writes"


def test_parse_error_names_the_physical_line_of_a_record(tmp_path):
    # the quoted feature of the second record spans lines 3-4, so the bad
    # third record is on line 5; without it the file is not in the form
    ds = _dataset_of(np.array([[0.5, -1.5], [2.0, 3.0], [1.0, 1.0]]))
    save_dataset(ds, tmp_path)
    path = tmp_path / "s.eval.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2]) + 's,eval,1,"2.0\n",3.0\n' + "s,eval,2,x,1.0\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{path}:5: non-numeric feature value"
    path.write_text("".join(lines[:2]) + 's,eval,1,"2.0\n",3.0\n')
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{path}: not in the form save_dataset writes"


def _header_only_dataset():
    """Target labeled and fewshot and source unlabeled splits with no rows."""
    ds = two_domain(sizes=SizeSpec(labeled=6, unlabeled=4, fewshot=3, eval=5))
    for split in ("labeled", "fewshot"):
        setattr(ds.domains["t"], split, Rows(np.empty((0, 2)), np.empty(0, np.int64)))
    ds.domains["s"].unlabeled = np.empty((0, 2))
    return ds


def test_header_only_splits_load_as_empty_arrays(tmp_path):
    ds = _header_only_dataset()
    save_dataset(ds, tmp_path)
    assert (tmp_path / "t.labeled.csv").read_text() == "domain,split,label,f0,f1\n"
    loaded = load_dataset(tmp_path)
    t = loaded.domains["t"]
    for X in (t.labeled.X, t.fewshot.X, loaded.domains["s"].unlabeled):
        assert X.shape == (0, 2) and X.dtype == np.float64
    for y in (t.labeled.y, t.fewshot.y):
        assert y.shape == (0,) and y.dtype == np.int64
    _assert_bit_identical(ds, loaded)


def test_crlf_files_are_rejected_naming_the_file(tmp_path):
    lf, crlf = tmp_path / "lf", tmp_path / "crlf"
    save_dataset(make_dataset(angles=(15,)), lf)
    crlf.mkdir()
    for f in lf.iterdir():
        data = f.read_bytes()
        if f.suffix == ".csv":
            assert b"\r" not in data
            data = data.replace(b"\n", b"\r\n")
        (crlf / f.name).write_bytes(data)
    load_dataset(lf)
    with pytest.raises(ParseError) as exc:
        load_dataset(crlf)
    assert str(exc.value) == f"{crlf / 'src.labeled.csv'}: not in the form save_dataset writes"


def _outcome(parse, path, domain, split, labeled):
    """What a split-file parser makes of a file: its arrays' dtype, shape,
    layout and bytes, or its ParseError's text."""
    try:
        X, y = parse(path, domain, split, 2, labeled)
    except ParseError as exc:
        return str(exc)
    arrays = (X,) if y is None else (X, y)
    return [(a.dtype, a.shape, a.flags["C_CONTIGUOUS"], a.tobytes()) for a in arrays]


@pytest.mark.parametrize("case", ["generated", "float64_edges", "header_only", "non_ascii_ids"])
def test_every_file_save_dataset_writes_takes_the_numpy_path(tmp_path, case):
    ds = {"generated": lambda: make_dataset(angles=(15, 30)),
          "float64_edges": _float64_edges_dataset, "header_only": _header_only_dataset,
          "non_ascii_ids": lambda: _dataset_of(np.array([[0.5, -1.5], [2.0, 3.0]]),
                                               source="espa\u00f1ol", target="\u65e5\u672c")}[case]()
    save_dataset(ds, tmp_path)
    for dom in ds.domains:
        for split, (X, y) in _split_blocks(ds, dom).items():
            path = tmp_path / f"{dom}.{split}.csv"
            labeled = split != "unlabeled"
            parsed = ditto.data._parse_saved_form(path.read_bytes(), dom, split, 2, labeled)
            assert parsed is not None, path.name
            assert _outcome(lambda *args: parsed, path, dom, split, labeled) == \
                _outcome(lambda *args: (X, y), path, dom, split, labeled)


def test_loading_a_generated_ladder_never_walks_the_csv_records(tmp_path, monkeypatch):
    ds = make_dataset(angles=(15, 30, 45, 60))
    save_dataset(ds, tmp_path)

    def refuse(*args):
        raise AssertionError("csv_records called on a file save_dataset wrote")

    monkeypatch.setattr(ditto.data, "csv_records", refuse)
    _assert_bit_identical(ds, load_dataset(tmp_path))


# a split file's body below the header, and what loading it gives: the
# rows (X, y) it loads, or its ParseError's text
NOT_IN_FORM = "{path}: not in the form save_dataset writes"
GOOD_LINE = "s,labeled,0,1.0,2.0\n"
PATH_CORPUS = {
    "quoted_comma_id": ("a,b", "eval", '"a,b",eval,0,0.5,1.5\n', NOT_IN_FORM),
    "quoted_quote_id": ('say "hi"', "unlabeled", '"say ""hi""",unlabeled,,0.5,1.5\n',
                        NOT_IN_FORM),
    "unquoted_comma_id": ("a,b", "eval", "a,b,eval,0,0.5,1.5\n",
                          "{path}:2: expected 5 columns, got 6"),
    "non_ascii_id": ("espa\u00f1ol", "eval", "espa\u00f1ol,eval,0,0.5,1.5\n", ([[0.5, 1.5]], [0])),
    "id_with_space_and_hash": ("a b#", "eval", "a b#,eval,0,0.5,1.5\n", ([[0.5, 1.5]], [0])),
    "crlf": ("s", "labeled", GOOD_LINE.replace("\n", "\r\n") * 2, NOT_IN_FORM),
    "no_final_newline": ("s", "labeled", GOOD_LINE + GOOD_LINE.rstrip("\n"), NOT_IN_FORM),
    "blank_line": ("s", "labeled", GOOD_LINE + "\n" + GOOD_LINE,
                   "{path}:3: expected 5 columns, got 0"),
    "extra_column": ("s", "labeled", GOOD_LINE + "s,labeled,0,1.0,2.0,3.0\n",
                     "{path}:3: expected 5 columns, got 6"),
    # the commas add up to two rows' worth
    "short_then_long_row": ("s", "labeled", "s,labeled,0,1.0\ns,labeled,0,1.0,2.0,3.0\n",
                            "{path}:2: expected 5 columns, got 4"),
    "header_only": ("s", "labeled", "", ([], [])),
}


def _not_int(number):
    return f"{{path}}:3: label {number!r} is not an integer"


# a number: what loading it gives as a label, as a labeled row's feature and
# as an unlabeled row's feature (the value it loads as, or the error's text)
NUMBERS = {
    " 1.5": (_not_int(" 1.5"), NOT_IN_FORM, NOT_IN_FORM),
    "1_0": (NOT_IN_FORM, NOT_IN_FORM, NOT_IN_FORM),
    "\u0661": (NOT_IN_FORM, NOT_IN_FORM, NOT_IN_FORM),
    "+1": (1, 1.0, 1.0),
    "007": (7, 7.0, 7.0),
    "-0": (0, -0.0, -0.0),
    ".5": (_not_int(".5"), 0.5, 0.5),
    "5.": (_not_int("5."), 5.0, 5.0),
    "1e5": (_not_int("1e5"), 1e5, 1e5),
    "1E-5": (_not_int("1E-5"), 1e-5, 1e-5),
    "1e400": (_not_int("1e400"), "{path}:3: non-finite feature value",
              "{path}:2: non-finite feature value"),
    "nan": (_not_int("nan"), "{path}:3: non-finite feature value",
            "{path}:2: non-finite feature value"),
    "9223372036854775808": ("{path}:3: label '9223372036854775808' does not fit in int64",
                            9223372036854775808.0, 9223372036854775808.0),
}
for number, (label, feature, unlabeled) in NUMBERS.items():
    PATH_CORPUS[f"label {number!r}"] = (
        "s", "labeled", f"{GOOD_LINE}s,labeled,{number},1.0,2.0\n",
        label if isinstance(label, str) else ([[1.0, 2.0], [1.0, 2.0]], [0, label]))
    PATH_CORPUS[f"feature {number!r}"] = (
        "s", "labeled", f"{GOOD_LINE}s,labeled,1,{number},2.0\n",
        feature if isinstance(feature, str) else ([[1.0, 2.0], [feature, 2.0]], [0, 1]))
    PATH_CORPUS[f"unlabeled {number!r}"] = (
        "t", "unlabeled", f"t,unlabeled,,1.0,{number}\n",
        unlabeled if isinstance(unlabeled, str) else ([[1.0, unlabeled]], None))
# numpy 1.23-1.26 read an int field such as `5.` as a truncated float with
# only a DeprecationWarning; the label cases run with warnings as warnings,
# as outside this suite, so such a numpy would show a silent misread here
PATH_CASES = [pytest.param(case, marks=pytest.mark.filterwarnings("default"))
              if case.startswith("label ") else case for case in PATH_CORPUS]


@pytest.mark.parametrize("case", PATH_CASES)
def test_split_file_loads_or_fails_as_pinned(tmp_path, case):
    domain, split, body, want = PATH_CORPUS[case]
    path = tmp_path / f"{domain}.{split}.csv"
    path.write_bytes(f"domain,split,label,f0,f1\n{body}".encode())
    labeled = split != "unlabeled"
    got = _outcome(ditto.data._parse_split_file, path, domain, split, labeled)
    if isinstance(want, str):
        assert got == want.format(path=path)
    else:
        X, y = want
        X = np.array(X, dtype=np.float64).reshape(-1, 2)
        assert _outcome(lambda *args: (X, y if y is None else np.array(y, dtype=np.int64)),
                        path, domain, split, labeled) == got


@pytest.mark.filterwarnings("default")
def test_split_file_whose_loadtxt_warns_is_rejected(tmp_path, monkeypatch):
    path = tmp_path / "s.labeled.csv"
    path.write_bytes(f"domain,split,label,f0,f1\n{GOOD_LINE}".encode())
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    assert ditto.data._parse_saved_form(path.read_bytes(), "s", "labeled", 2, True) is None
    with pytest.raises(ParseError) as exc:
        ditto.data._parse_split_file(path, "s", "labeled", 2, True)
    assert str(exc.value) == NOT_IN_FORM.format(path=path)


def _save_row_by_row(dataset, out):
    """Reference writer: one csv row per feature row, each value through repr."""
    dim = dataset.feature_dim
    for dom, splits in dataset.domains.items():
        for split, X, y in (("labeled", splits.labeled.X, splits.labeled.y),
                            ("unlabeled", splits.unlabeled, None),
                            ("fewshot", splits.fewshot.X, splits.fewshot.y),
                            ("eval", splits.eval.X, splits.eval.y)):
            with open(out / f"{dom}.{split}.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["domain", "split", "label"] + [f"f{i}" for i in range(dim)])
                for i in range(X.shape[0]):
                    label = "" if y is None else str(int(y[i]))
                    writer.writerow([dom, split, label] + [repr(float(v)) for v in X[i]])


@pytest.mark.parametrize("case", ["generated", "edges"])
def test_save_dataset_bytes_match_a_row_by_row_writer(tmp_path, case):
    if case == "generated":
        ds = make_dataset(angles=(15, 30))
    else:
        bits = np.random.default_rng(1).integers(0, 2**64, size=600, dtype=np.uint64)
        noise = bits.view(np.float64)
        X = np.concatenate([[0.0, -0.0, 5e-324, 1.797e308], noise[np.isfinite(noise)]])
        ds = _dataset_of(X[: X.size // 2 * 2].reshape(-1, 2), source="espa\u00f1ol")
    save_dataset(ds, tmp_path / "cols")
    (tmp_path / "rows").mkdir()
    _save_row_by_row(ds, tmp_path / "rows")
    written = sorted(f.name for f in (tmp_path / "cols").glob("*.csv"))
    assert written == sorted(f.name for f in (tmp_path / "rows").iterdir())
    for name in written:
        assert (tmp_path / "cols" / name).read_bytes() == (tmp_path / "rows" / name).read_bytes()


@pytest.mark.parametrize("split", ["labeled", "unlabeled", "fewshot", "eval"])
def test_non_finite_features_fail_validation(split):
    ds = make_dataset(angles=(15,), sizes=SizeSpec(labeled=12, unlabeled=12, fewshot=3,
                                                   eval=9))
    X = ds.domains["rot15"].unlabeled if split == "unlabeled" else \
        getattr(ds.domains["rot15"], split).X
    X[1, 0] = np.nan
    with pytest.raises(DataError, match=f"domain 'rot15' split {split} has a non-finite"):
        ds.validate()


def test_train_rejects_a_dataset_with_non_finite_features():
    ds = make_dataset(angles=(15,), sizes=SizeSpec(labeled=12, unlabeled=12, fewshot=3,
                                                   eval=9))
    ds.domains["src"].labeled.X[0, 1] = np.inf
    cfg = TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[4]), num_classes=3,
                      epochs=1)
    with pytest.raises(DataError, match="domain 'src' split labeled"):
        train(cfg, ds, TrainVariant.parse("baseline"), 0)


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


def test_only_the_data_module_imports_csv():
    # every CSV file goes through `write_csv` and `csv_records`, the one dialect
    importers = set()
    for path in Path(ditto.data.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = {node.module}
            else:
                continue
            if modules & {"csv", "_csv"}:
                importers.add(path.name)
    assert importers == {"data.py"}
