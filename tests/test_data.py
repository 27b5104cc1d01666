"""Synthetic data generation, the `.npy` dataset files, and their failure modes."""

import ast
import re
import struct
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
from ditto.errors import ConfigError, DataError, ParameterError

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



def test_misfit_is_none_for_a_model_that_fits():
    assert two_domain().misfit(input_dim=2, num_classes=3) is None


def test_misfit_of_the_feature_width_names_no_split_file():
    assert two_domain().misfit(input_dim=3, num_classes=3) == (
        "input_dim", "3 does not match the dataset's 2 feature columns", None)


@pytest.mark.parametrize("dom,split", [("s", "labeled"), ("s", "fewshot"), ("s", "eval"),
                                       ("t", "labeled"), ("t", "fewshot")])
def test_misfit_names_the_split_file_holding_a_label_past_num_classes(dom, split):
    ds = two_domain()
    getattr(ds.domains[dom], split).y[3] = 7
    assert ds.misfit(input_dim=2, num_classes=3) == (
        "num_classes", f"3 is too few for label 7 of domain {dom!r} split {split}",
        f"{dom}.{split}.npy")

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


# --- round trip ----------------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path):
    ds = two_domain()
    save_dataset(ds, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "s.labeled.npy").exists()
    assert (tmp_path / "t.unlabeled.npy").exists()

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


def test_split_files_hold_one_structured_row_per_element(tmp_path):
    ds = two_domain()
    save_dataset(ds, tmp_path)
    unlabeled = np.load(tmp_path / "t.unlabeled.npy", allow_pickle=False)
    assert unlabeled.dtype.descr == [("x", "<f8", (2,))] and unlabeled.shape == (45,)
    assert unlabeled["x"].tobytes() == ds.domains["t"].unlabeled.tobytes()
    labeled = np.load(tmp_path / "s.labeled.npy", allow_pickle=False)
    assert labeled.dtype.descr == [("label", "<i8"), ("x", "<f8", (2,))]
    assert labeled["label"].tobytes() == ds.domains["s"].labeled.y.tobytes()


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
    files = sorted(f.name for f in d1.iterdir())
    assert files == sorted(f.name for f in d2.iterdir())
    assert files == ["manifest.json"] + sorted(f"{dom}.{split}.npy" for dom in "st"
                                               for split in ditto.data.SPLITS)
    for name in files:
        assert (d2 / name).read_bytes() == (d1 / name).read_bytes(), name


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
     "domains[2]: 't' is listed twice"),
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
    (tmp_path / "t.unlabeled.npy").unlink()
    with pytest.raises(DataError, match=r"t\.unlabeled\.npy"):
        load_dataset(tmp_path)
    (tmp_path / "t.unlabeled.npy").mkdir()  # a directory is no split file either
    with pytest.raises(DataError, match=r"missing split file .*t\.unlabeled\.npy"):
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
            (tmp_path / f"{dom}.{split}.npy").unlink()  # a split not named is never opened
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
        train(cfg, ds, TrainVariant.parse("baseline", 0.0, 0.0), 0)


# --- split file faults ---------------------------------------------------------


LABELED = [("label", "<i8"), ("x", "<f8", (2,))]


def _resave(path, dtype=None, change=None):
    """Write the rows of the split file at `path` again: as `dtype` (each
    field of the same name and shape copied, any other zero), or with
    `change` applied to them."""
    rows = np.load(path, allow_pickle=False)
    if dtype is not None:
        cast = np.zeros(rows.shape, dtype)
        for name in set(cast.dtype.names) & set(rows.dtype.names):
            if cast[name].shape == rows[name].shape:
                cast[name] = rows[name]
        rows = cast
    if change is not None:
        change(rows)
    np.save(path, rows, allow_pickle=False)


def _rewrite_header(path, shape=None, writer=np.lib.format.write_array_header_1_0):
    """Write the rows of the split file at `path` again under a header that
    `writer` writes, claiming `shape` (their own by default)."""
    rows = np.load(path, allow_pickle=False)
    header = np.lib.format.header_data_from_array_1_0(rows)
    header["shape"] = rows.shape if shape is None else shape
    with open(path, "wb") as fh:
        writer(fh, header)
        fh.write(rows.tobytes())


MAGIC_1_0 = b"\x93NUMPY\x01\x00"
LABELED_HEADER = "{'descr': %s, 'fortran_order': False, 'shape': (30,), }" % LABELED


def _header_text(text, version=b"\x01\x00"):
    """A spoiler writing the rows of a split file again after a header of
    format `version` holding `text`."""
    def spoil(path):
        body = np.load(path, allow_pickle=False).tobytes()
        head = text.encode("latin-1")
        path.write_bytes(MAGIC_1_0[:6] + version + struct.pack("<H", len(head)) + head + body)
    return spoil


def _keep(n):
    """A spoiler keeping the first `n` bytes of a split file (n < 0: all but
    the last -n)."""
    return lambda path: path.write_bytes(path.read_bytes()[:n])


def _save_npz(path):
    with open(path, "wb") as fh:  # np.savez would add `.npz` to a path
        np.savez(fh, rows=np.zeros(2, LABELED))


def _save_pickled(path):
    with open(path, "wb") as fh:
        np.save(fh, np.array([{"x": [1.0, 2.0]}], dtype=object), allow_pickle=True)


def _set(field, value):
    return lambda rows: rows[field].__setitem__(0, value)


NOT_NPY = ("{path}: not a .npy split file (the magic string is not correct; "
           "expected b'\\x93NUMPY', got {head!r})")


def _holds(descr, expected=LABELED):
    return f"{{path}}: holds {descr} rows, expected {expected}"


def _not_npy(why):
    return f"{{path}}: not a .npy split file ({why})"


def _header_claims(rows, follow):
    return f"{{path}}: header claims {rows} rows of 24 bytes, but {follow} bytes follow it"


def _non_finite(split):
    return f"{{path.parent}}: domain {{domain!r}} split {split} has a non-finite feature value"


def _bad_labels(low):
    return f"{{path}}: labels must be >= 0 and fit in int64, got {low}..2"


PADDED = np.dtype({"names": ["label", "x"], "formats": ["<i8", ("<f8", (2,))],
                   "offsets": [0, 16], "itemsize": 32})
TITLED = np.dtype([(("t", "label"), "<i8"), ("x", "<f8", (2,))])


# a fault of a split file: the split whose file it spoils (in `two_domain`,
# 30 eval and 45 unlabeled rows of 2 features), how, and the error loading
# it raises, pinned whole ({head} is the file's first 6 bytes)
SPLIT_FAULTS = {
    "truncated": ("eval", lambda p: p.write_bytes(p.read_bytes()[:-1]), DataError,
                  "{path}: header claims 30 rows of 24 bytes, but 719 bytes follow it"),
    "bytes_past_the_rows": ("eval", lambda p: p.write_bytes(p.read_bytes() + b"\0"),
                            DataError,
                            "{path}: header claims 30 rows of 24 bytes, but 721 bytes follow it"),
    "text_file": ("eval", lambda p: p.write_text("domain,split,label,f0,f1\n"), DataError,
                  NOT_NPY),
    "npz_archive": ("eval", _save_npz, DataError, NOT_NPY),
    "format_version_2": ("eval", lambda p: _rewrite_header(
                             p, writer=np.lib.format.write_array_header_2_0), DataError,
                         "{path}: not a .npy split file (format version 2.0, not 1.0)"),
    "pickled_object_array": ("eval", _save_pickled, DataError, _holds([("", "|O")])),
    "claims_10**12_rows": ("eval", lambda p: _rewrite_header(p, (10**12,)), DataError,
                           "{path}: header claims 1000000000000 rows of 24 bytes, but 720 "
                           "bytes follow it"),
    "x_float32": ("eval", lambda p: _resave(p, [("label", "<i8"), ("x", "<f4", (2,))]),
                  DataError, _holds([("label", "<i8"), ("x", "<f4", (2,))])),
    "label_int32": ("eval", lambda p: _resave(p, [("label", "<i4"), ("x", "<f8", (2,))]),
                    DataError, _holds([("label", "<i4"), ("x", "<f8", (2,))])),
    "big_endian": ("eval", lambda p: _resave(p, [("label", ">i8"), ("x", ">f8", (2,))]),
                   DataError, _holds([("label", ">i8"), ("x", ">f8", (2,))])),
    "labeled_without_label": ("eval", lambda p: _resave(p, [("x", "<f8", (2,))]),
                              DataError, _holds([("x", "<f8", (2,))])),
    "unlabeled_with_label": ("unlabeled", lambda p: _resave(p, LABELED), DataError,
                             _holds(LABELED, [("x", "<f8", (2,))])),
    "wrong_width": ("eval", lambda p: _resave(p, [("label", "<i8"), ("x", "<f8", (3,))]),
                    DataError, _holds([("label", "<i8"), ("x", "<f8", (3,))])),
    "two_dimensional": ("eval", lambda p: _rewrite_header(p, (15, 2)), DataError,
                        "{path}: holds an array of shape (15, 2), expected one dimension"),
    "nan_feature": ("eval", lambda p: _resave(p, change=_set("x", np.nan)), DataError,
                    _non_finite("eval")),
    "negative_label": ("eval", lambda p: _resave(p, change=_set("label", -1)), DataError,
                       _bad_labels(-1)),
    # the magic string, the format version and the header's Python literal
    "empty_file": ("eval", _keep(0), DataError,
                   _not_npy("EOF: reading magic string, expected 8 bytes got 0")),
    "shorter_than_the_magic": ("eval", _keep(4), DataError,
                               _not_npy("EOF: reading magic string, expected 8 bytes got 4")),
    "magic_only": ("eval", _keep(8), DataError,
                   _not_npy("EOF: reading array header length, expected 2 bytes got 0")),
    "format_version_1_1": ("eval", _header_text(LABELED_HEADER, b"\x01\x01"), DataError,
                           _not_npy("format version 1.1, not 1.0")),
    "format_version_3": ("eval", _header_text(LABELED_HEADER, b"\x03\x00"), DataError,
                         _not_npy("format version 3.0, not 1.0")),
    "header_past_the_end": ("eval", lambda p: p.write_bytes(
                                MAGIC_1_0 + struct.pack("<H", 500) + b"{"), DataError,
                            _not_npy("EOF: reading array header, expected 500 bytes got 1")),
    "header_not_a_dict": ("eval", _header_text("[1, 2]"), DataError,
                          _not_npy("Header is not a dictionary: [1, 2]")),
    "header_missing_a_key": ("eval", _header_text("{'descr': %s, 'shape': (30,)}" % LABELED),
                             DataError, _not_npy("Header does not contain the correct keys: "
                                                  "['descr', 'shape']")),
    "header_extra_key": ("eval", _header_text(LABELED_HEADER[:-1] + "'rows': 30}"), DataError,
                         _not_npy("Header does not contain the correct keys: "
                                  "['descr', 'fortran_order', 'rows', 'shape']")),
    "shape_not_a_tuple": ("eval", _header_text(LABELED_HEADER.replace("(30,)", "30")),
                          DataError, _not_npy("shape is not valid: 30")),
    "shape_of_floats": ("eval", _header_text(LABELED_HEADER.replace("(30,)", "(30.0,)")),
                        DataError, _not_npy("shape is not valid: (30.0,)")),
    "fortran_order_not_a_bool": ("eval", _header_text(LABELED_HEADER.replace("False", "0")),
                                 DataError, _not_npy("fortran_order is not a valid bool: 0")),
    "descr_not_a_dtype": ("eval", _header_text(LABELED_HEADER.replace(str(LABELED), "'<f99'")),
                          DataError, _not_npy("descr is not a valid dtype descriptor: '<f99'")),
    "descr_repeats_a_field": ("eval", _header_text(LABELED_HEADER.replace(
                                  str(LABELED), "[('x', '<f8'), ('x', '<f8')]")), DataError,
                              _not_npy("name already used as a name or title")),
    "header_too_large": ("eval", _header_text(LABELED_HEADER + " " * 10_000), DataError,
                         _not_npy("Header info length (10091) is large and may not be safe to "
                                  "load securely.")),
    "header_unparsable": ("eval", _header_text("{'descr': }"), DataError,
                          _not_npy("Cannot parse header: \"{{'descr': }}\"")),
    # numpy reads these only by way of an exception it does not wrap, or a warning
    "python2_header": ("eval", _header_text(LABELED_HEADER.replace("(30,)", "(30L,)")),
                       DataError, _not_npy("Reading `.npy` or `.npz` file required additional "
                                            "header parsing as it was created on Python 2. "
                                            "Save the file again to speed up loading and avoid "
                                            "this warning.")),
    "header_unclosed_bracket": ("eval", _header_text("{'descr': ["), DataError,
                                _not_npy("('EOF in multi-line statement', (2, 0))")),
    "header_bytes_key": ("eval", _header_text(LABELED_HEADER.replace("'fortran_order'",
                                                                     "b'fortran_order'")),
                         DataError, _not_npy("'<' not supported between instances of 'bytes' "
                                              "and 'str'")),
    "header_deeply_nested": ("eval", _header_text("-" * 5000 + "1"), DataError,
                             _not_npy("maximum recursion depth exceeded during ast "
                                      "construction")),
    # the row type
    "x_big_endian": ("eval", lambda p: _resave(p, [("label", "<i8"), ("x", ">f8", (2,))]),
                     DataError, _holds([("label", "<i8"), ("x", ">f8", (2,))])),
    "label_uint64": ("eval", lambda p: _resave(p, [("label", "<u8"), ("x", "<f8", (2,))]),
                     DataError, _holds([("label", "<u8"), ("x", "<f8", (2,))])),
    "label_float64": ("eval", lambda p: _resave(p, [("label", "<f8"), ("x", "<f8", (2,))]),
                      DataError, _holds([("label", "<f8"), ("x", "<f8", (2,))])),
    "x_int64": ("eval", lambda p: _resave(p, [("label", "<i8"), ("x", "<i8", (2,))]),
                DataError, _holds([("label", "<i8"), ("x", "<i8", (2,))])),
    "fields_reordered": ("eval", lambda p: _resave(p, [("x", "<f8", (2,)), ("label", "<i8")]),
                         DataError, _holds([("x", "<f8", (2,)), ("label", "<i8")])),
    "extra_field": ("eval", lambda p: _resave(p, LABELED + [("weight", "<f8")]), DataError,
                    _holds(LABELED + [("weight", "<f8")])),
    "fields_renamed": ("eval", lambda p: _resave(p, [("y", "<i8"), ("X", "<f8", (2,))]),
                       DataError, _holds([("y", "<i8"), ("X", "<f8", (2,))])),
    "narrow_width": ("eval", lambda p: _resave(p, [("label", "<i8"), ("x", "<f8", (1,))]),
                     DataError, _holds([("label", "<i8"), ("x", "<f8", (1,))])),
    "padded_rows": ("eval", lambda p: _resave(p, PADDED), DataError,
                    _holds([("label", "<i8"), ("", "|V8"), ("x", "<f8", (2,))])),
    "field_with_a_title": ("eval", lambda p: _resave(p, TITLED), DataError,
                           _holds([(("t", "label"), "<i8"), ("x", "<f8", (2,))])),
    "plain_feature_matrix": ("eval", lambda p: np.save(p, np.load(p)["x"]), DataError,
                             _holds([("", "<f8")])),
    "unlabeled_plain_matrix": ("unlabeled", lambda p: np.save(p, np.load(p)["x"]), DataError,
                               _holds([("", "<f8")], [("x", "<f8", (2,))])),
    # the shape against the bytes after the header
    "zero_dimensional": ("eval", lambda p: _rewrite_header(p, ()), DataError,
                         "{path}: holds an array of shape (), expected one dimension"),
    "three_dimensional": ("eval", lambda p: _rewrite_header(p, (5, 3, 2)), DataError,
                          "{path}: holds an array of shape (5, 3, 2), expected one dimension"),
    "a_row_short": ("eval", _keep(-24), DataError, _header_claims(30, 696)),
    "a_row_past_the_rows": ("eval", lambda p: p.write_bytes(p.read_bytes() + bytes(24)),
                            DataError, _header_claims(30, 744)),
    "header_without_rows": ("eval", _keep(-720), DataError, _header_claims(30, 0)),
    "claims_no_rows": ("eval", lambda p: _rewrite_header(p, (0,)), DataError,
                       _header_claims(0, 720)),
    "claims_minus_one_row": ("eval", lambda p: _rewrite_header(p, (-1,)), DataError,
                             _header_claims(-1, 720)),
    # the values, which `Rows` and `validate` check once the rows are read
    "inf_feature": ("eval", lambda p: _resave(p, change=_set("x", np.inf)), DataError,
                    _non_finite("eval")),
    "minus_inf_feature": ("eval", lambda p: _resave(p, change=_set("x", -np.inf)), DataError,
                          _non_finite("eval")),
    "nan_labeled_feature": ("labeled", lambda p: _resave(p, change=_set("x", np.nan)),
                            DataError, _non_finite("labeled")),
    "nan_unlabeled_feature": ("unlabeled", lambda p: _resave(p, change=_set("x", np.nan)),
                              DataError, _non_finite("unlabeled")),
    "nan_fewshot_feature": ("fewshot", lambda p: _resave(p, change=_set("x", np.nan)),
                            DataError, _non_finite("fewshot")),
    "negative_labeled_label": ("labeled", lambda p: _resave(p, change=_set("label", -1)),
                               DataError, _bad_labels(-1)),
    "negative_fewshot_label": ("fewshot", lambda p: _resave(p, change=_set("label", -1)),
                               DataError, _bad_labels(-1)),
    "int64_min_label": ("eval", lambda p: _resave(p, change=_set("label", -2**63)), DataError,
                        _bad_labels(-2**63)),
}


def spoil_split_file(data_dir, domain, case):
    """Apply the fault `case` of SPLIT_FAULTS to a split file of `domain` in
    `data_dir`; returns (the error type, the message) loading it raises."""
    split, spoil, error, message = SPLIT_FAULTS[case]
    path = data_dir / f"{domain}.{split}.npy"
    spoil(path)
    return error, message.format(path=path, domain=domain, head=path.read_bytes()[:6])


@pytest.mark.parametrize("case", list(SPLIT_FAULTS))
def test_split_file_fault_is_one_pinned_error(tmp_path, case):
    save_dataset(two_domain(), tmp_path)
    error, message = spoil_split_file(tmp_path, "s", case)
    with pytest.raises(error) as exc:
        load_dataset(tmp_path)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("case", list(SPLIT_FAULTS))
def test_eval_only_load_meets_a_split_file_fault_only_in_an_eval_file(tmp_path, case):
    save_dataset(two_domain(), tmp_path)
    error, message = spoil_split_file(tmp_path, "s", case)
    if SPLIT_FAULTS[case][0] != "eval":  # the spoiled file is never opened
        assert load_dataset(tmp_path, splits=("eval",)).domains["s"].eval.X.shape == (30, 2)
        return
    with pytest.raises(error) as exc:
        load_dataset(tmp_path, splits=("eval",))
    assert type(exc.value) is error and str(exc.value) == message


# a header numpy's reader takes as it takes np.save's own, and its text
SAME_HEADERS = {
    "keys_reordered": "{'shape': (30,), 'fortran_order': False, 'descr': %s}" % LABELED,
    "no_padding": LABELED_HEADER.replace(", }", "}"),
    "fortran_order_of_one_dimension": LABELED_HEADER.replace("False", "True"),
    "spaces_in_the_shape": LABELED_HEADER.replace("(30,)", "( 30 , )"),
    "padded_to_16_bytes": LABELED_HEADER + " " * 3 + "\n",
}


@pytest.mark.parametrize("case", list(SAME_HEADERS))
def test_a_header_numpy_reads_alike_loads_the_same_rows(tmp_path, case):
    save_dataset(two_domain(), tmp_path)
    want = load_dataset(tmp_path)
    _header_text(SAME_HEADERS[case])(tmp_path / "s.eval.npy")
    _assert_bit_identical(want, load_dataset(tmp_path))


# --- edge values and empty splits ------------------------------------------------


def _dataset_of(X, source="s", target="t", y=None):
    """Every split of both domains holds the rows X, with the labels y
    (by default 0, 1, 2, 0, ...)."""
    y = np.arange(X.shape[0]) % 3 if y is None else y
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
             1.7976931348623157e308, -1.7976931348623157e308, 0.1, -0.1, 1 / 3]
    bits = np.random.default_rng(0).integers(0, 2**64, size=4000, dtype=np.uint64)
    noise = bits.view(np.float64)
    values = np.concatenate([edges, noise[np.isfinite(noise)]])
    X = values[: values.size // 2 * 2].reshape(-1, 2)
    y = np.arange(X.shape[0]) % 3
    y[-1] = 2**63 - 1  # the largest label
    return _dataset_of(X, y=y)


def test_round_trip_is_bit_exact_at_the_edges_of_float64(tmp_path):
    ds = _float64_edges_dataset()
    save_dataset(ds, tmp_path)
    _assert_bit_identical(ds, load_dataset(tmp_path))


def _empty_splits_dataset(width=2):
    """Target labeled and fewshot and source unlabeled splits with no rows,
    `width` columns wide."""
    ds = two_domain(sizes=SizeSpec(labeled=6, unlabeled=4, fewshot=3, eval=5))
    for split in ("labeled", "fewshot"):
        setattr(ds.domains["t"], split, Rows(np.empty((0, width)), np.empty(0, np.int64)))
    ds.domains["s"].unlabeled = np.empty((0, width))
    return ds


@pytest.mark.parametrize("width", [2, 0, 5])
def test_empty_splits_load_as_zero_rows_of_the_dataset_width(tmp_path, width):
    ds = _empty_splits_dataset(width)
    save_dataset(ds, tmp_path)
    rows = np.load(tmp_path / "t.labeled.npy", allow_pickle=False)
    assert rows.shape == (0,) and rows.dtype.descr == LABELED
    loaded = load_dataset(tmp_path)
    t = loaded.domains["t"]
    for X in (t.labeled.X, t.fewshot.X, loaded.domains["s"].unlabeled):
        assert X.shape == (0, 2) and X.dtype == np.float64
    for y in (t.labeled.y, t.fewshot.y):
        assert y.shape == (0,) and y.dtype == np.int64
    _assert_bit_identical(_empty_splits_dataset(), loaded)


def _outcome(X, y):
    """What a split reader gives: its arrays' dtype, shape, layout and bytes."""
    return [(a.dtype, a.shape, a.flags["C_CONTIGUOUS"], a.tobytes())
            for a in ((X,) if y is None else (X, y))]


@pytest.mark.parametrize("case", ["generated", "float64_edges", "header_only", "non_ascii_ids"])
def test_every_file_save_dataset_writes_takes_the_numpy_path(tmp_path, case):
    ds = {"generated": lambda: make_dataset(angles=(15, 30)),
          "float64_edges": _float64_edges_dataset, "header_only": _empty_splits_dataset,
          "non_ascii_ids": lambda: _dataset_of(np.array([[0.5, -1.5], [2.0, 3.0]]),
                                               source="espa\u00f1ol", target="\u65e5\u672c")}[case]()
    save_dataset(ds, tmp_path)
    for dom in ds.domains:
        for split, (X, y) in _split_blocks(ds, dom).items():
            read = ditto.data._read_split(tmp_path / f"{dom}.{split}.npy", 2,
                                          split != "unlabeled")
            assert _outcome(*read) == _outcome(X, y), f"{dom}.{split}"


def test_loading_a_generated_ladder_never_walks_the_csv_records(tmp_path, monkeypatch):
    ds = make_dataset(angles=(15, 30, 45, 60))
    save_dataset(ds, tmp_path)

    def refuse(*args):
        raise AssertionError("csv_records called on a dataset directory")

    monkeypatch.setattr(ditto.data, "csv_records", refuse)
    _assert_bit_identical(ds, load_dataset(tmp_path))


def _save_row_by_row(dataset, out):
    """Reference writer: numpy's version 1.0 header, then each row's label
    and features packed little-endian, one row at a time."""
    dim = dataset.feature_dim
    for dom in dataset.domains:
        for split, (X, y) in _split_blocks(dataset, dom).items():
            descr = ([("label", "<i8")] if y is not None else []) + [("x", "<f8", (dim,))]
            with open(out / f"{dom}.{split}.npy", "wb") as fh:
                np.lib.format.write_array_header_1_0(
                    fh, {"descr": descr, "fortran_order": False, "shape": (X.shape[0],)})
                for i in range(X.shape[0]):
                    if y is not None:
                        fh.write(struct.pack("<q", int(y[i])))
                    fh.write(struct.pack(f"<{dim}d", *X[i].tolist()))


@pytest.mark.parametrize("case", ["generated", "edges"])
def test_save_dataset_bytes_match_a_row_by_row_writer(tmp_path, case):
    ds = make_dataset(angles=(15, 30)) if case == "generated" else _float64_edges_dataset()
    save_dataset(ds, tmp_path / "cols")
    (tmp_path / "rows").mkdir()
    _save_row_by_row(ds, tmp_path / "rows")
    written = sorted(f.name for f in (tmp_path / "cols").glob("*.npy"))
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
        train(cfg, ds, TrainVariant.parse("baseline", 0.0, 0.0), 0)


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
