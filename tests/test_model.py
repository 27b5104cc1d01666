import io
import json
import re

import numpy as np
import pytest

from ditto import EncoderSpec, Rng, Tape, backward, init_params, load_checkpoint, save_checkpoint
from ditto.analysis import linear_cka
from ditto.autodiff import (
    activation,
    affine,
    binary_cross_entropy,
    grad_reverse,
    sigmoid,
    softmax_cross_entropy,
)
from ditto.cli import main
from ditto.errors import ConfigError, DataError, NumericError, ParameterError, ShapeError
from ditto.model import (
    ARENA,
    DISC_HIDDEN,
    classify,
    discriminate,
    encode,
    extract_features,
    param_layout,
    predict_logits,
)

SPEC = EncoderSpec(input_dim=3, hidden_dims=[8, 5], activation="tanh")


def make_bundle(seed=0, targets=("t0", "t1")):
    return init_params(SPEC, num_classes=4, targets=list(targets), rng=Rng(seed))


def test_init_biases_zero_weights_bounded():
    bundle = make_bundle()
    for name in bundle.store.names():
        p = bundle.store[name]
        if name.endswith(".b"):
            assert np.all(p.value == 0.0), name
        else:
            fan_in, fan_out = p.value.shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(p.value) <= a), name


def test_init_deterministic_and_seed_sensitive():
    a, b, c = make_bundle(seed=5), make_bundle(seed=5), make_bundle(seed=6)
    for name in a.store.names():
        assert np.array_equal(a.store[name].value, b.store[name].value)
    assert not np.array_equal(a.store["encoder.layer0.W"].value,
                              c.store["encoder.layer0.W"].value)


def test_glorot_sample_std():
    # Uniform(-a, a) with a = sqrt(6/(fan_in+fan_out)) has standard deviation
    # a/sqrt(3) = sqrt(2/(fan_in+fan_out)); for a square 100x100 layer: 0.1
    spec = EncoderSpec(input_dim=100, hidden_dims=[100], activation="tanh")
    bundle = init_params(spec, num_classes=2, targets=0, rng=Rng(1))
    std = bundle.store["encoder.layer0.W"].value.std()
    assert abs(std - 0.1) / 0.1 < 0.10


def test_target_count_expands_to_ids():
    bundle = init_params(SPEC, num_classes=2, targets=3, rng=Rng(0))
    assert bundle.target_ids == ("t0", "t1", "t2")
    # one discriminator per target
    disc_names = [n for n in bundle.store.names() if n.startswith("disc.")]
    assert len(disc_names) == 3 * 4


def test_param_name_layout():
    bundle = make_bundle()
    assert bundle.task_param_names() == [
        "encoder.layer0.W", "encoder.layer0.b",
        "encoder.layer1.W", "encoder.layer1.b",
        "classifier.W", "classifier.b",
    ]
    assert bundle.disc_param_names("t1") == [
        "disc.t1.layer0.W", "disc.t1.layer0.b",
        "disc.t1.head.W", "disc.t1.head.b",
    ]
    with pytest.raises(KeyError):
        bundle.disc_param_names("nope")


def test_encoder_spec_validation():
    with pytest.raises(ConfigError):
        EncoderSpec(input_dim=0, hidden_dims=[4])
    with pytest.raises(ConfigError):
        EncoderSpec(input_dim=2, hidden_dims=[])
    with pytest.raises(ConfigError):
        EncoderSpec(input_dim=2, hidden_dims=[4], activation="gelu")
    with pytest.raises(ParameterError):
        init_params(SPEC, num_classes=0, targets=1, rng=Rng(0))


def test_forward_matches_manual_recomputation():
    # layer-by-layer matrix recomputation, independent of the tape
    bundle = make_bundle(seed=3)
    X = Rng(9).normal(0, 1, (6, 3))

    h = X.copy()
    for i in range(2):
        W = bundle.store[f"encoder.layer{i}.W"].value
        b = bundle.store[f"encoder.layer{i}.b"].value
        h = np.tanh(h @ W + b)
    logits = h @ bundle.store["classifier.W"].value + bundle.store["classifier.b"].value

    tape = Tape()
    feats_node = encode(bundle, tape, X)
    logits_node = classify(bundle, feats_node)
    assert np.max(np.abs(feats_node.value - h)) < 1e-12
    assert np.max(np.abs(logits_node.value - logits)) < 1e-12


def test_extract_features_bit_identical_to_encode():
    bundle = make_bundle(seed=4)
    X = Rng(2).normal(0, 1, (10, 3))
    tape = Tape()
    node = encode(bundle, tape, X)
    feats = extract_features(bundle, X)
    assert np.array_equal(node.value, feats)
    # pure: repeated calls agree bit for bit
    assert np.array_equal(feats, extract_features(bundle, X))


@pytest.mark.parametrize("kind", ["tanh", "relu"])
def test_inference_leaves_input_unchanged(kind):
    spec = EncoderSpec(input_dim=3, hidden_dims=[8, 5], activation=kind)
    bundle = init_params(spec, num_classes=4, targets=["t0"], rng=Rng(4))
    X = Rng(2).normal(0, 1, (10, 3))
    before = X.copy()
    feats = extract_features(bundle, X)
    logits = predict_logits(bundle, X)
    assert np.array_equal(X, before)
    tape = Tape()
    node = encode(bundle, tape, X)
    assert np.array_equal(feats, node.value)
    assert np.array_equal(logits, classify(bundle, node).value)


def _watched_losses(bundle, X, y, domain_y, t, lam):
    """The task and adversarial losses of `ditto_step`, built with every
    parameter watched: the reference for parameters passed as operands."""
    def layer(tape, h, prefix, kind):
        W = tape.watch(bundle.store[f"{prefix}.W"])
        return activation(affine(h, W, tape.watch(bundle.store[f"{prefix}.b"])), kind)

    def features(tape):
        h = tape.constant(X)
        for i in range(len(SPEC.hidden_dims)):
            h = layer(tape, h, f"encoder.layer{i}", SPEC.activation)
        return h

    tape = Tape()
    logits = affine(features(tape), tape.watch(bundle.store["classifier.W"]),
                    tape.watch(bundle.store["classifier.b"]))
    task = softmax_cross_entropy(logits, y)
    tape = Tape()
    hidden = layer(tape, grad_reverse(features(tape), lam), f"disc.{t}.layer0", "tanh")
    head = affine(hidden, tape.watch(bundle.store[f"disc.{t}.head.W"]),
                  tape.watch(bundle.store[f"disc.{t}.head.b"]))
    return task, binary_cross_entropy(sigmoid(head), domain_y)


def _operand_losses(bundle, X, y, domain_y, t, lam):
    tape = Tape()
    task = softmax_cross_entropy(classify(bundle, encode(bundle, tape, X)), y)
    tape = Tape()
    probs = discriminate(bundle, t, grad_reverse(encode(bundle, tape, X), lam))
    return task, binary_cross_entropy(probs, domain_y)


def test_param_operands_match_watched_gradients_bit_for_bit():
    bundle = make_bundle(seed=6)
    rng = Rng(3)
    X = rng.normal(0, 1, (12, 3))
    y = rng.integers(0, 4, 12)
    domain_y = np.repeat([1, 0], 6)
    results = []
    for build in (_watched_losses, _operand_losses):
        bundle.store.reset_grads()
        task, adv = build(bundle, X, y, domain_y, "t1", 0.7)
        backward(task)
        backward(adv)  # reversed encoder gradients add onto the task ones
        results.append((task.value, adv.value, bundle.store.grad.copy()))
    (task_w, adv_w, grad_w), (task_o, adv_o, grad_o) = results
    assert np.array_equal(task_w, task_o) and np.array_equal(adv_w, adv_o)
    assert np.array_equal(grad_w, grad_o)
    assert np.count_nonzero(grad_o) > 0
    assert not bundle.store["disc.t0.head.W"].grad.any()


def test_nonfinite_parameter_in_forward_raises_numeric_error():
    bundle = make_bundle(seed=6)
    bundle.store["encoder.layer1.W"].value[0, 0] = np.nan
    with pytest.raises(NumericError, match="encoder.layer1.W"):
        encode(bundle, Tape(), np.ones((2, 3)))


def test_predict_logits_matches_tape_path():
    bundle = make_bundle(seed=4)
    X = Rng(2).normal(0, 1, (7, 3))
    tape = Tape()
    node = classify(bundle, encode(bundle, tape, X))
    assert np.array_equal(predict_logits(bundle, X), node.value)


def test_discriminator_output_open_interval():
    bundle = make_bundle(seed=1)
    X = Rng(5).normal(0, 3, (20, 3))
    tape = Tape()
    probs = discriminate(bundle, "t0", encode(bundle, tape, X))
    assert probs.value.shape == (20, 1)
    assert np.all(probs.value > 0.0) and np.all(probs.value < 1.0)
    with pytest.raises(KeyError):
        discriminate(bundle, "t9", encode(bundle, tape, X))


def test_discriminator_hidden_width():
    bundle = make_bundle()
    assert bundle.store["disc.t0.layer0.W"].value.shape == (SPEC.feature_dim, DISC_HIDDEN)
    assert bundle.store["disc.t0.head.W"].value.shape == (DISC_HIDDEN, 1)


def test_encode_rejects_wrong_width():
    bundle = make_bundle()
    with pytest.raises(ShapeError):
        extract_features(bundle, np.ones((4, 5)))
    with pytest.raises(ShapeError):
        encode(bundle, Tape(), np.ones((4, 5)))


def test_features_self_similarity():
    bundle = make_bundle(seed=2)
    X = Rng(11).normal(0, 1, (30, 3))
    F = extract_features(bundle, X)
    assert abs(linear_cka(F, F) - 1.0) < 1e-12


def test_checkpoint_round_trip_bit_exact(tmp_path):
    bundle = make_bundle(seed=12)
    path = tmp_path / "model.npz"
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)

    assert loaded.spec == bundle.spec
    assert loaded.num_classes == bundle.num_classes
    assert loaded.target_ids == bundle.target_ids
    assert loaded.store.names() == bundle.store.names()
    for name in bundle.store.names():
        assert np.array_equal(loaded.store[name].value, bundle.store[name].value)

    X = Rng(0).normal(0, 1, (5, 3))
    assert np.array_equal(predict_logits(loaded, X), predict_logits(bundle, X))


@pytest.mark.parametrize("spec, targets", [
    (SPEC, ()),
    (EncoderSpec(input_dim=3, hidden_dims=[6, 4, 5], activation="relu"), ("t1", "t0")),
], ids=["zero_targets", "relu_encoder"])
def test_checkpoint_round_trip_copies_the_whole_arena(tmp_path, spec, targets):
    bundle = init_params(spec, num_classes=3, targets=list(targets), rng=Rng(21))
    path = tmp_path / "model.npz"
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)
    assert loaded.spec == spec and loaded.target_ids == bundle.target_ids
    assert np.array_equal(loaded.store.value, bundle.store.value)
    assert loaded.store.value is not bundle.store.value


def test_checkpoint_archive_is_metadata_and_one_arena(tmp_path):
    bundle = make_bundle(seed=15)
    path = tmp_path / "model.npz"
    save_checkpoint(bundle, path)
    with np.load(path) as data:
        assert sorted(data.files) == ["__meta__", ARENA]
        arena = data[ARENA]
    assert arena.dtype == np.float64 and arena.shape == bundle.store.value.shape
    assert np.array_equal(arena, bundle.store.value)
    expected = np.concatenate([bundle.store[name].value.ravel()
                               for name, _ in param_layout(SPEC, 4, bundle.target_ids)])
    assert np.array_equal(arena, expected)


def rewrite_checkpoint(path, edit):
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    np.savez(path, **arrays)


def _retyped(dtype):
    return lambda a: a.update({ARENA: a[ARENA].astype(dtype)})


@pytest.mark.parametrize("edit, named", [
    (lambda a: a.pop(ARENA), f"no '{ARENA}' entry"),
    (lambda a: a.update(extra=np.zeros(3)), "unexpected entry 'extra'"),
    (lambda a: a.update({ARENA: a[ARENA][:-1]}), "'params' holds 998 values, expected 999"),
    (lambda a: a.update({ARENA: a[ARENA].reshape(27, 37)}),
     "'params': holds an array of shape (27, 37), expected one dimension"),
    (_retyped(np.float32), "'params': holds [('', '<f4')] rows, expected [('', '<f8')]"),
    (_retyped(np.int64), "'params': holds [('', '<i8')] rows, expected [('', '<f8')]"),
    (_retyped(bool), "'params': holds [('', '|b1')] rows, expected [('', '<f8')]"),
    (_retyped(np.complex128), "'params': holds [('', '<c16')] rows, expected [('', '<f8')]"),
    (_retyped(object), "'params': holds [('', '|O')] rows, expected [('', '<f8')]"),
    (_retyped(">f8"), "'params': holds [('', '>f8')] rows, expected [('', '<f8')]"),
], ids=["no_arena", "extra_entry", "wrong_length", "two_d", "float32", "int", "bool",
        "complex", "object", "big_endian"])
def test_checkpoint_arena_mismatch_is_a_data_error_naming_it(tmp_path, edit, named):
    path = tmp_path / "model.npz"
    save_checkpoint(make_bundle(seed=13), path)
    rewrite_checkpoint(path, edit)
    with pytest.raises(DataError, match="model.npz: ") as exc:
        load_checkpoint(path)
    assert named in str(exc.value)


# single-byte edits of make_bundle(seed=13)'s checkpoint (offset, new byte)
# that numpy's npz reader let escape as another exception; the first four
# were found by a seeded sweep, the last by reading zipfile
ESCAPES = {
    "token_error": (422, 207),  # a non-ASCII byte in the arena's .npy header
    "eof_error": (29, 79),  # the meta entry's extra field, claimed past the end
    "not_implemented_error": (8546, 137),  # an unknown compression method
    "os_error_errno_22": (8610, 156),  # a central directory offset that seeks before byte 0
    "runtime_error": (8543, 9),  # the arena entry marked encrypted
}


def _escape_edit(tmp_path, case):
    path = tmp_path / "model.npz"
    save_checkpoint(make_bundle(seed=13), path)
    offset, byte = ESCAPES[case]
    data = bytearray(path.read_bytes())
    assert len(data) == 8613 and data[offset] != byte
    data[offset] = byte
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("case", list(ESCAPES))
def test_checkpoint_byte_edit_is_a_data_error_naming_it(tmp_path, case):
    path = _escape_edit(tmp_path, case)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
        load_checkpoint(path)


@pytest.mark.parametrize("case", list(ESCAPES))
def test_cli_eval_of_an_edited_checkpoint_is_one_error_line(tmp_path, capsys, case):
    path = _escape_edit(tmp_path, case)
    assert main(["eval", "--model", str(path), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "scores.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def _spoil_arena(index, bad):
    def edit(arrays):
        arrays[ARENA][index] = bad
        arrays[ARENA][-1] = np.nan  # a later non-finite value is not the one named
    return edit


@pytest.mark.parametrize("index, bad, name", [
    (0, np.nan, "encoder.layer0.W"),
    (100, -np.inf, "classifier.b"),  # the classifier bias is [97, 101)
    (101, np.inf, "disc.t0.layer0.W"),
    (998, np.nan, "disc.t1.head.b"),
], ids=["nan_first", "neg_inf_span_end", "inf_span_start", "nan_last"])
def test_non_finite_checkpoint_names_its_parameter(tmp_path, index, bad, name):
    path = tmp_path / "model.npz"
    save_checkpoint(make_bundle(seed=16), path)
    rewrite_checkpoint(path, _spoil_arena(index, bad))
    with pytest.raises(DataError, match="model.npz: ") as exc:
        load_checkpoint(path)
    assert f"parameter '{name}' holds a non-finite value" in str(exc.value)


def test_per_parameter_checkpoint_names_its_first_entry(tmp_path):
    bundle = make_bundle(seed=17)
    path = tmp_path / "model.npz"
    save_checkpoint(bundle, path)

    def old_form(arrays):
        del arrays[ARENA]
        arrays.update({f"param::{name}": bundle.store[name].value
                       for name in bundle.store.names()})

    rewrite_checkpoint(path, old_form)
    with pytest.raises(DataError, match="unexpected entry 'param::encoder.layer0.W'"):
        load_checkpoint(path)


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _meta_of(hidden_dims):
    return np.frombuffer(f'{{"input_dim": 3, "hidden_dims": {hidden_dims}, "activation": '
                         f'"tanh", "num_classes": 2, "target_ids": ["a"]}}'.encode(), np.uint8)


def _set_meta(key, value):
    """Spoil a checkpoint by setting `key` of its `__meta__` to `value`."""
    def edit(arrays):
        meta = json.loads(bytes(arrays["__meta__"]))
        meta[key] = value
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    return lambda path: rewrite_checkpoint(path, edit)


@pytest.mark.parametrize("spoil, named", [
    (lambda path: path.write_bytes(b"not an archive"), "not a checkpoint archive"),
    (lambda path: path.write_bytes(b""), "not a checkpoint archive"),
    (lambda path: path.write_bytes(b"PK\x03\x04 truncated"), "not a checkpoint archive"),
    (lambda path: path.write_bytes(_npy_bytes(np.zeros(3))), "not a checkpoint archive"),
    (lambda path: rewrite_checkpoint(path, lambda a: a.pop("__meta__")), "'__meta__'"),
    (lambda path: rewrite_checkpoint(path, lambda a: a.update(
        __meta__=np.frombuffer(b"{oops", np.uint8))), "bad checkpoint metadata"),
    (lambda path: rewrite_checkpoint(path, lambda a: a.update(
        __meta__=np.frombuffer(b"[]", np.uint8))), "bad checkpoint metadata"),
    (lambda path: rewrite_checkpoint(path, lambda a: a.update(__meta__=_meta_of("[]"))),
     "hidden_dims: needs 1 or more items, got 0"),
    (lambda path: rewrite_checkpoint(path, lambda a: a.update(__meta__=_meta_of('"32"'))),
     'bad checkpoint metadata: hidden_dims: expected a list, got "32"'),
    (_set_meta("target_ids", "ab"), 'bad checkpoint metadata: target_ids: expected a list, '
                                    'got "ab"'),
    (_set_meta("target_ids", [1, 2]), "bad checkpoint metadata: target_ids[0]: expected a "
                                      "string, got 1"),
    (_set_meta("target_ids", ["t0", "t0"]), "bad checkpoint metadata: target_ids[1]: 't0' "
                                            "is listed twice"),
    (_set_meta("num_classes", 3.0), "bad checkpoint metadata: num_classes: expected an "
                                    "integer, got 3.0"),
    (_set_meta("num_classes", True), "bad checkpoint metadata: num_classes: expected an "
                                     "integer, got true"),
    (_set_meta("num_classes", 0), "bad checkpoint metadata: num_classes: must be >= 1, got 0"),
    (_set_meta("input_dims", 2), "bad checkpoint metadata: input_dims: unknown key"),
], ids=["text", "empty", "broken_zip", "npy_array", "no_meta", "meta_not_json",
        "meta_not_object", "meta_rejected_by_spec", "meta_wrong_type", "targets_a_string",
        "targets_not_strings", "target_twice", "classes_a_float", "classes_a_bool",
        "no_classes", "unknown_key"])
def test_unreadable_checkpoint_is_a_data_error_naming_it(tmp_path, spoil, named):
    path = tmp_path / "model.npz"
    save_checkpoint(make_bundle(seed=14), path)
    spoil(path)
    with pytest.raises(DataError, match="model.npz: ") as exc:
        load_checkpoint(path)
    assert named in str(exc.value)


def test_duplicate_target_ids_rejected():
    with pytest.raises(ParameterError):
        init_params(SPEC, num_classes=2, targets=["a", "a"], rng=Rng(0))
