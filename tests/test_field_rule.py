"""The one field rule of every config dataclass (`ditto.errors.check_fields`):
a config built in Python is checked like one read from JSON, field by field,
and a wrong value or one outside the field's declared bound raises one
ConfigError keyed by the field's JSON key."""

import dataclasses
import math
import types
import typing

import numpy as np
import pytest

import ditto
from ditto.data import Manifest
from ditto.errors import DOMAIN_ID_RULE, ConfigError, config_fields
from ditto.experiment import DatasetConfig, RunRecord
from ditto.model import CheckpointMeta

ENCODER = ditto.EncoderSpec(input_dim=2)
TRAIN = ditto.TrainConfig(encoder=ENCODER, num_classes=3, epochs=1)
MIXTURE = ditto.MixtureSpec(means=[[0.0, 1.0], [1.0, 0.0]])
SIZES = ditto.SizeSpec(eval=3)
DOMAIN = ditto.DomainSpec(id="src", kind="source", transform={"kind": "identity"}, sizes=SIZES)

# one valid instance of every config dataclass the rule covers
VALID = {
    ditto.ExperimentConfig: ditto.ExperimentConfig(train=TRAIN),
    DatasetConfig: DatasetConfig(base=MIXTURE, domains=[DOMAIN]),
    ditto.TrainConfig: TRAIN,
    ditto.EncoderSpec: ENCODER,
    ditto.MixtureSpec: MIXTURE,
    ditto.SizeSpec: SIZES,
    ditto.DomainSpec: DOMAIN,
    ditto.AdamWConfig: ditto.AdamWConfig(lr=0.1, total_steps=10),
    ditto.TrainVariant: ditto.TrainVariant("ditto_single", lam=1.0, rho=0.05, single_target="t"),
    ditto.CostParams: ditto.CostParams(),
    ditto.LanguagePrior: ditto.LanguagePrior({"a": 1.0}),
    RunRecord: RunRecord(frac=100, variant="ditto", seed=0, k=0, n_labeled_source=10,
                         source="src", targets=["tgt"], status="ok"),
    Manifest: Manifest(source="src", domains=["src", "t"], feature_dim=2),
    CheckpointMeta: CheckpointMeta(encoder=ENCODER, num_classes=3, target_ids=["t"]),
}

# the package's dataclasses that hold data or results, not configuration
NOT_CONFIGS = {ditto.data.Rows, ditto.data.DomainSplits, ditto.DomainDataset,
               ditto.analysis.EvalTable, ditto.adaptation.EpochRecord, ditto.TrainReport,
               ditto.adaptation.Optimizers}


def _wrong(tp, key: str) -> list[tuple[object, str]]:
    """(a value the rule rejects in a field of type `tp` keyed `key`, the key
    its ConfigError names) pairs: a float for an int, True for a number, NaN
    for a float, a str as a list item, and more."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None: None is fine
        (tp,) = set(args) - {type(None)}
        return _wrong(tp, key)
    if tp is int:
        return [(2.5, key), (True, key), ("1", key), (None, key)]
    if tp is float:
        return [(float("nan"), key), (float("-inf"), key), (10 ** 400, key), (True, key),
                ("0.5", key)]
    if tp is str:
        return [(3, key), (b"x", key)]
    if origin is list:
        return [("x", key), ((), key)] + [([bad], at) for bad, at in _wrong(args[0], f"{key}[0]")]
    if tp is dict or origin is dict:
        items = [({"a": bad}, at) for bad, at in _wrong(args[1], f"{key}.a")] if args else []
        return [("x", key), ([], key)] + items
    if dataclasses.is_dataclass(tp):
        return [("x", key), ({}, key)]
    raise TypeError(f"no wrong values for a {tp} field: add them here")


def _field_cases():
    for cls, valid in VALID.items():
        for f, key, tp in config_fields(cls):
            for i, (bad, at) in enumerate(_wrong(tp, key or f.name)):
                yield pytest.param(lambda valid=valid, name=f.name, bad=bad:
                                   dataclasses.replace(valid, **{name: bad}),
                                   at, id=f"{cls.__name__}.{f.name}-{i}")


# the probes that every such class accepted when built in Python
PROBES = {
    "SizeSpec_labeled_1.5": (lambda: ditto.SizeSpec(labeled=1.5, eval=3), "labeled"),
    "EncoderSpec_input_dim_2.5": (lambda: ditto.EncoderSpec(input_dim=2.5), "input_dim"),
    "TrainConfig_epochs_2.5": (lambda: ditto.TrainConfig(ENCODER, 3, epochs=2.5), "epochs"),
    "TrainConfig_batch_size_True": (lambda: ditto.TrainConfig(ENCODER, 3, 1, batch_size=True),
                                    "batch_size"),
    "TrainConfig_weight_decay_nan": (
        lambda: ditto.TrainConfig(ENCODER, 3, 1, weight_decay=float("nan")), "weight_decay"),
    "ExperimentConfig_seeds_ks": (
        lambda: ditto.ExperimentConfig(TRAIN, seeds=[0.5], ks=[1.5]), "seeds[0]"),
    "MixtureSpec_nan_mean": (
        lambda: ditto.MixtureSpec([[0.0, 1.0], [float("nan"), 0.0]]), "means[1][0]"),
    "MixtureSpec_nan_sigma": (
        lambda: ditto.MixtureSpec(MIXTURE.means, sigma=float("nan")), "sigma"),
    "AdamWConfig_total_steps_2.5": (lambda: ditto.AdamWConfig(0.1, total_steps=2.5),
                                    "total_steps"),
    "TrainVariant_rho_True": (lambda: ditto.TrainVariant("ditto", 1.0, True), "rho"),
    "CostParams_nan_c_s": (lambda: ditto.CostParams(c_s=float("nan")), "c_s"),
    "ExperimentConfig_inf_cost": (lambda: ditto.ExperimentConfig(TRAIN, c_s=float("inf")),
                                  "cost.c_s"),
}


@pytest.mark.parametrize("build,key", [*_field_cases(), *(
    pytest.param(build, key, id=name) for name, (build, key) in PROBES.items())])
def test_wrong_field_value_is_one_config_error_keyed_by_the_field(build, key):
    with pytest.raises(ConfigError) as exc:
        build()
    assert exc.value.key == key
    assert str(exc.value).startswith(f"{key}: expected "), str(exc.value)


def _bound_cases():
    """(build at the bound's edge, build one step past it, the key, the
    message) for every bound a config field declares: `min` takes its bound
    and rejects the next value down, `above` rejects its bound and takes the
    next value up, `in` takes each of its members and rejects 50 (an int
    member set) or "OK" (a str member set), and `id` takes "t" and rejects
    "a/b".  A list field holds such a value as its item [0], a dict field as
    its item "a", beside a "b" that keeps a prior's sum at 1.  `len` takes the
    first n items of the valid field and rejects its first n - 1, and `unique`
    takes the valid list and rejects it with its first item again at the end."""
    for cls, valid in VALID.items():
        for f, key, tp in config_fields(cls):
            item = typing.get_args(tp)[-1] if typing.get_args(tp) else tp
            at = key or f.name
            edges = []
            for name, wording, way in (("min", ">=", -1), ("above", ">", 1)):
                if name not in f.metadata:
                    continue
                bound = f.metadata[name]
                # the next value of the item type below (min) or above (above) the bound
                step = bound + way if item is int else math.nextafter(bound, way * math.inf)
                ok, bad = (bound, step) if name == "min" else (step, bound)
                edges.append((name, ok, bad, f"must be {wording} {bound}, got {item(bad)}"))
            if "in" in f.metadata:
                members = f.metadata["in"]
                outside = "OK" if item is str else 50
                assert outside not in members
                edges += [(f"in-{ok}", ok, outside,
                           f"must be in {{{','.join(map(str, members))}}}, got {outside}")
                          for ok in members]
            if "id" in f.metadata:
                edges.append(("id", "t", "a/b", f"domain id 'a/b' must be {DOMAIN_ID_RULE}"))
            cases = []  # (name, ok, bad, key, message)
            for name, ok, bad, message in edges:
                where = at
                if typing.get_origin(tp) is list:
                    ok, bad, where = [ok], [bad], f"{at}[0]"
                elif typing.get_origin(tp) is dict:
                    ok, bad, where = {"a": ok, "b": 1.0 - ok}, {"a": bad, "b": 1.0 - bad}, \
                        f"{at}.a"
                cases.append((name, ok, bad, where, message))
            whole = getattr(valid, f.name)  # the bounds on a list or dict field itself
            if "len" in f.metadata:
                n = f.metadata["len"]
                assert len(whole) >= n, (cls, f.name)
                first = (lambda m: dict(list(whole.items())[:m])
                         if isinstance(whole, dict) else whole[:m])
                cases.append(("len", first(n), first(n - 1), at,
                              f"needs {n} or more items, got {n - 1}"))
            if "unique" in f.metadata:
                cases.append(("unique", whole, whole + whole[:1], f"{at}[{len(whole)}]",
                              f"{whole[0]!r} is listed twice"))
            for name, ok, bad, where, message in cases:
                yield pytest.param(*(lambda valid=valid, name=f.name, value=value:
                                     dataclasses.replace(valid, **{name: value})
                                     for value in (ok, bad)),
                                   where, message, id=f"{cls.__name__}.{f.name}-{name}")


@pytest.mark.parametrize("at_edge,past_edge,key,message", list(_bound_cases()))
def test_declared_bound_takes_its_edge_and_rejects_one_step_past(at_edge, past_edge, key,
                                                                  message):
    at_edge()
    with pytest.raises(ConfigError) as exc:
        past_edge()
    assert exc.value.key == key
    assert str(exc.value) == f"{key}: {message}"


def test_field_metadata_holds_only_a_json_key_and_bounds():
    for cls in VALID:
        for f, _, _ in config_fields(cls):
            assert set(f.metadata) <= {"json", "min", "above", "in", "len", "unique", "id"}, \
                (cls, f.name)


def test_every_config_dataclass_is_in_the_table():
    found = {obj for module in (ditto.data, ditto.model, ditto.optim, ditto.adaptation,
                                ditto.analysis, ditto.experiment)
             for obj in vars(module).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)
             and obj.__module__.startswith("ditto.")}
    assert found - NOT_CONFIGS == set(VALID)


def test_numpy_scalars_count_and_an_int_in_a_float_field_becomes_a_float():
    sizes = ditto.SizeSpec(labeled=np.int64(4), eval=np.uint8(3))
    assert (sizes.labeled, sizes.eval) == (4, 3) and type(sizes.labeled) is int
    cost = ditto.CostParams(c_s=3, c_t_over_s=np.float32(0.5), k=np.int32(2))
    assert (cost.c_s, cost.c_t_over_s, cost.k) == (3.0, 0.5, 2)
    assert type(cost.c_s) is float and type(cost.c_t_over_s) is float
    exp = ditto.ExperimentConfig(TRAIN, seeds=[np.int64(1)], c_t_over_s=1)
    assert exp.seeds == [1] and repr(exp.c_t_over_s) == "1.0"  # as read from JSON
    variant = ditto.TrainVariant("ditto", lam=1, rho=np.float64(0.05))
    assert (variant.lam, variant.rho, variant.single_target) == (1.0, 0.05, None)
    assert type(variant.rho) is float
