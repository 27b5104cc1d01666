"""Exception types shared across the package, the finite checks, and the
one config rule.

Every failure mode raised by the library is one of these classes, so callers
can distinguish bad shapes from bad configs from bad data without string
matching.  `check_fields` is the one field rule of every config dataclass,
and the one bound rule: a field declares its range in its metadata beside
its type (`min`, `above`, `in`, `len`, `unique` or `id`), and a value out of
range is one ConfigError keyed by the field's JSON key.  `parse_config` is
the one JSON reader of every config dataclass, records included (run.json,
manifest.json, a checkpoint's `__meta__`); `config_json` is the one writer
of a record.
"""

import json
import math
import numbers
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache

import numpy as np


class ShapeError(ValueError):
    """Tensor dimensions do not satisfy an operation's contract."""


class LabelError(ValueError):
    """A class label lies outside the valid index range."""


class ParameterError(ValueError):
    """A function argument violates its precondition (negative lambda, bad h, ...);
    a config field out of its bound is a ConfigError."""


class StateError(RuntimeError):
    """A protocol was violated (restore without perturb, mixed tapes, ...)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the contract requires finite numbers."""


class DataError(ValueError):
    """Dataset contents violate an invariant (empty split, missing domain, ...),
    or a data file is not in its form (the message names the file)."""


class ConfigError(ValueError):
    """A configuration is internally contradictory or incomplete.

    `key` optionally names the offending JSON key path inside the object
    being built (`"variants[1]"`), and the message starts with it; the
    config parser prefixes it with the full path of the object.
    """

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key

    def __str__(self) -> str:
        return f"{self.key}: {self.args[0]}" if self.key else self.args[0]


class UndefinedResultError(ArithmeticError):
    """The requested statistic is undefined for this input (zero variance,
    zero baseline)."""


class DegenerateGradientError(RuntimeError):
    """Gradient norm too small to normalize; callers skip the perturbation."""


# what a domain id must be: ids name dataset files and run directories, so an
# id holds no path separator, no NUL (open() refuses it) and no ':' (the
# variant separator: `ditto_single:a:b` would share `a_b`'s run directory);
# and they fill the tables' domain column, where an id holds nothing csv quotes
DOMAIN_ID_RULE = "a non-empty string without '/', '\\', ',', '\"', ':', CR, LF or NUL"
_NOT_IN_ID = frozenset('/\\,"\r\n\0:')


def valid_domain_id(name: str) -> bool:
    """Whether the string `name` is a domain id by DOMAIN_ID_RULE."""
    return name != "" and _NOT_IN_ID.isdisjoint(name)


def is_integer(v) -> bool:
    """An int or numpy integer; bool is not a number."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """A real number (numpy scalars too) a float holds finitely; bool is not a number."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return False
    return abs(v) <= sys.float_info.max if isinstance(v, numbers.Integral) else math.isfinite(v)


def all_finite(a: np.ndarray) -> bool:
    """True when every entry of `a` is finite.

    The sum of squares `np.vdot(a, a)` is the fast path: its terms are never
    negative, so a NaN or Inf entry always makes it non-finite.  Only a
    non-finite result, which finite entries beyond about 1e154 also reach by
    overflow, pays for the exact elementwise check.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.all(np.isfinite(a)))


_WANTED = {int: "an integer", float: "a number", str: "a string", list: "a list",
           dict: "an object"}


@cache
def config_fields(cls) -> tuple:
    """(field, JSON key, resolved type) of every field of the dataclass `cls`.
    The JSON key is the field's name unless its metadata gives a `json` key
    path: a dotted path nests the key in a sub-object, and "" puts a nested
    config's keys in the enclosing object."""
    hints = typing.get_type_hints(cls)
    return tuple((f, f.metadata.get("json", f.name), hints[f.name]) for f in fields(cls))


def check_fields(config) -> None:
    """Set every field of the config dataclass `config` to `fit` of its value
    and the bound in its metadata, keyed by its JSON key (its name for a ""
    key)."""
    for f, key, tp in config_fields(type(config)):
        setattr(config, f.name, fit(tp, getattr(config, f.name), key or f.name, f.metadata))


def fit(tp, value, key: str, bound: typing.Mapping = types.MappingProxyType({})):
    """`value` as a value of the field type `tp` (an int in a float field
    becomes a float) within `bound`, else a ConfigError keyed `key`.  The one
    field rule, for a config read from JSON or built in Python alike: bool is
    not a number; an int field takes no float; a float field takes a finite
    int or float; list and dict items have their item type (keyed `key[i]`
    and `key.name`); `X | None` also takes None; a nested config field holds
    that dataclass; numpy scalars count as int and float.  `bound` may hold
    `min` (value >= min), `above` (value > above), `in` (a tuple holding the
    value; a str field takes it too) and `id` (a str by DOMAIN_ID_RULE), which
    a list or dict field's items each meet, and `len` (a list or dict of at
    least that many items) and `unique` (no list item repeats, keyed by the
    repeat), which it meets itself, after its items."""
    if ((tp is int and is_integer(value)) or (tp is float and is_finite_number(value))
            or (tp is str and isinstance(value, str))):
        value = tp(value)
        if "min" in bound and not value >= bound["min"]:
            raise ConfigError(f"must be >= {bound['min']}, got {value}", key=key)
        if "above" in bound and not value > bound["above"]:
            raise ConfigError(f"must be > {bound['above']}, got {value}", key=key)
        if "in" in bound and value not in bound["in"]:
            raise ConfigError(f"must be in {{{','.join(map(str, bound['in']))}}}, got {value}",
                              key=key)
        if "id" in bound and not valid_domain_id(value):
            raise ConfigError(f"domain id {value!r} must be {DOMAIN_ID_RULE}", key=key)
        return value
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        (tp,) = set(args) - {type(None)}
        return None if value is None else fit(tp, value, key, bound)
    if tp not in (int, float) and isinstance(value, origin):
        if origin is not list and not (origin is dict and args):
            return value
        each = ({name: b for name, b in bound.items() if name not in ("len", "unique")}
                if "len" in bound or "unique" in bound else bound)
        if origin is list:
            value = [fit(args[0], v, f"{key}[{i}]", each) for i, v in enumerate(value)]
        else:
            value = {fit(args[0], k, key): fit(args[1], v, f"{key}.{k}", each)
                     for k, v in value.items()}
        if len(value) < bound.get("len", 0):
            raise ConfigError(f"needs {bound['len']} or more items, got {len(value)}", key=key)
        if "unique" in bound:
            for i, v in enumerate(value):
                if v in value[:i]:
                    raise ConfigError(f"{v!r} is listed twice", key=f"{key}[{i}]")
        return value
    finite = tp is float and isinstance(value, numbers.Real) and not isinstance(value, bool)
    wanted = "a finite number" if finite else _WANTED.get(origin) or f"a {tp.__name__}"
    raise ConfigError(f"expected {wanted}, got {json.dumps(value, default=repr, skipkeys=True)}",
                      key=key)


# ---------------------------------------------------------------------------
# One strict parser builds every config dataclass by walking its fields
# (`config_fields` gives each one's JSON key), so the dataclass defaults are
# the only defaults and each dataclass checks its own field types.


def _at(path: str, key: str) -> str:
    """The JSON path of `key` inside the object at `path` ("" is the root)."""
    return f"{path}.{key}" if path else key


@cache
def _known_keys(cls) -> frozenset[tuple[str, ...]]:
    """Every key path an object for `cls` may hold."""
    known = set()
    for _, key, tp in config_fields(cls):
        known |= {tuple(key.split("."))} if key else _known_keys(tp)
    return frozenset(known)


def _check_keys(obj: dict, known: frozenset, path: str, prefix: tuple = ()) -> None:
    for key, raw in obj.items():
        here = prefix + (key,)
        if here in known:
            continue
        where = _at(path, ".".join(here))
        if not any(k[:len(here)] == here for k in known):
            raise ConfigError("unknown key", key=where)
        _check_keys(fit(dict, raw, where), known, path, here)  # e.g. "cost"


def _build(cls, obj: dict, path: str):
    kwargs = {}
    for f, key, tp in config_fields(cls):
        if not key:
            kwargs[f.name] = _build(tp, obj, path)
            continue
        *parents, last = key.split(".")
        node = obj
        for part in parents:
            node = node.get(part, {})
        where = _at(path, key)
        if last in node:
            kwargs[f.name] = _value(tp, node[last], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError("required key missing", key=where)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(exc.args[0], key=_at(path, exc.key) if exc.key else path) from None


def _value(tp, raw, path: str):
    """`raw` with each JSON object a config dataclass `tp` holds built as one."""
    if is_dataclass(tp):
        return parse_config(tp, raw, path)
    if typing.get_origin(tp) is list and isinstance(raw, list):
        return [_value(typing.get_args(tp)[0], v, f"{path}[{i}]") for i, v in enumerate(raw)]
    return raw


def parse_config(cls, data, path: str):
    """Build the config dataclass `cls` from the JSON value at `path` ("" for
    a whole file).

    Unknown keys, missing required keys, values of the wrong JSON type (a
    float is not an int, a string is not a list) and values the dataclass
    itself rejects all raise ConfigError keyed by the full JSON path, e.g.
    `experiment.lamda` or `dataset.domains[1].sizes`.
    """
    obj = fit(dict, data, path)
    _check_keys(obj, _known_keys(cls), path)
    return _build(cls, obj, path)


def parse_record(cls, text: bytes, where: str):
    """The record dataclass `cls` read from the UTF-8 JSON `text` of the file
    `where`; text that is not JSON, or a record `parse_config` rejects, is one
    DataError naming `where`: `.../run.json: k: must be >= 0, got -1`."""
    try:
        data = json.loads(text.decode("utf-8"))
    except ValueError as exc:
        raise DataError(f"{where}: not valid JSON: {exc}") from None
    try:
        return parse_config(cls, data, "")
    except ConfigError as exc:
        raise DataError(f"{where}: {exc}") from None


def config_json(record) -> dict:
    """The JSON object `parse_config` reads `record` back from: each field
    under its (undotted) JSON key, a "" field's keys merged in, None left out."""
    obj = {}
    for f, key, _ in config_fields(type(record)):
        value = getattr(record, f.name)
        if not key:
            obj.update(config_json(value))
        elif value is not None:
            obj[key] = value
    return obj
