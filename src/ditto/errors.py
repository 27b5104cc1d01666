"""Exception types shared across the package.

Every failure mode raised by the library is one of these classes, so callers
can distinguish bad shapes from bad configs from bad data without string
matching.  `check_fields` is the one field rule of every config dataclass,
and the one bound rule: a numeric field declares its range in its metadata
beside its type (`min`, `above` or `in`), and a value out of range is one
ConfigError keyed by the field's JSON key.
"""

import json
import math
import numbers
import sys
import types
import typing
from dataclasses import fields
from functools import cache


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
    """Dataset contents violate an invariant (empty split, missing domain, ...)."""


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


class ParseError(ValueError):
    """A file could not be parsed; message carries path and line number."""


class UndefinedResultError(ArithmeticError):
    """The requested statistic is undefined for this input (zero variance,
    zero baseline)."""


class DegenerateGradientError(RuntimeError):
    """Gradient norm too small to normalize; callers skip the perturbation."""


def is_integer(v) -> bool:
    """An int or numpy integer; bool is not a number."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """A real number (numpy scalars too) a float holds finitely; bool is not a number."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return False
    return abs(v) <= sys.float_info.max if isinstance(v, numbers.Integral) else math.isfinite(v)


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
    `min` (value >= min), `above` (value > above) and `in` (a tuple holding
    the value); a list or dict field's bound holds for each item."""
    if (tp is int and is_integer(value)) or (tp is float and is_finite_number(value)):
        value = tp(value)
        if "min" in bound and not value >= bound["min"]:
            raise ConfigError(f"must be >= {bound['min']}, got {value}", key=key)
        if "above" in bound and not value > bound["above"]:
            raise ConfigError(f"must be > {bound['above']}, got {value}", key=key)
        if "in" in bound and value not in bound["in"]:
            raise ConfigError(f"must be in {{{','.join(map(str, bound['in']))}}}, got {value}",
                              key=key)
        return value
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        (tp,) = set(args) - {type(None)}
        return None if value is None else fit(tp, value, key, bound)
    if tp not in (int, float) and isinstance(value, origin):
        if origin is list:
            return [fit(args[0], v, f"{key}[{i}]", bound) for i, v in enumerate(value)]
        if origin is dict and args:
            return {fit(args[0], k, key): fit(args[1], v, f"{key}.{k}", bound)
                    for k, v in value.items()}
        return value
    finite = tp is float and isinstance(value, numbers.Real) and not isinstance(value, bool)
    wanted = "a finite number" if finite else _WANTED.get(origin) or f"a {tp.__name__}"
    raise ConfigError(f"expected {wanted}, got {json.dumps(value, default=repr, skipkeys=True)}",
                      key=key)
