"""Exception types shared across the package, and `check_fields`, the type
rule that every config class applies to its fields when built, storing each
value in one form; a loaded config meets the same rule."""

import math
from dataclasses import fields, is_dataclass
from numbers import Integral, Real


class ConfigurationError(ValueError):
    """Invalid experiment, topology or solver configuration."""


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""


class NumericalDomainError(DomainError):
    """A matrix argument is numerically unusable (singular or indefinite)."""


def _is_real(value):
    return isinstance(value, Real) and not isinstance(value, bool)


def is_number(value):
    """A real number in the finite float range that is not a bool, judged
    as the float it is stored as."""
    try:
        return _is_real(value) and math.isfinite(float(value))
    except OverflowError:       # an int or Fraction beyond the float range
        return False


def check_fields(config, prefix=""):
    """Raise ConfigurationError unless every field of the config dataclass
    holds its annotated type: an int, a str, a finite float, a path-loss
    pair (tuple) of two finite floats, or a nested config of its class;
    bools are not numbers, and `object` fields are the class's to check.
    The message names the field after `prefix` and says "must be finite"
    for a real number that is not, "must be of type T" otherwise.  Each
    int, float or str field then holds that type, and a pair two floats."""
    for f in fields(config):
        value, kind = getattr(config, f.name), f.type
        if is_dataclass(kind) and not isinstance(value, kind):
            raise ConfigurationError(
                f"{prefix}{f.name} must be a {kind.__name__}, got "
                f"{type(value).__name__}; ExperimentConfig.from_dict "
                f"takes a mapping")
        if kind is float or kind is tuple:
            pair = isinstance(value, (list, tuple)) and len(value) == 2
            numbers = [value] if kind is float else value if pair else [None]
            fits, finite = (all(map(_is_real, numbers)),
                            all(map(is_number, numbers)))
        else:
            fits = finite = kind not in (int, str) or (
                isinstance(value, Integral if kind is int else str)
                and not isinstance(value, bool))
        if not finite:
            fault = "be finite" if fits else f"be of type {kind.__name__}"
            raise ConfigurationError(f"{prefix}{f.name} must {fault}, "
                                     f"got {value!r}")
        if kind in (int, float, str, tuple):
            object.__setattr__(config, f.name, tuple(map(float, value))
                               if kind is tuple else kind(value))
