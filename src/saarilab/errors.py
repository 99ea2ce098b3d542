"""Exception hierarchy shared across the package."""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np


class SaariLabError(Exception):
    """Base class for all package-specific errors."""


class CombinabilityError(SaariLabError):
    """Two jets disagree in dimension, degree, or base point."""


class DegreeDeficitError(SaariLabError):
    """A jet does not carry enough Taylor orders for the requested operation."""


class EvaluationDomainError(SaariLabError):
    """A jet power was asked for outside its domain: a zero constant term, or
    a negative one with a non-integer exponent."""


class SingularityError(SaariLabError):
    """A pairwise separation fell below the collision tolerance.

    Carries the offending body pair when known.
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class NoConvergenceError(SaariLabError):
    """An iterative solver ran out of iterations.

    ``residual`` holds the final residual norm for diagnostics.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InsufficientSamplesError(SaariLabError):
    """A trajectory does not surround the probe time with enough samples."""


class InternalConsistencyError(SaariLabError):
    """Two independent computations of the same quantity disagree."""


class ConfigError(SaariLabError):
    """An experiment configuration is malformed or incomplete."""


def _check_count(value, what: str, at_least: int = 1) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an integer of at least
    ``at_least``; a bool or an integral float is not one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < at_least):
        raise ConfigError(
            f"{what} must be an integer >= {at_least}, got {value!r}")


def _finite(value, what: str, at_least: float = -math.inf,
            strict: bool = False) -> float:
    """``value`` as a float if it is a finite real number (a bool is not)
    of at least ``at_least``, or above it if ``strict``, else a
    :class:`ConfigError`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max or value < at_least
            or strict and value == at_least):
        bound = ("" if at_least == -math.inf
                 else f" {'>' if strict else '>='} {at_least:g}")
        raise ConfigError(f"{what} must be a finite number{bound}, got {value!r}")
    return float(value)


def _finite_array(value, what: str) -> np.ndarray:
    """``value``, a number or a (nested) list of them, as a float array if
    every entry is a finite real number (a bool or a string is not), else a
    :class:`ConfigError`; a ragged list has lists for entries, so it fails."""
    items = np.asarray(value, dtype=object)
    return np.array([_finite(x, f"{what} entry") for x in items.flat],
                    dtype=float).reshape(items.shape)


def _flag(value, what: str) -> bool:
    """``value`` if it is a bool, a JSON ``true`` or ``false``, else a
    :class:`ConfigError`: ``"false"``, ``0`` or ``null`` is not read as one."""
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _check_keys(d, ctx: str, required=(), optional=()) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{ctx}: missing keys {sorted(missing)}")
    return d


def _check_kind(d, ctx: str, kinds: dict, key: str = "kind") -> str:
    """The ``kind`` of block ``d`` (its entry ``key``), once ``d`` has
    exactly the keys that ``kinds`` lists for that kind as
    ``(required, optional)``."""
    kind = d.get(key) if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{ctx} needs a '{key}' of {sorted(kinds)}, "
                          f"got {kind!r}")
    required, optional = kinds[kind]
    _check_keys(d, f"{ctx}({kind})", required=(key, *required),
                optional=optional)
    return kind
