"""Checks of the JSON values of a run config, shared by ``config`` and by
``kernels.kernel_spec``: each raises ConfigError keyed by the dotted path
of the offending value."""

import sys

from .errors import ConfigError


def _type_name(value) -> str:
    return type(value).__name__


def _path(key, sub: str) -> str:
    return f"{key}.{sub}" if key else sub


def json_object(value, key, allowed, required=()) -> dict:
    """value, once it is a JSON object with only allowed keys and every
    required one; key is its dotted path, None for the whole config."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key or 'config'} must be a JSON object, got "
                          f"{_type_name(value)}", key=key)
    for sub in value:
        if sub not in allowed:
            raise ConfigError(f"unknown key {_path(key, sub)} (expected "
                              f"{', '.join(sorted(allowed)) or 'none'})",
                              key=_path(key, sub))
    for sub in required:
        if sub not in value:
            raise ConfigError(f"{key or 'config'} needs '{sub}'",
                              key=_path(key, sub))
    return value


def tagged(value, key, tag: str, table: dict):
    """The name in value[tag] and its entry of table, value being a JSON
    object; its other keys are the caller's to check."""
    name = json_object(value, key, value, (tag,))[tag]
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {_path(key, tag)} {name!r} (expected one "
                          f"of {', '.join(table)})", key=_path(key, tag))
    return name, table[name]


def require_int(value, key: str, low: int, high, rule: str) -> int:
    """value, once it is an integer (not a bool) in [low, high)."""
    if type(value) is not int or not low <= value < high:
        raise ConfigError(f"{key} must be an integer {rule}", key=key)
    return value


def require_number(value, key: str, *, positive=False, nonneg=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {_type_name(value)}",
                          key=key)
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int past float
        raise ConfigError(f"{key} must be finite", key=key)
    x = float(value)
    if positive and x <= 0:
        raise ConfigError(f"{key} must be > 0", key=key)
    if nonneg and x < 0:
        raise ConfigError(f"{key} must be >= 0", key=key)
    return x
