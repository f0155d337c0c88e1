"""Exception hierarchy shared across the toolkit, and the declared
settings of the config dataclasses that check_settings reads.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError -> 2,
NumericError -> 3.
"""

import math
from dataclasses import field, fields
from typing import Tuple


class ConfigError(ValueError):
    """Bad command line usage, malformed config file, or unknown key."""


class DataError(ValueError):
    """Missing or corrupt data files, vocabulary violations."""


class NumericError(ArithmeticError):
    """Numeric failure: non-finite loss, impossible alignment, bad shapes."""


class DimensionError(NumericError):
    """Operand shapes incompatible with the requested operation."""


class DomainError(NumericError):
    """Input outside an operation's mathematical domain (e.g. log of <= 0)."""


class ImpossibleAlignmentError(NumericError):
    """CTC target cannot be aligned within the available frames."""


def setting(default=None, span: str = "", choices: Tuple[str, ...] = (),
            key: str = ""):
    """A config field that declares its rule: a numeric field's `span`,
    such as "[0, 1)" or "[1, inf)", which its value (each value, for a
    pair) must lie in and be finite; a string field's `choices`, the
    first being the default; and its config-file `key`, when that is not
    the field name."""
    meta = {"span": span, "choices": choices, "key": key}
    return field(default=choices[0] if choices else default, metadata=meta)


def file_key(f) -> str:
    """The key a config file writes dataclass field `f` under."""
    return f.metadata.get("key") or f.name


def _inside(value, span: str) -> bool:
    lo, hi = (float(end) for end in span[1:-1].split(","))
    # ints compare as ints: math.isfinite overflows past 1e308
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return ((lo <= value if span[0] == "[" else lo < value)
            and (value <= hi if span[-1] == "]" else value < hi))


def check_settings(cfg) -> None:
    """Refuse the first field of dataclass `cfg` outside its declared span
    or choices, naming its config-file key."""
    for f in fields(cfg):
        value, span = getattr(cfg, f.name), f.metadata.get("span")
        choices = f.metadata.get("choices")
        if choices and value not in choices:
            raise ConfigError(f"{file_key(f)} = {value!r} is not one of "
                              f"{', '.join(choices)}")
        values = value if isinstance(value, tuple) else (value,)
        if span and not all(_inside(v, span) for v in values):
            raise ConfigError(f"{file_key(f)} = {value} lies outside {span}")
