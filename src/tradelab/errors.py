import sys
from dataclasses import fields


class TradeLabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TradeLabError):
    """User-supplied input (file, config, parameters) failed validation."""


def in_float_range(value) -> bool:
    """Whether a number is finite as a float: not NaN, not ±inf and not an
    int too large to convert to one. A config file's numbers and the float
    fields ``require_finite`` checks follow this one rule."""
    return -sys.float_info.max <= value <= sys.float_info.max


def require_finite(obj) -> None:
    """Refuse a value outside ``in_float_range`` in every ``float`` field of
    the dataclass ``obj``, the rule a config file's numbers already follow.
    The package's modules postpone annotations, so a field's type is the
    string ``"float"``."""
    for f in fields(obj):
        if f.type == "float":
            value = getattr(obj, f.name)
            if not in_float_range(value):
                raise ValidationError(f"{f.name} must be a finite number, got {value!r}")
