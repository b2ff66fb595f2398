import math
from dataclasses import fields


class TradeLabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TradeLabError):
    """User-supplied input (file, config, parameters) failed validation."""


def require_finite(obj) -> None:
    """Refuse NaN and ±inf in every ``float`` field of the dataclass ``obj``,
    the rule a config file's numbers already follow. The package's modules
    postpone annotations, so a field's type is the string ``"float"``."""
    for f in fields(obj):
        if f.type == "float":
            value = getattr(obj, f.name)
            if not -math.inf < value < math.inf:
                raise ValidationError(f"{f.name} must be a finite number, got {value!r}")
