"""Exception types shared across the package, and the finiteness check of config sections."""

import math
from dataclasses import fields


class CellbeamError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CellbeamError):
    """A static configuration value is outside its valid range."""


class ContractViolation(CellbeamError):
    """A caller passed arguments that break an operation's precondition."""


class UsageError(CellbeamError):
    """Operations were called in an invalid order (e.g. step after done)."""


def reject_nonfinite(section) -> None:
    """Raise ConfigurationError naming a dataclass field that is or lists a NaN or infinity.

    Range checks written as comparisons are false for NaN, so they let it
    through, and a one-sided range lets one of the infinities through.
    """
    for f in fields(section):
        value = getattr(section, f.name)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigurationError(f"{f.name} must be finite, not {value!r}")
