"""Exception types shared across the package, and its number tests."""

import sys

import numpy as np

FLOAT_MAX = sys.float_info.max  # a Python int or float compares with it exactly; NaN fails it


def is_whole(value) -> bool:
    """An int or numpy integer and not a bool: a bool is no count or size."""
    if type(value) is int:  # the common case, first
        return True
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def stride_of(value, name: str) -> int:
    """value as an int (JSON takes no numpy number) if an integer >= 1."""
    if not is_whole(value) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """A whole number or a float, numpy's included, and not a bool."""
    return type(value) is float or is_whole(value) or isinstance(value, (float, np.floating))


def plain(value):
    """A numpy number as the Python number of the same value, which JSON
    can write; any other value as it is."""
    return value.item() if isinstance(value, np.generic) else value


class ShapeError(ValueError):
    """Tensor or layer dimensions do not line up."""


class ConfigError(ValueError):
    """Invalid hyperparameters or configuration values."""


class InvalidInputError(ValueError):
    """Input values outside the accepted domain (non-finite, bad range)."""


class NotLinearizableError(RuntimeError):
    """Network fails the chunk-equals-stride / unit-stride conditions.

    Carries the offending report, and its violations joined as reasons,
    so callers can surface layer names.
    """

    def __init__(self, report):
        self.report = report
        self.reasons = "; ".join(f"{lid}: {reason}" for lid, reason in report.violations)
        super().__init__(f"network is not linearizable: {self.reasons}")


class CalibrationError(RuntimeError):
    """Calibration stream too short or ranges missing for a stage."""


class ModelFileError(RuntimeError):
    """Base class for model file load/save failures."""


class BadMagicError(ModelFileError):
    pass


class VersionError(ModelFileError):
    pass


class TruncatedError(ModelFileError):
    pass


class ManifestError(ModelFileError):
    """Manifest inconsistent with itself or with the blob section."""
