"""Exception types shared across the package, and the one whole-number test."""

import numpy as np


def is_whole(value) -> bool:
    """An int or numpy integer and not a bool: a bool is no count or size."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
