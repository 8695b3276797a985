"""Exception types shared across the package."""


class XbarError(Exception):
    """Base class for all xbar errors."""


class PowerRangeError(XbarError, ValueError):
    """Heater power outside the shifter's allowed range."""


class InfeasibleError(XbarError, ValueError):
    """Requested device target cannot be realized (e.g. loss-limited Q)."""


class ShapeError(XbarError, ValueError):
    """Array shape inconsistent with the crossbar size."""


class EncodingError(XbarError, ValueError):
    """Value cannot be mapped onto a physical transmittance."""


class DataFormatError(XbarError, ValueError):
    """Malformed dataset file; message carries the position of the defect."""


class ConfigError(XbarError, ValueError):
    """Run configuration failed schema validation."""
