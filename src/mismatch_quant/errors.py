"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MismatchQuantError",
    "ZeroMassBin",
    "DegenerateDesign",
    "DivergentIntegral",
    "ZeroEvidence",
]


class MismatchQuantError(Exception):
    """Base class for every error raised by this package."""


class ZeroMassBin(MismatchQuantError):
    """A quantization bin carries (numerically) no probability mass."""


class DegenerateDesign(MismatchQuantError):
    """The quantizer design collapsed, leaving an empty bin."""


class DivergentIntegral(MismatchQuantError):
    """A required integral diverges or cannot be evaluated to tolerance."""


class ZeroEvidence(MismatchQuantError):
    """A channel output has zero marginal probability under the source."""
