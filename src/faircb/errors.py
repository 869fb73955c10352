"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FairCBError",
    "EnumerationTooLarge",
    "Infeasible",
    "GenerationFailed",
    "ParseError",
    "NormalizationError",
    "UnsupportedConstruct",
    "NodeNotFound",
    "SensitiveNotBinary",
]


class FairCBError(Exception):
    """Base class for package specific failures."""


class EnumerationTooLarge(FairCBError):
    """Joint support of the required nodes exceeds the enumeration cap."""


class Infeasible(FairCBError):
    """The allocation program has no feasible point."""


class GenerationFailed(FairCBError):
    """Instance generation exhausted its retry budget."""


class ParseError(FairCBError):
    """Malformed network file."""


class NormalizationError(FairCBError):
    """A table row is too far from summing to one."""


class UnsupportedConstruct(FairCBError):
    """The network file uses a construct outside the discrete subset."""


class NodeNotFound(FairCBError):
    """A designated node id is absent from the network."""


class SensitiveNotBinary(FairCBError):
    """The designated sensitive node does not have exactly two states."""
