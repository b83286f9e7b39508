"""Exception types shared across the package.

Every guard in the library raises one of these (or plain ValueError for
mundane bad arguments) so that the CLI can map failures to exit codes and
name the violated constraint in its message.
"""


class MherzError(Exception):
    """Base class for all package-specific errors."""


class GridSizeError(MherzError):
    """Requested grid exceeds the memory guard."""


class AlignmentError(MherzError):
    """Geometry does not land on cell boundaries."""


class DataError(MherzError):
    """Non-finite or otherwise unusable sample values."""


class RectangleError(MherzError):
    """Empty rectangle, or rectangle/annulus outside the grid."""


class SupportWindowError(MherzError):
    """Function has mass outside the dyadic annulus window."""


class PredicateError(MherzError):
    """An exponent-parameter predicate fails; message carries the inequality."""


class CostGuardError(MherzError):
    """Operation refused because it exceeds its declared cost gate."""


class ConfigError(MherzError):
    """Run configuration is malformed; message carries the field path."""
