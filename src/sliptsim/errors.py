"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class DomainError(SimError, ValueError):
    """An argument is outside the physical domain of an operation."""


class GeometryError(DomainError):
    """Degenerate link geometry (e.g. a zero-width beam)."""


class FrameError(SimError):
    """A command frame failed sync, length, CRC, or opcode checks."""


class ConfigError(SimError, ValueError):
    """A scenario configuration value is missing, malformed, or invalid.

    Carries the config path of the offending entry so CLI diagnostics
    can point at it.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class NeverFullError(SimError):
    """time_to_full was asked for a store that is not charging."""
