"""Exception hierarchy shared across the package.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch the whole family with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """An invalid parameter combination was supplied by the caller."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ProtocolError(ReproError):
    """A protocol state machine received an input it cannot process."""


class CrashedProcessError(ReproError):
    """An operation was attempted on a crashed process."""


class StorageUnavailableError(ReproError):
    """A client exhausted its retries without completing an operation."""


class PlacementStaleError(StorageUnavailableError):
    """A client chased placement redirects past its budget.

    Raised by the sharded :class:`~repro.runtime.sharded.BlockStore` when an
    operation keeps landing on servers that no longer host its block —
    the placement table moved faster than the client could follow.  A
    subclass of :class:`StorageUnavailableError` so existing callers that
    treat unavailability generically keep working."""


class HistoryError(ReproError):
    """An operation history is malformed (e.g. response without invocation)."""
