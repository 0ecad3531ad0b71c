"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` and friends
propagate unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class RegistryError(ConfigurationError):
    """A strategy name failed to resolve through :mod:`repro.core.registry`.

    Raised (with the valid choices listed) for unknown names, bad
    pattern parameters and malformed registrations.  Subclasses
    :class:`ConfigurationError` so existing callers that catch the
    broader class keep working.
    """


class ServiceError(ReproError):
    """The simulation service was used in an invalid state."""


class TopologyError(ReproError):
    """A topology or coordinate operation was invalid (bad dims, out of range)."""


class AllocationError(ReproError):
    """A process allocation could not be constructed (not enough nodes, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class TerminationError(SimulationError):
    """Distributed termination detection failed (early or missed detection)."""


class StackError(ReproError):
    """Illegal operation on a work-stealing stack (e.g. stealing the private chunk)."""


class TraceError(ReproError):
    """A phase trace is malformed (unsorted, inconsistent transitions)."""

