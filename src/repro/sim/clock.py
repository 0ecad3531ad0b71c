"""Per-rank clock skew.

The paper's traces are wall-clock timestamps from thousands of nodes
whose clocks are not perfectly synchronised: "Starting times for each
processes were recorded and the trace modified to account for clock
skew" (§III).  The simulator reproduces that pipeline at result time:
:meth:`repro.core.tracing.ActivityTrace.from_idle_log` stamps each
rank's transitions with its offset and corrects them again, so skew
moves no event of the run itself.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ClockSkewModel"]


class ClockSkewModel:
    """Gaussian per-rank clock offsets.

    Parameters
    ----------
    nranks:
        Number of ranks.
    std:
        Standard deviation of the offsets in seconds; 0 disables skew.
    seed:
        Offsets are deterministic given (nranks, std, seed).
    """

    def __init__(self, nranks: int, std: float = 0.0, seed: int = 0):
        if nranks < 1:
            raise ConfigurationError(f"need at least 1 rank, got {nranks}")
        if std < 0:
            raise ConfigurationError(f"std must be >= 0, got {std}")
        if std == 0.0:
            self.offsets = np.zeros(nranks, dtype=np.float64)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC10C]))
            self.offsets = rng.normal(0.0, std, size=nranks)
