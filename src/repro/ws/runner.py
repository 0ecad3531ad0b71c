"""The public run API.

Typical use::

    from repro.uts.params import T3S
    from repro.ws import run_uts

    result = run_uts(tree=T3S, nranks=64, selector="tofu",
                     steal_policy="half", allocation="1/N")
    print(result.summary())

Everything accepts either resolved strategy objects or the string
shorthands of :mod:`repro.core.config`.
"""

from __future__ import annotations

from repro.core.config import WorkStealingConfig
from repro.sim.cluster import Cluster
from repro.uts.params import TreeParams
from repro.ws.results import RunResult

__all__ = ["run_uts"]


def run_uts(
    config: WorkStealingConfig | None = None,
    *,
    tree: TreeParams | None = None,
    nranks: int | None = None,
    max_events: int | None = None,
    **config_kwargs,
) -> RunResult:
    """Run one distributed UTS execution and return its results.

    Either pass a prebuilt :class:`WorkStealingConfig` as ``config``,
    or pass ``tree``, ``nranks`` and any other config fields as
    keyword arguments.

    Tracing knobs (both leave the simulation itself unchanged):
    ``trace=True`` attaches the per-rank activity trace, derived from
    the workers' idle logs, behind ``result.trace`` and the SL/EL
    metrics.  The trace is part of the stored result, so it is part of
    the fingerprint too.  ``event_trace=True`` additionally captures
    the structured steal-event stream behind ``result.events`` for
    :class:`repro.trace.TraceAnalysis` and the Chrome-trace exporter
    (``python -m repro.trace``); the stream is never stored, so it
    keeps the fingerprint.

    Speedup and efficiency are taken against the extrapolated
    single-process time: the tree's node count times
    ``per_node_time``.

    Parameters
    ----------
    max_events:
        Override the simulator's event budget.
    """
    if config is None:
        if tree is None or nranks is None:
            raise TypeError(
                "run_uts needs either a config or tree= and nranks="
            )
        config = WorkStealingConfig(tree=tree, nranks=nranks, **config_kwargs)
    elif tree is not None or nranks is not None or config_kwargs:
        raise TypeError(
            "pass either a config object or keyword fields, not both"
        )
    engine = Cluster(config, max_events=max_events)
    try:
        return RunResult.from_outcome(engine.run())
    finally:
        # Finished workers, stacks and latency rows go back to the
        # reference counter now, not at some later gen-2 collection.
        engine.teardown()
