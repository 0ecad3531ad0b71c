"""Build protocol plans and workers from a config.

The engine (:class:`repro.sim.cluster.Cluster`) and the tests'
reference oracle call :func:`build_plan` and :func:`make_workers` once
per run, so a protocol knob added to the config is automatically
honoured by both — the precondition for the bit-identity contract.
"""

from __future__ import annotations

from repro.protocol.core import ProtocolPlan, Worker
from repro.protocol.regions import RegionMap

__all__ = ["build_plan", "make_workers"]


def build_plan(config, placement) -> ProtocolPlan:
    """The run-wide :class:`ProtocolPlan` of ``config`` on ``placement``."""
    regions = (
        RegionMap.build(config.nranks, config.regions, placement.rank_nodes)
        if config.regions > 0 and config.nranks > 1
        else None
    )
    return ProtocolPlan(
        forward=config.protocol == "forward",
        forward_ttl=config.forward_ttl,
        regions=regions,
        region_attempts=config.region_attempts,
        lifeline_count=config.lifelines,
        lifeline_threshold=config.lifeline_threshold,
        lifeline_graph=config.lifeline_graph,
        seed=config.seed,
    )


def make_workers(
    config,
    placement,
    plan: ProtocolPlan,
    generator,
    transport,
    event_streams=None,
) -> list[Worker]:
    """Construct every rank's worker, its victim selector bound by one
    :meth:`~repro.core.victim.SelectorFactory.make_all` per job
    (lifelines are ``plan.lifeline_count``; rank ``r`` records into
    ``event_streams[r]`` when given)."""
    nranks = config.nranks
    selectors = (
        config.selector.make_all(nranks, placement, seed=config.seed)
        if nranks > 1
        else [None]
    )
    return [
        Worker(
            rank=rank,
            nranks=nranks,
            generator=generator,
            selector=selectors[rank],
            policy=config.steal_policy,
            transport=transport,
            chunk_size=config.chunk_size,
            poll_interval=config.poll_interval,
            per_node_time=config.per_node_time,
            steal_service_time=config.steal_service_time,
            events=event_streams[rank] if event_streams else None,
            plan=plan,
        )
        for rank in range(nranks)
    ]
