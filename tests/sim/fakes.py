"""A scripted transport and a worker wired to it, for unit tests that
drive one rank's state machine without an event loop; and
:class:`WorkerPath`, the worker that takes an engine's every event down
the ``Worker`` path."""

from __future__ import annotations

from repro.core.steal_policy import StealOne
from repro.core.victim import UniformRandomSelector
from repro.protocol.core import Worker
from repro.uts.params import TreeParams
from repro.uts.tree import TreeGenerator

TREE = TreeParams(
    name="fake", tree_type="binomial", root_seed=3, b0=30, m=2, q=0.4
)


class FakeTransport:
    """Records every interaction; no event loop."""

    def __init__(self):
        self.sent: list[tuple[int, int, int, object, float]] = []
        self.execs: list[tuple[int, float]] = []
        self.idles: list[tuple[int, float]] = []
        self.work_sends: list[int] = []

    def send(self, src, dst, tag, body, when):
        self.sent.append((src, dst, tag, body, when))

    def schedule_exec(self, rank, when):
        self.execs.append((rank, when))

    def rank_became_idle(self, rank, when):
        self.idles.append((rank, when))

    def work_sent(self, rank):
        self.work_sends.append(rank)


def make_worker(
    rank=1,
    nranks=8,
    plan=None,
    selector=None,
    policy=None,
    tree=TREE,
    chunk=5,
    poll=4,
):
    """``(worker, transport)``; the selector defaults to uniform random."""
    transport = FakeTransport()
    worker = Worker(
        rank=rank,
        nranks=nranks,
        generator=TreeGenerator(tree),
        selector=selector or UniformRandomSelector().make(rank, nranks, seed=0),
        policy=policy or StealOne(),
        transport=transport,
        chunk_size=chunk,
        poll_interval=poll,
        per_node_time=1e-6,
        steal_service_time=1e-6,
        plan=plan,
    )
    return worker, transport


class WorkerPath(Worker):
    """Changes nothing, but is not ``Worker``: an engine whose ranks it
    builds (patch it in as ``repro.protocol.factory.Worker``) sends
    every event to the ``Worker`` methods, and defers and inlines
    nothing."""

    __slots__ = ()
