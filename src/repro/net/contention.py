"""Optional per-node NIC serialisation.

When several MPI processes share a compute node they also share its
network interfaces.  The paper observes that "allocating several MPI
processes by compute node results in a worse performance than using a
single process per node" — part of that penalty is injection
serialisation: two ranks on one node cannot inject messages at the
same instant.

:class:`NicContention` is a minimal FIFO-service model: each compute
node has a single injection port that takes ``service_time`` seconds
per message.  A message handed to the NIC at time ``t`` leaves at
``max(t, port_free) + service_time``; the port is then busy until that
moment.  Disabled (``service_time = 0``) it is an exact no-op, which
tests verify.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["NicContention"]


class NicContention:
    """FIFO injection-port model, one port per compute node.

    Parameters
    ----------
    rank_nodes:
        ``rank_nodes[r]`` = compute node of rank ``r``.
    service_time:
        Seconds the port is occupied per injected message; 0 disables
        the model.
    """

    def __init__(self, rank_nodes, service_time: float = 0.0):
        if service_time < 0:
            raise ConfigurationError(
                f"service_time must be >= 0, got {service_time}"
            )
        # Plain lists of Python ints/floats: ``inject`` runs twice per
        # simulated message, and the same float64 arithmetic on numpy
        # scalars costs several times more (and leaks ``np.float64``
        # into the engine's heap keys).
        self._rank_nodes: list[int] = [int(node) for node in rank_nodes]
        self.service_time = float(service_time)
        n_nodes = max(self._rank_nodes) + 1 if self._rank_nodes else 0
        self._port_free: list[float] = [0.0] * n_nodes

    def inject(self, rank: int, now: float) -> float:
        """Account for rank ``rank`` injecting a message at time ``now``.

        Returns the time the message actually enters the network (the
        send timestamp to which wire latency is added).
        """
        service = self.service_time
        if service <= 0.0:
            return now
        node = self._rank_nodes[rank]
        free = self._port_free[node]
        depart = (now if now >= free else free) + service
        self._port_free[node] = depart
        return depart

    def deliver(self, rank: int, now: float) -> float:
        """Account for rank ``rank`` receiving a message at time ``now``.

        Reception occupies the same node port as injection (the DMA
        engines are shared both ways); returns the time the message is
        actually handed to the rank.
        """
        return self.inject(rank, now)
