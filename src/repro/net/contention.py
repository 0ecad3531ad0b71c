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
        # Plain lists of Python ints/floats: the engine reads them on
        # every simulated message, and the same float64 arithmetic on
        # numpy scalars costs several times more (and leaks
        # ``np.float64`` into the engine's heap keys).
        self.rank_nodes: list[int] = [int(node) for node in rank_nodes]
        self.service_time = float(service_time)
        n_nodes = max(self.rank_nodes) + 1 if self.rank_nodes else 0
        #: ``port_free[n]`` = when node ``n``'s port is next free.
        self.port_free: list[float] = [0.0] * n_nodes

    def inject(self, rank: int, now: float) -> float:
        """Account for rank ``rank``'s node port taking a message at
        time ``now``; returns the time the port is done with it.

        A send takes the source node's port at injection and the
        destination node's at arrival (the DMA engines are shared both
        ways).  ``repro.sim.cluster`` writes this arithmetic out on
        its send paths; this method is the reference the test oracle
        runs.
        """
        service = self.service_time
        if service <= 0.0:
            return now
        node = self.rank_nodes[rank]
        free = self.port_free[node]
        depart = (now if now >= free else free) + service
        self.port_free[node] = depart
        return depart
