"""Code rows are symmetric: ``values[row(i)[j]] == values[row(j)[i]]``.

The engine walks a quiescent chain's deny wire times off the thief's
own code row (``Cluster._walk``), where the deny is the victim's send;
that is the same time only while the latency between two ranks does not
depend on which one sends.  Every model is held to it, exactly, on
every topology it accepts and the paper's three allocations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.allocation import build_placement
from repro.net.latency import (
    HierarchicalLatency,
    KComputerLatency,
    UniformLatency,
)

MODELS = [UniformLatency(2e-6), HierarchicalLatency(), KComputerLatency()]


@pytest.mark.parametrize("nranks", [3, 33, 100, 256])
@pytest.mark.parametrize("allocation", ["1/N", "8RR", "8G"])
@pytest.mark.parametrize("topology", ["tofu", "flat"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_code_rows_are_symmetric(model, topology, allocation, nranks):
    try:
        placement = build_placement(
            nranks, allocation, latency_model=model, topology_factory=topology
        )
    except ConfigurationError:
        # The model does not run on this topology.
        assert isinstance(model, HierarchicalLatency) and topology == "flat"
        return
    row, values = placement.latency.codes
    wire = np.array(values)[np.stack([row(i) for i in range(nranks)])]
    assert np.array_equal(wire, wire.T)
