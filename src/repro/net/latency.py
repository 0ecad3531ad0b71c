"""Latency models: topological distance -> communication time.

A :class:`LatencyModel` produces the one-way latency matrix between
*ranks* given their node placement.  The paper's mechanism lives here:
on the K Computer "communication between two MPI processes on the same
CPU, or on the same blade will potentially be faster than across racks
(more network hops are necessary)", and "a communication between two
processes can go through more than 10 hops".

Latency anchors (defaults of :class:`KComputerLatency`) are calibrated
to published Tofu numbers: ~1 us one-way MPI latency between adjacent
nodes, ~100 ns additional per hop, sub-microsecond shared-memory
transport within a node, and the intermediate blade/cube transports in
between.  The *shape* of the experiments depends on the ratio between
near and far latencies, not on the absolute values.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.registry import registry_for
from repro.errors import ConfigurationError
from repro.net.topology import TofuTopology, Topology

__all__ = [
    "LatencyModel",
    "UniformLatency",
    "HopLatency",
    "HierarchicalLatency",
    "KComputerLatency",
    "latency_model_from_spec",
]


class LatencyModel(ABC):
    """Interface: build a rank-pair latency matrix for a placement."""

    name: str = "abstract"

    @abstractmethod
    def matrix(self, topology: Topology, rank_nodes: np.ndarray) -> np.ndarray:
        """One-way latency in seconds for every rank pair.

        Parameters
        ----------
        topology:
            The node topology.
        rank_nodes:
            ``rank_nodes[r]`` is the compute node hosting rank ``r``.

        Returns
        -------
        ``(nranks, nranks)`` float array, symmetric, zero diagonal.
        """

    @staticmethod
    def _validate(latency: np.ndarray) -> np.ndarray:
        if np.any(latency < 0):
            raise ConfigurationError("negative latency produced")
        np.fill_diagonal(latency, 0.0)
        return latency

    def code_rows(self, topology: Topology, rank_nodes: np.ndarray):
        """Return ``(code_row, values)`` with ``values[code_row(i)]``
        the latency row of rank ``i``.

        A model's rows take a handful of distinct values, so a row is
        stored as ``N`` small unsigned integers (the narrowest width
        that indexes ``values``: one byte per rank pair unless a
        topology has hundreds of hop classes) and ``values`` is one
        list of Python floats per job.  This is the form the engine
        keeps (:mod:`repro.sim.cluster`); the built-in models implement
        it row-lazily so paper-scale placements never hold an N x N
        float array.  This default falls back to :meth:`matrix`
        (dense!) and only exists so custom third-party models keep
        working.
        """
        unique, inverse = np.unique(
            self.matrix(topology, rank_nodes), return_inverse=True
        )
        values = unique.tolist()
        n = len(rank_nodes)
        codes = inverse.reshape(n, n).astype(_code_dtype(values))
        return codes.__getitem__, values

    @staticmethod
    def float_rows(code_row, values):
        """``f(i) -> float64 latency row`` decoded from :meth:`code_rows`."""
        table = np.array(values, dtype=np.float64)

        def row(i: int) -> np.ndarray:
            return table.take(code_row(i))

        return row

    def to_spec(self) -> dict:
        """Serializable description: ``{"kind": ..., <float params>}``.

        Round-trips through :func:`latency_model_from_spec`; the float
        parameters are exactly the constructor keywords, so any model
        whose constructor accepts its own ``vars()`` floats serializes
        for free.
        """
        spec: dict = {"kind": self.name}
        spec.update(
            (k, float(v))
            for k, v in vars(self).items()
            if isinstance(v, (int, float)) and not k.startswith("_")
        )
        return spec


def _code_dtype(values: list[float]) -> np.dtype:
    """The narrowest unsigned dtype that indexes a value table (uint8
    up to 256 values, then uint16, ...); rejects a negative latency."""
    if min(values) < 0:
        raise ConfigurationError("negative latency produced")
    return np.min_scalar_type(len(values) - 1)


def _hop_values(base: float, per_hop: float, max_hops: int) -> list[float]:
    """``base + per_hop * h`` for ``h`` in ``0..max_hops`` — the
    :meth:`LatencyModel.matrix` expression itself, so each entry is
    the float a dense row holds for that hop count."""
    hops = np.arange(max_hops + 1, dtype=np.int64)
    return (base + per_hop * hops.astype(np.float64)).tolist()


class UniformLatency(LatencyModel):
    """Every distinct rank pair has the same latency (null model).

    Under this model all victims cost the same, so victim selection
    can only matter through failed-steal counts — the configuration
    most prior work implicitly assumed.
    """

    name = "uniform"

    def __init__(self, latency: float = 5e-6):
        if latency < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency}")
        self.latency = float(latency)

    def matrix(self, topology: Topology, rank_nodes: np.ndarray) -> np.ndarray:
        n = len(rank_nodes)
        out = np.full((n, n), self.latency, dtype=np.float64)
        return self._validate(out)

    def code_rows(self, topology: Topology, rank_nodes: np.ndarray):
        n = len(rank_nodes)
        values = [0.0, self.latency]
        dtype = _code_dtype(values)

        def code_row(i: int) -> np.ndarray:
            out = np.ones(n, dtype=dtype)
            out[i] = 0
            return out

        return code_row, values


class HopLatency(LatencyModel):
    """``base + per_hop * hops`` with a shared-memory intra-node fast path."""

    name = "hop"

    def __init__(
        self,
        base: float = 1e-6,
        per_hop: float = 1e-7,
        intra_node: float = 4e-7,
    ):
        if min(base, per_hop, intra_node) < 0:
            raise ConfigurationError("latency components must be >= 0")
        self.base = float(base)
        self.per_hop = float(per_hop)
        self.intra_node = float(intra_node)

    def matrix(self, topology: Topology, rank_nodes: np.ndarray) -> np.ndarray:
        rank_nodes = np.asarray(rank_nodes, dtype=np.int64)
        hops = topology.hops_matrix(rank_nodes).astype(np.float64)
        out = self.base + self.per_hop * hops
        same_node = rank_nodes[:, None] == rank_nodes[None, :]
        out[same_node] = self.intra_node
        return self._validate(out)

    def code_rows(self, topology: Topology, rank_nodes: np.ndarray):
        rank_nodes = np.asarray(rank_nodes, dtype=np.int64)
        hops_row = topology.hops_rows(rank_nodes)
        # A hop count is its own code; the two constants follow.
        values = _hop_values(self.base, self.per_hop, topology.diameter())
        zero = len(values)
        values += [0.0, self.intra_node]
        dtype = _code_dtype(values)

        def code_row(i: int) -> np.ndarray:
            out = hops_row(i).astype(dtype)
            out[rank_nodes == rank_nodes[i]] = zero + 1
            out[i] = zero
            return out

        return code_row, values


class HierarchicalLatency(LatencyModel):
    """Distinct transports per hierarchy level of a Tofu topology.

    Levels (first match wins): same compute node -> ``intra_node``;
    same blade -> ``blade``; same cube -> ``cube``; otherwise
    ``base + per_hop * hops`` across the cube torus.
    """

    name = "hierarchical"

    def __init__(
        self,
        intra_node: float = 4e-7,
        blade: float = 8e-7,
        cube: float = 1.2e-6,
        base: float = 1.5e-6,
        per_hop: float = 2e-7,
    ):
        if min(intra_node, blade, cube, base, per_hop) < 0:
            raise ConfigurationError("latency components must be >= 0")
        if not intra_node <= blade <= cube:
            raise ConfigurationError(
                "expected intra_node <= blade <= cube latency ordering"
            )
        self.intra_node = float(intra_node)
        self.blade = float(blade)
        self.cube = float(cube)
        self.base = float(base)
        self.per_hop = float(per_hop)

    def matrix(self, topology: Topology, rank_nodes: np.ndarray) -> np.ndarray:
        if not isinstance(topology, TofuTopology):
            raise ConfigurationError(
                "HierarchicalLatency requires a TofuTopology "
                f"(got {type(topology).__name__}); use HopLatency instead"
            )
        rank_nodes = np.asarray(rank_nodes, dtype=np.int64)
        coords = topology.space.coords_of_many(rank_nodes)
        cube_xyz = coords[:, :3]
        blade_id = coords[:, [0, 1, 2, 4]]  # (x, y, z, b)

        # Torus hop distance across the cube grid only (the long-haul
        # component); in-cube hops are folded into the level constants.
        dims = np.array(topology.cube_grid, dtype=np.int64)
        raw = np.abs(cube_xyz[:, None, :] - cube_xyz[None, :, :])
        hops = np.minimum(raw, dims[None, None, :] - raw).sum(axis=2)

        out = self.base + self.per_hop * hops.astype(np.float64)
        in_cube = (cube_xyz[:, None, :] == cube_xyz[None, :, :]).all(axis=2)
        in_blade = (blade_id[:, None, :] == blade_id[None, :, :]).all(axis=2)
        same_node = rank_nodes[:, None] == rank_nodes[None, :]
        out[in_cube] = self.cube
        out[in_blade] = self.blade
        out[same_node] = self.intra_node
        return self._validate(out)

    def code_rows(self, topology: Topology, rank_nodes: np.ndarray):
        if not isinstance(topology, TofuTopology):
            raise ConfigurationError(
                "HierarchicalLatency requires a TofuTopology "
                f"(got {type(topology).__name__}); use HopLatency instead"
            )
        rank_nodes = np.asarray(rank_nodes, dtype=np.int64)
        coords = topology.space.coords_of_many(rank_nodes)
        # Torus hops across the cube grid only: the first three (all
        # wrapping) dimensions of the Tofu space.
        cube_hops = topology.space.delta_sum_rows(coords, ndims=3)
        # Node ids are row-major with the in-cube dims fastest, so the
        # cube (x, y, z) and the blade (x, y, z, b) are one integer each.
        cube_key = rank_nodes // topology.NODES_PER_CUBE
        blade_key = cube_key * topology.CUBE_DIMS[1] + coords[:, 4]
        # A hop count is its own code; the four constants follow.
        values = _hop_values(
            self.base, self.per_hop, sum(d // 2 for d in topology.cube_grid)
        )
        zero = len(values)
        values += [0.0, self.intra_node, self.blade, self.cube]
        dtype = _code_dtype(values)

        def code_row(i: int) -> np.ndarray:
            out = cube_hops(i).astype(dtype)
            out[cube_key == cube_key[i]] = zero + 3
            out[blade_key == blade_key[i]] = zero + 2
            out[rank_nodes == rank_nodes[i]] = zero + 1
            out[i] = zero
            return out

        return code_row, values


class KComputerLatency(HierarchicalLatency):
    """Default calibration standing in for the K Computer (see module docs)."""

    name = "kcomputer"

    def __init__(self) -> None:
        super().__init__(
            intra_node=4e-7,
            blade=8e-7,
            cube=1.2e-6,
            base=1.5e-6,
            per_hop=2e-7,
        )

    def to_spec(self) -> dict:
        # The calibration is fixed by the constructor; no params needed.
        return {"kind": self.name}


_LATENCIES = registry_for("latency_model")
_LATENCIES.register(UniformLatency.name, UniformLatency)
_LATENCIES.register(HopLatency.name, HopLatency)
_LATENCIES.register(HierarchicalLatency.name, HierarchicalLatency)
_LATENCIES.register(KComputerLatency.name, KComputerLatency)


def latency_model_from_spec(spec: dict | str) -> LatencyModel:
    """Rebuild a latency model from :meth:`LatencyModel.to_spec` output.

    Also accepts a bare kind string (``"kcomputer"``) meaning the
    model's default parameters.
    """
    if isinstance(spec, str):
        return _LATENCIES.resolve(spec)  # type: ignore[return-value]
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(
            f"latency spec must be a {{'kind': ...}} dict or a name, got {spec!r}"
        )
    params = {k: v for k, v in spec.items() if k != "kind"}
    return _LATENCIES.resolve(spec["kind"], **params)  # type: ignore[return-value]
