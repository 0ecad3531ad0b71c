"""Splittable random number generators for implicit tree generation.

UTS derives the whole tree from a single root seed: every node owns an
RNG *state*, its children's states are obtained by hashing
``(parent_state, child_index)``, and the node's own randomness (how
many children it has) is extracted from its state.  This makes the tree
a pure function of the parameters — every process can expand any node
it holds, with no communication and no coordination.

Two backends are provided:

:class:`Sha1Backend`
    Faithful to the reference UTS, which uses SHA-1 as the splitting
    hash.  States are 64-bit truncations of SHA-1 digests.  Scalar only
    (hashlib cannot be vectorised), so it is the *fidelity* backend:
    used in tests and small runs to pin down determinism.

:class:`SplitMix64Backend`
    A SplitMix64-style mixing function over uint64, fully vectorised
    with NumPy.  This is the *speed* backend used by the large
    simulation sweeps; per the HPC guides, the hot loop (millions of
    node expansions) must be array code, not Python-level hashing.

Both backends map ``uint64 state -> uint64 child state`` and extract a
31-bit uniform integer from a state, mirroring the 31-bit values the
reference UTS extracts from its SHA-1 digests.
"""

from __future__ import annotations

import hashlib
import struct
from abc import ABC, abstractmethod

import numpy as np

from repro.core.registry import registry_for
from repro.errors import ConfigurationError

__all__ = [
    "UINT31_MAX",
    "RngBackend",
    "Sha1Backend",
    "SplitMix64Backend",
    "backend_by_name",
]

#: Exclusive upper bound of the 31-bit uniform draws (matches UTS).
UINT31_MAX = 1 << 31

_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / phi, the SplitMix64 increment
_SHA1_PAIR = struct.Struct(">QI")  # (parent_state, child_index) payload


class RngBackend(ABC):
    """Interface of a splittable RNG over 64-bit states.

    All methods are pure: the same inputs always produce the same
    outputs, on any platform, which is what makes UTS trees portable.
    """

    #: Short identifier used in configs and reports.
    name: str = "abstract"

    @abstractmethod
    def root_state(self, seed: int) -> int:
        """Return the state of the tree root for an integer ``seed``."""

    @abstractmethod
    def spawn(self, state: int, index: int) -> int:
        """Return the state of child ``index`` of a node with ``state``."""

    def to_uint31(self, state: int) -> int:
        """Extract a uniform integer in ``[0, 2**31)`` from ``state``.

        The top bits of the mixed state are used; for both backends the
        state is already the output of a strong mixing step.
        """
        return int(state) >> 33

    def to_prob(self, state: int) -> float:
        """Extract a uniform float in ``[0, 1)`` from ``state``."""
        return self.to_uint31(state) / UINT31_MAX

    # ------------------------------------------------------------------
    # Vectorised API
    # ------------------------------------------------------------------

    @abstractmethod
    def spawn_array(self, states: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`spawn` over matching arrays of states/indices."""

    def to_uint31_array(self, states: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`to_uint31`."""
        states = np.asarray(states, dtype=np.uint64)
        return (states >> _U64(33)).astype(np.int64)


class Sha1Backend(RngBackend):
    """SHA-1 splittable RNG, the hash family used by the reference UTS.

    A node state is the first 8 bytes (big-endian) of a SHA-1 digest.
    Spawning child ``i`` hashes the 8-byte parent state concatenated
    with the 4-byte child index, exactly one compression-function call
    per node, like UTS.
    """

    name = "sha1"

    def root_state(self, seed: int) -> int:
        digest = hashlib.sha1(struct.pack(">q", seed)).digest()
        return int.from_bytes(digest[:8], "big")

    def spawn(self, state: int, index: int) -> int:
        payload = _SHA1_PAIR.pack(state & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFF)
        digest = hashlib.sha1(payload).digest()
        return int.from_bytes(digest[:8], "big")

    def spawn_array(self, states: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Batched :meth:`spawn` without per-element boxing overhead.

        SHA-1 itself cannot be vectorised, but hoisting the struct
        packer, the hash constructor and the int conversion out of the
        loop — and iterating plain Python ints instead of NumPy
        scalars — makes batch spawning several times faster than
        calling :meth:`spawn` per element, bit for bit the same.
        """
        states = np.asarray(states, dtype=np.uint64)
        indices = np.asarray(indices, dtype=np.uint64)
        if states.shape != indices.shape:
            raise ConfigurationError(
                f"states shape {states.shape} != indices shape {indices.shape}"
            )
        pack = _SHA1_PAIR.pack
        sha1 = hashlib.sha1
        from_bytes = int.from_bytes
        out = [
            from_bytes(sha1(pack(s, i & 0xFFFFFFFF)).digest()[:8], "big")
            for s, i in zip(states.ravel().tolist(), indices.ravel().tolist())
        ]
        return np.array(out, dtype=np.uint64).reshape(states.shape)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser (Stafford variant 13) over a uint64 array."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _mix64_scalar(z: int) -> int:
    mask = 0xFFFFFFFFFFFFFFFF
    z &= mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class SplitMix64Backend(RngBackend):
    """SplitMix64-style splittable RNG, vectorised over NumPy arrays.

    Child states are ``mix64(parent + (index + 1) * GOLDEN)``: the
    golden-ratio increment decorrelates sibling indices and the
    finaliser provides avalanche, the same construction SplitMix64 uses
    for its output stream.  Roughly 100x faster than the SHA-1 backend
    when driven through :meth:`spawn_array`.
    """

    name = "splitmix64"

    def root_state(self, seed: int) -> int:
        return _mix64_scalar((seed & 0xFFFFFFFFFFFFFFFF) ^ 0xA076_1D64_78BD_642F)

    def spawn(self, state: int, index: int) -> int:
        mask = 0xFFFFFFFFFFFFFFFF
        z = (state + (index + 1) * _GOLDEN) & mask
        return _mix64_scalar(z)

    def spawn_array(self, states: np.ndarray, indices: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.uint64)
        indices = np.asarray(indices, dtype=np.uint64)
        if states.shape != indices.shape:
            raise ConfigurationError(
                f"states shape {states.shape} != indices shape {indices.shape}"
            )
        with np.errstate(over="ignore"):
            z = states + (indices + _U64(1)) * _U64(_GOLDEN)
            return _mix64(z)


_BACKENDS = registry_for("rng_backend")
_BACKENDS.register(Sha1Backend.name, Sha1Backend)
_BACKENDS.register(SplitMix64Backend.name, SplitMix64Backend)


def backend_by_name(name: str) -> RngBackend:
    """Instantiate an RNG backend by its :attr:`RngBackend.name`.

    Thin wrapper over ``registry.resolve("rng_backend", name)``.
    """
    return _BACKENDS.resolve(name)  # type: ignore[return-value]
