"""Run configuration for distributed work-stealing executions.

:class:`WorkStealingConfig` gathers every knob of a run — tree,
process count, placement, victim selection, steal policy, timing
constants — validates it eagerly, and resolves string shorthands
(``selector="tofu"``, ``steal_policy="half"``) into the concrete
strategy objects.

Timing constants and their paper anchors:

``node_time``
    Seconds of compute per tree node at one SHA round.  The paper
    measures "an average of 970000 nodes per second" on the K Computer
    — ``1e-6`` approximates it.
``compute_rounds``
    The work-granularity knob of §V-B ("the UTS parameter dictating
    the number of SHA rounds to execute when creating a node"); scales
    per-node compute time linearly.
``poll_interval``
    Nodes expanded between MPI progress polls; pending steal requests
    are answered at poll boundaries, modelling that "a process stealing
    work will in fact post a request to its victim by a message, and
    the victim will stop working on its queue to package work".
``steal_service_time``
    Seconds the victim spends packaging a steal response.
``transfer_time_per_node``
    Payload (bandwidth) cost per stolen node added to the response
    latency.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

from repro.core import registry
from repro.core.steal_policy import StealPolicy
from repro.core.victim import SelectorFactory
from repro.errors import ConfigurationError
from repro.net.allocation import ProcessAllocation
from repro.net.latency import (
    HierarchicalLatency,
    KComputerLatency,
    LatencyModel,
    latency_model_from_spec,
)
from repro.net.topology import Topology
from repro.uts.params import TreeParams, tree_by_name
from repro.uts.rng import RngBackend

__all__ = [
    "WorkStealingConfig",
    "FINGERPRINT_EXCLUDED_FIELDS",
    "FINGERPRINT_DEFAULT_ELIDED",
    "canonical_json",
    "fingerprint_dict",
]

#: Observability-only fields excluded from config fingerprints.
#: Tracing never changes a run's physics (the determinism suite pins
#: this down bit-for-bit), so two configs differing only in these
#: fields describe the same simulation and must share a fingerprint —
#: otherwise the result cache would re-run identical physics and
#: cached results could not satisfy traced requests.
#:
#: ``engine``, ``shards`` and ``shard_workers`` select nothing (see the
#: fields) and were never hashed.
FINGERPRINT_EXCLUDED_FIELDS = frozenset(
    {
        "event_trace",
        "engine",
        "shards",
        "shard_workers",
    }
)

#: Physics fields elided from fingerprints when they hold their
#: defaults.  These knobs (the steal-protocol axis) *do* change run
#: physics, so non-default values must fingerprint distinctly — but at
#: their defaults they describe exactly the runs that existed before
#: the knobs did, and dropping the key keeps every previously computed
#: fingerprint (and therefore the result cache) byte-stable.  The cost
#: of the convention is conservative only: an inert non-default value
#: (say ``region_attempts=5`` with ``regions=0``) fingerprints apart
#: from the default config — a cache miss, never a wrong cache hit.
FINGERPRINT_DEFAULT_ELIDED = {
    "protocol": "steal",
    "forward_ttl": 2,
    "regions": 0,
    "region_attempts": 2,
    "lifeline_graph": "hypercube",
}

#: Sentinel distinct from every config value (``None`` is a real one).
_MISSING = object()

#: ``TreeParams`` is frozen and holds only scalars, so a shallow field
#: dict is the ``asdict`` payload without its deep copy.
_TREE_FIELDS = tuple(f.name for f in fields(TreeParams))

#: Integer fields: each goes through ``operator.index`` (so a NumPy
#: integer becomes a plain ``int`` and a float is rejected) and may not
#: be a ``bool``.
_INT_FIELDS = (
    "nranks",
    "chunk_size",
    "poll_interval",
    "compute_rounds",
    "seed",
    "node_cap",
    "lifelines",
    "lifeline_threshold",
    "forward_ttl",
    "regions",
    "region_attempts",
    "shards",
    "shard_workers",
)


def canonical_json(data: dict) -> str:
    """Canonical (sorted-key, compact, ASCII-safe) JSON encoding."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint_dict(data: dict) -> str:
    """SHA-256 of a :meth:`WorkStealingConfig.to_dict` payload.

    The fields of :data:`FINGERPRINT_EXCLUDED_FIELDS`, and those of
    :data:`FINGERPRINT_DEFAULT_ELIDED` that hold their defaults, are
    dropped and the rest is hashed as :func:`canonical_json`.  This is
    the one fingerprint rule: :meth:`WorkStealingConfig.fingerprint`
    applies it to the config's own payload, and the batch runner to the
    payload it ships to workers.
    """
    data = {
        k: v for k, v in data.items()
        if k not in FINGERPRINT_EXCLUDED_FIELDS
        and FINGERPRINT_DEFAULT_ELIDED.get(k, _MISSING) != v
    }
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WorkStealingConfig:
    """Everything one distributed UTS run needs.

    String shorthands are accepted for ``tree`` (a name in
    :data:`~repro.uts.params.TREES`), ``allocation``, ``selector``,
    ``steal_policy`` and ``rng_backend``; they are resolved once at
    construction time.

    A config is an immutable value: assigning a field raises
    :class:`dataclasses.FrozenInstanceError`, and a variant is derived
    with :meth:`replace`.  Its identity — :attr:`payload`,
    :meth:`fingerprint` and :meth:`label` — is computed on first use
    and then kept, so a sweep resubmitted with the same config objects
    serializes and hashes each of them once.  A computation that
    raises (a strategy that is not name-addressable) is not kept, and
    raises again on the next call.
    """

    #: Unhashable, as before the class was frozen: equality compares
    #: strategy objects, and a set or dict of configs keys them by
    #: :meth:`fingerprint` instead.
    __hash__ = None  # type: ignore[assignment]

    tree: TreeParams
    nranks: int
    allocation: ProcessAllocation | str = "1/N"
    selector: SelectorFactory | str = "reference"
    steal_policy: StealPolicy | str = "one"
    latency_model: LatencyModel | None = None
    #: ``f(n_nodes) -> Topology``; a registered name (``"tofu"``,
    #: ``"flat"``) is kept as the string so the config
    #: stays serializable — :func:`repro.net.allocation.build_placement`
    #: resolves it.  ``None`` means the Tofu default.
    topology_factory: Callable[[int], Topology] | str | None = None

    chunk_size: int = 20
    poll_interval: int = 10
    node_time: float = 1e-6
    compute_rounds: int = 1
    steal_service_time: float = 1e-6
    transfer_time_per_node: float = 5e-9
    nic_service_time: float = 0.0
    clock_skew_std: float = 0.0

    rng_backend: RngBackend | str = "splitmix64"
    seed: int = 0
    trace: bool = False
    #: Structured steal-event tracing (:mod:`repro.trace`): gives every
    #: worker a list its steal events are appended to, all of them
    #: kept.  Observability-only — excluded from fingerprints.
    event_trace: bool = False
    node_cap: int = 50_000_000

    #: Lifeline extension (see :mod:`repro.protocol.core`): number of
    #: lifeline partners per rank; 0 disables the scheme entirely.
    lifelines: int = 0
    #: Consecutive failed steals before a rank quiesces onto its
    #: lifelines (only meaningful when ``lifelines > 0``).
    lifeline_threshold: int = 8
    #: Steal-protocol variant (see :mod:`repro.protocol`):
    #: ``"steal"`` is the reference request/response loop; ``"forward"``
    #: relays denied requests toward work instead of failing them.
    protocol: str = "steal"
    #: Maximum relay hops per forwarded request chain (the first victim
    #: spends none; only meaningful, and at least 1, when
    #: ``protocol="forward"``).
    forward_ttl: int = 2
    #: Locality regions for localized stealing: the rank space is cut
    #: into this many allocation-aligned blocks and victim draws try
    #: the rank's own region first.  0 disables the discipline.
    regions: int = 0
    #: Victim draws per work-discovery session aimed intra-region
    #: before the configured selector takes over (``regions > 0``).
    region_attempts: int = 2
    #: Lifeline partner graph (registry kind ``"lifeline_graph"``:
    #: ``"hypercube"``, ``"ring"``, ``"regtree"``); only
    #: meaningful when ``lifelines > 0``.
    lifeline_graph: str = "hypercube"

    #: Validated, fingerprint-excluded and otherwise ignored: every
    #: value runs the one in-process loop of :mod:`repro.sim.cluster`.
    #: The three fields stay only because the frozen
    #: ``benchmarks/ledger/workloads.py:173`` and ``rungs.py:319`` pass
    #: them; the follow-up ``[benchmark]`` PR (ROADMAP 3b: drop
    #: ``shards=8`` from ``scale-4096`` and the ``sim.sharded.…-s4``
    #: rung) removes those callers and then the fields.
    engine: str = "sequential"
    shards: int = 0
    shard_workers: int = 1

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:
                if isinstance(value, bool) or not hasattr(value, "__index__"):
                    raise ConfigurationError(
                        f"{name} must be an integer, got {value!r}"
                    )
                object.__setattr__(self, name, operator.index(value))
        if isinstance(self.tree, str):
            object.__setattr__(self, "tree", tree_by_name(self.tree))
        elif not isinstance(self.tree, TreeParams):
            raise ConfigurationError(
                f"tree must be a TreeParams or a tree name, got {self.tree!r}"
            )
        if self.nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {self.nranks}")
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.poll_interval < 1:
            raise ConfigurationError(
                f"poll_interval must be >= 1, got {self.poll_interval}"
            )
        # Ranges, so NaN (which fails every comparison) is rejected too.
        if not (0 < self.node_time < math.inf):
            raise ConfigurationError(
                f"node_time must be finite and > 0, got {self.node_time}"
            )
        if self.compute_rounds < 1:
            raise ConfigurationError(
                f"compute_rounds must be >= 1, got {self.compute_rounds}"
            )
        for name in (
            "steal_service_time",
            "transfer_time_per_node",
            "nic_service_time",
            "clock_skew_std",
        ):
            if not (0 <= getattr(self, name) < math.inf):
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)}"
                )
        if self.node_cap < 1:
            raise ConfigurationError(
                f"node_cap must be >= 1, got {self.node_cap}"
            )
        if self.lifelines < 0:
            raise ConfigurationError(
                f"lifelines must be >= 0, got {self.lifelines}"
            )
        if self.lifeline_threshold < 1:
            raise ConfigurationError(
                f"lifeline_threshold must be >= 1, got {self.lifeline_threshold}"
            )
        if self.protocol not in ("steal", "forward"):
            raise ConfigurationError(
                f"protocol must be 'steal' or 'forward', got {self.protocol!r}"
            )
        if self.forward_ttl < 0:
            raise ConfigurationError(
                f"forward_ttl must be >= 0, got {self.forward_ttl}"
            )
        if self.protocol == "forward" and self.forward_ttl == 0:
            raise ConfigurationError(
                'protocol="forward" with forward_ttl=0 relays nothing: '
                'use protocol="steal"'
            )
        if self.regions < 0:
            raise ConfigurationError(
                f"regions must be >= 0 (0 = off), got {self.regions}"
            )
        if self.region_attempts < 1:
            raise ConfigurationError(
                f"region_attempts must be >= 1, got {self.region_attempts}"
            )
        # Deferred import: the graph builders register themselves on
        # import, and repro.protocol must stay importable from the
        # worker modules this config layer knows nothing about.
        from repro.protocol import graphs as _graphs  # noqa: F401

        registry.resolve("lifeline_graph", self.lifeline_graph)
        if self.engine not in ("sequential", "sharded"):
            raise ConfigurationError(
                f"engine must be 'sequential' or 'sharded', got {self.engine!r}"
            )
        if self.shards < 0:
            raise ConfigurationError(
                f"shards must be >= 0, got {self.shards}"
            )
        if self.shard_workers < 0:
            raise ConfigurationError(
                f"shard_workers must be >= 0, got {self.shard_workers}"
            )
        # Resolve string shorthands once, all through the single
        # resolution path (repro.core.registry.resolve_spec); resolution
        # is idempotent so derived configs (replace, from_dict)
        # re-validate cleanly with already-resolved strategy objects.
        for field_name, kind in self._SPEC_FIELDS.items():
            object.__setattr__(
                self,
                field_name,
                registry.resolve_spec(kind, getattr(self, field_name)),
            )
        if isinstance(self.latency_model, (str, dict)):
            object.__setattr__(
                self, "latency_model", latency_model_from_spec(self.latency_model)
            )
        if self.latency_model is None:
            object.__setattr__(self, "latency_model", KComputerLatency())
        if isinstance(self.topology_factory, str):
            # Validate eagerly but keep the name: a named topology
            # factory stays serializable, build_placement resolves it.
            registry.resolve("topology", self.topology_factory)
            if self.topology_factory != "tofu" and isinstance(
                self.latency_model, HierarchicalLatency
            ):
                raise ConfigurationError(
                    f"latency_model {self.latency_model.name!r} needs the "
                    f"'tofu' topology, got {self.topology_factory!r}"
                )

    # ------------------------------------------------------------------

    @property
    def per_node_time(self) -> float:
        """Compute seconds consumed per expanded tree node."""
        return self.node_time * self.compute_rounds

    def label(self) -> str:
        """Short human-readable description, e.g. ``tofu/half 8G x128``.

        Computed on the first call and kept (see the class docstring).

        ``__post_init__`` guarantees every strategy field is resolved,
        so the ``.name`` attributes are always present (no ``assert``
        narrowing — asserts vanish under ``python -O``).

        A non-default protocol configuration appends its canonical tag
        (e.g. `` +fwd2+reg8``); the all-default case adds nothing, so
        labels pinned before the protocol layer existed are unchanged.
        """
        return self._label

    @cached_property
    def _label(self) -> str:
        from repro.protocol.variants import protocol_tag

        tag = protocol_tag(self)
        suffix = f" +{tag}" if tag != "steal" else ""
        return (
            f"{self._strategy_name('selector')}/"
            f"{self._strategy_name('steal_policy')} "
            f"{self._strategy_name('allocation')} "
            f"x{self.nranks} [{self.tree.name}]{suffix}"
        )

    def _strategy_name(self, field_name: str) -> str:
        """``.name`` of a resolved strategy field, with a real error."""
        value = getattr(self, field_name)
        name = getattr(value, "name", None)
        if not isinstance(name, str):
            raise ConfigurationError(
                f"{field_name} {value!r} has no usable .name "
                "(was the config constructed without __post_init__?)"
            )
        return name

    def replace(self, **overrides) -> "WorkStealingConfig":
        """Derived config with some fields replaced (sweep helper).

        The derived config goes through ``__post_init__`` again, which
        re-validates every field; already-resolved strategy objects
        pass through untouched (resolution only applies to strings),
        and overrides may themselves be string shorthands.
        """
        unknown = set(overrides) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigurationError(
                f"replace() got unknown config fields: {sorted(unknown)}"
            )
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        kwargs.update(overrides)
        return WorkStealingConfig(**kwargs)

    # ------------------------------------------------------------------
    # Serialization (the repro.exec contract)
    # ------------------------------------------------------------------

    #: Registry kind backing each strategy field's string shorthand.
    _SPEC_FIELDS = {
        "allocation": "allocation",
        "selector": "selector",
        "steal_policy": "steal_policy",
        "rng_backend": "rng_backend",
    }

    def _spec_of(self, field_name: str, kind: str) -> str:
        """Name-addressable spec of a strategy field.

        The spec is the object's ``name``, verified to resolve back to
        an object with the same name — otherwise the config cannot be
        shipped to workers or cached, and we say so eagerly.
        """
        name = self._strategy_name(field_name)
        try:
            resolved = registry.resolve(kind, name)
        except ConfigurationError:
            raise ConfigurationError(
                f"{field_name} {name!r} is not name-addressable: "
                f"register it with repro.core.registry.registry_for"
                f"({kind!r}).register({name!r}, ...) to make the config "
                "serializable"
            ) from None
        if getattr(resolved, "name", None) != name:
            raise ConfigurationError(
                f"{field_name} {name!r} does not round-trip "
                f"(resolves to {getattr(resolved, 'name', None)!r})"
            )
        return name

    def _topology_spec(self) -> str | None:
        if self.topology_factory is None or isinstance(self.topology_factory, str):
            return self.topology_factory
        for name in registry.available("topology"):
            if registry.resolve("topology", name) == self.topology_factory:
                return name
        raise ConfigurationError(
            "topology_factory is not name-addressable: pass a registered "
            f"topology name {registry.available('topology')} (or register "
            "the factory with repro.core.registry) to make the config "
            "serializable"
        )

    def to_dict(self) -> dict:
        """Plain-data description of the run; see :meth:`from_dict`.

        A new dict on every call, the caller's to edit; the config's
        own shared copy is :attr:`payload`.

        Every value is a JSON-serializable primitive: strategies are
        stored as their registry spec strings, the tree and latency
        model as parameter dicts.  Raises
        :class:`~repro.errors.ConfigurationError` if any field is not
        name-addressable (unregistered custom strategy objects).
        """
        return {
            "tree": {name: getattr(self.tree, name) for name in _TREE_FIELDS},
            "nranks": self.nranks,
            "allocation": self._spec_of("allocation", "allocation"),
            "selector": self._spec_of("selector", "selector"),
            "steal_policy": self._spec_of("steal_policy", "steal_policy"),
            "latency_model": self.latency_model.to_spec(),
            "topology_factory": self._topology_spec(),
            "chunk_size": self.chunk_size,
            "poll_interval": self.poll_interval,
            "node_time": self.node_time,
            "compute_rounds": self.compute_rounds,
            "steal_service_time": self.steal_service_time,
            "transfer_time_per_node": self.transfer_time_per_node,
            "nic_service_time": self.nic_service_time,
            "clock_skew_std": self.clock_skew_std,
            "rng_backend": self._spec_of("rng_backend", "rng_backend"),
            "seed": self.seed,
            "trace": self.trace,
            "event_trace": self.event_trace,
            "node_cap": self.node_cap,
            "lifelines": self.lifelines,
            "lifeline_threshold": self.lifeline_threshold,
            "protocol": self.protocol,
            "forward_ttl": self.forward_ttl,
            "regions": self.regions,
            "region_attempts": self.region_attempts,
            "lifeline_graph": self.lifeline_graph,
            "engine": self.engine,
            "shards": self.shards,
            "shard_workers": self.shard_workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkStealingConfig":
        """Rebuild a config from :meth:`to_dict` output.

        ``tree`` may be a parameter dict or a registered tree name;
        unknown keys, here or in the tree dict, raise
        :class:`ConfigurationError`.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"config data must be a dict, got {type(data).__name__}"
            )
        kwargs = dict(data)
        tree = kwargs.pop("tree", None)
        if tree is None:
            raise ConfigurationError("config dict is missing 'tree'")
        if isinstance(tree, dict):
            try:
                tree = TreeParams(**tree)
            except TypeError as exc:
                raise ConfigurationError(f"bad tree dict: {exc}") from None
        unknown = set(kwargs) - {f.name for f in fields(cls) if f.name != "tree"}
        if unknown:
            raise ConfigurationError(
                f"config dict has unknown fields: {sorted(unknown)}"
            )
        return cls(tree=tree, **kwargs)

    def fingerprint(self) -> str:
        """Stable content hash of the run configuration.

        SHA-256 over the canonical (sorted-key, compact) JSON encoding
        of :meth:`to_dict`, minus the observability-only fields in
        :data:`FINGERPRINT_EXCLUDED_FIELDS` — two configs share a
        fingerprint iff they describe the same simulation *physics*
        (event tracing records the run without changing it).  This is
        the key of the :mod:`repro.exec` result cache and batch
        deduplication, and stripping keeps it byte-stable with the
        fingerprints of configs serialized before the fields existed.

        Physics fields listed in :data:`FINGERPRINT_DEFAULT_ELIDED` are
        dropped *only at their default values* — same backward
        stability, but a non-default protocol configuration still
        fingerprints distinctly.

        Computed from :attr:`payload` on the first call and kept.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        return fingerprint_dict(self.payload)

    @cached_property
    def payload(self) -> dict:
        """This config's :meth:`to_dict`, computed once and shared.

        **Read-only.**  :func:`repro.exec.pool.resolve` hands this one
        dict to every consumer of the config — the service's job, the
        store entry, the worker it is shipped to — so a caller that
        wants to edit a payload takes :meth:`to_dict`, which builds a
        new dict on every call.
        """
        return self.to_dict()
