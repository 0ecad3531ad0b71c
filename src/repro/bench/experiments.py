"""Calibrated experiment space for the paper reproduction.

The paper ran on 1024—8192 K Computer nodes with trees of 2.8e9 and
1.57e11 nodes.  The reproduction compresses both axes (DESIGN.md §2):

* rank ladders — :data:`SMALL_LADDER` (8—128, Fig 2's band) and
  :data:`LARGE_LADDER` (64—512, standing in for 1024—8192);
* trees — ``T3S`` for the small band, ``T3L`` for the large one;
* the latency model keeps the K Computer's hierarchy (node / blade /
  cube / torus) with a per-hop cost scaled up (2 µs) to restore the
  near/far spread that physical scale provided — at 512 ranks the
  compact job box spans far fewer hops than 8192 nodes did, so the
  per-hop price compensates (see EXPERIMENTS.md "Calibration");
* a NIC serialisation cost of 0.1 µs/message models the shared
  per-node injection path that penalised 8-processes-per-node runs.

:func:`grid` builds a figure's runs as one ordered grid and
:func:`run_grid` executes it; :func:`run_configs` memoises simulations
by config fingerprint: the benchmark suite's figures share runs (Fig
3's runs are also Fig 7's, Fig 9's also Fig 10's, ...), so each
distinct simulation runs once per process.  :func:`configure` layers
the :mod:`repro.exec` machinery on top: worker processes for batch
runs and the on-disk result store, both wired to the CLI's ``--jobs``
/ ``--no-cache`` flags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.config import WorkStealingConfig
from repro.exec.pool import resolve, run_many
from repro.exec.store import ArtifactStore, open_store
from repro.net.latency import HierarchicalLatency
from repro.protocol.variants import protocol_overrides
from repro.uts.params import TreeParams, tree_by_name
from repro.ws.results import RunResult

__all__ = [
    "Calibration",
    "CALIBRATION",
    "SMALL_LADDER",
    "LARGE_LADDER",
    "experiment_config",
    "grid",
    "run_grid",
    "configure",
    "run_configs",
    "clear_cache",
]

#: Rank counts for the small-scale experiments (paper Fig 2: 8—128).
SMALL_LADDER = (8, 16, 32, 64)

#: Rank counts standing in for the paper's 1024—8192 (Figs 3—15).
LARGE_LADDER = (64, 128, 256, 512)


@dataclass(frozen=True)
class Calibration:
    """Timing constants shared by every benchmark experiment."""

    node_time: float = 1e-6  # ~ the K's 970k nodes/s
    poll_interval: int = 2  # near per-node polling of the MPI code
    chunk_size: int = 20  # the paper's default chunk size
    nic_service_time: float = 1e-7
    steal_service_time: float = 1e-6
    intra_node: float = 4e-7
    blade: float = 8e-7
    cube: float = 1.2e-6
    base: float = 1.0e-6
    per_hop: float = 2e-6  # scaled up: restores the near/far spread
    small_tree: str = "T3M"
    large_tree: str = "T3L"

    def latency_model(self) -> HierarchicalLatency:
        return HierarchicalLatency(
            intra_node=self.intra_node,
            blade=self.blade,
            cube=self.cube,
            base=self.base,
            per_hop=self.per_hop,
        )


CALIBRATION = Calibration()


def experiment_config(
    tree: TreeParams | str,
    nranks: int,
    allocation: str = "1/N",
    selector: str = "reference",
    steal_policy: str = "one",
    **overrides,
) -> WorkStealingConfig:
    """Build a run config with :data:`CALIBRATION` applied."""
    if isinstance(tree, str):
        tree = tree_by_name(tree)
    kwargs = dict(
        tree=tree,
        nranks=nranks,
        allocation=allocation,
        selector=selector,
        steal_policy=steal_policy,
        latency_model=CALIBRATION.latency_model(),
        node_time=CALIBRATION.node_time,
        poll_interval=CALIBRATION.poll_interval,
        chunk_size=CALIBRATION.chunk_size,
        nic_service_time=CALIBRATION.nic_service_time,
        steal_service_time=CALIBRATION.steal_service_time,
    )
    kwargs.update(overrides)
    return WorkStealingConfig(**kwargs)


def grid(
    tree: TreeParams | str | tuple,
    nranks: int | tuple[int, ...],
    *,
    calibrated: bool = True,
    **fields,
) -> dict[tuple, WorkStealingConfig]:
    """The configs of a run grid, keyed by their axis values, in order.

    ``tree``, ``nranks`` and every other keyword are config fields: a
    tuple value is an axis, any other value is fixed.  Axes iterate in
    keyword order, the first outermost, and a key holds one value per
    axis (``()`` when there is none).  ``protocol`` values are variant
    specs expanded through
    :func:`~repro.protocol.variants.protocol_overrides`, so ``"steal"``
    and ``"forward"`` keep their meaning.  ``calibrated`` builds through
    :func:`experiment_config`; without it the config defaults apply.

    A seed spread is ``seed=(0, 1, 2, 3)``; a root-seed spread is a
    tuple of ``dataclasses.replace(tree, root_seed=r)``.
    """
    fields = {"tree": tree, "nranks": nranks, **fields}
    axes = [name for name, value in fields.items() if isinstance(value, tuple)]
    build = experiment_config if calibrated else WorkStealingConfig
    out = {}
    for key in itertools.product(*(fields[name] for name in axes)):
        point = {**fields, **dict(zip(axes, key))}
        if "protocol" in point:
            point.update(protocol_overrides(point.pop("protocol")))
        out[key] = build(**point)
    return out


def run_grid(tree, nranks, **fields) -> dict[tuple, RunResult]:
    """Run a :func:`grid` as one :func:`run_configs` batch:
    ``{key: RunResult}`` in grid order."""
    configs = grid(tree, nranks, **fields)
    return dict(zip(configs, run_configs(configs.values())))


#: In-process memo: fingerprint -> result (shared across all figures).
_MEMO: dict[str, RunResult] = {}
#: Default worker count for batch runs (1 = serial, None = cpu_count).
_JOBS: int | None = 1
#: Optional on-disk store behind run_configs.
_DISK: ArtifactStore | None = None

#: configure() sentinel: "leave this setting unchanged".
_UNSET = object()


def configure(jobs: int | None = _UNSET, cache=_UNSET) -> None:
    """Set the harness-wide execution knobs (the CLI's flags).

    Parameters
    ----------
    jobs:
        Worker processes for batch runs: ``1`` serial (the default),
        ``None`` for ``os.cpu_count()``, or an explicit count.
    cache:
        On-disk result store: ``True`` for the default
        ``benchmarks/_cache/``, a path or
        :class:`~repro.exec.store.ArtifactStore`, or ``None``/``False``
        to disable (the default — pytest runs stay self-contained).
    """
    global _JOBS, _DISK
    if jobs is not _UNSET:
        _JOBS = jobs
    if cache is not _UNSET:
        _DISK = open_store(cache)


def run_configs(
    configs: Sequence[WorkStealingConfig] | Iterable[WorkStealingConfig],
) -> list[RunResult]:
    """Run many configs through the memo + executor, in input order.

    Memo hits (by fingerprint) never leave this function; the misses go
    to one :func:`repro.exec.run_many` call with the :func:`configure`
    worker count, which dedups them and consults the on-disk store when
    one is configured.
    """
    resolved = resolve(configs)
    results = [_MEMO.get(fp) for _, _, fp in resolved]
    misses = [i for i, hit in enumerate(results) if hit is None]
    if misses:
        fresh = run_many(
            [resolved[i][0] for i in misses], jobs=_JOBS, store=_DISK
        )
        for i, result in zip(misses, fresh):
            _MEMO[resolved[i][2]] = results[i] = result
    return results  # type: ignore[return-value]  # every slot is filled


def clear_cache() -> int:
    """Drop all in-process memoised results; returns how many were held.

    The on-disk store (when configured) is left untouched.
    """
    n = len(_MEMO)
    _MEMO.clear()
    return n
