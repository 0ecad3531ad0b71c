"""repro — reproduction of "Victim Selection and Distributed Work
Stealing Performance: A Case Study" (Perarnau & Sato, IPDPS 2014).

The package rebuilds, in Python, everything the paper's evaluation
needed:

* the UTS benchmark (:mod:`repro.uts`) — deterministic implicit
  unbalanced trees over splittable RNGs, chunked steal-stacks;
* a model of the K Computer (:mod:`repro.net`) — Tofu 6-D topology,
  hierarchical latencies, the 1/N / 8RR / 8G process allocations;
* a discrete-event cluster simulator (:mod:`repro.sim`) — per-rank
  schedulers speaking the reference MPI steal protocol with token-ring
  termination;
* the paper's contribution (:mod:`repro.core`) — victim-selection
  strategies (round-robin, uniform random, distance-skewed "Tofu"),
  steal-half, and the starting/ending scheduling-latency metric;
* the composable steal protocol (:mod:`repro.protocol`) — forwarding,
  locality regions and a lifeline-based comparator;
* the experiment harness (:mod:`repro.bench`) regenerating every
  table and figure.

Quickstart::

    from repro import run_uts, T3S

    result = run_uts(tree=T3S, nranks=64, selector="tofu",
                     steal_policy="half")
    print(result.summary())

Batch runs go through the parallel executor (:mod:`repro.exec`)::

    from repro import run_many, WorkStealingConfig

    configs = [WorkStealingConfig(tree=T3S, nranks=n, selector="tofu")
               for n in (8, 16, 32, 64)]
    results = run_many(configs, jobs=4)

Several clients sharing one pool and store go through the simulation
service (:mod:`repro.service`), which dedups in flight, gives each
client an equal share of the workers and caches; leaving the
``async with`` block waits for every accepted job::

    from repro import SimulationService

    async with SimulationService(workers=4, store=True) as service:
        handle = await service.submit(configs, client="alice")
        results = await handle.results()

This module is the package's public surface (``__all__``).
"""

from repro._version import __version__
from repro.core.config import WorkStealingConfig
from repro.uts.params import (
    T3L,
    T3M,
    T3S,
    T3WL,
    T3XL,
    T3XS,
    T3XXL,
    TREES,
    TreeParams,
    tree_by_name,
)
from repro.ws.results import RunResult
from repro.ws.runner import run_uts

# Side-effect import: registers the adaptive selector/steal-policy
# family ("adapt-eps", "adapt-sr", "adapt-backoff", "adaptive") beside
# the static strategies, so their config strings resolve in every
# process that imports repro — including exec worker processes.
import repro.select  # noqa: E402,F401

# Imported last: repro.exec / repro.service read repro._version and the
# registries the imports above populate.
from repro.exec import ArtifactStore, ResultCache, RunProgress, run_many  # noqa: E402
from repro.core.jobs import (  # noqa: E402
    Job,
    JobEvent,
    JobFailure,
    JobState,
)
from repro.service import SimulationService, SweepHandle  # noqa: E402

__all__ = [
    "WorkStealingConfig",
    "RunResult",
    "run_uts",
    "run_many",
    "RunProgress",
    "ResultCache",
    "ArtifactStore",
    "SimulationService",
    "SweepHandle",
    "Job",
    "JobState",
    "JobEvent",
    "JobFailure",
    "TreeParams",
    "TREES",
    "tree_by_name",
    "T3XS",
    "T3S",
    "T3M",
    "T3L",
    "T3XL",
    "T3XXL",
    "T3WL",
    "__version__",
]
