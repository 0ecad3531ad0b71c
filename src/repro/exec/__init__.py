"""repro.exec — parallel experiment execution with a result store.

The executor subsystem turns the one-run API
(:func:`repro.ws.runner.run_uts`) into a batch engine:

* ``WorkStealingConfig.fingerprint()`` — the stable content hash of a
  run configuration (every strategy object is name-addressable via
  :mod:`repro.core.registry`, so configs round-trip through plain
  dicts), the key of deduplication and of the store.  A config is an
  immutable value that computes its ``payload`` (the ``to_dict``
  dict workers receive), fingerprint and label once, on first use, so
  a sweep resubmitted with the same config objects does no JSON work;
  a sweep of dicts is rebuilt and serialized on every submission;
* :class:`ArtifactStore` — the on-disk store of
  :class:`~repro.ws.results.RunResult`\\ s keyed by fingerprint,
  under ``benchmarks/_cache/<__version__>/``, with an optional LRU byte
  budget; :func:`open_store` reads a ``store=`` argument
  (``ResultCache`` is the legacy name of the same class);
* :func:`run_many` — a ``ProcessPoolExecutor`` batch runner with
  deduplication, store integration and progress callbacks, whose
  results are bit-identical to the serial path.  A parallel call
  starts and stops a :class:`WorkerPool` of its own.  It is how every
  figure's grid of independent runs is served; :mod:`repro.service`
  puts an asyncio front-end for several clients over the same
  :func:`~repro.exec.pool.resolve`/:func:`~repro.exec.pool.land` steps
  and keeps one :class:`WorkerPool` alive for its lifetime.

Typical use::

    from repro import run_many

    results = run_many(configs, jobs=4, store=True)
"""

from repro.exec.pool import RunProgress, WorkerPool, run_many
from repro.exec.store import (
    DEFAULT_CACHE_DIR,
    ArtifactStore,
    ResultCache,
    open_store,
)

__all__ = [
    "run_many",
    "RunProgress",
    "WorkerPool",
    "ArtifactStore",
    "ResultCache",
    "open_store",
    "DEFAULT_CACHE_DIR",
]
