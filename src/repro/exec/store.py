"""The on-disk store: run results, their artifacts, an optional LRU budget.

Layout (see DESIGN.md §5b, "Store")::

    benchmarks/_cache/                       the default root
        <__version__>/
            <fingerprint>.json               one RunResult + provenance
            artifacts/<fingerprint>.<kind>   by-products (Chrome traces)

* **entries** — each result entry stores the package version, the
  fingerprint, the config dict it hashes to, the serialized
  :class:`~repro.ws.results.RunResult` and the wall-clock seconds the
  original simulation took;
* **artifacts** — arbitrary by-products of a run (Chrome-trace exports,
  reports) stored next to their result;
* **LRU eviction** — an optional byte budget (``max_bytes``); reads
  refresh an entry's recency (mtime), writes trigger eviction of the
  least-recently-used entries (result + its artifacts evict together)
  until the store fits the budget;
* **versioning** — results live under a per-version directory, so
  bumping ``repro.__version__`` invalidates every stored point without
  touching fingerprints.

Everything is crash-safe: writes are atomic (temp file +
``os.replace``) so a parallel sweep interrupted mid-write never leaves
a truncated entry, corrupt or foreign entries read as misses, and
eviction tolerates files disappearing underneath it (two services may
share one store directory).

:func:`open_store` is the one reading of the ``store=`` argument that
:func:`~repro.exec.pool.run_many`, the service, the tournament and the
bench harness all accept.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro._version import __version__
from repro.core.jobs import ArtifactRef
from repro.errors import ConfigurationError
from repro.ws.results import RunResult

__all__ = [
    "ArtifactStore",
    "ResultCache",
    "StoreStats",
    "open_store",
    "DEFAULT_CACHE_DIR",
]

#: Default store root, relative to the working directory (the repo
#: root for `python -m repro.bench`); override with the
#: ``REPRO_CACHE_DIR`` environment variable.
DEFAULT_CACHE_DIR = "benchmarks/_cache"

#: Artifact kinds are path components; keep them boring.
_KIND_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time accounting of one store version directory."""

    #: Result entries of the active version.
    entries: int
    #: Artifact files of the active version.
    artifacts: int
    #: Bytes held (results + artifacts).
    total_bytes: int
    #: Configured budget (``None`` = unbounded).
    max_bytes: int | None
    #: Entries evicted since this store object was created.
    evicted: int


def _write_atomic(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temp file and a rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:12]}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ArtifactStore:
    """Fingerprint-keyed result + artifact store with LRU eviction.

    Parameters
    ----------
    root:
        Store root (default: ``$REPRO_CACHE_DIR``, or
        ``benchmarks/_cache``).  Nothing is created until the first
        write.
    version:
        Version directory to serve (default: the package version).
    max_bytes:
        Byte budget for the active version directory.  ``None`` (the
        default) disables eviction.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        version: str = __version__,
        max_bytes: int | None = None,
    ):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        self.root = Path(root)
        self.version = version
        self.max_bytes = max_bytes
        self._evicted = 0

    @property
    def dir(self) -> Path:
        """Directory holding entries for the active version."""
        return self.root / self.version

    def path_for(self, fingerprint: str) -> Path:
        return self.dir / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def get(self, fingerprint: str) -> RunResult | None:
        """Stored result for ``fingerprint``, or ``None`` on a miss.

        Entries from other versions, truncated or corrupt files (bad
        UTF-8, bad or absurdly nested JSON) and JSON from foreign tools
        all read as misses, never as errors.  A hit refreshes the
        entry's LRU recency.
        """
        path = self.path_for(fingerprint)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError, RecursionError):
            # ValueError covers JSONDecodeError and UnicodeDecodeError.
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != self.version
            or entry.get("fingerprint") != fingerprint
            or "result" not in entry
        ):
            return None
        try:
            result = RunResult.from_dict(entry["result"])
        except Exception:
            return None
        self._touch(path)
        return result

    def put(
        self,
        fingerprint: str,
        result: RunResult,
        config: dict | None = None,
        elapsed: float | None = None,
    ) -> Path:
        """Persist ``result`` under ``fingerprint``; returns the path.

        Evicts LRU entries past the byte budget.
        """
        entry = {
            "version": self.version,
            "fingerprint": fingerprint,
            "config": config,
            "elapsed": elapsed,
            "result": result.to_dict(),
        }
        path = self.path_for(fingerprint)
        _write_atomic(
            path, json.dumps(entry, separators=(",", ":")).encode("utf-8")
        )
        self.evict()
        return path

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------

    @property
    def artifacts_dir(self) -> Path:
        """Directory holding artifacts for the active version."""
        return self.dir / "artifacts"

    def artifact_path(self, fingerprint: str, kind: str) -> Path:
        return self.artifacts_dir / f"{fingerprint}.{self._check_kind(kind)}"

    def put_artifact(
        self, fingerprint: str, kind: str, payload: bytes | str
    ) -> ArtifactRef:
        """Store one artifact atomically; returns its reference."""
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        path = self.artifact_path(fingerprint, kind)
        _write_atomic(path, payload)
        self.evict()
        return ArtifactRef(
            fingerprint=fingerprint, kind=kind, path=path, nbytes=len(payload)
        )

    def artifacts_for(self, fingerprint: str) -> dict[str, Path]:
        """``{kind: path}`` of every stored artifact of ``fingerprint``."""
        out: dict[str, Path] = {}
        prefix = f"{fingerprint}."
        try:
            names = sorted(p.name for p in self.artifacts_dir.iterdir())
        except OSError:
            return out
        for name in names:
            if name.startswith(prefix) and not name.endswith(".tmp"):
                out[name[len(prefix):]] = self.artifacts_dir / name
        return out

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes held by the active version (results + artifacts)."""
        return sum(size for _, _, size in self._entries())

    def evict(self) -> list[str]:
        """Drop least-recently-used entries until the budget fits.

        A result entry and its artifacts evict as one unit, keyed by
        the *most recent* access of any of the unit's files.  Returns
        the evicted fingerprints (empty without a budget).  The newest
        entry is evicted last — but even it goes if it alone exceeds
        the budget; the budget is a hard ceiling, not advice.
        """
        if self.max_bytes is None:
            return []
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        if total <= self.max_bytes:
            return []
        #: Oldest first; fingerprint tie-break keeps eviction stable on
        #: coarse-mtime filesystems.
        entries.sort(key=lambda e: (e[1], e[0]))
        evicted: list[str] = []
        for fingerprint, _, size in entries:
            if total <= self.max_bytes:
                break
            self._remove_entry(fingerprint)
            evicted.append(fingerprint)
            total -= size
        self._evicted += len(evicted)
        return evicted

    def stats(self) -> StoreStats:
        """Current accounting (used by the service's status surface)."""
        entries = self._entries()
        n_artifacts = 0
        try:
            n_artifacts = sum(
                1
                for p in self.artifacts_dir.iterdir()
                if not p.name.endswith(".tmp")
            )
        except OSError:
            pass
        return StoreStats(
            entries=sum(1 for fp, _, _ in entries if self.path_for(fp).exists()),
            artifacts=n_artifacts,
            total_bytes=sum(size for _, _, size in entries),
            max_bytes=self.max_bytes,
            evicted=self._evicted,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _check_kind(kind: str) -> str:
        if not _KIND_RE.match(kind):
            raise ConfigurationError(
                f"artifact kind must match {_KIND_RE.pattern}, got {kind!r}"
            )
        return kind

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _entries(self) -> list[tuple[str, float, int]]:
        """``(fingerprint, last_access, unit_bytes)`` per stored unit.

        Artifact-only units (result already gone) are included so
        eviction can reclaim orphaned artifacts too.
        """
        units: dict[str, tuple[float, int]] = {}

        def _add(fingerprint: str, path: Path) -> None:
            try:
                st = path.stat()
            except OSError:
                return
            mtime, size = units.get(fingerprint, (0.0, 0))
            units[fingerprint] = (max(mtime, st.st_mtime), size + st.st_size)

        try:
            for path in self.dir.glob("*.json"):
                _add(path.stem, path)
        except OSError:
            pass
        try:
            for path in self.artifacts_dir.iterdir():
                if path.name.endswith(".tmp"):
                    continue
                fingerprint = path.name.split(".", 1)[0]
                _add(fingerprint, path)
        except OSError:
            pass
        return [(fp, mtime, size) for fp, (mtime, size) in units.items()]

    def _remove_entry(self, fingerprint: str) -> None:
        paths = [self.path_for(fingerprint)]
        paths.extend(self.artifacts_for(fingerprint).values())
        for path in paths:
            try:
                path.unlink()
            except OSError:
                pass


#: Legacy name of the same class.  It stays only because the frozen
#: ``benchmarks/ledger/workloads.py`` imports and subclasses it
#: (``_CaptureStore(ResultCache)``); the ROADMAP 3b ``[benchmark]`` PR
#: removes that last caller, and then this name.
ResultCache = ArtifactStore


def open_store(
    store: ArtifactStore | str | os.PathLike | bool | None,
) -> ArtifactStore | None:
    """The one reading of a ``store=`` argument.

    ``True`` opens the default store (``$REPRO_CACHE_DIR`` or
    ``benchmarks/_cache/``), a ``str``/``os.PathLike`` opens that
    directory, an :class:`ArtifactStore` passes through unchanged and
    ``None``/``False`` mean no store.
    """
    if store is None or store is False:
        return None
    if store is True:
        return ArtifactStore()
    if isinstance(store, ArtifactStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return ArtifactStore(store)
    raise ConfigurationError(
        f"store must be an ArtifactStore, path, bool or None, got {store!r}"
    )
