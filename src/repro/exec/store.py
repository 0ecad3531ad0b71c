"""The on-disk store: run results and an optional LRU budget.

Layout (see DESIGN.md §5b, "Store")::

    benchmarks/_cache/                       the default root
        <__version__>/
            <fingerprint>.json               one RunResult + provenance

* **entries** — each result entry stores the package version, the
  fingerprint, the config dict it hashes to, the serialized
  :class:`~repro.ws.results.RunResult` and the wall-clock seconds the
  original simulation took;
* **LRU eviction** — an optional byte budget (``max_bytes``); reads
  refresh an entry's recency (mtime), writes trigger eviction of the
  least-recently-used entries until the store fits the budget;
* **memo** — each store object keeps the results it has read, keyed
  by fingerprint and checked against the file's ``(inode, size,
  mtime)`` on every hit, so a warm hit is a ``stat`` and a ``utime``
  that return the kept (immutable) :class:`~repro.ws.results.RunResult`,
  not a parse or a decode.  It is an LRU of at most :data:`_MEMO_BYTES`
  entry bytes;
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
import tempfile
import time
from collections import OrderedDict
from pathlib import Path

from repro._version import __version__
from repro.errors import ConfigurationError
from repro.ws.results import RunResult

__all__ = [
    "ArtifactStore",
    "ResultCache",
    "open_store",
    "DEFAULT_CACHE_DIR",
]

#: Default store root, relative to the working directory (the repo
#: root for `python -m repro.bench`); override with the
#: ``REPRO_CACHE_DIR`` environment variable.
DEFAULT_CACHE_DIR = "benchmarks/_cache"

#: Summed entry bytes (file sizes) of the results one store object
#: keeps in memory.  A kept RunResult holds about 0.5-0.8x its file
#: bytes (DESIGN.md §5b, "Store memo").
_MEMO_BYTES = 16 * 2**20


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
    """Fingerprint-keyed result store with LRU eviction.

    Parameters
    ----------
    root:
        Store root (default: ``$REPRO_CACHE_DIR``, or
        ``benchmarks/_cache``).  Nothing is created until the first
        write.  Entries live under ``<root>/<__version__>/``.
    max_bytes:
        Byte budget for the active version directory.  ``None`` (the
        default) disables eviction.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_bytes: int | None = None,
    ):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._dir = os.path.join(self.root, __version__)
        #: fingerprint -> ((st_ino, st_size, st_mtime_ns), result),
        #: least recently served first.
        self._memo: OrderedDict[
            str, tuple[tuple[int, int, int], RunResult]
        ] = OrderedDict()
        self._memo_bytes = 0

    @property
    def dir(self) -> Path:
        """Directory holding entries for the package version."""
        return self.root / __version__

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

        An entry this object has read before is served from memory
        while its file's ``(inode, size, mtime)`` is the one the last
        hit left: the hit's ``utime`` sets the mtime and records it.
        Any other file — replaced, rewritten, evicted, touched by
        another store — is read again.  A memo hit returns the same
        :class:`RunResult` object as the read it came from; results are
        immutable, so no holder can change what another sees.
        """
        path = os.path.join(self._dir, fingerprint + ".json")
        memo = self._forget(fingerprint)
        if memo is not None:
            signature, result = memo
            try:
                st = os.stat(path)
                if (st.st_ino, st.st_size, st.st_mtime_ns) == signature:
                    now = time.time_ns()
                    os.utime(path, ns=(now, now))
                    self._remember(
                        fingerprint, (st.st_ino, st.st_size, now), result
                    )
                    return result
            except OSError:
                pass
        return self._read(fingerprint, path)

    def _read(self, fingerprint: str, path: str) -> RunResult | None:
        """Read, validate and decode one entry file, and remember it."""
        try:
            with open(path, "rb") as fh:
                st = os.fstat(fh.fileno())
                entry = json.loads(fh.read())
        except (OSError, ValueError, RecursionError):
            # ValueError covers JSONDecodeError and UnicodeDecodeError.
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != __version__
            or entry.get("fingerprint") != fingerprint
            or "result" not in entry
        ):
            return None
        try:
            result = RunResult.from_dict(entry["result"])
        except Exception:
            return None
        now = time.time_ns()
        try:
            os.utime(path, ns=(now, now))
        except OSError:
            return result  # an entry it cannot touch is read every time
        self._remember(fingerprint, (st.st_ino, st.st_size, now), result)
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
            "version": __version__,
            "fingerprint": fingerprint,
            "config": config,
            "elapsed": elapsed,
            "result": result.to_dict(),
        }
        self._forget(fingerprint)
        path = self.path_for(fingerprint)
        _write_atomic(
            path, json.dumps(entry, separators=(",", ":")).encode("utf-8")
        )
        self.evict()
        return path

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes held by the active version's entries."""
        return sum(size for _, _, size in self._entries())

    def evict(self) -> list[str]:
        """Drop least-recently-used entries until the budget fits.

        Returns the evicted fingerprints (empty without a budget).  The
        newest entry is evicted last — but even it goes if it alone
        exceeds the budget; the budget is a hard ceiling, not advice.
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
            try:
                self.path_for(fingerprint).unlink()
            except OSError:
                pass
            self._forget(fingerprint)
            evicted.append(fingerprint)
            total -= size
        return evicted

    # ------------------------------------------------------------------

    def _remember(
        self,
        fingerprint: str,
        signature: tuple[int, int, int],
        result: RunResult,
    ) -> None:
        """Memoise ``result``, then drop the least recently served entries
        until the memo holds at most :data:`_MEMO_BYTES` entry bytes."""
        self._memo[fingerprint] = (signature, result)
        self._memo_bytes += signature[1]
        while self._memo_bytes > _MEMO_BYTES:
            (_, size, _), _ = self._memo.popitem(last=False)[1]
            self._memo_bytes -= size

    def _forget(self, fingerprint: str) -> tuple | None:
        """Drop ``fingerprint``'s memo entry; returns it, or ``None``."""
        memo = self._memo.pop(fingerprint, None)
        if memo is not None:
            self._memo_bytes -= memo[0][1]
        return memo

    def _entries(self) -> list[tuple[str, float, int]]:
        """``(fingerprint, last_access, bytes)`` per stored entry."""
        entries = []
        try:
            for path in self.dir.glob("*.json"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                entries.append((path.stem, st.st_mtime, st.st_size))
        except OSError:
            pass
        return entries


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
