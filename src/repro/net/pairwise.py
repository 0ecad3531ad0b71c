"""Lazy pairwise rank metrics: O(N) memory instead of dense N x N.

The paper's headline experiments run at 1024--8192 ranks.  Holding the
three rank-pair matrices (latency, Euclidean distance, hop count) as
dense arrays costs ``3 * N^2 * 8`` bytes -- about 1.6 GB at 8192 ranks
-- although almost every consumer only ever looks at one *row* at a
time: a victim selector weights the caller's row once per block of
draws, the finish broadcast walks row 0.

:class:`PairwiseMetric` is the row-oriented replacement.  It computes
rows on demand from a ``row_fn`` (usually a closure over the rank
coordinates) and keeps a bounded LRU cache of recently used rows, so
peak memory is ``O(cache_rows * N)`` regardless of scale.  For small
jobs, and for numpy-style consumers (boolean masks, ``np.allclose``),
:meth:`dense` materialises the full matrix as an escape hatch --
:attr:`dense_calls` counts how often that happened so tests can assert
the large-N code path never does.

The one consumer that reads single ``(src, dst)`` values on every
message, the engine's transport, keeps every sender's row for the
whole run, so it does not take float rows from here at all: the latency
metric also carries :attr:`PairwiseMetric.codes`, its rows as one byte
per rank pair plus one value table per job (the form the latency model
produces; the float rows are that, decoded), and the engine holds
those.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["PairwiseMetric", "DEFAULT_ROW_CACHE"]

#: Default LRU row-cache capacity.  At 8192 ranks a float64 row is
#: 64 KiB, so the default cache tops out around 8 MiB per metric.
DEFAULT_ROW_CACHE = 128


class PairwiseMetric:
    """A symmetric ``(n, n)`` rank-pair metric stored as lazy rows.

    Parameters
    ----------
    n:
        Number of ranks (the metric is conceptually ``n x n``).
    row_fn:
        ``row_fn(i) -> ndarray`` of length ``n``: the metric's row for
        rank ``i``.  Called at most once per row while the row stays in
        cache; must be pure (same ``i`` -> same values).
    name:
        Label used in error messages and repr.
    cache_rows:
        LRU capacity in rows (>= 1).
    codes:
        Optional ``(code_row_fn, values)`` with ``values[code_row_fn(i)]``
        equal to ``row_fn(i)`` — the compact form of the same rows
        (:meth:`repro.net.latency.LatencyModel.code_rows`), carried for
        callers that keep their own rows, like the engine's send
        table.

    Indexing mirrors the dense-array API the rest of the code grew up
    with: ``m[i]`` is a *copy* of row ``i``, ``m[i, j]`` a float, and
    any other key (masks, slices, fancy indexing) transparently falls
    back to the materialised dense matrix -- fine for small jobs, and
    counted in :attr:`dense_calls` so the paper-scale path can prove it
    never paid for it.
    """

    __slots__ = (
        "n",
        "name",
        "_row_fn",
        "_cache",
        "_capacity",
        "_dense",
        "dense_calls",
        "codes",
    )

    def __init__(
        self,
        n: int,
        row_fn: Callable[[int], np.ndarray],
        name: str = "metric",
        cache_rows: int = DEFAULT_ROW_CACHE,
        codes: tuple[Callable[[int], np.ndarray], list[float]] | None = None,
    ):
        if n < 1:
            raise ConfigurationError(f"metric needs n >= 1, got {n}")
        if cache_rows < 1:
            raise ConfigurationError(
                f"cache_rows must be >= 1, got {cache_rows}"
            )
        self.n = int(n)
        self.name = name
        self._row_fn = row_fn
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._capacity = int(cache_rows)
        self._dense: np.ndarray | None = None
        #: Number of times the dense escape hatch was taken.
        self.dense_calls = 0
        self.codes = codes

    @classmethod
    def from_dense(cls, matrix: np.ndarray, name: str = "metric") -> "PairwiseMetric":
        """Wrap an already-materialised dense matrix (small-N path)."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(
                f"{name} matrix must be square, got shape {matrix.shape}"
            )
        metric = cls(matrix.shape[0], lambda i: matrix[i], name=name)
        metric._dense = matrix
        return metric

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def materialised(self) -> bool:
        """Whether the full dense matrix currently exists in memory."""
        return self._dense is not None

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` as a **read-only** array (shared with the cache).

        Callers that mutate must copy (``m[i]`` does that for them).
        """
        cache = self._cache
        r = cache.get(i)
        if r is not None:
            cache.move_to_end(i)
            return r
        if not 0 <= i < self.n:
            raise ConfigurationError(
                f"{self.name} row {i} out of range [0, {self.n})"
            )
        if self._dense is not None:
            r = self._dense[i]
        else:
            r = np.asarray(self._row_fn(i))
            if r.shape != (self.n,):
                raise ConfigurationError(
                    f"{self.name} row_fn({i}) returned shape {r.shape}, "
                    f"expected ({self.n},)"
                )
        r = r.view()
        r.flags.writeable = False
        cache[i] = r
        if len(cache) > self._capacity:
            cache.popitem(last=False)
        return r

    def value(self, i: int, j: int) -> float:
        """Scalar ``metric[i, j]`` (row-cache backed)."""
        return float(self.row(i)[j])

    def dense(self) -> np.ndarray:
        """Materialise (and memoise) the full matrix -- the escape hatch.

        O(N^2) memory: meant for small jobs, plots and tests.  The
        result is read-only because it is shared with later calls.
        """
        self.dense_calls += 1
        if self._dense is None:
            out = np.stack([np.asarray(self._row_fn(i)) for i in range(self.n)])
            out.flags.writeable = False
            self._dense = out
        return self._dense

    # ------------------------------------------------------------------
    # numpy-compatible sugar
    # ------------------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.row(int(key)).copy()
        if (
            isinstance(key, tuple)
            and len(key) == 2
            and isinstance(key[0], (int, np.integer))
            and isinstance(key[1], (int, np.integer))
        ):
            return self.value(int(key[0]), int(key[1]))
        return self.dense()[key]

    def __array__(self, dtype=None, copy=None):
        out = self.dense()
        return out.astype(dtype) if dtype is not None else out

    def max(self):
        """Maximum over the whole matrix (materialises; small-N sugar)."""
        return self.dense().max()

    def min(self):
        """Minimum over the whole matrix (materialises; small-N sugar)."""
        return self.dense().min()

    def mean(self):
        """Mean over the whole matrix (materialises; small-N sugar)."""
        return self.dense().mean()

    @property
    def T(self) -> np.ndarray:
        """Transpose of the dense matrix (symmetry checks in tests)."""
        return self.dense().T

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dense" if self.materialised else f"lazy, {len(self._cache)} rows cached"
        return f"PairwiseMetric({self.name}, n={self.n}, {state})"
