"""Pairwise rank metrics as row functions: O(N) memory, not N x N.

The paper's headline experiments run at 1024--8192 ranks.  Holding a
rank-pair matrix (latency, Euclidean distance) as a dense array costs
``N^2 * 8`` bytes -- 512 MiB at 8192 ranks -- although every consumer
reads one *row* at a time: a victim selector weights the caller's row
once when it is built, the finish broadcast walks row 0.

:class:`PairwiseMetric` is that row, computed on demand from a
``row_fn`` (usually a closure over the rank coordinates) and never
stored: each consumer reads a row once and keeps what it needs, so
there is nothing for a cache to hit.

The one consumer that reads single ``(src, dst)`` values on every
message, the engine's transport, keeps every sender's row for the
whole run, so it does not take float rows from here at all: the latency
metric also carries :attr:`PairwiseMetric.codes`, its rows as one byte
per rank pair plus one value table per job (the form the latency model
produces; the float rows are that, decoded), and the engine holds
those.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["PairwiseMetric"]


class PairwiseMetric:
    """A symmetric ``(n, n)`` rank-pair metric, read one row at a time.

    Parameters
    ----------
    n:
        Number of ranks (the metric is conceptually ``n x n``).
    row_fn:
        ``row_fn(i) -> ndarray`` of length ``n``: the metric's row for
        rank ``i``.  Called on every :meth:`row`; must be pure (same
        ``i`` -> same values) and return a fresh array.
    name:
        Label used in error messages and repr.
    codes:
        Optional ``(code_row_fn, values)`` with ``values[code_row_fn(i)]``
        equal to ``row_fn(i)`` — the compact form of the same rows
        (:meth:`repro.net.latency.LatencyModel.code_rows`), carried for
        callers that keep their own rows, like the engine's send
        table.  The Euclidean metric's codes are integer squared
        distances (:meth:`repro.net.topology.Topology.euclidean_codes`),
        whose ``code_row_fn`` also takes a ``slice`` of ranks.
    """

    __slots__ = ("n", "name", "_row_fn", "codes")

    def __init__(
        self,
        n: int,
        row_fn: Callable[[int], np.ndarray],
        name: str = "metric",
        codes: tuple[Callable[[int], np.ndarray], Sequence[float]] | None = None,
    ):
        if n < 1:
            raise ConfigurationError(f"metric needs n >= 1, got {n}")
        self.n = int(n)
        self.name = name
        self._row_fn = row_fn
        self.codes = codes

    def row(self, i: int) -> np.ndarray:
        """Row ``i``, computed by ``row_fn`` (the caller owns it)."""
        if not 0 <= i < self.n:
            raise ConfigurationError(
                f"{self.name} row {i} out of range [0, {self.n})"
            )
        r = np.asarray(self._row_fn(i))
        if r.shape != (self.n,):
            raise ConfigurationError(
                f"{self.name} row_fn({i}) returned shape {r.shape}, "
                f"expected ({self.n},)"
            )
        return r

    def value(self, i: int, j: int) -> float:
        """Scalar ``metric(i, j)``: one whole row, computed and dropped."""
        return float(self.row(i)[j])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairwiseMetric({self.name}, n={self.n})"
