"""Mixed-radix coordinate spaces with optional per-dimension wrap-around.

A :class:`CoordSpace` describes a grid of ``prod(dims)`` points.  Node
ids are linearised row-major (first dimension slowest).  Each dimension
is either a *torus* dimension (distances wrap around) or a *mesh*
dimension (they do not) — the Tofu interconnect mixes both.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError

__all__ = ["CoordSpace"]


class CoordSpace:
    """A mixed-radix, optionally-wrapping coordinate space.

    Parameters
    ----------
    dims:
        Extent of each dimension (all >= 1).
    wraps:
        For each dimension, whether distance wraps around (torus).
        Defaults to no wrapping anywhere.
    """

    def __init__(self, dims: tuple[int, ...], wraps: tuple[bool, ...] | None = None):
        if not dims:
            raise TopologyError("dims must be non-empty")
        if any(d < 1 for d in dims):
            raise TopologyError(f"all dims must be >= 1, got {dims}")
        if wraps is None:
            wraps = tuple(False for _ in dims)
        if len(wraps) != len(dims):
            raise TopologyError(
                f"wraps length {len(wraps)} != dims length {len(dims)}"
            )
        self.dims = tuple(int(d) for d in dims)
        self.wraps = tuple(bool(w) for w in wraps)
        self.ndim = len(dims)
        self.size = int(np.prod(self.dims))
        # Row-major strides for the id -> coordinates conversion.
        strides = [1] * self.ndim
        for k in range(self.ndim - 2, -1, -1):
            strides[k] = strides[k + 1] * self.dims[k + 1]
        self._strides = np.array(strides, dtype=np.int64)
        self._dims_arr = np.array(self.dims, dtype=np.int64)
        self._wrap_arr = np.array(self.wraps, dtype=bool)

    def coords_of_many(self, nodes: np.ndarray) -> np.ndarray:
        """Coordinates of an array of node ids, shape ``(len(nodes), ndim)``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.size):
            raise TopologyError("node id out of range")
        return (nodes[:, None] // self._strides[None, :]) % self._dims_arr[None, :]

    def delta_sum_rows(
        self,
        coords: np.ndarray,
        ndims: int | None = None,
        squared: bool = False,
    ):
        """``f(i) -> sum over dimensions of the separations from coords[i]``.

        The one-row counterpart of :meth:`delta_matrix` summed over its
        last axis (over the first ``ndims`` dimensions; of the squared
        separations with ``squared``).  A separation along dimension
        ``d`` depends on two coordinate values below ``dims[d]`` only,
        so the sum is *separable*: a ``dims[d] x dims[d]`` table per
        dimension, gathered once along the job's coordinate column into
        ``cols[d]`` of shape ``(dims[d], n)``, makes row ``i`` the sum
        of the views ``cols[d][coords[i, d]]`` — no ``(n, ndim)``
        temporaries.  ``f(slice)`` returns those rows as one
        ``(len, n)`` block, gathered a block at a time.  Integer
        arithmetic throughout, so every value equals the matrix path's
        exactly.  The tables are built on the first row, in the
        narrowest dtype that holds the largest sum (``sum(dims) * n``
        words, O(n^(4/3)) on a near-cubic grid): a row is int64, a
        block keeps that dtype, so gathering it moves a byte or two
        per pair instead of eight.
        """
        coords = np.asarray(coords, dtype=np.int64)
        dims = range(self.ndim if ndims is None else ndims)
        cols: list[np.ndarray] = []

        def row(i) -> np.ndarray:
            if not cols:
                tables = []
                for d in dims:
                    v = np.arange(self.dims[d], dtype=np.int64)
                    table = np.abs(v[:, None] - v[None, :])
                    if self.wraps[d]:
                        table = np.minimum(table, self.dims[d] - table)
                    if squared:
                        table = table * table
                    tables.append(table)
                dtype = np.min_scalar_type(sum(int(t.max()) for t in tables))
                for d, table in zip(dims, tables):
                    cols.append(table.astype(dtype).take(coords[:, d], axis=1))
            # One coordinate per dimension (a rank: views), or one list
            # per dimension (a slice: gathered blocks).
            ref = coords[i].T.tolist()
            out = cols[0][ref[0]]
            out = out + cols[1][ref[1]] if len(cols) > 1 else out.copy()
            for d in dims[2:]:
                out += cols[d][ref[d]]
            return out if isinstance(i, slice) else out.astype(np.int64)

        return row

    def delta_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Pairwise per-dimension separations for ``(n, ndim)`` coords.

        Returns an ``(n, n, ndim)`` int array (``n^2 * ndim`` words).
        The min-image wrap rule is written here and in
        :meth:`delta_sum_rows` only: runs read the rows, and this dense
        broadcast is the reference the row tests compare against.
        """
        coords = np.asarray(coords, dtype=np.int64)
        raw = np.abs(coords[:, None, :] - coords[None, :, :])
        wrapped = np.minimum(raw, self._dims_arr[None, None, :] - raw)
        return np.where(self._wrap_arr[None, None, :], wrapped, raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoordSpace(dims={self.dims}, wraps={self.wraps})"
