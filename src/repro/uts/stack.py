"""Chunked work stack with a private working chunk.

This mirrors the ``StealStack`` of the reference MPI UTS
implementation, as described in §II-A of the paper:

* work items (tree nodes) are managed in fixed-size *chunks* to
  amortise memory management and to set the steal granularity;
* the owner pushes and pops at the *top*; thieves remove whole chunks
  from the *bottom* (the oldest work, nearest the root, statistically
  the largest subtrees);
* the top chunk is always *private*: "if there is only one incomplete
  chunk in the stack of a process, no work can be stolen, as the first
  chunk is always considered private" — so a stack with ``k`` chunks
  has ``k - 1`` stealable chunks.

The structural invariant maintained throughout is that **every chunk
except the top one is full**: new chunks are only created when the top
chunk overflows, pops only drain the top, and steals only remove
bottom (full) chunks.  Tests assert this invariant under random
operation sequences.

A node is a pair of ints kept in two parallel Python lists, in the
chunks and in every argument and return value: ``(rng_state, depth)``
for a hashed tree, and in the simulator a :class:`~repro.uts.tree.TreeTable`
index in both slots (a table node needs no depth; the second list is
kept for the hashed reference and the ledger rungs that time it).  The
simulator expands millions of quanta of a handful of nodes each, and
at that granularity list slicing beats ndarray round trips by a wide
margin.
"""

from __future__ import annotations

from repro.errors import StackError

__all__ = ["Chunk", "ChunkedStack"]


class Chunk:
    """A fixed-capacity block of tree nodes (states + depths).

    ``states``/``depths`` are Python lists whose length is always
    ``size``.
    """

    __slots__ = ("states", "depths", "size", "capacity")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise StackError(f"chunk capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.states: list[int] = []
        self.depths: list[int] = []
        self.size = 0

    @property
    def is_full(self) -> bool:
        return self.size == self.capacity

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    @property
    def free(self) -> int:
        return self.capacity - self.size

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Chunk(size={self.size}/{self.capacity})"


class ChunkedStack:
    """LIFO node stack for one worker, stealable in whole chunks.

    Parameters
    ----------
    chunk_size:
        Nodes per chunk — the steal granularity.  The paper (and this
        library's default config) uses 20.
    """

    def __init__(self, chunk_size: int):
        if chunk_size < 1:
            raise StackError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self._chunks: list[Chunk] = []
        # Lifetime accounting, used by conservation tests.
        self.total_pushed = 0
        self.total_popped = 0
        self.total_stolen_away = 0

    # ------------------------------------------------------------------
    # Size / introspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of nodes currently held."""
        return sum(c.size for c in self._chunks)

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    @property
    def is_empty(self) -> bool:
        return not self._chunks

    @property
    def stealable_chunks(self) -> int:
        """Chunks a thief may take: all but the private top chunk."""
        return max(0, len(self._chunks) - 1)

    def check_invariant(self) -> None:
        """Raise :class:`StackError` if a non-top chunk is not full."""
        for chunk in self._chunks[:-1]:
            if not chunk.is_full:
                raise StackError(
                    f"non-top chunk has {chunk.size}/{chunk.capacity} nodes"
                )
        if self._chunks and self._chunks[-1].is_empty:
            raise StackError("top chunk is empty but present")

    # ------------------------------------------------------------------
    # Owner operations (push/pop at the top)
    # ------------------------------------------------------------------

    def push_batch_list(self, states: list[int], depths: list[int]) -> None:
        """Push nodes on top of the stack, spilling into new chunks."""
        n = len(states)
        if n == 0:
            return
        self.total_pushed += n
        chunks = self._chunks
        offset = 0
        if chunks:
            top = chunks[-1]
            free = top.capacity - top.size
            if free:
                if free >= n:
                    # Common case: the whole batch fits in the top chunk.
                    top.states += states
                    top.depths += depths
                    top.size += n
                    return
                top.states += states[:free]
                top.depths += depths[:free]
                top.size += free
                offset = free
        capacity = self.chunk_size
        while offset < n:
            take = min(capacity, n - offset)
            chunk = Chunk(capacity)
            chunk.states = states[offset : offset + take]
            chunk.depths = depths[offset : offset + take]
            chunk.size = take
            chunks.append(chunk)
            offset += take

    def pop_batch_list(self, n: int) -> tuple[list[int], list[int]]:
        """Pop up to ``n`` nodes from the top of the stack.

        Per drained chunk the popped segment keeps its in-chunk order,
        newest chunk first.
        """
        chunks = self._chunks
        if chunks:
            top = chunks[-1]
            if top.size > n > 0:
                # Common case: the top chunk covers the whole request.
                top.size -= n
                s = top.states[-n:]
                d = top.depths[-n:]
                del top.states[-n:]
                del top.depths[-n:]
                self.total_popped += n
                return s, d
        if n < 0:
            raise StackError(f"cannot pop {n} nodes")
        states: list[int] = []
        depths: list[int] = []
        remaining = n
        while remaining > 0 and chunks:
            top = chunks[-1]
            if remaining >= top.size:
                remaining -= top.size
                states += top.states
                depths += top.depths
                chunks.pop()
            else:
                top.size -= remaining
                states += top.states[-remaining:]
                depths += top.depths[-remaining:]
                del top.states[-remaining:]
                del top.depths[-remaining:]
                remaining = 0
        self.total_popped += len(states)
        return states, depths

    def expand_quantum(self, n: int, children_fn) -> int:
        """Pop up to ``n`` nodes, expand them, push the children.

        Exactly equivalent to ``pop_batch_list(n)`` + ``children_fn`` +
        ``push_batch_list(...)`` — one fused call for the simulator's
        per-quantum edge, with the single-top-chunk case (by far the
        most common at paper poll intervals) handled without any
        intermediate bookkeeping.  ``children_fn(states, depths)``
        must return ``(child_states, child_depths)`` lists.  Returns
        the number of nodes popped.
        """
        chunks = self._chunks
        if not chunks:
            return 0
        top = chunks[-1]
        if top.size > n > 0:
            top.size -= n
            ts = top.states
            td = top.depths
            states = ts[-n:]
            depths = td[-n:]
            del ts[-n:]
            del td[-n:]
            self.total_popped += n
            npop = n
        else:
            states, depths = self.pop_batch_list(n)
            npop = len(states)
        child_states, child_depths = children_fn(states, depths)
        nch = len(child_states)
        if nch:
            top = chunks[-1] if chunks else None
            if top is not None and top.capacity - top.size >= nch:
                top.states += child_states
                top.depths += child_depths
                top.size += nch
                self.total_pushed += nch
            else:
                self.push_batch_list(child_states, child_depths)
        return npop

    def expand_quanta(
        self,
        n: int,
        children_fn,
        t: float,
        t_stop: float,
        per_node_time: float,
    ) -> tuple[float, int, int]:
        """Run :meth:`expand_quantum` until the stack drains or ``t``
        (advanced ``npop * per_node_time`` a quantum) reaches ``t_stop``.

        Returns ``(t, quanta, nodes)``.  Requires a non-empty stack.
        """
        # Only caller: the frozen ``benchmarks/ledger/rungs.py``
        # (``uts.stack.expand_nodes_per_s``); ROADMAP 2a's [benchmark]
        # PR retargets that rung to ``expand_quantum`` and removes this.
        quanta = nodes = 0
        while True:
            npop = self.expand_quantum(n, children_fn)
            quanta += 1
            nodes += npop
            t += npop * per_node_time
            if not self._chunks or t >= t_stop:
                return t, quanta, nodes

    # ------------------------------------------------------------------
    # Thief operations (remove whole chunks from the bottom)
    # ------------------------------------------------------------------

    def steal_chunks(self, count: int) -> list[Chunk]:
        """Remove ``count`` chunks from the bottom of the stack.

        Raises :class:`StackError` if the request exceeds
        :attr:`stealable_chunks` — the steal *policy* must size the
        request; the stack only enforces the private-chunk rule.
        """
        if count < 0:
            raise StackError(f"cannot steal {count} chunks")
        if count > self.stealable_chunks:
            raise StackError(
                f"requested {count} chunks but only "
                f"{self.stealable_chunks} are stealable"
            )
        stolen = self._chunks[:count]
        del self._chunks[:count]
        self.total_stolen_away += sum(c.size for c in stolen)
        return stolen

    def receive_chunks(self, chunks: list[Chunk]) -> int:
        """Add stolen chunks to this (thief's) stack; return node count.

        The chunks arrive full (the stack invariant on the victim side
        guarantees it) and are placed below any existing chunks, so the
        thief's private chunk stays on top.
        """
        received = 0
        for chunk in chunks:
            if chunk.is_empty:
                raise StackError("received an empty chunk")
            if not chunk.is_full and self._chunks:
                raise StackError("received a partial chunk into a non-empty stack")
            received += chunk.size
        self._chunks[:0] = chunks
        self.total_pushed += received
        return received

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedStack(chunks={self.num_chunks}, nodes={self.size}, "
            f"chunk_size={self.chunk_size})"
        )
