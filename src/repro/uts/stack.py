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

Every chunk except the top one is full: chunks are only opened when
the top one overflows, pops only drain the top and steals only take
whole chunks from the bottom.  So the chunks are implicit: the stack
is one list, :attr:`ChunkedStack.nodes`, bottom to top, and chunk
``k`` is ``nodes[k*C:(k+1)*C]`` — the top chunk holds the last
``(len - 1) % C + 1`` nodes.  A push is an ``extend``, a steal of
``count`` chunks is ``nodes[:count*C]`` and a grant's body is that
flat node list.

A node is whatever the tree expands: a :class:`~repro.uts.tree.TreeTable`
index in the simulator, a ``(rng_state, depth)`` pair for a hashed
:class:`~repro.uts.tree.TreeGenerator`.  The simulator pops, expands
and pushes millions of quanta of a handful of nodes each, and does it
on :attr:`~ChunkedStack.nodes` in place (``Worker.on_exec`` and its
copy in ``Cluster.run``).
"""

from __future__ import annotations

from repro.errors import StackError

__all__ = ["ChunkedStack"]


class ChunkedStack:
    """LIFO node stack for one worker, stealable in whole chunks.

    Parameters
    ----------
    chunk_size:
        Nodes per chunk — the steal granularity.  The paper (and this
        library's default config) uses 20.
    """

    __slots__ = ("chunk_size", "nodes", "__weakref__")

    def __init__(self, chunk_size: int):
        if chunk_size < 1:
            raise StackError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        #: The nodes, bottom to top; mutated in place, never rebound.
        self.nodes: list = []

    @property
    def size(self) -> int:
        """Total number of nodes currently held."""
        return len(self.nodes)

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    @property
    def stealable_chunks(self) -> int:
        """Chunks a thief may take: all but the private top chunk."""
        return (len(self.nodes) - 1) // self.chunk_size if self.nodes else 0

    def pop(self, n: int) -> list:
        """Pop up to ``n`` nodes from the top of the stack.

        Per drained chunk the popped segment keeps its in-chunk order,
        newest chunk first — so a pop that crosses a chunk boundary is
        not ``nodes[-n:]``.
        """
        if n < 0:
            raise StackError(f"cannot pop {n} nodes")
        nodes = self.nodes
        popped: list = []
        while n > 0 and nodes:
            k = (len(nodes) - 1) % self.chunk_size + 1  # the top chunk
            if k > n:
                k = n
            popped += nodes[-k:]
            del nodes[-k:]
            n -= k
        return popped

    def steal_chunks(self, count: int) -> list:
        """Remove ``count`` chunks from the bottom; return their nodes.

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
        end = count * self.chunk_size
        stolen = self.nodes[:end]
        del self.nodes[:end]
        return stolen

    def receive_chunks(self, body: list) -> int:
        """Put a stolen block below this (thief's) work; return its size.

        A steal takes whole chunks, so the block keeps the chunk layout
        and the thief's private chunk stays on top.
        """
        if not body:
            raise StackError("received an empty block of chunks")
        if self.nodes and len(body) % self.chunk_size:
            raise StackError(
                f"received {len(body)} nodes into a non-empty stack: "
                f"not whole chunks of {self.chunk_size}"
            )
        self.nodes[:0] = body
        return len(body)

    # ------------------------------------------------------------------
    # Split-list adapter: only for the frozen ledger rungs
    # ``uts.stack.*`` (``benchmarks/ledger/rungs.py``), which push and
    # expand parallel ``states``/``depths`` lists; it goes with them in
    # the ledger-v2 rewrite.
    # ------------------------------------------------------------------

    def push_batch_list(self, states: list[int], depths: list[int]) -> None:
        """Push ``(state, depth)`` pairs from two parallel lists."""
        self.nodes += zip(states, depths)

    def expand_quanta(
        self, n: int, children_fn, t: float, t_stop: float, per_node_time: float
    ) -> tuple[float, int, int]:
        """Pop ``n`` nodes, expand them with ``children_fn(states,
        depths) -> (states, depths)`` and push the children, until the
        stack drains or ``t`` (advanced ``per_node_time`` per popped
        node) reaches ``t_stop``.  Returns ``(t, quanta, nodes)``."""
        quanta = nodes = 0
        while True:
            popped = self.pop(n)
            if popped:
                self.push_batch_list(*children_fn(*map(list, zip(*popped))))
            quanta += 1
            nodes += len(popped)
            t += len(popped) * per_node_time
            if not self.nodes or t >= t_stop:
                return t, quanta, nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedStack(nodes={len(self.nodes)}, "
            f"chunk_size={self.chunk_size})"
        )
