"""Chunked work stacks with a private working chunk.

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
whole chunks from the bottom.  So the chunks are implicit, arithmetic
on the node count ``s``: chunk ``k`` is nodes ``k*C .. (k+1)*C - 1``
from the bottom and the top chunk holds the last ``(s - 1) % C + 1``.
A pop drains the top chunk before it touches the next one, and per
drained chunk the popped nodes keep their stack order; a steal of
``count`` chunks is the bottom ``count*C`` nodes, and a grant's body is
those nodes as one flat list, which the thief puts below its own work.

Two stacks keep that one contract, each as one list:

* :class:`ChunkedStack` holds any node — here the ``(rng_state,
  depth)`` pairs of a hashed :class:`~repro.uts.tree.TreeGenerator`,
  the test oracle's tree — as :attr:`ChunkedStack.nodes`, bottom to
  top;
* :class:`RangeStack` holds :class:`~repro.uts.tree.TreeTable` indices,
  the simulator's tree, as :attr:`RangeStack.segs`, the ``[lo, hi)``
  index ranges ``[lo0, hi0, lo1, hi1, ...]`` bottom first, plus a node
  count.  Nodes are numbered breadth-first, so the children of a run of
  consecutive nodes are one range: a quantum whose nodes lie in one
  range of the top chunk pops by one subtraction and pushes one range,
  whatever the poll interval.

``quantum(n)`` is the simulator's step, pop ``n`` and push their
children; ``Worker.on_exec`` calls it, and the engine's loop
(``Cluster.run``) runs :meth:`RangeStack.quantum` written out.
"""

from __future__ import annotations

from repro.errors import StackError

__all__ = ["ChunkedStack", "RangeStack"]


class ChunkedStack:
    """LIFO node stack for one worker, stealable in whole chunks.

    Parameters
    ----------
    chunk_size:
        Nodes per chunk — the steal granularity.  The paper (and this
        library's default config) uses 20.
    expand:
        ``expand(nodes) -> children``, parent-major: what
        :meth:`quantum` pushes.  Only the quantum needs it.
    """

    __slots__ = ("chunk_size", "nodes", "_expand", "__weakref__")

    def __init__(self, chunk_size: int, expand=None):
        if chunk_size < 1:
            raise StackError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        #: The nodes, bottom to top; mutated in place, never rebound.
        self.nodes: list = []
        self._expand = expand

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

    def quantum(self, n: int) -> int:
        """Pop up to ``n`` nodes, push their children; return how many
        were popped (0 on an empty stack)."""
        nodes = self.nodes
        if (len(nodes) - 1) % self.chunk_size >= n:
            # The top chunk holds more than the quantum: a slice.
            popped = nodes[-n:]
            del nodes[-n:]
        else:
            popped = self.pop(n)
        nodes += self._expand(popped)
        return len(popped)

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


class RangeStack:
    """:class:`ChunkedStack`'s contract over
    :class:`~repro.uts.tree.TreeTable` indices, held as index ranges.

    ``segs`` is ``[lo0, hi0, lo1, hi1, ...]``, bottom first: the stack
    is nodes ``lo0 .. hi0-1``, then ``lo1 .. hi1-1`` and so on, no
    range empty; ``count`` is their total.  Chunks stay arithmetic on
    ``count``, so a range may straddle chunks.  A grant's body is still
    a flat node list (:meth:`steal_chunks`), which :meth:`receive_chunks`
    turns back into ranges.

    Parameters
    ----------
    chunk_size:
        Nodes per chunk — the steal granularity.
    table:
        The tree: node ``i``'s children are ``first[i] .. first[i+1]-1``.
    """

    __slots__ = ("chunk_size", "segs", "count", "_first", "__weakref__")

    def __init__(self, chunk_size: int, table):
        if chunk_size < 1:
            raise StackError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        #: The ranges, bottom first; mutated in place, never rebound.
        self.segs: list[int] = []
        #: Nodes held: the ranges' total length.
        self.count = 0
        self._first = table._first

    @property
    def size(self) -> int:
        """Total number of nodes currently held."""
        return self.count

    @property
    def is_empty(self) -> bool:
        return not self.count

    @property
    def stealable_chunks(self) -> int:
        """Chunks a thief may take: all but the private top chunk."""
        return (self.count - 1) // self.chunk_size if self.count else 0

    @property
    def nodes(self) -> list[int]:
        """The nodes, bottom to top, as a new list."""
        segs = self.segs
        nodes: list[int] = []
        for j in range(0, len(segs), 2):
            nodes += range(segs[j], segs[j + 1])
        return nodes

    def _take(self, k: int) -> list[int]:
        """Remove the top ``k`` nodes (``0 < k <= count``, ``count``
        left to the caller) and return them as ranges, bottom first."""
        segs = self.segs
        i = -2
        got = segs[-1] - segs[-2]
        while got < k:
            i -= 2
            got += segs[i + 1] - segs[i]
        taken = segs[i:]
        cut = segs[i] + got - k
        if cut > segs[i]:
            # The bottom range keeps ``lo .. cut-1``.
            taken[0] = cut
            segs[i + 1 :] = (cut,)
        else:
            del segs[i:]
        return taken

    def pop(self, n: int) -> list[int]:
        """Pop up to ``n`` nodes from the top, in :meth:`ChunkedStack.pop`
        order: per drained chunk in stack order, newest chunk first."""
        if n < 0:
            raise StackError(f"cannot pop {n} nodes")
        popped: list[int] = []
        count = self.count
        k = (count - 1) % self.chunk_size + 1
        while n > 0 and count:
            if k > n:
                k = n
            taken = self._take(k)
            for j in range(0, len(taken), 2):
                popped += range(taken[j], taken[j + 1])
            count -= k
            n -= k
            k = self.chunk_size
        self.count = count
        return popped

    def quantum(self, n: int) -> int:
        """Pop up to ``n`` nodes as :meth:`pop` does and push their
        children; return how many were popped (0 on an empty stack).

        The children of a popped range ``lo .. hi-1`` are the one range
        ``first[lo] .. first[hi]-1``, so a quantum pushes one range per
        popped range, in pop order, and materialises no node.
        """
        segs = self.segs
        count = self.count
        if not count:
            return 0
        first = self._first
        hi = segs[-1]
        m = hi - n
        if m >= segs[-2] and (count - 1) % self.chunk_size >= n - 1:
            # The top ``n`` nodes lie in one range and the top chunk.
            a = first[m]
            b = first[hi]
            if m > segs[-2]:
                segs[-1] = m
                if a != b:
                    segs += a, b
            elif a != b:
                segs[-2] = a
                segs[-1] = b
            else:
                del segs[-2:]
            self.count = count - n + b - a
            return n
        kids: list[int] = []
        popped = 0
        k = (count - 1) % self.chunk_size + 1
        while popped < n and segs:
            if k > n - popped:
                k = n - popped
            taken = self._take(k)
            for j in range(0, len(taken), 2):
                a = first[taken[j]]
                b = first[taken[j + 1]]
                if a != b:
                    kids += a, b
                    count += b - a
            popped += k
            k = self.chunk_size
        segs += kids
        self.count = count - popped
        return popped

    def steal_chunks(self, count: int) -> list[int]:
        """Remove ``count`` chunks from the bottom; return their nodes
        as one flat list (the grant's body).

        Raises :class:`StackError` if the request exceeds
        :attr:`stealable_chunks`.
        """
        if count < 0:
            raise StackError(f"cannot steal {count} chunks")
        if count > self.stealable_chunks:
            raise StackError(
                f"requested {count} chunks but only "
                f"{self.stealable_chunks} are stealable"
            )
        end = count * self.chunk_size
        self.count -= end
        segs = self.segs
        stolen: list[int] = []
        i = 0
        while end:
            lo = segs[i]
            hi = segs[i + 1]
            if hi - lo > end:
                stolen += range(lo, lo + end)
                segs[i] = lo + end
                break
            stolen += range(lo, hi)
            end -= hi - lo
            i += 2
        del segs[:i]
        return stolen

    def receive_chunks(self, body: list[int]) -> int:
        """Put a stolen block below this (thief's) work; return its size.

        The block's runs of consecutive indices become its ranges.
        """
        if not body:
            raise StackError("received an empty block of chunks")
        if self.count and len(body) % self.chunk_size:
            raise StackError(
                f"received {len(body)} nodes into a non-empty stack: "
                f"not whole chunks of {self.chunk_size}"
            )
        ranges: list[int] = []
        lo = end = body[0]
        for i in body:
            if i != end:
                ranges += lo, end
                lo = i
            end = i + 1
        ranges += lo, end
        self.segs[:0] = ranges
        self.count += len(body)
        return len(body)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeStack(nodes={self.count}, ranges={len(self.segs) // 2}, "
            f"chunk_size={self.chunk_size})"
        )
