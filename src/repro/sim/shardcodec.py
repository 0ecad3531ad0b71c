"""Packed binary codec for cross-shard event traffic.

``shard_workers > 1`` ships staged outbox entries between OS
processes every lookahead window.  Pickling the raw ``(key, dst,
payload)`` tuples is the dominant transport cost: a single
``StealResponse`` drags whole :class:`~repro.uts.stack.Chunk` objects
— Python lists of ints — through ``pickle``, and the per-object
overhead dwarfs the simulation work inside a window.  This codec
flattens a whole outbox into one contiguous byte string:

* one :data:`MSG_DT` structured record per entry — the global event
  key ``(time, src, seq)``, the destination rank, the message tag and
  two integer argument slots;
* one :data:`CHUNK_DT` record per shipped chunk (``size``,
  ``capacity``), with every chunk's node states and depths
  concatenated into two raw buffers (``<u8`` states, ``<i4`` depths);
* a pickled escape list for payload types without a compact encoding
  (tag :data:`TAG_RAW`), so custom message classes keep working.

Decoding rebuilds exactly the entry tuples the shard heaps hold;
``encode → decode`` is bit-identical (float64 times and uint64 node
states round-trip untouched), which the hypothesis suite in
``tests/sim/test_shardcodec.py`` pins down.  The coordinator never
decodes: blobs are routed opaquely by the ``(target, min_key, count)``
metadata computed at encode time.

Wire format (little-endian throughout)::

    magic  b"SHC1"
    5 x <u8   byte lengths: msgs, chunks, states, depths, extra
    msgs   n x MSG_DT
    chunks m x CHUNK_DT
    states <u8 concatenation of all chunk states
    depths <i4 concatenation of all chunk depths
    extra  pickle of the raw-payload list (empty section if none)
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

from repro.errors import SimulationError
from repro.protocol.messages import (
    TAG_FINISH,
    TAG_LIFELINE_DEREGISTER,
    TAG_LIFELINE_REGISTER,
    TAG_STEAL_FORWARD,
    TAG_STEAL_REQUEST,
    TAG_STEAL_RESPONSE,
    TAG_TOKEN,
    Finish,
    LifelineDeregister,
    LifelineRegister,
    StealForward,
    StealRequest,
    StealResponse,
    Token,
)
from repro.sim.engine import EVT_MSG
from repro.uts.stack import Chunk

__all__ = [
    "MSG_DT",
    "CHUNK_DT",
    "TAG_RAW",
    "encode_entries",
    "decode_entries",
    "min_entry_key",
]

#: Escape tag for payloads the codec has no compact encoding for;
#: the payload itself rides in the pickled ``extra`` section and the
#: ``a`` slot holds its index there.
TAG_RAW = 255

#: One record per staged entry.  ``a``/``b`` are tag-specific integer
#: slots: thief (+ ``b`` = escalated) for steal requests, victim
#: (+ ``b`` = has-work flag) for responses, color for tokens, thief
#: for lifeline (de)registrations, extra-list index for TAG_RAW.
MSG_DT = np.dtype(
    [
        ("time", "<f8"),
        ("src", "<i8"),
        ("seq", "<i8"),
        ("dst", "<i8"),
        ("tag", "<i2"),
        ("a", "<i8"),
        ("b", "<i8"),
        ("nchunks", "<i4"),
    ]
)

#: One record per shipped chunk; the node payload lives in the shared
#: states/depths buffers, sliced by the running ``size`` offsets.
CHUNK_DT = np.dtype([("size", "<i4"), ("capacity", "<i4")])

_MAGIC = b"SHC1"
_HEADER = struct.Struct("<4s5Q")

_EMPTY_EXTRA = pickle.dumps([])


def min_entry_key(entries: list) -> tuple[float, int, int]:
    """Smallest global event key ``(time, src, seq)`` in an outbox."""
    t, src, seq = entries[0][:3]
    best = (t, src, seq)
    for entry in entries:
        key = (entry[0], entry[1], entry[2])
        if key < best:
            best = key
    return best


def encode_entries(entries: list) -> bytes:
    """Flatten staged outbox entries into one codec blob.

    Every entry is ``(time, src, seq, EVT_MSG, dst, payload)`` — only
    messages are ever staged cross-shard (EXEC events are always
    local), which the encoder asserts.
    """
    n = len(entries)
    rows = []
    chunk_rows: list[tuple[int, int]] = []
    states: list[int] = []
    depths: list[int] = []
    extra: list = []
    for t, src, seq, kind, dst, payload in entries:
        if kind != EVT_MSG:  # pragma: no cover - staging invariant
            raise SimulationError(
                f"cross-shard entry with non-message kind {kind}"
            )
        tag = getattr(payload, "tag", None)
        a = b = 0
        nchunks = 0
        if tag == TAG_STEAL_REQUEST:
            a = payload.thief
            b = 1 if payload.escalated else 0
        elif tag == TAG_STEAL_RESPONSE:
            a = payload.victim
            chunks = payload.chunks
            if chunks is not None:
                b = 1
                nchunks = len(chunks)
                for chunk in chunks:
                    chunk_rows.append((chunk.size, chunk.capacity))
                    states += chunk.states
                    depths += chunk.depths
        elif tag == TAG_TOKEN:
            a = payload.color
        elif tag == TAG_FINISH:
            pass
        elif tag == TAG_LIFELINE_REGISTER or tag == TAG_LIFELINE_DEREGISTER:
            a = payload.thief
        elif tag == TAG_STEAL_FORWARD:
            # ttl and the escalated bit pack into ``b``; the visited
            # tuple rides the pickled extra section, indexed through
            # ``nchunks`` (which only steal responses use for chunk
            # consumption, so the reuse is unambiguous).
            a = payload.thief
            b = (payload.ttl << 1) | (1 if payload.escalated else 0)
            nchunks = len(extra)
            extra.append(list(payload.visited))
        else:
            tag = TAG_RAW
            a = len(extra)
            extra.append(payload)
        rows.append((t, src, seq, dst, tag, a, b, nchunks))

    msgs = np.array(rows, dtype=MSG_DT) if rows else np.empty(0, MSG_DT)
    chunk_arr = (
        np.array(chunk_rows, dtype=CHUNK_DT)
        if chunk_rows
        else np.empty(0, CHUNK_DT)
    )
    states_arr = np.array(states, dtype=np.uint64)
    depths_arr = np.array(depths, dtype=np.int32)
    extra_bytes = pickle.dumps(extra) if extra else _EMPTY_EXTRA

    sections = (
        msgs.tobytes(),
        chunk_arr.tobytes(),
        states_arr.tobytes(),
        depths_arr.tobytes(),
        extra_bytes,
    )
    header = _HEADER.pack(_MAGIC, *(len(s) for s in sections))
    return header + b"".join(sections)


def decode_entries(blob: bytes) -> list:
    """Rebuild the staged entry tuples from :func:`encode_entries`."""
    magic, n_msgs, n_chunks, n_states, n_depths, n_extra = _HEADER.unpack_from(
        blob, 0
    )
    if magic != _MAGIC:
        raise SimulationError(
            f"bad shard codec magic {magic!r} (corrupt blob?)"
        )
    off = _HEADER.size
    msgs = np.frombuffer(blob, MSG_DT, count=n_msgs // MSG_DT.itemsize, offset=off)
    off += n_msgs
    chunk_meta = np.frombuffer(
        blob, CHUNK_DT, count=n_chunks // CHUNK_DT.itemsize, offset=off
    )
    off += n_chunks
    states_all = np.frombuffer(
        blob, np.uint64, count=n_states // 8, offset=off
    ).tolist()
    off += n_states
    depths_all = np.frombuffer(
        blob, np.int32, count=n_depths // 4, offset=off
    ).tolist()
    off += n_depths
    extra = pickle.loads(blob[off : off + n_extra]) if n_extra else []

    chunk_rows = chunk_meta.tolist()
    entries = []
    ci = 0  # next chunk row
    no = 0  # node offset into the shared buffers
    for t, src, seq, dst, tag, a, b, nchunks in msgs.tolist():
        if tag == TAG_STEAL_REQUEST:
            payload: object = StealRequest(a, bool(b))
        elif tag == TAG_STEAL_RESPONSE:
            if b:
                chunks = []
                for _ in range(nchunks):
                    size, capacity = chunk_rows[ci]
                    ci += 1
                    chunks.append(
                        Chunk.from_lists(
                            states_all[no : no + size],
                            depths_all[no : no + size],
                            capacity,
                        )
                    )
                    no += size
                payload = StealResponse(a, chunks)
            else:
                payload = StealResponse(a, None)
        elif tag == TAG_TOKEN:
            payload = Token(a)
        elif tag == TAG_FINISH:
            payload = Finish()
        elif tag == TAG_LIFELINE_REGISTER:
            payload = LifelineRegister(a)
        elif tag == TAG_LIFELINE_DEREGISTER:
            payload = LifelineDeregister(a)
        elif tag == TAG_STEAL_FORWARD:
            payload = StealForward(a, bool(b & 1), b >> 1, tuple(extra[nchunks]))
        elif tag == TAG_RAW:
            payload = extra[a]
        else:  # pragma: no cover - wire guard
            raise SimulationError(f"unknown shard codec tag {tag}")
        entries.append((t, src, seq, EVT_MSG, dst, payload))
    return entries
