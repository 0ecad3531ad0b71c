"""Round-trip properties of the cross-shard wire codec.

``encode_entries -> decode_entries`` must reproduce the staged entry
tuples *exactly* — keys bit-for-bit (float64 times untouched), payloads
equal by value including chunk node states — because the multiprocess
sharded engine's bit-identity argument routes every cross-shard event
through this codec.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import EVT_EXEC, EVT_MSG
from repro.protocol.messages import (
    BLACK,
    WHITE,
    Finish,
    LifelineDeregister,
    LifelineRegister,
    StealForward,
    StealRequest,
    StealResponse,
    Token,
)
from repro.sim.shardcodec import (
    CHUNK_DT,
    MSG_DT,
    TAG_RAW,
    decode_entries,
    encode_entries,
    min_entry_key,
)
from repro.uts.stack import Chunk

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

ranks = st.integers(min_value=0, max_value=2**20)
seqs = st.integers(min_value=0, max_value=2**40)
# Finite positive float64 times, including awkward tiny/huge magnitudes.
times = st.floats(
    min_value=0.0,
    max_value=1e12,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)

states = st.integers(min_value=0, max_value=2**64 - 1)
depths = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def chunks(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    cap = draw(st.integers(min_value=max(n, 1), max_value=n + 8))
    return Chunk.from_lists(
        draw(st.lists(states, min_size=n, max_size=n)),
        draw(st.lists(depths, min_size=n, max_size=n)),
        cap,
    )


class _OpaquePayload:
    """A payload type the codec has no compact encoding for."""

    def __init__(self, blob):
        self.blob = blob

    def __eq__(self, other):
        return type(other) is _OpaquePayload and other.blob == self.blob

    __hash__ = object.__hash__


payloads = st.one_of(
    st.builds(StealRequest, thief=ranks, escalated=st.booleans()),
    st.builds(
        StealForward,
        thief=ranks,
        escalated=st.booleans(),
        ttl=st.integers(min_value=0, max_value=2**30),
        visited=st.lists(ranks, max_size=6).map(tuple),
    ),
    st.builds(
        StealResponse,
        victim=ranks,
        chunks=st.one_of(
            st.none(), st.lists(chunks(), min_size=0, max_size=4)
        ),
    ),
    st.builds(Token, color=st.sampled_from([WHITE, BLACK])),
    st.builds(Finish),
    st.builds(LifelineRegister, thief=ranks),
    st.builds(LifelineDeregister, thief=ranks),
    st.builds(_OpaquePayload, blob=st.binary(max_size=32)),
)


@st.composite
def entries(draw):
    return (
        draw(times),
        draw(ranks),
        draw(seqs),
        EVT_MSG,
        draw(ranks),
        draw(payloads),
    )


outboxes = st.lists(entries(), min_size=0, max_size=32)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(outboxes)
def test_roundtrip_identity(box):
    decoded = decode_entries(encode_entries(box))
    assert len(decoded) == len(box)
    for orig, back in zip(box, decoded):
        # Keys bit-for-bit: == on floats plus a repr check to rule out
        # any widening/narrowing on the wire.
        assert back[:5] == orig[:5]
        assert math.copysign(1.0, back[0]) == math.copysign(1.0, orig[0])
        assert repr(back[0]) == repr(orig[0])
        assert back[5] == orig[5]
        assert type(back[5]) is type(orig[5])


@settings(max_examples=100, deadline=None)
@given(outboxes)
def test_roundtrip_preserves_order_and_min_key(box):
    decoded = decode_entries(encode_entries(box))
    assert [e[:3] for e in decoded] == [e[:3] for e in box]
    if box:
        assert min_entry_key(box) == min((e[0], e[1], e[2]) for e in box)


@settings(max_examples=100, deadline=None)
@given(st.lists(chunks(), min_size=1, max_size=6), times, ranks, seqs)
def test_chunk_payloads_roundtrip_node_exact(chunk_list, t, src, seq):
    box = [(t, src, seq, EVT_MSG, 1, StealResponse(0, chunk_list))]
    (back,) = decode_entries(encode_entries(box))
    got = back[5].chunks
    assert len(got) == len(chunk_list)
    for orig, new in zip(chunk_list, got):
        assert new.states == orig.states
        assert new.depths == orig.depths
        assert new.capacity == orig.capacity
        assert new.size == orig.size


def test_empty_outbox():
    assert decode_entries(encode_entries([])) == []


def test_steal_forward_roundtrips_exactly():
    # The forward's visited set rides the pickle extra section while
    # ttl+escalated pack into the `b` slot; both halves must survive.
    fwd = StealForward(thief=7, escalated=True, ttl=3, visited=(7, 2, 5))
    box = [(0.25, 1, 2, EVT_MSG, 5, fwd)]
    (back,) = decode_entries(encode_entries(box))
    got = back[5]
    assert type(got) is StealForward
    assert got.thief == 7
    assert got.escalated is True
    assert got.ttl == 3
    assert got.visited == (7, 2, 5)
    assert isinstance(got.visited, tuple)


def test_raw_escape_used_only_for_unknown_payloads():
    import numpy as np

    box = [
        (0.5, 1, 2, EVT_MSG, 3, Token(WHITE)),
        (0.5, 1, 3, EVT_MSG, 3, _OpaquePayload(b"x")),
    ]
    blob = encode_entries(box)
    header = 4 + 5 * 8  # magic + five u8 section lengths
    msgs = np.frombuffer(
        blob[header : header + 2 * MSG_DT.itemsize], MSG_DT
    )
    assert list(msgs["tag"]) != [TAG_RAW, TAG_RAW]
    assert TAG_RAW in msgs["tag"]
    assert decode_entries(blob) == box


def test_exec_entries_are_rejected():
    with pytest.raises(SimulationError):
        encode_entries([(0.0, 0, 0, EVT_EXEC, 0, None)])


def test_corrupt_magic_rejected():
    blob = encode_entries([(0.0, 0, 0, EVT_MSG, 1, Finish())])
    with pytest.raises(SimulationError):
        decode_entries(b"XXXX" + blob[4:])


def test_blob_is_flat_not_pickled_for_compact_payloads():
    # The whole point: chunk-carrying responses must not drag Chunk
    # object graphs through pickle (the decode cost dominates the
    # window transport).  For compact payloads the blob is exactly the
    # four flat sections plus the empty-list escape sentinel — nothing
    # object-shaped on the wire.
    import struct

    box = [
        (
            float(i),
            0,
            i,
            EVT_MSG,
            1,
            StealResponse(
                0,
                [
                    Chunk.from_lists(
                        list(range(i * 100, i * 100 + 100)),
                        [3] * 100,
                        128,
                    )
                ],
            ),
        )
        for i in range(16)
    ]
    blob = encode_entries(box)
    magic, n_msgs, n_chunks, n_states, n_depths, n_extra = struct.unpack_from(
        "<4s5Q", blob, 0
    )
    assert magic == b"SHC1"
    assert n_msgs == 16 * MSG_DT.itemsize
    assert n_chunks == 16 * CHUNK_DT.itemsize
    assert n_states == 16 * 100 * 8  # raw <u8 node states
    assert n_depths == 16 * 100 * 4  # raw <i4 depths
    assert n_extra == len(pickle.dumps([]))  # escape section unused
    assert len(blob) == 44 + n_msgs + n_chunks + n_states + n_depths + n_extra


def test_dtype_layout_is_pinned():
    # The wire format is cross-process ABI; catching accidental dtype
    # edits here beats debugging divergent child state.
    assert MSG_DT.itemsize == 54
    assert CHUNK_DT.itemsize == 8
    assert [name for name, *_ in MSG_DT.descr] == [
        "time", "src", "seq", "dst", "tag", "a", "b", "nchunks",
    ]
