"""Post-mortem analysis of a structured event trace.

:class:`TraceAnalysis` turns the raw per-rank event streams into the
quantities the paper reasons about but never shows directly:

* per-rank steal-success rates (which ranks fed the job, which
  starved);
* in-flight reply latencies — request posted to reply received, the
  distribution Gast et al. (arXiv:1805.00857) identify as the hidden
  cost of distributed stealing;
* victim-draw distance distributions — how far the configured selector
  actually reached, the observable behind the paper's Tofu argument;
* failed-attempt chains — run lengths of consecutive failed steals,
  the starvation signature of §V.

The analysis is pure post-processing: it never touches the simulator
and accepts any validated :class:`~repro.trace.events.EventTrace`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.trace.events import (
    EV_DENY,
    EV_FORWARD_SERVE,
    EV_LIFELINE_PUSH,
    EV_LIFELINE_WAKE,
    EV_PUSH_RECV,
    EV_SERVE,
    EV_STEAL_FAIL,
    EV_STEAL_FORWARD,
    EV_STEAL_OK,
    EV_STEAL_SENT,
    EV_VICTIM_DRAW,
    EventTrace,
)

__all__ = ["TraceAnalysis"]


class TraceAnalysis:
    """Derived steal statistics of one traced run."""

    def __init__(self, events: EventTrace, placement=None):
        self.events = events
        self.nranks = events.nranks
        #: Optional :class:`~repro.net.allocation.Placement`; enables
        #: the distance views (draw distances need coordinates).
        self.placement = placement

    # ------------------------------------------------------------------
    # Per-rank counters (the differential-test surface: these must
    # agree with the counters the workers aggregate into RunResult)
    # ------------------------------------------------------------------

    def per_rank_counts(self, etype: int) -> np.ndarray:
        return np.array(
            [self.events.count(etype, rank) for rank in range(self.nranks)],
            dtype=np.int64,
        )

    @property
    def steal_requests(self) -> int:
        return self.events.count(EV_STEAL_SENT)

    @property
    def failed_steals(self) -> int:
        return self.events.count(EV_STEAL_FAIL)

    @property
    def successful_steals(self) -> int:
        return self.events.count(EV_STEAL_OK)

    @property
    def requests_served(self) -> int:
        """Serves of any kind: direct requests plus forwarded ones."""
        return self.events.count(EV_SERVE) + self.events.count(
            EV_FORWARD_SERVE
        )

    @property
    def requests_denied(self) -> int:
        return self.events.count(EV_DENY)

    @property
    def forwarded_requests(self) -> int:
        """Steal requests relayed onward instead of answered."""
        return self.events.count(EV_STEAL_FORWARD)

    @property
    def forwards_served(self) -> int:
        """Forwarded requests that ended in a serve (chain succeeded)."""
        return self.events.count(EV_FORWARD_SERVE)

    @property
    def nodes_received(self) -> int:
        """Nodes that arrived via steals *and* lifeline push merges."""
        return sum(
            ev[3]
            for evs in self.events.ranks
            for ev in evs
            if ev[1] in (EV_STEAL_OK, EV_PUSH_RECV)
        )

    @property
    def nodes_sent(self) -> int:
        return sum(
            ev[3]
            for evs in self.events.ranks
            for ev in evs
            if ev[1] in (EV_SERVE, EV_LIFELINE_PUSH, EV_FORWARD_SERVE)
        )

    def steal_success_rate(self, rank: int | None = None) -> float:
        """Successes over completed attempts (NaN when no attempts)."""
        ok = self.events.count(EV_STEAL_OK, rank)
        fail = self.events.count(EV_STEAL_FAIL, rank)
        total = ok + fail
        return ok / total if total else float("nan")

    # ------------------------------------------------------------------
    # Reply latency
    # ------------------------------------------------------------------

    def reply_latencies(self) -> np.ndarray:
        """In-flight latency of every completed steal attempt.

        The protocol keeps exactly one outstanding request per thief,
        so each ``steal_sent`` pairs with the next ``steal_ok`` /
        ``steal_fail`` on the same rank.  A trailing unmatched request
        (cut off by termination) is ignored.  A quiescent rank woken by
        a lifeline push receives work with *no* outstanding request —
        the preceding ``lifeline_wake`` marks that, and the wake's
        ``steal_ok`` carries no request latency.  Any other reply with
        no matching request is a malformed stream and raises
        :class:`~repro.errors.TraceError`.
        """
        latencies: list[float] = []
        for rank, evs in enumerate(self.events.ranks):
            sent_at: float | None = None
            woken = False
            for t, etype, _a, _b in evs:
                if etype == EV_STEAL_SENT:
                    if sent_at is not None:
                        raise TraceError(
                            f"rank {rank}: overlapping steal requests at "
                            f"{sent_at} and {t}"
                        )
                    sent_at = t
                elif etype == EV_LIFELINE_WAKE:
                    woken = True
                elif etype in (EV_STEAL_OK, EV_STEAL_FAIL):
                    if sent_at is not None:
                        latencies.append(t - sent_at)
                        sent_at = None
                    elif not (etype == EV_STEAL_OK and woken):
                        raise TraceError(
                            f"rank {rank}: steal reply at {t} with no "
                            "outstanding request"
                        )
                    woken = False
        return np.asarray(latencies, dtype=np.float64)

    # ------------------------------------------------------------------
    # Victim-draw distances
    # ------------------------------------------------------------------

    def draw_distances(self) -> np.ndarray:
        """Euclidean distance of every victim draw (needs a placement)."""
        if self.placement is None:
            raise TraceError(
                "draw distances need a Placement; construct the analysis "
                "with TraceAnalysis(events, placement=...)"
            )
        euclid = self.placement.euclidean
        out: list[float] = []
        for rank, evs in enumerate(self.events.ranks):
            row = None
            for _t, etype, victim, _b in evs:
                if etype == EV_VICTIM_DRAW:
                    if row is None:
                        row = euclid.row(rank)
                    out.append(float(row[victim]))
        return np.asarray(out, dtype=np.float64)

    # ------------------------------------------------------------------
    # Forwarding chains
    # ------------------------------------------------------------------

    def request_chain_lengths(self) -> np.ndarray:
        """Forward-hop count of every completed steal attempt.

        Walks the merged stream pairing each thief's outstanding
        request (one at a time per thief, as in
        :meth:`reply_latencies`) with the ``steal_forward`` relays that
        carry its originating thief in ``b``.  A directly-answered
        request contributes 0; a request relayed twice before a serve
        or terminal deny contributes 2.  A trailing attempt cut off by
        termination is ignored, and so is a relay that sorts before its
        request: at zero wire time both carry one timestamp and the
        merged stream breaks the tie by rank, not by cause.
        """
        lengths: list[int] = []
        hops: dict[int, int] = {}  # thief -> forwards so far
        for _t, rank, etype, _a, b in self.events.merged():
            if etype == EV_STEAL_SENT:
                hops[rank] = 0
            elif etype == EV_STEAL_FORWARD:
                if b in hops:
                    hops[b] += 1
            elif etype in (EV_STEAL_OK, EV_STEAL_FAIL):
                n = hops.pop(rank, None)
                if n is not None:
                    lengths.append(n)
        return np.asarray(lengths, dtype=np.int64)

    # ------------------------------------------------------------------
    # Failed-attempt chains
    # ------------------------------------------------------------------

    def failed_chains(self) -> list[int]:
        """Lengths of maximal runs of consecutive failed steals.

        One entry per run, across all ranks; a run ends at a
        successful steal or at the end of the rank's stream (a rank
        that failed until termination still contributes its chain).
        """
        chains: list[int] = []
        for evs in self.events.ranks:
            run = 0
            for _t, etype, _a, _b in evs:
                if etype == EV_STEAL_FAIL:
                    run += 1
                elif etype == EV_STEAL_OK:
                    if run:
                        chains.append(run)
                    run = 0
            if run:
                chains.append(run)
        return chains

    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable digest (the CLI's text output)."""
        lines = [
            f"ranks: {self.nranks}, events: {len(self.events)}",
            f"steal requests: {self.steal_requests} "
            f"(ok {self.successful_steals}, failed {self.failed_steals}, "
            f"success rate {self.steal_success_rate():.3f})",
            f"victim side: served {self.requests_served}, "
            f"denied {self.requests_denied}",
        ]
        if self.forwarded_requests:
            chains = self.request_chain_lengths()
            fwd = chains[chains > 0]
            lines.append(
                f"forwarding: {self.forwarded_requests} relays, "
                f"{self.forwards_served} forward serves"
                + (
                    f", chain length mean {fwd.mean():.1f} "
                    f"max {fwd.max()}"
                    if fwd.size
                    else ""
                )
            )
        lines += [
            f"nodes moved: {self.nodes_sent} sent / "
            f"{self.nodes_received} received",
        ]
        lat = self.reply_latencies()
        if lat.size:
            lines.append(
                "reply latency: "
                f"mean {lat.mean() * 1e6:.2f}us, "
                f"p50 {np.percentile(lat, 50) * 1e6:.2f}us, "
                f"p99 {np.percentile(lat, 99) * 1e6:.2f}us, "
                f"max {lat.max() * 1e6:.2f}us"
            )
        chains = self.failed_chains()
        if chains:
            arr = np.asarray(chains)
            lines.append(
                f"failed-attempt chains: {len(chains)} "
                f"(mean {arr.mean():.1f}, max {arr.max()})"
            )
        if self.placement is not None:
            d = self.draw_distances()
            if d.size:
                lines.append(
                    f"victim draw distance: mean {d.mean():.2f}, "
                    f"max {d.max():.2f}"
                )
        return "\n".join(lines)
