"""Tests for the equal-share scheduler."""

from __future__ import annotations

from repro.core.jobs import Job, next_job_id
from repro.service.scheduler import FairShareScheduler


def _job(client: str, tag: str) -> Job:
    return Job(
        id=next_job_id(),
        fingerprint=f"fp-{client}-{tag}",
        config={},
        label=f"{client}:{tag}",
        client=client,
    )


def _drain_labels(sched: FairShareScheduler) -> list[str]:
    labels = []
    while sched:
        labels.append(sched.pop().label)
    return labels


class TestFairShare:
    def test_single_client_is_fifo(self):
        sched = FairShareScheduler()
        for tag in "abcd":
            sched.push(_job("solo", tag))
        assert _drain_labels(sched) == [f"solo:{t}" for t in "abcd"]
        assert not sched and len(sched) == 0 and sched.pop() is None

    def test_equal_weights_interleave_round_robin(self):
        sched = FairShareScheduler()
        for tag in "012":
            sched.push(_job("a", tag))
            sched.push(_job("b", tag))
        assert _drain_labels(sched) == [
            "a:0", "b:0", "a:1", "b:1", "a:2", "b:2",
        ]

    def test_ties_break_on_client_name(self):
        sched = FairShareScheduler()
        for tag in "01":
            sched.push(_job("b", tag))
            sched.push(_job("a", tag))
        assert _drain_labels(sched) == ["a:0", "b:0", "a:1", "b:1"]

    def test_idle_client_cannot_bank_share(self):
        sched = FairShareScheduler()
        for tag in "0123":
            sched.push(_job("busy", tag))
        sched.pop(), sched.pop()  # busy's vtime is now 2.0
        sched.push(_job("late", "0"))
        sched.push(_job("late", "1"))
        # late joins at busy's floor (2.0), not at 0 — it interleaves
        # instead of monopolizing the next dispatches.
        assert _drain_labels(sched) == ["busy:2", "late:0", "busy:3", "late:1"]


class TestQueueOps:
    def test_dispatch_accounting(self):
        """One dispatch costs its client one unit of virtual time."""
        sched = FairShareScheduler()
        sched.push(_job("b", "0"))
        sched.push(_job("b", "1"))
        sched.pop()  # b's vtime is now 1.0
        assert len(sched) == 1
        sched.push(_job("a", "0"))  # a joins at b's 1.0 and wins the tie
        assert _drain_labels(sched) == ["a:0", "b:1"]
