"""Correctness operations and pinned expectations of the ledger.

An *operation* is one job or one invariant check; a workload's
``failed / attempted`` over operations is its failed-operations share.
Absolute invariants (a job returns a ``RunResult``, node conservation,
paper orderings, dedup counts) are operations.  The seed-0 digests in
``expected.json`` are not: a mismatch is reported as
``sim.digest_match = 0`` so that a deliberate physics fix shows up
without making the benchmark fail.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = ["Checks", "EXPECTED", "check_results", "digest_match", "results_digest"]

EXPECTED = json.loads(
    (Path(__file__).with_name("expected.json")).read_text(encoding="utf-8")
)


class Checks:
    """Running count of attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return bool(ok)


def check_results(checks: Checks, results, tree_name: str) -> list:
    """Two operations per job: it returned a result; nodes are conserved.

    Returns the slots that are real results (failures are dropped so
    callers can still sum counters).
    """
    from repro import RunResult

    pinned = EXPECTED["tree_nodes"][tree_name]
    good = []
    for slot in results:
        label = getattr(slot, "label", repr(slot))
        if not checks.op(isinstance(slot, RunResult), f"{label}: no RunResult ({slot!r})"):
            checks.op(False, f"{label}: node conservation unchecked")
            continue
        checks.op(
            slot.total_nodes == pinned,
            f"{label}: total_nodes {slot.total_nodes} != sequential_count "
            f"{pinned} of {tree_name}",
        )
        good.append(slot)
    return good


def results_digest(results) -> str:
    """sha256 over the canonical result JSON of every job, in job order.

    ``RunResult.to_json`` holds simulated quantities only (no host
    wall-clock field), so the digest is a function of the physics.
    """
    h = hashlib.sha256()
    for r in results:
        h.update(r.to_json().encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def digest_match(size: str, workload: str, seed: int, digest: str) -> int | None:
    """1/0 against the pinned seed-0 digest; ``None`` when not pinned.

    Digests exist for seed 0 only: other seeds run the absolute
    invariants and skip this comparison.
    """
    if seed != 0:
        return None
    pinned = EXPECTED["digests"].get(size, {}).get(workload)
    if pinned is None:
        return None
    return int(pinned == digest)
