"""Extension: the paper's top rank count, 8192 processes.

Until latency rows became one byte per rank pair and skewed selectors
stopped keeping their cumulative vectors (DESIGN.md §3, §5d), an
8192-rank job needed more than 1 GB for tables alone and no rung
reached the top of the paper's 1024-8192 range.  This rung runs
``reference``/``one`` on ``1/N`` and on ``8RR`` with the calibrated NIC
cost, and ``tofu``/``half`` on ``1/N`` with the NIC zeroed (the
ledger's ``scale-4096`` job at twice the ranks), each in a process of
its own, and asserts what must hold at any scale: every node of the
tree is processed exactly once (against
:func:`repro.uts.sequential_count`), and a job peaks under 512 MiB
resident.

``tofu``/``half`` runs without the NIC cost because with it the job
does not end inside the default 1e8-event budget: after 2e7 events all
4,427 nodes are processed, every rank is idle, and the first
termination token is still crawling through ports saturated by 8192
ranks' steal requests (0.51 s simulated against 0.057 s for the whole
``reference`` run).  That is the model's answer, not a fault of the
engine, and it is recorded here so nobody spends an hour finding it.

The allocation ordering is *recorded*, not asserted:
``TofuTopology.for_nodes`` books the 8192-node machine as a ring of
683 cubes and the 8RR machine (1024 nodes) as a 1 x 2 x 43 strip
(EXPERIMENTS.md "Validity boundary"), and T3XS gives 8192 ranks half a
node each, so what the artifact holds is the simulator's answer for
that machine and that tree, not a reading of Fig 3.

Skipped by default; enable with::

    REPRO_EXTENDED=1 pytest benchmarks/test_extension_scale_8192.py --benchmark-only
"""

from __future__ import annotations

import multiprocessing
import os
import resource

import pytest

from repro.bench.experiments import experiment_config
from repro.bench.report import format_table, save_artifact
from repro.uts import sequential_count, tree_by_name
from repro.ws import run_uts

NRANKS = 8192
TREE = "T3XS"
#: ``(allocation, selector, steal policy, config overrides)``.
JOBS = (
    ("1/N", "reference", "one", {}),
    ("8RR", "reference", "one", {}),
    ("1/N", "tofu", "half", {"nic_service_time": 0.0}),
)
RSS_BOUND_MIB = 512

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("REPRO_EXTENDED"),
        reason="extended-scale run; set REPRO_EXTENDED=1 to enable",
    ),
]


def _job(job: tuple[str, str, str, dict]) -> dict:
    """One run in a fresh process, so ``ru_maxrss`` is this job's."""
    allocation, selector, policy, overrides = job
    config = experiment_config(
        TREE, NRANKS, allocation=allocation, selector=selector,
        steal_policy=policy, **overrides,
    )
    result = run_uts(config)
    return {
        "allocation": allocation,
        "selector": selector,
        "steal_policy": policy,
        "nic_service_time": config.nic_service_time,
        "total_nodes": result.total_nodes,
        "total_time": result.total_time,
        "speedup": result.speedup,
        "failed_steals": result.failed_steals,
        "events_processed": result.events_processed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _sweep() -> list[dict]:
    spawn = multiprocessing.get_context("spawn")
    with spawn.Pool(1, maxtasksperchild=1) as pool:
        return pool.map(_job, JOBS, chunksize=1)


def test_8192_ranks_conserve_nodes_under_512_mib(once):
    rows = once(_sweep)
    print(f"== x{NRANKS} ranks on {TREE}, one process per job ==")
    print(
        format_table(
            ["allocation", "selector", "speedup", "failed", "events", "RSS MiB"],
            [
                [r["allocation"], f"{r['selector']}/{r['steal_policy']}",
                 r["speedup"], r["failed_steals"], r["events_processed"],
                 r["peak_rss_mib"]]
                for r in rows
            ],
        )
    )
    span = {(r["allocation"], r["selector"]): r["total_time"] for r in rows}
    save_artifact(
        "extension_scale_8192",
        {
            "nranks": NRANKS,
            "tree": TREE,
            "jobs": rows,
            # Recorded, not asserted (module docstring).
            "8RR_slower_than_1N_under_reference": (
                span["8RR", "reference"] > span["1/N", "reference"]
            ),
        },
    )

    expected = sequential_count(tree_by_name(TREE)).total_nodes
    for r in rows:
        assert r["total_nodes"] == expected, r
        assert r["peak_rss_mib"] < RSS_BOUND_MIB, r
