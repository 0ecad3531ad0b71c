"""The ledger's four workloads, measured from outside the program.

Each workload class does its set-up in ``__init__`` (config
construction; for the service also store, tempdir and service start),
runs one full pass per :meth:`run_pass` call and releases what it
opened in :meth:`close`.  A pass returns a plain-dict record of
monotonic timestamps — the harness turns them into reference seconds
(see ``speed.py``) — plus the exact simulated counts.

``--seed`` feeds ``WorkStealingConfig.seed`` (victim-selector
randomness; in ``service-sweep`` the seed axis) and never the tree
root: tree size is a function of the root seed, so changing it would
change the work.  Engines are chosen through ``WorkStealingConfig``
fields and calibration through ``experiment_config`` only.
"""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import tempfile
import time
from pathlib import Path

from repro import (
    ArtifactStore,
    ResultCache,
    RunResult,
    SimulationService,
    run_many,
)
from repro.bench.experiments import experiment_config
from repro.tournament import TournamentSpec, run_tournament

from checks import Checks, check_results, results_digest

__all__ = ["SIZES", "make"]

#: ``full`` is what BENCHMARK.json measures; ``toy`` exists for
#: test_ledger.py.  Rank counts are the workloads' identity — when the
#: run-time cap binds, trees and job counts shrink, rank counts never.
SIZES = {
    "full": {
        "ladder-contention": dict(tree="T3M", nranks=256, orderings=True),
        "scale-4096": dict(tree="T3XS", nranks=4096, shards=8),
        "strategy-grid": dict(tree="T3M", nranks=64),
        "service-sweep": dict(
            tree="T3S", ranks=(16, 32, 64), seeds=4, warm=400, workers=2
        ),
    },
    "toy": {
        "ladder-contention": dict(tree="T3XS", nranks=16, orderings=False),
        "scale-4096": dict(tree="T3XS", nranks=16, shards=2),
        "strategy-grid": dict(tree="T3XS", nranks=16),
        "service-sweep": dict(
            tree="T3XS", ranks=(8, 16), seeds=2, warm=5, workers=2
        ),
    },
}


def _job_spans():
    """A ``progress=`` callback and the list of ``job`` spans it fills."""
    jobs: list[dict] = []

    def tick(p) -> None:
        now = time.perf_counter()
        jobs.append(
            {"id": p.fingerprint[:16], "label": p.label,
             "t0": now - p.elapsed, "t1": now}
        )

    return jobs, tick


def _jsons(slots) -> list:
    return [r.to_json() if isinstance(r, RunResult) else None for r in slots]


def _record(t0: float, t1: float, jobs: list[dict], results: list) -> dict:
    """Pass record; ``results`` are the good (``RunResult``) slots."""
    return {
        "t0": t0,
        "t1": t1,
        "jobs": jobs,
        # Intervals whose summed length divides the event count.
        "exec": [[j["t0"], j["t1"]] for j in jobs],
        # What a caller waits for: here one job.
        "requests": [[j["t0"], j["t1"]] for j in jobs],
        "spans": [],
        "events": sum(r.events_processed for r in results),
        "failed_steals": sum(r.failed_steals for r in results),
        "nodes": sum(r.total_nodes for r in results),
        "digest": results_digest(results),
    }


class _SimWorkload:
    """A list of configs run back to back through ``run_many(jobs=1)``."""

    def __init__(self, params: dict, seed: int, out: Path):
        self.params = params
        self.configs = self._configs(params, seed)

    def run_pass(self, checks: Checks) -> dict:
        jobs, tick = _job_spans()
        t0 = time.perf_counter()
        slots = run_many(
            self.configs, jobs=1, store=None, progress=tick, return_exceptions=True
        )
        t1 = time.perf_counter()
        results = check_results(checks, slots, self.params["tree"])
        if len(results) == len(slots):
            self._check(checks, results)
        return _record(t0, t1, jobs, results)

    def _check(self, checks: Checks, results: list) -> None:
        pass

    def close(self) -> None:
        pass


class LadderContention(_SimWorkload):
    """The three runs the paper orderings need, calibrated NIC cost on:
    reference/one on 1/N and on 8RR, tofu/half on 1/N."""

    @staticmethod
    def _configs(p: dict, seed: int) -> list:
        return [
            experiment_config(
                p["tree"], p["nranks"], allocation=alloc,
                selector=sel, steal_policy=pol, seed=seed,
            )
            for alloc, sel, pol in (
                ("1/N", "reference", "one"),
                ("1/N", "tofu", "half"),
                ("8RR", "reference", "one"),
            )
        ]

    def _check(self, checks: Checks, results: list) -> None:
        if not self.params["orderings"]:
            return
        span = {(r.allocation, r.selector): r.total_time for r in results}
        checks.op(
            span["8RR", "reference"] > span["1/N", "reference"],
            "paper ordering: 8RR makespan must exceed 1/N under reference/one",
        )
        checks.op(
            span["1/N", "tofu"] < span["1/N", "reference"],
            "paper ordering: tofu/half must beat reference/one on 1/N",
        )


#: Selector seeds on which T3XS @ 4096 ranks processes 3.28-3.43 M
#: events.  Of 19 seeds tried, one (8) processed 4.96 M: on such a seed
#: wall time says which seed the run drew, not how fast the code is.
#: ``--seed`` picks from these; re-draw the list with ``expected.json``
#: when a change to the simulated physics is meant.
_REGULAR_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 1000)


class Scale4096(_SimWorkload):
    """One sharded-engine job, NIC off (the sharded engine requires it)."""

    @staticmethod
    def _configs(p: dict, seed: int) -> list:
        return [
            experiment_config(
                p["tree"], p["nranks"], allocation="1/N", selector="tofu",
                steal_policy="half", engine="sharded", shards=p["shards"],
                shard_workers=1, nic_service_time=0.0,
                seed=_REGULAR_SEEDS[seed % len(_REGULAR_SEEDS)],
            )
        ]


class _CaptureStore(ResultCache):
    """Never hits, keeps what is put: hands ``run_tournament``'s results
    (event and node counts are not in leaderboard rows) to the checker
    without touching the disk."""

    def __init__(self) -> None:
        super().__init__(root="unused")
        self.results: list[RunResult] = []

    def get(self, fingerprint: str) -> None:
        return None

    def put(self, fingerprint, result, config=None, elapsed=None) -> Path:
        self.results.append(result)
        return self.path_for(fingerprint)


class StrategyGrid:
    """4 selectors x 3 protocol variants, ``trace=True``, scored on SL/EL."""

    def __init__(self, params: dict, seed: int, out: Path):
        self.params = params
        self.spec = TournamentSpec(
            name="ledger-grid",
            tree=params["tree"],
            nranks=params["nranks"],
            selectors=("tofu", "adapt-eps[0.1]", "adapt-sr[0.9]", "adapt-backoff[2]"),
            steal_policies=("one",),
            protocols=("steal", "forward[3]+regions[8]", "lifelines[2:ring]"),
            seed=seed,
        )
        self._leaderboard: str | None = None

    def run_pass(self, checks: Checks) -> dict:
        store = _CaptureStore()
        jobs, tick = _job_spans()
        t0 = time.perf_counter()
        tour = run_tournament(self.spec, jobs=1, store=store, progress=tick)
        t1 = time.perf_counter()
        results = check_results(checks, store.results, self.params["tree"])
        board = tour.leaderboard_json()
        if self._leaderboard is None:
            self._leaderboard = board
        checks.op(
            board == self._leaderboard and len(tour.rows) == len(jobs),
            "leaderboard JSON differs between passes of one run",
        )
        rec = _record(t0, t1, jobs, results)
        # Scoring runs after the last job returns.
        rec["spans"].append({"name": "score", "t0": jobs[-1]["t1"], "t1": t1})
        rec["digest"] = hashlib.sha256(board.encode("utf-8")).hexdigest()
        return rec

    def close(self) -> None:
        pass


class ServiceSweep:
    """Cold: clients a and b submit the same sweep at once.  Warm:
    client c resubmits it ``warm`` times, one sweep after the other."""

    def __init__(self, params: dict, seed: int, out: Path):
        self.params = params
        self.configs = [
            experiment_config(
                params["tree"], n, selector=sel, steal_policy=pol,
                seed=seed * 1000 + i,
            )
            for n in params["ranks"]
            for sel, pol in (("reference", "one"), ("rand", "one"), ("tofu", "half"))
            for i in range(params["seeds"])
        ]
        self._loop = asyncio.new_event_loop()
        self._tmp = Path(tempfile.mkdtemp(dir=out, prefix="service-"))
        self._service: SimulationService | None = None
        self._open()

    def _open(self) -> None:
        store = ArtifactStore(tempfile.mkdtemp(dir=self._tmp, prefix="store-"))
        self._service = SimulationService(self.params["workers"], store)
        self._loop.run_until_complete(self._service.start())

    def _shut(self) -> None:
        if self._service is not None:
            self._loop.run_until_complete(self._service.close())
            shutil.rmtree(self._service.store.root, ignore_errors=True)
            self._service = None

    def run_pass(self, checks: Checks) -> dict:
        if self._service is None:
            self._open()  # a fresh empty store: every pass starts cold
        try:
            return self._loop.run_until_complete(self._pass(checks))
        finally:
            self._shut()

    async def _pass(self, checks: Checks) -> dict:
        service = self._service
        configs = self.configs
        n = len(configs)
        spans: list[dict] = []
        # JobEvent timestamps are time.monotonic; spans use perf_counter.
        skew = time.perf_counter() - time.monotonic()

        t0 = time.perf_counter()
        ha, hb = await asyncio.gather(
            service.submit(configs, client="a"),
            service.submit(configs, client="b"),
        )
        ra, rb = await asyncio.gather(ha.results(), hb.results())
        t_cold = time.perf_counter()

        stamps: dict[str, dict] = {}
        async for ev in ha.events():
            stamps.setdefault(ev.job_id, {"id": ev.fingerprint[:16], "label": ev.label})[
                ev.state.value
            ] = ev.timestamp + skew
        jobs = [
            {"id": s["id"], "label": s["label"], "t0": s["started"], "t1": s["done"]}
            for s in stamps.values()
            if "started" in s and "done" in s
        ]
        queue_waits = [
            [s["queued"], s["started"]] for s in stamps.values()
            if "queued" in s and "started" in s
        ]

        requests = []
        warm = self.params["warm"]
        probed = []  # three sweeps kept for the byte comparison below
        warm_ok = True
        for i in range(warm):
            w0 = time.perf_counter()
            handle = await service.submit(configs, client="c")
            w1 = time.perf_counter()
            rc = await handle.results()
            w2 = time.perf_counter()
            requests.append([w0, w2])
            spans.append({"name": "submit", "t0": w0, "t1": w1})
            spans.append({"name": "results", "t0": w1, "t1": w2})
            if i in (0, warm // 2, warm - 1):
                probed.append(rc)
            else:
                warm_ok &= all(isinstance(r, RunResult) for r in rc)
        t1 = time.perf_counter()
        cold_json = _jsons(ra)
        warm_ok &= all(_jsons(rc) == cold_json for rc in probed)

        results = check_results(checks, ra, self.params["tree"])
        stats = service.stats()
        checks.op(_jsons(rb) == cold_json, "client b's results differ from client a's")
        checks.op(
            stats.executed == n and stats.dedup_joins == n,
            f"one fingerprint, one execution: executed {stats.executed}, "
            f"joins {stats.dedup_joins}, distinct {n}",
        )
        checks.op(warm_ok, "a warm sweep did not return the cold results")
        checks.op(stats.failed == 0, f"{stats.failed} jobs failed")

        spans.append({"name": "cold", "t0": t0, "t1": t_cold})
        rec = _record(t0, t1, jobs, results)
        rec.update(
            exec=[[t0, t_cold]],  # two workers overlap: events / cold wall
            requests=requests,
            spans=spans,
            cold=[t0, t_cold],
            queue_waits=queue_waits,
            executed=stats.executed,
        )
        return rec

    def close(self) -> None:
        self._shut()
        self._loop.close()
        shutil.rmtree(self._tmp, ignore_errors=True)


_CLASSES = {
    "ladder-contention": LadderContention,
    "scale-4096": Scale4096,
    "strategy-grid": StrategyGrid,
    "service-sweep": ServiceSweep,
}


def make(name: str, size: str, seed: int, out: Path):
    """Set up one workload (this is what ``setup_s`` times)."""
    return _CLASSES[name](SIZES[size][name], seed, out)
