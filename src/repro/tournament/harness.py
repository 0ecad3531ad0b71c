"""Scenario tournament: rank strategies against each other.

A :class:`TournamentSpec` names a deterministic grid of configurations
— selector x steal-policy x allocation on one tree/rank count, under
the benchmark calibration — and :func:`run_tournament` executes it
through :func:`repro.exec.run_many` (cached, parallel,
service-compatible) and scores every cell on the paper's metrics:
makespan, speedup/efficiency, steal-success rate, mean search time and
the mid-occupancy scheduling latencies (SL/EL at 0.5).

Determinism contract: the leaderboard artifact is **byte-identical**
across repeated runs and worker counts.  Everything that feeds a row
survives the result-cache round-trip exactly — counters and the
activity trace are serialized losslessly by ``RunResult.to_dict``, so
a leaderboard rebuilt from cached results equals the cold one.  That
is why tournament configs set ``trace=True`` but never
``event_trace=True``: event streams are diagnostic-only and deliberately
dropped by the cache, so nothing here may score from them.  Run
bookkeeping that legitimately differs between cold and warm runs
(executed/cached counts) lives on the :class:`Tournament` object, not
in the artifact.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Callable

from repro.bench.experiments import experiment_config
from repro.core.config import WorkStealingConfig, canonical_json
from repro.exec.pool import RunProgress, run_many
from repro.exec.store import ArtifactStore
from repro.protocol.variants import protocol_overrides, protocol_tag
from repro.ws.results import RunResult

__all__ = [
    "TournamentSpec",
    "Tournament",
    "run_tournament",
    "PRESETS",
    "DEFAULT_OUT_DIR",
]

#: Where ``write()`` and the CLI drop leaderboard artifacts.
DEFAULT_OUT_DIR = os.path.join("benchmarks", "_artifacts")

#: Occupancy level for the SL/EL columns.  The compressed calibration
#: tops out well below full occupancy (DESIGN.md: critical-path-bound
#: at scale), so the curves are read at 0.5 — reached by every
#: non-degenerate run — rather than the paper's 0.9.
_SL_OCCUPANCY = 0.5


@dataclass(frozen=True)
class TournamentSpec:
    """A deterministic strategy grid on one tree / rank count."""

    name: str
    tree: str
    nranks: int
    selectors: tuple[str, ...]
    steal_policies: tuple[str, ...] = ("one",)
    allocations: tuple[str, ...] = ("1/N",)
    #: Protocol-variant specs (:mod:`repro.protocol.variants` grammar:
    #: ``"steal"``, ``"forward[3]"``, ``"regions[8]+lifelines[2]"``...),
    #: the innermost grid axis.
    protocols: tuple[str, ...] = ("steal",)
    seed: int = 0
    #: Apply the benchmark :class:`~repro.bench.experiments.Calibration`
    #: (hierarchical latency, NIC cost); plain defaults otherwise.
    calibrated: bool = True

    def configs(self) -> list[WorkStealingConfig]:
        """The grid, in fixed selector-major order."""
        out = []
        for selector in self.selectors:
            for policy in self.steal_policies:
                for allocation in self.allocations:
                    for protocol in self.protocols:
                        extra = protocol_overrides(protocol)
                        if self.calibrated:
                            cfg = experiment_config(
                                self.tree,
                                self.nranks,
                                allocation=allocation,
                                selector=selector,
                                steal_policy=policy,
                                seed=self.seed,
                                trace=True,
                                **extra,
                            )
                        else:
                            cfg = WorkStealingConfig(
                                tree=self.tree,
                                nranks=self.nranks,
                                allocation=allocation,
                                selector=selector,
                                steal_policy=policy,
                                seed=self.seed,
                                trace=True,
                                **extra,
                            )
                        out.append(cfg)
        return out


def _score(cfg: WorkStealingConfig, result: RunResult) -> dict:
    """One leaderboard row; every field survives the cache bit-exactly."""
    attempts = result.successful_steals + result.failed_steals
    curve = result.occupancy_curve()
    sl = curve.starting_latency(_SL_OCCUPANCY)
    el = curve.ending_latency(_SL_OCCUPANCY)
    return {
        "label": result.label,
        "selector": result.selector,
        "steal_policy": result.steal_policy,
        "allocation": result.allocation,
        "protocol": protocol_tag(cfg),
        "tree": result.tree_name,
        "nranks": result.nranks,
        "makespan": result.total_time,
        "speedup": result.speedup,
        "efficiency": result.efficiency,
        "steal_success_rate": (
            result.successful_steals / attempts if attempts else None
        ),
        "steal_requests": result.steal_requests,
        "failed_steals": result.failed_steals,
        "mean_search_time": result.mean_search_time,
        "sl50": sl,
        "el50": el,
    }


_MD_COLUMNS = (
    ("rank", "rank"),
    ("selector", "selector"),
    ("steal_policy", "policy"),
    ("allocation", "alloc"),
    ("protocol", "protocol"),
    ("makespan", "makespan [s]"),
    ("efficiency", "efficiency"),
    ("steal_success_rate", "steal success"),
    ("failed_steals", "failed"),
    ("sl50", "SL(0.5)"),
    ("el50", "EL(0.5)"),
)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class Tournament:
    """A finished tournament: spec, ranked rows, run bookkeeping."""

    spec: TournamentSpec
    #: Rows sorted by (makespan, label): the leaderboard order.
    rows: list[dict]
    #: Configs actually simulated this run (not served from the store).
    executed: int
    #: Configs served from the store without simulating.
    cached: int

    @property
    def winner(self) -> dict:
        return self.rows[0]

    def row_for(self, selector: str, steal_policy: str | None = None) -> dict:
        """First (best) row matching a selector (and optionally policy)."""
        for row in self.rows:
            if row["selector"] != selector:
                continue
            if steal_policy is not None and row["steal_policy"] != steal_policy:
                continue
            return row
        raise KeyError(f"no row for selector {selector!r}")

    # -- artifacts ------------------------------------------------------

    def leaderboard_json(self) -> str:
        """Canonical JSON artifact (sorted keys, compact, newline-final).

        Contains only run-independent content — see the module docs for
        why executed/cached stay out of it.
        """
        return (
            canonical_json({"spec": asdict(self.spec), "rows": self.rows})
            + "\n"
        )

    def leaderboard_markdown(self) -> str:
        lines = [
            f"# Tournament: {self.spec.name}",
            "",
            f"Tree {self.spec.tree}, {self.spec.nranks} ranks, "
            f"seed {self.spec.seed}; rows ranked by makespan.",
            "",
            "| " + " | ".join(title for _, title in _MD_COLUMNS) + " |",
            "|" + "|".join("---" for _ in _MD_COLUMNS) + "|",
        ]
        for i, row in enumerate(self.rows, start=1):
            cells = [
                _cell(i if key == "rank" else row[key])
                for key, _ in _MD_COLUMNS
            ]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        return "\n".join(lines)

    def write(self, out_dir: str | os.PathLike = DEFAULT_OUT_DIR) -> list[str]:
        """Write ``tournament_<name>.{json,md}``; returns the paths."""
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(str(out_dir), f"tournament_{self.spec.name}")
        paths = []
        for suffix, payload in (
            (".json", self.leaderboard_json()),
            (".md", self.leaderboard_markdown()),
        ):
            path = base + suffix
            with open(path, "w") as fh:
                fh.write(payload)
            paths.append(path)
        return paths


def run_tournament(
    spec: TournamentSpec,
    *,
    jobs: int | None = 1,
    store: ArtifactStore | str | os.PathLike | bool | None = None,
    progress: Callable[[RunProgress], None] | None = None,
) -> Tournament:
    """Execute a tournament grid and rank the results.

    ``jobs`` and ``store`` are forwarded untouched to
    :func:`repro.exec.run_many`, and so is every ``progress`` tick
    (after ``cached`` has been counted from it).  The returned
    leaderboard is independent of all of them.
    """
    configs = spec.configs()
    cached = 0

    def _count(tick: RunProgress) -> None:
        nonlocal cached
        cached += tick.cached
        if progress is not None:
            progress(tick)

    results = run_many(configs, jobs=jobs, store=store, progress=_count)
    rows = [_score(cfg, res) for cfg, res in zip(configs, results)]
    rows.sort(key=lambda r: (r["makespan"], r["label"]))
    return Tournament(
        spec=spec,
        rows=rows,
        executed=len(configs) - cached,
        cached=cached,
    )


#: Named grids for the CLI, CI and the test suites.
PRESETS: dict[str, TournamentSpec] = {
    # Seconds-scale: CI smoke and the harness unit tests.
    "smoke": TournamentSpec(
        name="smoke",
        tree="T3XS",
        nranks=16,
        selectors=("rand", "tofu", "adapt-sr[0.9]"),
    ),
    # The golden preset (ISSUE 8): T3S, 64 ranks, 3 selectors.
    "small": TournamentSpec(
        name="small",
        tree="T3S",
        nranks=64,
        selectors=("rand", "tofu", "adapt-eps[0.1]"),
    ),
    # The acceptance grid: every adaptive family vs the static
    # baselines on the paper-calibrated large tree.
    "adaptive": TournamentSpec(
        name="adaptive",
        tree="T3L",
        nranks=64,
        selectors=(
            "rand",
            "tofu",
            "adapt-eps[0.1]",
            "adapt-sr[0.9]",
            "adapt-backoff[2]",
        ),
        steal_policies=("one", "adaptive[3]"),
    ),
    # The protocol axis (ISSUE 10): localized + cooperative stealing
    # vs the baseline on the paper-calibrated large tree.
    "protocol": TournamentSpec(
        name="protocol",
        tree="T3L",
        nranks=64,
        selectors=("rand", "tofu"),
        protocols=(
            "steal",
            "forward[3]",
            "regions[8]",
            "forward[3]+regions[8]",
            "lifelines[2:ring]",
            "forward[2]+regions[8]+lifelines[2:regtree]",
        ),
    ),
    # The full registry sweep (slow; bench/CLI territory).
    "full": TournamentSpec(
        name="full",
        tree="T3M",
        nranks=64,
        selectors=(
            "reference",
            "rand",
            "tofu",
            "hierarchical",
            "lastvictim",
            "skew[2]",
            "latskew[1]",
            "adapt-eps[0.1]",
            "adapt-sr[0.9]",
            "adapt-backoff[2]",
        ),
        steal_policies=("one", "half", "adaptive[3]"),
        allocations=("1/N", "8RR"),
    ),
}
