"""Extension: localized + cooperative stealing (ISSUE 10 acceptance).

On the paper-calibrated T3L/tofu-cluster preset (64 ranks,
hierarchical latency, NIC cost) the protocol extensions must *beat*
the baseline request/response protocol — asserted, not eyeballed:

* region-first forwarding (``forward[3]+regions[8]``) beats uniform
  random stealing on **makespan**;
* it also beats it on **mean failed-chain length** — relaying a denied
  request toward work converts long starvation chains into served
  forwards (the Project Picasso observation);
* plain forwarding already cuts the failed-steal count by an integer
  factor.

Makespans come from the ``protocol`` tournament preset (the recorded
leaderboard feeds EXPERIMENTS.md "Localized and cooperative
stealing"); chain statistics need event traces, which the tournament
cache deliberately drops, so those two runs happen directly.
"""

from __future__ import annotations

import numpy as np

from repro.bench.experiments import experiment_config
from repro.bench.report import format_table, save_artifact
from repro.protocol.variants import protocol_overrides
from repro.tournament import PRESETS, run_tournament
from repro.trace.analysis import TraceAnalysis
from repro.ws import run_uts
from repro.ws.results import RunResult

BASELINE = "steal"
FORWARDING = "forward[3]"
LOCALIZED = "forward[3]+regions[8]"


def _row(tournament, selector: str, protocol_tag: str) -> dict:
    for row in tournament.rows:
        if row["selector"] == selector and row["protocol"] == protocol_tag:
            return row
    raise KeyError(f"no row for {selector!r} / {protocol_tag!r}")


def _chain_stats(protocol_spec: str) -> tuple[RunResult, float]:
    result = run_uts(
        experiment_config(
            "T3L",
            64,
            selector="rand",
            event_trace=True,
            **protocol_overrides(protocol_spec),
        )
    )
    chains = TraceAnalysis(result.events).failed_chains()
    return result, float(np.mean(chains)) if chains else 0.0


def test_localized_forwarding_beats_uniform_random_on_t3l(once):
    def run_all():
        tournament = run_tournament(PRESETS["protocol"], jobs=None)
        base_res, base_chain = _chain_stats(BASELINE)
        loc_res, loc_chain = _chain_stats(LOCALIZED)
        return tournament, (base_res, base_chain), (loc_res, loc_chain)

    tournament, (base_res, base_chain), (loc_res, loc_chain) = once(run_all)

    print("== Protocol tournament: T3L x64, calibrated ==")
    print(
        format_table(
            ["selector", "protocol", "makespan", "success", "failed"],
            [
                [
                    r["selector"],
                    r["protocol"],
                    r["makespan"],
                    r["steal_success_rate"],
                    r["failed_steals"],
                ]
                for r in tournament.rows
            ],
        )
    )
    save_artifact(
        "extension_protocol_tournament",
        {
            "spec": tournament.spec.name,
            "rows": tournament.rows,
            "mean_failed_chain": {
                BASELINE: base_chain,
                LOCALIZED: loc_chain,
            },
        },
    )

    def makespan(protocol_tag: str) -> float:
        return _row(tournament, "rand", protocol_tag)["makespan"]

    # THE acceptance assertions (ISSUE 10): region-first forwarding
    # beats uniform random stealing on makespan AND on the mean
    # failed-chain length.
    assert makespan("fwd3+reg8") < makespan("steal")
    assert loc_chain < base_chain

    # Forwarding alone already helps the makespan...
    assert makespan("fwd3") < makespan("steal")
    # ...and collapses the failure traffic: most would-be denials are
    # relayed toward work instead.
    assert loc_res.requests_forwarded > 0
    assert base_res.requests_forwarded == 0
    assert loc_res.failed_steals < base_res.failed_steals / 2

    # The leaderboard is protocol-aware end to end: every preset spec
    # produced a distinctly-tagged row per selector.
    tags = {(r["selector"], r["protocol"]) for r in tournament.rows}
    assert len(tags) == len(tournament.rows)
