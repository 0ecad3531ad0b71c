#!/usr/bin/env python3
"""The repo's performance ledger: one command, every metric by name.

Two ways in:

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, as BENCHMARK.json's ``command`` is driven.
    ``--trace 0`` prints the end-to-end metrics (tracing and profiling
    off); ``--trace 1`` runs one pass under ``cProfile`` with spans
    recorded, then the layer rungs, and prints the per-layer metrics.
    The last stdout line is the JSON result; everything readable goes
    to stderr.

``python3 benchmarks/ledger/run.py [--seed N] [--out FILE] [--repeats R]``
    The whole ledger: every workload ``R`` times untraced, then once
    traced; medians with min/max, the machine record, and a JSON file
    that ``compare.py`` reads.

Every workload runs in a fresh child process (``--child``, internal) so
set-up time and peak memory are its own and no cache leaks between
runs.  The child meters its own thread's speed while it measures
(``speed.py``) and reports reference seconds; this parent only waits.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "_out"

# Sibling modules; none of them imports repro at module level.
from checks import digest_match  # noqa: E402
from speed import NOMINAL_S, SpeedMeter  # noqa: E402

#: Set-up is measured this many times per run, each in a fresh child
#: that sets up and exits; the median is reported.
SETUP_PROBES = 5


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Child: one workload in a fresh process
# ----------------------------------------------------------------------


def child_main(spec: dict) -> int:
    """Set up, run, report reference seconds as one JSON line."""
    import resource

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    import workloads
    from checks import Checks

    workload = workloads.make(spec["workload"], spec["size"], spec["seed"], OUT)
    report: dict = {
        "t_ready": time.perf_counter(),
        # What set-up cost this process, and whether it ever chose to wait.
        "setup_cpu_s": time.process_time(),
        "setup_waits": resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw,
    }
    mode = spec["mode"]
    checks = Checks()
    meter = SpeedMeter()
    try:
        if mode == "setup":
            meter.burst()  # the speed of the core that set-up just ran on
        elif mode == "measure":
            with meter:
                passes = _measure(workload, checks, spec["seconds"])
            report["passes"] = [_in_reference(meter, p) for p in passes]
        elif mode == "trace":
            import cProfile

            from tracing import fold_profile, span_coverage, write_chrome_trace

            # The profiler would charge the kernel's calls to the pass,
            # so this one pass is metered at its two ends only.
            profile = cProfile.Profile()
            meter.burst()
            profile.enable()
            record = workload.run_pass(checks)
            profile.disable()
            meter.burst()
            report["passes"] = [_in_reference(meter, record)]
            report["shares"] = fold_profile(profile)
            report["span_coverage"] = span_coverage(record)
            write_chrome_trace(
                OUT / f"trace-{spec['workload']}.json", spec["workload"], record
            )
    finally:
        workload.close()
    if mode == "trace":
        from rungs import run_rungs

        with meter:
            rungs = run_rungs(spec["size"], OUT)
        report["rungs"] = {
            "metrics": rungs["metrics"],
            "times": {
                key: [meter.reference(*interval) for interval in intervals]
                for key, intervals in rungs["timings"].items()
            },
        }
    report["kernel_cost_s"] = meter.median_cost()
    report["checks"] = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
    }
    # Pool workers are waited for by close(), so they count here.
    report["rss_kb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    print(json.dumps(report))
    return 0


def _in_reference(meter: SpeedMeter, record: dict) -> dict:
    """A pass record with its intervals turned into reference seconds."""
    out = {k: record[k] for k in ("events", "failed_steals", "nodes", "digest")}
    out["wall"] = meter.reference(record["t0"], record["t1"])
    out["exec"] = [meter.reference(*interval) for interval in record["exec"]]
    out["requests"] = [meter.reference(*interval) for interval in record["requests"]]
    return out


def _measure(workload, checks, seconds: float) -> list[dict]:
    """Full passes, back to back, for about ``seconds``; at least one.

    Another pass starts only if one as long as the longest so far would
    end within 15% of the window, which bounds the overshoot for short
    passes; a workload whose single pass is longer than the window
    runs exactly once.
    """
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        record = workload.run_pass(checks)
        passes.append(record)
        longest = max(longest, record["t1"] - record["t0"])
        if time.perf_counter() - start + longest > 1.15 * seconds:
            return passes


# ----------------------------------------------------------------------
# Parent: spawn, meter the set-up probes, turn reports into metrics
# ----------------------------------------------------------------------


def _spawn(spec: dict) -> dict:
    """Run one child; its report plus ``t_spawn`` (this clock, as the child's)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The simulator never calls threaded BLAS, but numpy's import starts
    # the thread pool, and whether the second core is free for that
    # made set-up time bimodal (0.2 s or 0.3 s).
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    t_spawn = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{spec['workload']} child ({spec['mode']}) exited {done.returncode}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["t_spawn"] = t_spawn
    return report


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(
    workload: str, seed: int, seconds: int, trace: int, size: str = "full"
) -> dict:
    """One benchmark run; the contract's result plus a ``detail`` dict."""
    base = {"workload": workload, "seed": seed, "size": size, "seconds": seconds}
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    if trace:
        report = _spawn({**base, "mode": "trace"})
        record = report["passes"][0]
        for bucket, share in report["shares"].items():
            put(f"prof.{bucket}.share", share, "ratio")
        put("trace.span_coverage", report["span_coverage"], "ratio")
        for name in ("events", "failed_steals", "nodes"):
            put(f"sim.{name}", record[name], "count")
        match = digest_match(size, workload, seed, record["digest"])
        put("sim.digest_match", -1 if match is None else match, "count")
        _rung_metrics(report["rungs"], put)
        detail = {"profiled_pass_s": record["wall"]}
    else:
        # Probed before the measured child (the service child leaves a few
        # seconds of write-back behind it), and after one discarded probe:
        # the first second of a run (the VM possibly just resumed) spread
        # set-up time five times wider.  The rule is the meter's own: a
        # child that never waited is charged the CPU time it got, not the
        # wall time that passed (under three CPU hogs: spread 5% against
        # 51%), at the kernel speed it finds once set up.
        setups = []
        for _ in range(1 + SETUP_PROBES):
            probe = _spawn({**base, "mode": "setup"})
            spent = probe["setup_cpu_s"]
            if probe["setup_waits"]:
                spent = probe["t_ready"] - probe["t_spawn"]
            setups.append(spent * NOMINAL_S / probe["kernel_cost_s"])
        del setups[0]
        report = _spawn({**base, "mode": "measure"})
        passes = report["passes"]
        busy = sum(sum(p["exec"]) for p in passes)
        waits = [wait for p in passes for wait in p["requests"]]
        put("setup_s", statistics.median(setups), "s")
        put("wall_s", statistics.median(p["wall"] for p in passes), "s")
        put("sim_events_per_s", sum(p["events"] for p in passes) / busy, "events/s")
        put("peak_rss_mb", report["rss_kb"] / 1024, "MiB")
        put("request_p50_ms", statistics.median(waits) * 1e3, "ms")
        detail = {
            "passes": len(passes),
            "setup_samples": len(setups),
            "request_samples": len(waits),
        }
        match = digest_match(size, workload, seed, passes[0]["digest"])
    first = report["passes"][0]
    detail.update(
        {k: first[k] for k in ("events", "failed_steals", "nodes", "digest")},
        digest_match=match,
        # 1.0 = the machine ran at reference speed; 2.0 = twice as slow.
        slowdown=report["kernel_cost_s"] / NOMINAL_S,
    )
    checks = report["checks"]
    for message in checks["messages"]:
        print(f"FAILED OPERATION [{workload}]: {message}", file=sys.stderr)
    if match == 0:
        print(
            f"DIGEST MISMATCH [{workload}]: simulated statistics differ from "
            f"expected.json at seed 0 (got {detail['digest']}); not counted as "
            "a failed operation — re-pin with --pin if the physics change is meant",
            file=sys.stderr,
        )
    return {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def _rung_metrics(rungs: dict, put) -> None:
    """Evaluate the rung formulas (see ``rungs._Bench``) in reference time."""
    times = rungs["times"]
    for m in rungs["metrics"]:
        kind = m["kind"]
        if kind == "rate":
            value = m["work"] / min(times[m["key"]])
        elif kind == "per":
            value = min(times[m["key"]]) * m["scale"] / m["count"]
        elif kind == "ratio":
            value = min(times[m["key"]]) / min(times[m["base"]])
        elif kind == "pct":
            value = _percentile(times[m["key"]], m["q"]) * m["scale"]
        else:
            value = m["value"]
        put(m["name"], value, m["unit"])


# ----------------------------------------------------------------------
# Machine record and adequacy
# ----------------------------------------------------------------------


def machine_record() -> dict:
    try:  # read, not imported: this parent stays light and single-threaded
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count() or 1,
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "reference_kernel_s": NOMINAL_S,
    }


def _close_record(machine: dict, results: list[dict]) -> None:
    machine["loadavg_1m_end"] = os.getloadavg()[0]
    machine["slowdown_vs_reference"] = statistics.median(
        r["detail"]["slowdown"] for r in results
    )
    worst = max(machine["loadavg_1m_start"], machine["loadavg_1m_end"])
    if worst > machine["nproc"]:
        print(
            f"WARNING: 1-min load average {worst:.2f} exceeds nproc "
            f"{machine['nproc']}: timings are not trustworthy",
            file=sys.stderr,
        )


#: Worker processes a workload starts (both sizes); more workers than
#: cores would measure the scheduler, so such a run is refused.
_WORKERS = {"service-sweep": 2}


def _adequate(workload: str) -> str | None:
    """Why this machine cannot run ``workload``, or ``None``."""
    need = _WORKERS.get(workload, 1)
    if (os.cpu_count() or 1) < need:
        return f"needs {need} cores for its {need} workers, nproc is {os.cpu_count()}"
    return None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def _print_metrics(title: str, result: dict) -> None:
    print(f"-- {title}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"   {name:44s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    d = result["detail"]
    counts = ", ".join(
        f"{k}={d[k]}" for k in ("passes", "setup_samples", "request_samples") if k in d
    )
    print(
        f"   operations: attempted {result['attempted']}, failed "
        f"{result['failed']}" + (f"; samples: {counts}" if counts else ""),
        file=sys.stderr,
    )


def driver_main(args, spec: dict) -> int:
    """One run of one workload: the BENCHMARK.json contract."""
    reason = _adequate(args.workload)
    if reason:
        print(f"cannot run {args.workload}: {reason}", file=sys.stderr)
        return 3
    machine = machine_record()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    _close_record(machine, [result])
    print(f"machine: {json.dumps(machine)}", file=sys.stderr)
    _print_metrics(f"{args.workload} seed={args.seed} trace={args.trace}", result)
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        print(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ wanted)}",
            file=sys.stderr,
        )
        return 4
    del result["detail"]
    print(json.dumps(result))
    return 0


def _summary(values: list[float], unit: str) -> dict:
    return {
        "unit": unit, "median": statistics.median(values),
        "min": min(values), "max": max(values), "samples": values,
    }


def ledger_main(args, spec: dict) -> int:
    """Every workload ``--repeats`` times untraced, then once traced."""
    machine = machine_record()
    names = [w["name"] for w in spec["workloads"]]
    ledger: dict = {
        "schema": "ledger-v1", "machine": machine, "seed": args.seed,
        "seconds": args.seconds, "size": args.size, "workloads": {},
    }
    every_run: list[dict] = []
    for name in names:
        reason = _adequate(name)
        if reason:
            print(f"== {name}: SKIPPED ({reason})")
            ledger["workloads"][name] = {"status": "skipped", "reason": reason}
            continue
        runs = [
            run_workload(name, args.seed, args.seconds, 0, args.size)
            for _ in range(args.repeats)
        ]
        traced = run_workload(name, args.seed, args.seconds, 1, args.size)
        every_run += runs + [traced]
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"] + 1
        # Bit-stability across fresh processes is itself an operation
        # (for strategy-grid the digest is the leaderboard's).
        digests = {r["detail"]["digest"] for r in runs + [traced]}
        failed = sum(r["failed"] for r in runs) + traced["failed"] + (len(digests) > 1)
        if len(digests) > 1:
            print(f"FAILED OPERATION [{name}]: result digest differs between repeats")
        wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in runs)
        entry = {
            "status": "ok",
            "attempted": attempted,
            "failed": failed,
            "failed_ops_share": failed / attempted,
            "end_to_end": {
                m: _summary([r["metrics"][m]["value"] for r in runs],
                            runs[0]["metrics"][m]["unit"])
                for m in runs[0]["metrics"]
            },
            "per_layer": traced["metrics"],
            # Traced over untraced pass: how far to trust the shares.
            "profile_overhead_ratio": traced["detail"]["profiled_pass_s"] / wall,
            "sim": {k: traced["detail"][k]
                    for k in ("events", "failed_steals", "nodes", "digest", "digest_match")},
            "samples": {k: [r["detail"][k] for r in runs]
                        for k in ("passes", "setup_samples", "request_samples")},
        }
        ledger["workloads"][name] = entry
        _print_entry(name, entry)
    _close_record(machine, every_run)
    print(f"machine: {json.dumps(machine)}")
    out = Path(args.out) if args.out else OUT / "ledger.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1), encoding="utf-8")
    print(f"wrote {out}; span files are {OUT}/trace-<workload>.json")
    bad = [n for n, e in ledger["workloads"].items() if e.get("failed")]
    return 1 if bad else 0


def _print_entry(name: str, entry: dict) -> None:
    print(f"== {name}: failed_ops_share {entry['failed_ops_share']:.4g} "
          f"({entry['failed']}/{entry['attempted']} operations)")
    for metric, s in entry["end_to_end"].items():
        print(f"   {metric:20s} {s['median']:>14.6g} {s['unit']:9s} "
              f"min {s['min']:.6g} max {s['max']:.6g} (n={len(s['samples'])})")
    print(f"   samples per run: {json.dumps(entry['samples'])}")
    print(f"   profile_overhead_ratio {entry['profile_overhead_ratio']:.3g} "
          "(traced pass / untraced median)")
    for metric, m in entry["per_layer"].items():
        print(f"   {metric:44s} {m['value']:>16.6g} {m['unit']}")


def pin_main() -> int:
    """Rewrite the seed-0 digests in expected.json from a fresh run."""
    from workloads import SIZES

    path = HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    for size, workloads in SIZES.items():
        for name in workloads:
            report = _spawn(
                {"workload": name, "seed": 0, "size": size, "seconds": 0, "mode": "measure"}
            )
            expected["digests"].setdefault(size, {})[name] = report["passes"][0]["digest"]
            print(f"pinned {size}/{name}")
    path.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring window per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy exists for test_ledger.py")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload in ledger mode")
    parser.add_argument("--out", help="ledger JSON path (ledger mode)")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin expected.json's seed-0 digests")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(json.loads(args.child))
    sys.path.insert(0, str(SRC))
    if args.pin:
        return pin_main()
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        return driver_main(args, spec)
    return ledger_main(args, spec)


if __name__ == "__main__":
    sys.exit(main())
