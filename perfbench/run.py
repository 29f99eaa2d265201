"""The tandem benchmark: run one workload for one seed and print its result.

    python3 perfbench/run.py --workload register --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; tandem is imported from its `src/`.
The last line of standard output is the result: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the per-layer
split with --trace 1). The line before it gives the machine facts, sample
counts and failures. Both, and with --trace 1 the spans, are also written
under perfbench/out/. See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, export, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Fastest time of workloads.reference_task on the machine the bounds were set
# on (2-core Intel Xeon, 2.1 GHz, Python 3.11). Times are reported at that
# machine's speed, so a host that slows everything for seconds or minutes
# does not read as a change in tandem: each time is divided by the reference
# task's time around it (at the start and end of its tenth of an epoch, or
# just before and after a set-up, load or cold request) over this one.
REFERENCE_S = 0.0068

E2E_UNITS = {
    "flows_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms", "late_early_ratio": "ratio",
    "recover_s": "s", "resume_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    from workloads import usable_cpus

    return {"nproc": usable_cpus(), "python": platform.python_version(), "cpu": cpu,
            "loadavg_1m_start": os.getloadavg()[0], "seed": seed}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile, up to 99, with at least ten samples beyond it;
    50 when there are too few samples for any tail."""
    return max(50.0, min(99.0, float(int(100.0 * (1.0 - 10.0 / n))))) if n else 50.0


def median_of_replays(epochs) -> list:
    """Per client lane and request position, the median of its replays.

    Every epoch replays the same requests from the same state, so position i
    of a lane does the same work in each. flows_per_s and late_early_ratio
    are taken over these, so that a slow spell of the host during one replay
    does not move them.
    """
    return [[statistics.median(r[i] for r in replays)
             for i in range(min(len(r) for r in replays))]
            for replays in zip(*epochs)]


def late_early(lanes) -> float:
    """Mean latency over the last tenth of each lane over the first tenth
    (at least three samples each where the lane has six)."""
    first, last = [], []
    for lat in lanes:
        if not lat:
            continue
        k = max(min(3, len(lat) // 2), len(lat) // 10, 1)
        first.extend(lat[:k])
        last.extend(lat[-k:])
    return statistics.fmean(last) / statistics.fmean(first) if first else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def at_reference_speed(epochs, reference) -> list:
    """Each latency times REFERENCE_S over the mean reference time at the
    start and end of its tenth of the epoch (its cold request on restart)."""
    scaled = []
    for lanes, refs in zip(epochs, reference):
        m = len(refs) - 1  # stretches between samples
        around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
        scaled.append([[x * REFERENCE_S / around[min(i * m // len(lane), m - 1)]
                        for i, x in enumerate(lane)] if m > 0 else list(lane)
                       for lane in lanes])
    return scaled


def latency_metrics(epochs, clients: int, skip: int) -> tuple[dict, float, int]:
    """flows_per_s, p50_ms, p99_ms and late_early_ratio of a run's epochs;
    the percentiles leave out each lane's first `skip` positions."""
    pool = [x for epoch in epochs for lane in epoch for x in lane[skip:]]
    q = tail_percentile(len(pool))
    lanes = median_of_replays(epochs)
    typical = [x for lane in lanes for x in lane]
    return {
        # a closed loop of C callers completes C / (mean latency) flows/s
        "flows_per_s": clients / statistics.fmean(typical) if typical else 0.0,
        "p50_ms": percentile(pool, 50) * 1000.0 if pool else 0.0,
        "p99_ms": percentile(pool, q) * 1000.0 if pool else 0.0,
        "late_early_ratio": late_early(lanes),
    }, q, len(pool)


def end_to_end(run) -> tuple[dict, dict]:
    timed = {"recover_s": run.recover, "resume_s": run.resume, "setup_s": run.setups}
    measured, q, n = latency_metrics(run.epochs, run.clients, run.percentile_from)
    measured.update({k: median([t for t, _ in v]) for k, v in timed.items()})
    metrics, _, _ = latency_metrics(at_reference_speed(run.epochs, run.reference),
                                    run.clients, run.percentile_from)
    metrics.update({k: median([t * REFERENCE_S / r for t, r in v]) for k, v in timed.items()})
    measured["peak_rss_mb"] = metrics["peak_rss_mb"] = run.peak_rss_mb
    refs = [t for epoch in run.reference for t in epoch]
    slowdown = statistics.median(refs) / REFERENCE_S if refs else 1.0
    flows = sum(len(lane) for epoch in run.epochs for lane in epoch)
    samples = {"replays": len(run.epochs), "flows": flows,
               "percentile_samples": n, "p99_ms_percentile": q,
               "clients": run.clients, "timed_s": run.timed_s,
               "measured_flows_per_s": flows / run.timed_s if run.timed_s else 0.0,
               "setups": len(run.setups), "recover": len(run.recover),
               "resume": len(run.resume), "slowdown": slowdown, "unscaled": measured,
               "failed_frac": run.tally.failed / run.tally.attempted if run.tally.attempted else 0.0}
    return metrics, samples


def per_layer(workload, tracer, flows_per_s) -> tuple[dict, list]:
    run = workload.run
    (fires, noops, quads, held), counted = workload.layer_counts()
    per = 1.0 / counted if counted else 0.0
    extra = {
        "fires_per_flow": fires * per,
        "noop_frac": noops / fires if fires else 0.0,
        "store_quads_per_flow": quads / held if held else 0.0,
        "log_bytes_per_flow": run.log_bytes * per,
        "write_calls_per_flow": run.write_calls * per,
        "flows_per_s": flows_per_s,
    }
    if run.client_rtt:
        extra["client_rtt_ms"] = statistics.fmean(run.client_rtt) * 1000.0
    return layer_metrics(tracer.spans + run.server_spans, {"timed"}, {workload.recover_phase},
                         run.flows_traced, extra, tracer.absent + run.server_absent)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; returns (result line, details, raw samples)."""
    from workloads import WORKLOADS  # imports tandem, so only once SRC is on the path

    OUT.mkdir(exist_ok=True)
    facts = machine_facts(seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        workload = WORKLOADS[name](seed, OUT, tracer, scale)
        run = workload.measure(seconds)
        if tracer is not None:
            tracer.settle()
    finally:
        if tracer is not None:
            tracer.uninstall()
    facts["loadavg_1m_end"] = os.getloadavg()[0]
    metrics, samples = end_to_end(run)
    details = {"workload": name, "trace": int(trace), "machine": facts, "samples": samples,
               "failures": run.tally.failures}
    if tracer is None:
        chosen = metrics
        units = E2E_UNITS
    else:
        chosen, gone = per_layer(workload, tracer, metrics["flows_per_s"])
        details["absent"] = gone
        units = layer_units()
        write_spans(OUT / f"spans-{name}.jsonl.gz",
                    [("bench", export(tracer.spans)), ("server", run.server_spans)])
    result = {
        "correct": run.tally.failed == 0 and run.tally.attempted > 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }
    raw = {"epochs": run.epochs, "recover": run.recover, "resume": run.resume,
           "setups": run.setups, "timed_s": run.timed_s, "reference": run.reference}
    return result, details, raw


def layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def smoke() -> int:
    """Every workload on a few flows, untraced and traced; answers checked."""
    from workloads import WORKLOADS

    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            started = time.perf_counter()
            result, details, _raw = run_workload(name, 1, 0.0, trace, scale=0.04)
            ok = result["correct"] and result["failed"] == 0
            expected = set(layer_units()) if trace else set(E2E_UNITS)
            ok = ok and set(result["metrics"]) == expected
            if not trace:
                ok = ok and all(m["value"] > 0 for m in result["metrics"].values())
            print(f"{name:8s} trace={int(trace)} {'ok' if ok else 'FAILED'} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{time.perf_counter() - started:.1f}s", flush=True)
            if not ok:
                print(json.dumps(details["failures"]), flush=True)
                bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("register", "content", "gateway", "restart"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few flows per workload, checked")
    args = parser.parse_args(argv)
    if not (SRC / "tandem" / "engine.py").is_file():
        print(f"tandem sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, details, raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"details": details, "result": result, "raw": raw}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
