#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the engine.

Run from the repository root:

  python3 perfbench/run.py --workload oncology --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --steadiness --runs 10 --seconds 20

The first form builds the engine and the driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs rounds of one workload, each in a
fresh driver process, until --seconds have passed, and prints, as the last
line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (no round traced); with --trace 1 they are the
per-layer ones, read from the engine's timing buckets, metrics counters and
a BDM_TRACE span file. --selftest feeds every correctness check a wrong
expectation and requires it to fail. --steadiness runs two independent sets
of runs, alternating run by run, and reports, per workload and end-to-end
metric, each set's median and quartiles and how far the two medians
disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["oncology", "neuroscience", "clustering", "cells_shard4"]
E2E_UNITS = {"ns_per_agent_iter": "ns", "iter_p50_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MiB"}
# Spans the shard layer records per iteration (main thread and shard lanes).
SHARD_SPANS = ("halo_exchange", "step", "field_halo", "field_step")
# Bytes one voxel update must move at least: read the old value, write the
# new one (counted like STREAM, without write-allocate traffic).
BYTES_PER_VOXEL_UPDATE = 2 * 8


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds the driver; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("engine sources (src/) not found next to perfbench/")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=840)
        if result.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    return out / "perfbench_driver"


def clean_env():
    # Engine overrides (BDM_OP_DAG, BDM_METRICS, BDM_TRACE, ...) would change
    # what is measured; the driver sets BDM_TRACE itself for traced rounds.
    return {k: v for k, v in os.environ.items() if not k.startswith("BDM_")}


def run_driver(binary, args, out):
    """Runs the driver once with `args`; returns its JSON document."""
    try:
        result = subprocess.run([str(binary), *args, "--out", str(out)],
                                cwd=ROOT, env=clean_env(), stdout=sys.stderr,
                                stderr=sys.stderr, timeout=150)
        if result.returncode != 0 or not out.is_file():
            raise BenchError(f"driver failed with exit code {result.returncode}")
        with open(out) as f:
            return json.load(f)
    finally:
        out.unlink(missing_ok=True)


def cpu_ticks():
    """System-wide CPU ticks from /proc/stat: (steal, total)."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def run_rounds(binary, workload, seed, seconds, trace, extra=()):
    """Fresh-process rounds until `seconds` have passed. A traced run
    alternates untraced and traced rounds (at least one of each) and ends
    with the STREAM probe."""
    tag = f"{workload}_{seed}_{os.getpid()}"
    out = build_dir() / f"round_{tag}.json"
    spans = build_dir() / f"trace_{tag}.json"
    rounds = []
    ticks_before = cpu_ticks()
    start = time.monotonic()
    while time.monotonic() - start < seconds or (trace and len(rounds) < 2):
        traced = trace and len(rounds) % 2 == 1
        args = ["--workload", workload,
                "--seed", str(seed + 1000003 * len(rounds)), *extra]
        if traced:
            args += ["--trace-file", str(spans)]
        try:
            doc = run_driver(binary, args, out)
            round_ = doc["round"]
            round_["peak_rss_kb"] = doc["peak_rss_kb"]
            if traced:
                with open(spans) as f:
                    round_["trace"] = [e for e in json.load(f)["traceEvents"]
                                       if e.get("ph") == "X"]
        finally:
            spans.unlink(missing_ok=True)
        rounds.append(round_)
    steal = [b - a for a, b in zip(ticks_before, cpu_ticks())]
    # CPU time the hypervisor gave to other guests: the main source of run-
    # to-run spread on a shared host, logged so a moved figure can be read.
    doc = {"workload": workload, "rounds": rounds,
           "steal_share": steal[0] / steal[1] if steal[1] else 0.0}
    log(f"perfbench: {workload} seed {seed}: {len(rounds)} rounds, "
        f"host steal {100 * doc['steal_share']:.1f}% of CPU time")
    if trace:
        doc["stream"] = run_driver(
            binary, ["--stream", "--workload", workload], out)
    return doc


def operation_counts(doc):
    attempted = 0
    failed = 0
    for r in doc["rounds"]:
        attempted += len(r["iter_s"]) + len(r["checks"])
        failed += sum(1 for c in r["checks"] if not c["ok"])
        for c in r["checks"]:
            if not c["ok"]:
                log(f"check failed: {c['name']}: {c['detail']}")
    return attempted, failed


def end_to_end(doc):
    # Times are the process's CPU time, which on a guest with paravirtual
    # steal accounting leaves out the time the hypervisor ran other guests;
    # medians over the run's rounds, so one disturbed round moves them little.
    rounds = doc["rounds"]
    iter_s = [t for r in rounds for t in r["iter_cpu_s"]]
    return {
        "ns_per_agent_iter": statistics.median(
            sum(r["iter_cpu_s"]) / sum(r["agents"]) for r in rounds) * 1e9,
        "iter_p50_ms": statistics.median(iter_s) * 1e3,
        "setup_s": statistics.median(r["setup_cpu_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }


def union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def trace_layers(events, sharded):
    """Per-iteration envelope, claimed and busy time (us) from one trace."""
    by_iter = {}
    for e in events:
        by_iter.setdefault(e["args"]["iteration"], []).append(e)
    out = {"envelope": [], "unclaimed": 0.0, "op_busy": 0.0, "serial": 0.0,
           "step_max": 0.0, "step_sum": 0.0, "steps": 0,
           "halo_exchange": 0.0, "field_halo": 0.0, "field_step": 0.0}
    for spans in by_iter.values():
        if not any(e["name"] == ("step" if sharded else "iteration")
                   for e in spans):
            continue  # spans outside the timed steps (the final exchange)
        ops = [e for e in spans if e["name"] != "iteration"
               and e["name"] not in SHARD_SPANS and "/" not in e["name"]
               and e["name"] != "mechanics_fused"]
        out["op_busy"] += sum(e["dur"] for e in ops)
        if sharded:
            layer = [e for e in spans if e["name"] in SHARD_SPANS]
            lo = min(e["ts"] for e in layer)
            hi = max(e["ts"] + e["dur"] for e in layer)
            claimed = [(e["ts"], e["ts"] + e["dur"]) for e in layer]
            steps = [e for e in layer if e["name"] == "step"]
            out["serial"] += (hi - lo) - union_length(
                [(e["ts"], e["ts"] + e["dur"]) for e in steps], lo, hi)
            out["step_max"] += max(e["dur"] for e in steps)
            out["step_sum"] += sum(e["dur"] for e in steps)
            out["steps"] += len(steps)
            for name in ("halo_exchange", "field_halo", "field_step"):
                out[name] += sum(e["dur"] for e in layer if e["name"] == name)
        else:
            iteration = [e for e in spans if e["name"] == "iteration"][0]
            lo = iteration["ts"]
            hi = lo + iteration["dur"]
            claimed = [(e["ts"], e["ts"] + e["dur"]) for e in ops]
        out["envelope"].append(hi - lo)
        out["unclaimed"] += (hi - lo) - union_length(claimed, lo, hi)
    return out


def per_layer(doc):
    sharded = doc["workload"] == "cells_shard4"
    traced = [r for r in doc["rounds"] if r["traced"]]
    untraced = [r for r in doc["rounds"] if not r["traced"]]
    iters = sum(len(r["iter_s"]) for r in traced)
    agent_iters = sum(sum(r["agents"]) for r in traced)

    def t(name):  # bucket seconds over the traced rounds
        return sum(r["timing"].get(name, [0, 0])[0] for r in traced)

    def calls(name):
        return sum(r["timing"].get(name, [0, 0])[1] for r in traced)

    def c(name):
        return sum(r["counters"].get(name, 0) for r in traced)

    def gauge(name):
        return statistics.mean(r["gauges"].get(name, 0) for r in traced)

    def per_iter_ms(seconds):
        return seconds / iters * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    layers = [trace_layers(r["trace"], sharded) for r in traced]
    envelope = [x for layer in layers for x in layer["envelope"]]
    span_iters = len(envelope)

    def span_ms(key):
        return sum(layer[key] for layer in layers) / span_iters / 1e3

    voxel_updates = sum(r["voxel_updates_per_iteration"] * len(r["iter_s"])
                        for r in traced)
    # Without a grid the continuum layer is bypassed; the empty diffusion
    # op's microsecond is scheduler cost, not diffusion.
    diffusion_s = (0.0 if voxel_updates == 0
                   else sum(l["field_step"] for l in layers) / 1e6 if sharded
                   else t("diffusion"))
    voxel_rate = ratio(voxel_updates, diffusion_s)
    blocks = (c("sched.blocks_own") + c("sched.steal_local_blocks")
              + c("sched.steal_remote_blocks"))
    cpu = {tr: statistics.median(sum(r["iter_cpu_s"]) for r in rs)
           for tr, rs in ((True, traced), (False, untraced))}
    metrics = {
        "env.update_ms": per_iter_ms(t("environment_update")),
        "env.agents_indexed_per_iter": c("env.grid_agents_indexed") / iters,
        "env.pair_visits_per_agent":
            c("env.neighbor_pair_visits") / agent_iters,
        "physics.mechanics_ms": per_iter_ms(t("mechanical_forces")),
        "physics.static_agent_skips_per_iter":
            c("forces.static_agent_skips") / iters,
        "physics.static_pair_skips_per_iter":
            c("forces.static_pair_skips") / iters,
        "core.staticness_ms": per_iter_ms(t("staticness")),
        "models.behaviors_ms": per_iter_ms(t("agent_ops")),
        "continuum.diffusion_ms": per_iter_ms(diffusion_s),
        "continuum.voxel_updates_per_s": voxel_rate,
        "continuum.bandwidth_frac": ratio(
            voxel_rate * BYTES_PER_VOXEL_UPDATE,
            doc["stream"]["stream_gbs"] * 1e9),
        "core.commit_ms": per_iter_ms(t("commit")),
        "core.agents_added_per_iter": c("commit.agents_added") / iters,
        "core.agents_removed_per_iter": c("commit.agents_removed") / iters,
        "core.uids_recycled_per_iter": c("commit.uids_recycled") / iters,
        "core.soa_full_rebuilds": c("soa/full_rebuilds") / iters,
        "core.soa_incremental_updates": c("soa/incremental_updates") / iters,
        "core.sort_ms_per_call": ratio(t("load_balancing"),
                                       calls("load_balancing")) * 1e3,
        "core.iteration_ms": statistics.median(envelope) / 1e3,
        "core.unclaimed_ms": span_ms("unclaimed"),
        "core.dag_overlap": ratio(sum(l["op_busy"] for l in layers),
                                  sum(envelope)),
        "memory.news_per_iter": c("alloc.news") / iters,
        "memory.refill_batches_per_iter":
            (c("alloc.refill_central_batches")
             + c("alloc.refill_carve_batches")) / iters,
        "memory.migrated_batches_per_iter":
            c("alloc.migrated_batches") / iters,
        "sched.remote_steal_share": ratio(c("sched.steal_remote_blocks"),
                                          blocks),
        "sched.slab_imbalance": gauge("sched.slab_imbalance"),
        "shard.exchange_ms": span_ms("halo_exchange"),
        "shard.field_halo_ms": span_ms("field_halo"),
        "shard.step_ms_max": span_ms("step_max"),
        "shard.step_ms_mean": ratio(sum(l["step_sum"] for l in layers),
                                    sum(l["steps"] for l in layers)) / 1e3,
        "shard.serial_share": ratio(sum(l["serial"] for l in layers),
                                    sum(envelope)) if sharded else 0.0,
        "shard.migrations_per_iter": c("shard/migrations") / iters,
        "shard.halo_records_per_iter": c("shard/halo_agents_sent") / iters,
        "shard.ghosts": gauge("shard/ghost_count"),
        "shard.deposits_forwarded_per_iter":
            c("shard/field_deposits_forwarded") / iters,
        "io.exchange_bytes_per_iter": c("shard/exchange_bytes") / iters,
        "io.bytes_per_halo_record": ratio(c("shard/exchange_bytes"),
                                          c("shard/halo_agents_sent")),
        "io.field_halo_bytes_per_iter": c("shard/field_halo_bytes") / iters,
        "setup.engine_s": statistics.median(r["engine_s"] for r in doc["rounds"]),
        "setup.population_s":
            statistics.median(r["population_s"] for r in doc["rounds"]),
        "setup.fields_s": statistics.median(r["fields_s"] for r in doc["rounds"]),
        "obs.trace_overhead": cpu[True] / cpu[False] - 1,
        "host.stream_triad_gbs": doc["stream"]["stream_gbs"],
        "host.steal_share": doc["steal_share"],
    }
    return metrics


def layer_units():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(binary, workload, seed, seconds, trace, extra=()):
    doc = run_rounds(binary, workload, seed, seconds, trace, extra)
    attempted, failed = operation_counts(doc)
    if trace:
        units = layer_units()
        values = per_layer(doc)
        if set(values) != set(units):
            raise BenchError("per-layer metrics disagree with BENCHMARK.json: "
                             + str(sorted(set(values) ^ set(units))))
    else:
        units = E2E_UNITS
        values = end_to_end(doc)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def steadiness(binary, workloads, runs, seconds):
    """Two independent sets of `runs` runs per workload (distinct seeds)."""
    with open(ROOT / "BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    report = {}
    values = {w: [{m: [] for m in E2E_UNITS}, {m: [] for m in E2E_UNITS}]
              for w in workloads}
    failed_share = {w: [[], []] for w in workloads}
    # The two sets alternate run by run, so a slow spell of the host falls
    # on both sets alike instead of showing as a gap between them.
    for i in range(runs):
        for s in range(2):
            for w in workloads:
                seed = 1 + s * runs + i
                result = run_one(binary, w, seed, seconds, trace=False)
                failed_share[w][s].append(result["failed"] / result["attempted"])
                for m in E2E_UNITS:
                    values[w][s][m].append(result["metrics"][m]["value"])
                log(f"set {s + 1} run {i + 1} {w} seed {seed}: " + ", ".join(
                    f"{m}={result['metrics'][m]['value']:.5g}" for m in E2E_UNITS))
    ok = True
    print(f"{'workload':13} {'metric':18} {'set':>3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'iqr/med':>8} {'bound':>6} {'med diff':>8}")
    for w in workloads:
        report[w] = {}
        for m in E2E_UNITS:
            rows = []
            for s in range(2):
                q1, q2, q3 = statistics.quantiles(values[w][s][m], n=4)
                rows.append({"q1": q1, "median": q2, "q3": q3,
                             "spread": (q3 - q1) / q2,
                             "values": values[w][s][m]})
            diff = (rows[1]["median"] - rows[0]["median"]) / rows[0]["median"]
            bound = bounds[m]
            ok = (ok and all(r["spread"] <= bound for r in rows)
                  and abs(diff) <= bound)
            report[w][m] = {"sets": rows, "median_diff": diff, "bound": bound}
            for s, r in enumerate(rows):
                print(f"{w:13} {m:18} {s + 1:>3} {r['q1']:11.5g} "
                      f"{r['median']:11.5g} {r['q3']:11.5g} {r['spread']:8.3f} "
                      f"{bound:6.2f} " + (f"{diff:+8.3f}" if s else ""))
        shares = [sorted(set(x)) for x in failed_share[w]]
        print(f"{w:13} failed share per run: set 1 {shares[0]}, set 2 {shares[1]}")
        ok = ok and shares[0] == shares[1] and len(shares[0]) == 1
    print(json.dumps(report))
    print("steadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    # Reference figure only: the cells_shard4 population at another shard
    # count (--shards 1 gives the unsharded seam-cost reference).
    parser.add_argument("--shards", type=int, default=0)
    args = parser.parse_args()
    try:
        binary = build()
        if args.selftest:
            return subprocess.run([str(binary), "--selftest"], cwd=ROOT,
                                  env=clean_env(), timeout=600).returncode
        if args.steadiness:
            return steadiness(binary, args.workloads.split(","), args.runs,
                              args.seconds)
        if args.workload is None:
            raise BenchError("--workload is required")
        extra = ["--shards", str(args.shards)] if args.shards else []
        result = run_one(binary, args.workload, args.seed, args.seconds,
                         bool(args.trace), extra)
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
