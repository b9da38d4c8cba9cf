#!/usr/bin/env python3
"""Benchmark runner: builds usw_perf from this checkout, runs one workload
in a fresh process, checks its outputs and prints the metrics.

    python3 perf/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer ones. With --workload all, every workload runs in
turn, in a seed-chosen order and each in its own process, and the metrics
are named <workload>.<metric>. Everything it builds or writes stays under
.bench_build/ in the checkout. See perf/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "usw_perf"
RESULTS_DIR = ROOT / ".bench_build" / "results"
WORKLOADS = ("paper_128", "halo_1k", "burgers_fields")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configures (once) and builds usw_perf; build output goes to stderr.
    The compiler's temporary files stay under .bench_build/ too."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("simulator sources (src/) are missing from %s" % ROOT)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(PERF_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "usw_perf",
                    "-j", str(build_jobs())], stdout=sys.stderr, env=env, check=True)
    return BUILD_DIR / "usw_perf"


def host_noise():
    """nproc, 1-minute loadavg and the cumulative steal ticks of /proc/stat."""
    snap = {"nproc": len(os.sched_getaffinity(0)), "loadavg_1m": None,
            "steal_ticks": None}
    try:
        snap["loadavg_1m"] = float(Path("/proc/loadavg").read_text().split()[0])
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        snap["steal_ticks"] = int(fields[8]) if len(fields) > 8 else 0
    except (OSError, ValueError, IndexError):
        pass
    return snap


def run_harness(binary, workload, args):
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError("usw_perf exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, reps, attempted, failed):
    """End-to-end metrics of an untraced invocation, with timing summaries.
    run_s and cpu_s are medians over the full runs, setup_s over the setup
    calls; each group first loses its calls with above-median steal."""
    ok_runs = [r for r in reps if r["kind"] == "run" and r["ok"]]
    ok_setups = [r for r in reps if r["kind"] == "setup" and r["ok"]]
    if not ok_runs or not ok_setups:
        raise ValueError("no successful run or setup call")
    ref = stats.reference_signatures(reps)[raw["workload"]]
    virt_ps = next(r["virt_step_ps"] for r in ok_runs if r["signature"] == ref)
    runs, setups = stats.low_steal(ok_runs), stats.low_steal(ok_setups)
    timings = {
        "run_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "setup_s": [r["wall_s"] for r in setups],
        "run_s_all": [r["wall_s"] for r in ok_runs],
        "setup_s_all": [r["wall_s"] for r in ok_setups],
    }
    summaries = {k: stats.summarize(v) for k, v in timings.items()}
    for name, group in (("run_s", ok_runs), ("setup_s", ok_setups)):
        rates = [stats.steal_rate(r) for r in group]
        summaries[name]["steal_per_s"] = (min(rates), stats.median(rates), max(rates))
    metrics = {k: metric(summaries[k]["median"], "s")
               for k in ("run_s", "cpu_s", "setup_s")}
    metrics["peak_rss_mb"] = metric(raw["peak_rss_kb"] / 1024.0, "MB")
    metrics["virt_step_ms"] = metric(virt_ps / 1e9, "virt_ms")
    metrics["pass_frac"] = metric(stats.pass_fraction(attempted, failed), "fraction")
    stats.check_positive(metrics)
    return metrics, summaries


def per_layer(raw, reps):
    """Per-layer metrics of a traced invocation, plus notes on the metrics
    whose layer does no work in this workload."""
    c, h, o, rp = raw["counters"], raw["host"], raw["obs"], raw["replay"]
    steps = raw["timesteps"]
    per_rank_step = raw["nranks"] * steps * 1e6  # ps summed over ranks -> µs

    notes = []
    m = {
        "sim.advance_us": metric(rp["sim_advance_us"], "us"),
        "sim.replay_cpu_per_wall": metric(rp["sim_cpu_per_wall"], "ratio"),
        "comm.msgs": metric(c["messages_sent"], "count"),
        "comm.posts": metric(c["mpi_posts"], "count"),
        "comm.bytes": metric(c["bytes_sent"], "bytes"),
        "comm.posts_per_msg": metric(c["mpi_posts"] / c["messages_sent"], "ratio"),
        "comm.exchange_us": metric(rp["comm_exchange_us"], "us"),
        "comm.virt_us_per_step": metric(c["comm_time_ps"] / per_rank_step, "virt_us"),
        "comm.wait_virt_us_per_step": metric(c["wait_time_ps"] / per_rank_step,
                                             "virt_us"),
        "grid.tiling_us": metric(rp["grid_tiling_us"], "us"),
        "sched.offloads": metric(c["kernels_offloaded"], "count"),
        "sched.tiles": metric(c["tiles_executed"], "count"),
        "sched.assign_us": metric(rp["sched_assign_us"], "us"),
        "sched.virt_kernel_us_per_step": metric(c["kernel_time_ps"] / per_rank_step,
                                                "virt_us"),
        "sched.virt_mpe_us_per_step": metric(c["mpe_task_time_ps"] / per_rank_step,
                                             "virt_us"),
        "athread.spawn_us": metric(rp["athread_spawn_us"], "us"),
        "athread.pool_queue_wait_us.p50": metric(h["pool_queue_wait_us_p50"], "us"),
        "athread.pool_queue_wait_us.p95": metric(h["pool_queue_wait_us_p95"], "us"),
        "athread.pool_tasks": metric(h["pool_tasks"], "count"),
        "kern.cells": metric(c["cells_computed"], "count"),
        "kern.cells_per_s": metric(rp["kern_cells_per_s"], "1/s"),
        "var.pack_bytes": metric(c["pack_bytes"], "bytes"),
        "var.pack_gbps": metric(rp["var_pack_gbps"], "GB/s"),
        "hw.dma_bytes": metric(c["dma_bytes"], "bytes"),
        "runtime.init_ms_per_rank": metric(h["rank_init_ms_mean"], "ms"),
        "obs.trace_overhead": metric(stats.paired_ratio(reps), "ratio"),
        "obs.overlap_eff": metric(o["overlap_eff"], "ratio"),
        "obs.critical_path_ms": metric(o["critical_path_ms_mean"], "virt_ms"),
        "est.comm_s": metric(
            stats.estimate_seconds(rp["comm_exchange_us"], c["messages_sent"]), "s"),
        "est.athread_s": metric(
            stats.estimate_seconds(rp["athread_spawn_us"], c["kernels_offloaded"]), "s"),
        "est.kern_s": metric(
            stats.rate_estimate_seconds(c["cells_computed"], rp["kern_cells_per_s"]),
            "s"),
    }
    if h["pool_source"] != "program":
        notes.append("athread.pool_*: the serial backend has no worker pool; these "
                     "come from the pool replay (empty 64-CPE jobs on a "
                     "min(4,nproc)-thread pool), not from the program")
    if not raw["functional"]:
        notes.append("est.kern_s: timing-only storage runs no kernel bodies; this is "
                     "what the modelled kern.cells would cost at the replayed "
                     "kern.cells_per_s, and run_s does not contain it")
    stats.check_positive(m)
    return m, notes


def measure(binary, workload, args):
    """Runs `workload` in a fresh usw_perf process, prints its summary and
    writes its full record. Returns the result object."""
    noise_start = host_noise()
    t0 = time.monotonic()
    raw = run_harness(binary, workload, args)
    elapsed = time.monotonic() - t0
    noise_end = host_noise()

    reps = raw["reps"]
    attempted, failed, reasons = stats.count_failures(reps)
    summaries, notes = {}, []
    try:
        if args.trace:
            metrics, notes = per_layer(raw, reps)
        else:
            metrics, summaries = end_to_end(raw, reps, attempted, failed)
    except (KeyError, ZeroDivisionError, StopIteration, ValueError) as e:
        if failed == 0:
            raise RuntimeError("cannot compute metrics: %r" % (e,)) from e
        # The program failed where the metrics needed it: report that.
        metrics = {}
        notes = ["no metrics: %r" % (e,)]

    steal = None
    if noise_start["steal_ticks"] is not None and noise_end["steal_ticks"] is not None:
        steal = noise_end["steal_ticks"] - noise_start["steal_ticks"]
    noise = {"nproc": noise_start["nproc"],
             "loadavg_1m_start": noise_start["loadavg_1m"],
             "loadavg_1m_end": noise_end["loadavg_1m"],
             "steal_ticks_delta": steal, "harness_s": elapsed}

    print("workload %s seed %d trace %d: %d calls, %d failed" % (
        workload, args.seed, args.trace, attempted, failed))
    print("host noise: " + json.dumps(noise))
    for name, s in summaries.items():
        tail = ("p%g %.6g" % (s["tail_p"], s["tail_value"])
                if s["tail_p"] is not None
                else "no percentile has %d samples beyond it" % stats.TAIL_MIN_BEYOND)
        steal = ("  steal/s min %.3g median %.3g max %.3g" % s["steal_per_s"]
                 if "steal_per_s" in s else "")
        print("  %-11s median %.6g  q1 %.6g  q3 %.6g  spread %.3f  n %d  %s%s" % (
            name, s["median"], s["q1"], s["q3"], s["spread"], s["n"], tail, steal))
    for name, v in metrics.items():
        print("  %-32s %.8g %s" % (name, v["value"], v["unit"]))
    for why in notes:
        print("  note: " + why)
    for why in reasons:
        print("  FAIL " + why)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    detail = RESULTS_DIR / ("%s-seed%d-trace%d.json" % (workload, args.seed, args.trace))
    detail.write_text(json.dumps({"noise": noise, "summaries": summaries,
                                  "metrics": metrics, "failures": reasons,
                                  "notes": notes, "raw": raw}, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = [args.workload]
    if args.workload == "all":
        names = list(WORKLOADS)
        random.Random(args.seed).shuffle(names)
    results = {}
    try:
        binary = build()
        for name in names:
            results[name] = measure(binary, name, args)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 1

    if args.workload != "all":
        result = results[args.workload]
    else:
        # Every workload's metrics, named <workload>.<metric>.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
