#!/usr/bin/env python3
"""Repository benchmark: runs one SIMCoV workload and prints its metrics.

Run from the repository root:

    python3 simbench/run.py --workload gpu_spread --seed 1 --seconds 20 \
        --trace 0

The first call builds simbench/ (CMake, Release) into
$CARGO_TARGET_DIR/simbench, or .bench_build/simbench when the variable is
unset.  Each call then

  1. computes the workload's reference series with the serial ReferenceSim,
     once per (workload, seed, source tree) -- the cache key hashes every
     file the simulation and the simbench binary are built from;
  2. runs the workload through harness::run_gpu / harness::run_cpu for
     --seconds seconds, checking every call against the reference;
  3. prints the machine state (nproc, load average before and after, rank
     count, CPU and wall time) on one line, and as the last line one JSON
     object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
every collector off; --trace 1 reports its per-layer metrics, from calls
with the collectors on and from timings of single-layer public functions.
simbench/layer_map.json says which end-to-end metric, on which workload,
each per-layer metric should move.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Metrics of a layer the workload does not run (GPU kernels on a CPU
# workload, and the reverse) and memory categories a backend never
# allocates read 0; any other missing metric is an error.
ABSENT_ON_CPU = ("gpu.", "kernel.")
ABSENT_ON_GPU = ("cpu.",)
ABSENT_ANYWHERE = ("mem.",)


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    """The environment minus every SIMCOV_* switch, so no collector or
    checker is turned on behind the benchmark's back."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SIMCOV_")}


def source_hash():
    """Hash of every file the simbench binary is built from."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [BENCH_DIR / "simbench.cpp", BENCH_DIR / "CMakeLists.txt"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build_root():
    """$CARGO_TARGET_DIR/simbench, or .bench_build/simbench, in the checkout."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "simbench"


def build(build_dir):
    """Configures (once) and builds the simbench binary; returns its path."""
    cmake_out = build_dir / "cmake"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (cmake_out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_out), "--target", "simbench",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=850,
                       env=child_env())
    return cmake_out / "simbench"


def call(binary, args, timeout):
    """Runs the simbench binary and returns its JSON output."""
    out = subprocess.run([str(binary), *args], check=True, timeout=timeout,
                         stdout=subprocess.PIPE, env=child_env(), text=True)
    return json.loads(out.stdout)


def reference(binary, build_dir, workload, seed):
    """Path of the reference series, computing it on first use."""
    path = build_dir / "oracle" / f"{workload}-{seed}-{source_hash()}.txt"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        call(binary, ["reference", workload, str(seed), str(tmp)], timeout=170)
        tmp.replace(path)
    return path


def cpu_ticks():
    """Aggregate /proc/stat CPU ticks as (steal, total), or None where the
    file is unavailable."""
    try:
        first = Path("/proc/stat").read_text().split("\n")[0]
        fields = [int(x) for x in first.split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def returned(samples):
    """Samples whose harness call returned (it may still have failed the
    oracle); the timings come from these."""
    return [s for s in samples if not s["error"].startswith("threw")]


def wall_figures(raw):
    """Wall-clock figures of the untraced full calls."""
    samples = returned(raw["samples"])
    voxel_steps = raw["voxels"] * raw["steps"]
    return {
        "wall.run_s": median(s["run_wall_s"] for s in samples),
        "wall.setup_s": median(s["run_wall_s"] - s["step_loop_wall_s"]
                               for s in samples),
        "wall.voxel_steps_per_s": median(voxel_steps / s["step_loop_wall_s"]
                                         for s in samples),
    }


def end_to_end(raw):
    samples = returned(raw["samples"])
    calls = raw["samples"] + raw["setup"]
    return {
        "cpu_s": median(s["cpu_s"] for s in samples),
        "setup_s": median(s["cpu_s"] for s in returned(raw["setup"])),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "modeled_s": median(s["modeled_s"] for s in samples),
        "ok_frac": sum(not s["error"] for s in calls) / len(calls),
    }


def series_mean(snapshot, name, fold):
    """Mean over steps of `fold` over ranks of a per-rank metrics series."""
    by_step = {}
    for samples in snapshot["series"].get(name, {}).values():
        for step, value in samples:
            by_step.setdefault(step, []).append(value)
    if not by_step:
        return None
    return fmean(fold(v) for v in by_step.values())


def traced_figures(sample, snapshot):
    figures = dict(sample["layers"])
    for metric, series, fold in (
            ("gpu.tile_occupancy", "gpu.tile_occupancy", fmean),
            ("gpu.voxels_touched_per_step", "gpu.voxels_touched", sum),
            ("cpu.active_voxels_per_step", "cpu.active_voxels", sum)):
        value = series_mean(snapshot, series, fold)
        if value is not None:
            figures[metric] = value
    return figures


def per_layer(raw, trace_dir, declared, gpu):
    traced = []
    for i, sample in enumerate(raw["traced"]):
        if sample["error"].startswith("threw"):
            continue
        snapshot = json.loads((trace_dir / f"metrics-{i}.json").read_text())
        traced.append(traced_figures(sample, snapshot))
    untraced_wall = median(s["run_wall_s"] for s in returned(raw["samples"]))
    traced_wall = median(s["run_wall_s"] for s in returned(raw["traced"]))
    out = dict(raw["single_layer"], **wall_figures(raw))
    out["obs.traced_overhead_frac"] = traced_wall / untraced_wall - 1.0
    absent = ABSENT_ANYWHERE + (ABSENT_ON_GPU if gpu else ABSENT_ON_CPU)
    for name in declared:
        if name in out:
            continue
        values = [t[name] for t in traced if name in t]
        if values:
            out[name] = median(values)
        elif name.startswith(absent):
            out[name] = 0.0
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    sources = ROOT / "src" / "CMakeLists.txt"
    if not sources.is_file() or not spec_path.is_file():
        log(f"{ROOT} holds no simulation sources to build; run from a "
            "repository checkout")
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    gpu = args.workload.startswith("gpu")

    build_dir = build_root()
    binary = build(build_dir)
    ref = reference(binary, build_dir, args.workload, args.seed)

    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    t0 = time.monotonic()
    common = [args.workload, str(args.seed), str(args.seconds), str(ref)]
    timeout = args.seconds + 120
    if args.trace:
        trace_dir = build_dir / "trace" / args.workload
        trace_dir.mkdir(parents=True, exist_ok=True)
        raw = call(binary, ["trace", *common, str(trace_dir)], timeout)
        values = per_layer(raw, trace_dir, [m["name"] for m in declared], gpu)
        samples = raw["samples"] + raw["traced"]
    else:
        raw = call(binary, ["measure", *common], timeout)
        values = end_to_end(raw)
        samples = raw["samples"] + raw["setup"]
    load_after = os.getloadavg()
    ticks_after = cpu_ticks()

    failures = [s["error"] for s in samples if s["error"]]
    missing = [m["name"] for m in declared if m["name"] not in values]
    for name in missing:
        log(f"metric {name} was not measured")
    for error in failures[:5]:
        log(f"failed call: {error}")
    full = returned(raw["samples"])
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "load1_before": load_before[0],
        "load1_after": load_after[0],
        "ranks": raw["ranks"],
        "calls": len(samples),
        "cpu_s": median(s["cpu_s"] for s in full),
        "run_wall_s": median(s["run_wall_s"] for s in full),
        "elapsed_s": time.monotonic() - t0,
    }
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # Share of the machine's CPU time the hypervisor gave to others
        # while the benchmark ran: the sign of an oversubscribed host.
        machine["steal_frac"] = ((ticks_after[0] - ticks_before[0])
                                 / (ticks_after[1] - ticks_before[1]))
    result = {
        "correct": not failures and not missing,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }
    record = build_dir / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"args": vars(args), "machine": machine,
                                  "result": result, "raw": raw}, indent=1))
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
