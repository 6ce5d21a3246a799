#!/usr/bin/env python3
"""Open-loop benchmark of the real engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload ticker_ws --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and the engine sources it
compiles from src/) into .bench_build/, runs pb_gen, which starts the engine
as separate pb_engine processes on loopback and drives it, and prints:

  * an environment and configuration record (JSON, one line),
  * a table of every metric with its unit,
  * last, the result object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced variant and reports the per-layer metrics, including the tracing
overhead. Exits non-zero when any output check fails.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
GEN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds pb_engine and pb_gen; returns their paths."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    cmds = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "pb_engine"), os.path.join(BUILD_DIR, "pb_gen")


def source_id():
    """git sha when the checkout is a repository, else a hash of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if sha.returncode == 0:
            return {"git_sha": sha.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_sha": None, "src_sha256": digest.hexdigest()}


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and real.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def io_uring_available(engine):
    proc = subprocess.run([engine, "probe"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=30)
    return proc.stdout.strip()


def environment(workload, cfg, engine):
    return {
        "source": source_id(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "io_uring": io_uring_available(engine),
        "wal_dir_filesystem": filesystem_of(WORK_DIR),
        "link": "loopback (127.0.0.1), no real network link",
        "server_config": cfg["server_config"],
        "workload": workload,
        "low_rate_pub_per_s": cfg["low_rate"],
        "high_rate_pub_per_s": cfg["high_rate"],
        "capacity_ladder_pub_per_s": cfg["ladder"],
        "latency_limit_ms": cfg["limit_ms"],
        "saturation_publishes": cfg["saturation_publishes"],
        "how_chosen": cfg["why"],
    }


def run_gen(gen, engine, args, cfg):
    cmd = [gen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--engine", engine, "--workdir", WORK_DIR,
           "--low-rate", str(cfg["low_rate"]), "--high-rate", str(cfg["high_rate"]),
           "--ladder", ",".join(str(r) for r in cfg["ladder"]),
           "--limit-ms", str(cfg["limit_ms"]),
           "--saturation-publishes", str(cfg["saturation_publishes"])]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=GEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("pb_gen timed out")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise SystemExit("pb_gen printed no result (exit %d)" % proc.returncode)
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join("src", "core", "server.hpp")):
        raise SystemExit("engine sources (src/) not found: run from the repository root")
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads["workloads"]:
        raise SystemExit("unknown workload %r" % args.workload)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cfg = dict(workloads["workloads"][args.workload])
    cfg["server_config"] = workloads["server_config"]

    engine, gen = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    env = environment(args.workload, cfg, engine)
    result = run_gen(gen, engine, args, cfg)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            raise SystemExit("pb_gen did not report %s" % m["name"])
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}

    print(json.dumps({"environment": env}))
    print("%-42s %16s  %s" % ("metric", "value", "unit"))
    for name, m in metrics.items():
        print("%-42s %16.6g  %s" % (name, m["value"], m["unit"]))
    info = {k: v for k, v in result["metrics"].items() if k not in metrics}
    info.update(result.get("extra", {}))
    for name, value in sorted(info.items()):
        print("%-42s %16.6g  (info)" % (name, value))
    late_us = result["metrics"].get("bench.gen_late_p99_us", 0)
    measured_ms = result["metrics"].get("deliver_p99_ms.high",
                                        result["extra"].get("deliver_p50_ms.high_traced", 0))
    if measured_ms and late_us / 1e3 > 0.5 * measured_ms:
        print("FLAG: generator lateness p99 %.3f ms is over half the p99 latency it "
              "measures (%.3f ms); the tail reflects the load host as much as the engine"
              % (late_us / 1e3, measured_ms))
    stalls = result["metrics"].get("bench.priming_stalls", 0)
    if stalls:
        print("FLAG: priming stalled %d time(s): a publish was not acked or not delivered "
              "to every subscriber within 10 s, and the deployment was replaced; this is "
              "an engine fault outside the measured phases" % stalls)
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
