#!/usr/bin/env python3
"""End-to-end benchmark of clarad, the Clara analysis daemon.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a Clara checkout. The first run configures and builds
clarad and the benchmark harness (perfbench/harness.cpp) under .bench_build/;
later runs reuse that build. Everything the benchmark writes stays there.

The traffic is the request mix of the repo's own serve load generator
(src/serve/loadgen.cpp build_mix, what `clara bench serve` records in
BENCH_perf.json): four analyses, a two-point load sweep, a repair after a
failed checksum unit, and a validation. A workload varies one input property
of it (see WORKLOADS); --seed picks each request's trace seed and the order
the clients send them in, so one seed always replays the same requests.

--trace 0 measures the clarad binary. It brings a daemon up SETUPS times
(spawn, wait for its hello line, prime it with one pass over the mix) and
reports the median as setup_s. The last daemon then serves two closed-loop
phases of --seconds/2 each, every client sending its next request as soon as
the previous answer arrives: one client alone, whose round trips give p50_ms
and p99_ms, then LOADED_CLIENTS clients, more than the daemon has pool
workers, whose answered requests per second give throughput_rps, the
daemon's capacity.

--trace 1 runs the same session against a daemon hosted in the harness and
reports the per-layer split instead, from Clara's own spans and counters over
the timed phases only (see idle_layers and loaded_layers in harness.cpp).
Tracing costs time, so its numbers are not comparable with the end-to-end
ones.

Both modes check every answer (ok, echoed id and kind, byte-identical repeats)
and compare a sample byte for byte with an in-process recompute. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import contextlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "cmake"
RUN = Path(".bench_build") / "run"
CLARAD = BUILD / "clara" / "src" / "tools" / "clarad"
HARNESS = BUILD / "perfbench_harness"

# DAEMON_JOBS - 1 pool workers serve requests, so LOADED_CLIENTS (the serve
# load generator's default connection count) keep every worker busy and queue.
DAEMON_JOBS = 4
LOADED_CLIENTS = 16
SETUPS = 7

# src/serve/loadgen.cpp build_mix, request for request.
LOADGEN_MIX = [
    {"kind": "analyze", "nf": "lpm"},
    {"kind": "analyze", "nf": "nat"},
    {"kind": "analyze", "nf": "rewrite"},
    {"kind": "analyze", "nf": "meter"},
    {"kind": "sweep", "nf": "nat", "sweep_pps": [40000, 80000]},
    {"kind": "repair", "nf": "nat", "fault_plan": "fail-unit csum\n"},
    {"kind": "validate", "nf": "rewrite"},
]
# Workload specs without their seed: build_mix's 2k-packet traffic, and the
# same with payloads drawn from a range (docs/workloads.md), so that the mean
# payload, and with it the analysis cache key, differs from seed to seed.
LOADGEN_TRACE = "tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000"
MIXED_PAYLOAD_TRACE = "tcp=0.8 flows=2000 payload=64:1500 pps=60000 packets=2000"

# name -> (workload spec, every request gets a fresh trace seed)
WORKLOADS = {
    # Repeated keys: lowering, dataflow graph and mapping come from the
    # analysis cache, as in the load generator's warm phase; repair still
    # solves, since its result is kept out of the cache.
    "loadgen_warm": (LOADGEN_TRACE, False),
    # A fresh trace seed per request on mixed payloads: every request
    # misses the graph and mapping caches and solves its ILP. With the
    # fixed payload of LOADGEN_TRACE most fresh seeds would still hit.
    "loadgen_cold": (MIXED_PAYLOAD_TRACE, True),
}

END_TO_END = {"p50_ms": "ms", "p99_ms": "ms", "throughput_rps": "1/s", "setup_s": "s"}
PER_LAYER = {
    "transport_ms": "ms", "handle_ms": "ms", "service_ms": "ms", "analyze_self_ms": "ms",
    "map_ms": "ms", "ilp_ms": "ms", "predict_ms": "ms", "repair_ms": "ms", "sweep_ms": "ms",
    "simulate_ms": "ms", "cache_hits_per_req": "count", "ilp_solves_per_req": "count",
    "loaded_handle_ms": "ms", "loaded_wait_ms": "ms",
}


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(env):
    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        raise BenchError("run from the root of a Clara checkout (no CMakeLists.txt/src here)")
    tmp = Path(".bench_build") / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(env, TMPDIR=str(tmp.resolve()))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", "perfbench", "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       env=env, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "clarad", "perfbench_harness",
                    "--parallel", jobs], env=env, stdout=sys.stderr, check=True)


def write_templates(workload):
    spec, _ = WORKLOADS[workload]
    path = RUN / f"{workload}.jsonl"
    with open(path, "w") as out:
        for fields in LOADGEN_MIX:
            request = dict({"proto": "clara-serve/1", "workload": spec}, **fields)
            out.write(json.dumps(request) + "\n")
    return path


def wait_for_hello(sock, proc, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while True:
        if proc.poll() is not None:
            raise BenchError(f"clarad exited with status {proc.returncode} before serving")
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            try:
                conn.connect(str(sock))
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise BenchError("clarad did not start listening")
                time.sleep(0.0005)
                continue
            conn.settimeout(timeout_s)
            hello = conn.makefile("rb").readline()
            if b'"kind":"hello"' not in hello:
                raise BenchError(f"clarad sent no hello line: {hello[:200]!r}")
            return


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


@contextlib.contextmanager
def clarad(sock, env, daemon_log):
    """A fresh clarad on `sock`; yields seconds from spawn to its hello."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(CLARAD), f"--socket={sock}", f"--jobs={DAEMON_JOBS}"],
                            env=env, stdout=subprocess.DEVNULL, stderr=daemon_log)
    try:
        wait_for_hello(sock, proc)
        yield time.perf_counter() - start
    finally:
        stop(proc)


def run_harness(sock, templates, args, seconds, env, serve=False):
    cmd = [str(HARNESS), f"--socket={sock}", f"--templates={templates}", f"--seed={args.seed}",
           f"--seconds={seconds}", f"--connections={LOADED_CLIENTS}", f"--jobs={DAEMON_JOBS}"]
    if WORKLOADS[args.workload][1]:
        cmd.append("--unique")
    if serve:
        cmd.append("--serve")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=seconds + 120)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"harness exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for error in result["errors"]:
        log(f"check failed: {error}")
    return result


def end_to_end(sock, templates, args, env):
    setups, runs = [], []
    with open(RUN / "clarad.log", "w") as daemon_log:
        for k in range(SETUPS):
            seconds = args.seconds if k == SETUPS - 1 else 0
            with clarad(sock, env, daemon_log) as ready_s:
                run = run_harness(sock, templates, args, seconds, env)
            setups.append(ready_s + run["prime_s"])
            runs.append(run)
    idle, loaded = runs[-1]["idle_ms"], runs[-1]["loaded_ms"]
    if len(idle) < 100 or len(loaded) < 2:
        raise BenchError(f"only {len(idle)} + {len(loaded)} answered requests in the timed phases")
    values = {
        "p50_ms": statistics.median(idle),
        "p99_ms": statistics.quantiles(idle, n=100)[98],
        "throughput_rps": len(loaded) / runs[-1]["loaded_s"],
        "setup_s": statistics.median(setups),
    }
    log(f"{len(idle)} idle + {len(loaded)} loaded requests "
        f"(loaded p50 {statistics.median(loaded):.4f} ms, "
        f"p99 {statistics.quantiles(loaded, n=100)[98]:.4f} ms), "
        f"{runs[-1]['verified']} answers recomputed in-process, "
        f"setups {[round(s, 4) for s in setups]}")
    return runs, values


def traced(sock, templates, args, env):
    run = run_harness(sock, templates, args, args.seconds, env, serve=True)
    log(f"{len(run['idle_ms'])} traced idle + {len(run['loaded_ms'])} loaded requests, "
        f"{run['verified']} answers recomputed in-process")
    return [run], {name: run["layers"][name] for name in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 2 or args.seed < 0:
        parser.error("--seconds must be >= 2 and --seed >= 0")

    # A terminated run still unwinds, so the daemon it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    try:
        env = dict(os.environ, CLARA_FLIGHT_DIR=str(RUN.resolve()))
        build(env)
        RUN.mkdir(parents=True, exist_ok=True)
        templates = write_templates(args.workload)
        sock = RUN / f"clarad-{os.getpid()}.sock"
        measure = traced if args.trace else end_to_end
        runs, values = measure(sock, templates, args, env)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        log(f"error: {err}")
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
