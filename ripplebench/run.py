#!/usr/bin/env python3
"""Repository benchmark for RIPPLE: builds the benchmark from source, runs
one workload and prints one JSON result as the last line of stdout.

    python3 ripplebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: inproc-mixed, sim-lossy, cache-churn (in-process, one binary)
and live-udp (three `ripple_cli serve` daemons on loopback UDP plus one
client). See ripplebench/README.md for what each measures.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory, which must be the repository root. Everything the run
writes (build tree, peers file, daemon logs, spans) stays in that
directory.
"""

import argparse
import ctypes
import json
import os
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inproc-mixed", "sim-lossy", "cache-churn", "live-udp")

# live-udp: the overlay every daemon and the client rebuild from the peers
# file. Anti-correlated d=5 makes the skyline far larger than one UDP
# datagram. The data is fixed; --seed picks the query stream.
LIVE_CONFIG = "config dataset=anticorrelated peers=96 dims=5 tuples=10000 " \
              "seed=7 patterns=0"
LIVE_RANGES = ((0, 31), (32, 63), (64, 95))
# Daemon retry discipline: a short patience, so that a query whose
# subtree is lost to an oversize frame ends in about 1.5 s, not minutes.
DAEMON_RETRY = ("--timeout-ms=20", "--timeout-cap-ms=40", "--max-retries=2")
CLUSTER_STARTS = 7
RUN_TIMEOUT_S = 165
PR_SET_PDEATHSIG = 1


class Stop(Exception):
    """Raised from SIGTERM/SIGINT so that cleanup runs."""


def on_signal(signum, _frame):
    raise Stop(f"signal {signum}")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds ripplebench and ripple_cli."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                    "ripplebench", "ripple_cli"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(cmake_dir, "ripplebench"),
            os.path.join(cmake_dir, "ripple", "tools", "ripple_cli"))


def free_ports(n):
    """n UDP ports the kernel hands out as free (bound, read, released)."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def stop_all(procs):
    """SIGTERM, then reap; SIGKILL whatever has not exited in 5 s."""
    for p in procs:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    for p in procs:
        try:
            p.wait(timeout=5)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    procs.clear()


def child_setup():
    """A preexec_fn for every process a run starts. It places the process
    on one CPU, the same for all: on a virtual machine, a message between
    processes on different vCPUs waits for the receiving vCPU to wake,
    and that wait varied several-fold from run to run. It also asks the
    kernel to SIGTERM the process if this launcher dies without reaping
    it."""
    cpu = sorted(os.sched_getaffinity(0))[-1]
    libc = ctypes.CDLL(None, use_errno=True)

    def setup():
        os.sched_setaffinity(0, {cpu})
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    return setup


def start_cluster(cli, peers_file, ports, work, procs):
    """Starts the three daemons and waits until all answer the admin
    plane (`ripple_cli monitor --wait-healthy-ms`). Returns the
    spawn-to-healthy time in ms."""
    t0 = time.monotonic()
    for i, port in enumerate(ports):
        out = open(os.path.join(work, f"serve-{i}.log"), "w")
        procs.append(subprocess.Popen(
            [cli, "serve", f"--peers-file={peers_file}",
             f"--listen=127.0.0.1:{port}", *DAEMON_RETRY],
            stdout=out, stderr=subprocess.STDOUT, preexec_fn=child_setup()))
        out.close()
    # A ping sent before a daemon has bound its port is lost; a short
    # probe timeout keeps that wait from dominating the readiness time.
    probe = subprocess.run(
        [cli, "monitor", f"--peers-file={peers_file}",
         "--wait-healthy-ms=30000", "--probe-timeout-ms=2",
         "--probe-attempts=1", "--quiet"],
        stdout=subprocess.DEVNULL, stderr=sys.stderr, timeout=60)
    if probe.returncode != 0:
        raise RuntimeError("the cluster never became healthy")
    return (time.monotonic() - t0) * 1000.0


def run_client(cmd, preexec_fn):
    """Runs the benchmark binary; returns its stdout or raises."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=preexec_fn)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"ripplebench exited with {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}; run from a repository checkout")
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    work = os.path.join(build_dir, "work")
    span_dir = os.path.join(build_dir, "spans")
    procs = []
    try:
        bench, cli = build(build_dir)
        os.makedirs(work, exist_ok=True)
        os.makedirs(span_dir, exist_ok=True)
        cmd = [bench, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--span-dir={span_dir}"]
        if args.workload == "live-udp":
            ports = free_ports(len(LIVE_RANGES))
            peers_file = os.path.join(work, f"peers-{os.getpid()}.txt")
            with open(peers_file, "w") as f:
                f.write(LIVE_CONFIG + "\n")
                for (lo, hi), port in zip(LIVE_RANGES, ports):
                    f.write(f"peer {lo}-{hi} 127.0.0.1:{port}\n")
            # Set-up is timed over several cluster start-ups; the last
            # cluster serves the run.
            ready = []
            for i in range(CLUSTER_STARTS):
                ready.append(start_cluster(cli, peers_file, ports, work, procs))
                if i + 1 < CLUSTER_STARTS:
                    stop_all(procs)
            cmd += [f"--peers-file={peers_file}",
                    "--daemon-pids=" + ",".join(str(p.pid) for p in procs),
                    "--ready-ms=" + ",".join(f"{r:.3f}" for r in ready)]
        out = run_client(cmd, child_setup())
    except (Stop, RuntimeError, subprocess.SubprocessError, OSError) as e:
        log(f"failed: {e}")
        return 1
    finally:
        stop_all(procs)

    lines = out.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("ripplebench printed no result")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
