#!/usr/bin/env python3
"""Builds and runs the MiLo benchmark from the repository root.

    python3 perfbench/run.py --workload compress|mixtral_chat|deepseek_serve \
        --seed N --seconds S --trace 0|1 [--repeat K]

Builds `perfbench` (and `milo-cli`, whose `trace-check` validates the
traced run's Chrome trace) into $CARGO_TARGET_DIR (default `.bench_build`),
runs one workload in a child process and prints its metrics; the last
line of standard output is the JSON result. The child's peak resident
memory, read from the kernel's accounting when it exits, is added as
`peak_rss_mb` to the end-to-end metrics.

`--repeat K` runs the workload K times with seeds N..N+K-1 and prints,
for each metric, the median and the quartile spread as a share of the
median: the figures the bounds in BENCHMARK.json are set from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("compress", "mixtral_chat", "deepseek_serve")
# Spans the traced run must contain: the benchmark's own, around each
# workload's calls and each probed layer, and the program's own.
REQUIRED_SPANS = {
    "compress": ["bench.compress.matrix", "core.milo_compress"],
    "mixtral_chat": ["bench.chat.prefill", "bench.chat.step", "engine.ffn"],
    "deepseek_serve": ["bench.serve.open_loop", "bench.serve.request", "engine.forward"],
}
PROBE_SPANS = [
    "bench.probe.deploy", "bench.probe.gemm_bs1", "bench.probe.gemm_rows",
    "bench.probe.dequant", "bench.probe.linear", "bench.probe.compensator",
    "bench.probe.pool_fork", "bench.probe.head", "bench.probe.hqq", "bench.probe.svd",
    "bench.probe.milo_compress", "bench.probe.comp_quant", "bench.probe.prefill",
    "bench.probe.forward", "bench.probe.attend", "bench.probe.route",
    "bench.probe.open_loop", "bench.probe.serve_overhead",
    "engine.attn", "engine.ffn",
]
CHILD_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in ((os.path.join(BENCH_DIR, "Cargo.toml"), []),
                            (os.path.join(ROOT, "Cargo.toml"), ["-p", "milo-cli"])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (report lines, result dict)."""
    binary = os.path.join(target_dir(), "release", "perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    env = dict(os.environ)
    env.pop("MILO_TELEMETRY", None)
    trace_file = None
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")
        cmd += ["--trace-out", trace_file]
        env["MILO_TELEMETRY"] = "trace"
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    out = child.stdout.read()
    # wait4 reaps this child alone and returns its own resource usage;
    # ru_maxrss is its peak resident set in KiB.
    _, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        # A failed output check still prints its result (correct: false)
        # as the last line; pass it on and fail.
        sys.stdout.write(out)
        sys.exit(f"perfbench: {workload} exited with code {code}")
    result = json.loads(lines[-1])
    if not trace:
        metrics = {"peak_rss_mb": {"value": usage.ru_maxrss / 1024, "unit": "MB"}}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    if trace:
        check = subprocess.run(
            [os.path.join(target_dir(), "release", "milo-cli"), "trace-check",
             "--trace", trace_file, "--require",
             ",".join([f"bench.{workload}"] + REQUIRED_SPANS[workload] + PROBE_SPANS)],
            stdout=sys.stderr)
        if check.returncode != 0:
            sys.exit(f"perfbench: trace-check rejected {trace_file}")
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1)
    a = p.parse_args()
    build()
    if a.repeat <= 1:
        lines, result = run_once(a.workload, a.seed, a.seconds, a.trace == 1)
        print("\n".join(lines))
        print(json.dumps(result))
        return
    runs = [run_once(a.workload, a.seed + i, a.seconds, a.trace == 1)[1] for i in range(a.repeat)]
    print(f"{a.workload}: {a.repeat} runs, seeds {a.seed}..{a.seed + a.repeat - 1}, "
          f"host_threads {len(os.sched_getaffinity(0))}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"  failed share per run: {sorted(shares)}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        print(f"  {name:<32} median {med:14.4f} {m['unit']:<6} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {spread:.4f}")


if __name__ == "__main__":
    main()
