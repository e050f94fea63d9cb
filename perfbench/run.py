#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <ml-window|spec-memory|sweep-isolated|all>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--plant slow=<workload>|ref]

Builds the `perfbench` Cargo package (its own package, depending on the
simulator crates by path) in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), prints a system-information block, and runs
the benchmark binary from the repository root. The binary's report is
relayed; the last line of standard output is the result as one JSON
object. `--workload all` runs every workload in turn and ends with one
combined result line.
"""

import datetime
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ml-window", "spec-memory", "sweep-isolated"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary and return its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        fail("the simulator crates are missing: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's output goes to stderr so the result stays the last stdout line.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def system_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = command_output(["git", "rev-parse", "--short", "HEAD"]) or "n/a (not a git checkout)"
    rows = [
        ("kernel", platform.release()),
        ("cpu", model),
        ("nproc", str(len(os.sched_getaffinity(0)))),
        ("rustc", command_output(["rustc", "-V"]) or "unknown"),
        ("git rev", rev),
        ("date", datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d %H:%M:%S UTC")),
    ]
    lines = ["## system", "", "| | |", "|---|---|"]
    lines += [f"| {k} | {v} |" for k, v in rows]
    return "\n".join(lines)


def run_one(exe, args):
    """Run the binary, relay its report, and return its result object."""
    proc = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(out[:-1]))
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}")
    try:
        return json.loads(out[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")


def main(argv):
    if "--workload" not in argv:
        fail("usage: run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
    i = argv.index("--workload") + 1
    if i >= len(argv):
        fail("--workload needs a value")
    exe = build()
    print(system_info())
    print()
    if argv[i] != "all":
        print(json.dumps(run_one(exe, argv)))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        res = run_one(exe, argv[:i] + [w] + argv[i + 1:])
        print(json.dumps(res))
        print()
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main(sys.argv[1:])
