#!/usr/bin/env python3
"""Measure the benchmark repeatedly and apply its bounds.

    python3 perfbench/gate.py measure OUT.jsonl [--runs N] [--seconds S]
                              [--workloads a,b] [--first-seed K] [-- extra args]
    python3 perfbench/gate.py pair BASE.jsonl NEW.jsonl [same options] [-- new args]
    python3 perfbench/gate.py spread OUT.jsonl
    python3 perfbench/gate.py compare BASE.jsonl NEW.jsonl

`measure` runs every workload N times with seeds K, K+1, ... (plain
runs, `--trace 0`) and appends one JSON line per run. Extra arguments
after `--` go to the benchmark, e.g. `-- --plant slow=ml-window`.

`pair` measures a base and a new configuration (the extra arguments
apply to the new side only) in alternating pairs on the same seeds,
alternating which side runs first, so that host drift falls on both.

`spread` reports, per workload and end-to-end metric, the distance
between the first and third quartile as a share of the median and
flags any at or above a third of the metric's bound (`setup_s` exempt).

`compare` reports, per workload and metric, how far NEW's median moved
from BASE's and flags a regression where it is worse by more than the
bound. It exits 1 when anything regressed.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def load(path):
    by = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            by.setdefault(rec["workload"], []).append(rec["result"])
    return by


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def parse_measure(argv):
    extra = argv[argv.index("--") + 1:] if "--" in argv else []
    argv = argv[:argv.index("--")] if "--" in argv else argv
    files = [a for a in argv if a.endswith(".jsonl")]
    rest = [a for a in argv if not a.endswith(".jsonl")]
    opts = dict(zip(rest[::2], rest[1::2]))
    spec, _ = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    return files, extra, {
        "runs": int(opts.get("--runs", "10")),
        "seconds": opts.get("--seconds", str(spec["run_seconds"])),
        "first": int(opts.get("--first-seed", "1")),
        "workloads": opts.get("--workloads", ",".join(names)).split(","),
        "command": spec["command"],
    }


def run_once(o, out, w, seed, extra):
    cmd = o["command"] + ["--workload", w, "--seed", str(seed),
                          "--seconds", o["seconds"], "--trace", "0"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"gate: {w} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    with open(out, "a") as f:
        f.write(json.dumps({"workload": w, "seed": seed, "args": extra, "result": result}) + "\n")
    print(f"{out}: {w} seed {seed}: wall_s {result['metrics']['wall_s']['value']:.4f}",
          file=sys.stderr)


def measure(argv):
    files, extra, o = parse_measure(argv)
    for w in o["workloads"]:
        for k in range(o["runs"]):
            run_once(o, files[0], w, o["first"] + k, extra)


def pair(argv):
    files, extra, o = parse_measure(argv)
    for w in o["workloads"]:
        for k in range(o["runs"]):
            sides = [(files[0], []), (files[1], extra)]
            for out, args in sides if k % 2 == 0 else sides[::-1]:
                run_once(o, out, w, o["first"] + k, args)


def spread(argv):
    _, metrics = bench_spec()
    worst = 0
    print("| workload | metric | median | IQR/median | bound/3 | |")
    print("|---|---|---:|---:|---:|---|")
    for w, results in load(argv[0]).items():
        for name, m in metrics.items():
            v = values(results, name)
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or share < m["bound"] / 3 else "TOO WIDE"
            worst += bool(flag)
            print(f"| {w} | {name} | {med:.6g} | {share:.4f} | {m['bound'] / 3:.4f} | {flag} |")
    sys.exit(1 if worst else 0)


def compare(argv):
    _, metrics = bench_spec()
    base, new = load(argv[0]), load(argv[1])
    regressions = 0
    print("| workload | metric | base median | new median | worse by | bound | |")
    print("|---|---|---:|---:|---:|---:|---|")
    for w in base:
        if w not in new:
            continue
        for name, m in metrics.items():
            b, n = values(base[w], name), values(new[w], name)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mn - mb) / mb if mb else (float("inf") if sign * mn > 0 else 0.0)
            flag = "REGRESSION" if worse > m["bound"] else ""
            regressions += bool(flag)
            print(f"| {w} | {name} | {mb:.6g} | {mn:.6g} | {worse:+.4f} | {m['bound']} | {flag} |")
    sys.exit(1 if regressions else 0)


def main(argv):
    commands = {"measure": measure, "pair": pair, "spread": spread, "compare": compare}
    if not argv or argv[0] not in commands or len(argv) < 2:
        sys.exit(__doc__)
    commands[argv[0]](argv[1:])


if __name__ == "__main__":
    main(sys.argv[1:])
