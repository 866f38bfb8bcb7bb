#!/usr/bin/env python3
"""Measures how steady the end-to-end metrics are.

Runs the benchmark on each named workload once per entry of each named
set of seeds, and prints, per (set, workload, metric), the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median, next to the metric's bound
from BENCHMARK.json. A seed list is a comma-separated list of seeds,
ranges (1-10) and repeats (1x10 = seed 1 ten times), so one set can
sweep seeds and another repeat a single seed:

    python3 perfbench/steadiness.py --set sweep=1-10 --set default=1x10 \\
        --set held_out=7x5 --out perfbench/STEADINESS.json

For a set that repeats one seed it also compares the median of the
first half of its runs with that of the second half in each metric's
bad direction, as two sets of runs of the same code. It checks
that every run was correct, that repeated runs of one seed printed the
same counts line, and records the share of CPU time the hypervisor
stole during each run (from /proc/stat): on a shared virtual machine
that share moves every timing metric. Beside the end-to-end metrics it
summarises the run's host line (host.*): the reference kernel's time
and the timings before they were scaled to the nominal host speed, so
the two can be compared.

Run from the repository root. A --binary skips the build and calls a
prebuilt perfbench directly.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def machine():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "gomaxprocs": int(os.environ.get("GOMAXPROCS", os.cpu_count())),
        "go_version": out(["go", "version"]),
        "git_revision": out(["git", "rev-parse", "HEAD"]),
        "cpu": platform.processor() or platform.machine(),
    }


def cpu_ticks():
    """Returns (steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields[:8])


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "x" in part:
            seed, times = part.split("x")
            out.extend([int(seed)] * int(times))
        elif "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def quartiles(vs):
    q1, q2, q3 = statistics.quantiles(vs, n=4)
    return q1, q2, q3, ((q3 - q1) / q2 if q2 else float("inf"))


def run_set(base, workloads, seeds, seconds, bench):
    """Runs every workload on every seed; returns (summary, ok)."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ok = True
    out = {}
    for wl in workloads:
        values, counts, steal = {}, [], []
        for seed in seeds:
            cmd = base + ["--workload", wl, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"]
            t0 = cpu_ticks()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            t1 = cpu_ticks()
            if t0 and t1 and t1[1] > t0[1]:
                steal.append((t1[0] - t0[0]) / (t1[1] - t0[1]))
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: incorrect: {lines[-1]}", file=sys.stderr)
                ok = False
            counts.append({"seed": seed, "counts": json.loads(lines[-2])["counts"] if len(lines) > 1 else {}})
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # The host line: the reference kernel's time and the timings
            # before they were scaled to the nominal host speed.
            for name, v in (json.loads(lines[-3])["host"] if len(lines) > 2 else {}).items():
                values.setdefault("host." + name, []).append(v)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items()))
                + (f" steal={steal[-1]:.3f}" if steal else ""), flush=True)
        rows = {}
        for name, vs in sorted(values.items()):
            q1, q2, q3, spread = quartiles(vs)
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vs}
            halves = ""
            if len(set(seeds)) == 1 and len(vs) >= 2:
                half = len(vs) // 2
                first, second = statistics.median(vs[:half]), statistics.median(vs[half:])
                worse = (second - first) / first if better.get(name) == "lower" else (first - second) / first
                rows[name]["halves"] = {"median_first": first, "median_second": second, "worse_by": worse,
                                        "within_bound": name not in bounds or worse <= bounds[name]}
                halves = f" halves_worse_by={worse:+.3f}"
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name]:
                flag = "  <-- above the bound"
            elif name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {wl:10s} {name:22s} median={q2:10.4f} q1={q1:10.4f} q3={q3:10.4f} "
                  f"spread={spread:6.3f}{halves} bound={bounds.get(name)}{flag}")
        by_seed = {}
        for c in counts:
            by_seed.setdefault(c["seed"], []).append(c["counts"])
        repeats_identical = {str(s): all(c == cs[0] for c in cs) for s, cs in by_seed.items() if len(cs) > 1}
        if repeats_identical:
            print(f"  {wl:10s} counts identical across repeats of a seed: {repeats_identical}")
        out[wl] = {"metrics": rows, "counts": counts, "steal_per_run": steal,
                   "counts_identical_across_repeats": repeats_identical}
    return out, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="raw,simplified,service")
    ap.add_argument("--set", action="append", default=[],
                    help="NAME=SEEDS, e.g. sweep=1-10 or default=1x10 (repeatable)")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--binary", default=None)
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    ap.add_argument("--note", default="", help="a note to store with the summary")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    base = [args.binary] if args.binary else bench["command"]
    sets = [s.split("=", 1) for s in (args.set or ["sweep=1-10"])]

    summary = {"note": args.note, "machine": machine(), "run_seconds": seconds, "sets": {}}
    ok = True
    for name, spec in sets:
        print(f"== set {name}: seeds {spec}", flush=True)
        summary["sets"][name] = {"seeds": spec}
        res, set_ok = run_set(base, args.workloads.split(","), seeds_of(spec), seconds, bench)
        summary["sets"][name]["workloads"] = res
        ok = ok and set_ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
