"""Steadiness checks for the benchmark itself.

Run from the repository root:

    python3 perfbench/steady.py spread [--runs 10] [--first-seed 1] [workload ...]
    python3 perfbench/steady.py exact [--seed 1] [workload ...]

spread runs each workload --runs times untraced, one seed per run, and
prints for every end-to-end metric its median and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. It fails if any run is incorrect or a spread other than
setup_s exceeds the metric's bound in BENCHMARK.json; a spread above a
third of the bound is flagged as "wide".

exact runs the traced slice of each workload twice with one seed and fails
unless the counts that must repeat exactly are identical: nn.op.*.gflop,
nn.op.*.mb, nn.tape.nodes, alignment.mode.*, pipeline.sweep.net_passes,
pipeline.sweep.skipped, and the train checkpoint's SHA-256.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ("frame", "train", "sweep")
RUN_TIMEOUT_S = 600


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result, lines[:-1]


def spread(bench: dict, workloads, runs: int, first_seed: int) -> bool:
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(first_seed, first_seed + runs):
            result, _ = bench_run(w, seed, bench["run_seconds"], 0)
            ok &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = "ok"
            if share > m["bound"] / 3:
                flag = "wide"
            if share > m["bound"] and m["name"] != "setup_s":
                flag, ok = "FAIL", False
            print(f"{w:6s} {m['name']:14s} median {med:12.6g} {m['unit']:5s} spread {share:.4f} (bound {m['bound']}) {flag}")
    return ok


EXACT_PREFIXES = ("alignment.mode.",)
EXACT_SUFFIXES = (".gflop", ".mb")
EXACT_NAMES = ("nn.tape.nodes", "pipeline.sweep.net_passes", "pipeline.sweep.skipped")


def exact_counts(result: dict, notes: list[str]) -> dict:
    counts = {
        k: v["value"]
        for k, v in result["metrics"].items()
        if k in EXACT_NAMES or k.startswith(EXACT_PREFIXES) or (k.startswith("nn.op.") and k.endswith(EXACT_SUFFIXES))
    }
    counts.update({line.split()[0] + " " + line.split()[2]: line.split()[1] for line in notes if line.startswith("train.checkpoint_sha256")})
    return counts


def exact(bench: dict, workloads, seed: int) -> bool:
    ok = True
    for w in workloads:
        first, notes1 = bench_run(w, seed, bench["run_seconds"], 1)
        second, notes2 = bench_run(w, seed, bench["run_seconds"], 1)
        ok &= first["correct"] and second["correct"]
        a, b = exact_counts(first, notes1), exact_counts(second, notes2)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        for k in differ:
            print(f"{w}: {k} differs: {a.get(k)} vs {b.get(k)}")
        print(f"{w}: {len(a)} exact counts, {len(differ)} differ, overhead "
              f"{first['metrics']['bench.trace_overhead_frac']['value']:.3f} / "
              f"{second['metrics']['bench.trace_overhead_frac']['value']:.3f}")
        ok &= not differ
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="steadiness checks for perfbench")
    ap.add_argument("mode", choices=("spread", "exact"))
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_intermixed_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    if args.mode == "spread":
        ok = spread(bench, args.workloads, args.runs, args.first_seed)
    else:
        ok = exact(bench, args.workloads, args.seed)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
