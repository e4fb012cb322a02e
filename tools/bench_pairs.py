"""Parent-versus-change benchmark in alternating pairs, written as BENCH_<n>.json.

Run from anywhere, with two spade checkouts (the parent commit and the change):

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_<n>.json \
        [--first-seed 1] [workload ...]

For each workload, pair i of 10 runs `perfbench/run.py --seed <first-seed + i>
--trace 0` for BENCHMARK.json's `run_seconds` once in each checkout, each from
its own root; even pairs run the parent first and odd pairs the change first, so
a drift of the host over the session falls on both sides. The file lists every
run (its end-to-end values, `correct` and `failed`), each side's median and
quartiles per metric, the change/parent ratio of every pair and how many pairs
the change won, a verdict against the metric's bound, plus the seeds, both
commits and each side's `env` lines. Every run is kept because some metrics are
not unimodal: `frame` `peak_rss_mb` reads one of two levels, and `sweep`
`setup_s` drifts from process to process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10


def load_bench_run():
    """perfbench's own runner, `steady.bench_run`, which runs perfbench/run.py from the working directory."""
    spec = importlib.util.spec_from_file_location("perfbench_steady", ROOT / "perfbench" / "steady.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.bench_run


def pair_order(i: int) -> tuple[str, str]:
    return SIDES if i % 2 == 0 else SIDES[::-1]


def env_line(lines: list[str]) -> dict | None:
    return next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)


def run_record(workload: str, pair: int, seed: int, side: str, result: dict) -> dict:
    """One run as the file lists it: its end-to-end values and outcome."""
    return {
        "workload": workload,
        "pair": pair,
        "seed": seed,
        "side": side,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def verdict(values: dict, parent: dict, worse: float, m: dict) -> str:
    """Unresolved where the parent's quartile spread over its median is wider
    than the bound, unless every change run beats every parent run; otherwise
    whether the change's median is worse than the parent's by more than the bound."""
    if m["better"] == "lower":
        clear_win = max(values["change"]) < min(values["parent"])
    else:
        clear_win = min(values["change"]) > max(values["parent"])
    if (parent["q3"] - parent["q1"]) / parent["median"] > m["bound"] and not clear_win:
        return "unresolved"
    return "within bound" if worse <= m["bound"] else "worse than bound"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles, per
    pair the change/parent ratio and whether the change was better, and the verdict."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
        cell = {
            "pairs": len(pairs),
            "incorrect_runs": sum(not r["correct"] for p in pairs for r in p.values()),
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        }
        for m in end_to_end:
            name = m["name"]
            values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
            ratios = [c / a for a, c in zip(values["parent"], values["change"])]
            wins = sum(r < 1 if m["better"] == "lower" else r > 1 for r in ratios)
            side_stats = {side: quartiles(values[side]) for side in SIDES}
            change_vs_parent = side_stats["change"]["median"] / side_stats["parent"]["median"] - 1.0
            worse = change_vs_parent if m["better"] == "lower" else -change_vs_parent
            cell[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                **side_stats,
                "pair_ratios": ratios,
                "change_wins": wins,
                "median_change_vs_parent": change_vs_parent,
                "verdict": verdict(values, side_stats["parent"], worse, m),
            }
        summary[workload] = cell
    return summary


def checkout_commit(path: Path) -> dict:
    """HEAD of a checkout and whether its tree differs from HEAD; None where git cannot tell."""

    def git(*args):
        proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out.resolve()
    bench_run = load_bench_run()

    runs, envs = [], {side: {} for side in SIDES}
    for workload in args.workloads:
        for i in range(PAIRS):
            seed = args.first_seed + i
            for side in pair_order(i):
                os.chdir(dirs[side])
                result, lines = bench_run(workload, seed, bench["run_seconds"], 0)
                runs.append(run_record(workload, i, seed, side, result))
                env = env_line(lines)
                envs[side][json.dumps(env, sort_keys=True)] = env
                values = " ".join(f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items())
                print(f"{workload} pair {i} seed {seed} {side}: correct={result['correct']} {values}", flush=True)
    payload = {
        "command": "python3 perfbench/run.py --workload <w> --seed <seed> --seconds <s> --trace 0",
        "seconds": bench["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + PAIRS)),
        "order": "even pairs run the parent first, odd pairs the change first",
        "commits": {side: checkout_commit(d) for side, d in dirs.items()},
        "env": {side: list(envs[side].values()) for side in SIDES},  # each distinct env line of the side
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    with open(out, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    for workload, cell in payload["summary"].items():
        for m in bench["end_to_end"]:
            s = cell[m["name"]]
            print(f"{workload:6s} {m['name']:13s} parent {s['parent']['median']:10.5g} change {s['change']['median']:10.5g} "
                  f"({s['median_change_vs_parent']:+.3f}, change won {s['change_wins']}/{cell['pairs']}) "
                  f"{s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
