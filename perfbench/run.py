"""spade benchmark: one command for the frame, train and sweep workloads.

Run from the repository root:

    python3 perfbench/run.py --workload frame --seed 1 --seconds 20 --trace 0

It imports spade from ./src, measures the workload for --seconds, checks
every output against perfbench/reference.json and prints one line per
metric ("name value unit"), an "env" line and, last, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 runs a fixed slice of the workload once
untraced and once traced and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

SETUP_REPEATS = 3
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "frame_p50_ms": "ms",
    "frames_per_s": "1/s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("frame", "train", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_info() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, read through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD of ./.git read without running git, or None outside a repository."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return head
    except OSError:
        return None


def environment() -> dict:
    import numpy as np

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": affinity or os.cpu_count(),
        "SPADE_THREADS": os.environ.get("SPADE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
        "src_sha256": source_digest(os.path.join("src", "spade")),
    }


def load_references(workload: str) -> dict:
    import workloads as W

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        refs = json.load(f)
    if refs["inputs"] != W.reference_inputs():
        raise SystemExit("perfbench: reference.json was recorded for other inputs; rerun perfbench/reference.py")
    return refs[workload]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(wl, seconds: float) -> tuple[dict, object]:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    out = wl.run(seconds=seconds)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "frame_p50_ms": statistics.median(out.item_ms) if out.item_ms else float("nan"),
        "frames_per_s": statistics.median(out.block_rates) if out.block_rates else float("nan"),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, out


def traced(wl, spade) -> tuple[dict, object, list]:
    """A fixed slice of the workload untraced, then the same slice traced.

    The first untraced pass only warms up: it runs consistently slower
    than later passes and would make tracing look free."""
    from spans import Tracer, per_layer_units

    setup, run = wl.trace_slice()
    setup()
    warm = run()
    base = run()
    tracer = Tracer()
    tracer.install(spade)
    try:
        setup()
        out = run()
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["bench.trace_overhead_frac"] = out.wall_s / base.wall_s - 1.0
    out.attempted += warm.attempted + base.attempted
    out.failed += warm.failed + base.failed
    units = per_layer_units()
    return {k: (values[k], units[k]) for k in units}, out, tracer.missing(wl.name)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "spade", "__init__.py")):
        print("perfbench: ./src/spade not found; run from the root of a spade checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import spade
    import workloads as W  # also imports the spade submodules the tracer patches

    refs = load_references(args.workload)
    tmp = os.path.abspath(os.path.join(".bench_tmp", f"{args.workload}-{os.getpid()}"))
    os.makedirs(tmp)
    try:
        wl = W.WORKLOADS[args.workload](args.seed, tmp, refs)
        if args.trace:
            metrics, out, problems = traced(wl, spade)
        else:
            metrics, out = untraced(wl, args.seconds)
            problems = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass

    for problem in problems:
        print(f"perfbench: hook coverage: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    for note in out.notes:
        print(note)
    failed_frac = (out.failed + out.skipped) / out.attempted if out.attempted else float("nan")
    print(f"failed_frac {failed_frac!r} frac ({out.failed} failed + {out.skipped} skipped of {out.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = out.failed == 0 and not problems and out.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
