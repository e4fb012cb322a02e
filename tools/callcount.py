"""Exact cost counts of fixed calls, parent against change.

Run from anywhere, with two spade checkouts (the parent commit and the change):

    python3 tools/callcount.py --parent ../parent --change . [--calls frame train sweep]

Each side runs in a fresh process that imports that checkout's `spade` from
its `src/` and builds these calls:

frame  4 desk `run_frame` calls with ground truth: the seed-11 `init="train"`
       model of the default config on eval frames 0-3;
train  one B=8 training step of `RunConfig(seed=11, train_frames=8)`: stage 1
       of its 8 subsampled frames, forward, loss, backward and the AdamW step;
sweep  one `sweep` of perfbench's `SWEEP_SPEC` at config seed 0 with the
       frame model.

Each call runs once untraced, so imports and caches are warm; then
`sys.setprofile` counts its Python calls and C calls, and separate passes
take its `tracemalloc` peak (the least of PEAK_PASSES, in KiB), all with the
cyclic collector off. The tool prints one JSON line per side, then one line
of change-minus-parent deltas. The call counts are exact, the same in every
process, where timings on a shared host spread by ±10%; a peak delta within
PEAK_NOISE_KIB is noise. A call is not a fixed cost: state the counts beside
a timing, not in place of it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import logging
import subprocess
import sys
import tracemalloc
from pathlib import Path

CALLS = ("frame", "train", "sweep")
SIDES = ("parent", "change")
# A peak is not exact: which objects come from the interpreter's free lists,
# and so escape tracemalloc, depends on what ran before. One checkout's
# peaks spread by up to ~8 KiB between passes and processes, so a peak delta
# within PEAK_NOISE_KIB is noise.
PEAK_PASSES = 3
PEAK_NOISE_KIB = 16


def build_calls(root: Path, names) -> dict:
    """name -> zero-argument callable, run on the `spade` this process imported."""
    from spade import pipeline
    from spade.optim import AdamW

    cfg = pipeline.RunConfig()
    model = pipeline.SpadeModel(cfg, seed=11, init="train")
    calls = {}
    if "frame" in names:
        frames = pipeline.build_corpus(cfg, "eval", n_frames=4)

        def frame():
            for f in frames:
                pipeline.run_frame(model, f.z_rel, f.guide, f.points, gt=f.gt)

        calls["frame"] = frame
    if "train" in names:
        tcfg = pipeline.RunConfig(seed=11, train_frames=8)
        corpus = pipeline.build_corpus(tcfg, "train")
        net = pipeline.SpadeModel(tcfg, init="train")
        opt = AdamW(net.parameters(), lr=tcfg.lr, betas=tcfg.betas, weight_decay=tcfg.weight_decay)

        def train():
            net.train()
            batch = []
            for i, f in enumerate(corpus):
                keep = round(len(f.points) * tcfg.subsample_fraction)
                pts = pipeline.subsample(f.points, keep, seed=pipeline._subsample_seed(tcfg.seed, 1, i))
                batch.append(pipeline._training_sample(f, pts, tcfg))
            loss = pipeline._batch_loss(net, batch)
            opt.zero_grad()
            loss.backward()
            opt.step()

        calls["train"] = train
    if "sweep" in names:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        sweep_spec = pipeline.SweepSpec(**workloads.SWEEP_SPEC)
        calls["sweep"] = lambda: pipeline.sweep(model, pipeline.RunConfig(seed=0), sweep_spec)
    return calls


@contextlib.contextmanager
def no_collector():
    """The cyclic collector off, from a clean heap: when it would run depends
    on what ran before, and so would the calls and the garbage it frees."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def count_calls(fn) -> tuple[int, int]:
    """(Python calls, C calls) that fn makes, as `sys.setprofile` sees them."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    with no_collector():
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
    return counts["call"], counts["c_call"]


def peak_kib(fn) -> int:
    """The least tracemalloc peak of what fn allocates over PEAK_PASSES passes, in KiB."""
    peaks = []
    for _ in range(PEAK_PASSES):
        with no_collector():
            tracemalloc.start()
            try:
                fn()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return round(min(peaks) / 1024)


def measure(root: Path, names) -> dict:
    """This process's counts for each named call, `spade` imported from root."""
    sys.path.insert(0, str(root / "src"))
    import spade

    logging.disable(logging.CRITICAL)  # the sweep's skip warnings; the calls still count
    calls = build_calls(root, names)
    record = {"spade": str(Path(spade.__file__).parent)}
    for name in names:
        calls[name]()
        py, c = count_calls(calls[name])
        record[name] = {"python_calls": py, "c_calls": c, "tracemalloc_peak_kib": peak_kib(calls[name])}
    return record


def deltas(parent: dict, change: dict, names) -> dict:
    return {name: {k: change[name][k] - parent[name][k] for k in parent[name]} for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--calls", nargs="+", choices=CALLS, default=list(CALLS))
    ap.add_argument("--measure", type=Path, help=argparse.SUPPRESS)  # one side, in this process
    args = ap.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure.resolve(), args.calls), sort_keys=True))
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    records = {}
    for side in SIDES:
        root = getattr(args, side).resolve()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--measure", str(root), "--calls", *args.calls],
            cwd=root, stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        records[side] = json.loads(out.splitlines()[-1])
        print(json.dumps({"side": side, "checkout": str(root), **records[side]}, sort_keys=True))
    print(json.dumps({"delta": deltas(records["parent"], records["change"], args.calls)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
