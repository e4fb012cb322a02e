"""Record the reference outputs the benchmark checks against.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/reference.py

It writes perfbench/reference.json: per pool frame the MAE, fitted (s, t)
and fit mode; per training config seed the train and val loss of each
epoch; per sweep config seed every cell's metrics. It takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    if not os.path.isfile(os.path.join("src", "spade", "__init__.py")):
        print("reference: ./src/spade not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import spade.pipeline as pipeline
    import workloads as W

    tmp = os.path.abspath(os.path.join(".bench_tmp", f"reference-{os.getpid()}"))
    os.makedirs(tmp)
    try:
        model = W.desk_model_checkpoint(os.path.join(tmp, "model.spw1"))
        frames = []
        for i in range(W.POOL_SIZE):
            d = os.path.join(tmp, "frame")
            W.write_frame(W.pool_frame(i), d)
            frames.append(W.frame_reference(W.run_frame_files(model, d)))
        train = {}
        for s in range(W.REF_SEEDS):
            _, train_log = pipeline.train(W.train_config(s), quiet=True)
            train[str(s)] = W.train_reference(train_log)
        sweep = {}
        for s in range(W.REF_SEEDS):
            report = pipeline.sweep(model, pipeline.RunConfig(seed=s), W.sweep_spec())
            sweep[str(s)] = W.sweep_reference(report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    refs = {
        "inputs": W.reference_inputs(),
        "frame": {"frames": frames},
        "train": train,
        "sweep": sweep,
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as f:
        json.dump(refs, f, separators=(",", ":"))
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
