"""Full-scale forward measurement: the 320x448 network, one sample, eval mode.

Run from a spade checkout, with no flags:

    python3 tools/fullscale.py

It builds the seed-11 `init="train"` model at `input_hw` (320, 448), times 5
B=1 eval forwards under `no_grad`, then runs one more under `tracemalloc`, and
prints one JSON line: each forward's seconds, their median and the traced
peak in MiB above what was live before that forward. It imports `spade` from
this checkout's `src/`, so two checkouts can be compared run by run. The model
and its temporaries take about 2 GB.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from spade.nn import Tensor, no_grad  # noqa: E402
from spade.pipeline import RunConfig, SpadeModel  # noqa: E402

INPUT_HW = (320, 448)
SEED = 11
FORWARDS = 5


def main() -> int:
    cfg = RunConfig(input_hw=INPUT_HW, seed=SEED)
    model = SpadeModel(cfg, init="train").eval()
    rng = np.random.default_rng(1)
    shape = (1, 1, *INPUT_HW)
    inputs = [Tensor(np.ones(shape)), Tensor(rng.uniform(0.5, 1.0, shape)), Tensor(rng.uniform(0.0, 1.0, shape))]
    times = []
    with no_grad():
        for _ in range(FORWARDS):
            start = time.perf_counter()
            model(*inputs)
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model(*inputs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    print(json.dumps({
        "input_hw": list(INPUT_HW),
        "forward_s": [round(t, 4) for t in times],
        "median_s": round(statistics.median(times), 4),
        "traced_peak_mib": round(peak / 2**20, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
