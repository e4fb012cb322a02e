"""Memory budgets: checkpoints stream, the training tape keeps only what its
backward rules read (and no padded copy), and the eval forward frees what it
no longer reads and reuses its heap pages instead of faulting fresh ones in."""

import ctypes
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import spade
from spade.nn import Tensor, conv2d, no_grad
from spade.pipeline import RunConfig, SpadeModel, _batch_loss, _training_sample, build_corpus


def traced_peak(fn):
    """(result, peak bytes fn allocated above what was live before it) under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def desk_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "desk.spw1"
    SpadeModel(RunConfig(), init="train").save(path)
    return path


def test_load_fills_the_new_model_in_place(desk_checkpoint):
    model, peak = traced_peak(lambda: SpadeModel.load(desk_checkpoint))
    model_bytes = sum(a.nbytes for _, a in model.named_arrays())
    assert peak <= 1.1 * model_bytes, (peak, model_bytes)


def test_save_writes_the_live_arrays(desk_checkpoint, tmp_path):
    model = SpadeModel.load(desk_checkpoint)
    path = tmp_path / "again.spw1"
    _, peak = traced_peak(lambda: model.save(path))
    (manifest_bytes,) = struct.unpack_from("<I", path.read_bytes(), 4)
    largest = max(a.nbytes for _, a in model.named_arrays())
    assert peak <= largest + manifest_bytes, (peak, largest, manifest_bytes)
    assert path.read_bytes() == desk_checkpoint.read_bytes()


def test_padded_conv_keeps_no_padded_copy_on_the_tape():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 16, 32, 32)), requires_grad=True)
    w = Tensor(rng.standard_normal((1, 16, 3, 3)), requires_grad=True)
    padded_bytes = 16 * 34 * 34 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = conv2d(x, w, padding=1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the output and a few small objects; a padded copy would be 18x the output
    assert kept - y.data.nbytes < padded_bytes // 10, (kept, y.data.nbytes)


def test_training_tape_keeps_only_what_backward_reads():
    cfg = RunConfig(seed=3)
    batch = [_training_sample(f, f.points, cfg) for f in build_corpus(cfg, "train", n_frames=cfg.batch_size)]
    model = SpadeModel(cfg, init="train")
    _batch_loss(model, batch[:1])  # first-call caches (the resize matrices) are not the tape
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = _batch_loss(model, batch)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 256 MB while the tape kept every op's inputs and outputs, 118 MB now
    assert cfg.batch_size == 8 and held <= 150_000_000, held / 1e6
    loss.backward()


@pytest.mark.parametrize("batch, bound_mb", [(1, 12.5), (2, 16.5)])
def test_eval_forward_frees_what_it_no_longer_reads(batch, bound_mb):
    cfg = RunConfig()
    model = SpadeModel(cfg, init="train").eval()
    rng = np.random.default_rng(1)
    shape = (batch, 1, *cfg.input_hw)
    inputs = [Tensor(np.ones(shape)), Tensor(rng.uniform(0.5, 1.0, shape)), Tensor(rng.uniform(0.0, 1.0, shape))]
    with no_grad():
        model(*inputs)  # first-call caches (the resize matrices) are not the forward
        _, peak = traced_peak(lambda: model(*inputs))
    # 13.5 and 23.5 MB while the forward kept the full-size fused map through the
    # stages, each sample chunk's im2col matrix while building the next, and the
    # attention bias and logits across softmax
    assert peak <= bound_mb * 1e6, peak / 1e6


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# A fresh process: freeing a large mmapped block (a checkpoint's read buffer,
# say) raises glibc's dynamic mmap threshold for good, so in a process that
# has done so the forward would not fault even without the policy.
FORWARD_FAULTS = """
import resource
import numpy as np
from spade.nn import Tensor, no_grad
from spade.pipeline import RunConfig, SpadeModel

cfg = RunConfig()
model = SpadeModel(cfg).eval()
rng = np.random.default_rng(1)
shape = (1, 1, *cfg.input_hw)
inputs = [Tensor(np.ones(shape)), Tensor(rng.uniform(0.5, 1.0, shape)), Tensor(rng.uniform(0.0, 1.0, shape))]
with no_grad():
    for _ in range(2):
        model(*inputs)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        model(*inputs)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(not has_mallopt(), reason="the malloc policy needs glibc's mallopt")
def test_eval_forward_reuses_its_pages():
    src = os.path.dirname(os.path.dirname(spade.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FORWARD_FAULTS], env=env, capture_output=True, text=True, check=True)
    faults = float(out.stdout)
    assert faults < 100, faults


# A dense 64x96 scale map at radius 30: (61*61 offsets) x 6,144 points, 693 MiB
# while JBU built its (offsets x points) arrays at once.
JBU_PEAK = """
import tracemalloc
import numpy as np
from spade.core import DepthRaster, ScaleMap, Space
from spade.densify import JBUParams, jbu_densify

rng = np.random.default_rng(0)
shape = (64, 96)
guide = DepthRaster(rng.uniform(0.2, 1.5, shape), np.ones(shape, bool), Space.INVERSE)
eps = ScaleMap(rng.uniform(0.5, 2.0, shape), np.ones(shape, bool))
tracemalloc.start()
jbu_densify(eps, guide, JBUParams(window_radius=30))
print(tracemalloc.get_traced_memory()[1])
"""


def test_jbu_walks_offset_blocks_under_the_budget():
    src = os.path.dirname(os.path.dirname(spade.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", JBU_PEAK], env=env, capture_output=True, text=True, check=True)
    peak = int(out.stdout)
    assert peak <= 64 << 20, peak / 2**20
