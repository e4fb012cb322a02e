import json
import struct
from pathlib import Path

import numpy as np
import pytest

from spade.densify import JBUParams
from spade.nn import CCDTConfig
from spade.pipeline import RunConfig

# Small but fully wired configuration used by the pipeline-level tests.
FAST_NET = CCDTConfig(
    widths=(8, 12, 16, 20),
    conv_counts=(1, 1, 1, 1),
    trans_counts=(1, 1, 1, 1),
    grid_downsamples=(2, 2, 1, 1),
    heads=2,
    decoder_width=12,
    embed_channels=6,
    fused_channels=12,
)


def fast_config(**overrides) -> RunConfig:
    base = dict(
        network=FAST_NET,
        jbu=JBUParams(window_radius=5, sigma_spatial=2.5, sigma_range=0.1),
        input_hw=(32, 64),
        pyramid_channels=(6, 8, 10, 12),
        epochs=2,
        batch_size=4,
        train_frames=12,
        val_frames=3,
        points_min=30,
        points_max=120,
        seed=7,
    )
    base.update(overrides)
    if "decay_after_epoch" not in overrides:
        base["decay_after_epoch"] = max(1, (6 * base["epochs"]) // 10)
    return RunConfig(**base)


def manifest_arrays(path):
    """A `load_checkpoint` targets callback: new arrays of the shapes that the
    SPW1 file's own manifest declares."""

    def targets(meta):
        raw = Path(path).read_bytes()
        (n,) = struct.unpack_from("<I", raw, 4)
        return {t["name"]: np.empty(t["shape"]) for t in json.loads(raw[8 : 8 + n])["tensors"]}

    return targets


@pytest.fixture(scope="session")
def trained_fast_model():
    """One small trained model shared by the pipeline tests."""
    from spade.pipeline import train

    cfg = fast_config(epochs=15, train_frames=48, lr=1e-3, lr_decayed=2.5e-4, decay_after_epoch=9)
    model, log = train(cfg, quiet=True)
    return model, log, cfg
