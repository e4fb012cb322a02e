"""The JSON config reader: round trips through `dataclasses.asdict` and the
typing rules that `from_json` applies."""

import json
from dataclasses import asdict

import pytest

from conftest import FAST_NET, fast_config
from spade.config import from_json, read_config
from spade.densify import JBUParams
from spade.errors import ConfigError
from spade.pipeline import RunConfig, SweepSpec
from spade.sensors import PatternSpec
from spade.synth import OracleSpec, SceneSpec, SynthSpec

CONFIGS = {
    "RunConfig": fast_config(),
    "CCDTConfig": FAST_NET,
    "JBUParams": JBUParams(window_radius=5, sigma_spatial=2.5),
    "SweepSpec": SweepSpec(point_counts=(30, 10), patterns=("dvl4", "laser2"), range_caps=(10.0, 0.5), n_frames=2),
    "PatternSpec": PatternSpec(kind="sonar_line", count=33, sonar_jitter=2, seed=4),
    "SynthSpec": SynthSpec(SceneSpec(layout="canyon", height=32, seed=5), OracleSpec(s_true=1.4, seed=6)),
    "SynthSpec-no-oracle": SynthSpec(SceneSpec(width=48)),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_round_trip(config):
    assert from_json(type(config), json.loads(json.dumps(asdict(config)))) == config


def test_integer_accepted_for_float_and_null_for_optional():
    cfg = from_json(RunConfig, {"lr": 1, "betas": [0, 0]})
    assert (cfg.lr, cfg.betas) == (1.0, (0.0, 0.0)) and type(cfg.lr) is float and type(cfg.betas[1]) is float
    assert from_json(PatternSpec, {"sonar_row": None}).sonar_row is None
    assert from_json(SynthSpec, {"oracle": None}) == SynthSpec()


@pytest.mark.parametrize(
    "cls, payload, message",
    [
        (RunConfig, {"network": {"widths": [8, 12, 16, "20"]}}, "network.widths[3]: expected int"),
        (RunConfig, {"input_hw": [64, 96, 1]}, "input_hw: expected 2 values, got 3"),
        (RunConfig, {"epochs": 3.0}, "epochs: expected int, got 3.0"),
        (RunConfig, {"epochs": False}, "epochs: expected int, got false"),
        (RunConfig, {"lr": None}, "lr: expected float, got null"),
        (RunConfig, {"lr": 10**400}, "lr: integer too large for a float"),
        (RunConfig, {"jbu": [7]}, "jbu must be a JSON object, got list"),
        (SynthSpec, {"scene": {"layout": "canyon", "depth": 2}}, "unknown fields in scene: ['depth']"),
        (PatternSpec, "dvl4", "PatternSpec must be a JSON object"),
        (RunConfig, {"network": {"offset_range": float("nan")}}, "network.offset_range: expected a finite number"),
        (RunConfig, {"lr": float("inf")}, "lr: expected a finite number, got inf"),
        # out of range: each would otherwise crash in numpy or in the network build
        (RunConfig, {"seed": -1}, "seed must be >= 0, got -1"),
        (SynthSpec, {"scene": {"seed": -1}}, "seed must be >= 0, got -1"),
        (SynthSpec, {"oracle": {"seed": -2}}, "seed must be >= 0, got -2"),
        (PatternSpec, {"seed": -1}, "seed must be >= 0, got -1"),
        (RunConfig, {"pyramid_channels": [0, 8, 10, 12]}, "pyramid_channels [0, 8, 10, 12] must all be >= 1"),
        (RunConfig, {"pyramid_channels": [16, 32, 48, 0]}, "pyramid_channels [16, 32, 48, 0] must all be >= 1"),
        (RunConfig, {"network": {"mlp_ratio": 0}}, "mlp_ratio must be >= 1, got 0"),
        (RunConfig, {"network": {"embed_channels": 0}}, "embed_channels must be >= 1, got 0"),
        (RunConfig, {"network": {"fused_channels": -2}}, "fused_channels must be >= 1, got -2"),
        (RunConfig, {"network": {"decoder_width": 1}}, "decoder_width must be >= 2"),
        (RunConfig, {"network": {"strides": [4, 2, 2, 2]}}, "unknown fields in network: ['strides']"),
        (RunConfig, {"jbu": {"sigma_range": 1e-200}}, "kernel sigmas must be positive"),
        (RunConfig, {"jbu": {"sigma_spatial": 1e200}}, "kernel sigmas must be positive"),
        (RunConfig, {"network": {"grid_downsamples": [0, 2, 2, 1]}}, "grid_downsamples [0, 2, 2, 1] must all be >= 1"),
        (RunConfig, {"network": {"offset_range": -1}}, "offset_range must be > 0, got -1.0"),
        (
            RunConfig,
            {"network": {"grid_downsamples": [2, 2, 2, 2]}},
            "network.grid_downsamples[3]=2 does not divide the 2x3 feature map of stage 4 at input_hw 64x96",
        ),
        (
            RunConfig,
            {"input_hw": [32, 64], "network": {"grid_downsamples": [3, 2, 2, 1]}},
            "network.grid_downsamples[0]=3 does not divide the 8x16 feature map of stage 1 at input_hw 32x64",
        ),
        (RunConfig, {"bias_wavelength": 0}, "bias_wavelength must be >= 1 pixel, got 0.0"),
        (RunConfig, {"bias_amplitude": 0.9}, "bias_amplitude must be in [0, 0.5], got 0.9"),
        (RunConfig, {"noise_sigma": -1}, "noise_sigma must be >= 0, got -1.0"),
        (RunConfig, {"subsample_fraction": 1.5}, "subsample_fraction must be in (0, 1], got 1.5"),
        (RunConfig, {"subsample_fraction": 0}, "subsample_fraction must be in (0, 1], got 0.0"),
        (SynthSpec, {"scene": {"texture_scale": 0}}, "texture_scale must be >= 1 pixel, got 0.0"),
        (SynthSpec, {"oracle": {"bias_wavelength": 1e-300}}, "bias_wavelength must be >= 1 pixel, got 1e-300"),
        (PatternSpec, {"sonar_jitter": -4}, "sonar_jitter must be >= 0, got -4"),
        (RunConfig, {"pyramid_channels": [8, 10, 12]}, "pyramid_channels [8, 10, 12] must have exactly 4 entries"),
        (RunConfig, {"pyramid_channels": [6, 8, 10, 12, 14]}, "pyramid_channels [6, 8, 10, 12, 14] must have exactly 4"),
        (RunConfig, {"points_min": 0}, "points_min must be >= 1, got 0"),
        (RunConfig, {"points_min": -5, "points_max": -1}, "points_min must be >= 1, got -5"),
        (RunConfig, {"lr": -1.0}, "lr must be >= 0, got -1.0"),
        (RunConfig, {"lr_decayed": -1e-5}, "lr_decayed must be >= 0, got -1e-05"),
        (RunConfig, {"weight_decay": -1}, "weight_decay must be >= 0, got -1.0"),
        (RunConfig, {"betas": [0.9, 1.0]}, "betas must each be in [0, 1), got [0.9, 1.0]"),
        (RunConfig, {"betas": [1.5, 2.0]}, "betas must each be in [0, 1), got [1.5, 2.0]"),
        (RunConfig, {"betas": [-0.1, 0.999]}, "betas must each be in [0, 1), got [-0.1, 0.999]"),
        (RunConfig, {"eval_cap_m": 0}, "eval_cap_m must be > 0, got 0.0"),
        (RunConfig, {"eval_cap_m": -1.0}, "eval_cap_m must be > 0, got -1.0"),
        # one field and its value per message
        (RunConfig, {"batch_size": 0}, "batch_size must be >= 1, got 0"),
        (RunConfig, {"train_frames": 0}, "train_frames must be >= 1, got 0"),
        (RunConfig, {"val_frames": -3}, "val_frames must be >= 1, got -3"),
        (SweepSpec, {"point_counts": []}, "point_counts must be non-empty"),
        (SweepSpec, {"patterns": []}, "patterns must be non-empty"),
        (SweepSpec, {"range_caps": []}, "range_caps must be non-empty"),
        (SweepSpec, {"point_counts": [30, 0]}, "point_counts [30, 0] must all be >= 1"),
        (SweepSpec, {"n_frames": 0}, "n_frames must be >= 1, got 0"),
        (RunConfig, {"network": {"widths": [8, 16, 24]}}, "widths [8, 16, 24] must have exactly 4 entries, one per stage"),
        (RunConfig, {"network": {"conv_counts": [1, 1, 2]}}, "conv_counts [1, 1, 2] must have exactly 4 entries"),
        (RunConfig, {"network": {"trans_counts": [1, 1, 2, 2, 1]}}, "trans_counts [1, 1, 2, 2, 1] must have exactly 4"),
        (RunConfig, {"network": {"grid_downsamples": [2]}}, "grid_downsamples [2] must have exactly 4 entries"),
        (RunConfig, {"network": {"conv_counts": [1, 0, 2, 2]}}, "conv_counts [1, 0, 2, 2] must all be >= 1"),
        (RunConfig, {"network": {"trans_counts": [1, 1, -1, 2]}}, "trans_counts [1, 1, -1, 2] must all be >= 0"),
        (RunConfig, {"network": {"heads": 0}}, "heads must be >= 1, got 0"),
        (PatternSpec, {"count": 0}, "count must be >= 1, got 0"),
        (PatternSpec, {"grid_rows": 0}, "grid_rows must be >= 1, got 0"),
        (PatternSpec, {"grid_cols": -1}, "grid_cols must be >= 1, got -1"),
        (SynthSpec, {"scene": {"height": 7}}, "height must be >= 8, got 7"),
        (SynthSpec, {"scene": {"width": 4}}, "width must be >= 8, got 4"),
        (SweepSpec, {"point_counts": [10, 10]}, "point_counts [10, 10] repeats an entry"),
        (SweepSpec, {"patterns": ["feature_like", "dvl4", "dvl4"]}, "patterns ['feature_like', 'dvl4', 'dvl4'] repeats"),
        (SweepSpec, {"range_caps": [10, 2.0, 10.0]}, "range_caps [10.0, 2.0, 10.0] repeats an entry"),
    ],
)
def test_rejection_names_the_field(cls, payload, message):
    with pytest.raises(ConfigError) as err:
        from_json(cls, payload)
    assert message in str(err.value)


@pytest.mark.parametrize("data", [b"{", b'{"kind": "\xff"}', b"[" * 100_000], ids=["truncated", "not-utf8", "deep"])
def test_unreadable_file_names_the_path(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="spec.json"):
        read_config(PatternSpec, path)
