
import json
import shlex
import struct
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import fast_config
from spade import cli, pipeline
from spade.cli import build_parser, main
from spade.core import DepthRaster, read_points, read_raster, write_points, write_raster, Space
from spade.core import SparsePointSet
from spade.nn import save_checkpoint
from spade.pipeline import SpadeModel, build_corpus


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    spec = {
        "scene": {
            "layout": "seafloor_bumps",
            "height": 32,
            "width": 64,
            "depth_min": 1.0,
            "depth_max": 3.5,
            "seed": 5,
        },
        "oracle": {"s_true": 1.4, "t_true": 0.15, "bias_amplitude": 0.2, "seed": 6},
    }
    (out / "spec.json").write_text(json.dumps(spec))
    assert run_cli("synth", "--spec", out / "spec.json", "--out-dir", out) == 0
    return out


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cfg")
    cfg = fast_config(epochs=1, train_frames=6, val_frames=2)
    path = out / "config.json"
    path.write_text(json.dumps(asdict(cfg)))
    return path


class TestSynthSimulate:
    def test_synth_outputs(self, scene_dir):
        gt = read_raster(scene_dir / "gt.fdr1")
        guide = read_raster(scene_dir / "guide.fdr1")
        rel = read_raster(scene_dir / "relative.fdr1")
        assert gt.shape == guide.shape == rel.shape == (32, 64)
        manifest = json.loads((scene_dir / "manifest.json").read_text())
        assert manifest["oracle"]["s_true"] == 1.4

    def test_simulate_writes_points(self, scene_dir, tmp_path):
        pat = tmp_path / "p.json"
        pat.write_text(json.dumps({"kind": "uniform_grid", "grid_rows": 4, "grid_cols": 6}))
        out = tmp_path / "pts.csv"
        assert run_cli("simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", pat, "--out", out) == 0
        assert len(read_points(out)) == 24

    def test_bad_pattern_kind_is_config_error(self, scene_dir, tmp_path):
        pat = tmp_path / "bad.json"
        pat.write_text(json.dumps({"kind": "lidar"}))
        code = run_cli("simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", pat, "--out", tmp_path / "x.csv")
        assert code == 2


CONFIG_FAULTS = {
    "train-unknown-network-field": ("train", {"network": {"bogus": 1}}),
    "train-string-epochs": ("train", {"epochs": "3"}),
    "train-array": ("train", [1, 2]),
    "train-string-jbu-radius": ("train", {"jbu": {"window_radius": "7"}}),
    "train-short-input-hw": ("train", {"input_hw": [64]}),
    "train-not-utf8": ("train", b'{"epochs": 3, "seed": "\xff"}'),
    "train-deep-nesting": ("train", b"[" * 100_000),
    "train-points-min-above-max": ("train", {"points_min": 100, "points_max": 50}),
    "train-zero-input-hw": ("train", {"input_hw": [0, 0]}),
    "train-zero-val-frames": ("train", {"val_frames": 0}),
    "train-zero-heads": ("train", {"network": {"heads": 0}}),
    "train-zero-stride": ("train", {"network": {"strides": [4, 2, 0, 2]}}),
    "train-boolean-lr": ("train", {"lr": True}),
    "train-negative-seed": ("train", {"seed": -1}),
    "train-zero-pyramid-channel": ("train", {"pyramid_channels": [0, 8, 10, 12]}),
    "train-zero-mlp-ratio": ("train", {"network": {"mlp_ratio": 0}}),
    "train-decoder-width-one": ("train", {"network": {"decoder_width": 1}}),
    "train-nan-offset-range": ("train", b'{"network": {"offset_range": NaN}}'),
    "synth-negative-scene-seed": ("synth", {"scene": {"seed": -1}}),
    "synth-negative-oracle-seed": ("synth", {"oracle": {"seed": -1}}),
    "simulate-negative-seed": ("simulate", {"seed": -1}),
    "synth-unknown-scene-field": ("synth", {"scene": {"bogus": 1}}),
    "synth-unknown-oracle-field": ("synth", {"oracle": {"bogus": 1}}),
    "synth-flat-form": ("synth", {"height": 32, "width": 64}),
    "synth-misspelt-oracle": ("synth", {"scene": {}, "oracel": {}}),
    "synth-null-scene": ("synth", {"scene": None}),
    "simulate-array": ("simulate", []),
    "simulate-string-count": ("simulate", {"count": "5"}),
    "sweep-string-n-frames": ("sweep", {"n_frames": "2"}),
    "sweep-string-patterns": ("sweep", {"patterns": "feature_like"}),
    "sweep-unknown-pattern": ("sweep", {"patterns": ["bogus"]}),
    "sweep-zero-count": ("sweep", {"point_counts": [0]}),
    "sweep-zero-frames": ("sweep", {"n_frames": 0}),
    "sweep-zero-cap": ("sweep", {"range_caps": [0.0]}),
    "sweep-repeated-count": ("sweep", {"point_counts": [10, 10]}),
    "sweep-repeated-pattern": ("sweep", {"patterns": ["feature_like", "dvl4", "dvl4"]}),
    "sweep-repeated-cap": ("sweep", {"range_caps": [10.0, 10]}),
    "train-zero-conv-count": ("train", {"network": {"conv_counts": [1, 0, 1, 1]}}),
    "train-zero-grid-downsample": ("train", {"network": {"grid_downsamples": [0, 2, 2, 1]}}),
    "train-indivisible-grid-downsample": ("train", {"network": {"grid_downsamples": [2, 2, 2, 2]}}),
    "train-negative-offset-range": ("train", {"network": {"offset_range": -1}}),
    "train-zero-bias-wavelength": ("train", {"bias_wavelength": 0}),
    "train-subsample-fraction-above-one": ("train", {"subsample_fraction": 1.5}),
    "train-three-pyramid-channels": ("train", {"pyramid_channels": [8, 10, 12]}),
    "train-beta-of-one": ("train", {"betas": [0.9, 1.0]}),
    "synth-zero-texture-scale": ("synth", {"scene": {"texture_scale": 0}}),
    "synth-zero-bias-wavelength": ("synth", {"oracle": {"bias_wavelength": 0}}),
    "simulate-negative-sonar-jitter": ("simulate", {"kind": "sonar_line", "count": 5, "sonar_jitter": -4}),
    # read against the scene's 32x64 ground truth
    "simulate-sonar-row-past-raster": ("simulate-scene", {"kind": "sonar_line", "count": 5, "sonar_row": 1000}),
    "simulate-sonar-row-negative": ("simulate-scene", {"kind": "sonar_line", "count": 5, "sonar_row": -7}),
    "simulate-laser-row-past-raster": ("simulate-laser", {"kind": "laser2", "laser_row": 1000}),
    "simulate-guide-of-another-shape": ("simulate-guide", {"kind": "feature_like", "count": 20}),
}


def no_corpus(*args, **kwargs):
    raise AssertionError("the corpus was built")


@pytest.mark.parametrize("command, payload", CONFIG_FAULTS.values(), ids=CONFIG_FAULTS.keys())
def test_config_fault_is_one_line_config_error(command, payload, scene_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "build_corpus", no_corpus)  # train refuses a fault before it builds anything
    path = tmp_path / "config.json"
    path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    # the config is read before any input file, so the other paths need not exist,
    # except for the faults that only a raster shows; "out" is the output directory,
    # or the CSV that simulate would write
    out = tmp_path / "out"
    small_guide = tmp_path / "guide.fdr1"
    write_raster(DepthRaster(np.ones((16, 32)), np.ones((16, 32), bool), Space.AFFINE), small_guide)
    scene = ["simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", path, "--out", out]
    argv = {
        "train": ["train", "--config", path, "--out-dir", out],
        "synth": ["synth", "--spec", path, "--out-dir", out],
        "simulate": ["simulate", "--gt", tmp_path / "gt.fdr1", "--pattern", path, "--out", out],
        "simulate-scene": scene,
        "simulate-laser": scene + ["--laser", "60,32,0.1"],
        "simulate-guide": scene + ["--guide", small_guide],
        "sweep": ["sweep", "--checkpoint", tmp_path / "c.spw1", "--sweep", path, "--out-dir", out],
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_train_refuses_a_grid_fault_before_building_the_corpus(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "build_corpus", no_corpus)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"network": {"grid_downsamples": [2, 2, 2, 2]}}))
    assert run_cli("train", "--config", path, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}: network.grid_downsamples[3]=2 does not divide the 2x3 feature map of stage 4 "
        "at input_hw 64x96\n"
    ), err
    assert not (tmp_path / "out").exists()


def readme_walkthrough():
    """The argv of each `spade ...` line in the README's CLI walkthrough, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("spade ")]


WALKTHROUGH = readme_walkthrough()


def test_readme_walkthrough_has_every_command():
    commands = {"synth", "simulate", "align", "densify", "train", "run", "eval", "sweep", "gradcheck", "report"}
    assert {argv[0] for argv in WALKTHROUGH} == commands


@pytest.mark.parametrize("argv", WALKTHROUGH, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(WALKTHROUGH)])
def test_readme_walkthrough_line_parses(argv):
    assert build_parser().parse_args(argv).command == argv[0]


@pytest.mark.parametrize("command", ["train", "synth", "simulate", "gradcheck"])
def test_negative_seed_flag_is_one_line_config_error(command, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--out-dir", out],
        "synth": ["synth", "--spec", spec, "--out-dir", out],
        "simulate": ["simulate", "--gt", tmp_path / "gt.fdr1", "--pattern", spec, "--out", out],
        "gradcheck": ["gradcheck"],
    }[command]
    assert run_cli(*argv, "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert err == "error: --seed must be >= 0, got -1\n", err
    assert not (tmp_path / "out").exists()


def test_checkpoint_with_malformed_config_is_format_error(tmp_path, capsys):
    save_checkpoint(tmp_path / "c.spw1", {}, meta={"config": []})
    code = run_cli(
        "run", "--checkpoint", tmp_path / "c.spw1", "--relative", tmp_path / "r.fdr1",
        "--guide", tmp_path / "g.fdr1", "--points", tmp_path / "p.csv",
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed config" in err and err.count("\n") == 1, err


def frame_args(scene_dir, tmp_path):
    """--relative, --guide and --points of a frame that `spade run` completes."""
    write_points(SparsePointSet([(3, 4, 2.0), (10, 12, 1.5), (40, 20, 2.5)]), tmp_path / "p.csv")
    return ["--relative", scene_dir / "relative.fdr1", "--guide", scene_dir / "guide.fdr1", "--points", tmp_path / "p.csv"]


def old_layout_state(cfg):
    """Tensors named as before the model was one module: "pyramid.param.conv1.weight" and so on."""
    state = {}
    for key, value in SpadeModel(cfg).named_arrays():
        kind, root, rest = key.split(".", 2)
        state[f"{root}.{kind}.{rest}"] = value
    return state


def test_checkpoint_in_the_old_layout_is_format_error(scene_dir, tmp_path, capsys):
    # the old layout's config still held network.strides
    cfg = fast_config()
    config = asdict(cfg)
    config["network"]["strides"] = [4, 2, 2, 2]
    save_checkpoint(tmp_path / "old.spw1", old_layout_state(cfg), meta={"config": config, "seed": cfg.seed})
    code = run_cli(
        "run", "--checkpoint", tmp_path / "old.spw1", *frame_args(scene_dir, tmp_path), "--out-dir", tmp_path / "out"
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "['strides']" in err and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def _misshaped(state):
    key = next(iter(state))
    return {**state, key: state[key].reshape(-1)[:-1]}


def _with_nan(state):
    key = "param.refine.stages.0.trans_blocks.0.attn.offset_proj.bias"
    return {**state, key: np.where(np.arange(state[key].size) == 0, np.nan, state[key])}


# (tensors, meta) of checkpoints whose embedded config is valid but whose
# tensors do not fit it or hold a NaN, or that have no embedded config
CHECKPOINT_FAULTS = {
    "old-layout-tensors": lambda cfg: (old_layout_state(cfg), {"config": asdict(cfg), "seed": cfg.seed}),
    "missing-tensor": lambda cfg: (dict(list(SpadeModel(cfg).named_arrays())[1:]), {"config": asdict(cfg)}),
    "misshaped-tensor": lambda cfg: (_misshaped(dict(SpadeModel(cfg).named_arrays())), {"config": asdict(cfg)}),
    "no-embedded-config": lambda cfg: (dict(SpadeModel(cfg).named_arrays()), {"seed": cfg.seed}),
    "nan-tensor": lambda cfg: (_with_nan(dict(SpadeModel(cfg).named_arrays())), {"config": asdict(cfg)}),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("fault", CHECKPOINT_FAULTS.values(), ids=CHECKPOINT_FAULTS.keys())
def test_checkpoint_fault_is_one_line_format_error_naming_the_file(fault, command, scene_dir, tmp_path, capsys):
    state, meta = fault(fast_config())
    path = tmp_path / "bad.spw1"
    save_checkpoint(path, state, meta=meta)
    inputs = frame_args(scene_dir, tmp_path) if command == "run" else []
    assert run_cli(command, "--checkpoint", path, *inputs, "--out-dir", tmp_path / "out") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {path} ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_checkpoint_declaring_a_huge_tensor_is_refused_before_allocating(command, scene_dir, tmp_path, capsys):
    mbytes = json.dumps({"tensors": [{"name": "x", "shape": [10**12]}], "meta": {}}).encode()
    path = tmp_path / "huge.spw1"
    path.write_bytes(b"SPW1" + struct.pack("<I", len(mbytes)) + mbytes + bytes(8))
    inputs = frame_args(scene_dir, tmp_path) if command == "run" else []
    assert run_cli(command, "--checkpoint", path, *inputs, "--out-dir", tmp_path / "out") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {path}: buffer for x truncated") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--config", "--seed"])
def test_run_checkpoint_refuses_config_and_seed(flag, scene_dir, cfg_file, tmp_path, capsys):
    # a checkpoint carries its config and seed; at exit 0 the flag would be ignored
    SpadeModel(fast_config()).save(tmp_path / "c.spw1")
    value = cfg_file if flag == "--config" else 5
    code = run_cli(
        "run", "--checkpoint", tmp_path / "c.spw1", *frame_args(scene_dir, tmp_path),
        "--out-dir", tmp_path / "out", flag, value,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_run_frame_size_mismatch_is_refused_before_the_model_is_built(scene_dir, tmp_path, monkeypatch, capsys):
    # the scene is 32x64; a model built for the configured input is never needed
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"input_hw": [64, 96]}))

    def no_model(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "SpadeModel", no_model)
    code = run_cli("run", "--config", cfg, *frame_args(scene_dir, tmp_path), "--out-dir", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: frame (32, 64) does not match configured input (64, 96)\n", err
    assert not (tmp_path / "out").exists()


def test_run_guide_size_mismatch_is_refused_before_anything_is_written(scene_dir, tmp_path, monkeypatch, capsys):
    guide = read_raster(scene_dir / "guide.fdr1")
    write_raster(DepthRaster(guide.values[:10, :10], guide.valid[:10, :10], guide.space), tmp_path / "g10.fdr1")

    def no_model(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "SpadeModel", no_model)
    argv = frame_args(scene_dir, tmp_path)
    argv[argv.index("--guide") + 1] = tmp_path / "g10.fdr1"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"input_hw": [32, 64]}))
    code = run_cli("run", "--config", cfg, *argv, "--out-dir", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: guide (10, 10) does not match frame (32, 64)\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--relative", "--guide", "--gt", "--points"])
def test_run_input_fault_is_one_line_format_error_naming_the_file(flag, scene_dir, tmp_path, capsys):
    argv = [*frame_args(scene_dir, tmp_path), "--gt", scene_dir / "gt.fdr1"]
    bad = tmp_path / ("bad.csv" if flag == "--points" else "bad.fdr1")
    bad.write_bytes(b"u,v\n" if flag == "--points" else Path(argv[argv.index(flag) + 1]).read_bytes()[:30])
    argv[argv.index(flag) + 1] = bad
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"input_hw": [32, 64]}))
    assert run_cli("run", "--config", cfg, *argv, "--out-dir", tmp_path / "out") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_run_guide_with_invalid_pixels_is_refused_before_the_model_is_built(
    fill, scene_dir, tmp_path, monkeypatch, capsys
):
    # the pyramid reads every guide pixel, so the values under the mask would steer the output
    guide = read_raster(scene_dir / "guide.fdr1")
    valid = guide.valid.copy()
    valid[:16] = False
    write_raster(DepthRaster(np.where(valid, guide.values, fill), valid, guide.space), tmp_path / "holes.fdr1")

    def no_model(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "SpadeModel", no_model)
    argv = frame_args(scene_dir, tmp_path)
    argv[argv.index("--guide") + 1] = tmp_path / "holes.fdr1"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"input_hw": [32, 64]}))
    assert run_cli("run", "--config", cfg, *argv, "--out-dir", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err == "error: guide has 1024 invalid pixels of 2048; the network reads every guide pixel\n", err
    assert not (tmp_path / "out").exists()


def aligned_frame(scene_dir, tmp_path):
    """Grid points on the scene, the aligned inverse-depth map and its sparse
    scale map, built through the library (no command writes it), under tmp_path."""
    pat = tmp_path / "grid.json"
    pat.write_text(json.dumps({"kind": "uniform_grid", "grid_rows": 3, "grid_cols": 5}))
    assert run_cli("simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", pat, "--out", tmp_path / "p.csv") == 0
    argv = ["align", "--relative", scene_dir / "relative.fdr1", "--points", tmp_path / "p.csv"]
    assert run_cli(*argv, "--out", tmp_path / "aligned.fdr1") == 0
    from spade.densify import sparse_scale_map

    eps = sparse_scale_map(read_points(tmp_path / "p.csv"), read_raster(tmp_path / "aligned.fdr1"))
    write_raster(DepthRaster(eps.values, eps.known, Space.AFFINE), tmp_path / "eps.fdr1")


@pytest.mark.parametrize(
    "command,guide,message",
    [
        ("densify", "gt", "aligned map must be inverse depth, got metric_depth_m"),
        ("run", "gt", "guide must be a unitless image (affine_invariant_inverse), got metric_depth_m"),
        ("run", "aligned", "guide must be a unitless image (affine_invariant_inverse), got inverse_depth_per_m"),
    ],
)
def test_guide_in_the_wrong_space_is_one_line_numeric_error(
    command, guide, message, scene_dir, tmp_path, monkeypatch, capsys
):
    aligned_frame(scene_dir, tmp_path)
    guide = {"gt": scene_dir / "gt.fdr1", "aligned": tmp_path / "aligned.fdr1"}[guide]
    capsys.readouterr()
    if command == "densify":
        code = run_cli("densify", "--scale-map", tmp_path / "eps.fdr1", "--guide", guide, "--out", tmp_path / "out")
    else:

        def no_model(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(cli, "SpadeModel", no_model)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_hw": [32, 64]}))
        frame = ["--relative", scene_dir / "relative.fdr1", "--guide", guide, "--points", tmp_path / "p.csv"]
        code = run_cli("run", "--config", cfg, *frame, "--out-dir", tmp_path / "out")
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 3.22 GiB for an array", ""])
def test_out_of_memory_is_one_line_exit_2(message, monkeypatch, capsys):
    def out_of_memory(**kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_suite", out_of_memory)
    assert run_cli("gradcheck") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert message in err


# a --cap that is not a finite number above 0, or that no metric would read
CAP_FAULTS = {
    **{f"eval {cap}": ("eval", cap) for cap in ["-1", "0", "nan", "inf"]},
    **{f"run --gt {cap}": ("run", cap) for cap in ["-1", "0", "nan", "inf"]},
    "run without --gt": ("run-no-gt", "5"),
}


@pytest.mark.parametrize("command, cap", CAP_FAULTS.values(), ids=CAP_FAULTS.keys())
def test_bad_cap_is_one_line_config_error(command, cap, scene_dir, tmp_path, capsys):
    gt = scene_dir / "gt.fdr1"
    if command == "eval":
        argv = ["eval", "--pred", gt, "--gt", gt, "--out", tmp_path / "out"]
    else:
        SpadeModel(fast_config()).save(tmp_path / "c.spw1")
        argv = ["run", "--checkpoint", tmp_path / "c.spw1", *frame_args(scene_dir, tmp_path), "--out-dir", tmp_path / "out"]
        argv += ["--gt", gt] if command == "run" else []
    assert run_cli(*argv, "--cap", cap) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --cap ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


# the laser rig of the 64-pixel-wide scene: fx = 64, cx at its center column, B = 0.1 m
LASER = "64,31.5,0.1"


def simulate_laser(scene_dir, out, laser=LASER):
    pattern = scene_dir / "laser.json"
    pattern.write_text(json.dumps({"kind": "laser2"}))
    return run_cli("simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", pattern, "--laser", laser, "--out", out)


@pytest.fixture(scope="module")
def laser_points(scene_dir):
    """A laser2 pair on the scene, sampled with the rig LASER."""
    out = scene_dir / "laser.csv"
    assert simulate_laser(scene_dir, out) == 0
    assert len(read_points(out)) == 2
    return out


def test_simulate_align_and_run_share_one_laser_string(scene_dir, tmp_path):
    assert simulate_laser(scene_dir, tmp_path / "pair.csv") == 0
    frame = ["--relative", scene_dir / "relative.fdr1", "--points", tmp_path / "pair.csv", "--laser", LASER]
    assert run_cli("align", *frame, "--out", tmp_path / "a.fdr1", "--fit-report", tmp_path / "align.json") == 0
    SpadeModel(fast_config()).save(tmp_path / "c.spw1")
    argv = ["run", "--checkpoint", tmp_path / "c.spw1", "--guide", scene_dir / "guide.fdr1", *frame]
    assert run_cli(*argv, "--out-dir", tmp_path / "out") == 0
    align_fit = json.loads((tmp_path / "align.json").read_text())
    run_fit = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert align_fit["mode"] == run_fit["mode"] == "laser_baseline"
    assert align_fit == run_fit


def test_align_laser_pair_takes_laser_path(scene_dir, laser_points, tmp_path):
    code = run_cli(
        "align", "--relative", scene_dir / "relative.fdr1", "--points", laser_points,
        "--laser", LASER, "--out", tmp_path / "a.fdr1", "--fit-report", tmp_path / "fit.json",
    )
    assert code == 0
    assert json.loads((tmp_path / "fit.json").read_text())["mode"] == "laser_baseline"


def test_run_laser_pair_takes_laser_path(scene_dir, laser_points, tmp_path):
    SpadeModel(fast_config()).save(tmp_path / "c.spw1")
    code = run_cli(
        "run", "--checkpoint", tmp_path / "c.spw1", "--relative", scene_dir / "relative.fdr1",
        "--guide", scene_dir / "guide.fdr1", "--points", laser_points, "--laser", LASER,
        "--out-dir", tmp_path / "out",
    )
    assert code == 0
    assert json.loads((tmp_path / "out" / "fit.json").read_text())["mode"] == "laser_baseline"


def test_run_laser_needs_a_pair(scene_dir, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "uniform_grid", "grid_rows": 8, "grid_cols": 12}))
    assert run_cli("simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", grid, "--out", tmp_path / "p.csv") == 0
    SpadeModel(fast_config()).save(tmp_path / "c.spw1")
    code = run_cli(
        "run", "--checkpoint", tmp_path / "c.spw1", "--relative", scene_dir / "relative.fdr1",
        "--guide", scene_dir / "guide.fdr1", "--points", tmp_path / "p.csv", "--laser", LASER,
        "--out-dir", tmp_path / "out",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: laser alignment expects exactly 2 points, file has 96\n", err
    assert not (tmp_path / "out").exists()


def run_laser_command(command, laser, scene_dir, laser_points, tmp_path, relative="relative.fdr1"):
    """Exit code of `command` with `--laser laser` on the scene's laser pair and
    its raster `relative`; its output is tmp_path/out."""
    out = tmp_path / "out"
    if command == "simulate":
        return simulate_laser(scene_dir, out, laser)
    frame = ["--relative", scene_dir / relative, "--points", laser_points, "--laser", laser]
    if command == "align":
        return run_cli("align", *frame, "--out", out)
    SpadeModel(fast_config()).save(tmp_path / "c.spw1")
    argv = ["run", "--checkpoint", tmp_path / "c.spw1", "--guide", scene_dir / "guide.fdr1", *frame]
    return run_cli(*argv, "--out-dir", out)


@pytest.mark.parametrize("baseline", ["0", "-0.1"])
@pytest.mark.parametrize("command", ["run", "align", "simulate"])
def test_nonpositive_laser_baseline_is_one_line_config_error(
    command, baseline, scene_dir, laser_points, tmp_path, capsys
):
    assert run_laser_command(command, f"64,31.5,{baseline}", scene_dir, laser_points, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: laser baseline B must be > 0, got {float(baseline)}\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "align", "simulate"])
def test_zero_laser_focal_length_is_one_line_config_error(command, scene_dir, laser_points, tmp_path, capsys):
    assert run_laser_command(command, "0,31.5,0.1", scene_dir, laser_points, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == "error: laser focal length fx must be > 0, got 0.0\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cx", ["-0.5", "64", "200"])
@pytest.mark.parametrize("command", ["run", "align", "simulate"])
def test_laser_principal_column_off_the_raster_is_one_line_config_error(
    command, cx, scene_dir, laser_points, tmp_path, capsys
):
    assert run_laser_command(command, f"64,{cx},0.1", scene_dir, laser_points, tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"error: laser principal column cx={float(cx):g} lies outside the raster's width 64\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "align"])
def test_laser_fit_of_a_metric_raster_is_one_line_numeric_error(command, scene_dir, laser_points, tmp_path, capsys):
    assert run_laser_command(command, LASER, scene_dir, laser_points, tmp_path, relative="gt.fdr1") == 3
    err = capsys.readouterr().err
    assert err == "error: align_with_laser expects an affine-invariant raster, got metric_depth_m\n", err
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_laser_for_a_pattern_that_does_not_read_it(scene_dir, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "uniform_grid", "grid_rows": 8, "grid_cols": 12}))
    argv = ["simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", grid, "--laser", LASER, "--out", tmp_path / "p.csv"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == "error: --laser is read only by the laser2 pattern, not by uniform_grid\n", err
    assert not (tmp_path / "p.csv").exists()


# each command with one flag it does not read, after all the flags it needs
UNREAD_FLAGS = {
    "align --config": ["align", "--relative", "r.fdr1", "--points", "p.csv", "--out", "a.fdr1", "--config", "c.json"],
    "densify --seed": ["densify", "--scale-map", "e.fdr1", "--guide", "g.fdr1", "--out", "d.fdr1", "--seed", "5"],
    "eval --out-dir": ["eval", "--pred", "p.fdr1", "--gt", "g.fdr1", "--out", "r.json", "--out-dir", "o"],
    "synth --config": ["synth", "--spec", "s.json", "--config", "c.json"],
    "simulate --intrinsics": ["simulate", "--gt", "g.fdr1", "--pattern", "p.json", "--out", "p.csv", "--intrinsics", "1,1,0,0"],
    "simulate --out-dir": ["simulate", "--gt", "g.fdr1", "--pattern", "p.json", "--out", "p.csv", "--out-dir", "o"],
    "gradcheck --config": ["gradcheck", "--config", "c.json"],
    "report --seed": ["report", "--pred", "p", "--gt", "g", "--seed", "5"],
    "sweep --config": ["sweep", "--checkpoint", "c.spw1", "--config", "c.json"],
    "sweep --seed": ["sweep", "--checkpoint", "c.spw1", "--seed", "5"],
}


@pytest.mark.parametrize("argv", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS.keys())
def test_flag_the_command_does_not_read_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        run_cli(*argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["5e-324", "1e-300"])
def test_align_overflow_is_one_line_numeric_error(scene_dir, tmp_path, capsys, depth):
    (tmp_path / "p.csv").write_text(f"u,v,depth_m\n3,4,{depth}\n10,12,2.0\n40,20,1.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "align", "--relative", scene_dir / "relative.fdr1", "--points", tmp_path / "p.csv",
            "--out", tmp_path / "aligned.fdr1", "--fit-report", tmp_path / "fit.json",
        )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflowed" in err and err.count("\n") == 1, err
    assert not (tmp_path / "aligned.fdr1").exists() and not (tmp_path / "fit.json").exists()


class TestAlignDensify:
    def test_align_recovers_oracle(self, scene_dir, tmp_path):
        pat = tmp_path / "p.json"
        pat.write_text(json.dumps({"kind": "feature_like", "count": 60, "seed": 3}))
        pts = tmp_path / "pts.csv"
        run_cli("simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", pat, "--out", pts)
        fit_path = tmp_path / "fit.json"
        code = run_cli(
            "align",
            "--relative", scene_dir / "relative.fdr1",
            "--points", pts,
            "--out", tmp_path / "aligned.fdr1",
            "--fit-report", fit_path,
        )
        assert code == 0
        fit = json.loads(fit_path.read_text())
        assert fit["mode"] == "scale_shift"
        aligned = read_raster(tmp_path / "aligned.fdr1")
        assert aligned.space is Space.INVERSE

    def test_align_insufficient_points_is_numeric_error(self, scene_dir, tmp_path):
        empty_like = tmp_path / "none.csv"
        bad = read_raster(scene_dir / "relative.fdr1")
        masked = type(bad)(bad.values, np.zeros((32, 64), bool), bad.space)
        write_raster(masked, tmp_path / "masked.fdr1")
        write_points(SparsePointSet([(1, 1, 2.0)]), empty_like)
        code = run_cli(
            "align", "--relative", tmp_path / "masked.fdr1", "--points", empty_like,
            "--out", tmp_path / "a.fdr1",
        )
        assert code == 3

    def test_fit_report_says_why_the_fit_fell_back(self, scene_dir, tmp_path):
        write_points(SparsePointSet([(3, 4, 2.0)]), tmp_path / "one.csv")
        code = run_cli(
            "align", "--relative", scene_dir / "relative.fdr1", "--points", tmp_path / "one.csv",
            "--out", tmp_path / "a.fdr1", "--fit-report", tmp_path / "fit.json",
        )
        assert code == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["mode"] == "scale_only"
        assert fit["fallback"] == "scale/shift fit needs >= 2 points, got 1"

    def test_missing_file_is_io_error(self, tmp_path):
        code = run_cli(
            "align", "--relative", tmp_path / "nope.fdr1", "--points", tmp_path / "x.csv",
            "--out", tmp_path / "a.fdr1",
        )
        assert code == 4

    def test_densify_pipeline(self, scene_dir, tmp_path):
        aligned_frame(scene_dir, tmp_path)
        code = run_cli(
            "densify", "--scale-map", tmp_path / "eps.fdr1", "--guide", tmp_path / "aligned.fdr1",
            "--radius", 5, "--sigma-s", 2.5, "--sigma-r", 0.1, "--out", tmp_path / "dense.fdr1",
        )
        assert code == 0
        dense = read_raster(tmp_path / "dense.fdr1")
        assert np.all(dense.values > 0)

    def test_densify_refuses_when_no_known_factor_lies_on_a_valid_guide_pixel(self, scene_dir, tmp_path, capsys):
        aligned_frame(scene_dir, tmp_path)
        eps, aligned = read_raster(tmp_path / "eps.fdr1"), read_raster(tmp_path / "aligned.fdr1")
        guide = DepthRaster(aligned.values, aligned.valid & ~eps.valid, Space.INVERSE)
        write_raster(guide, tmp_path / "holes.fdr1")
        capsys.readouterr()
        code = run_cli("densify", "--scale-map", tmp_path / "eps.fdr1", "--guide", tmp_path / "holes.fdr1",
                       "--out", tmp_path / "dense.fdr1")
        assert code == 3
        known, valid = int(eps.valid.sum()), int(guide.valid.sum())
        want = f"error: no known factor lies on a valid guide pixel ({known} known factors, {valid} valid guide pixels)\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "dense.fdr1").exists()


@pytest.fixture(scope="module")
def trained_dir(cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("train_out")
    assert run_cli("train", "--config", cfg_file, "--out-dir", out) == 0
    return out


class TestTrainRunEvalSweep:
    def test_train_outputs(self, trained_dir):
        log = json.loads((trained_dir / "training_log.json").read_text())
        assert len(log["history"]) == 1
        assert "config_hash" in log
        assert (trained_dir / "checkpoint.spw1").exists()

    def test_run_and_eval(self, trained_dir, cfg_file, tmp_path):
        cfg = fast_config(epochs=1, train_frames=6, val_frames=2)
        frame = build_corpus(cfg, "val", n_frames=1)[0]
        write_raster(frame.z_rel, tmp_path / "rel.fdr1")
        write_raster(frame.guide, tmp_path / "guide.fdr1")
        write_raster(frame.gt, tmp_path / "gt.fdr1")
        write_points(frame.points, tmp_path / "pts.csv")
        code = run_cli(
            "run", "--checkpoint", trained_dir / "checkpoint.spw1",
            "--relative", tmp_path / "rel.fdr1", "--guide", tmp_path / "guide.fdr1",
            "--points", tmp_path / "pts.csv", "--gt", tmp_path / "gt.fdr1",
            "--out-dir", tmp_path / "run",
        )
        assert code == 0
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["mae"] >= 0
        code = run_cli(
            "eval", "--pred", tmp_path / "run" / "depth.fdr1", "--gt", tmp_path / "gt.fdr1",
            "--cap", 10.0, "--out", tmp_path / "report.json",
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["aggregate"]["mae"] == pytest.approx(metrics["mae"])

    def test_sweep_and_report(self, trained_dir, tmp_path):
        sweep_spec = tmp_path / "sweep.json"
        sweep_spec.write_text(
            json.dumps({"point_counts": [30, 10], "patterns": ["feature_like"], "range_caps": [10.0], "n_frames": 2})
        )
        out = tmp_path / "sweep_out"
        code = run_cli(
            "sweep", "--checkpoint", trained_dir / "checkpoint.spw1", "--sweep", sweep_spec,
            "--out-dir", out,
        )
        assert code == 0
        report = json.loads((out / "sweep.json").read_text())
        assert len(report["cells"]) == 2
        csv_text = (out / "sweep.csv").read_text()
        assert csv_text.splitlines()[0].startswith("pattern,count,cap_m")
        assert (out / "sweep.md").read_text().startswith("| pattern")

    def test_report_command(self, tmp_path):
        cfg = fast_config()
        frame = build_corpus(cfg, "val", n_frames=1)[0]
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir(), gt_dir.mkdir()
        write_raster(frame.gt, pred_dir / "f0.fdr1")
        write_raster(frame.gt, gt_dir / "f0.fdr1")
        out = tmp_path / "rep"
        assert run_cli("report", "--pred", pred_dir, "--gt", gt_dir, "--out-dir", out) == 0
        assert (out / "error_f0.pgm").exists()
        assert (out / "metrics.csv").exists()


def report_dirs(tmp_path, pairs):
    """pred/ and gt/ directories holding the named (pred, gt) raster pairs."""
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    for name, (pred, gt) in pairs.items():
        write_raster(pred, pred_dir / f"{name}.fdr1")
        write_raster(gt, gt_dir / f"{name}.fdr1")
    return pred_dir, gt_dir


def depth(shape, space=Space.METRIC):
    return DepthRaster(np.full(shape, 2.0), np.ones(shape, bool), space)


# (pred, gt) of frame d, exit code and stderr: a pair of two shapes, and one not in metric depth
MISMATCHED_PAIRS = pytest.mark.parametrize(
    "bad, code, message",
    [
        ((depth((8, 8)), depth((8, 10))), 2, "error: frame d: prediction (8, 8) vs ground truth (8, 10)\n"),
        (
            (depth((8, 8), Space.INVERSE), depth((8, 8))),
            3,
            "error: frame d: metrics need metric depth, got inverse_depth_per_m vs metric_depth_m\n",
        ),
    ],
    ids=["shape", "space"],
)


@MISMATCHED_PAIRS
def test_report_refuses_a_mismatched_pair_before_writing(bad, code, message, tmp_path, capsys):
    # the good pair "c" sorts first, so a check inside the per-pair loop would have written its map
    pred_dir, gt_dir = report_dirs(tmp_path, {"c": (depth((8, 8)), depth((8, 8))), "d": bad})
    assert run_cli("report", "--pred", pred_dir, "--gt", gt_dir, "--out-dir", tmp_path / "rep") == code
    assert capsys.readouterr().err == message
    assert not (tmp_path / "rep").exists()


@MISMATCHED_PAIRS
def test_eval_refuses_a_mismatched_pair(bad, code, message, tmp_path, capsys):
    pred_dir, gt_dir = report_dirs(tmp_path, {"c": (depth((8, 8)), depth((8, 8))), "d": bad})
    assert run_cli("eval", "--pred", pred_dir, "--gt", gt_dir, "--out", tmp_path / "eval.json") == code
    assert capsys.readouterr().err == message
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_truncated_raster_is_one_line_format_error_naming_the_file(command, side, tmp_path, capsys):
    pred_dir, gt_dir = report_dirs(tmp_path, {"c": (depth((8, 8)), depth((8, 8))), "d": (depth((8, 8)), depth((8, 8)))})
    bad = (pred_dir if side == "pred" else gt_dir) / "d.fdr1"
    bad.write_bytes(bad.read_bytes()[:30])
    out = ["--out", tmp_path / "eval.json"] if command == "eval" else ["--out-dir", tmp_path / "rep"]
    assert run_cli(command, "--pred", pred_dir, "--gt", gt_dir, *out) == 4
    err = capsys.readouterr().err
    assert err == f"error: {bad}: payload size mismatch: expected 333 bytes, file has 30 (at byte offset 30)\n"
    assert not (tmp_path / "eval.json").exists() and not (tmp_path / "rep").exists()


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize(
    "unmatched, listed",
    [
        (["b"], "1 --pred raster(s): b.fdr1"),
        (list("bcdefgh"), "7 --pred raster(s): b.fdr1, c.fdr1, d.fdr1, e.fdr1, f.fdr1 and 2 more"),
    ],
    ids=["one", "seven"],
)
def test_prediction_with_no_ground_truth_is_refused_before_reading(command, unmatched, listed, tmp_path, capsys):
    pred_dir, gt_dir = report_dirs(tmp_path, {"a": (depth((8, 8)), depth((8, 8)))})
    for name in unmatched:
        (pred_dir / f"{name}.fdr1").write_bytes(b"not read")
    out = ["--out", tmp_path / "eval.json"] if command == "eval" else ["--out-dir", tmp_path / "rep"]
    assert run_cli(command, "--pred", pred_dir, "--gt", gt_dir, *out) == 2
    assert capsys.readouterr().err == f"error: no --gt raster for {listed}\n"
    assert not (tmp_path / "eval.json").exists() and not (tmp_path / "rep").exists()


@pytest.mark.parametrize("command", ["eval", "report"])
def test_ground_truth_with_no_prediction_is_left_out(command, tmp_path):
    pred_dir, gt_dir = report_dirs(tmp_path, {"a": (depth((8, 8)), depth((8, 8)))})
    write_raster(depth((8, 8)), gt_dir / "b.fdr1")
    out = ["--out", tmp_path / "eval.json"] if command == "eval" else ["--out-dir", tmp_path / "rep"]
    assert run_cli(command, "--pred", pred_dir, "--gt", gt_dir, *out) == 0


def test_eval_keeps_a_frame_with_no_pixel_under_the_cap_as_skipped(tmp_path, capsys):
    pred_dir, gt_dir = report_dirs(tmp_path, {"c": (depth((8, 8)), depth((8, 8)))})
    assert run_cli("eval", "--pred", pred_dir, "--gt", gt_dir, "--cap", 1.0, "--out", tmp_path / "eval.json") == 0
    report = json.loads((tmp_path / "eval.json").read_text())
    assert report["skipped"] == [{"frame": "c", "reason": "no pixels under the 1.0 m cap"}]
    assert report["frames"] == [] and report["aggregate"] is None
    assert capsys.readouterr().out == "no frames evaluated\n"


class TestGradcheckCommand:
    def test_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--seed", 0) == 0
        out = capsys.readouterr().out
        for family in ("conv", "norm", "activations", "bilinear_sample", "cbam",
                       "deformable_attention", "decoder_block", "losses"):
            assert family in out
