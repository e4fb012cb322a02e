
import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from conftest import fast_config
from spade.cli import main
from spade.core import read_points, read_raster, write_points, write_raster, Space
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
    "train-zero-conv-count": ("train", {"network": {"conv_counts": [1, 0, 1, 1]}}),
}


@pytest.mark.parametrize("command, payload", CONFIG_FAULTS.values(), ids=CONFIG_FAULTS.keys())
def test_config_fault_is_one_line_config_error(command, payload, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    # the config is read before any input file, so the other paths need not exist;
    # "out" is the output directory, or the CSV that simulate would write
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--config", path, "--out-dir", out],
        "synth": ["synth", "--spec", path, "--out-dir", out],
        "simulate": ["simulate", "--gt", tmp_path / "gt.fdr1", "--pattern", path, "--out", out],
        "sweep": ["sweep", "--checkpoint", tmp_path / "c.spw1", "--sweep", path, "--out-dir", out],
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


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
    for key, value in SpadeModel(cfg).state_dict().items():
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


# (tensors, meta) of checkpoints whose embedded config is valid but whose
# tensors do not fit it, or that have no embedded config
CHECKPOINT_FAULTS = {
    "old-layout-tensors": lambda cfg: (old_layout_state(cfg), {"config": asdict(cfg), "seed": cfg.seed}),
    "missing-tensor": lambda cfg: (dict(list(SpadeModel(cfg).state_dict().items())[1:]), {"config": asdict(cfg)}),
    "misshaped-tensor": lambda cfg: (_misshaped(SpadeModel(cfg).state_dict()), {"config": asdict(cfg)}),
    "no-embedded-config": lambda cfg: (SpadeModel(cfg).state_dict(), {"seed": cfg.seed}),
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


@pytest.fixture(scope="module")
def laser_points(scene_dir):
    """A laser2 pair on the scene, sampled with the camera that `--laser 64,31.5,0.1` describes."""
    pattern = scene_dir / "laser.json"
    pattern.write_text(json.dumps({"kind": "laser2", "laser_baseline_m": 0.1}))
    out = scene_dir / "laser.csv"
    assert run_cli("simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", pattern,
                   "--intrinsics", "64,64,31.5,15.5", "--out", out) == 0
    assert len(read_points(out)) == 2
    return out


def test_align_laser_pair_takes_laser_path(scene_dir, laser_points, tmp_path):
    u1, u2 = (p.u for p in read_points(laser_points))
    code = run_cli(
        "align", "--relative", scene_dir / "relative.fdr1", "--points", laser_points,
        "--laser", f"64,31.5,0.1,{u1},{u2}", "--out", tmp_path / "a.fdr1", "--fit-report", tmp_path / "fit.json",
    )
    assert code == 0
    assert json.loads((tmp_path / "fit.json").read_text())["mode"] == "laser_baseline"


def test_run_laser_pair_takes_laser_path(scene_dir, laser_points, tmp_path):
    SpadeModel(fast_config()).save(tmp_path / "c.spw1")
    code = run_cli(
        "run", "--checkpoint", tmp_path / "c.spw1", "--relative", scene_dir / "relative.fdr1",
        "--guide", scene_dir / "guide.fdr1", "--points", laser_points, "--laser", "64,31.5,0.1",
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
        "--guide", scene_dir / "guide.fdr1", "--points", tmp_path / "p.csv", "--laser", "64,31.5,0.1",
        "--out-dir", tmp_path / "out",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: laser alignment expects exactly 2 points, file has 96\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("baseline", ["0", "-0.1"])
@pytest.mark.parametrize("command", ["run", "align"])
def test_nonpositive_laser_baseline_is_one_line_config_error(
    command, baseline, scene_dir, laser_points, tmp_path, capsys
):
    out = tmp_path / "out"
    if command == "run":
        SpadeModel(fast_config()).save(tmp_path / "c.spw1")
        argv = [
            "run", "--checkpoint", tmp_path / "c.spw1", "--relative", scene_dir / "relative.fdr1",
            "--guide", scene_dir / "guide.fdr1", "--points", laser_points, "--laser", f"64,31.5,{baseline}",
            "--out-dir", out,
        ]
    else:
        u1, u2 = (p.u for p in read_points(laser_points))
        argv = [
            "align", "--relative", scene_dir / "relative.fdr1", "--points", laser_points,
            "--laser", f"64,31.5,{baseline},{u1},{u2}", "--out", out,
        ]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --laser baseline B must be > 0, got {float(baseline)}\n", err
    assert not out.exists()


# each command with one flag it does not read, after all the flags it needs
UNREAD_FLAGS = {
    "align --config": ["align", "--relative", "r.fdr1", "--points", "p.csv", "--out", "a.fdr1", "--config", "c.json"],
    "densify --seed": ["densify", "--scale-map", "e.fdr1", "--guide", "g.fdr1", "--out", "d.fdr1", "--seed", "5"],
    "eval --out-dir": ["eval", "--pred", "p.fdr1", "--gt", "g.fdr1", "--out", "r.json", "--out-dir", "o"],
    "synth --config": ["synth", "--spec", "s.json", "--config", "c.json"],
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

    def test_missing_file_is_io_error(self, tmp_path):
        code = run_cli(
            "align", "--relative", tmp_path / "nope.fdr1", "--points", tmp_path / "x.csv",
            "--out", tmp_path / "a.fdr1",
        )
        assert code == 4

    def test_densify_pipeline(self, scene_dir, tmp_path):
        pat = tmp_path / "p.json"
        pat.write_text(json.dumps({"kind": "uniform_grid", "grid_rows": 3, "grid_cols": 5}))
        pts = tmp_path / "pts.csv"
        run_cli("simulate", "--gt", scene_dir / "gt.fdr1", "--pattern", pat, "--out", pts)
        run_cli(
            "align", "--relative", scene_dir / "relative.fdr1", "--points", pts,
            "--out", tmp_path / "aligned.fdr1",
        )
        # build the sparse scale map through the library, then densify via CLI
        from spade.core import DepthRaster
        from spade.densify import sparse_scale_map

        aligned = read_raster(tmp_path / "aligned.fdr1")
        eps = sparse_scale_map(read_points(pts), aligned)
        write_raster(DepthRaster(eps.values, eps.known, Space.AFFINE), tmp_path / "eps.fdr1")
        code = run_cli(
            "densify", "--scale-map", tmp_path / "eps.fdr1", "--guide", tmp_path / "aligned.fdr1",
            "--radius", 5, "--sigma-s", 2.5, "--sigma-r", 0.1, "--out", tmp_path / "dense.fdr1",
        )
        assert code == 0
        dense = read_raster(tmp_path / "dense.fdr1")
        assert np.all(dense.values > 0)


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
            "--cap", 10.0, "--points", tmp_path / "pts.csv", "--out", tmp_path / "report.json",
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["aggregate"]["mae"] == pytest.approx(metrics["mae"])
        assert "prior_depth_stats" in report
        assert report["prior_depth_stats"]["mean_point_count"] == len(frame.points)

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


class TestGradcheckCommand:
    def test_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--seed", 0) == 0
        out = capsys.readouterr().out
        for family in ("conv", "norm", "activations", "bilinear_sample", "cbam",
                       "deformable_attention", "decoder_block", "losses"):
            assert family in out
