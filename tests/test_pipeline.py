import logging
import threading
from dataclasses import asdict

import numpy as np
import pytest

from conftest import fast_config
from spade.config import from_json
from spade.core import DepthRaster, LaserRig, SparsePointSet, from_inverse
from spade.errors import ConfigError, DomainError, FormatError, SpadeError
from spade.metrics import aggregate_metrics, compute_metrics
from spade.nn import RefinementNet, Tensor, no_grad, save_checkpoint
from spade.nn.tensor import _Node
from spade.pipeline import (
    SWEEP_LASER_BASELINE_M,
    RunConfig,
    SpadeModel,
    SweepSpec,
    _batch_loss,
    _sweep_points,
    _training_sample,
    build_corpus,
    error_map,
    network_inputs,
    prepare_frame,
    refine_frames,
    render_report,
    run_frame,
    sweep,
    sweep_table_csv,
    sweep_table_markdown,
    train,
    write_pgm,
)
from spade.sensors import PatternSpec, sample_pattern, subsample


class TestRunConfig:
    def test_resolution_validated(self):
        with pytest.raises(ConfigError):
            fast_config(input_hw=(60, 64))

    def test_schedule_validated(self):
        with pytest.raises(ConfigError):
            fast_config(epochs=4, decay_after_epoch=9)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            from_json(RunConfig, {"bogus": 1})


class TestNeutralFixedPoint:
    def test_pipeline_equals_global_alignment(self):
        cfg = fast_config()
        model = SpadeModel(cfg)
        frames = build_corpus(cfg, "val", n_frames=3)
        for f in frames:
            res = run_frame(model, f.z_rel, f.guide, f.points, gt=f.gt)
            ga = from_inverse(res.aligned)
            assert np.array_equal(res.depth.valid, ga.valid)
            diff = np.max(np.abs(res.depth.values[ga.valid] - ga.values[ga.valid]))
            assert diff <= 1e-12
            assert np.max(np.abs(res.eps_hat - 1.0)) < 1e-14


# numpy functions whose Python-level wrappers cost 5-30 us per call; the B=1
# forward reaches ufuncs, ndarray constructors and fancy indexing directly
NUMPY_WRAPPERS = [(np.lib.stride_tricks, "as_strided"), (np, "clip"), (np, "take_along_axis"),
                  (np, "broadcast_to"), (np, "prod"), (np, "argsort"), (np, "cumsum")]


def test_eval_forward_calls_no_numpy_wrapper(monkeypatch):
    cfg = RunConfig()
    model = SpadeModel(cfg, seed=11, init="train").eval()
    f = build_corpus(cfg, "val", n_frames=1)[0]
    inputs = network_inputs([prepare_frame(f.z_rel, f.guide, f.points, cfg.jbu)])
    with no_grad():
        want = model(*inputs).data

    def wrapper_called(*args, **kwargs):
        raise AssertionError("the eval forward called a numpy wrapper")

    for module, name in NUMPY_WRAPPERS:
        monkeypatch.setattr(module, name, wrapper_called)
    with no_grad():
        got = model(*inputs).data
    assert got.tobytes() == want.tobytes()


def forward_batch_sizes(monkeypatch) -> list:
    """The batch size of every RefinementNet forward from here on."""
    sizes = []
    forward = RefinementNet.__call__

    def counted(self, eps_dense, *args, **kwargs):
        sizes.append(eps_dense.shape[0])
        return forward(self, eps_dense, *args, **kwargs)

    monkeypatch.setattr(RefinementNet, "__call__", counted)
    return sizes


def sweep_rig(cfg):
    """The laser rig a sweep samples and fits laser2 frames with at cfg's input size."""
    w = cfg.input_hw[1]
    return LaserRig(float(w), (w - 1) / 2.0, SWEEP_LASER_BASELINE_M)


class TestLaserRouting:
    def test_two_point_frame_takes_laser_path(self):
        cfg = fast_config()
        model = SpadeModel(cfg)
        frames = build_corpus(cfg, "val", n_frames=6)
        rig = sweep_rig(cfg)
        routed = 0
        for f in frames:
            pts = sample_pattern(f.gt, PatternSpec(kind="laser2"), laser=rig)
            if len(pts) != 2:
                continue
            res = run_frame(model, f.z_rel, f.guide, pts, gt=f.gt, laser=rig)
            assert res.fit.mode == "laser_baseline"
            assert res.fit.t == 0.0
            routed += 1
        assert routed >= 1

    def test_laser_rig_without_a_pair_names_the_count(self):
        cfg = fast_config()
        model = SpadeModel(cfg)
        f = build_corpus(cfg, "val", n_frames=1)[0]
        rig = sweep_rig(cfg)
        one = run_frame(model, f.z_rel, f.guide, SparsePointSet(f.points.points[:1]), laser=rig)
        assert one.fit.mode == "scale_only"
        assert one.fit.fallback == "laser rig needs 2 points, got 1; scale/shift fit needs >= 2 points, got 1"
        three = run_frame(model, f.z_rel, f.guide, SparsePointSet(f.points.points[:3]), laser=rig)
        assert three.fit.mode == "scale_shift"
        assert three.fit.fallback == "laser rig needs 2 points, got 3"


def laser_pair_frame(cfg):
    """A frame whose laser2 pattern has both points, with its pair and rig."""
    rig = sweep_rig(cfg)
    for f in build_corpus(cfg, "val", n_frames=6):
        pts = sample_pattern(f.gt, PatternSpec(kind="laser2"), laser=rig)
        if len(pts) == 2:
            return f, pts, rig
    raise AssertionError("no frame with a laser pair")


# the pipeline attributes perfbench wraps to time and count stage 1
STAGE_ONE_HOOKS = ("align_global", "align_with_laser", "sparse_scale_map", "jbu_densify")


class TestStageOne:
    def test_run_and_training_prepare_the_same_inputs(self):
        cfg = fast_config()
        model = SpadeModel(cfg, init="train")
        f = build_corpus(cfg, "val", n_frames=1)[0]
        pts = subsample(f.points, round(len(f.points) * 0.9), seed=3)
        seen = {}
        forward = model.forward

        def spy(eps_dense, z_tilde, guide):
            seen["eps"], seen["z"] = eps_dense.data[0, 0], z_tilde.data[0, 0]
            return forward(eps_dense, z_tilde, guide)

        model.forward = spy
        res = run_frame(model, f.z_rel, f.guide, pts)
        prepared, target, mask = _training_sample(f, pts, cfg)
        assert prepared.corrections.values.tobytes() == seen["eps"].tobytes()
        assert prepared.aligned.values.tobytes() == seen["z"].tobytes() == res.aligned.values.tobytes()
        by_hand = np.zeros(f.gt.shape)
        np.divide(1.0, f.gt.values, out=by_hand, where=f.gt.valid)
        assert target.tobytes() == by_hand.tobytes()
        assert np.array_equal(mask, f.gt.valid & res.aligned.valid)

    def test_benchmark_hook_points_fire(self, monkeypatch):
        import spade.pipeline

        calls = {name: [] for name in STAGE_ONE_HOOKS}
        for name in STAGE_ONE_HOOKS:

            def counted(*args, _fn=getattr(spade.pipeline, name), _calls=calls[name], **kwargs):
                _calls.append((args, kwargs))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(spade.pipeline, name, counted)

        def fired():
            return {name: len(c) for name, c in calls.items()}

        cfg = fast_config()
        model = SpadeModel(cfg)
        f, pair, rig = laser_pair_frame(cfg)
        res = run_frame(model, f.z_rel, f.guide, f.points)
        assert fired() == {"align_global": 1, "align_with_laser": 0, "sparse_scale_map": 1, "jbu_densify": 1}
        # perfbench reads the scale map and the aligned raster as positional args 0 and 1
        args, kwargs = calls["jbu_densify"][-1]
        assert len(args) == 3 and not kwargs and args[1] is res.aligned and args[2] is cfg.jbu
        assert args[0].known.sum() == len(f.points)
        run_frame(model, f.z_rel, f.guide, pair, laser=rig)
        assert fired() == {"align_global": 1, "align_with_laser": 1, "sparse_scale_map": 2, "jbu_densify": 2}
        _training_sample(f, f.points, cfg)
        assert fired() == {"align_global": 2, "align_with_laser": 1, "sparse_scale_map": 3, "jbu_densify": 3}

    def test_network_inputs_stack_each_frame_in_order(self):
        cfg = fast_config()
        frames = [prepare_frame(f.z_rel, f.guide, f.points, cfg.jbu) for f in build_corpus(cfg, "val", n_frames=2)]
        inputs = network_inputs(frames)
        assert all(x.data.shape == (2, 1, *cfg.input_hw) for x in inputs)
        for b, f in enumerate(frames):
            for x, want in zip(inputs, (f.corrections, f.aligned, f.guide)):
                assert x.data[b, 0].tobytes() == want.values.tobytes()

    def test_guide_with_invalid_pixels_is_refused_before_stage_one(self, monkeypatch):
        import spade.pipeline

        def no_stage_one(*args, **kwargs):
            raise AssertionError("stage 1 ran")

        monkeypatch.setattr(spade.pipeline, "align_frame", no_stage_one)
        cfg = fast_config()
        f = build_corpus(cfg, "val", n_frames=1)[0]
        valid = f.guide.valid.copy()
        valid[0, :5] = False
        holes = DepthRaster(f.guide.values, valid, f.guide.space)
        with pytest.raises(DomainError, match="^guide has 5 invalid pixels of 2048;"):
            run_frame(SpadeModel(cfg), f.z_rel, holes, f.points)


class TestTraining:
    def test_learning_improves_over_ga(self, trained_fast_model):
        model, log, cfg = trained_fast_model
        assert log["history"][-1]["val_loss"] < log["history"][0]["val_loss"]
        # 40 frames: on 6 the margin was within what rounding moves
        held_out = build_corpus(cfg, "eval", n_frames=40)
        refined, ga = [], []
        neutral = SpadeModel(cfg)
        for f in held_out:
            refined.append(run_frame(model, f.z_rel, f.guide, f.points, gt=f.gt).metrics.mae)
            ga.append(run_frame(neutral, f.z_rel, f.guide, f.points, gt=f.gt).metrics.mae)
        assert np.mean(refined) < np.mean(ga)

    def test_lr_schedule(self, trained_fast_model):
        _, log, cfg = trained_fast_model
        for entry in log["history"]:
            expect = cfg.lr if entry["epoch"] <= cfg.decay_after_epoch else cfg.lr_decayed
            assert entry["lr"] == expect

    def test_determinism_bitwise(self, tmp_path):
        cfg = fast_config(epochs=1, train_frames=6, val_frames=2, seed=13)
        m1, log1 = train(cfg, out_dir=tmp_path / "a", quiet=True)
        m2, log2 = train(cfg, out_dir=tmp_path / "b", quiet=True)
        assert log1 == log2
        assert (tmp_path / "a/checkpoint.spw1").read_bytes() == (
            tmp_path / "b/checkpoint.spw1"
        ).read_bytes()

    @pytest.mark.parametrize("fraction, kept", [(0.9, 225), (1, 250)], ids=["fraction", "int-one"])
    def test_each_epoch_trains_on_the_fraction_of_every_frames_points(self, monkeypatch, fraction, kept):
        # an int 1 once reached subsample as a count and kept one point per frame
        seen = []

        def spy(pts, keep, seed):
            seen.append((len(pts), keep))
            return subsample(pts, keep, seed)

        monkeypatch.setattr("spade.pipeline.subsample", spy)
        cfg = fast_config(points_min=250, points_max=250, subsample_fraction=fraction, epochs=1, train_frames=4, val_frames=1)
        train(cfg, quiet=True)
        assert seen and set(seen) == {(250, kept)}

    def test_training_updates_the_arrays_it_was_built_with(self, monkeypatch, tmp_path):
        import spade.pipeline

        built = []

        class Recorded(SpadeModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append([(k, a, a.copy()) for k, a in self.named_arrays()])

        monkeypatch.setattr(spade.pipeline, "SpadeModel", Recorded)
        model, _ = train(fast_config(epochs=1, train_frames=4, val_frames=2), out_dir=tmp_path, quiet=True)
        (before,) = built
        after = model.named_arrays()
        assert [k for k, _, _ in before] == [k for k, _ in after]
        assert all(a is b for (_, a, _), (_, b) in zip(before, after))
        # and training wrote to them: parameters and running statistics moved
        moved = {k.split(".")[0] for k, a, copy in before if not np.array_equal(a, copy)}
        assert moved == {"param", "buffer"}

    def test_validation_inputs_are_built_once(self, monkeypatch):
        import spade.pipeline

        cfg = fast_config(epochs=2, train_frames=4, val_frames=3)
        calls = []
        densify = spade.pipeline.jbu_densify

        def counted(*args, **kwargs):
            calls.append(1)
            return densify(*args, **kwargs)

        monkeypatch.setattr(spade.pipeline, "jbu_densify", counted)
        train(cfg, quiet=True)
        assert len(calls) == cfg.epochs * cfg.train_frames + cfg.val_frames

    def test_batch_loss_graph_does_not_grow_with_the_batch(self):
        cfg = fast_config()
        model = SpadeModel(cfg, init="train")
        samples = [_training_sample(f, f.points, cfg) for f in build_corpus(cfg, "val", n_frames=4)]

        def graph_nodes(batch):
            seen, stack = set(), [_batch_loss(model, batch)._node]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    if type(node) is _Node:  # anything else is a leaf
                        stack.extend(node._parents)
            return len(seen)

        assert graph_nodes(samples[:1]) == graph_nodes(samples)

    def test_no_grad_in_another_thread_leaves_this_thread_recording(self):
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with no_grad():
                entered.set()
                release.wait(timeout=120)

        other = threading.Thread(target=hold_no_grad)
        other.start()
        try:
            assert entered.wait(timeout=30)
            x = Tensor(np.ones(3), requires_grad=True)
            assert (x * 2).sum().requires_grad
            model, _ = train(fast_config(epochs=1, train_frames=4, val_frames=1), quiet=True)
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert any(p.grad is not None and np.any(p.grad != 0) for p in model.parameters())

    def test_checkpoint_round_trip(self, trained_fast_model, tmp_path):
        model, _, cfg = trained_fast_model
        path = tmp_path / "ck.spw1"
        model.save(path)
        again = SpadeModel.load(path)
        assert again.cfg == cfg
        f = build_corpus(cfg, "val", n_frames=1)[0]
        r1 = run_frame(model, f.z_rel, f.guide, f.points)
        r2 = run_frame(again, f.z_rel, f.guide, f.points)
        assert np.array_equal(r1.depth.values, r2.depth.values)

    def test_load_rejects_unprefixed_entry(self, trained_fast_model, tmp_path):
        model, _, cfg = trained_fast_model
        path = tmp_path / "ck.spw1"
        state = {**dict(model.named_arrays()), "head.param.weight": np.zeros(3)}
        save_checkpoint(path, state, meta={"config": asdict(cfg)})
        with pytest.raises(FormatError, match=r"unexpected tensors \['head.param.weight'\]"):
            SpadeModel.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_load_rejects_non_finite_tensor(self, value, trained_fast_model, tmp_path):
        model, _, cfg = trained_fast_model
        path = tmp_path / "ck.spw1"
        name = "param.refine.stages.0.trans_blocks.0.attn.offset_proj.bias"
        state = dict(model.named_arrays())
        state[name] = state[name].copy()
        state[name][0] = value
        save_checkpoint(path, state, meta={"config": asdict(cfg)})
        with pytest.raises(FormatError) as e:
            SpadeModel.load(path)
        assert str(e.value) == f"checkpoint {path} has non-finite values in {name}"


class TestSweep:
    def test_sweep_structure_and_ga_columns(self, trained_fast_model):
        model, _, cfg = trained_fast_model
        spec = SweepSpec(point_counts=(60, 15), patterns=("feature_like", "dvl4"), range_caps=(10.0,), n_frames=3)
        report = sweep(model, cfg, spec)
        kinds = {(c["pattern"], c["count"]) for c in report["cells"]}
        assert ("feature_like", 60) in kinds and ("feature_like", 15) in kinds
        assert ("dvl4", 4) in kinds
        for cell in report["cells"]:
            if cell["refined"] is None:
                continue
            assert cell["ga_baseline"] is not None
            assert cell["refined"]["frame_count"] + cell["skipped_frames"] == 3

    def test_sweep_deterministic(self, trained_fast_model):
        model, _, cfg = trained_fast_model
        spec = SweepSpec(point_counts=(30,), patterns=("feature_like",), range_caps=(10.0,), n_frames=2)
        assert sweep(model, cfg, spec) == sweep(model, cfg, spec)

    def test_one_network_pass_per_frame(self, monkeypatch):
        cfg = fast_config()
        sizes = forward_batch_sizes(monkeypatch)
        spec = SweepSpec(point_counts=(30, 10), patterns=("feature_like",), range_caps=(10.0, 5.0, 2.0), n_frames=2)
        report = sweep(SpadeModel(cfg), cfg, spec)
        assert len(report["cells"]) == 6
        # 4 samples, one per (frame, count); each frame's 2 passes share one forward
        assert sizes == [2, 2]

    def test_a_budget_below_one_sample_makes_one_pass_per_sample(self, monkeypatch):
        cfg = fast_config()
        net, (h, w) = cfg.network, cfg.input_hw
        one_sample = 8 * (2 * net.embed_channels + net.fused_channels) * h * w  # its stage-1 input's bytes
        monkeypatch.setattr("spade.core.BYTE_BUDGET", one_sample - 1)
        sizes = forward_batch_sizes(monkeypatch)
        spec = SweepSpec(point_counts=(30, 10), patterns=("feature_like",), range_caps=(10.0,), n_frames=2)
        sweep(SpadeModel(cfg), cfg, spec)
        assert sizes == [1, 1, 1, 1]

    def test_refine_frames_walks_any_number_of_frames_in_budget_batches(self, monkeypatch):
        cfg = fast_config()
        net, (h, w) = cfg.network, cfg.input_hw
        model = SpadeModel(cfg, seed=11, init="train")
        frames = [prepare_frame(f.z_rel, f.guide, f.points, cfg.jbu) for f in build_corpus(cfg, "val", n_frames=5)]
        two_samples = 2 * 8 * (2 * net.embed_channels + net.fused_channels) * h * w  # their stage-1 inputs' bytes
        monkeypatch.setattr("spade.core.BYTE_BUDGET", two_samples)
        sizes = forward_batch_sizes(monkeypatch)
        got = refine_frames(model, frames)
        assert sizes == [2, 2, 1]
        want = [r for part in (frames[:2], frames[2:4], frames[4:]) for r in refine_frames(model, part)]
        assert len(got) == len(want) == 5
        for (depth, eps), (want_depth, want_eps) in zip(got, want):
            assert depth.values.tobytes() == want_depth.values.tobytes() and np.array_equal(depth.valid, want_depth.valid)
            assert eps.tobytes() == want_eps.tobytes()
        sizes.clear()
        assert refine_frames(model, []) == [] and sizes == []

    def test_refined_cells_are_the_aggregate_of_run_frame(self, trained_fast_model):
        model, _, cfg = trained_fast_model
        spec = SweepSpec(
            point_counts=(30, 10), patterns=("feature_like", "dvl4", "laser2"), range_caps=(10.0, 2.0), n_frames=3
        )
        frames = build_corpus(cfg, "eval", n_frames=spec.n_frames)
        assert min(len(f.points) for f in frames) >= max(spec.point_counts)  # no feature points were topped up
        for cell in sweep(model, cfg, spec)["cells"]:
            laser = sweep_rig(cfg) if cell["pattern"] == "laser2" else None
            reports = []
            for idx, f in enumerate(frames):
                try:
                    pts = _sweep_points(f, cell["pattern"], cell["count"], cfg, idx, laser)
                    depth = run_frame(model, f.z_rel, f.guide, pts, laser=laser).depth
                    reports.append(compute_metrics(depth, f.gt, cell["cap_m"]))
                except SpadeError:
                    continue
            assert cell["skipped_frames"] == len(frames) - len(reports)
            if not reports:
                assert cell["refined"] is None
                continue
            want = asdict(aggregate_metrics(reports))
            assert list(cell["refined"]) == list(want)
            np.testing.assert_allclose(list(cell["refined"].values()), list(want.values()), rtol=1e-12, atol=0)

    def test_a_config_of_another_input_size_is_refused_before_any_work(self, monkeypatch, caplog):
        # a 32x64 model over the default 64x96 corpus once skipped every pass
        # with a warning and returned cells with no refined column
        model = SpadeModel(fast_config())
        monkeypatch.setattr("spade.pipeline.build_corpus", lambda *args, **kwargs: pytest.fail("corpus built"))
        spec = SweepSpec(point_counts=(30,), patterns=("feature_like",), range_caps=(10.0,), n_frames=1)
        with caplog.at_level(logging.WARNING), pytest.raises(ConfigError) as err:
            sweep(model, RunConfig(seed=0), spec)
        assert str(err.value) == "sweep input (64, 96) does not match the model's (32, 64)"
        assert caplog.records == []

    def test_feature_points_are_topped_up_only_for_feature_like(self, monkeypatch):
        cfg = fast_config()
        kinds = []

        def counted(gt, spec, *args, **kwargs):
            kinds.append(spec.kind)
            return sample_pattern(gt, spec, *args, **kwargs)

        monkeypatch.setattr("spade.pipeline.sample_pattern", counted)
        # more points than any corpus frame has, which feature_like would top up
        spec = SweepSpec(point_counts=(cfg.points_max + 1,), patterns=("dvl4",), range_caps=(10.0,), n_frames=2)
        sweep(SpadeModel(cfg), cfg, spec)
        assert kinds == ["feature_like", "feature_like", "dvl4", "dvl4"]  # the corpus's points, then the pattern's

    def test_ga_baseline_is_the_aligned_map(self, trained_fast_model):
        model, _, cfg = trained_fast_model
        spec = SweepSpec(point_counts=(30, 10), patterns=("feature_like",), range_caps=(10.0, 2.0), n_frames=2)
        report = sweep(model, cfg, spec)
        frames = build_corpus(cfg, "eval", n_frames=spec.n_frames)
        for cell in report["cells"]:
            reports = []
            for idx, f in enumerate(frames):
                pts = _sweep_points(f, "feature_like", cell["count"], cfg, idx)
                aligned = run_frame(model, f.z_rel, f.guide, pts).aligned
                reports.append(compute_metrics(from_inverse(aligned), f.gt, cell["cap_m"]))
            assert cell["ga_baseline"] == asdict(aggregate_metrics(reports))

    def test_cap_without_pixels_skips_only_its_cell(self):
        cfg = fast_config()
        model = SpadeModel(cfg)
        one_cap = SweepSpec(point_counts=(30,), patterns=("feature_like",), range_caps=(10.0,), n_frames=2)
        two_caps = SweepSpec(point_counts=(30,), patterns=("feature_like",), range_caps=(10.0, 0.5), n_frames=2)
        wide, narrow = sweep(model, cfg, two_caps)["cells"]
        # every scene starts at depth_min >= 0.8 m, so nothing lies under 0.5 m
        assert narrow["refined"] is None and narrow["ga_baseline"] is None
        assert narrow["skipped_frames"] == two_caps.n_frames
        assert wide == sweep(model, cfg, one_cap)["cells"][0]
        assert wide["skipped_frames"] == 0

    def test_laser_frame_without_points_is_skipped_with_both_reasons(self, caplog):
        cfg = fast_config()
        spec = SweepSpec(point_counts=(2,), patterns=("laser2",), range_caps=(10.0,), n_frames=9)
        frames = build_corpus(cfg, "eval", n_frames=spec.n_frames)
        assert len(_sweep_points(frames[8], "laser2", 2, cfg, 8, sweep_rig(cfg))) == 0  # neither laser hits in range
        with caplog.at_level(logging.WARNING, logger="spade.pipeline"):
            (cell,) = sweep(SpadeModel(cfg), cfg, spec)["cells"]
        skips = [r.getMessage() for r in caplog.records]
        assert cell["skipped_frames"] == len(skips)
        assert f"sweep frame {frames[8].name} (laser2, n=2) skipped: laser rig needs 2 points, got 0; no sparse points given" in skips


class TestReportRendering:
    def test_sweep_tables_pin_every_column(self):
        metrics = dict(mae=0.125, rmse=0.25, absrel=0.0625, silog=1.5, imae=0.03, range_cap_m=10.0, frame_count=2)
        report = {
            "cells": [
                {
                    "pattern": "dvl4",
                    "count": 4,
                    "cap_m": 10.0,
                    "refined": metrics,
                    "ga_baseline": dict(metrics, mae=0.2),
                    "skipped_frames": 1,
                    "delta_mae_vs_ga": -0.075,
                },
                {
                    "pattern": "feature_like",
                    "count": 30,
                    "cap_m": 0.5,
                    "refined": None,
                    "ga_baseline": None,
                    "skipped_frames": 3,
                    "delta_mae_vs_ga": None,
                },
            ]
        }
        assert sweep_table_csv(report) == (
            "pattern,count,cap_m,mae,rmse,absrel,silog,imae,ga_mae,delta_mae_vs_ga,skipped\n"
            "dvl4,4,10.0,0.125000,0.250000,0.062500,1.500000,0.030000,0.200000,-0.075000,1\n"
            "feature_like,30,0.5,nan,nan,nan,nan,nan,nan,,3\n"
        )
        assert sweep_table_markdown(report) == (
            "| pattern | count | cap (m) | MAE | RMSE | ABSREL | SILOG | IMAE | GA MAE |\n"
            "|---|---|---|---|---|---|---|---|---|\n"
            "| dvl4 | 4 | 10.0 | 0.1250 | 0.2500 | 0.0625 | 1.5000 | 0.0300 | 0.2000 |\n"
            "| feature_like | 30 | 0.5 | nan | nan | nan | nan | nan | nan |\n"
        )

    def test_pgm_monotone_colormap(self, tmp_path):
        arr = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "m.pgm"
        write_pgm(path, arr)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pix = list(raw[-4:])
        assert pix == sorted(pix)
        assert pix[-1] == 255

    def test_error_map_zero_for_perfect_prediction(self):
        cfg = fast_config()
        f = build_corpus(cfg, "val", n_frames=1)[0]
        assert np.all(error_map(f.gt, f.gt) == 0.0)

    def test_render_report_writes_tables_and_maps(self, tmp_path):
        cfg = fast_config()
        frames = build_corpus(cfg, "val", n_frames=2)
        pairs = [(f.name, f.gt, f.gt) for f in frames]
        written = render_report(pairs, tmp_path)
        assert len(written["error_maps"]) == 2
        table = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(table) == 3  # header + 2 frames
