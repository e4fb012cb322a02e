import threading
from dataclasses import asdict

import numpy as np
import pytest

from conftest import fast_config
from spade.config import from_json
from spade.core import from_inverse
from spade.errors import ConfigError
from spade.metrics import aggregate_metrics, compute_metrics
from spade.nn import RefinementNet, Tensor, no_grad
from spade.pipeline import (
    LaserRig,
    RunConfig,
    SpadeModel,
    SweepSpec,
    _batch_loss,
    _sweep_points,
    _training_sample,
    build_corpus,
    default_intrinsics,
    error_map,
    render_report,
    run_frame,
    sweep,
    train,
    write_pgm,
)
from spade.sensors import PatternSpec, sample_pattern


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


class TestLaserRouting:
    def test_two_point_frame_takes_laser_path(self):
        cfg = fast_config()
        model = SpadeModel(cfg)
        frames = build_corpus(cfg, "val", n_frames=6)
        K, spec = default_intrinsics(*cfg.input_hw), PatternSpec(kind="laser2")
        routed = 0
        for f in frames:
            pts = sample_pattern(f.gt, spec, intrinsics=K)
            if len(pts) != 2:
                continue
            res = run_frame(model, f.z_rel, f.guide, pts, gt=f.gt, laser=LaserRig(K, spec.laser_baseline_m))
            assert res.fit.mode == "laser_baseline"
            assert res.fit.t == 0.0
            routed += 1
        assert routed >= 1


class TestTraining:
    def test_learning_improves_over_ga(self, trained_fast_model):
        model, log, cfg = trained_fast_model
        assert log["history"][-1]["val_loss"] < log["history"][0]["val_loss"]
        held_out = build_corpus(cfg, "eval", n_frames=6)
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
            seen, stack = set(), [_batch_loss(model, batch)]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
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

    def test_load_rejects_unprefixed_entry(self, trained_fast_model):
        model, _, _ = trained_fast_model
        state = model.state_dict()
        state["head.param.weight"] = np.zeros(3)
        with pytest.raises(ConfigError, match="unexpected.*head.param.weight"):
            SpadeModel(model.cfg).load_state_dict(state)


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

    def test_one_network_pass_per_frame_and_count(self, monkeypatch):
        cfg = fast_config()
        calls = []
        forward = RefinementNet.__call__

        def counted(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(RefinementNet, "__call__", counted)
        spec = SweepSpec(point_counts=(30, 10), patterns=("feature_like",), range_caps=(10.0, 5.0, 2.0), n_frames=2)
        report = sweep(SpadeModel(cfg), cfg, spec)
        assert len(report["cells"]) == 6
        assert len(calls) == 4

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


class TestReportRendering:
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
