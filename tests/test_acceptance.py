"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-dependent
criteria share one desk-scale training run (module-scoped fixture).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from spade.alignment import align_global
from spade.core import DepthRaster, Space, SparsePointSet, from_inverse
from spade.densify import JBUParams, jbu_densify
from spade.core import ScaleMap
from spade.gradsuite import TOLERANCE, run_suite
from spade.losses import loss_grad, loss_rmse, loss_silog, loss_total
from spade.metrics import aggregate_metrics, compute_metrics
from spade.nn import DeformAttnConfig, DeformableAttention, Tensor
from spade.pipeline import (
    RunConfig,
    SpadeModel,
    SweepSpec,
    build_corpus,
    run_frame,
    sweep,
    train,
)
from spade.sensors import PatternSpec, sample_pattern
from spade.synth import OracleSpec, SceneSpec, generate_scene, oracle_relative

from conftest import fast_config


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] FAIL  {text}")
        raise
    print(f"[criterion {num:2d}] PASS  {text}")


# full desk-scale defaults (200 frames, batch 8, 10 epochs, lr 2e-4 -> 5e-5)
DESK = RunConfig(seed=11)


@pytest.fixture(scope="module")
def desk_training():
    start = time.perf_counter()
    model, log = train(DESK, quiet=True)
    return model, log, time.perf_counter() - start


def test_criterion_1_gradient_suite():
    with criterion(1, "finite-difference gradient suite over every layer family"):
        results = run_suite(seed=0)
        for family, worst in results["families"].items():
            assert worst <= TOLERANCE, f"{family}: worst relative error {worst:.3e}"
        assert results["runtime_s"] <= 60.0, f"suite took {results['runtime_s']:.1f}s"


def test_criterion_2_alignment_exact_recovery():
    with criterion(2, "exact (s, t) recovery on 100 noise-free affine frames"):
        layouts = ("seafloor_bumps", "canyon", "frame_with_ropes")
        rng = np.random.default_rng(2)
        for i in range(100):
            scene = SceneSpec(
                layout=layouts[i % 3],
                height=32,
                width=64,
                depth_min=float(rng.uniform(0.8, 1.5)),
                depth_max=float(rng.uniform(2.5, 5.0)),
                seed=int(rng.integers(2**31)),
            )
            gt, guide = generate_scene(scene)
            s_true = float(rng.uniform(0.5, 3.0))
            t_true = float(rng.uniform(-0.1, 0.5))
            z = oracle_relative(gt, OracleSpec(s_true=s_true, t_true=t_true, seed=i))
            pts = sample_pattern(
                gt,
                PatternSpec(kind="feature_like", count=int(rng.integers(40, 120)), seed=i),
                guide=guide,
            )
            _, fit = align_global(z, pts)
            assert fit.mode == "scale_shift", f"frame {i}: fallback fired"
            assert abs(fit.s - s_true) <= 1e-9, f"frame {i}: |ds|={abs(fit.s - s_true):.2e}"
            assert abs(fit.t - t_true) <= 1e-9, f"frame {i}: |dt|={abs(fit.t - t_true):.2e}"


def test_criterion_3_fallback_correctness():
    with criterion(3, "negative-slope two-point fixtures all fall back to scale-only"):
        rng = np.random.default_rng(3)
        for i in range(100):
            a = rng.uniform(0.3, 0.7)
            delta = rng.uniform(0.001, 0.05)
            b = rng.uniform(0.5, 1.2)
            gamma = rng.uniform(0.01, 0.3)
            z_vals = np.array([[a, a + delta]])
            v = np.array([b, b - gamma])
            raster = DepthRaster(z_vals, np.ones((1, 2), bool), Space.AFFINE)
            pts = SparsePointSet([(0, 0, 1.0 / v[0]), (1, 0, 1.0 / v[1])])
            _, fit = align_global(raster, pts)
            assert fit.mode == "scale_only", f"fixture {i}: mode {fit.mode}"
            closed_form = float(z_vals[0] @ v) / float(z_vals[0] @ z_vals[0])
            assert abs(fit.s - closed_form) <= 1e-12


def test_criterion_4_deformable_attention_oracle():
    with criterion(4, "zero-offset unit-grid identity-projection equals dense attention"):
        heads, C, H, W = 2, 8, 5, 6
        cfg = DeformAttnConfig(channels=C, heads=heads, feat_h=H, feat_w=W, grid_downsample=1)
        layer = DeformableAttention(cfg, np.random.default_rng(4))
        for mix in (layer.wq, layer.wk, layer.wv, layer.wo):
            mix.weight.data, mix.bias.data = np.eye(C)[:, :, None, None], np.zeros(C)
        rng = np.random.default_rng(44)
        for _ in range(10):
            x = rng.standard_normal((2, C, H, W))
            got = layer(Tensor(x)).data
            # independent dense multi-head attention with q = k = v = tokens
            tokens = x.reshape(2, C, H * W).transpose(0, 2, 1)
            want = np.empty_like(tokens)
            d = C // heads
            for b in range(2):
                for h in range(heads):
                    t = tokens[b][:, h * d : (h + 1) * d]
                    logits = t @ t.T / np.sqrt(d)
                    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
                    want[b][:, h * d : (h + 1) * d] = (e / e.sum(axis=-1, keepdims=True)) @ t
            want = want.transpose(0, 2, 1).reshape(2, C, H, W)
            assert np.max(np.abs(got - want)) <= 1e-10


def test_criterion_5_jbu_oracle_and_convexity():
    with criterion(5, "JBU matches the brute-force sum; convex-hull bound holds"):
        rng = np.random.default_rng(5)
        for _ in range(25):
            h, w = rng.integers(5, 17, size=2)
            known = rng.random((h, w)) < 0.2
            vals = np.where(known, rng.uniform(0.5, 3.0, (h, w)), 0.0)
            guide = rng.uniform(0.2, 1.5, (h, w))
            params = JBUParams(
                window_radius=int(rng.integers(1, 4)),
                sigma_spatial=float(rng.uniform(1.0, 3.0)),
                sigma_range=float(rng.uniform(0.05, 0.5)),
            )
            zt = DepthRaster(guide, np.ones((h, w), bool), Space.INVERSE)
            out = jbu_densify(ScaleMap(vals, known), zt, params)
            r = params.window_radius
            inv2ss = 1.0 / (2 * params.sigma_spatial**2)
            inv2sr = 1.0 / (2 * params.sigma_range**2)
            for py in range(h):
                for px in range(w):
                    num = den = 0.0
                    for qy in range(max(0, py - r), min(h, py + r + 1)):
                        for qx in range(max(0, px - r), min(w, px + r + 1)):
                            if not known[qy, qx]:
                                continue
                            wgt = np.exp(-((py - qy) ** 2 + (px - qx) ** 2) * inv2ss) * np.exp(
                                -((guide[py, px] - guide[qy, qx]) ** 2) * inv2sr
                            )
                            num += vals[qy, qx] * wgt
                            den += wgt
                    if den >= 1e-300:
                        assert abs(out.values[py, px] - num / den) <= 1e-12
                    else:
                        assert not out.filled[py, px]

        checked = 0
        while checked < 1000:
            h = w = 16
            known = rng.random((h, w)) < 0.15
            if not known.any():
                continue
            vals = np.where(known, rng.uniform(0.5, 3.0, (h, w)), 0.0)
            guide = rng.uniform(0.2, 1.5, (h, w))
            zt = DepthRaster(guide, np.ones((h, w), bool), Space.INVERSE)
            r = 3
            out = jbu_densify(ScaleMap(vals, known), zt, JBUParams(r, 2.0, 0.2))
            for py in range(h):
                for px in range(w):
                    if not out.filled[py, px]:
                        continue
                    win_v = vals[max(0, py - r) : py + r + 1, max(0, px - r) : px + r + 1]
                    win_k = known[max(0, py - r) : py + r + 1, max(0, px - r) : px + r + 1]
                    assert win_v[win_k].min() - 1e-12 <= out.values[py, px] <= win_v[win_k].max() + 1e-12
                    checked += 1


def test_criterion_6_loss_metric_identities():
    with criterion(6, "loss and metric identities incl. scale invariance and total weights"):
        rng = np.random.default_rng(6)
        z = rng.uniform(0.3, 1.5, (12, 14))
        mask = np.ones_like(z, dtype=bool)
        assert loss_silog(Tensor(z), z, mask).item() == pytest.approx(0.0, abs=1e-12)
        got = loss_silog(Tensor(np.e * z), z, mask).item()
        assert abs(got - 10.0 * np.sqrt(0.15)) <= 1e-9

        gt = DepthRaster(rng.uniform(0.5, 8.0, (12, 14)), mask, Space.METRIC)
        pred_vals = gt.values * rng.uniform(0.85, 1.2, (12, 14))
        base = compute_metrics(DepthRaster(pred_vals, mask, Space.METRIC), gt, 10.0).silog
        for c in (0.5, 2.0, 10.0):
            scaled = compute_metrics(DepthRaster(c * pred_vals, mask, Space.METRIC), gt, 100.0).silog
            assert abs(scaled - base) <= 1e-9

        pred = rng.uniform(0.3, 1.5, (12, 14))
        total = loss_total(Tensor(pred), z, mask)
        recomposed = (
            loss_rmse(Tensor(pred), z, mask).item()
            + loss_silog(Tensor(pred), z, mask).item()
            + 0.5 * loss_grad(Tensor(pred), z, mask).item()
        )
        assert abs(total.item() - recomposed) <= 1e-12


def test_criterion_7_neutral_fixed_point():
    with criterion(7, "neutral checkpoint output equals globally aligned depth (<= 1e-12)"):
        cfg = fast_config()
        model = SpadeModel(cfg)  # neutral head by construction
        for frame in build_corpus(cfg, "val", n_frames=5):
            res = run_frame(model, frame.z_rel, frame.guide, frame.points, gt=frame.gt)
            ga = from_inverse(res.aligned)
            assert np.array_equal(res.depth.valid, ga.valid)
            diff = np.max(np.abs(res.depth.values[ga.valid] - ga.values[ga.valid]))
            assert diff <= 1e-12, f"max abs diff {diff:.2e}"


def test_criterion_8_training_beats_global_alignment(desk_training):
    model, log, train_seconds = desk_training
    with criterion(8, "desk-scale training: refined MAE <= 0.8x the GA-only MAE"):
        assert train_seconds <= 900.0, f"training took {train_seconds:.0f}s > 15 min"
        assert DESK.bias_amplitude == 0.2
        held = build_corpus(DESK, "eval", n_frames=20)
        neutral = SpadeModel(DESK)
        refined, ga = [], []
        for f in held:
            refined.append(run_frame(model, f.z_rel, f.guide, f.points, gt=f.gt).metrics)
            ga.append(run_frame(neutral, f.z_rel, f.guide, f.points, gt=f.gt).metrics)
        refined_mae = aggregate_metrics(refined).mae
        ga_mae = aggregate_metrics(ga).mae
        ratio = refined_mae / ga_mae
        print(
            f"    [criterion 8 detail] refined {refined_mae:.4f} m vs GA {ga_mae:.4f} m "
            f"(ratio {ratio:.3f}, trained in {train_seconds:.0f}s)"
        )
        assert ratio <= 0.8, f"ratio {ratio:.3f} > 0.8"


def test_criterion_9_sparsity_robustness(desk_training):
    model, _, _ = desk_training
    with criterion(9, "MAE(10 pts) <= 3x MAE(200 pts); non-increasing toward 200 within 5%"):
        spec = SweepSpec(point_counts=(200, 100, 50, 10), patterns=("feature_like",), range_caps=(10.0,), n_frames=20)
        report = sweep(model, DESK, spec)
        mae = {
            c["count"]: c["refined"]["mae"]
            for c in report["cells"]
            if c["pattern"] == "feature_like" and c["cap_m"] == 10.0
        }
        print(
            "    [criterion 9 detail] MAE by count: "
            + ", ".join(f"{n}: {mae[n]:.4f}" for n in (10, 50, 100, 200))
        )
        assert mae[10] <= 3.0 * mae[200], f"{mae[10]:.4f} > 3x {mae[200]:.4f}"
        assert mae[50] <= 1.05 * mae[10]
        assert mae[100] <= 1.05 * mae[50]
        assert mae[200] <= 1.05 * mae[100]


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical seeds give bitwise-identical checkpoints, sweeps, reports"):
        cfg = fast_config(epochs=1, train_frames=6, val_frames=2, seed=21)
        ck = []
        for run_dir in (tmp_path / "a", tmp_path / "b"):
            model, log = train(cfg, out_dir=run_dir, quiet=True)
            spec = SweepSpec(point_counts=(20,), patterns=("feature_like",), range_caps=(10.0,), n_frames=2)
            report = sweep(model, cfg, spec)
            ck.append(
                (
                    (run_dir / "checkpoint.spw1").read_bytes(),
                    (run_dir / "training_log.json").read_bytes(),
                    repr(report),
                )
            )
        assert ck[0][0] == ck[1][0], "checkpoints differ"
        assert ck[0][1] == ck[1][1], "training logs differ"
        assert ck[0][2] == ck[1][2], "sweep reports differ"
