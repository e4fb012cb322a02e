import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spade

from spade.alignment import align_global
from spade.core import Space
from spade.densify import sparse_scale_map
from spade.errors import ConfigError
from spade.sensors import PatternSpec, sample_pattern
from spade.synth import (
    OracleSpec,
    SceneSpec,
    generate_scene,
    oracle_relative,
    smooth_field,
)


class TestScenes:
    def test_plane_is_constant(self):
        gt, _ = generate_scene(SceneSpec(layout="plane", depth_min=2.0, depth_max=2.0))
        assert np.all(gt.values == 2.0)
        assert gt.space is Space.METRIC

    def test_canyon_within_range(self):
        gt, _ = generate_scene(SceneSpec(layout="canyon", depth_min=1.0, depth_max=5.0, seed=3))
        assert gt.values.min() >= 1.0
        assert gt.values.max() <= 5.0

    def test_deterministic_bytes(self):
        spec = SceneSpec(layout="seafloor_bumps", seed=11)
        gt1, g1 = generate_scene(spec)
        gt2, g2 = generate_scene(spec)
        assert gt1.values.tobytes() == gt2.values.tobytes()
        assert g1.values.tobytes() == g2.values.tobytes()

    def test_guide_edges_follow_depth_edges(self):
        gt, guide = generate_scene(SceneSpec(layout="frame_with_ropes", seed=2))
        gd = np.abs(np.diff(gt.values, axis=1)).mean(axis=0)
        gg = np.abs(np.diff(guide.values, axis=1)).mean(axis=0)
        # columns with strong depth edges should be strong guide edges too
        strong = gd > np.percentile(gd, 90)
        assert gg[strong].mean() > 2.0 * gg[~strong].mean()

    def test_frame_with_ropes_has_thin_structures(self):
        gt, _ = generate_scene(SceneSpec(layout="frame_with_ropes", depth_min=1.0, depth_max=4.0, seed=5))
        near = gt.values < 2.0
        widths = []
        row = near[gt.shape[0] // 2]
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate([[0], row.astype(int), [0]]))).reshape(-1, 2), axis=1)
        widths = runs.ravel().tolist()
        assert any(1 <= w <= 4 for w in widths)

    def test_depth_range_validation(self):
        with pytest.raises(ConfigError):
            SceneSpec(depth_min=0.0)
        with pytest.raises(ConfigError):
            SceneSpec(depth_min=2.0, depth_max=1.0)
        with pytest.raises(ConfigError):
            SceneSpec(depth_max=99.0)


class TestSmoothField:
    def test_range_and_determinism(self):
        f1 = smooth_field(32, 48, 8.0, np.random.default_rng(4))
        f2 = smooth_field(32, 48, 8.0, np.random.default_rng(4))
        assert np.array_equal(f1, f2)
        assert f1.min() >= -1.0 and f1.max() <= 1.0

    def test_smoothness(self):
        f = smooth_field(64, 64, 16.0, np.random.default_rng(5))
        assert np.abs(np.diff(f, axis=0)).max() < 0.5


class TestOracle:
    def test_exact_affine_when_unbiased(self):
        gt, _ = generate_scene(SceneSpec(layout="seafloor_bumps", seed=6))
        spec = OracleSpec(s_true=1.7, t_true=0.23)
        z = oracle_relative(gt, spec)
        assert z.space is Space.AFFINE
        pts = sample_pattern(gt, PatternSpec(kind="feature_like", count=120, seed=7))
        _, fit = align_global(z, pts)
        assert fit.mode == "scale_shift"
        assert abs(fit.s - 1.7) < 1e-9
        assert abs(fit.t - 0.23) < 1e-9

    def test_eps_equals_reciprocal_bias(self):
        gt, _ = generate_scene(SceneSpec(layout="seafloor_bumps", seed=8))
        spec = OracleSpec(s_true=1.2, t_true=0.05, bias_amplitude=0.2, seed=9)
        z = oracle_relative(gt, spec)
        # the bias field oracle_relative draws first from its seeded generator
        rng = np.random.default_rng(spec.seed)
        bias = 1.0 + spec.bias_amplitude * smooth_field(*gt.shape, spec.bias_wavelength, rng)
        # align with the true parameters, not a fit
        z_tilde_vals = spec.s_true * z.values + spec.t_true
        from spade.core import DepthRaster

        z_tilde = DepthRaster(z_tilde_vals, gt.valid, Space.INVERSE)
        pts = sample_pattern(gt, PatternSpec(kind="uniform_grid", grid_rows=5, grid_cols=6))
        eps = sparse_scale_map(pts, z_tilde)
        for u, v, _ in pts:
            assert eps.values[v, u] == pytest.approx(1.0 / bias[v, u], abs=1e-12)

    def test_bias_bounds_propagate_to_eps(self):
        gt, _ = generate_scene(SceneSpec(layout="canyon", seed=10))
        spec = OracleSpec(s_true=1.0, t_true=0.0, bias_amplitude=0.2, seed=11)
        z = oracle_relative(gt, spec)
        from spade.core import DepthRaster

        z_tilde = DepthRaster(spec.s_true * z.values + spec.t_true, gt.valid, Space.INVERSE)
        pts = sample_pattern(gt, PatternSpec(kind="feature_like", count=200, seed=12))
        eps = sparse_scale_map(pts, z_tilde)
        vals = eps.values[eps.known]
        assert vals.min() >= 1.0 / 1.2 - 1e-9
        assert vals.max() <= 1.0 / 0.8 + 1e-9

    def test_noise_keeps_z_finite(self):
        gt, _ = generate_scene(SceneSpec(layout="plane", seed=13))
        z = oracle_relative(gt, OracleSpec(noise_sigma=0.05, seed=14))
        assert np.all(np.isfinite(z.values))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            OracleSpec(s_true=0.0)
        with pytest.raises(ConfigError):
            OracleSpec(bias_amplitude=0.6)


def test_import_does_not_load_the_network_package():
    # synth is numpy-only; its resize matrix lives in spade.core
    src = Path(spade.__file__).parent.parent
    code = "import sys, spade.synth; print('spade.nn' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
