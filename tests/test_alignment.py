import numpy as np
import pytest

from spade.alignment import (
    align_global,
    align_with_laser,
    fit_scale_only,
    fit_scale_shift,
    laser_scale,
)
from spade.core import DepthRaster, LaserRig, Space, SparsePointSet
from spade.errors import (
    AlignmentFailureError,
    DegenerateDesignError,
    DomainError,
    InconsistentMeasurementsError,
    InsufficientPointsError,
)


def lstsq_oracle(z, v):
    """Independent scale/shift solver via the generic lstsq path."""
    A = np.stack([np.asarray(z, float), np.ones(len(z))], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.asarray(v, float), rcond=None)
    return float(sol[0]), float(sol[1])


def affine_raster(values):
    values = np.asarray(values, dtype=np.float64)
    return DepthRaster(values, np.ones_like(values, dtype=bool), Space.AFFINE)


class TestFitScaleShift:
    def test_exact_affine_relation(self):
        s, t = fit_scale_shift([0.2, 0.4, 0.6], [0.5, 0.9, 1.3])
        assert s == pytest.approx(2.0, abs=1e-12)
        assert t == pytest.approx(0.1, abs=1e-12)

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateDesignError):
            fit_scale_shift([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])

    def test_matches_lstsq_oracle(self):
        z = [0.1, 0.3, 0.5, 0.5]
        v = [0.4, 0.7, 1.2, 1.0]
        s0, t0 = lstsq_oracle(z, v)
        s, t = fit_scale_shift(z, v)
        assert s == pytest.approx(s0, abs=1e-9)
        assert t == pytest.approx(t0, abs=1e-9)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(2, 40)
            z = rng.uniform(0.05, 2.0, n)
            if np.var(z) < 1e-10:
                continue
            v = rng.uniform(0.1, 1.5, n)
            s0, t0 = lstsq_oracle(z, v)
            s, t = fit_scale_shift(z, v)
            assert abs(s - s0) < 1e-9 and abs(t - t0) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_scale_shift([0.3], [0.5])


class TestFitScaleOnly:
    def test_exact_proportionality(self):
        assert fit_scale_only([0.2, 0.4], [0.4, 0.8]) == pytest.approx(2.0, abs=1e-15)

    def test_single_point(self):
        assert fit_scale_only([1.0], [0.7]) == pytest.approx(0.7, abs=1e-15)

    def test_formula_oracle(self):
        z = np.array([0.50, 0.51])
        v = np.array([0.80, 0.79])
        expect = (0.5 * 0.8 + 0.51 * 0.79) / (0.5**2 + 0.51**2)
        assert fit_scale_only(z, v) == pytest.approx(expect, abs=1e-15)

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateDesignError):
            fit_scale_only([0.0, 0.0], [0.5, 0.6])

    def test_negative_scale_rejected(self):
        with pytest.raises(InconsistentMeasurementsError):
            fit_scale_only([1.0, 2.0], [-0.5, -1.0])


class TestAlignGlobal:
    def test_exact_recovery(self):
        z = affine_raster(np.linspace(0.1, 1.0, 24).reshape(4, 6))
        pts = SparsePointSet(
            [(u, v, 1.0 / (2.0 * z.values[v, u] + 0.1)) for u, v in [(0, 0), (3, 1), (5, 3), (2, 2)]]
        )
        aligned, fit = align_global(z, pts)
        assert fit.mode == "scale_shift"
        assert fit.s == pytest.approx(2.0, abs=1e-12)
        assert fit.t == pytest.approx(0.1, abs=1e-12)
        assert fit.residual_rms < 1e-12
        assert fit.fallback is None
        assert aligned.space is Space.INVERSE
        assert np.allclose(aligned.values, 2.0 * z.values + 0.1)

    def test_negative_slope_falls_back(self):
        # two clustered samples with negative joint slope
        z = affine_raster([[0.50, 0.51]])
        pts = SparsePointSet([(0, 0, 1.0 / 0.80), (1, 0, 1.0 / 0.79)])
        z_at = np.array([0.50, 0.51])
        v = np.array([0.80, 0.79])
        assert (v[1] - v[0]) / (z_at[1] - z_at[0]) < 0
        aligned, fit = align_global(z, pts)
        assert fit.mode == "scale_only"
        assert fit.t == 0.0
        assert fit.s == pytest.approx(float(z_at @ v) / float(z_at @ z_at), abs=1e-15)
        s_joint, _ = fit_scale_shift(z_at, v)
        assert fit.fallback == f"joint fit gave s={s_joint:.6g} <= 0"

    def test_degenerate_design_falls_back(self):
        z = affine_raster([[0.5, 0.5, 0.5]])
        pts = SparsePointSet([(0, 0, 2.0), (1, 0, 2.0), (2, 0, 2.0)])
        aligned, fit = align_global(z, pts)
        assert fit.mode == "scale_only"
        assert fit.s == pytest.approx(1.0, abs=1e-12)  # s*0.5 = 0.5 = 1/2m
        with pytest.raises(DegenerateDesignError) as joint:
            fit_scale_shift([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        assert fit.fallback == str(joint.value) and "variance" in fit.fallback

    def test_single_point_scale_only(self):
        z = affine_raster([[0.25]])
        _, fit = align_global(z, SparsePointSet([(0, 0, 2.0)]))
        assert fit.mode == "scale_only"
        assert fit.s == pytest.approx(2.0, abs=1e-12)
        assert fit.fallback == "scale/shift fit needs >= 2 points, got 1"

    def test_synthetic_frame_recovery(self):
        rng = np.random.default_rng(3)
        s_true, t_true = 1.7, 0.23
        gt = rng.uniform(1.0, 5.0, size=(20, 30))
        z_vals = (1.0 / gt - t_true) / s_true
        z = affine_raster(z_vals)
        idx = rng.choice(20 * 30, size=400, replace=False)
        pts = SparsePointSet([(int(i % 30), int(i // 30), float(gt[i // 30, i % 30])) for i in idx])
        _, fit = align_global(z, pts)
        assert fit.mode == "scale_shift"
        assert abs(fit.s - s_true) < 1e-9
        assert abs(fit.t - t_true) < 1e-9

    def test_monotone_map_preserves_order(self):
        rng = np.random.default_rng(11)
        z = affine_raster(rng.uniform(0.1, 1.0, size=(5, 5)))
        pts = SparsePointSet([(0, 0, 1.0), (4, 4, 0.5), (2, 3, 0.7)])
        aligned, fit = align_global(z, pts)
        if fit.mode == "scale_shift":
            order_in = np.argsort(z.values.ravel())
            order_out = np.argsort(aligned.values.ravel())
            assert np.array_equal(order_in, order_out)

    def test_nonpositive_aligned_masked(self):
        z = affine_raster([[-5.0, 0.2, 0.4]])
        pts = SparsePointSet([(1, 0, 2.0), (2, 0, 1.0)])
        aligned, fit = align_global(z, pts)
        assert fit.mode == "scale_shift"
        assert not aligned.valid[0, 0]
        assert aligned.valid[0, 1] and aligned.valid[0, 2]

    def test_no_usable_points(self):
        vals = np.array([[0.5, 0.6]])
        z = DepthRaster(vals, np.array([[False, False]]), Space.AFFINE)
        with pytest.raises(InsufficientPointsError, match="no sparse points fall on valid pixels"):
            align_global(z, SparsePointSet([(0, 0, 2.0)]))

    def test_no_points_says_none_were_given(self):
        with pytest.raises(InsufficientPointsError, match="^no sparse points given$"):
            align_global(affine_raster([[0.5, 0.6]]), SparsePointSet([]))

    def test_failed_fallback_names_the_joint_reason(self):
        z = affine_raster([[0.0, 0.0]])
        with pytest.raises(AlignmentFailureError, match=r"joint fit unusable \(z variance .*\)"):
            align_global(z, SparsePointSet([(0, 0, 2.0), (1, 0, 2.0)]))


class TestLaserScale:
    rig = LaserRig(fx=500.0, cx=320.0, baseline_m=0.1)

    def test_direct_substitution(self):
        s = laser_scale((300, 1.0), (340, 1.0), self.rig)
        assert s == pytest.approx(0.8, abs=1e-15)

    def test_homogeneity(self):
        s1 = laser_scale((300, 1.0), (340, 1.0), self.rig)
        s2 = laser_scale((300, 2.0), (340, 2.0), self.rig)
        assert s2 == pytest.approx(s1 / 2.0, rel=1e-15)

    def test_principal_point_shift_invariance(self):
        shifted = LaserRig(fx=500.0, cx=320.0 + 17.0, baseline_m=0.1)
        s1 = laser_scale((300, 1.0), (340, 1.0), self.rig)
        s2 = laser_scale((300 + 17, 1.0), (340 + 17, 1.0), shifted)
        assert s2 == pytest.approx(s1, rel=1e-15)

    def test_inconsistent_geometry(self):
        with pytest.raises(InconsistentMeasurementsError):
            laser_scale((340, 1.0), (300, 1.0), self.rig)

    def test_align_with_laser_scales_raster(self):
        # plane at depth d, shift-free relative map v = s_true*z; geometry chosen
        # so both projections land exactly on integer pixels:
        # u = cx + fx*(+-B/2)/d = 20 +- 80*0.1/2 = 20 +- 4
        d, s_true, baseline = 2.0, 1.6, 0.2
        z = affine_raster(np.full((10, 40), (1.0 / d) / s_true))
        pts = SparsePointSet([(16, 5, d), (24, 5, d)])
        aligned, fit = align_with_laser(z, pts, LaserRig(fx=80.0, cx=20.0, baseline_m=baseline))
        assert fit.mode == "laser_baseline"
        assert fit.s == pytest.approx(s_true, abs=1e-6)
        assert np.allclose(aligned.values, 1.0 / d, atol=1e-9)


@pytest.mark.parametrize("space", [Space.METRIC, Space.INVERSE])
@pytest.mark.parametrize("fit", [align_global, align_with_laser], ids=lambda f: f.__name__)
def test_fit_refuses_a_raster_that_is_not_affine_invariant(fit, space):
    values = np.full((10, 40), 0.3)
    z = DepthRaster(values, np.ones_like(values, dtype=bool), space)
    args = (z, SparsePointSet([(16, 5, 2.0), (24, 5, 2.0)]))
    if fit is align_with_laser:
        args += (LaserRig(fx=80.0, cx=20.0, baseline_m=0.2),)
    with pytest.raises(DomainError, match=f"^{fit.__name__} expects an affine-invariant raster, got {space.value}$"):
        fit(*args)
