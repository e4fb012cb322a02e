import warnings

import numpy as np
import pytest

from spade import core, densify
from spade.core import DepthRaster, ScaleMap, Space, SparsePointSet
from spade.densify import JBUParams, fill_default, jbu_densify, sparse_scale_map
from spade.errors import ConfigError, DomainError, NumericError


def inverse_raster(values, valid=None):
    values = np.asarray(values, dtype=np.float64)
    if valid is None:
        valid = np.ones_like(values, dtype=bool)
    return DepthRaster(values, valid, Space.INVERSE)


def jbu_oracle(values, known, guide, radius, sig_s, sig_r):
    """Direct double-loop evaluation of the bilateral propagation sum."""
    h, w = guide.shape
    out = np.zeros((h, w))
    covered = np.zeros((h, w), dtype=bool)
    for py in range(h):
        for px in range(w):
            num = den = 0.0
            for qy in range(max(0, py - radius), min(h, py + radius + 1)):
                for qx in range(max(0, px - radius), min(w, px + radius + 1)):
                    if not known[qy, qx]:
                        continue
                    f = np.exp(-((py - qy) ** 2 + (px - qx) ** 2) / (2 * sig_s**2))
                    g = np.exp(-((guide[py, px] - guide[qy, qx]) ** 2) / (2 * sig_r**2))
                    num += values[qy, qx] * f * g
                    den += f * g
            if den >= 1e-300:
                out[py, px] = num / den
                covered[py, px] = True
    return out, covered


def jbu_shifted_reference(eps, z_tilde, params):
    """The gather formulation: one shifted full-image pass per window offset."""
    r = params.window_radius
    inv2ss = 1.0 / (2.0 * params.sigma_spatial**2)
    inv2sr = 1.0 / (2.0 * params.sigma_range**2)
    h, w = eps.shape
    guide = z_tilde.values
    kmask = eps.known & z_tilde.valid
    vals = np.where(kmask, eps.values, 0.0)
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    for dy in range(-r, r + 1):
        ys = slice(max(dy, 0), h + min(dy, 0))
        yd = slice(max(-dy, 0), h + min(-dy, 0))
        for dx in range(-r, r + 1):
            xs = slice(max(dx, 0), w + min(dx, 0))
            xd = slice(max(-dx, 0), w + min(-dx, 0))
            f = np.exp(-(dy * dy + dx * dx) * inv2ss)
            dz = guide[yd, xd] - guide[ys, xs]
            wgt = kmask[ys, xs] * f * np.exp(-(dz * dz) * inv2sr)
            num[yd, xd] += wgt * vals[ys, xs]
            den[yd, xd] += wgt
    ok = (den >= 1e-300) & z_tilde.valid
    out = np.zeros((h, w))
    np.divide(num, den, out=out, where=ok)
    return ScaleMap(out, eps.known & ok, filled=ok)


class TestSparseScaleMap:
    def test_factor_one_when_aligned(self):
        zt = inverse_raster([[0.5]])
        eps = sparse_scale_map(SparsePointSet([(0, 0, 2.0)]), zt)
        assert eps.values[0, 0] == 1.0
        assert eps.known[0, 0]

    def test_factor_two(self):
        zt = inverse_raster([[0.25]])
        eps = sparse_scale_map(SparsePointSet([(0, 0, 2.0)]), zt)
        assert eps.values[0, 0] == 2.0

    def test_known_exactly_at_points(self):
        zt = inverse_raster(np.full((4, 4), 0.5))
        eps = sparse_scale_map(SparsePointSet([(1, 2, 2.0), (3, 0, 4.0)]), zt)
        assert eps.known.sum() == 2
        assert eps.known[2, 1] and eps.known[0, 3]

    def test_true_alignment_gives_identity_field(self):
        rng = np.random.default_rng(5)
        gt = rng.uniform(1.0, 4.0, size=(8, 8))
        zt = inverse_raster(1.0 / gt)
        pts = SparsePointSet([(u, v, float(gt[v, u])) for u, v in [(0, 0), (3, 5), (7, 7), (2, 6)]])
        eps = sparse_scale_map(pts, zt)
        assert np.allclose(eps.values[eps.known], 1.0, atol=1e-12)

    def test_invalid_guide_rejected(self):
        zt = inverse_raster([[0.5, 0.5]], valid=[[True, False]])
        with pytest.raises(DomainError):
            sparse_scale_map(SparsePointSet([(1, 0, 2.0)]), zt)


class TestJBU:
    def test_single_known_value_propagates_exactly(self):
        h = w = 9
        vals = np.zeros((h, w))
        known = np.zeros((h, w), dtype=bool)
        vals[4, 4], known[4, 4] = 2.0, True
        zt = inverse_raster(np.full((h, w), 0.5))
        out = jbu_densify(ScaleMap(vals, known), zt, JBUParams(4, 2.0, 0.1))
        assert out.values[4, 4] == pytest.approx(2.0, abs=1e-15)
        assert np.all(out.values[out.filled] == pytest.approx(2.0, abs=1e-15))
        assert not out.filled[0, 8] or abs(out.values[0, 8] - 2.0) < 1e-12

    def test_symmetric_pair_midpoint(self):
        vals = np.zeros((1, 7))
        known = np.zeros((1, 7), dtype=bool)
        vals[0, 1], known[0, 1] = 1.0, True
        vals[0, 5], known[0, 5] = 3.0, True
        zt = inverse_raster(np.full((1, 7), 0.4))
        out = jbu_densify(ScaleMap(vals, known), zt, JBUParams(3, 1.5, 0.2))
        assert out.values[0, 3] == pytest.approx(2.0, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            h, w = rng.integers(5, 12, size=2)
            known = rng.random((h, w)) < 0.15
            vals = np.where(known, rng.uniform(0.5, 3.0, (h, w)), 0.0)
            guide = rng.uniform(0.2, 1.5, (h, w))
            zt = inverse_raster(guide)
            p = JBUParams(2, 1.3, 0.25)
            out = jbu_densify(ScaleMap(vals, known), zt, p)
            ref, covered = jbu_oracle(vals, known, guide, p.window_radius, p.sigma_spatial, p.sigma_range)
            assert np.array_equal(out.filled, covered)
            assert np.max(np.abs(out.values - ref)) <= 1e-12

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(23)
        h, w, r = 16, 16, 3
        known = rng.random((h, w)) < 0.2
        vals = np.where(known, rng.uniform(0.5, 3.0, (h, w)), 0.0)
        guide = rng.uniform(0.2, 1.5, (h, w))
        out = jbu_densify(ScaleMap(vals, known), inverse_raster(guide), JBUParams(r, 2.0, 0.3))
        for py in range(h):
            for px in range(w):
                if not out.filled[py, px]:
                    continue
                win = vals[max(0, py - r) : py + r + 1, max(0, px - r) : px + r + 1]
                kw = known[max(0, py - r) : py + r + 1, max(0, px - r) : px + r + 1]
                lo, hi = win[kw].min(), win[kw].max()
                assert lo - 1e-12 <= out.values[py, px] <= hi + 1e-12

    def test_infinite_range_sigma_is_plain_gaussian_splat(self):
        rng = np.random.default_rng(2)
        h = w = 8
        known = rng.random((h, w)) < 0.3
        vals = np.where(known, rng.uniform(0.5, 2.0, (h, w)), 0.0)
        guide = rng.uniform(0.2, 1.5, (h, w))
        big = jbu_densify(ScaleMap(vals, known), inverse_raster(guide), JBUParams(3, 2.0, 1e9))
        flat = jbu_densify(ScaleMap(vals, known), inverse_raster(np.full((h, w), 0.7)), JBUParams(3, 2.0, 1.0))
        assert np.allclose(big.values, flat.values, atol=1e-9)

    def test_tiny_range_sigma_keeps_equal_guide_only(self):
        vals = np.array([[2.0, 0.0, 3.0]])
        known = np.array([[True, False, True]])
        guide = np.array([[0.4, 0.4, 0.9]])
        out = jbu_densify(ScaleMap(vals, known), inverse_raster(guide), JBUParams(2, 2.0, 1e-9))
        # middle pixel shares its guide value only with the left neighbour
        assert out.values[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_invalid_guide_pixels_stay_empty(self):
        vals = np.array([[2.0, 0.0, 0.0]])
        known = np.array([[True, False, False]])
        valid = np.array([[True, True, False]])
        zt = inverse_raster(np.array([[0.5, 0.5, 0.0]]), valid=valid)
        out = jbu_densify(ScaleMap(vals, known), zt, JBUParams(2, 2.0, 0.5))
        assert out.filled[0, 1]
        assert not out.filled[0, 2]

    def test_normalizer_underflow_treated_as_no_neighbour(self):
        # a known value two pixels away with a microscopic spatial sigma:
        # its weight underflows to 0, which must not produce NaN
        vals = np.array([[2.0, 0.0, 0.0]])
        known = np.array([[True, False, False]])
        zt = inverse_raster(np.full((1, 3), 0.5))
        out = jbu_densify(ScaleMap(vals, known), zt, JBUParams(2, 1e-3, 0.5))
        assert np.all(np.isfinite(out.values))
        assert not out.filled[0, 2]
        assert out.values[0, 2] == 0.0
        assert out.values[0, 0] == 2.0  # self-weight is exp(0) = 1

    @staticmethod
    def _assert_same_as_shifted(eps, zt, params):
        out = jbu_densify(eps, zt, params)
        ref = jbu_shifted_reference(eps, zt, params)
        assert np.array_equal(out.values, ref.values)
        assert np.array_equal(out.known, ref.known)
        assert np.array_equal(out.filled, ref.filled)

    def test_scatter_bit_identical_to_shifted_passes(self):
        rng = np.random.default_rng(31)
        for trial in range(12):
            h, w = (int(v) for v in rng.integers(6, 40, size=2))
            known = rng.random((h, w)) < rng.uniform(0.01, 0.3)
            # known points on every border
            known[0, rng.integers(w)] = known[-1, rng.integers(w)] = True
            known[rng.integers(h), 0] = known[rng.integers(h), -1] = True
            vals = np.where(known, rng.uniform(0.3, 3.0, (h, w)), 0.0)
            valid = rng.random((h, w)) > 0.15
            valid[0, 0] = False
            known[0, 0] = True  # a measured point on an invalid guide pixel
            vals[0, 0] = 2.5
            guide = np.where(valid, rng.uniform(0.2, 1.5, (h, w)), 0.0)
            params = JBUParams(int(rng.integers(1, 8)), rng.uniform(0.8, 4.0), rng.uniform(0.05, 0.5))
            self._assert_same_as_shifted(ScaleMap(vals, known), inverse_raster(guide, valid), params)

    def test_scatter_no_known_pixels(self):
        zt = inverse_raster(np.full((9, 11), 0.5))
        eps = ScaleMap(np.zeros((9, 11)), np.zeros((9, 11), bool))
        self._assert_same_as_shifted(eps, zt, JBUParams())
        assert not jbu_densify(eps, zt).filled.any()

    def test_scatter_window_larger_than_image(self):
        # the shifted passes need every offset to fit in the image, so the
        # reference runs on a copy padded with unknown, invalid pixels (which
        # add exact zeros) and is cropped back
        rng = np.random.default_rng(32)
        h, w, r, pad = 3, 4, 9, 9
        known = rng.random((h, w)) < 0.5
        known[1, 2] = True
        vals = np.where(known, rng.uniform(0.5, 2.0, (h, w)), 0.0)
        guide = rng.uniform(0.2, 1.5, (h, w))
        params = JBUParams(r, 3.0, 0.2)
        out = jbu_densify(ScaleMap(vals, known), inverse_raster(guide), params)

        def padded(a):
            return np.pad(a, pad)

        inner = (slice(pad, pad + h), slice(pad, pad + w))
        ref = jbu_shifted_reference(
            ScaleMap(padded(vals), padded(known)),
            inverse_raster(padded(guide), padded(np.ones((h, w), bool))),
            params,
        )
        assert np.array_equal(out.values, ref.values[inner])
        assert np.array_equal(out.known, ref.known[inner])
        assert np.array_equal(out.filled, ref.filled[inner])
        assert out.filled.all()

    def test_radius_is_clamped_to_the_image_extent(self):
        # (2r+1)^2 offsets for r = 10^6 could not even be allocated: the clamp
        # must come before any array is built
        rng = np.random.default_rng(33)
        h, w = 5, 9
        known = rng.random((h, w)) < 0.3
        known[2, 4] = True
        vals = np.where(known, rng.uniform(0.5, 2.0, (h, w)), 0.0)
        eps, guide = ScaleMap(vals, known), inverse_raster(rng.uniform(0.2, 1.5, (h, w)))
        huge = jbu_densify(eps, guide, JBUParams(10**6, 3.0, 0.2))
        extent = jbu_densify(eps, guide, JBUParams(max(h, w), 3.0, 0.2))
        assert huge.values.tobytes() == extent.values.tobytes()
        assert np.array_equal(huge.filled, extent.filled) and np.array_equal(huge.known, extent.known)

    @pytest.mark.parametrize("budget", [4 << 10, 64 << 10])
    def test_offset_blocks_match_one_block(self, monkeypatch, budget):
        # blocks sum each pixel's terms in another order, so only rounding moves
        rng = np.random.default_rng(34)
        h, w = 24, 32
        known = rng.random((h, w)) < 0.08
        valid = rng.random((h, w)) > 0.1
        eps = ScaleMap(np.where(known, rng.uniform(0.5, 2.0, (h, w)), 0.0), known)
        guide = inverse_raster(np.where(valid, rng.uniform(0.2, 1.5, (h, w)), 0.0), valid)
        params = JBUParams(6, 2.5, 0.3)
        walks, walk = [], densify.budget_slices
        monkeypatch.setattr(densify, "budget_slices", lambda n, item_bytes: walks.append(walk(n, item_bytes)) or walks[-1])
        whole = jbu_densify(eps, guide, params)
        monkeypatch.setattr(core, "BYTE_BUDGET", budget)
        blocks = jbu_densify(eps, guide, params)
        assert len(walks[0]) == 1 and len(walks[1]) > 1, [len(s) for s in walks]
        assert np.array_equal(blocks.filled, whole.filled) and np.array_equal(blocks.known, whole.known)
        np.testing.assert_allclose(blocks.values, whole.values, rtol=1e-13, atol=0)

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            JBUParams(0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            JBUParams(2, -1.0, 1.0)


class TestFloatRange:
    """Inputs past the float64 range end in a true error or a right value, never a numpy warning."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_factor_overflow_is_named(self):
        with pytest.raises(DomainError, match=r"\(u=1, v=1\) is inf, outside the positive float64 range"):
            sparse_scale_map(SparsePointSet([(1, 1, 1e-300)]), inverse_raster(np.full((4, 4), 1e-10)))

    def test_far_guide_value_gets_weight_zero(self):
        guide = np.ones((4, 4))
        guide[0, 1] = 1e200  # its squared difference to any ordinary value overflows
        known = np.zeros((4, 4), dtype=bool)
        known[0, 0] = known[0, 1] = True
        eps = ScaleMap(np.where(known, [[2.0, 3.0, 0, 0]] * 4, 0.0), known)
        out = jbu_densify(eps, inverse_raster(guide), JBUParams(2, 1.0, 0.1))
        assert out.values[0, 1] == 3.0
        assert np.all(out.values[out.filled & (guide == 1.0)] == 2.0)

    def test_weighted_sum_overflow_is_named(self):
        eps = ScaleMap(np.full((4, 4), 1e308), np.ones((4, 4), dtype=bool))
        with pytest.raises(NumericError, match=r"pixel \(u=0, v=0\) overflowed in float64"):
            jbu_densify(eps, inverse_raster(np.ones((4, 4))))


class TestFillDefault:
    def test_all_zero_becomes_ones(self):
        out = fill_default(ScaleMap(np.zeros((3, 3)), np.zeros((3, 3), bool)))
        assert np.all(out.values == 1.0)

    def test_only_zeros_replaced(self):
        vals = np.zeros((2, 2))
        known = np.zeros((2, 2), bool)
        vals[0, 1], known[0, 1] = 2.0, True
        out = fill_default(ScaleMap(vals, known))
        assert out.values[0, 1] == 2.0
        assert out.values[1, 1] == 1.0
        assert np.array_equal(out.known, known)

    def test_no_zeros_after_fill_and_idempotent(self):
        rng = np.random.default_rng(9)
        vals = np.where(rng.random((6, 6)) < 0.4, rng.uniform(0.5, 2.0, (6, 6)), 0.0)
        m = ScaleMap(vals, vals > 0)
        once = fill_default(m)
        twice = fill_default(once)
        assert np.all(once.values != 0.0)
        assert np.array_equal(once.values, twice.values)
