import hashlib

import numpy as np
import pytest

from spade.config import from_json
from spade.core import DepthRaster, LaserRig, Space, SparsePointSet, write_points
from spade.errors import ConfigError, DomainError
from spade.sensors import SNAP_RADIUS, PatternSpec, _collect, sample_pattern, subsample


def metric(values, valid=None):
    values = np.asarray(values, dtype=np.float64)
    if valid is None:
        valid = np.ones_like(values, dtype=bool)
    return DepthRaster(values, valid, Space.METRIC)


def bumpy(seed=0, shape=(20, 30)):
    rng = np.random.default_rng(seed)
    return metric(rng.uniform(1.0, 4.0, shape))


class TestUniformGrid:
    def test_centered_rule_on_10x10(self):
        gt = metric(np.full((10, 10), 2.0))
        pts = sample_pattern(gt, PatternSpec(kind="uniform_grid", grid_rows=2, grid_cols=2))
        got = sorted((u, v) for u, v, _ in pts)
        assert got == [(2, 2), (2, 7), (7, 2), (7, 7)]

    def test_depths_equal_gt_exactly(self):
        gt = bumpy(1)
        pts = sample_pattern(gt, PatternSpec(kind="uniform_grid", grid_rows=4, grid_cols=5))
        for u, v, d in pts:
            assert d == gt.values[v, u]


class TestDVL4:
    def test_centered_square(self):
        gt = metric(np.full((100, 100), 2.0))
        pts = sample_pattern(gt, PatternSpec(kind="dvl4", dvl_fraction=0.2))
        got = sorted((u, v) for u, v, _ in pts)
        assert got == [(40, 40), (40, 60), (60, 40), (60, 60)]


class TestSonarLine:
    def test_rows_jitter_within_band(self):
        gt = bumpy(2)
        spec = PatternSpec(kind="sonar_line", count=12, sonar_jitter=3, seed=5)
        pts = sample_pattern(gt, spec)
        r0 = gt.shape[0] // 2
        assert len(pts) >= 10  # jitter collisions may drop a couple
        for _, v, _ in pts:
            assert abs(v - r0) <= 3


class TestPatternBounds:
    """Counts beyond the raster are refused before anything is allocated for them."""

    def test_sonar_count_above_the_pixel_count_is_refused(self):
        gt = metric(np.full((8, 8), 2.0))
        assert len(sample_pattern(gt, PatternSpec(kind="sonar_line", count=64, sonar_jitter=7))) > 8
        with pytest.raises(ConfigError, match="sonar_line count 65 exceeds the 8x8 raster's 64 pixels"):
            sample_pattern(gt, PatternSpec(kind="sonar_line", count=65))

    @pytest.mark.parametrize("rows, cols", [(9, 8), (8, 9)])
    def test_grid_larger_than_the_raster_is_refused(self, rows, cols):
        gt = metric(np.full((8, 8), 2.0))
        assert len(sample_pattern(gt, PatternSpec(kind="uniform_grid", grid_rows=8, grid_cols=8))) == 64
        with pytest.raises(ConfigError, match=f"uniform_grid {rows}x{cols} exceeds the 8x8 raster"):
            sample_pattern(gt, PatternSpec(kind="uniform_grid", grid_rows=rows, grid_cols=cols))


class TestFeatureLike:
    def test_count_and_determinism(self):
        gt = bumpy(3)
        spec = PatternSpec(kind="feature_like", count=40, seed=9)
        a = sample_pattern(gt, spec)
        b = sample_pattern(gt, spec)
        assert len(a) == 40
        assert list(a) == list(b)

    def test_count_exceeding_valid_pixels(self):
        gt = metric(np.full((4, 4), 2.0))
        with pytest.raises(ConfigError):
            sample_pattern(gt, PatternSpec(kind="feature_like", count=17))

    def test_clusters_on_gradients(self):
        vals = np.full((30, 30), 2.0)
        vals[:, 15:] = 3.0  # single depth edge
        gt = metric(vals)
        pts = sample_pattern(gt, PatternSpec(kind="feature_like", count=30, seed=1))
        near_edge = sum(1 for u, _, _ in pts if 13 <= u <= 16)
        assert near_edge >= 20

    @pytest.mark.parametrize("texture", ["gt", "guide"])
    def test_hole_fill_values_never_reach_the_weights(self, texture):
        # an invalid block is legal whatever it holds, NaN included; the points
        # drawn must not depend on what it holds
        rng = np.random.default_rng(4)
        values, guide_values = rng.uniform(1.0, 4.0, (2, 30, 40))
        valid = np.ones((30, 40), dtype=bool)
        valid[10:20, 10:20] = False
        drawn = []
        for fill in (np.nan, 0.0, 1e6):
            holed = np.where(valid, values if texture == "gt" else guide_values, fill)
            gt = metric(holed, valid) if texture == "gt" else metric(values)
            guide = metric(holed, valid) if texture == "guide" else None
            pts = sample_pattern(gt, PatternSpec(kind="feature_like", count=60, seed=2), guide=guide)
            assert all(gt.valid[v, u] and np.isfinite(d) for u, v, d in pts)
            drawn.append([(u, v) for u, v, _ in pts])
        assert len(drawn[0]) == 60 and drawn[0] == drawn[1] == drawn[2]


class TestLaser2:
    def test_plane_beyond_cutoff_gives_empty_set(self):
        gt = metric(np.full((21, 40), 4.0))
        spec = PatternSpec(kind="laser2", laser_max_range_m=3.0)
        assert len(sample_pattern(gt, spec, laser=LaserRig(fx=80.0, cx=20.0, baseline_m=0.1))) == 0

    def test_exact_projection_pixels(self):
        # plane at 2 m: u = cx + fx*(+-B/2)/d = 20 -+ 4
        gt = metric(np.full((21, 40), 2.0))
        pts = sample_pattern(gt, PatternSpec(kind="laser2"), laser=LaserRig(fx=80.0, cx=20.0, baseline_m=0.2))
        got = sorted((u, v) for u, v, _ in pts)
        assert got == [(16, 10), (24, 10)]

    def test_intrinsics_required(self):
        gt = metric(np.full((10, 10), 2.0))
        with pytest.raises(ConfigError):
            sample_pattern(gt, PatternSpec(kind="laser2"))


class TestSnapping:
    def test_invalid_pixel_snaps_to_nearest_valid(self):
        vals = np.full((10, 10), 2.0)
        valid = np.ones((10, 10), dtype=bool)
        valid[2, 2] = False  # grid point lands here
        gt = metric(vals, valid)
        pts = sample_pattern(gt, PatternSpec(kind="uniform_grid", grid_rows=2, grid_cols=2))
        coords = {(u, v) for u, v, _ in pts}
        assert (2, 2) not in coords
        assert len(pts) == 4
        assert any(max(abs(u - 2), abs(v - 2)) <= 3 for u, v in coords)

    @staticmethod
    def snap_reference(valid, u, v):
        """Ring by ring outward; within a ring the least squared distance, ties to the first in row-major order."""
        h, w = valid.shape
        for r in range(SNAP_RADIUS + 1):
            ring = [
                (du * du + dv * dv, u + du, v + dv)
                for dv in range(-r, r + 1)
                for du in range(-r, r + 1)
                if max(abs(du), abs(dv)) == r and 0 <= u + du < w and 0 <= v + dv < h and valid[v + dv, u + du]
            ]
            if ring:
                best = min(d2 for d2, _, _ in ring)
                return next((uu, vv) for d2, uu, vv in ring if d2 == best)
        return None

    def test_snap_matches_the_ring_by_ring_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(3000):
            h, w = rng.integers(1, 12, size=2)
            valid = rng.random((h, w)) < rng.choice([0.02, 0.1, 0.3, 0.7])
            gt = metric(np.full((h, w), 2.0), valid)
            u, v = int(rng.integers(w)), int(rng.integers(h))
            assert next(((uu, vv) for uu, vv, _ in _collect(gt, [u], [v])), None) == self.snap_reference(valid, u, v)

    def test_unreachable_point_dropped(self):
        valid = np.zeros((10, 10), dtype=bool)
        valid[9, 9] = True
        gt = metric(np.full((10, 10), 2.0), valid)
        pts = sample_pattern(gt, PatternSpec(kind="uniform_grid", grid_rows=2, grid_cols=2))
        assert {(u, v) for u, v, _ in pts} <= {(9, 9)}


def holed_gt():
    """40x60 ground truth with a 16x24 hole, wider than the snap window, and 15% scattered holes."""
    rng = np.random.default_rng(31)
    values = rng.uniform(1.0, 4.0, (40, 60))
    valid = rng.random((40, 60)) > 0.15
    valid[12:28, 8:32] = False
    return metric(np.where(valid, values, np.nan), valid)


# kind: (spec, rig, points kept, pattern points dropped, SHA-256 of the written CSV);
# the digests pin every point, so snapping, dropping and de-duplication must not move one
PINNED = {
    "feature_like": (PatternSpec(kind="feature_like", count=150, seed=3), None, 150, 0,
                     "b163e766986f008fcc8c0dd1bd382ff0bb1b53bfe94c88019c3154eb86a1ad67"),
    # 192 grid pixels, 53 of them invalid: 15 dropped, 5 snapped onto a pixel already kept
    "uniform_grid": (PatternSpec(kind="uniform_grid", grid_rows=12, grid_cols=16), None, 172, 15,
                     "a55a8449e2cd4edf9128e018b3373a9dd00f64e61818477cb0271f8566ff1709"),
    # 120 pixels on 60 columns through the hole, 65 invalid: 36 dropped, 16 repeats
    "sonar_line": (PatternSpec(kind="sonar_line", count=120, sonar_row=20, sonar_jitter=4, seed=5), None, 68, 36,
                   "802746f353d36ea59f9fb69ceedf2cf8e036750330dae868ae1558e4b83bdebd"),
    # one corner on an invalid pixel, snapped
    "dvl4": (PatternSpec(kind="dvl4", dvl_fraction=0.6), None, 4, 0,
             "08e8da231dfdca166aebf64d9a3f8ee35a027beb96722ca1bf5c3347320516d2"),
    "laser2": (PatternSpec(kind="laser2", laser_row=20, laser_max_range_m=5.0), LaserRig(60.0, 29.5, 0.5), 2, 0,
               "117ab1351ac7d2a3a0cd1d019b7803440c33b9e20ab41911714981fee0e06b29"),
}


@pytest.mark.parametrize("kind", PINNED)
def test_patterns_on_holed_ground_truth_write_their_pinned_bytes(kind, tmp_path, caplog):
    spec, rig, kept, dropped, digest = PINNED[kind]
    gt = holed_gt()
    with caplog.at_level("WARNING", logger="spade.sensors"):
        pts = sample_pattern(gt, spec, laser=rig)
    assert len(pts) == kept
    drops = [r.getMessage() for r in caplog.records]
    assert drops == ([f"dropped {dropped} pattern points with no valid pixel within radius 3"] if dropped else [])
    assert all(gt.valid[v, u] and d == gt.values[v, u] for u, v, d in pts)
    write_points(pts, tmp_path / "p.csv")
    assert hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest() == digest


class TestSubsample:
    def make(self, n=250, seed=0):
        rng = np.random.default_rng(seed)
        idx = rng.choice(60 * 60, size=n, replace=False)
        return SparsePointSet([(int(i % 60), int(i // 60), float(1.0 + (i % 7))) for i in idx])

    def test_keep_all_is_identity_set(self):
        pts = self.make(50)
        out = subsample(pts, 50, seed=3)
        assert set(out) == set(pts)

    def test_same_seed_identical(self):
        pts = self.make(100)
        a = subsample(pts, 40, seed=7)
        b = subsample(pts, 40, seed=7)
        assert list(a) == list(b)

    def test_nested_across_counts(self):
        pts = self.make(200)
        keeps = [200, 100, 50, 10]
        sets = [set(subsample(pts, k, seed=11)) for k in keeps]
        for bigger, smaller in zip(sets, sets[1:]):
            assert smaller <= bigger

    def test_keep_too_many(self):
        with pytest.raises(DomainError):
            subsample(self.make(10), 11, seed=0)


class TestSpecJson:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            from_json(PatternSpec, {"kind": "dvl4", "bogus": 1})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            PatternSpec(kind="lidar")
