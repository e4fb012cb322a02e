import numpy as np
import pytest

from spade.core import DepthRaster, Space
from spade.errors import DomainError, EmptyEvaluationError, ShapeError
from spade.metrics import aggregate_metrics, compute_metrics, score_pairs


def metric_raster(values, valid=None):
    values = np.asarray(values, dtype=np.float64)
    if valid is None:
        valid = np.ones_like(values, dtype=bool)
    return DepthRaster(values, valid, Space.METRIC)


def metrics_oracle(pred, gt, mask):
    """Independent per-formula evaluation on flattened arrays."""
    d_hat, d = pred[mask], gt[mask]
    e = np.log(d_hat) - np.log(d)
    alpha = -e.mean()
    return {
        "mae": np.abs(d_hat - d).mean(),
        "rmse": np.sqrt(((d_hat - d) ** 2).mean()),
        "absrel": (np.abs(d_hat - d) / d).mean(),
        "silog": np.sqrt(((e + alpha) ** 2).mean()),
        "imae": np.abs(1 / d_hat - 1 / d).mean(),
    }


def random_pair(seed, shape=(12, 14)):
    rng = np.random.default_rng(seed)
    gt = rng.uniform(0.5, 9.0, shape)
    pred = gt * rng.uniform(0.8, 1.25, shape)
    return metric_raster(pred), metric_raster(gt)


class TestComputeMetrics:
    def test_identity_gives_zeros(self):
        pred, gt = random_pair(0)
        rep = compute_metrics(gt, gt, cap_m=10.0)
        for key in ("mae", "rmse", "absrel", "silog", "imae"):
            assert getattr(rep, key) == pytest.approx(0.0, abs=1e-12)

    def test_constant_scaling_zeroes_silog(self):
        _, gt = random_pair(1)
        for c in (0.5, 2.0, 10.0):
            rep = compute_metrics(metric_raster(c * gt.values), gt, cap_m=100.0)
            assert rep.silog == pytest.approx(0.0, abs=1e-9)

    def test_silog_scale_invariance(self):
        pred, gt = random_pair(2)
        base = compute_metrics(pred, gt, cap_m=10.0).silog
        for c in (0.5, 2.0, 10.0):
            scaled = compute_metrics(metric_raster(c * pred.values), gt, cap_m=10.0).silog
            assert abs(scaled - base) <= 1e-9

    def test_matches_oracle(self):
        pred, gt = random_pair(3)
        cap = 8.0
        rep = compute_metrics(pred, gt, cap_m=cap)
        mask = gt.valid & (gt.values > 0) & (gt.values <= cap) & pred.valid
        want = metrics_oracle(pred.values, gt.values, mask)
        for key, val in want.items():
            assert getattr(rep, key) == pytest.approx(val, abs=1e-12)
        assert rep.valid_px == int(mask.sum())

    def test_range_cap_excludes_far_pixels(self):
        gt = metric_raster([[1.0, 9.0]])
        pred = metric_raster([[2.0, 1.0]])
        rep = compute_metrics(pred, gt, cap_m=5.0)
        assert rep.valid_px == 1
        assert rep.mae == pytest.approx(1.0)

    def test_empty_mask_raises(self):
        gt = metric_raster([[6.0, 7.0]])
        pred = metric_raster([[6.0, 7.0]])
        with pytest.raises(EmptyEvaluationError):
            compute_metrics(pred, gt, cap_m=1.0)

    def test_invalid_gt_excluded(self):
        gt = metric_raster([[1.0, 1.0]], valid=[[True, False]])
        pred = metric_raster([[1.5, 99.0]])
        rep = compute_metrics(pred, gt, cap_m=10.0)
        assert rep.valid_px == 1
        assert rep.mae == pytest.approx(0.5)

    def test_wrong_space_rejected(self):
        gt = metric_raster([[1.0]])
        inv = DepthRaster(np.array([[1.0]]), np.ones((1, 1), bool), Space.INVERSE)
        with pytest.raises(DomainError):
            compute_metrics(inv, gt, cap_m=10.0)


class TestAggregate:
    def test_unweighted_mean_of_frames(self):
        reports = [
            compute_metrics(*random_pair(seed), cap_m=10.0) for seed in (4, 5, 6)
        ]
        agg = aggregate_metrics(reports)
        assert agg.frame_count == 3
        assert agg.mae == pytest.approx(np.mean([r.mae for r in reports]), abs=1e-15)
        assert agg.valid_px == sum(r.valid_px for r in reports)

    def test_mixed_caps_rejected(self):
        a = compute_metrics(*random_pair(7), cap_m=10.0)
        b = compute_metrics(*random_pair(8), cap_m=5.0)
        with pytest.raises(DomainError):
            aggregate_metrics([a, b])

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvaluationError):
            aggregate_metrics([])


class TestScorePairs:
    def test_frame_with_no_pixel_under_the_cap_is_skipped_with_the_reason(self):
        near, far = random_pair(1), (metric_raster([[20.0]]), metric_raster([[30.0]]))
        scored, skipped = score_pairs([("a", *near), ("b", *far)], cap_m=10.0)
        assert scored == [("a", compute_metrics(*near, cap_m=10.0))]
        with pytest.raises(EmptyEvaluationError) as err:
            compute_metrics(*far, cap_m=10.0)
        assert skipped == [("b", str(err.value))]

    @pytest.mark.parametrize(
        "pred, error, message",
        [
            (metric_raster([[1.0, 2.0]]), ShapeError, "frame b: prediction (1, 2) vs ground truth (1, 1)"),
            (
                DepthRaster(np.array([[1.0]]), np.ones((1, 1), bool), Space.INVERSE),
                DomainError,
                "frame b: metrics need metric depth, got inverse_depth_per_m vs metric_depth_m",
            ),
        ],
        ids=["shape", "space"],
    )
    def test_other_faults_are_raised_naming_the_frame(self, pred, error, message):
        pairs = [("a", *random_pair(1)), ("b", pred, metric_raster([[1.0]]))]
        with pytest.raises(error) as err:
            score_pairs(pairs, cap_m=10.0)
        assert str(err.value) == message
