import numpy as np
import pytest

from spade.errors import DomainError, EmptyEvaluationError
from spade.losses import (
    GRAD_WEIGHT,
    SILOG_BETA,
    SILOG_LAMBDA,
    loss_grad,
    loss_rmse,
    loss_silog,
    loss_total,
)
from spade.nn import Tensor
from spade.nn.gradcheck import fd_gradcheck


def rmse_oracle(pred, target, mask):
    d = pred[mask] - target[mask]
    return np.sqrt((d * d).sum() / mask.sum())


def silog_oracle(pred, target, mask):
    g = np.log(pred[mask]) - np.log(target[mask])
    n = g.size
    return SILOG_BETA * np.sqrt((g * g).sum() / n - SILOG_LAMBDA * (g.sum() / n) ** 2)


def grad_oracle(pred, target, mask, scales=3):
    """Triple-loop restatement of the multi-scale masked gradient loss."""

    def downsample(p, t, m):
        h, w = m.shape
        h2, w2 = h - h % 2, w - w % 2
        po = np.zeros((h2 // 2, w2 // 2))
        to = np.zeros_like(po)
        mo = np.zeros(po.shape, dtype=bool)
        for i in range(h2 // 2):
            for j in range(w2 // 2):
                acc_p = acc_t = cnt = 0.0
                for di in range(2):
                    for dj in range(2):
                        if m[2 * i + di, 2 * j + dj]:
                            acc_p += p[2 * i + di, 2 * j + dj]
                            acc_t += t[2 * i + di, 2 * j + dj]
                            cnt += 1
                if cnt:
                    po[i, j], to[i, j], mo[i, j] = acc_p / cnt, acc_t / cnt, True
        return po, to, mo

    total, used = 0.0, 0
    p, t, m = pred.copy(), target.copy(), mask.copy()
    for _ in range(scales):
        h, w = m.shape
        if h < 2 and w < 2:
            break
        res = np.where(m, t - p, 0.0)
        term = 0.0
        sx, nx = 0.0, 0
        for i in range(h):
            for j in range(w - 1):
                if m[i, j] and m[i, j + 1]:
                    sx += abs(res[i, j + 1] - res[i, j])
                    nx += 1
        if nx:
            term += sx / nx
        sy, ny = 0.0, 0
        for i in range(h - 1):
            for j in range(w):
                if m[i, j] and m[i + 1, j]:
                    sy += abs(res[i + 1, j] - res[i, j])
                    ny += 1
        if ny:
            term += sy / ny
        total += term
        used += 1
        p, t, m = downsample(p, t, m)
    return total / used if used else 0.0


def random_frame(seed, shape=(8, 8), mask_p=0.85):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.2, 1.5, shape)
    target = rng.uniform(0.2, 1.5, shape)
    mask = rng.random(shape) < mask_p
    mask.flat[0] = True  # never empty
    return pred, target, mask


class TestRmse:
    def test_zero_at_identity(self):
        p, t, m = random_frame(0)
        assert loss_rmse(Tensor(t), t, m).item() == 0.0

    def test_hand_arithmetic(self):
        t = np.array([[0.0, 2.0]])
        m = np.ones((1, 2), dtype=bool)
        assert loss_rmse(Tensor(np.array([[1.0, 1.0]])), t, m).item() == pytest.approx(1.0, abs=1e-15)

    def test_matches_oracle(self):
        p, t, m = random_frame(1)
        got = loss_rmse(Tensor(p), t, m).item()
        assert got == pytest.approx(rmse_oracle(p, t, m), abs=1e-12)

    def test_empty_mask(self):
        p, t, _ = random_frame(2)
        with pytest.raises(EmptyEvaluationError):
            loss_rmse(Tensor(p), t, np.zeros_like(t, dtype=bool))


class TestSilog:
    def test_zero_at_identity(self):
        p, t, m = random_frame(3)
        assert loss_silog(Tensor(t), t, m).item() == pytest.approx(0.0, abs=1e-12)

    def test_constant_ratio_closed_form(self):
        _, t, m = random_frame(4)
        got = loss_silog(Tensor(np.e * t), t, m).item()
        assert got == pytest.approx(10.0 * np.sqrt(0.15), abs=1e-9)

    def test_matches_oracle(self):
        p, t, m = random_frame(5)
        got = loss_silog(Tensor(p), t, m).item()
        assert got == pytest.approx(silog_oracle(p, t, m), abs=1e-12)

    def test_nonpositive_rejected(self):
        _, t, m = random_frame(6)
        bad = t.copy()
        i, j = np.argwhere(m)[0]
        bad[i, j] = -1.0
        with pytest.raises(DomainError):
            loss_silog(Tensor(bad), t, m)


class TestGrad:
    def test_zero_at_identity(self):
        p, t, m = random_frame(7)
        assert loss_grad(Tensor(t), t, m).item() == pytest.approx(0.0, abs=1e-12)

    def test_constant_residual_vanishes(self):
        _, t, m = random_frame(8)
        got = loss_grad(Tensor(t + 0.37), t, np.ones_like(m)).item()
        assert got == pytest.approx(0.0, abs=1e-13)

    def test_matches_triple_loop_oracle(self):
        for seed in (9, 10, 11):
            p, t, m = random_frame(seed)
            got = loss_grad(Tensor(p), t, m).item()
            assert got == pytest.approx(grad_oracle(p, t, m), abs=1e-12)

    def test_full_mask_matches_oracle(self):
        p, t, _ = random_frame(12)
        m = np.ones_like(p, dtype=bool)
        got = loss_grad(Tensor(p), t, m).item()
        assert got == pytest.approx(grad_oracle(p, t, m), abs=1e-12)

    def test_tiny_image_scales_skipped(self):
        p = np.array([[0.5, 0.7]])
        t = np.array([[0.4, 0.9]])
        m = np.ones((1, 2), dtype=bool)
        with pytest.warns(UserWarning, match="skipping remaining scales"):
            got = loss_grad(Tensor(p), t, m).item()
        assert got == pytest.approx(grad_oracle(p, t, m), abs=1e-12)


class TestTotal:
    def test_weights_and_invariant(self):
        assert GRAD_WEIGHT == 0.5 and SILOG_LAMBDA == 0.85 and SILOG_BETA == 10.0

    def test_zero_at_identity(self):
        _, t, m = random_frame(14)
        total = loss_total(Tensor(t), t, m)
        assert total.item() == pytest.approx(0.0, abs=1e-12)

    def test_component_recomposition(self):
        p, t, m = random_frame(15)
        total = loss_total(Tensor(p), t, m)
        parts = (
            loss_rmse(Tensor(p), t, m).item()
            + loss_silog(Tensor(p), t, m).item()
            + GRAD_WEIGHT * loss_grad(Tensor(p), t, m).item()
        )
        assert total.item() == pytest.approx(parts, abs=1e-12)


class TestLossGradients:
    def test_all_three_losses_differentiate(self):
        p, t, m = random_frame(16, shape=(6, 6))
        x = Tensor(p, requires_grad=True)
        with pytest.warns(UserWarning, match="skipping remaining scales"):
            for fn in (
                lambda: loss_rmse(x, t, m),
                lambda: loss_silog(x, t, m),
                lambda: loss_grad(x, t, m),
            ):
                worst = fd_gradcheck(fn, [x], max_elems=30, seed=17)
                assert worst <= 1e-4, f"worst {worst:.3e}"


def batch_of_frames(seed, shape=(8, 10)):
    """Three frames with dense, sparse and single-column masks; the last has
    no horizontal pairs at any scale."""
    frames = [random_frame(seed + i, shape, mask_p) for i, mask_p in enumerate((0.9, 0.4, 0.0))]
    pred, target, mask = (np.stack(x) for x in zip(*frames))
    mask[2] = False
    mask[2, :, 3] = True
    return pred, target, mask


class TestBatchedFrames:
    @pytest.mark.parametrize("loss", [loss_rmse, loss_silog, loss_grad, loss_total])
    def test_batch_is_mean_of_frames(self, loss):
        p, t, m = batch_of_frames(20)
        got = loss(Tensor(p), t, m).item()
        frames = [loss(Tensor(p[i]), t[i], m[i]).item() for i in range(len(p))]
        assert got == pytest.approx(np.mean(frames), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("loss", [loss_rmse, loss_silog, loss_grad, loss_total])
    def test_one_empty_frame_raises(self, loss):
        p, t, m = batch_of_frames(21)
        for i in range(len(m)):
            empty = m.copy()
            empty[i] = False
            with pytest.raises(EmptyEvaluationError):
                loss(Tensor(p), t, empty)

    def test_masked_zero_prediction_stays_finite(self):
        p, t, m = batch_of_frames(22)
        p[~m] = 0.0
        x = Tensor(p, requires_grad=True)
        total = loss_total(x, t, m)
        total.backward()
        assert np.isfinite(total.item()) and np.isfinite(x.grad).all()
        assert np.all(x.grad[~m] == 0.0)

    def test_tiny_batch_warns_once_per_call(self):
        p, t, m = (np.stack([x] * 4) for x in random_frame(23, shape=(1, 2), mask_p=1.0))
        with pytest.warns(UserWarning, match="skipping remaining scales") as record:
            loss_grad(Tensor(p), t, m)
        assert len(record) == 1
