import json
import struct

import numpy as np
import pytest

from conftest import manifest_arrays
from spade.errors import FormatError
from spade.nn import (
    BatchNorm2d,
    CBAM,
    Conv2d,
    LayerNorm,
    MLP,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)
from spade.nn.gradcheck import fd_gradcheck, scalarize
from spade.nn.layers import channel_mix, kaiming_uniform

RTOL = 1e-4


def check(fn, wrt, seed=0, max_elems=40):
    worst = fd_gradcheck(fn, wrt, max_elems=max_elems, seed=seed)
    assert worst <= RTOL, f"worst relative gradient error {worst:.3e}"


class TestLinearConv:
    def test_channel_mix_takes_draws_in_in_out_order(self):
        # seeded models keep the weights the token-layout (in, out) projections drew
        mix = channel_mix(3, 5, np.random.default_rng(0))
        want = kaiming_uniform(np.random.default_rng(0), (3, 5), 3)
        assert mix.weight.shape == (5, 3, 1, 1)
        assert np.array_equal(mix.weight.data[:, :, 0, 0], want.T)

    def test_conv_module_grads(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(3, 4, 3, rng, stride=2)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        r = rng.standard_normal(conv(x).shape)
        check(lambda: scalarize(conv(x), r), [x, conv.weight, conv.bias])


class TestNorms:
    def test_batchnorm_train_normalizes(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3 + 2)
        y = bn(x)
        assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(y.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_batchnorm_running_stats_and_eval(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((8, 2, 4, 4)) * 2 + 5)
        for _ in range(250):
            bn(x)
        bn.eval()
        y = bn(x)
        mu = x.data.mean(axis=(0, 2, 3))
        assert np.allclose(bn.running_mean, mu, atol=1e-6)
        assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-2)

    def test_batchnorm_grads_train_mode(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        r = rng.standard_normal((2, 3, 4, 4))
        check(lambda: scalarize(bn(x), r), [x, bn.gamma, bn.beta])

    def test_layernorm_grads(self):
        rng = np.random.default_rng(5)
        ln = LayerNorm(6)
        x = Tensor(rng.standard_normal((3, 6, 2, 2)), requires_grad=True)
        r = rng.standard_normal((3, 6, 2, 2))
        check(lambda: scalarize(ln(x), r), [x, ln.gamma, ln.beta])

    def test_mlp_grads(self):
        rng = np.random.default_rng(6)
        mlp = MLP(4, 8, rng)
        x = Tensor(rng.standard_normal((1, 4, 5, 1)), requires_grad=True)
        r = rng.standard_normal((1, 4, 5, 1))
        check(lambda: scalarize(mlp(x), r), [x] + mlp.parameters())


class TestCBAM:
    def test_saturation_identity(self):
        rng = np.random.default_rng(7)
        cbam = CBAM(4, rng)
        # force both attention maps to sigmoid ~= 1
        cbam.channel.fc2.weight.data[:] = 0.0
        cbam.channel.fc2.bias.data[:] = 20.0
        cbam.spatial.conv.weight.data[:] = 0.0
        cbam.spatial.conv.bias.data[:] = 20.0
        x = Tensor(rng.standard_normal((2, 4, 5, 5)))
        y = cbam(x)
        assert np.max(np.abs(y.data - x.data)) < 1e-7

    def test_magnitude_never_amplified(self):
        rng = np.random.default_rng(8)
        cbam = CBAM(8, rng)
        x = Tensor(rng.standard_normal((2, 8, 6, 6)) * 3)
        y = cbam(x)
        assert np.all(np.abs(y.data) <= np.abs(x.data) + 1e-12)

    def test_full_gradcheck(self):
        rng = np.random.default_rng(9)
        cbam = CBAM(4, rng)
        x = Tensor(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
        r = rng.standard_normal((2, 4, 5, 5))
        check(lambda: scalarize(cbam(x), r), [x] + cbam.parameters(), max_elems=24)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        state = {
            "a.weight": rng.standard_normal((3, 4)),
            "b.bias": rng.standard_normal(7),
            "scalar": np.array(2.5),
        }
        p = tmp_path / "w.spw1"
        save_checkpoint(p, state, meta={"note": "test"})
        loaded = {k: np.empty(np.shape(v)) for k, v in state.items()}
        meta = load_checkpoint(p, lambda meta: loaded)
        assert meta == {"note": "test"}
        for k in state:
            assert np.array_equal(loaded[k], np.asarray(state[k]))

    def test_deterministic_bytes(self, tmp_path):
        state = {"x": np.arange(6.0).reshape(2, 3)}
        p1, p2 = tmp_path / "1.spw1", tmp_path / "2.spw1"
        save_checkpoint(p1, state)
        save_checkpoint(p2, {"x": state["x"].copy()})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.spw1"
        p.write_bytes(b"XXXX" + b"\x00" * 10)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(p, manifest_arrays(p))

    def test_truncated_buffer(self, tmp_path):
        p = tmp_path / "t.spw1"
        save_checkpoint(p, {"x": np.ones(4)})
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(p, manifest_arrays(p))

    @pytest.mark.parametrize(
        "manifest,message",
        [
            ([], "expected a JSON object, got list"),
            ({"meta": {}}, "'tensors' must be a list, got NoneType"),
            ({"tensors": {"x": [2]}}, "'tensors' must be a list, got dict"),
            ({"tensors": [{"name": "x"}]}, "tensor entry 0 must be an object"),
            ({"tensors": [["x", [2]]]}, "tensor entry 0 must be an object"),
            ({"tensors": [{"name": 3, "shape": [2]}]}, "tensor entry 0 must be an object"),
            ({"tensors": [{"name": "x", "shape": "2"}]}, "tensor 'x' has shape '2'"),
            ({"tensors": [{"name": "x", "shape": [-1]}]}, r"tensor 'x' has shape \[-1\]"),
            ({"tensors": [{"name": "x", "shape": [1.0]}]}, r"tensor 'x' has shape \[1.0\]"),
            ({"tensors": [{"name": "x", "shape": [True]}]}, r"tensor 'x' has shape \[True\]"),
            ({"tensors": [{"name": "x", "shape": [1]}] * 2}, "tensor name 'x' appears twice"),
            ({"tensors": [], "meta": [1]}, "'meta' must be an object, got list"),
        ],
    )
    def test_malformed_manifest(self, tmp_path, manifest, message):
        mbytes = json.dumps(manifest).encode()
        p = tmp_path / "m.spw1"
        # 24 payload bytes: enough for every shape above, so only the manifest is at fault
        p.write_bytes(b"SPW1" + struct.pack("<I", len(mbytes)) + mbytes + b"\x00" * 24)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(p, manifest_arrays(p))

    def test_huge_declared_tensor_is_refused_before_allocating(self, tmp_path):
        mbytes = json.dumps({"tensors": [{"name": "x", "shape": [10**6, 10**6]}]}).encode()
        p = tmp_path / "huge.spw1"
        p.write_bytes(b"SPW1" + struct.pack("<I", len(mbytes)) + mbytes + b"\x00" * 24)
        with pytest.raises(FormatError, match=f"checkpoint {p}: buffer for x truncated"):
            load_checkpoint(p, manifest_arrays(p))

    def test_deeply_nested_manifest(self, tmp_path):
        mbytes = b"[" * 100_000 + b"]" * 100_000  # deeper than the JSON parser recurses
        p = tmp_path / "deep.spw1"
        p.write_bytes(b"SPW1" + struct.pack("<I", len(mbytes)) + mbytes)
        with pytest.raises(FormatError, match="bad manifest"):
            load_checkpoint(p, manifest_arrays(p))

    def test_module_round_trip_into_own_arrays(self, tmp_path):
        rng = np.random.default_rng(11)
        m1 = MLP(3, 5, rng)
        m2 = MLP(3, 5, np.random.default_rng(99))
        p = tmp_path / "m.spw1"
        save_checkpoint(p, dict(m1.named_arrays()))
        own = dict(m2.named_arrays())
        assert load_checkpoint(p, lambda meta: own) == {}
        x = Tensor(rng.standard_normal((2, 3, 1, 1)))
        assert np.array_equal(m1(x).data, m2(x).data)

    @staticmethod
    def _load_into(tmp_path, saved, targets):
        p = tmp_path / "m.spw1"
        save_checkpoint(p, {k: v + 1.0 for k, v in saved.items()})
        before = {k: v.copy() for k, v in targets.items()}
        with pytest.raises(FormatError, match=f"^checkpoint {p} ") as e:
            load_checkpoint(p, lambda meta: targets)
        # nothing was read
        assert all(np.array_equal(v, before[k]) for k, v in targets.items())
        return str(e.value)

    def test_load_rejects_unexpected_entry(self, tmp_path):
        m = BatchNorm2d(3)
        saved = {**dict(m.named_arrays()), "buffer.running_max": np.zeros(3)}
        msg = self._load_into(tmp_path, saved, dict(m.named_arrays()))
        assert "unexpected tensors ['buffer.running_max']" in msg

    def test_load_rejects_missing_entry(self, tmp_path):
        m = BatchNorm2d(3)
        targets = dict(m.named_arrays())
        saved = {k: v for k, v in targets.items() if k != "param.beta"}
        assert "lacks tensors ['param.beta']" in self._load_into(tmp_path, saved, targets)

    def test_load_shape_mismatch(self, tmp_path):
        m = MLP(3, 5, np.random.default_rng(12))
        targets = dict(m.named_arrays())
        # the (in, out) matrix a channel mix was stored as before it became a 1x1 conv
        saved = {**targets, "param.fc1.weight": np.zeros((3, 5))}
        msg = self._load_into(tmp_path, saved, targets)
        assert "param.fc1.weight of shape (3, 5), expected (5, 3, 1, 1)" in msg
