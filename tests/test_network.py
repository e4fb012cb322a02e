import numpy as np
import pytest

from spade.errors import ConfigError
from spade.nn import (
    CCDTConfig,
    CCDTStage,
    DPTDecoderBlock,
    FeatureFusion,
    FeaturePyramid,
    RefinementNet,
    SOFTPLUS_INV_ONE,
    Tensor,
)
from spade.nn.gradcheck import fd_gradcheck, scalarize

RTOL = 1e-4

TINY = CCDTConfig(
    widths=(8, 8, 12, 16),
    conv_counts=(1, 1, 1, 1),
    trans_counts=(1, 0, 0, 1),
    grid_downsamples=(2, 2, 1, 1),
    heads=2,
    decoder_width=8,
    embed_channels=4,
    fused_channels=8,
)


def tiny_net(seed=0, hw=(64, 64)):
    return RefinementNet(TINY, hw, pyramid_channels=(4, 6, 8, 10), rng=np.random.default_rng(seed))


def tiny_inputs(seed=1, hw=(64, 64)):
    rng = np.random.default_rng(seed)
    H, W = hw
    eps = Tensor(rng.uniform(0.8, 1.2, (1, 1, H, W)))
    z = Tensor(rng.uniform(0.2, 1.0, (1, 1, H, W)))
    feats = [
        Tensor(rng.standard_normal((1, c, H // s, W // s)))
        for c, s in zip((4, 6, 8, 10), (4, 8, 16, 32))
    ]
    return eps, z, feats


class TestStage:
    def test_shape_contract(self):
        rng = np.random.default_rng(2)
        stage = CCDTStage(6, 8, 2, 1, 1, 8, 12, 2, TINY, rng)
        x = Tensor(rng.standard_normal((2, 6, 16, 24)))
        assert stage(x).shape == (2, 8, 8, 12)

    def test_pure_conv_stage(self):
        rng = np.random.default_rng(3)
        stage = CCDTStage(6, 8, 2, 2, 0, 4, 4, 2, TINY, rng)
        x = Tensor(rng.standard_normal((1, 6, 8, 8)))
        assert len(stage.trans_blocks) == 0
        assert stage(x).shape == (1, 8, 4, 4)

    def test_pure_transformer_stage(self):
        rng = np.random.default_rng(4)
        stage = CCDTStage(6, 8, 2, 0, 2, 4, 4, 2, TINY, rng)
        x = Tensor(rng.standard_normal((1, 6, 8, 8)))
        assert len(stage.conv_blocks) == 0
        assert stage(x).shape == (1, 8, 4, 4)


class TestDecoderBlock:
    def test_zero_deeper_is_refined_projection(self):
        rng = np.random.default_rng(5)
        blk = DPTDecoderBlock(6, 8, rng)
        x = Tensor(rng.standard_normal((1, 6, 4, 4)))
        none_out = blk(x, None)
        zero_out = blk(x, Tensor(np.zeros((1, 8, 2, 2))))
        assert np.allclose(none_out.data, zero_out.data, atol=1e-14)

    def test_output_matches_skip_resolution(self):
        rng = np.random.default_rng(6)
        blk = DPTDecoderBlock(6, 8, rng)
        skip = Tensor(rng.standard_normal((1, 6, 8, 10)))
        deeper = Tensor(rng.standard_normal((1, 8, 4, 5)))
        assert blk(skip, deeper).shape == (1, 8, 8, 10)

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        blk = DPTDecoderBlock(4, 6, rng)
        skip = Tensor(rng.standard_normal((1, 4, 4, 4)), requires_grad=True)
        deeper = Tensor(rng.standard_normal((1, 6, 2, 2)), requires_grad=True)
        r = rng.standard_normal((1, 6, 4, 4))
        worst = fd_gradcheck(
            lambda: scalarize(blk(skip, deeper), r),
            [skip, deeper] + blk.parameters(),
            max_elems=16,
            seed=8,
        )
        assert worst <= RTOL


class TestFusion:
    def make(self, seed=9):
        rng = np.random.default_rng(seed)
        fusion = FeatureFusion((4, 6, 8, 10), 32, rng)
        feats = [
            Tensor(rng.standard_normal((2, c, 16 // s, 24 // s)))
            for c, s in zip((4, 6, 8, 10), (1, 2, 4, 8))
        ]
        return fusion, feats

    def test_output_channels_is_32(self):
        fusion, feats = self.make()
        assert fusion(feats).shape == (2, 32, 16, 24)

    def test_constant_maps_stay_spatially_constant(self):
        fusion, feats = self.make()
        const_feats = [Tensor(np.full(f.shape, 0.7)) for f in feats]
        out = fusion(const_feats).data
        assert np.max(out.max(axis=(2, 3)) - out.min(axis=(2, 3))) < 1e-12

    def test_averaging_weights_pass_constant_through(self):
        fusion, feats = self.make()
        for conv in (fusion.fuse3, fusion.fuse2, fusion.fuse1, fusion.out):
            fan_in = conv.weight.shape[1]
            conv.weight.data[:] = 1.0 / fan_in
            conv.bias.data[:] = 0.0
        const_feats = [Tensor(np.full(f.shape, 0.7)) for f in feats]
        out = fusion(const_feats).data
        assert np.allclose(out, 0.7, atol=1e-12)

    def test_gradcheck_through_chain(self):
        rng = np.random.default_rng(10)
        fusion = FeatureFusion((3, 4, 5, 6), 4, rng)
        feats = [
            Tensor(rng.standard_normal((1, c, 8 // s, 8 // s)), requires_grad=True)
            for c, s in zip((3, 4, 5, 6), (1, 2, 4, 8))
        ]
        r = rng.standard_normal((1, 4, 8, 8))
        worst = fd_gradcheck(
            lambda: scalarize(fusion(feats), r), feats + fusion.parameters(), max_elems=12, seed=11
        )
        assert worst <= RTOL


class TestFeaturePyramid:
    def test_four_levels_with_stride_shapes(self):
        rng = np.random.default_rng(12)
        pyr = FeaturePyramid(rng, channels=(4, 6, 8, 10))
        guide = Tensor(rng.standard_normal((2, 1, 64, 96)))
        feats = pyr(guide)
        assert len(feats) == 4
        assert [f.shape for f in feats] == [
            (2, 4, 16, 24),
            (2, 6, 8, 12),
            (2, 8, 4, 6),
            (2, 10, 2, 3),
        ]

    def test_gradcheck(self):
        rng = np.random.default_rng(13)
        pyr = FeaturePyramid(rng, channels=(3, 4, 5, 6))
        guide = Tensor(rng.standard_normal((1, 1, 32, 32)), requires_grad=True)
        r = rng.standard_normal((1, 6, 1, 1))
        worst = fd_gradcheck(
            lambda: scalarize(pyr(guide)[3], r), [guide] + pyr.parameters(), max_elems=12, seed=14
        )
        assert worst <= RTOL


class TestRefinementNet:
    def test_neutral_head_outputs_exactly_one(self):
        assert abs(np.logaddexp(0.0, SOFTPLUS_INV_ONE) - 1.0) < 1e-15
        net = tiny_net()
        net.eval()
        eps, z, feats = tiny_inputs()
        out = net(eps, z, feats)
        assert out.shape == (1, 1, 64, 64)
        assert np.max(np.abs(out.data - 1.0)) < 1e-14

    def test_forward_deterministic_given_seed(self):
        eps, z, feats = tiny_inputs()
        n1, n2 = tiny_net(seed=42), tiny_net(seed=42)
        for n in (n1, n2):
            n.eval()
            # non-neutral head so the full network contributes
            n.head.conv3.weight.data[:] = 0.01
        o1, o2 = n1(eps, z, feats), n2(eps, z, feats)
        assert np.array_equal(o1.data, o2.data)

    def test_param_count_stable(self):
        assert tiny_net(seed=1).param_count() == tiny_net(seed=2).param_count()

    def test_output_positive_everywhere(self):
        net = tiny_net(seed=3)
        net.eval()
        net.head.conv3.weight.data = (
            np.random.default_rng(4).standard_normal(net.head.conv3.weight.shape) * 0.5
        )
        eps, z, feats = tiny_inputs(seed=5)
        out = net(eps, z, feats)
        assert np.all(out.data > 0)

    def test_resolution_must_divide_32(self):
        with pytest.raises(ConfigError, match="divisible"):
            RefinementNet(TINY, (60, 64), pyramid_channels=(4, 6, 8, 10), rng=np.random.default_rng(0))

    def test_input_shape_validated(self):
        net = tiny_net()
        eps, z, feats = tiny_inputs(hw=(64, 64))
        bad = Tensor(np.ones((1, 1, 32, 32)))
        with pytest.raises(Exception, match="match"):
            net(bad, z, feats)
