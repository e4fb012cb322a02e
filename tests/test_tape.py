"""The tape frees itself during backward and keeps only what each backward
rule reads, and the fused normalization ops match the compositions of
elementary ops they replaced."""

import weakref

import numpy as np
import pytest

from spade.errors import SpadeError
from spade.nn import BatchNorm2d, Conv2d, LayerNorm, Tensor, batch_norm, layer_norm, scalarize
from spade.nn.tensor import _Node
from spade.pipeline import SpadeModel, _batch_loss, _training_sample, build_corpus

from conftest import fast_config


def reference_backward(root: Tensor):
    """The walk before the tape freed itself: every closure runs, nothing is released."""
    topo, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for p in node._parents:
                if type(p) is _Node:  # anything else is a leaf
                    visit(p)
            topo.append(node)

    visit(root._node)
    root._node.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node.grad is not None:
            node._backward(node.grad)


class Chain:
    """conv -> BatchNorm2d -> relu -> LayerNorm over the channels of each pixel,
    and a second conv that can take the relu output instead."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.conv = Conv2d(3, 4, 3, rng)
        self.bn = BatchNorm2d(4)
        self.ln = LayerNorm(4)
        self.x = Tensor(rng.standard_normal((2, 3, 5, 6)), requires_grad=True)
        self.r = Tensor(rng.standard_normal((2, 4, 5, 6)))
        self.conv2 = Conv2d(4, 4, 3, rng)

    def leaves(self):
        return [self.x, self.conv.weight, self.conv.bias, self.bn.gamma, self.bn.beta, self.ln.gamma, self.ln.beta]

    def forward(self):
        h = self.conv(self.x)
        a = self.bn(h).relu()
        return h, a, (self.ln(a) * self.r).sum()


def test_backward_releases_interior_activations():
    chain = Chain()
    h, a, loss = chain.forward()
    refs = [weakref.ref(h.data), weakref.ref(a.data)]
    del h, a
    # BatchNorm and LayerNorm keep their normalized input, relu a byte code:
    # no rule reads the conv output or the relu output, so they go with the caller
    assert all(ref() is None for ref in refs)
    loss.backward()
    assert all(ref() is None for ref in refs)
    assert np.isfinite(loss.item())


def test_conv_input_lives_until_backward():
    chain = Chain()
    a = chain.bn(chain.conv(chain.x)).relu()
    loss = (chain.conv2(a) * chain.r).sum()
    ref = weakref.ref(a.data)
    del a
    assert ref() is not None  # the second conv's weight gradient reads it
    loss.backward()
    assert ref() is None


def test_leaf_grads_match_the_walk_that_frees_nothing():
    chain = Chain()
    reference_backward(chain.forward()[2])
    expected = [t.grad.copy() for t in chain.leaves()]
    for t in chain.leaves():
        t.zero_grad()
    chain.forward()[2].backward()
    for t, want in zip(chain.leaves(), expected):
        np.testing.assert_array_equal(t.grad, want)


def test_second_backward_raises():
    chain = Chain()
    h, _, loss = chain.forward()
    loss.backward()
    with pytest.raises(SpadeError, match="already used by backward"):
        loss.backward()
    with pytest.raises(SpadeError, match="already used by backward"):
        (h * 2.0).sum().backward()


def closure_tensors(fn):
    """(rule name, Tensor) for every Tensor a backward rule's closure reaches,
    through nested functions, tuples and lists."""
    found, stack, seen = [], [fn], set()
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, Tensor):
            found.append((fn.__qualname__, v))
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            for cell in v.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a name the op never bound on this path
                    pass
    return found


def test_backward_rules_hold_no_tensor_made_by_an_op():
    cfg = fast_config()
    model = SpadeModel(cfg, init="train")
    batch = [_training_sample(f, f.points, cfg) for f in build_corpus(cfg, "val", n_frames=2)]
    loss = _batch_loss(model, batch)
    rules, stack, seen = set(), [loss._node], set()
    offenders = []
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        rules.add(node._backward.__qualname__)
        # a leaf that needs a gradient is its own node; any other Tensor pins an array
        offenders += [(name, t) for name, t in closure_tensors(node._backward) if t._node or not t.requires_grad]
        stack.extend(node._parents)
    assert len(seen) > 100 and len(rules) > 10
    assert not offenders, offenders[:5]


# -- fused norms against the compositions they replaced ---------------------------


def composed_batch_norm_train(x, gamma, beta, eps):
    C = x.shape[1]
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = ((x - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
    out = (x - mu) * (var + eps) ** -0.5 * gamma.reshape(1, C, 1, 1) + beta.reshape(1, C, 1, 1)
    return out, mu.data.reshape(-1), var.data.reshape(-1)


def composed_batch_norm_eval(x, gamma, beta, running_mean, running_var, eps):
    C = x.shape[1]
    mu = Tensor(running_mean.reshape(1, C, 1, 1))
    var = Tensor(running_var.reshape(1, C, 1, 1))
    return (x - mu) * (var + eps) ** -0.5 * gamma.reshape(1, C, 1, 1) + beta.reshape(1, C, 1, 1)


def composed_layer_norm(x, gamma, beta, eps):
    per_channel = (-1,) + (1,) * (x.ndim - 2)
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) * (var + eps) ** -0.5 * gamma.reshape(per_channel) + beta.reshape(per_channel)


def values_and_grads(fn, leaves, seed):
    """fn()'s output and the gradients of <output, seed> for each leaf."""
    for t in leaves:
        t.zero_grad()
    out = fn()
    value = out.data.copy()
    scalarize(out, seed).backward()
    return value, [t.grad for t in leaves]


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def norm_params(rng, n):
    gamma = Tensor(rng.uniform(0.5, 1.5, n), requires_grad=True)
    beta = Tensor(rng.standard_normal(n), requires_grad=True)
    return gamma, beta


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 2, 1, 2), (2, 3, 1, 1), (4, 2, 3, 3)])
def test_batch_norm_train_matches_composition(shape):
    rng = np.random.default_rng(sum(shape))
    x = Tensor(rng.standard_normal(shape) * 2.0 + 0.5, requires_grad=True)
    gamma, beta = norm_params(rng, shape[1])
    seed = rng.standard_normal(shape)
    stats = {}

    def fused():
        out, stats["mean"], stats["var"] = batch_norm(x, gamma, beta, 1e-5)
        return out

    def composed():
        out, stats["ref_mean"], stats["ref_var"] = composed_batch_norm_train(x, gamma, beta, 1e-5)
        return out

    got, got_grads = values_and_grads(fused, [x, gamma, beta], seed)
    want, want_grads = values_and_grads(composed, [x, gamma, beta], seed)
    assert_close(got, want)
    assert_close(stats["mean"], stats["ref_mean"])
    assert_close(stats["var"], stats["ref_var"])
    for g, w in zip(got_grads, want_grads):
        assert_close(g, w)


def test_batchnorm2d_running_stats_match_composition():
    rng = np.random.default_rng(5)
    bn = BatchNorm2d(3)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)) + 1.0)
    _, mu, var = composed_batch_norm_train(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), bn.eps)
    bn(x)
    assert_close(bn.running_mean, 0.1 * mu)
    assert_close(bn.running_var, 0.9 + 0.1 * var * 32 / 31)


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 2, 1, 2)])
def test_batch_norm_eval_matches_composition(shape):
    rng = np.random.default_rng(sum(shape) + 1)
    C = shape[1]
    bn = BatchNorm2d(C).eval()
    bn.gamma.data, bn.beta.data = rng.uniform(0.5, 1.5, C), rng.standard_normal(C)
    bn.register_buffer("running_mean", rng.standard_normal(C))
    bn.register_buffer("running_var", rng.uniform(0.3, 2.0, C))
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    seed = rng.standard_normal(shape)
    leaves = [x, bn.gamma, bn.beta]
    got, got_grads = values_and_grads(lambda: bn(x), leaves, seed)
    want, want_grads = values_and_grads(
        lambda: composed_batch_norm_eval(x, bn.gamma, bn.beta, bn.running_mean, bn.running_var, bn.eps),
        leaves,
        seed,
    )
    assert_close(got, want)
    for g, w in zip(got_grads, want_grads):
        assert_close(g, w)


@pytest.mark.parametrize("layout", ["3d", "3d_transposed", "4d"])
def test_layer_norm_matches_composition(layout):
    rng = np.random.default_rng(len(layout))
    shapes = {"3d": (2, 5, 6), "3d_transposed": (2, 20, 6), "4d": (2, 3, 4, 6)}
    x = Tensor(rng.standard_normal(shapes[layout]) * 1.5 - 0.3, requires_grad=True)
    if layout == "3d_transposed":  # a non-contiguous (B, C, N) view of tokens (B, N, C)
        view = lambda: x.transpose(0, 2, 1)  # noqa: E731
    else:
        view = lambda: x  # noqa: E731
    gamma, beta = norm_params(rng, view().shape[1])
    seed = rng.standard_normal(view().shape)
    leaves = [x, gamma, beta]
    got, got_grads = values_and_grads(lambda: layer_norm(view(), gamma, beta, 1e-6), leaves, seed)
    want, want_grads = values_and_grads(lambda: composed_layer_norm(view(), gamma, beta, 1e-6), leaves, seed)
    assert_close(got, want)
    for g, w in zip(got_grads, want_grads):
        assert_close(g, w)



def eval_batch_norm_as_tensor_ops(bn, x):
    """Eval BatchNorm2d as the eight tape ops it was before it became one node."""
    C = x.shape[1]
    scale = bn.gamma * Tensor(1.0 / np.sqrt(bn.running_var + bn.eps))
    shift = bn.beta - Tensor(bn.running_mean) * scale
    return x * scale.reshape(1, C, 1, 1) + shift.reshape(1, C, 1, 1)


@pytest.mark.parametrize("shape", [(1, 32, 16, 24), (2, 3, 4, 5), (1, 2, 1, 2)])
def test_batch_norm_eval_bitwise_equal_to_tensor_ops(shape):
    rng = np.random.default_rng(sum(shape) + 2)
    C = shape[1]
    bn = BatchNorm2d(C).eval()
    bn.gamma.data, bn.beta.data = rng.uniform(0.5, 1.5, C), rng.standard_normal(C)
    bn.register_buffer("running_mean", rng.standard_normal(C))
    bn.register_buffer("running_var", rng.uniform(0.3, 2.0, C))
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    seed = rng.standard_normal(shape)
    leaves = [x, bn.gamma, bn.beta]
    got, got_grads = values_and_grads(lambda: bn(x), leaves, seed)
    want, want_grads = values_and_grads(lambda: eval_batch_norm_as_tensor_ops(bn, x), leaves, seed)
    for g, w in zip([got, *got_grads], [want, *want_grads]):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
