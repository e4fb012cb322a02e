"""Parameter containers and the basic layer zoo."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, batch_norm, batch_norm_eval, conv2d, depthwise_conv2d, layer_norm


class Parameter(Tensor):
    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Minimal recursive container with named parameters and buffers.

    Each parameter and buffer array is made once, with its module: training,
    saving and loading read and write those same arrays in place.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        """Add a named float64 array that is saved but not trained."""
        self._buffers[name] = np.asarray(array, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def _tree(self) -> list:
        """This module and every module below it, parents first, children in
        the order they were set: the one walk behind train, parameters and
        named_arrays."""
        tree = [self]
        for m in self._modules.values():
            tree += m._tree()
        return tree

    def parameters(self):
        return [p for m in self._tree() for p in m._params.values()]

    def train(self, mode=True):
        for m in self._tree():
            m.__dict__["training"] = mode
        return self

    def eval(self):
        return self.train(False)

    def param_count(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    def named_arrays(self) -> list:
        """("param.<name>" or "buffer.<name>", array) of every parameter and
        buffer, in checkpoint order; the arrays are the module's own, not copies."""
        prefix = {id(self): ""}
        params, buffers = [], []
        for m in self._tree():
            at = prefix[id(m)]
            prefix.update((id(c), f"{at}{k}.") for k, c in m._modules.items())
            params += ((f"param.{at}{k}", p.data) for k, p in m._params.items())
            buffers += ((f"buffer.{at}{k}", b) for k, b in m._buffers.items())
        return params + buffers


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        self._modules[str(len(self._modules))] = module

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)


class Conv2d(Module):
    """Biased convolution padded by kernel // 2 (none for 1x1)."""

    def __init__(self, in_ch, out_ch, kernel, rng, stride=1):
        super().__init__()
        self.stride, self.padding = stride, kernel // 2
        fan_in = in_ch * kernel * kernel
        self.weight = Parameter(kaiming_uniform(rng, (out_ch, in_ch, kernel, kernel), fan_in))
        self.bias = Parameter(np.zeros(out_ch))

    def forward(self, x):
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


def channel_mix(in_ch, out_ch, rng) -> Conv2d:
    """A 1x1 Conv2d, each pixel's channels mixed, whose weight holds rng's
    draws read as an (in_ch, out_ch) matrix: the order in which the
    token-layout projections it replaced drew theirs, so a seeded model keeps
    its weights."""
    mix = Conv2d(in_ch, out_ch, 1, rng)
    w = mix.weight.data
    w[...] = w.reshape(in_ch, out_ch).T.reshape(w.shape)
    return mix


class DepthwiseConv2d(Module):
    def __init__(self, channels, kernel, rng, stride=1):
        super().__init__()
        self.stride, self.padding = stride, kernel // 2
        self.weight = Parameter(kaiming_uniform(rng, (channels, kernel, kernel), kernel * kernel))
        self.bias = Parameter(np.zeros(channels))

    def forward(self, x):
        return depthwise_conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x):
        if not self.training:
            return batch_norm_eval(x, self.gamma, self.beta, self.eps, self.running_mean, self.running_var)
        out, mean, var = batch_norm(x, self.gamma, self.beta, self.eps)
        n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        unbiased = var * (n / max(n - 1, 1))
        self.running_mean[...] = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var[...] = (1 - self.momentum) * self.running_var + self.momentum * unbiased
        return out


class LayerNorm(Module):
    """Layer normalization over the channels of each pixel of (B, C, H, W)."""

    eps = 1e-6

    def __init__(self, dim):
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x):
        return layer_norm(x, self.gamma, self.beta, self.eps)


class MLP(Module):
    def __init__(self, dim, hidden, rng):
        super().__init__()
        self.fc1 = channel_mix(dim, hidden, rng)
        self.fc2 = channel_mix(hidden, dim, rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).gelu())
