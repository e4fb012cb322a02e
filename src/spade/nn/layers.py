"""Parameter containers and the basic layer zoo."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError
from .tensor import Tensor, batch_norm, conv2d, depthwise_conv2d, layer_norm


class Parameter(Tensor):
    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Minimal recursive container with named parameters and buffers."""

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
        """Add or replace a named float64 array that is saved but not trained."""
        self._buffers[name] = np.asarray(array, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def named_parameters(self, prefix=""):
        for k, p in self._params.items():
            yield f"{prefix}{k}", p
        for k, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{k}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def train(self, mode=True):
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def param_count(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    def named_arrays(self):
        """("param.<name>" or "buffer.<name>", array) of every parameter and
        buffer, in checkpoint order; the arrays are the module's own, not copies."""
        for k, p in self.named_parameters():
            yield f"param.{k}", p.data
        for _, k, b in self._walk_buffers():
            yield f"buffer.{k}", b

    def state_dict(self) -> dict:
        return {k: v.copy() for k, v in self.named_arrays()}

    def check_state(self, shapes: dict):
        """Refuse a state, given as entry name -> shape, that this module could
        not load: a missing, unexpected or mis-shaped entry is an error."""
        own = {k: v.shape for k, v in self.named_arrays()}
        unexpected = sorted(set(shapes) - set(own))
        if unexpected:
            raise ConfigError(f"checkpoint has unexpected entries: {unexpected[:5]}")
        missing = [k for k in own if k not in shapes]
        if missing:
            raise ConfigError(f"checkpoint is missing entries: {missing[:5]}")
        for key, shape in own.items():
            if tuple(shapes[key]) != shape:
                raise ShapeError(f"{key}: checkpoint shape {tuple(shapes[key])} != model {shape}")

    def load_state_dict(self, state: dict):
        """Load a copy of every parameter and buffer; nothing is loaded unless
        `check_state` accepts the state's shapes."""
        self.check_state({k: np.shape(v) for k, v in state.items()})
        for k, p in self.named_parameters():
            p.data = np.array(state[f"param.{k}"], dtype=np.float64)
        for holder, k, _ in self._walk_buffers():
            holder.register_buffer(k.split(".")[-1], np.array(state[f"buffer.{k}"], dtype=np.float64))

    def _walk_buffers(self, prefix=""):
        for k, b in self._buffers.items():
            yield self, f"{prefix}{k}", b
        for k, m in self._modules.items():
            yield from m._walk_buffers(prefix=f"{prefix}{k}.")


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._list = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        self._modules[str(len(self._list))] = module
        self._list.append(module)

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]


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


class DepthwiseConv2d(Module):
    def __init__(self, channels, kernel, rng, stride=1):
        super().__init__()
        self.stride, self.padding = stride, kernel // 2
        self.weight = Parameter(kaiming_uniform(rng, (channels, kernel, kernel), kernel * kernel))
        self.bias = Parameter(np.zeros(channels))

    def forward(self, x):
        return depthwise_conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Linear(Module):
    def __init__(self, in_dim, out_dim, rng):
        super().__init__()
        self.weight = Parameter(kaiming_uniform(rng, (in_dim, out_dim), in_dim))
        self.bias = Parameter(np.zeros(out_dim))

    def forward(self, x):
        return x @ self.weight + self.bias


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
            return batch_norm(x, self.gamma, self.beta, self.eps, (self.running_mean, self.running_var))[0]
        out, mean, var = batch_norm(x, self.gamma, self.beta, self.eps)
        n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        unbiased = var * (n / max(n - 1, 1))
        self.register_buffer("running_mean", (1 - self.momentum) * self.running_mean + self.momentum * mean)
        self.register_buffer("running_var", (1 - self.momentum) * self.running_var + self.momentum * unbiased)
        return out


class LayerNorm(Module):
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
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).gelu())
