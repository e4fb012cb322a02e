"""Dense float64 tensor with reverse-mode differentiation.

A thin tape: every op wires a backward closure onto its output; calling
``backward()`` on a scalar walks the graph once in reverse topological
order and frees it as it goes. Only the ops this project needs are
implemented, each with an analytic backward rule that the
finite-difference suite checks.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

import numpy as np

from ..core import bilinear_taps, resize_matrix
from ..errors import ShapeError, SpadeError


def _set_malloc_policy():
    """Serve blocks under 32 MiB from the heap and trim it only past 64 MiB free.

    Every forward allocates and frees the same MB-sized temporaries (im2col
    matrices, padded copies). glibc's default mmap threshold starts at 128 KiB
    and rises only once the process frees a large mmapped block, so the speed
    of a forward would depend on what the process freed before: below the
    threshold's rise each temporary is a fresh mmap whose pages fault in again,
    about 2,500 minor faults and 6-8 ms of system time per B=1 desk forward.
    Outside glibc there is no mallopt and this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_set_malloc_policy()

# Per-thread (and per-context) switch: a no_grad block in one thread must not
# stop another thread from recording its graph.
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _spent(grad):
    raise SpadeError("the graph was already used by backward(), which frees it; run the forward again")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- graph bookkeeping -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def _accum(p: "Tensor", g: np.ndarray):
        if p.requires_grad:
            p.grad = g if p.grad is None else p.grad + g

    def backward(self):
        """Accumulate d(self)/d(leaf) of this scalar into every leaf's `.grad`, once per graph.

        The walk frees the graph behind it: each interior node (one made by
        an op) loses its closure, its parents and its gradient as soon as its
        closure has run, so every activation and interior gradient is
        released once the last closure that needs it is done. Leaves keep
        their `.grad`. The spent closure raises, so a second backward through
        any part of the graph fails instead of returning partial gradients.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got {self.data.shape}")
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _spent

    def zero_grad(self):
        self.grad = None

    # -- basics -------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    @staticmethod
    def as_tensor(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = self, Tensor.as_tensor(other)
        out_data = a.data + b.data

        def bw(g):
            Tensor._accum(a, _unbroadcast(g, a.data.shape))
            Tensor._accum(b, _unbroadcast(g, b.data.shape))

        return Tensor._make(out_data, (a, b), bw)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._make(-a.data, (a,), lambda g: Tensor._accum(a, -g))

    def __sub__(self, other):
        return self + (-Tensor.as_tensor(other))

    def __rsub__(self, other):
        return Tensor.as_tensor(other) + (-self)

    def __mul__(self, other):
        a, b = self, Tensor.as_tensor(other)
        out_data = a.data * b.data

        def bw(g):
            Tensor._accum(a, _unbroadcast(g * b.data, a.data.shape))
            Tensor._accum(b, _unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(out_data, (a, b), bw)

    __rmul__ = __mul__

    def __pow__(self, p):
        if not np.isscalar(p):
            raise ShapeError("only scalar exponents are supported")
        a = self
        out_data = a.data**p

        def bw(g):
            Tensor._accum(a, g * p * a.data ** (p - 1))

        return Tensor._make(out_data, (a,), bw)

    def __matmul__(self, other):
        a, b = self, Tensor.as_tensor(other)
        out_data = a.data @ b.data

        def bw(g):
            ga = g @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ g
            Tensor._accum(a, _unbroadcast(ga, a.data.shape))
            Tensor._accum(b, _unbroadcast(gb, b.data.shape))

        return Tensor._make(out_data, (a, b), bw)

    # -- elementwise functions -------------------------------------------------

    def log(self):
        a = self
        return Tensor._make(np.log(a.data), (a,), lambda g: Tensor._accum(a, g / a.data))

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)
        return Tensor._make(out_data, (a,), lambda g: Tensor._accum(a, g * 0.5 / out_data))

    def abs(self):
        a = self
        return Tensor._make(np.abs(a.data), (a,), lambda g: Tensor._accum(a, g * np.sign(a.data)))

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)
        return Tensor._make(out_data, (a,), lambda g: Tensor._accum(a, g * (1.0 - out_data**2)))

    def sigmoid(self):
        a = self
        out_data = 0.5 * (1.0 + np.tanh(0.5 * a.data))
        return Tensor._make(out_data, (a,), lambda g: Tensor._accum(a, g * out_data * (1.0 - out_data)))

    def relu(self):
        # slope 1/2 exactly at the kink: matches what a central difference
        # measures when a preactivation sits exactly on 0 (zero-init biases
        # behind fully-rectified receptive fields make that case systematic)
        a = self

        def bw(g):
            Tensor._accum(a, g * ((a.data > 0) + 0.5 * (a.data == 0)))

        return Tensor._make(a.data * (a.data > 0), (a,), bw)

    def gelu(self):
        # tanh approximation, smooth everywhere; x2 * x, as x**3 is a slow float pow
        a = self
        c = np.sqrt(2.0 / np.pi)
        x = a.data
        x2 = x * x
        t = np.tanh(c * (x + 0.044715 * (x2 * x)))
        out_data = 0.5 * x * (1.0 + t)

        def bw(g):
            du = c * (1.0 + 3 * 0.044715 * x2)
            Tensor._accum(a, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du))

        return Tensor._make(out_data, (a,), bw)

    def softplus(self):
        a = self
        out_data = np.logaddexp(0.0, a.data)

        def bw(g):
            Tensor._accum(a, g * 0.5 * (1.0 + np.tanh(0.5 * a.data)))

        return Tensor._make(out_data, (a,), bw)

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            gg = g
            if not keepdims and axis is not None:
                gg = np.expand_dims(g, axis)
            Tensor._accum(a, np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._make(out_data, (a,), bw)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def max(self, axis=None, keepdims=False):
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)

        def bw(g):
            gg, oo = g, out_data
            if not keepdims and axis is not None:
                gg = np.expand_dims(g, axis)
                oo = np.expand_dims(out_data, axis)
            mask = a.data == oo
            count = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            Tensor._accum(a, mask * (gg / count))

        return Tensor._make(out_data, (a,), bw)

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape):
        a = self
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = a.data.reshape(shape)
        return Tensor._make(out_data, (a,), lambda g: Tensor._accum(a, g.reshape(a.data.shape)))

    def transpose(self, *axes):
        a = self
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out_data = a.data.transpose(axes)
        return Tensor._make(out_data, (a,), lambda g: Tensor._accum(a, g.transpose(inv)))

    def __getitem__(self, idx):
        """Basic indexing only (ints, slices, `...`, None): its backward
        writes the gradient into the one place each element came from."""
        a = self
        for i in idx if isinstance(idx, tuple) else (idx,):
            if isinstance(i, bool) or not isinstance(i, (int, np.integer, slice, type(Ellipsis), type(None))):
                raise ShapeError(f"Tensor indexing takes ints, slices, ... and None, got {type(i).__name__}")

        def bw(g):
            dx = np.zeros_like(a.data)
            dx[idx] = g
            Tensor._accum(a, dx)

        return Tensor._make(np.ascontiguousarray(a.data[idx]), (a,), bw)


def concat(tensors, axis=0):
    tensors = [Tensor.as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            Tensor._accum(t, g[tuple(sl)])

    return Tensor._make(out_data, tensors, bw)


def softmax(x: Tensor, axis=-1) -> Tensor:
    a = Tensor.as_tensor(x)
    # shift, exponentiate and normalize in one buffer
    out_data = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        Tensor._accum(a, out_data * (g - dot))

    return Tensor._make(out_data, (a,), bw)


# -- normalization ----------------------------------------------------------------
# Closed-form backward of y = xhat * gamma + beta, xhat normalized over some
# axes (Ioffe & Szegedy 2015): with gh = g * gamma,
# dx = inv * (gh - mean(gh) - xhat * mean(gh * xhat)).


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, stats=None):
    """Batch normalization of x (B,C,H,W) over (0, 2, 3) as one node.

    Returns the output and the mean and biased variance it normalized with,
    each (C,). Without `stats` these are the batch's (training mode); with
    `stats` = (mean, var), constant arrays such as the running statistics
    (eval mode), the output is the per-channel affine x * scale + shift with
    scale = gamma / sqrt(var + eps) and shift = beta - mean * scale.
    """
    x, gamma, beta = Tensor.as_tensor(x), Tensor.as_tensor(gamma), Tensor.as_tensor(beta)
    if stats is not None:
        return _batch_norm_affine(x, gamma, beta, eps, *stats)
    B, C, H, W = x.data.shape
    axes, n = (0, 2, 3), B * H * W
    mean = x.data.mean(axis=axes, keepdims=True)
    xhat = x.data - mean
    var = (xhat * xhat).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    g4 = gamma.data.reshape(1, C, 1, 1)
    out_data = xhat * g4
    out_data += beta.data.reshape(1, C, 1, 1)

    def bw(g):
        # gamma is constant over the reduced axes, so mean(gh) = gamma * mean(g)
        sg = g.sum(axis=axes, keepdims=True)
        sgx = (g * xhat).sum(axis=axes, keepdims=True)
        if gamma.requires_grad:
            Tensor._accum(gamma, sgx.reshape(C))
        if beta.requires_grad:
            Tensor._accum(beta, sg.reshape(C))
        if x.requires_grad:
            dx = xhat * (-sgx / n)
            dx += g
            dx -= sg / n
            dx *= g4 * inv
            Tensor._accum(x, dx)

    return Tensor._make(out_data, (x, gamma, beta), bw), mean.reshape(C), var.reshape(C)


def _batch_norm_affine(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, mean: np.ndarray, var: np.ndarray):
    """`batch_norm` with fixed statistics: scale and shift are computed here,
    not on the tape, and the backward reaches x, gamma and beta."""
    C = x.data.shape[1]
    inv = 1.0 / np.sqrt(var + eps)
    scale = gamma.data * inv
    shift = beta.data - mean * scale
    out_data = x.data * scale.reshape(1, C, 1, 1)
    out_data += shift.reshape(1, C, 1, 1)

    def bw(g):
        if x.requires_grad:
            Tensor._accum(x, g * scale.reshape(1, C, 1, 1))
        if gamma.requires_grad or beta.requires_grad:
            d_shift = _unbroadcast(g, (1, C, 1, 1)).reshape(C)
            Tensor._accum(beta, d_shift)
            d_scale = _unbroadcast(g * x.data, (1, C, 1, 1)).reshape(C) + -d_shift * mean
            Tensor._accum(gamma, d_scale * inv)

    return Tensor._make(out_data, (x, gamma, beta), bw), mean, var


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Layer normalization over axis 1, the channels of each pixel of
    x (B, C, ...), as one node; gamma and beta are (C,)."""
    x, gamma, beta = Tensor.as_tensor(x), Tensor.as_tensor(gamma), Tensor.as_tensor(beta)
    per_channel = (-1,) + (1,) * (x.data.ndim - 2)
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=1, keepdims=True) + eps)
    xhat *= inv
    g_c = gamma.data.reshape(per_channel)
    out_data = xhat * g_c
    out_data += beta.data.reshape(per_channel)
    rest = (0,) + tuple(range(2, x.data.ndim))

    def bw(g):
        if gamma.requires_grad:
            Tensor._accum(gamma, (g * xhat).sum(axis=rest))
        if beta.requires_grad:
            Tensor._accum(beta, g.sum(axis=rest))
        if x.requires_grad:
            gh = g * g_c
            dx = xhat * -(gh * xhat).mean(axis=1, keepdims=True)
            dx += gh
            dx -= gh.mean(axis=1, keepdims=True)
            dx *= inv
            Tensor._accum(x, dx)

    return Tensor._make(out_data, (x, gamma, beta), bw)


# -- convolution ------------------------------------------------------------------


def _padded(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """(B,C,H,W) zero-padded spatially (no copy for padding 0) and the kernel's output size."""
    B, C, H, W = x.shape
    xp = x
    if padding:
        xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
        xp[:, :, padding : padding + H, padding : padding + W] = x
    return xp, (xp.shape[2] - kh) // stride + 1, (xp.shape[3] - kw) // stride + 1


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int, Ho: int, Wo: int) -> np.ndarray:
    """Strided view (B,C,Ho,Wo,kh,kw) of a padded map, no copy: (b, c, ho, wo, i, j) is
    xp[b, c, stride*ho + i, stride*wo + j]. Taps [..., i, j] overlap: write one at a time."""
    sB, sC, sH, sW = xp.strides
    shape, strides = xp.shape[:2] + (Ho, Wo, kh, kw), (sB, sC, stride * sH, stride * sW, sH, sW)
    return np.lib.stride_tricks.as_strided(xp, shape, strides)


def _im2col(win: np.ndarray, groups: int) -> np.ndarray:
    """Column matrices (groups, C/groups*kh*kw, B*Ho*Wo) of the windows (B,C,Ho,Wo,kh,kw), in one copy."""
    B, C, Ho, Wo, kh, kw = win.shape
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(groups, C // groups * kh * kw, B * Ho * Wo)


def _conv(x: Tensor, w: Tensor, b: Tensor | None, stride: int, padding: int, groups: int) -> Tensor:
    """Grouped 2-D cross-correlation, the one kernel behind `conv2d` and
    `depthwise_conv2d`: x (B,C,H,W) * w (F,C/groups,kh,kw) -> (B,F,Ho,Wo),
    where output channel f reads only the C/groups input channels of group
    f // (F/groups). With one input channel per group, w may also be
    (F,kh,kw): it is reshaped here, so no extra tape node appears.

    The output and the weight gradient are each one GEMM per group on an
    im2col matrix (Chellapilla et al. 2006), copied from the window view
    where it is used; neither it nor the padded input is kept on the tape.
    The input gradient is one GEMM per group and kernel row i, the group's
    w[:, :, i, :]^T (C/groups*kw, F/groups) @ grad (F/groups, B*Ho*Wo),
    added tap by tap.

    An ungrouped, unpadded 1x1 convolution at stride 1 is a channel mix of
    each sample, w (F,C) @ x (C,H*W) and its transposes, with no window,
    im2col matrix or output transpose.
    """
    B, C, H, W = x.data.shape
    F, kh, kw = w.data.shape[0], w.data.shape[-2], w.data.shape[-1]
    G, Fg, Cg = groups, F // groups, C // groups
    mix = kh == kw == stride == groups == 1 and padding == 0
    if mix:
        x3 = x.data.reshape(B, C, H * W)
        out_data = (w.data.reshape(F, C) @ x3).reshape(B, F, H, W)
    else:
        xp, Ho, Wo = _padded(x.data, kh, kw, stride, padding)
        out_data = w.data.reshape(G, Fg, Cg * kh * kw) @ _im2col(_windows(xp, kh, kw, stride, Ho, Wo), G)
        out_data = np.ascontiguousarray(out_data.reshape(F, B, Ho, Wo).transpose(1, 0, 2, 3))
    if b is not None:
        out_data += b.data[None, :, None, None]
    parents = (x, w) if b is None else (x, w, b)

    def bw(g):
        if b is not None and b.requires_grad:
            Tensor._accum(b, g.sum(axis=(0, 2, 3)))
        if mix:
            g3 = g.reshape(B, F, H * W)
            if w.requires_grad:
                Tensor._accum(w, (g3 @ x3.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
            if x.requires_grad:
                Tensor._accum(x, (w.data.reshape(F, C).T @ g3).reshape(B, C, H, W))
            return
        g2 = g.transpose(1, 0, 2, 3).reshape(G, Fg, B * Ho * Wo)
        if w.requires_grad:
            # padded again: the tape keeps x, not the forward's padded copy
            win = _windows(_padded(x.data, kh, kw, stride, padding)[0], kh, kw, stride, Ho, Wo)
            Tensor._accum(w, (g2 @ _im2col(win, G).transpose(0, 2, 1)).reshape(w.data.shape))
        if x.requires_grad:
            dxp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
            dwin = _windows(dxp, kh, kw, stride, Ho, Wo)
            w5 = w.data.reshape(G, Fg, Cg, kh, kw)
            for i in range(kh):
                wi = w5[:, :, :, i, :].transpose(0, 2, 3, 1).reshape(G, Cg * kw, Fg)
                rows = (wi @ g2).reshape(C, kw, B, Ho, Wo)
                for j in range(kw):
                    tap = dwin[..., i, j]
                    tap += rows[:, j].transpose(1, 0, 2, 3)
            Tensor._accum(x, dxp[:, :, padding : padding + H, padding : padding + W])

    return Tensor._make(out_data, parents, bw)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation: x (B,C,H,W) * w (F,C,kh,kw) -> (B,F,Ho,Wo); the
    one-group case of the grouped im2col kernel `_conv`."""
    x, w = Tensor.as_tensor(x), Tensor.as_tensor(w)
    if w.data.shape[1] != x.data.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs weight {w.data.shape}")
    return _conv(x, w, b, stride, padding, groups=1)


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """Per-channel convolution: x (B,C,H,W) * w (C,kh,kw) -> (B,C,Ho,Wo); the
    one-channel-per-group case (groups=C) of the grouped im2col kernel `_conv`."""
    x, w = Tensor.as_tensor(x), Tensor.as_tensor(w)
    if w.data.shape[0] != x.data.shape[1]:
        raise ShapeError(f"depthwise channel mismatch: {x.data.shape} vs {w.data.shape}")
    return _conv(x, w, b, stride, padding, groups=x.data.shape[1])


# -- resize / sampling -----------------------------------------------------------


@lru_cache(maxsize=64)
def _resize_pair(in_size: int, out_size: int):
    """`resize_matrix(in_size, out_size)` and its transpose, both read-only:
    a network resizes between a few fixed sizes, so each pair is built once."""
    R = resize_matrix(in_size, out_size)
    RT = np.ascontiguousarray(R.T)
    R.flags.writeable = RT.flags.writeable = False
    return R, RT


def interpolate_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize (B,C,H,W) -> (B,C,out_h,out_w) with separable bilinear weights:
    Rh @ x @ Rw^T for each map, as two matmuls."""
    x = Tensor.as_tensor(x)
    B, C, H, W = x.data.shape
    Rh, RhT = _resize_pair(H, out_h)
    Rw, RwT = _resize_pair(W, out_w)
    out_data = Rh @ (x.data @ RwT)

    def bw(g):
        if x.requires_grad:
            Tensor._accum(x, RhT @ (g @ Rw))

    return Tensor._make(out_data, (x,), bw)


def bilinear_sample(x: Tensor, loc: Tensor) -> Tensor:
    """Sample x (B,C,H,W) at continuous (row, col) locations (B,P,2) -> (B,C,P).

    Out-of-bounds locations are clamped to the border; the location gradient
    is zero in the clamped region.
    """
    x, loc = Tensor.as_tensor(x), Tensor.as_tensor(loc)
    B, C, H, W = x.data.shape
    if loc.data.ndim != 3 or loc.data.shape[2] != 2 or loc.data.shape[0] != B:
        raise ShapeError(f"locations must be (B,P,2), got {loc.data.shape}")
    P = loc.data.shape[1]
    r0, r1, fr, r_in = bilinear_taps(loc.data[..., 0], H)
    c0, c1, fc, c_in = bilinear_taps(loc.data[..., 1], W)
    fr = fr[:, None, :]  # (B,1,P)
    fc = fc[:, None, :]

    # the four taps' flat pixel indices (B,4P), gathered for every channel at once
    taps = np.concatenate([r0 * W + c0, r0 * W + c1, r1 * W + c0, r1 * W + c1], axis=1)
    idx = np.broadcast_to(taps[:, None, :], (B, C, 4 * P))
    gathered = np.take_along_axis(x.data.reshape(B, C, H * W), idx, axis=2)
    x00, x01, x10, x11 = gathered.reshape(B, C, 4, P).transpose(2, 0, 1, 3)
    top = x00 * (1 - fc) + x01 * fc
    bot = x10 * (1 - fc) + x11 * fc
    out_data = top * (1 - fr) + bot * fr

    def bw(g):
        if x.requires_grad:
            # scatter-add via bincount on flat (batch, channel, pixel) indices
            base = (np.arange(B * C) * (H * W)).reshape(B, C, 1)
            size = B * C * H * W

            def scatter(ri, ci, wgt):
                flat = (base + (ri * W + ci)[:, None, :]).ravel()
                return np.bincount(flat, weights=(g * wgt).ravel(), minlength=size)

            dxf = scatter(r0, c0, (1 - fr) * (1 - fc))
            dxf += scatter(r0, c1, (1 - fr) * fc)
            dxf += scatter(r1, c0, fr * (1 - fc))
            dxf += scatter(r1, c1, fr * fc)
            Tensor._accum(x, dxf.reshape(B, C, H, W))
        if loc.requires_grad:
            dr = ((bot - top) * g).sum(axis=1) * r_in
            dc = (((x01 - x00) * (1 - fr) + (x11 - x10) * fr) * g).sum(axis=1) * c_in
            Tensor._accum(loc, np.stack([dr, dc], axis=-1))

    return Tensor._make(out_data, (x, loc), bw)


def _two_tap_weights(n: int, pos: np.ndarray, size: int, inv_g: float):
    """(B,Nk,n,size) weights of `rel_pos_bias` along one table axis, two taps
    per query row (or column), and a thunk for their derivative in the table
    coordinate (q - pos[b, k]) * inv_g + (size-1)/2."""
    raw = (np.arange(n, dtype=np.float64) - pos[:, :, None]) * inv_g + (size - 1) / 2.0
    i0, i1, frac, inside = (a.ravel() for a in bilinear_taps(raw, size))
    rows = np.arange(0, i0.size * size, size)

    def written(*taps):
        out = np.zeros(i0.size * size)
        for i, v in taps:  # (tap index of each row, values), in turn
            out[rows + i] = v
        return out.reshape(raw.shape + (size,))

    # the taps coincide only for size 1, where frac and inside are 0: the
    # weight there is 1 - frac and its derivative 0, so those are written last
    ins = inside.astype(np.float64)
    return written((i1, frac), (i0, 1.0 - frac)), lambda: written((i0, -ins), (i1, ins))


def rel_pos_bias(table: Tensor, ppos: Tensor, H: int, W: int, g: int) -> Tensor:
    """Relative-position bias of every query pixel to every key -> (B,heads,H*W,Nk).

    table (heads,Th,Tw) is indexed by query-to-key displacement in grid
    cells, with zero displacement at its centre; ppos (B,Nk,2) holds the
    continuous (row, col) key positions in feature pixels; the queries are
    the H x W pixel grid. Query (qr, qc) reads key k's bias at
    ((qr - pr_k) / g + (Th-1)/2, (qc - pc_k) / g + (Tw-1)/2), bilinearly,
    with the border clamp of `bilinear_sample` (zero position gradient where
    clamped).

    The row coordinate does not depend on the query column, nor the column
    coordinate on the query row, so for each key the lookup is separable:
    bias = R T C^T with row weights R (H,Th) and column weights C (W,Tw),
    each holding two taps per row.
    """
    table, ppos = Tensor.as_tensor(table), Tensor.as_tensor(ppos)
    hds, Th, Tw = table.data.shape
    if ppos.data.ndim != 3 or ppos.data.shape[2] != 2:
        raise ShapeError(f"key positions must be (B,Nk,2), got {ppos.data.shape}")
    B, Nk, _ = ppos.data.shape
    inv_g = 1.0 / g

    R, dR = _two_tap_weights(H, ppos.data[..., 0], Th, inv_g)
    C, dC = _two_tap_weights(W, ppos.data[..., 1], Tw, inv_g)
    T = table.data
    # along table rows for all keys in one GEMM, then along columns per key
    RT = R.reshape(B * Nk * H, Th) @ T.transpose(1, 0, 2).reshape(Th, hds * Tw)
    RTC = RT.reshape(B, Nk, H * hds, Tw) @ C.transpose(0, 1, 3, 2)  # (B,Nk,H*hds,W)
    out_data = np.ascontiguousarray(RTC.reshape(B, Nk, H, hds, W).transpose(0, 3, 2, 4, 1))
    out_data = out_data.reshape(B, hds, H * W, Nk)

    def bw(grad):
        gk = grad.reshape(B, hds, H, W, Nk).transpose(0, 4, 2, 1, 3).reshape(B, Nk, H * hds, W)
        # grad summed over query columns against C and dC: (B*Nk*H, hds, 2, Tw)
        u = (gk @ np.stack([C, dC()], axis=3).reshape(B, Nk, W, 2 * Tw)).reshape(B * Nk * H, hds, 2, Tw)
        if table.requires_grad:
            dT = R.reshape(B * Nk * H, Th).T @ u[:, :, 0].reshape(B * Nk * H, hds * Tw)
            Tensor._accum(table, dT.reshape(Th, hds, Tw).transpose(1, 0, 2))
        if ppos.requires_grad:
            # u mapped back through the table: index 0 meets dR (row gradient),
            # index 1 meets R (column gradient)
            s = u.transpose(0, 2, 1, 3).reshape(-1, hds * Tw) @ T.transpose(0, 2, 1).reshape(hds * Tw, Th)
            s = s.reshape(B, Nk, H, 2, Th)
            d_row = (dR() * s[:, :, :, 0]).sum(axis=(2, 3))
            d_col = (R * s[:, :, :, 1]).sum(axis=(2, 3))
            Tensor._accum(ppos, np.stack([d_row, d_col], axis=-1) * -inv_g)

    return Tensor._make(out_data, (table, ppos), bw)
