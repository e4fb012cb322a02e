"""Dense float64 tensor with reverse-mode differentiation.

A thin tape: every recorded op output gets a small node holding its
gradient, the nodes of its inputs and a backward rule; calling
``backward()`` on a scalar walks the nodes once in reverse topological
order and frees them as it goes. The tape holds nodes, not tensors, and
each rule keeps only the arrays it reads, so an activation lives while its
caller holds it or a rule needs it. Only the ops this project needs are
implemented, each with an analytic backward rule that the
finite-difference suite checks.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ..core import bilinear_taps, budget_slices, resize_matrix
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


class _Node:
    """A recorded op output on the tape: the gradient reaching it, the nodes
    of its inputs that need one, and the rule that sends it to them."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents, backward):
        self.grad = None
        self._parents = parents
        self._backward = backward


def _node(t: "Tensor"):
    """What a backward rule sends t's gradient to: the node of the op that
    recorded t, t itself for a leaf that needs a gradient, or None. (A leaf
    holding itself would be a reference cycle, and a dropped model's
    parameters would then wait for the cycle collector.) Inside `no_grad`
    it is None for every tensor, a recorded one too: the one reader of the
    switch, checked first."""
    if not _grad_enabled.get():
        return None
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


class Tensor:
    """An array and, once an op has recorded it, its node on the tape. A leaf
    is its own node: its gradient accumulates into `.grad`."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    # -- graph bookkeeping -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        """An op's output, recorded iff one of `parents`, its inputs' `_node`s, is not None."""
        out = Tensor(data)
        if parents.count(None) == len(parents):  # every op under no_grad
            return out
        out.requires_grad = True
        out._node = _Node(tuple(n for n in parents if n is not None), backward)
        return out

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

    @staticmethod
    def _accum(node, g: np.ndarray):
        if node is not None:
            node.grad = g if node.grad is None else node.grad + g

    def backward(self):
        """Accumulate d(self)/d(leaf) of this scalar into every leaf's `.grad`, once per graph.

        The walk frees the graph behind it: each node loses its rule, its
        parents and its gradient as soon as its rule has run, so every array
        a rule kept and every interior gradient is released once the last
        rule that needs it is done. Leaves keep their `.grad`. The spent rule
        raises, so a second backward through any part of the graph fails
        instead of returning partial gradients.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got {self.data.shape}")
        root = self._node
        if root is None:
            self.grad = np.ones_like(self.data)
            return
        topo, seen, stack = [], set(), [(root, False)]
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
                if type(p) is _Node and id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
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
        na, nb, sa, sb = _node(a), _node(b), a.data.shape, b.data.shape

        def bw(g):
            Tensor._accum(na, _unbroadcast(g, sa))
            Tensor._accum(nb, _unbroadcast(g, sb))

        return Tensor._make(a.data + b.data, (na, nb), bw)

    __radd__ = __add__

    def __neg__(self):
        na = _node(self)
        return Tensor._make(-self.data, (na,), lambda g: Tensor._accum(na, -g))

    def __sub__(self, other):
        return self + (-Tensor.as_tensor(other))

    def __rsub__(self, other):
        return Tensor.as_tensor(other) + (-self)

    def __mul__(self, other):
        a, b = self, Tensor.as_tensor(other)
        na, nb, sa, sb = _node(a), _node(b), a.data.shape, b.data.shape
        # each operand's gradient reads the other operand
        ad = a.data if nb is not None else None
        bd = b.data if na is not None else None

        def bw(g):
            if na is not None:
                Tensor._accum(na, _unbroadcast(g * bd, sa))
            if nb is not None:
                Tensor._accum(nb, _unbroadcast(g * ad, sb))

        return Tensor._make(a.data * b.data, (na, nb), bw)

    __rmul__ = __mul__

    def __pow__(self, p):
        if not np.isscalar(p):
            raise ShapeError("only scalar exponents are supported")
        na, x = _node(self), self.data
        return Tensor._make(x**p, (na,), lambda g: Tensor._accum(na, g * p * x ** (p - 1)))

    def __matmul__(self, other):
        a, b = self, Tensor.as_tensor(other)
        na, nb, sa, sb = _node(a), _node(b), a.data.shape, b.data.shape
        ad = a.data if nb is not None else None
        bd = b.data if na is not None else None

        def bw(g):
            if na is not None:
                Tensor._accum(na, _unbroadcast(g @ np.swapaxes(bd, -1, -2), sa))
            if nb is not None:
                Tensor._accum(nb, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb))

        return Tensor._make(a.data @ b.data, (na, nb), bw)

    # -- elementwise functions -------------------------------------------------

    def log(self):
        na, x = _node(self), self.data
        return Tensor._make(np.log(x), (na,), lambda g: Tensor._accum(na, g / x))

    def sqrt(self):
        na, out_data = _node(self), np.sqrt(self.data)
        return Tensor._make(out_data, (na,), lambda g: Tensor._accum(na, g * 0.5 / out_data))

    def abs(self):
        na, x = _node(self), self.data
        return Tensor._make(np.abs(x), (na,), lambda g: Tensor._accum(na, g * np.sign(x)))

    def tanh(self):
        na, out_data = _node(self), np.tanh(self.data)
        return Tensor._make(out_data, (na,), lambda g: Tensor._accum(na, g * (1.0 - out_data**2)))

    def sigmoid(self):
        na, out_data = _node(self), 0.5 * (1.0 + np.tanh(0.5 * self.data))
        return Tensor._make(out_data, (na,), lambda g: Tensor._accum(na, g * out_data * (1.0 - out_data)))

    def relu(self):
        # slope 1/2 exactly at the kink: matches what a central difference
        # measures when a preactivation sits exactly on 0 (zero-init biases
        # behind fully-rectified receptive fields make that case systematic)
        x, na, code = self.data, _node(self), None
        if na is not None:
            # one byte per element: 2 above the kink, 1 on it (+0 or -0), 0 below or NaN
            code = np.add(x >= 0, x > 0, dtype=np.uint8)

        def bw(g):
            Tensor._accum(na, g * (code * 0.5))

        return Tensor._make(np.maximum(x, 0.0), (na,), bw)

    def gelu(self):
        # tanh approximation, smooth everywhere; x2 * x, as x**3 is a slow float pow
        na, x = _node(self), self.data
        c = np.sqrt(2.0 / np.pi)
        x2 = x * x
        t = np.tanh(c * (x + 0.044715 * (x2 * x)))
        out_data = 0.5 * x * (1.0 + t)

        def bw(g):
            du = c * (1.0 + 3 * 0.044715 * x2)
            Tensor._accum(na, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du))

        return Tensor._make(out_data, (na,), bw)

    def softplus(self):
        na, x = _node(self), self.data
        return Tensor._make(
            np.logaddexp(0.0, x), (na,), lambda g: Tensor._accum(na, g * 0.5 * (1.0 + np.tanh(0.5 * x)))
        )

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        na, shape = _node(self), self.data.shape

        def bw(g):
            gg = g
            if not keepdims and axis is not None:
                gg = np.expand_dims(g, axis)
            Tensor._accum(na, np.broadcast_to(gg, shape).copy())

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (na,), bw)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else math.prod(
            self.data.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def max(self, axis=None, keepdims=False):
        na, x = _node(self), self.data
        out_data = x.max(axis=axis, keepdims=keepdims)

        def bw(g):
            gg, oo = g, out_data
            if not keepdims and axis is not None:
                gg = np.expand_dims(g, axis)
                oo = np.expand_dims(out_data, axis)
            mask = x == oo
            count = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            Tensor._accum(na, mask * (gg / count))

        return Tensor._make(out_data, (na,), bw)

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        na, old = _node(self), self.data.shape
        return Tensor._make(self.data.reshape(shape), (na,), lambda g: Tensor._accum(na, g.reshape(old)))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        na, inv = _node(self), tuple(sorted(range(len(axes)), key=axes.__getitem__))
        return Tensor._make(self.data.transpose(axes), (na,), lambda g: Tensor._accum(na, g.transpose(inv)))

    def __getitem__(self, idx):
        """Basic indexing only (ints, slices, `...`, None): its backward
        writes the gradient into the one place each element came from."""
        for i in idx if isinstance(idx, tuple) else (idx,):
            if isinstance(i, bool) or not isinstance(i, (int, np.integer, slice, type(Ellipsis), type(None))):
                raise ShapeError(f"Tensor indexing takes ints, slices, ... and None, got {type(i).__name__}")
        na, shape = _node(self), self.data.shape

        def bw(g):
            dx = np.zeros(shape)
            dx[idx] = g
            Tensor._accum(na, dx)

        return Tensor._make(np.ascontiguousarray(self.data[idx]), (na,), bw)

    def diff(self, axis=-1):
        """Forward differences x[i+1] - x[i] along `axis`, as `np.diff`: one
        node whose backward writes g into the upper slice and -g into the lower."""
        na, shape = _node(self), self.data.shape
        upper, lower = [slice(None)] * self.data.ndim, [slice(None)] * self.data.ndim
        upper[axis], lower[axis] = slice(1, None), slice(None, -1)
        upper, lower = tuple(upper), tuple(lower)

        def bw(g):
            dx = np.zeros(shape)
            dx[upper] = g
            dx[lower] -= g
            Tensor._accum(na, dx)

        return Tensor._make(self.data[upper] - self.data[lower], (na,), bw)


def concat(tensors, axis=0):
    nodes = [_node(t) for t in tensors]
    offsets = list(accumulate((t.data.shape[axis] for t in tensors), initial=0))

    def bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            Tensor._accum(n, g[tuple(sl)])

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), nodes, bw)


def softmax(x: Tensor, axis=-1) -> Tensor:
    na = _node(x)
    # shift, exponentiate and normalize in one buffer
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        Tensor._accum(na, out_data * (g - dot))

    return Tensor._make(out_data, (na,), bw)


# -- normalization ----------------------------------------------------------------


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, axes: tuple):
    """y = xhat * gamma + beta as one node, with xhat = (x - mean) / sqrt(var + eps)
    over `axes` and gamma, beta (C,) along axis 1: the one kernel of training
    BatchNorm (axes (0, 2, 3)) and LayerNorm (axis 1).

    Returns the output and the mean and biased variance, with `axes` kept as 1s.
    The backward is the closed form (Ioffe & Szegedy 2015; Ba et al. 2016):
    gamma's and beta's gradients are summed over every axis but 1, and with
    gh = g * gamma, dx = inv * (gh - mean(gh) - xhat * mean(gh * xhat)).
    """
    nx, ng, nbeta = _node(x), _node(gamma), _node(beta)
    per_channel = (-1,) + (1,) * (x.data.ndim - 2)
    # sum / n is ndarray.mean's pairwise sum and true division, without its Python wrapper
    n = math.prod(x.data.shape[a] for a in axes)
    mean = x.data.sum(axis=axes, keepdims=True) / n
    xhat = x.data - mean
    var = (xhat * xhat).sum(axis=axes, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    g_c = gamma.data.reshape(per_channel)
    out_data = xhat * g_c
    out_data += beta.data.reshape(per_channel)
    rest = (0,) + tuple(range(2, x.data.ndim))

    def bw(g):
        if ng is not None:
            Tensor._accum(ng, (g * xhat).sum(axis=rest))
        if nbeta is not None:
            Tensor._accum(nbeta, g.sum(axis=rest))
        if nx is not None:
            gh = g * g_c
            dx = xhat * -((gh * xhat).sum(axis=axes, keepdims=True) / n)
            dx += gh
            dx -= gh.sum(axis=axes, keepdims=True) / n
            dx *= inv
            Tensor._accum(nx, dx)

    return Tensor._make(out_data, (nx, ng, nbeta), bw), mean, var


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """Training batch normalization of x (B,C,H,W) over (0, 2, 3) as one node:
    the output and the batch's mean and biased variance, each (C,)."""
    out, mean, var = _normalize(x, gamma, beta, eps, (0, 2, 3))
    return out, mean.ravel(), var.ravel()


def batch_norm_eval(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, mean: np.ndarray, var: np.ndarray) -> Tensor:
    """Eval batch normalization of x (B,C,H,W) with fixed (C,) statistics as one
    node, the per-channel affine x * scale + shift: scale = gamma / sqrt(var + eps)
    and shift = beta - mean * scale are computed here, not on the tape."""
    nx, ng, nbeta = _node(x), _node(gamma), _node(beta)
    C = x.data.shape[1]
    inv = 1.0 / np.sqrt(var + eps)
    scale = gamma.data * inv
    shift = beta.data - mean * scale
    out_data = x.data * scale.reshape(1, C, 1, 1)
    out_data += shift.reshape(1, C, 1, 1)
    xd = x.data if ng is not None else None  # read by gamma's gradient only

    def bw(g):
        if nx is not None:
            Tensor._accum(nx, g * scale.reshape(1, C, 1, 1))
        if ng is not None or nbeta is not None:
            d_shift = _unbroadcast(g, (1, C, 1, 1)).reshape(C)
            Tensor._accum(nbeta, d_shift)
            if ng is not None:
                d_scale = _unbroadcast(g * xd, (1, C, 1, 1)).reshape(C) + -d_shift * mean
                Tensor._accum(ng, d_scale * inv)

    return Tensor._make(out_data, (nx, ng, nbeta), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Layer normalization over axis 1, the channels of each pixel of
    x (B, C, ...), as one node; gamma and beta are (C,)."""
    return _normalize(x, gamma, beta, eps, (1,))[0]


# -- convolution ------------------------------------------------------------------


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int, Ho: int, Wo: int, start=(0, 0)) -> np.ndarray:
    """Strided view (B,C,Ho,Wo,kh,kw) of a padded map from row and column `start`,
    no copy: (b, c, ho, wo, i, j) is xp[b, c, start[0] + stride*ho + i, start[1] + stride*wo + j].
    It is built on xp's buffer, so xp must be C-contiguous."""
    sB, sC, sH, sW = xp.strides
    shape, strides = xp.shape[:2] + (Ho, Wo, kh, kw), (sB, sC, stride * sH, stride * sW, sH, sW)
    return np.ndarray(shape, xp.dtype, xp, start[0] * sH + start[1] * sW, strides)


def _cols(x: np.ndarray, kh: int, kw: int, stride: int, padding: int, Ho: int, Wo: int, groups: int, start=(0, 0)):
    """Column matrices (groups, C/groups*kh*kw, B*Ho*Wo) of the windows of
    x (B,C,H,W) zero-padded spatially by `padding`, from row and column
    `start` of the padded map, in one copy of the window view."""
    B, C, H, W = x.shape
    if padding:
        xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
        xp[:, :, padding : padding + H, padding : padding + W] = x
    else:
        xp = np.ascontiguousarray(x)  # no copy for the contiguous maps a network makes
    win = _windows(xp, kh, kw, stride, Ho, Wo, start)
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(groups, C // groups * kh * kw, B * Ho * Wo)


def _phases(n: int, n_out: int, k: int, stride: int, padding: int):
    """One axis of a conv's input gradient, split by stride phase: the inputs
    rho, rho+stride, ... (`rows` of them) read only the taps r, r+stride, ...
    (`taps` of them), r = (rho+padding) % stride. Returns, per phase with a
    tap and an input, (the slice of its inputs, the slice of its taps, taps,
    rows, lo), lo being g's row under the first window of the flipped taps,
    and g's pads (before, after) that hold every phase's windows."""
    phases = []
    for rho in range(stride):
        q, r = divmod(rho + padding, stride)
        taps, rows = len(range(r, k, stride)), len(range(rho, n, stride))
        if taps and rows:  # tap r+stride*m of input rho+stride*t pairs with g's row t+q-m
            phases.append((slice(rho, None, stride), slice(r, None, stride), taps, rows, q - taps + 1))
    before = max([0, *(-lo for *_, lo in phases)])
    after = max([0, *(lo + taps + rows - 1 - n_out for _, _, taps, rows, lo in phases)])
    return phases, (before, after)


def _conv(x: Tensor, w: Tensor, b: Tensor | None, stride: int, padding: int, groups: int) -> Tensor:
    """Grouped 2-D cross-correlation, the one kernel behind `conv2d` and
    `depthwise_conv2d`: x (B,C,H,W) * w (F,C/groups,kh,kw) -> (B,F,Ho,Wo),
    where output channel f reads only the C/groups input channels of group
    f // (F/groups). With one input channel per group, w may also be
    (F,kh,kw): it is reshaped here, so no extra tape node appears.

    The output is one GEMM per group on an im2col matrix of x (Chellapilla
    et al. 2006), copied from the window view where it is used; the tape
    keeps x, not the matrix or a padded copy.

    When x needs a gradient, the backward pads the output gradient g once per
    sample chunk. The inputs of one stride phase read only every stride-th
    kernel tap (`_phases`; the sub-pixel split of Shi et al. 2016), so their
    gradient is a stride-1 correlation of g with those taps flipped and the
    channel axes swapped (the transposed convolution of Dumoulin & Visin
    2016). Per phase, one im2col matrix of the padded g gives dx there, one
    GEMM per group, and dw at those taps, the matrix times x's phase inputs
    as (C/groups, B*rows*columns). Stride 1 is one phase. When x needs no
    gradient (as where one input channel feeds many outputs and g's matrix
    would be the larger), dw is one GEMM per group on x's im2col matrix.

    Every im2col matrix that would exceed the byte budget is walked in chunks
    of samples whose matrix fits it (`budget_slices`); g's matrices take their
    own chunks.

    An ungrouped, unpadded 1x1 convolution at stride 1 is a channel mix of
    each sample, w (F,C) @ x (C,H*W) and its transposes, with no window,
    im2col matrix or output transpose.
    """
    B, C, H, W = x.data.shape
    F, kh, kw = w.data.shape[0], w.data.shape[-2], w.data.shape[-1]
    G, Fg, Cg, wshape = groups, F // groups, C // groups, w.data.shape
    nx, nw = _node(x), _node(w)
    nb = None if b is None else _node(b)
    # the weight gradient reads the input, the input gradient the weight
    xd = x.data if nw is not None else None
    wd = w.data if nx is not None else None
    mix = kh == kw == stride == groups == 1 and padding == 0
    if mix:
        out_data = (w.data.reshape(F, C) @ x.data.reshape(B, C, H * W)).reshape(B, F, H, W)
    else:
        Ho, Wo = (H + 2 * padding - kh) // stride + 1, (W + 2 * padding - kw) // stride + 1
        w2, n = w.data.reshape(G, Fg, Cg * kh * kw), Ho * Wo
        xchunks = budget_slices(B, 8 * C * kh * kw * n)  # chunks whose matrix of x fits
        out_data = np.empty((G, Fg, B * n))
        for c in xchunks:  # each chunk's matrix is freed before the next is built
            chunk = out_data[:, :, c.start * n : c.stop * n]
            np.matmul(w2, _cols(x.data[c], kh, kw, stride, padding, Ho, Wo, G), out=chunk)
        # a view at B=1, where the batch axis has size one
        out_data = np.ascontiguousarray(out_data.reshape(F, B, Ho, Wo).transpose(1, 0, 2, 3))
    if b is not None:
        out_data += b.data[None, :, None, None]

    def bw(g):
        if nb is not None:
            Tensor._accum(nb, g.sum(axis=(0, 2, 3)))
        if nx is None and nw is None:  # only the bias needs a gradient
            return
        if mix:
            g3 = g.reshape(B, F, H * W)
            if nw is not None:
                dw = (g3 @ xd.reshape(B, C, H * W).transpose(0, 2, 1)).sum(axis=0)
                Tensor._accum(nw, dw.reshape(wshape))
            if nx is not None:
                Tensor._accum(nx, (wd.reshape(F, C).T @ g3).reshape(B, C, H, W))
            return
        if nx is None:
            dw = 0
            for c in xchunks:
                g2 = g[c].transpose(1, 0, 2, 3).reshape(G, Fg, -1)
                dw = dw + g2 @ _cols(xd[c], kh, kw, stride, padding, Ho, Wo, G).transpose(0, 2, 1)
            Tensor._accum(nw, dw.reshape(wshape))
            return
        rows, (top, bottom) = _phases(H, Ho, kh, stride, padding)
        cols, (left, right) = _phases(W, Wo, kw, stride, padding)
        wf = wd.reshape(G, Fg, Cg, kh, kw).transpose(0, 2, 1, 3, 4)  # channel axes swapped
        # the phases write every input pixel, unless one has inputs but no tap (k < stride)
        dx = (np.empty if len(rows) == len(cols) == stride else np.zeros)((B, C, H, W))
        dw = np.zeros((G, Fg, kh, kw, Cg))  # in the layout of g's matrix @ x
        sample_bytes = 8 * F * -(-kh // stride) * -(-kw // stride) * -(-H // stride) * -(-W // stride)
        for c in budget_slices(B, sample_bytes):  # chunks whose largest phase matrix fits
            gp = np.zeros((c.stop - c.start, F, top + Ho + bottom, left + Wo + right))
            gp[:, :, top : top + Ho, left : left + Wo] = g[c]
            for py, ky, th, hr, oy in rows:  # (inputs, taps, tap count, rows, g's first row) of each axis
                for px, kx, tw, wr, ox in cols:
                    gcols = _cols(gp, th, tw, 1, 0, hr, wr, G, (top + oy, left + ox))
                    wk = wf[..., ky, kx][..., ::-1, ::-1].reshape(G, Cg, -1)
                    dx[c, :, py, px] = (wk @ gcols).reshape(C, -1, hr, wr).transpose(1, 0, 2, 3)
                    if nw is not None:
                        xr = xd[c, :, py, px].transpose(1, 0, 2, 3).reshape(G, Cg, -1)
                        part = (gcols @ xr.transpose(0, 2, 1)).reshape(G, Fg, th, tw, Cg)
                        dw[:, :, ky, kx] += part[:, :, ::-1, ::-1]  # the matrix's taps run flipped
                    del gcols  # freed before the next phase's is built
        Tensor._accum(nw, dw.transpose(0, 1, 4, 2, 3).reshape(wshape))
        Tensor._accum(nx, dx)

    return Tensor._make(out_data, (nx, nw, nb), bw)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation: x (B,C,H,W) * w (F,C,kh,kw) -> (B,F,Ho,Wo); the
    one-group case of the grouped im2col kernel `_conv`."""
    if w.data.shape[1] != x.data.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.data.shape} vs weight {w.data.shape}")
    return _conv(x, w, b, stride, padding, groups=1)


def depthwise_conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """Per-channel convolution: x (B,C,H,W) * w (C,kh,kw) -> (B,C,Ho,Wo); the
    one-channel-per-group case (groups=C) of the grouped im2col kernel `_conv`."""
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
    nx = _node(x)
    B, C, H, W = x.data.shape
    Rh, RhT = _resize_pair(H, out_h)
    Rw, RwT = _resize_pair(W, out_w)
    out_data = Rh @ (x.data @ RwT)

    def bw(g):
        if nx is not None:
            Tensor._accum(nx, RhT @ (g @ Rw))

    return Tensor._make(out_data, (nx,), bw)


def bilinear_sample(x: Tensor, loc: Tensor) -> Tensor:
    """Sample x (B,C,H,W) at continuous (row, col) locations (B,P,2) -> (B,C,P).

    Out-of-bounds locations are clamped to the border; the location gradient
    is zero in the clamped region.
    """
    nx, nloc = _node(x), _node(loc)
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
    xf = x.data.reshape(B, C, H * W)
    gathered = xf[np.arange(B)[:, None, None], np.arange(C)[None, :, None], taps[:, None, :]]
    x00, x01, x10, x11 = gathered.reshape(B, C, 4, P).transpose(2, 0, 1, 3)
    top = x00 * (1 - fc) + x01 * fc
    bot = x10 * (1 - fc) + x11 * fc
    out_data = top * (1 - fr) + bot * fr
    if nloc is None:  # only the location gradient reads the gathered taps
        x00 = x01 = x10 = x11 = top = bot = None

    def bw(g):
        if nx is not None:
            # one scatter-add over the forward's (B, C, 4P) tap indices, offset
            # per (batch, channel), weighted in the same tap order
            wts = np.concatenate([(1 - fr) * (1 - fc), (1 - fr) * fc, fr * (1 - fc), fr * fc], axis=2)
            flat = taps[:, None, :] + (np.arange(B * C) * (H * W)).reshape(B, C, 1)
            gw = g[:, :, None, :] * wts.reshape(B, 1, 4, P)
            dxf = np.bincount(flat.ravel(), weights=gw.ravel(), minlength=B * C * H * W)
            Tensor._accum(nx, dxf.reshape(B, C, H, W))
        if nloc is not None:
            dr = ((bot - top) * g).sum(axis=1) * r_in
            dc = (((x01 - x00) * (1 - fr) + (x11 - x10) * fr) * g).sum(axis=1) * c_in
            Tensor._accum(nloc, np.stack([dr, dc], axis=-1))

    return Tensor._make(out_data, (nx, nloc), bw)


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
    """Key-major relative-position bias of every key to every query pixel -> (B,heads,Nk,H*W).

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
    ntable, nppos = _node(table), _node(ppos)
    hds, Th, Tw = table.data.shape
    if ppos.data.ndim != 3 or ppos.data.shape[2] != 2:
        raise ShapeError(f"key positions must be (B,Nk,2), got {ppos.data.shape}")
    B, Nk, _ = ppos.data.shape
    inv_g = 1.0 / g

    R, dR = _two_tap_weights(H, ppos.data[..., 0], Th, inv_g)
    C, dC = _two_tap_weights(W, ppos.data[..., 1], Tw, inv_g)
    T = table.data
    # along table columns for all heads and keys in one GEMM per sample, then
    # along rows per (head, key), which writes the key-major layout itself
    TC = T.reshape(hds * Th, Tw) @ C.reshape(B, Nk * W, Tw).transpose(0, 2, 1)  # (B,hds*Th,Nk*W)
    out_data = R[:, None] @ TC.reshape(B, hds, Th, Nk, W).transpose(0, 1, 3, 2, 4)  # (B,hds,Nk,H,W)
    out_data = out_data.reshape(B, hds, Nk, H * W)

    def bw(grad):
        gk = grad.reshape(B, hds, Nk, H, W).transpose(0, 2, 3, 1, 4).reshape(B, Nk, H * hds, W)
        # grad summed over query columns against C and dC: (B*Nk*H, hds, 2, Tw)
        u = (gk @ np.stack([C, dC()], axis=3).reshape(B, Nk, W, 2 * Tw)).reshape(B * Nk * H, hds, 2, Tw)
        if ntable is not None:
            dT = R.reshape(B * Nk * H, Th).T @ u[:, :, 0].reshape(B * Nk * H, hds * Tw)
            Tensor._accum(ntable, dT.reshape(Th, hds, Tw).transpose(1, 0, 2))
        if nppos is not None:
            # u mapped back through the table: index 0 meets dR (row gradient),
            # index 1 meets R (column gradient)
            s = u.transpose(0, 2, 1, 3).reshape(-1, hds * Tw) @ T.transpose(0, 2, 1).reshape(hds * Tw, Th)
            s = s.reshape(B, Nk, H, 2, Th)
            d_row = (dR() * s[:, :, :, 0]).sum(axis=(2, 3))
            d_col = (R * s[:, :, :, 1]).sum(axis=(2, 3))
            Tensor._accum(nppos, np.stack([d_row, d_col], axis=-1) * -inv_g)

    return Tensor._make(out_data, (ntable, nppos), bw)
