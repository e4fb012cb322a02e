"""Central finite-difference verification of analytic gradients.

The forward is treated as a black box: the checker perturbs one element at
a time and compares (f(x+h) - f(x-h)) / 2h against the tape's gradient.
Relative error uses a floor so near-zero gradients are compared absolutely
at tolerance rtol*floor.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, no_grad

STEP = 1e-6
REL_FLOOR = 1e-3


def fd_gradcheck(fn, wrt, max_elems=48, seed=0):
    """Worst relative error between tape gradients and central differences.

    fn   : nullary callable rebuilding the scalar loss from the tensors in wrt
    wrt  : tensors (requires_grad) whose gradients are checked; large tensors
           are subsampled to max_elems seeded-random elements
    """
    for t in wrt:
        t.zero_grad()
    loss = fn()
    if loss.data.size != 1:
        raise ValueError("fd_gradcheck needs a scalar loss")
    loss.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in wrt]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, an in zip(wrt, analytic):
        flat = t.data.reshape(-1)
        an_flat = an.reshape(-1)
        n = flat.size
        idxs = range(n) if n <= max_elems else rng.choice(n, size=max_elems, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + STEP
            with no_grad():
                lp = fn().item()
            flat[i] = orig - STEP
            with no_grad():
                lm = fn().item()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * STEP)
            a = an_flat[i]
            if not (np.isfinite(fd) and np.isfinite(a)):
                return np.inf
            rel = abs(fd - a) / max(abs(fd), abs(a), REL_FLOOR)
            if rel > worst:
                worst = rel
    return worst


def scalarize(out: Tensor, r: np.ndarray) -> Tensor:
    """Project an output tensor onto a fixed random vector to get a scalar."""
    return (out * Tensor(r)).sum()
