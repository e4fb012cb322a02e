"""Adaptive gradient optimizer with decoupled weight decay."""

from __future__ import annotations

import numpy as np


class AdamW:
    eps = 1e-8

    def __init__(self, params, lr=2e-4, betas=(0.9, 0.999), weight_decay=1e-2):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data -= self.lr * (update + self.weight_decay * p.data)
