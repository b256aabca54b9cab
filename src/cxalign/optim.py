"""Decoupled-weight-decay Adam over named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


BETAS = (0.9, 0.999)
EPS = 1e-8


class DivergenceError(RuntimeError):
    """Raised when a gradient or loss is no longer finite."""


@dataclass
class AdamW:
    """AdamW with per-parameter-group learning rates.

    `group_lrs` maps a name prefix to a learning rate; the longest matching
    prefix wins, `""` is the default group.
    """

    group_lrs: dict[str, float]
    lr_scale: float = 1.0
    weight_decay: float = 0.01
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def lr_for(self, name: str) -> float:
        best, best_len = None, -1
        for prefix, lr in self.group_lrs.items():
            if name.startswith(prefix) and len(prefix) > best_len:
                best, best_len = lr, len(prefix)
        if best is None:
            raise KeyError(f"no learning-rate group matches parameter {name!r}")
        return best

    def step(self, params: dict[str, Tensor]) -> None:
        """One update over every requires_grad parameter with a gradient."""
        b1, b2 = BETAS
        self.t += 1
        ct = self.t
        for name, p in params.items():
            if not p.requires_grad:
                continue
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"NaN/inf gradient for parameter {name!r}")
            lr = self.lr_for(name) * self.lr_scale
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self.m[name] = m
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**ct)
            vhat = v / (1 - b2**ct)
            if self.weight_decay:
                p.data -= np.float32(lr * self.weight_decay) * p.data
            p.data -= np.float32(lr) * (mhat / (np.sqrt(vhat) + EPS)).astype(np.float32)

    def zero_grad(self, params: dict[str, Tensor]) -> None:
        for p in params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flatten optimizer state for checkpointing."""
        out: dict[str, np.ndarray] = {"opt.t": np.asarray([self.t], dtype=np.float32)}
        for name, arr in self.m.items():
            out[f"opt.m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"opt.v.{name}"] = arr
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.t = int(arrays["opt.t"][0])
        self.m = {
            k[len("opt.m.") :]: v.copy() for k, v in arrays.items() if k.startswith("opt.m.")
        }
        self.v = {
            k[len("opt.v.") :]: v.copy() for k, v in arrays.items() if k.startswith("opt.v.")
        }
