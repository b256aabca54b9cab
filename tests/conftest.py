import numpy as np
import pytest

from cxalign import towers
from cxalign.autodiff import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def finite_difference(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(x)
        flat[i] = keep - h
        down = f(x)
        flat[i] = keep
        out[i] = (up - down) / (2 * h)
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def unfolded_lora_forward(params, run, ids):
    """Reference for the LoRA fold: the text forward with each adapted
    weight's adapter run beside it, x@W + b + alpha/r * (x@A)@B, instead of
    folded into W (values only, no tape)."""
    base_linear = towers._linear
    scaling = run.lora_alpha / run.lora_rank

    def adapted_linear(p, name, x):
        out = base_linear(p, name, x)
        a_key = f"lora.{name}.A"
        if a_key not in p:
            return out
        a, b = p[a_key].data, p[f"lora.{name}.B"].data
        return Tensor(out.data + scaling * ((x.data @ a) @ b))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers, "_linear", adapted_linear)
        return towers.text_forward(params, run, ids)
