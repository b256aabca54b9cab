from collections import Counter

import numpy as np
import pytest

from cxalign import towers
from cxalign.autodiff import Tensor, linear

from reference_ops import gelu, unfused_attention


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
    folded into W (values only, no tape). The attention sublayer and the
    FFN run unfused, so each of their weights goes through the adapted map."""
    scaling = run.lora_alpha / run.lora_rank

    def adapted_linear(p, name, x):
        prefix, w = name.rsplit(".", 1)
        out = linear(x, p[name], p[f"{prefix}.b{w[1]}"])
        a_key = f"lora.{name}.A"
        if a_key not in p:
            return out
        a, b = p[a_key].data, p[f"lora.{name}.B"].data
        return Tensor(out.data + scaling * ((x.data @ a) @ b))

    def adapted_attention(p, prefix, x, bias, heads, rope):
        q, k, v = (adapted_linear(p, f"{prefix}.{w}", x) for w in ("wq", "wk", "wv"))
        cos, sin = towers.rotary_tables(x.shape[1], x.shape[2] // heads) if rope else (None, None)
        return adapted_linear(p, f"{prefix}.wo", unfused_attention(q, k, v, heads, cos, sin, bias))

    def adapted_ffn(p, prefix, x):
        return adapted_linear(p, f"{prefix}.w2", gelu(adapted_linear(p, f"{prefix}.w1", x)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers, "_attention", adapted_attention)
        mp.setattr(towers, "_ffn", adapted_ffn)
        return towers.text_forward(params, run, ids)


def graph_bytes(root: Tensor) -> dict:
    """Bytes of the arrays the graph under `root` keeps for backward, per
    primitive: each array its backward functions hold (their helper
    closures included), counted once by the memory it views, so a
    parameter a closure reads counts too."""
    per_primitive, seen_nodes, seen_memory = Counter(), set(), set()

    def arrays(fn):
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                yield value
            elif callable(value) and getattr(value, "__closure__", None):
                yield from arrays(value)

    stack = [root.node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen_nodes or node.bwd is None:
            continue
        seen_nodes.add(id(node))
        stack.extend(node.parents)
        primitive = node.bwd.__qualname__.split(".")[0]
        for a in arrays(node.bwd):
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in seen_memory:
                seen_memory.add(id(a))
                per_primitive[primitive] += a.nbytes
    return dict(per_primitive)
