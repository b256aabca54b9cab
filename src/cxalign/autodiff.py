"""Reverse-mode autodiff over dense float32 numpy arrays.

A Tensor wraps an ndarray and remembers the primitive application that
produced it; `backward(root)` replays the graph in reverse topological
order. Tensors have no operators: every op is a primitive called by name.
The primitive set is fixed: matmul, add, mul, scale, a fused affine map
(linear), softmax, layer norm, rotary positions, embedding lookup, GELU,
exp, an upper clamp (`minimum_const`), row L2 normalization, cross entropy
from logits, a sum of all elements, plus shape plumbing (reshape,
transpose, concat, row gather). Two fused
primitives carry a transformer block in a few nodes: `attention` (head
split, rotary, scaled and biased softmax, context product and head merge)
and `affine_layer_norm` (layer norm, gain and shift). Each shares its math
with the unfused primitives (`softmax`, `rotary`, `layer_norm`) and gives
their results bit for bit. A primitive none of whose inputs requires a
gradient records nothing, so a forward over `towers.frozen` views builds no
graph.

`backward` frees the graph as it runs. Once an interior node's backward
function has run, the node drops its gradient, its backward closure (and
with it every forward array the closure saved) and its links to its
parents, and the walk drops its own reference to it. So an activation
lives only until the gradient has passed through it, and training peaks at
about one step's forward plus the gradients in flight, not at the whole
graph with every interior gradient. Leaves, and any node passed in
`leaves`, keep their gradients. A graph can be differentiated once: a
later `backward` that reaches a released node raises `GraphReleasedError`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "GraphReleasedError",
    "tensor",
    "add",
    "mul",
    "scale",
    "matmul",
    "linear",
    "reshape",
    "transpose",
    "concat",
    "take_rows",
    "sum_",
    "softmax",
    "layer_norm",
    "affine_layer_norm",
    "attention",
    "gelu",
    "rotary",
    "exp",
    "minimum_const",
    "l2_normalize",
    "embedding",
    "cross_entropy",
    "backward",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for a primitive."""


class NonFiniteError(ValueError):
    """Raised when a primitive receives NaN or infinite input."""


class GraphReleasedError(RuntimeError):
    """Raised when `backward` reaches a node whose graph an earlier
    `backward` already released."""


def _check_finite(a: np.ndarray, what: str) -> None:
    # min+max reductions instead of isfinite().all(): no bool temporary, and
    # any NaN/inf propagates into the sum
    if a.size and not np.isfinite(float(a.min()) + float(a.max())):
        raise NonFiniteError(f"non-finite values in {what}")


class Tensor:
    """Dense float32 array node in the computation graph.

    A leaf has no parents (`_parents == ()`) and no backward function. An
    interior node that `backward` has released has `_parents is None`."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _bwd=None):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._bwd = _bwd

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        # never in place: a backward function may hand the same array to
        # several parents, so a stored gradient must not be mutated
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float32)
        else:
            self.grad = (self.grad + g).astype(np.float32, copy=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    t = Tensor(data, requires_grad=requires_grad)
    _check_finite(t.data, "tensor()")
    return t


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32))


def _track(out: np.ndarray, parents, bwd) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    if needs:
        return Tensor(out, requires_grad=True, _parents=tuple(parents), _bwd=bwd)
    return Tensor(out)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} incompatible") from e

    def bwd(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _track(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} incompatible") from e

    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _track(out, (a, b), bwd)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = a.data * np.float32(c)

    def bwd(g):
        return (g * np.float32(c),)

    return _track(out, (a,), bwd)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 1 or a.shape[-1] != b.shape[0 if b.data.ndim == 1 else -2]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} incompatible")
    _check_finite(a.data, "matmul lhs")
    _check_finite(b.data, "matmul rhs")
    out = a.data @ b.data

    # a frozen or constant operand gets no gradient: in stage 3 that skips
    # every weight gradient of the frozen text base
    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return _track(out, (a, b), bwd)


def linear(x, w, b) -> Tensor:
    """`x @ w + b` for an (..., k) input, a (k, n) weight and an (n,) bias.

    The leading axes of `x` fold into rows, so the forward and each
    backward product is one 2-D GEMM: the weight gradient is `x^T g` over
    all rows and the bias gradient one row-sum, with no batched product to
    reduce afterwards."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} incompatible")
    _check_finite(x.data, "linear lhs")
    _check_finite(w.data, "linear rhs")
    k, n = w.shape
    rows = x.data.reshape(-1, k)
    out = rows @ w.data
    out += b.data

    def bwd(g):
        g = g.reshape(-1, n)
        gx = (g @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = rows.T @ g if w.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _track(out.reshape(x.shape[:-1] + (n,)), (x, w, b), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _track(out, (a,), bwd)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    out = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _track(out, (a,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _track(out, tuple(ts), bwd)


def take_rows(a, idx) -> Tensor:
    """Gather rows of a 2-D tensor; gradient scatters back with accumulation."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows: expected 2-D input, got {a.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _track(out, (a,), bwd)


def sum_(a) -> Tensor:
    """Sum of every element, as a scalar."""
    a = _as_tensor(a)
    out = a.data.sum()

    def bwd(g):
        return (np.broadcast_to(g, a.shape),)

    return _track(np.asarray(out, dtype=np.float32), (a,), bwd)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    # -inf logits (masked positions) are fine; NaN, +inf, or an all--inf row
    # is not: the per-row max catches each case
    if not np.isfinite(m).all():
        raise NonFiniteError("softmax: NaN/+inf logits or a fully masked row")
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def softmax(a) -> Tensor:
    """Row softmax over the last axis (numerically stable)."""
    a = _as_tensor(a)
    out = _softmax_rows(a.data)

    def bwd(g):
        return (_softmax_grad(out, g),)

    return _track(out, (a,), bwd)


# added to the variance of `_normalize` and to the norm of `l2_normalize`
LAYER_NORM_EPS = 1e-5
L2_EPS = 1e-12


def _normalize(x: np.ndarray) -> tuple:
    """Rows of `x` at zero mean and unit variance, and their 1/std."""
    # sum / n is bit for bit ndarray.mean's float32 value, without its wrapper
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    return xc * inv, inv


def _normalize_grad(out: np.ndarray, inv: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = out.shape[-1]
    gsum = g.sum(axis=-1, keepdims=True)
    gdot = (g * out).sum(axis=-1, keepdims=True)
    return inv * (g - gsum / n - out * gdot / n)


def layer_norm(a) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine)."""
    a = _as_tensor(a)
    out, inv = _normalize(a.data)

    def bwd(g):
        return (_normalize_grad(out, inv, g),)

    return _track(out, (a,), bwd)


def affine_layer_norm(a, gain, shift) -> Tensor:
    """`layer_norm(a) * gain + shift` as one node, for (d,) gain and shift."""
    a, gain, shift = _as_tensor(a), _as_tensor(gain), _as_tensor(shift)
    if gain.shape != a.shape[-1:] or shift.shape != a.shape[-1:]:
        raise ShapeError(
            f"affine_layer_norm: shapes {a.shape}, {gain.shape} and {shift.shape} incompatible"
        )
    norm, inv = _normalize(a.data)
    out = norm * gain.data
    out += shift.data

    def bwd(g):
        ga = _normalize_grad(norm, inv, g * gain.data) if a.requires_grad else None
        gg = _unbroadcast(g * norm, gain.shape) if gain.requires_grad else None
        gs = _unbroadcast(g, shift.shape) if shift.requires_grad else None
        return ga, gg, gs

    return _track(out, (a, gain, shift), bwd)


_GELU_C = np.float32(np.sqrt(2.0 / np.pi))
_GELU_A = np.float32(0.044715)


def gelu(a) -> Tensor:
    """tanh approximation of GELU, 0.5 x (1 + tanh(c (x + a x^3))).

    Computed in place on two forward arrays and two backward arrays; x*x
    rather than x**3, because float32 pow is unvectorized and ~8x slower.
    Backward keeps only the tanh and recomputes x^2, which gives the same
    bits as keeping it."""
    a = _as_tensor(a)
    x = a.data
    t = x * x
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def bwd(g):
        # d/dx = 0.5 (1 + t + x (1 - t^2) c (1 + 3 a x^2))
        d = x * x
        d *= 3 * _GELU_A * _GELU_C
        d += _GELU_C
        d *= x
        s = t * t
        np.subtract(1.0, s, out=s)
        d *= s
        d += t
        d += 1.0
        d *= 0.5
        d *= g
        return (d,)

    return _track(out, (a,), bwd)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return x * cos + np.concatenate([-x[..., half:], x[..., :half]], axis=-1) * sin


def _rotate_grad(g: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    half = g.shape[-1] // 2
    gs = g * sin
    return g * cos + np.concatenate([gs[..., half:], -gs[..., :half]], axis=-1)


def rotary(a, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position embedding over the last axis, rotate-half layout:
    feature pairs (i, i + d/2) turn by the angles whose cosines and sines
    are the constant arrays `cos` and `sin` (broadcastable to `a`)."""
    a = _as_tensor(a)
    out = _rotate(a.data, cos, sin)

    def bwd(g):
        return (_rotate_grad(g, cos, sin),)

    return _track(out, (a,), bwd)


def attention(q, k, v, heads: int, cos=None, sin=None, bias=None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    `q`, `k` and `v` are (B, T, d) and split into `heads` heads of d/heads
    features. Queries and keys turn by rotary positions when the (T, d/heads)
    tables `cos` and `sin` are given. `bias`, when given, is a constant
    array added to the (B, heads, T, T) scores, broadcastable to them. The
    heads' contexts merge back to (B, T, d). The arithmetic is the unfused
    chain's, op for op, so results match it bit for bit. Backward keeps only
    the attention probabilities and the rotated, split q, k and v."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 3 or k.shape != q.shape or v.shape != q.shape or q.shape[-1] % heads:
        raise ShapeError(f"attention: shapes {q.shape}, {k.shape}, {v.shape} with {heads} heads")
    B, T, d = q.shape
    dh = d // heads
    c = np.float32(1.0 / math.sqrt(dh))

    def split(x):
        return np.transpose(x.reshape(B, T, heads, dh), (0, 2, 1, 3))

    def merge(x):
        return np.transpose(x, (0, 2, 1, 3)).reshape(B, T, d)

    def unrotate(g):
        return _rotate_grad(g, cos, sin) if cos is not None else g

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    if cos is not None:
        qh, kh = _rotate(qh, cos, sin), _rotate(kh, cos, sin)
    scores = qh @ np.transpose(kh, (0, 1, 3, 2))
    scores *= c
    if bias is not None:
        scores += bias
    probs = _softmax_rows(scores)
    out = merge(probs @ vh)

    def bwd(g):
        g = split(g)
        dq = dk = dv = None
        if q.requires_grad or k.requires_grad:
            gs = _softmax_grad(probs, g @ np.swapaxes(vh, -1, -2)) * c
            if q.requires_grad:
                dq = merge(unrotate(gs @ kh))
            if k.requires_grad:
                dk = merge(unrotate(np.transpose(np.swapaxes(qh, -1, -2) @ gs, (0, 1, 3, 2))))
        if v.requires_grad:
            dv = merge(np.swapaxes(probs, -1, -2) @ g)
        return dq, dk, dv

    return _track(out, (q, k, v), bwd)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _track(out, (a,), bwd)


def minimum_const(a, c: float) -> Tensor:
    a = _as_tensor(a)
    out = np.minimum(a.data, np.float32(c))
    passed = (a.data < c).astype(np.float32)

    def bwd(g):
        return (g * passed,)

    return _track(out, (a,), bwd)


def l2_normalize(a) -> Tensor:
    """Row-wise L2 normalization over the last axis; zero rows are rejected."""
    a = _as_tensor(a)
    norm = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    if np.any(norm < 1e-8):
        raise ValueError("l2_normalize: zero-norm row has undefined direction")
    out = a.data / (norm + L2_EPS)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - out * dot) / (norm + L2_EPS),)

    return _track(out, (a,), bwd)


def embedding(table, ids) -> Tensor:
    """Lookup rows of an (V, d) table by an integer id array of any shape."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: id out of range for table with {table.shape[0]} rows"
        )
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _track(out, (table,), bwd)


def cross_entropy(logits, targets) -> Tensor:
    """Mean cross entropy of (N, V) logits against integer targets.

    Fused log-softmax + NLL; gradient is (softmax - onehot) / N.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expected (N, V) logits, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy: targets shape {targets.shape} vs logits {logits.shape}"
        )
    n = logits.shape[0]
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    # -inf rows of masked-out candidates are fine; NaN is not
    if np.any(np.isnan(x)):
        raise NonFiniteError("cross_entropy: NaN logits")
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=-1))
    nll = lse - x[np.arange(n), targets]
    out = np.float32(nll.mean())
    probs = np.exp(x - lse[:, None])

    def bwd(g):
        gl = probs.copy()
        gl[np.arange(n), targets] -= 1.0
        return (gl * (np.asarray(g, dtype=np.float32) / n),)

    return _track(out, (logits,), bwd)


def backward(root: Tensor, leaves=None) -> dict:
    """Accumulate gradients of a scalar root into every reachable leaf,
    releasing each interior node once its backward function has run (see
    the module docstring).

    Returns a mapping from leaf to gradient array when `leaves` is given;
    leaves the root never touched get zeros.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise GraphReleasedError("backward: the graph was released by an earlier backward")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    keep = {id(leaf) for leaf in leaves} if leaves is not None else set()
    root.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node._bwd is None:
            continue
        if node.grad is not None:
            for p, g in zip(node._parents, node._bwd(node.grad)):
                if p.requires_grad and g is not None:
                    p._accumulate(g)
        if id(node) not in keep:
            node.grad = None
        node._bwd = node._parents = None
    if leaves is None:
        return {}
    out = {}
    for leaf in leaves:
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
        out[id(leaf)] = leaf.grad
    return out
