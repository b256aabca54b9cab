"""Reverse-mode autodiff over dense float32 numpy arrays.

A Tensor holds a forward array and, when it requires a gradient, a graph
`Node`: the node holds the gradient, its parents' nodes and the backward
function of the primitive application that produced it. `backward(root)`
replays the nodes in reverse topological order. Tensors have no operators:
every op is a primitive called by name. The primitive set is fixed: matmul,
add, mul, scale, a fused affine map (linear), one row gather (`embedding`,
which refuses out-of-range ids), exp, an upper clamp (`minimum_const`), row
L2 normalization, cross entropy from logits, plus shape plumbing (reshape,
transpose, concat). Three fused primitives carry a transformer block in a
few nodes: `attention` (one whole self-attention sublayer: the q, k and v
projections, head split, rotary, scaled and biased softmax, context product,
head merge and the output projection), `affine_layer_norm` (layer norm,
gain and shift) and `ffn` (linear, GELU, linear). Their unfused references
(softmax, layer norm, GELU, rotary positions, a sum of all elements) are
built in `tests/reference_ops.py` on this module's math helpers, and each
fused primitive gives the results of its chain of `linear`s and references
bit for bit. A primitive none of whose inputs requires a gradient records
nothing, so a forward over `towers.frozen` views builds no graph.

Finite checks. `linear`, `matmul`, `ffn` and `attention` scan their input,
their weights and each activation between their GEMMs for NaN and inf, and
raise `NonFiniteError`. A Tensor made by `constant` was scanned once, when
it was made, and is marked `verified`: those four primitives skip its scan.
Only `constant` marks a Tensor; a primitive's output, a raw array and any
other Tensor are scanned on every call. `towers.frozen` and the `evals`
encoders build their weights with `constant`, so each is scanned once.

Saved arrays. A backward function holds only the arrays its backward reads
(an operand's values only when the other operand needs a gradient), plus
shapes and flags, and never a Tensor. So a forward output that no backward
function saved, such as the residual stream, a branch output or the
un-rotated queries and keys, is freed as soon as the caller drops it.

`backward` frees the graph as it runs. Once an interior node's backward
function has run, the node drops its gradient, its backward function (and
with it every array that function saved) and its links to its parents,
and the walk drops its own reference to it. So an activation lives only
until the gradient has passed through it, and training peaks at about one
step's saved arrays plus the gradients in flight. Leaves keep their
gradients. A graph can be differentiated once: a later `backward` that
reaches a released node raises `GraphReleasedError`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "Node",
    "ShapeError",
    "NonFiniteError",
    "GraphReleasedError",
    "constant",
    "add",
    "mul",
    "scale",
    "matmul",
    "linear",
    "reshape",
    "transpose",
    "concat",
    "affine_layer_norm",
    "attention",
    "ffn",
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
    if a.size and not math.isfinite(float(a.min()) + float(a.max())):
        raise NonFiniteError(f"non-finite values in {what}")


class Node:
    """The graph side of a tensor: its gradient, its parents' nodes and its
    backward function. A leaf node has `parents == ()` and no backward
    function; a node that `backward` has released has `parents is None`."""

    __slots__ = ("grad", "parents", "bwd")

    def __init__(self, parents=(), bwd=None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.bwd = bwd

    def _accumulate(self, g: np.ndarray) -> None:
        # never in place: a backward function may hand the same array to
        # several parents, so a stored gradient must not be mutated
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float32)
        else:
            self.grad = (self.grad + g).astype(np.float32, copy=False)


class Tensor:
    """A dense float32 array, and its graph node when it requires a
    gradient (`node is None` otherwise). `verified` is set only by
    `constant`, whose scan the primitives then skip."""

    __slots__ = ("data", "node", "verified")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.node = Node() if requires_grad else None
        self.verified = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        if not value:
            self.node = None
        elif self.node is None:
            self.node = Node()

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g) -> None:
        if self.node is not None:
            self.node.grad = g
        elif g is not None:
            raise ValueError("a tensor that requires no gradient holds none")

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data, what: str) -> Tensor:
    """A gradient-free Tensor over `data` (no copy), scanned for non-finite
    values here, once, and marked `verified`: `linear`, `matmul`, `ffn` and
    `attention` skip the scan for it. The caller must not write into `data`
    while the Tensor is in use; `NonFiniteError` names `what`."""
    t = Tensor(data)
    _check_finite(t.data, what)
    t.verified = True
    return t


def _check_operand(t: Tensor, what: str) -> None:
    if not t.verified:
        _check_finite(t.data, what)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32))


def _track(out: np.ndarray, parents, bwd) -> Tensor:
    """`out` as a Tensor, with a node when some parent requires a gradient.
    `bwd(g)` returns one gradient (or None) per parent; it must hold only
    the arrays, shapes and flags it reads, never a Tensor, so that an output
    no backward function saved dies with the caller's last reference."""
    t = Tensor(out)
    if any(p.node is not None for p in parents):
        t.node = Node(tuple(p.node for p in parents), bwd)
    return t


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
    sa = a.shape if a.requires_grad else None
    sb = b.shape if b.requires_grad else None

    def bwd(g):
        return (
            _unbroadcast(g, sa) if sa is not None else None,
            _unbroadcast(g, sb) if sb is not None else None,
        )

    return _track(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} incompatible") from e
    sa, sb = a.shape, b.shape
    # each operand's gradient reads the other operand
    bv = b.data if a.requires_grad else None
    av = a.data if b.requires_grad else None

    def bwd(g):
        return (
            _unbroadcast(g * bv, sa) if bv is not None else None,
            _unbroadcast(g * av, sb) if av is not None else None,
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
    _check_operand(a, "matmul lhs")
    _check_operand(b, "matmul rhs")
    out = a.data @ b.data
    sa, sb = a.shape, b.shape
    # a frozen or constant operand gets no gradient, and its partner's
    # values are not kept: in stage 3 that skips every weight gradient of
    # the frozen text base
    bv = b.data if a.requires_grad else None
    av = a.data if b.requires_grad else None

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(bv, -1, -2), sa) if bv is not None else None
        gb = _unbroadcast(np.swapaxes(av, -1, -2) @ g, sb) if av is not None else None
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
    _check_operand(x, "linear lhs")
    _check_operand(w, "linear rhs")
    k, n = w.shape
    rows = x.data.reshape(-1, k)
    out = rows @ w.data
    out += b.data
    x_shape, need_b = x.shape, b.requires_grad
    wv = w.data if x.requires_grad else None
    xv = rows if w.requires_grad else None

    def bwd(g):
        g = g.reshape(-1, n)
        gx = (g @ wv.T).reshape(x_shape) if wv is not None else None
        gw = xv.T @ g if xv is not None else None
        gb = g.sum(axis=0) if need_b else None
        return gx, gw, gb

    return _track(out.reshape(x_shape[:-1] + (n,)), (x, w, b), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)
    sa = a.shape

    def bwd(g):
        return (g.reshape(sa),)

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


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    # -inf logits (masked positions) are fine; NaN, +inf, or an all--inf row
    # is not: the per-row max catches each case
    if not np.isfinite(m).all():
        raise NonFiniteError("softmax: NaN/+inf logits or a fully masked row")
    e = x - m
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


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
    sg, ss = gain.shape, shift.shape
    need_gain, need_shift = gain.requires_grad, shift.requires_grad
    gv = gain.data if a.requires_grad else None

    def bwd(g):
        ga = _normalize_grad(norm, inv, g * gv) if gv is not None else None
        gg = _unbroadcast(g * norm, sg) if need_gain else None
        gs = _unbroadcast(g, ss) if need_shift else None
        return ga, gg, gs

    return _track(out, (a, gain, shift), bwd)


_GELU_C = np.float32(np.sqrt(2.0 / np.pi))
_GELU_A = np.float32(0.044715)


# GELU is computed in place on a few arrays, with x*x rather than x**3,
# because float32 pow is unvectorized and ~8x slower. Backward keeps x and
# the tanh and recomputes x^2, which gives the same bits as keeping it.
def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c (x + a x^3))."""
    t = x * x
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_from_tanh(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 x (1 + t), for t = `_gelu_tanh(x)`."""
    out = t + 1.0
    out *= x
    out *= 0.5
    return out


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
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
    return d


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """`linear(gelu(linear(x, w1, b1)), w2, b2)` as one node, bit for bit.

    Backward keeps x, the pre-activation and its tanh, and recomputes the
    activation for w2's gradient with the forward's own ops; a frozen
    operand gets no gradient."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (
        w1.data.ndim != 2 or w2.data.ndim != 2 or x.data.ndim < 1
        or x.shape[-1] != w1.shape[0] or b1.shape != w1.shape[1:]
        or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]
    ):
        raise ShapeError(
            f"ffn: shapes {x.shape}, {w1.shape}, {b1.shape}, {w2.shape} and {b2.shape} incompatible"
        )
    _check_operand(x, "linear lhs")
    _check_operand(w1, "linear rhs")
    k, n = w1.shape[0], w2.shape[1]
    rows = x.data.reshape(-1, k)
    pre = rows @ w1.data
    pre += b1.data
    t = _gelu_tanh(pre)
    act = _gelu_from_tanh(pre, t)
    _check_finite(act, "linear lhs")
    _check_operand(w2, "linear rhs")
    out = act @ w2.data
    out += b2.data
    x_shape = x.shape
    need_b1, need_w2, need_b2 = b1.requires_grad, w2.requires_grad, b2.requires_grad
    need_h = x.requires_grad or w1.requires_grad or need_b1
    w1v = w1.data if x.requires_grad else None
    xv = rows if w1.requires_grad else None
    w2v = w2.data if need_h else None

    def bwd(g):
        g = g.reshape(-1, n)
        gx = gw1 = gb1 = None
        gw2 = _gelu_from_tanh(pre, t).T @ g if need_w2 else None
        gb2 = g.sum(axis=0) if need_b2 else None
        if need_h:
            gh = _gelu_grad(pre, t, g @ w2v.T)
            gx = (gh @ w1v.T).reshape(x_shape) if w1v is not None else None
            gw1 = xv.T @ gh if xv is not None else None
            gb1 = gh.sum(axis=0) if need_b1 else None
        return gx, gw1, gb1, gw2, gb2

    return _track(out.reshape(x_shape[:-1] + (n,)), (x, w1, b1, w2, b2), bwd)


# Rotary tables hold the sines with their first half negated, so a turn
# is one swap of halves and no negated copy: (-a) s == a (-s) exactly.
def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    out = np.concatenate([x[..., half:], x[..., :half]], axis=-1)
    out *= sin
    out += x * cos
    return out


def _rotate_grad(g: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    half = g.shape[-1] // 2
    gs = g * sin
    return g * cos + np.concatenate([gs[..., half:], gs[..., :half]], axis=-1)


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads: int, cos, sin, bias) -> Tensor:
    """A multi-head self-attention sublayer as one node: the query, key and
    value projections of `x`, scaled dot-product attention over `heads`
    heads, and the output projection.

    `x` is (B, T, d), the four weights (d, d) and the biases (d,). Queries
    and keys turn by rotary positions when the (T, d/heads) tables `cos` and
    `sin` (sines sign-folded, as `towers.rotary_tables` gives them) are not
    None. `bias`, when not None, is a constant array added to the (B, heads,
    T, T) scores, broadcastable to them. The arithmetic is that of three
    `linear`s, the attention chain and one more `linear`, op for op, so
    values and gradients match that chain bit for bit.

    Backward keeps the probabilities, the rotated, split q, k and v, and wo
    only when q, k or v needs a gradient; x's rows only when an input
    weight needs one; the input weights only when x needs one; and the
    context rows only when wo needs one. It drops the gradient of q, of k
    and of v as soon as that projection's gradients are formed."""
    operands = [_as_tensor(t) for t in (x, wq, bq, wk, bk, wv, bv, wo, bo)]
    x, wq, bq, wk, bk, wv, bv, wo, bo = operands
    shapes = [t.data.shape for t in operands]
    d = shapes[0][-1] if shapes[0] else 0
    # weights at the odd places, biases at the even ones after x
    if len(shapes[0]) != 3 or d % heads or shapes[1::2] != [(d, d)] * 4 or shapes[2::2] != [(d,)] * 4:
        raise ShapeError(f"attention: shapes {shapes} with {heads} heads")
    B, T, d = x.shape
    dh = d // heads
    c = np.float32(1.0 / math.sqrt(dh))

    def split(a):
        return np.transpose(a.reshape(B, T, heads, dh), (0, 2, 1, 3))

    def merge(a):
        return np.transpose(a, (0, 2, 1, 3)).reshape(B, T, d)

    def unrotate(g):
        return _rotate_grad(g, cos, sin) if cos is not None else g

    _check_operand(x, "attention input")
    rows = x.data.reshape(-1, d)

    def project(w, b):
        _check_operand(w, "attention weight")
        out = rows @ w.data
        out += b.data
        return split(out)

    qh, kh, vh = project(wq, bq), project(wk, bk), project(wv, bv)
    if cos is not None:
        qh, kh = _rotate(qh, cos, sin), _rotate(kh, cos, sin)
    scores = qh @ np.transpose(kh, (0, 1, 3, 2))
    scores *= c
    if bias is not None:
        scores += bias
    probs = _softmax_rows(scores)
    ctx = merge(probs @ vh).reshape(-1, d)
    _check_finite(ctx, "attention context")
    _check_operand(wo, "attention weight")
    out = ctx @ wo.data
    out += bo.data

    # need[0] is x's; need[1 + 2i] and need[2 + 2i] are projection i's
    # weight and bias, for q, k, v and the output in turn
    need = [t.node is not None for t in operands]
    # q, k and v need a gradient when x or their own projection does
    need_q, need_k, need_v = (need[0] or need[1 + 2 * i] or need[2 + 2 * i] for i in range(3))
    xv = rows if need[1] or need[3] or need[5] else None
    w_in = [wq.data, wk.data, wv.data] if need[0] else None
    wov = wo.data if need_q or need_k or need_v else None
    cv = ctx if need[7] else None
    if wov is None:
        probs = qh = kh = vh = None

    def bwd(g):
        g = g.reshape(-1, d)
        grads = [None] * 9  # in `operands` order
        grads[7] = cv.T @ g if cv is not None else None
        grads[8] = g.sum(axis=0) if need[8] else None
        if wov is None:
            return grads
        gc = split(g @ wov.T)

        def project_back(i, dp):
            # one input projection's backward; x's gradient sums q's, k's
            # and v's in that order, the order the unfused graph adds them
            dp = dp.reshape(-1, d)
            if w_in is not None:
                gx = dp @ w_in[i].T
                if grads[0] is None:
                    grads[0] = gx
                else:
                    grads[0] += gx
            grads[1 + 2 * i] = xv.T @ dp if need[1 + 2 * i] else None
            grads[2 + 2 * i] = dp.sum(axis=0) if need[2 + 2 * i] else None

        if need_q or need_k:
            gs = _softmax_grad(probs, gc @ np.swapaxes(vh, -1, -2)) * c
            if need_q:
                project_back(0, merge(unrotate(gs @ kh)))
            if need_k:
                project_back(1, merge(unrotate(np.transpose(np.swapaxes(qh, -1, -2) @ gs, (0, 1, 3, 2)))))
            del gs
        if need_v:
            project_back(2, merge(np.swapaxes(probs, -1, -2) @ gc))
        if grads[0] is not None:
            grads[0] = grads[0].reshape(B, T, d)
        return grads

    return _track(out.reshape(B, T, d), operands, bwd)


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
    """Lookup rows of an (V, d) table by an integer id array of any shape;
    a table that is not 2-D, or an id below 0 or at V or above, raises
    `ShapeError`. The gradient scatters back with accumulation over
    repeated ids."""
    table = _as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: expected a 2-D table, got {table.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: id out of range for table with {table.shape[0]} rows"
        )
    out = table.data[ids]
    st = table.shape

    def bwd(g):
        gt = np.zeros(st, dtype=np.float32)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, st[1]))
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


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar root into every reachable leaf,
    releasing each interior node once its backward function has run (see
    the module docstring)."""
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    topo: list[Node] = []
    if root.node is not None:
        seen: set[int] = set()
        stack = [(root.node, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.parents is None:
                raise GraphReleasedError("backward: the graph was released by an earlier backward")
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
        root.node.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node.bwd is None:
            continue
        if node.grad is not None:
            for p, g in zip(node.parents, node.bwd(node.grad)):
                if p is not None and g is not None:
                    p._accumulate(g)
        node.grad = node.bwd = node.parents = None
