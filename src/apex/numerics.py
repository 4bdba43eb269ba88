"""Dense float64 tensors, a small reverse-mode autodiff engine, and the
numerical verification helpers used throughout the test suite.

The engine is deliberately minimal: enough operations for 4-layer MLPs,
cosine addressing over a slot matrix, the contrastive and segmentation
losses, and the custom linear operators registered by the spectral and
backbone code. Graphs are built eagerly, are acyclic by construction, and
are single-use: call :func:`backward` once per graph.

Gradient accumulation is additive; call ``zero_grad`` on parameters between
steps.

The two hot composites are fused: :func:`linear` (one MLP layer) and
:func:`cosine_rows` (a matrix of row cosines) are one node each, with a
hand-written backward that runs the NumPy expressions of the primitive
chain it replaces and accumulates into each input in the chain's order, so
values and gradients are bit-identical to that chain. The primitives stay:
they are the gradient-checked reference and build the other composites.
A Python number used as an operand of :func:`add`, :func:`sub`, :func:`mul`
or :func:`div` enters the arithmetic as a float, not as a constant node.

Finiteness is checked once where a value is made: every :class:`Tensor`
(so every node's value) with ``numpy.isfinite`` at construction, a
Python-number operand with ``math.isfinite``, and in :func:`sgd_step` only
the updated parameter, which a non-finite gradient always makes non-finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    NumericDomainError,
    ShapeError,
    TrainingDivergedError,
)

NORM_EPS = 1e-12


class Tensor:
    """Immutable dense array of 64-bit floats, row-major.

    All values are checked finite at construction; the backing array is
    frozen so tensors can be shared read-only across threads.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        self._install(arr)

    def _install(self, arr: np.ndarray) -> None:
        arr = np.asarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("tensor values must all be finite")
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # 0-d arrays are already contiguous
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Takes ownership of a freshly computed array (no defensive copy).
        t = object.__new__(cls)
        t._install(arr)
        return t

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def shape(self) -> tuple:
        return self._array.shape

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def data(self) -> np.ndarray:
        """Row-major flat view of the values."""
        return self._array.reshape(-1)

    def item(self) -> float:
        if self._array.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self._array.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def as_tensor(values) -> Tensor:
    if isinstance(values, Tensor):
        return values
    return Tensor(values)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    for _ in range(extra):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Node:
    """A value in the computation graph.

    ``value`` is a :class:`Tensor`; ``grad`` is a same-shaped float64 array,
    accumulated additively by :func:`backward`. Its buffer is allocated when
    the first gradient arrives (see :meth:`accumulate`), so nodes that no
    gradient reaches, such as constants and everything built in evaluation,
    never hold one; until then ``grad`` reads as zeros.
    """

    __slots__ = ("value", "_grad", "requires_grad", "op", "_parents", "_backward", "_needs_grad")

    def __init__(self, value, requires_grad: bool = False, parents: Sequence["Node"] = (),
                 backward: Callable[[np.ndarray], None] | None = None, op: str = "leaf"):
        self.value = as_tensor(value)
        self._grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = tuple(parents)
        self._backward = backward
        self._needs_grad = requires_grad or any(p._needs_grad for p in self._parents)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def array(self) -> np.ndarray:
        return self.value.array

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient. The array may be shared with other nodes of
        the graph: read it, never modify it in place."""
        if self._grad is None:
            return np.zeros(self.value.shape, dtype=np.float64)
        return self._grad

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` (same shape as the value) into the gradient.

        A row-major ``g`` is stored as given and later gradients make a new
        sum, so no array handed in is ever written to. Other layouts (a
        transpose, a broadcast) are copied: the gradient is always row-major,
        so reductions over it, such as the trainer's clip norm, sum in the
        same order whichever op produced it.
        """
        total = g if self._grad is None else self._grad + g
        self._grad = np.asarray(total, order="C")

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        return self.value.item()

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return Node(as_tensor(x), requires_grad=False, op="const")


def parameter(values, op: str = "param") -> Node:
    """Leaf node that accumulates gradients."""
    return Node(as_tensor(values), requires_grad=True, op=op)


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(ancestor) into every gradient-requiring ancestor.

    ``loss`` must be scalar. Honors stop-gradient barriers.
    """
    if loss.value.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")

    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
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
            if id(p) not in seen and p._needs_grad:
                stack.append((p, False))

    loss.accumulate(np.ones(loss.value.shape, dtype=np.float64))
    for node in reversed(topo):
        # a node no gradient reached contributes nothing to its parents
        if node._backward is not None and node._needs_grad and node._grad is not None:
            node._backward(node._grad)


def zero_grads(nodes: Iterable[Node]) -> None:
    for n in nodes:
        n.zero_grad()


def stop_gradient(a: Node) -> Node:
    """Value of ``a`` with the gradient path severed."""
    a = as_node(a)
    return Node(a.value, op="stop_gradient")


# ---------------------------------------------------------------------------
# elementwise and structural operations
# ---------------------------------------------------------------------------

def _operand(x):
    """A Python number as a checked float, anything else as a node. A number
    enters the arithmetic as it is, not as a constant node: the same float64
    values, without a node or an array check."""
    if isinstance(x, (int, float)):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("tensor values must all be finite")
        return x
    return as_node(x)


def _binary(op_name: str, a, b, fwd, bwd_a, bwd_b) -> Node:
    a, b = _operand(a), _operand(b)
    xa = a.array if isinstance(a, Node) else a
    xb = b.array if isinstance(b, Node) else b
    try:
        out = fwd(xa, xb)
    except ValueError as exc:
        raise ShapeError(f"{op_name}: incompatible shapes {np.shape(xa)} and {np.shape(xb)}") \
            from exc

    def back(g: np.ndarray) -> None:
        if isinstance(a, Node) and a._needs_grad:
            a.accumulate(_unbroadcast(bwd_a(g, xa, xb), a.shape))
        if isinstance(b, Node) and b._needs_grad:
            b.accumulate(_unbroadcast(bwd_b(g, xa, xb), b.shape))

    parents = tuple(x for x in (a, b) if isinstance(x, Node))
    return Node(Tensor._wrap(out), parents=parents, backward=back, op=op_name)


def add(a, b) -> Node:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Node:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Node:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Node:
    return _binary("div", a, b, np.divide, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


def _unary(op_name: str, a, fwd, bwd) -> Node:
    a = as_node(a)
    out = fwd(a.array)

    def back(g: np.ndarray) -> None:
        if a._needs_grad:
            a.accumulate(bwd(g, a.array, out))

    return Node(Tensor._wrap(out), parents=(a,), backward=back, op=op_name)


def neg(a) -> Node:
    return _unary("neg", a, np.negative, lambda g, x, y: -g)


def exp(a) -> Node:
    return _unary("exp", a, np.exp, lambda g, x, y: g * y)


def log(a) -> Node:
    a = as_node(a)
    if np.any(a.array <= 0.0):
        raise NumericDomainError("log requires strictly positive input")
    return _unary("log", a, np.log, lambda g, x, y: g / x)


def sqrt(a) -> Node:
    a = as_node(a)
    if np.any(a.array < 0.0):
        raise NumericDomainError("sqrt requires nonnegative input")
    return _unary("sqrt", a, np.sqrt, lambda g, x, y: g / (2.0 * np.maximum(y, NORM_EPS)))


def sigmoid(a) -> Node:
    def fwd(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    return _unary("sigmoid", a, fwd, lambda g, x, y: g * y * (1.0 - y))


def relu(a) -> Node:
    return _unary("relu", a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def softplus(a) -> Node:
    return _unary("softplus", a, lambda x: np.logaddexp(0.0, x),
                  lambda g, x, y: g / (1.0 + np.exp(-x)))


def clip(a, lo: float, hi: float) -> Node:
    """Clamp values to [lo, hi]; gradient passes only where unclipped."""
    return _unary("clip", a, lambda x: np.clip(x, lo, hi),
                  lambda g, x, y: g * ((x >= lo) & (x <= hi)))


def clip_min(a, lo: float) -> Node:
    return _unary("clip_min", a, lambda x: np.maximum(x, lo), lambda g, x, y: g * (x >= lo))


def _check_axis(axis, ndim: int) -> None:
    if axis is not None and not (-ndim <= axis < ndim):
        raise ShapeError(f"axis {axis} invalid for {ndim}-d tensor")


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Node:
    a = as_node(a)
    _check_axis(axis, a.array.ndim)
    out = np.sum(a.array, axis=axis, keepdims=keepdims)

    def back(g: np.ndarray) -> None:
        if not a._needs_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a.accumulate(np.broadcast_to(g, a.shape))

    return Node(Tensor._wrap(out), parents=(a,), backward=back, op="sum")


def reduce_mean(a, axis: int | None = None, keepdims: bool = False) -> Node:
    a = as_node(a)
    _check_axis(axis, a.array.ndim)
    count = a.array.size if axis is None else a.array.shape[axis]
    return div(reduce_sum(a, axis=axis, keepdims=keepdims), float(count))


def reduce_max(a, axis: int | None = None, keepdims: bool = False) -> Node:
    a = as_node(a)
    _check_axis(axis, a.array.ndim)
    out = np.max(a.array, axis=axis, keepdims=keepdims)

    def back(g: np.ndarray) -> None:
        if not a._needs_grad:
            return
        if axis is None:
            a.accumulate(g * (a.array == out))
        else:
            gx = g if keepdims else np.expand_dims(g, axis=axis)
            ox = out if keepdims else np.expand_dims(out, axis=axis)
            a.accumulate(gx * (a.array == ox))

    return Node(Tensor._wrap(out), parents=(a,), backward=back, op="max")


def reshape(a, shape) -> Node:
    a = as_node(a)
    out = a.array.reshape(shape)

    def back(g: np.ndarray) -> None:
        if a._needs_grad:
            a.accumulate(g.reshape(a.shape))

    return Node(Tensor._wrap(out), parents=(a,), backward=back, op="reshape")


def transpose(a) -> Node:
    a = as_node(a)
    if a.array.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    out = a.array.T.copy()

    def back(g: np.ndarray) -> None:
        if a._needs_grad:
            a.accumulate(g.T)

    return Node(Tensor._wrap(out), parents=(a,), backward=back, op="transpose")


def getitem(a, index) -> Node:
    a = as_node(a)
    out = np.array(a.array[index])

    def back(g: np.ndarray) -> None:
        if a._needs_grad:
            buf = np.zeros(a.shape, dtype=np.float64)
            np.add.at(buf, index, g)
            a.accumulate(buf)

    return Node(Tensor._wrap(out), parents=(a,), backward=back, op="getitem")


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.array.ndim != 2 or b.array.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out = a.array @ b.array

    def back(g: np.ndarray) -> None:
        if a._needs_grad:
            a.accumulate(g @ b.array.T)
        if b._needs_grad:
            b.accumulate(a.array.T @ g)

    return Node(Tensor._wrap(out), parents=(a, b), backward=back, op="matmul")


def custom_op(name: str, value: np.ndarray, parents: Sequence[Node],
              backward_fn: Callable[[np.ndarray], None]) -> Node:
    """Register an externally computed op with a hand-written backward rule."""
    return Node(Tensor._wrap(np.asarray(value, dtype=np.float64)), parents=tuple(parents),
                backward=backward_fn, op=name)


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------

def _guarded_norm(v: Node) -> Node:
    sq = reduce_sum(mul(v, v))
    # max(norm, eps) rather than norm + eps so that scaling by powers of two
    # leaves the similarity bit-identical (exact scale invariance).
    return clip_min(sqrt(sq), NORM_EPS)


def cosine_similarity(u, v) -> Node:
    """cos(u, v) for vectors, differentiable in both arguments.

    Raises on an exactly-zero input; near-zero norms are guarded by
    ``NORM_EPS`` instead so training never divides by zero.
    """
    u, v = as_node(u), as_node(v)
    if u.array.ndim != 1 or v.array.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"cosine_similarity expects equal-length vectors, got {u.shape}, {v.shape}")
    if not np.any(u.array) or not np.any(v.array):
        raise DegenerateInputError("cosine_similarity: zero-norm input")
    uhat = div(u, _guarded_norm(u))
    vhat = div(v, _guarded_norm(v))
    raw = reduce_sum(mul(uhat, vhat))
    return clip(raw, -1.0, 1.0)  # trims fp overshoot beyond the cosine range


def _row_norms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of ``v`` as [m, 1] columns, as computed and as floored at
    ``NORM_EPS``: the values of ``sqrt(reduce_sum(mul(v, v), axis=1,
    keepdims=True))`` and of ``clip_min`` of it."""
    root = np.sqrt(np.sum(v * v, axis=1, keepdims=True))
    return root, np.maximum(root, NORM_EPS)


def _normalized_rows_backward(v: Node, root: np.ndarray, norm: np.ndarray,
                              g: np.ndarray) -> None:
    """Accumulate into ``v`` the gradient of ``v / norm`` for upstream ``g``
    (``root`` and ``norm`` from :func:`_row_norms`) as the primitive chain
    does: the division's branch first, then the two branches of
    ``mul(v, v)``."""
    gnorm = _unbroadcast(-g * v.array / (norm * norm), norm.shape)
    gsq = gnorm * (root >= NORM_EPS) / (2.0 * norm)
    v.accumulate(g / norm)
    gvv = gsq * v.array
    v.accumulate(gvv)
    v.accumulate(gvv)


def cosine_rows(a, b) -> Node:
    """Pairwise cosine similarities between rows of ``a`` [m,K] and ``b`` [n,K].

    One node with the values and gradients of the primitive chain
    ``clip(matmul(a / |a|, transpose(b / |b|)), -1, 1)``, bit for bit; for
    ``b is a`` the rows are normalized once.
    """
    a, b = as_node(a), as_node(b)
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_rows expects [m,K] and [n,K], got {a.shape}, {b.shape}")
    if np.any(~np.any(a.array, axis=1)) or (b is not a and np.any(~np.any(b.array, axis=1))):
        raise DegenerateInputError("cosine_rows: a row has zero norm")
    a_root, a_norm = _row_norms(a.array)
    ahat = a.array / a_norm
    if b is a:
        b_root, b_norm, bhat = a_root, a_norm, ahat
    else:
        b_root, b_norm = _row_norms(b.array)
        bhat = b.array / b_norm
    bt = bhat.T.copy()
    sims = ahat @ bt

    def back(g: np.ndarray) -> None:
        g = g * ((sims >= -1.0) & (sims <= 1.0))
        if a._needs_grad:
            _normalized_rows_backward(a, a_root, a_norm, g @ bt.T)
        if b._needs_grad:
            _normalized_rows_backward(b, b_root, b_norm, np.asarray((ahat.T @ g).T, order="C"))

    return Node(Tensor._wrap(np.clip(sims, -1.0, 1.0)), parents=(a, b), backward=back,
                op="cosine_rows")


# ---------------------------------------------------------------------------
# MLPs
# ---------------------------------------------------------------------------

@dataclass
class MlpParams:
    """Weights, biases and activation tags of a fully connected stack.

    ``layers[i] = (W, b)`` with W shaped [out, in]; ``activations[i]`` is
    ``"relu"`` or ``"linear"``.
    """

    layers: list[tuple[Node, Node]]
    activations: list[str]

    def __post_init__(self) -> None:
        if len(self.layers) != len(self.activations):
            raise ShapeError("one activation tag per layer required")
        for i, (w, b) in enumerate(self.layers):
            if w.array.ndim != 2 or b.array.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i > 0 and w.shape[1] != self.layers[i - 1][0].shape[0]:
                raise ShapeError(f"layer {i}: input dim {w.shape[1]} does not chain")
        for tag in self.activations:
            if tag not in ("relu", "linear"):
                raise ValueError(f"unknown activation tag {tag!r}")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def parameters(self) -> list[Node]:
        out = []
        for w, b in self.layers:
            out.append(w)
            out.append(b)
        return out


def init_mlp(sizes: Sequence[int], rng: np.random.Generator, *,
             final_zero: bool = False, name: str = "mlp") -> MlpParams:
    """He-initialized stack with ReLU hidden layers and a linear final layer.

    ``final_zero`` zeroes the last layer so the stack starts as the constant
    zero map (identity prompt at the start of training).
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    layers = []
    acts = []
    n_layers = len(sizes) - 1
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        last = i == n_layers - 1
        if last and final_zero:
            w = np.zeros((fan_out, fan_in))
        else:
            w = rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / fan_in)
        b = np.zeros(fan_out)
        layers.append((parameter(w, op=f"{name}.w{i}"), parameter(b, op=f"{name}.b{i}")))
        acts.append("linear" if last else "relu")
    return MlpParams(layers=layers, activations=acts)


def linear(x, w, b, relu: bool = False) -> Node:
    """One fully connected layer, ``x @ w.T + b`` for ``x`` [batch, in], ``w``
    [out, in] and ``b`` [out], followed by a ReLU when ``relu`` is set.

    One node with the values and gradients of the primitive chain
    ``relu(add(matmul(x, transpose(w)), b))``, bit for bit: it runs the
    chain's NumPy expressions, including the row-major copy of ``w.T``.
    """
    x, w, b = as_node(x), as_node(w), as_node(b)
    if x.array.ndim != 2 or w.array.ndim != 2 or x.shape[1] != w.shape[1] \
            or b.shape != (w.shape[0],):
        raise ShapeError(f"linear: input {x.shape}, weight {w.shape} and bias {b.shape} disagree")
    wt = w.array.T.copy()
    pre = x.array @ wt + b.array

    def back(g: np.ndarray) -> None:
        if relu:
            g = g * (pre > 0.0)
        if x._needs_grad:
            x.accumulate(g @ wt.T)
        if w._needs_grad:
            w.accumulate((x.array.T @ g).T)
        if b._needs_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    out = np.maximum(pre, 0.0) if relu else pre
    return Node(Tensor._wrap(out), parents=(x, w, b), backward=back, op="linear")


def mlp_forward(params: MlpParams, x) -> Node:
    """Apply the stack to ``x`` of shape [batch, in]."""
    h = as_node(x)
    if h.array.ndim != 2 or h.shape[1] != params.in_dim:
        raise ShapeError(f"mlp input {h.shape} is not [batch, {params.in_dim}]")
    for (w, b), act in zip(params.layers, params.activations):
        h = linear(h, w, b, relu=act == "relu")
    return h


# ---------------------------------------------------------------------------
# initialization and optimizers
# ---------------------------------------------------------------------------

def orthogonal_rows(j: int, k: int, seed: int, *, allow_blocks: bool = False) -> Tensor:
    """[j,k] matrix with pairwise orthonormal rows (j <= k).

    For j > k no such matrix exists; with ``allow_blocks`` the rows are
    produced in stacked orthonormal blocks of at most k rows each
    (cross-block rows unconstrained), otherwise it is an error.
    """
    if j < 1 or k < 1:
        raise ValueError("j and k must be positive")
    if j > k and not allow_blocks:
        raise ShapeError(f"cannot make {j} orthonormal rows in dimension {k} (use allow_blocks)")
    rng = np.random.default_rng(seed)
    blocks = []
    remaining = j
    while remaining > 0:
        size = min(remaining, k)
        g = rng.standard_normal((k, size))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))  # fix signs so the result is seed-deterministic
        blocks.append(q.T)
        remaining -= size
    return Tensor._wrap(np.vstack(blocks))


def sgd_step(params, grads, eta: float):
    """p <- p - eta * g. Accepts a Tensor or a sequence of Tensors."""
    single = isinstance(params, Tensor)
    plist = [params] if single else list(params)
    glist = [grads] if single else list(grads)
    if len(plist) != len(glist):
        raise ShapeError("params and grads differ in length")
    out = []
    # p is finite, so for a finite eta a non-finite g always makes the update
    # non-finite (0 * inf is NaN): the check of each new value covers the
    # gradient, and NumPy's warnings about that arithmetic would only repeat it
    with np.errstate(invalid="ignore", over="ignore"):
        for p, g in zip(plist, glist):
            garr = g.array if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
            if p.shape != garr.shape:
                raise ShapeError(f"param shape {p.shape} != grad shape {garr.shape}")
            try:
                out.append(Tensor._wrap(p.array - eta * garr))
            except ValueError:
                raise TrainingDivergedError("non-finite gradient or update in sgd_step") \
                    from None
    return out[0] if single else out


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers for the optional adaptive path."""

    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0


def adam_step(params: Sequence[Tensor], grads, eta: float, state: AdamState,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> list[Tensor]:
    if not state.m:
        state.m = [np.zeros(p.shape) for p in params]
        state.v = [np.zeros(p.shape) for p in params]
    state.t += 1
    out = []
    # a non-finite g makes m or v, and with them the update, non-finite (inf
    # over inf is NaN), so the check of each new value covers the gradient
    with np.errstate(invalid="ignore", over="ignore"):
        for i, (p, g) in enumerate(zip(params, grads)):
            garr = g.array if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
            state.m[i] = beta1 * state.m[i] + (1 - beta1) * garr
            state.v[i] = beta2 * state.v[i] + (1 - beta2) * garr * garr
            mhat = state.m[i] / (1 - beta1 ** state.t)
            vhat = state.v[i] / (1 - beta2 ** state.t)
            try:
                out.append(Tensor._wrap(p.array - eta * mhat / (np.sqrt(vhat) + eps)))
            except ValueError:
                raise TrainingDivergedError("non-finite gradient or update in adam_step") \
                    from None
    return out


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def finite_difference(f: Callable[[Sequence[np.ndarray]], float],
                      inputs: Sequence[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference gradients of scalar ``f`` w.r.t. each input."""
    grads = []
    work = [np.array(x, dtype=np.float64) for x in inputs]
    for i, x in enumerate(work):
        g = np.zeros_like(x)
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = f(work)
            flat[idx] = orig - step
            lo = f(work)
            flat[idx] = orig
            gflat[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a-n| scaled by the larger magnitude present (floored at 1e-8)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = max(1e-8, float(np.max(np.abs(a))) if a.size else 0.0,
                float(np.max(np.abs(n))) if n.size else 0.0)
    return float(np.max(np.abs(a - n))) / denom if a.size else 0.0


def gradcheck(build: Callable[[Sequence[Node]], Node],
              inputs: Sequence[np.ndarray], step: float = 1e-5) -> float:
    """Max relative error between autodiff and finite-difference gradients.

    ``build`` maps leaf nodes to a scalar loss node.
    """
    leaves = [parameter(x) for x in inputs]
    loss = build(leaves)
    backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    def f(arrays: Sequence[np.ndarray]) -> float:
        nodes = [Node(Tensor(a)) for a in arrays]
        return build(nodes).item()

    numeric = finite_difference(f, inputs, step=step)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))
