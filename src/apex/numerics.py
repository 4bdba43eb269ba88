"""A small reverse-mode autodiff engine over frozen float64 arrays, MLP stacks
(ReLU after every layer but the last) and plain SGD.

The engine is deliberately minimal: enough operations for 4-layer MLPs,
cosine addressing over a slot matrix, the contrastive and segmentation
losses, and the custom linear operators registered by the spectral and
backbone code. Graphs are built eagerly, are acyclic by construction, and
are single-use: call :func:`backward` once per graph. It runs the backward
rule of a node only if the node needs a gradient, and a one-input node needs
one exactly when its input does, so only rules with several inputs check them.

Gradient accumulation is additive; call ``zero_grad`` on parameters between
steps.

The hot composites are fused: :func:`linear` (one MLP layer),
:func:`cosine_rows` (a matrix of row cosines) and, outside this module,
the frozen backbone (``synthdata.backbone_forward``: blur, shift, scale and
sigmoid) and the segmentation loss (``losses.seg_loss``: batch Dice plus
cross-entropy) are one node each, with a hand-written backward that runs
the NumPy expressions of the primitive chain it replaces and accumulates
into each input in the chain's order, so values and gradients are
bit-identical to that chain. The primitives that only those chains use,
such as ``mul``, ``relu`` and ``transpose``, live in ``tests/oracles.py``,
where they are gradient-checked and the fused nodes are compared against
them; the primitives here also build the other composites.
A Python number used as an operand of :func:`add`, :func:`sub` or
:func:`div` enters the arithmetic as a float, not as a constant node.

:class:`Node` is the one value type; :func:`sgd_step` updates parameters in
place through :meth:`Node.set`. Finiteness is checked once where a value is
made: every array a node takes, with ``numpy.isfinite`` (the one array that
:class:`Node` exempts holds values checked before), a Python-number operand
with ``math.isfinite``, and in :func:`sgd_step` only the updated parameter,
which a non-finite gradient always makes non-finite.

Arrays derived from a value are made once per value: a frozen array keeps
what :meth:`Node.derived` makes from it, such as :func:`cosine_rows`'s norms
and unit-row transpose of the slot memory, until :meth:`Node.set` replaces
it, so an evaluation makes them once, not once per chunk. An array taken
unfrozen inside :func:`no_grad` may change in place and keeps nothing.

Inference runs in :func:`no_grad` mode, as ``torch.no_grad`` does: the same
NumPy expressions, so the same values, but no graph and no check per node.
The caller checks the input and the output of a whole pass instead; a NaN
arising inside reaches the output through every op. Only an overflow to
inf that a clamp (``clip``, a ReLU) maps back into range goes unreported.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    NonFiniteError,
    NumericDomainError,
    ShapeError,
    TrainingDivergedError,
)

NORM_EPS = 1e-12

_GRAD_ENABLED = contextvars.ContextVar("apex_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Inside the block, and in copies of its context (worker threads), each
    op returns a node with no parents, no backward rule and no gradient, and
    no node checks its values; :func:`as_node` neither copies nor freezes.
    The ops' other checks (zero-norm rows, shapes, domains) still run."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def grad_enabled() -> bool:
    """False inside a :func:`no_grad` block."""
    return _GRAD_ENABLED.get()


def check_finite(arr: np.ndarray) -> None:
    """Raise :class:`NonFiniteError` unless every value of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NonFiniteError("tensor values must all be finite")


# Generation and evaluation share their items out over threads from images
# of this many pixels up. Below it an item is mostly Python-level work that
# holds the GIL, so threads only add hand-offs, and the items run inline.
# On 2 CPUs threaded generation lost at 64x64 (0.58-0.64 s inline,
# 0.75-0.92 s threaded), broke even at 80x80 and won at 96x96 and 128x128.
PARALLEL_MIN_PIXELS = 96 * 96


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn, items: Sequence, threaded: bool = True) -> list:
    """``[fn(item) for item in items]``. With ``threaded``, item i runs in
    share i % n of n = min(len(items), usable CPUs) shares: share 0 on this
    thread, the others on a pool, each in a copy of this thread's context
    (its ``np.errstate`` and :func:`no_grad` hold there); ``import apex``
    has set OpenBLAS to one thread. Every share ends before a share's
    exception is re-raised. One share runs inline. An ``fn`` of its item
    alone gives the same results on any number of threads."""
    shares = min(len(items), _usable_cpus()) if threaded else 1
    if shares <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)

    def run(k: int) -> None:
        for i in range(k, len(items), shares):
            results[i] = fn(items[i])

    with ThreadPoolExecutor(max_workers=shares - 1) as pool:
        pending = [pool.submit(contextvars.copy_context().run, run, k) for k in range(1, shares)]
        run(0)
        for share in pending:
            share.result()
    return results


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
    """A value in the computation graph: a frozen, row-major float64
    ``array``, and ``grad``, the gradient :func:`backward` accumulates.

    A node owns its array: ops and :meth:`set` take it without a copy, check
    it finite, make it row-major and freeze it. :func:`as_node` and
    :func:`parameter` copy an outside value first, so the caller's array
    stays theirs. The array of a ``value`` given as a node
    (:func:`stop_gradient`) holds checked values and is not checked again.
    Inside :func:`no_grad` a node takes its array unchecked and unfrozen.

    Arrays derived from a frozen array, such as the slot memory's unit rows,
    are kept with it (:meth:`derived`). The rule: only an array that
    :meth:`set` froze keeps derived arrays, and :meth:`set`, the one way a
    node's array changes, drops them. A node made from another node shares
    its array and so its derived arrays. An unfrozen :func:`no_grad` array
    keeps none: they are made again on every use.

    The gradient buffer is allocated when the first gradient arrives (see
    :meth:`accumulate`), so nodes that no gradient reaches, such as
    constants and everything built in evaluation, never hold one; until
    then ``grad`` reads as zeros.
    """

    __slots__ = ("_array", "_grad", "_parents", "_backward", "_needs_grad", "_derived")

    def __init__(self, value, requires_grad: bool = False, parents: Sequence["Node"] = (),
                 backward: Callable[[np.ndarray], None] | None = None):
        self._grad = None
        graph = _GRAD_ENABLED.get()
        if graph:
            self._parents = tuple(parents)
            self._backward = backward
            self._needs_grad = requires_grad or any(p._needs_grad for p in self._parents)
        else:  # a value only: see no_grad
            self._parents, self._backward, self._needs_grad = (), None, requires_grad
        if isinstance(value, Node):  # checked already, and frozen unless made in no_grad
            self._array, self._derived = value._array, value._derived
        elif graph:
            self.set(value)
        else:
            arr = np.asarray(value, dtype=np.float64)
            self._array = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
            self._derived = None  # unfrozen: see derived

    def set(self, value) -> None:
        """Make ``value``, taken without a copy, the node's array: checked
        finite, made row-major and frozen, with no array derived from it yet.
        Parameter updates use this."""
        arr = np.asarray(value, dtype=np.float64)
        check_finite(arr)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # 0-d arrays are already contiguous
        arr.flags.writeable = False
        self._array = arr
        self._derived = {}

    def derived(self, make: Callable[[np.ndarray], object]):
        """``make(array)``, made once per frozen array (see the class
        docstring); ``make`` returns read-only arrays, never None. Threads
        that miss at once each make equal arrays, and either is kept."""
        cache = self._derived
        if cache is None:
            return make(self._array)
        found = cache.get(make)
        if found is None:
            found = cache[make] = make(self._array)
        return found

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def shape(self) -> tuple:
        return self._array.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient. The array may be shared with other nodes of
        the graph: read it, never modify it in place."""
        if self._grad is None:
            return np.zeros(self._array.shape, dtype=np.float64)
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
        if self._array.size != 1:
            raise ShapeError(f"item() on a node of shape {self.shape}")
        return float(self._array.reshape(()))


def as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return Node(np.array(x, dtype=np.float64) if _GRAD_ENABLED.get() else x)


def parameter(values) -> Node:
    """Leaf node that accumulates gradients."""
    return Node(np.array(values, dtype=np.float64), requires_grad=True)


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(ancestor) into every gradient-requiring ancestor.

    ``loss`` must be scalar. Honors stop-gradient barriers.
    """
    if loss.array.size != 1:
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

    loss.accumulate(np.ones(loss.array.shape, dtype=np.float64))
    for node in reversed(topo):
        # a node no gradient reached contributes nothing to its parents
        if node._backward is not None and node._needs_grad and node._grad is not None:
            node._backward(node._grad)


def zero_grads(nodes: Iterable[Node]) -> None:
    for n in nodes:
        n.zero_grad()


def stop_gradient(a: Node) -> Node:
    """Value of ``a`` with the gradient path severed."""
    return Node(as_node(a))


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
            raise NonFiniteError("tensor values must all be finite")
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
    return Node(out, parents=parents, backward=back)


def add(a, b) -> Node:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Node:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def div(a, b) -> Node:
    return _binary("div", a, b, np.divide, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


def _unary(a, fwd, bwd) -> Node:
    a = as_node(a)
    out = fwd(a.array)

    def back(g: np.ndarray) -> None:
        a.accumulate(bwd(g, a.array, out))

    return Node(out, parents=(a,), backward=back)


def exp(a) -> Node:
    return _unary(a, np.exp, lambda g, x, y: g * y)


def log(a) -> Node:
    a = as_node(a)
    if np.any(a.array <= 0.0):
        raise NumericDomainError("log requires strictly positive input")
    return _unary(a, np.log, lambda g, x, y: g / x)


def clip(a, lo: float, hi: float) -> Node:
    """Clamp values to [lo, hi]; gradient passes only where unclipped."""
    return _unary(a, lambda x: np.clip(x, lo, hi),
                  lambda g, x, y: g * ((x >= lo) & (x <= hi)))


def _check_axis(axis, ndim: int) -> None:
    if axis is not None and not (-ndim <= axis < ndim):
        raise ShapeError(f"axis {axis} invalid for {ndim}-d tensor")


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Node:
    a = as_node(a)
    _check_axis(axis, a.array.ndim)
    out = np.sum(a.array, axis=axis, keepdims=keepdims)

    def back(g: np.ndarray) -> None:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a.accumulate(np.broadcast_to(g, a.shape))

    return Node(out, parents=(a,), backward=back)


def reduce_mean(a, axis: int | None = None, keepdims: bool = False) -> Node:
    a = as_node(a)
    _check_axis(axis, a.array.ndim)
    count = a.array.size if axis is None else a.array.shape[axis]
    return div(reduce_sum(a, axis=axis, keepdims=keepdims), float(count))


def getitem(a, index) -> Node:
    a = as_node(a)
    out = np.array(a.array[index])

    def back(g: np.ndarray) -> None:
        buf = np.zeros(a.shape, dtype=np.float64)
        np.add.at(buf, index, g)
        a.accumulate(buf)

    return Node(out, parents=(a,), backward=back)


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

    return Node(out, parents=(a, b), backward=back)


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------

def _row_norms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of ``v`` as [m, 1] columns, as computed and as floored at
    ``NORM_EPS``: the values of the chain ``sqrt(reduce_sum(mul(v, v),
    axis=1, keepdims=True))`` and of ``clip_min`` of it (``tests/oracles.py``)."""
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


def _check_nonzero_rows(v: np.ndarray) -> None:
    if np.any(~np.any(v, axis=1)):
        raise DegenerateInputError("cosine_rows: a row has zero norm")


def _unit_rows_transposed(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_row_norms` of ``v``, which must have no zero row, and the
    row-major transpose of ``v``'s unit rows, all read-only."""
    _check_nonzero_rows(v)
    root, norm = _row_norms(v)
    vt = (v / norm).T.copy()
    for arr in (root, norm, vt):
        arr.flags.writeable = False
    return root, norm, vt


def cosine_rows(a, b) -> Node:
    """Pairwise cosine similarities between rows of ``a`` [m,K] and ``b`` [n,K].

    One node with the values and gradients of the primitive chain
    ``clip(matmul(a / |a|, transpose(b / |b|)), -1, 1)``, bit for bit, whose
    ``transpose`` and norm are in ``tests/oracles.py``. ``b``'s norms and
    unit-row transpose are :meth:`Node.derived` arrays, made once per value
    of a frozen ``b`` such as the slot memory.
    """
    a, b = as_node(a), as_node(b)
    if a.array.ndim != 2 or b.array.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_rows expects [m,K] and [n,K], got {a.shape}, {b.shape}")
    _check_nonzero_rows(a.array)
    b_root, b_norm, bt = b.derived(_unit_rows_transposed)
    a_root, a_norm = _row_norms(a.array)
    ahat = a.array / a_norm
    sims = ahat @ bt

    def back(g: np.ndarray) -> None:
        g = g * ((sims >= -1.0) & (sims <= 1.0))
        if a._needs_grad:
            _normalized_rows_backward(a, a_root, a_norm, g @ bt.T)
        if b._needs_grad:
            _normalized_rows_backward(b, b_root, b_norm, np.asarray((ahat.T @ g).T, order="C"))

    return Node(np.clip(sims, -1.0, 1.0), parents=(a, b), backward=back)


# ---------------------------------------------------------------------------
# MLPs
# ---------------------------------------------------------------------------

@dataclass
class MlpParams:
    """Weights and biases of a fully connected stack: ReLU after every layer
    but the last, which is linear.

    ``layers[i] = (W, b)`` with W stored [in, out], as :func:`linear` reads it.
    """

    layers: list[tuple[Node, Node]]

    def __post_init__(self) -> None:
        for i, (w, b) in enumerate(self.layers):
            if w.array.ndim != 2 or b.array.ndim != 1 or b.shape[0] != w.shape[1]:
                raise ShapeError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i > 0 and w.shape[0] != self.layers[i - 1][0].shape[1]:
                raise ShapeError(f"layer {i}: input dim {w.shape[0]} does not chain")


def out_in(param: np.ndarray) -> np.ndarray:
    """A stored [in, out] MLP weight as its [out, in] transposed view, the
    layout checkpoints hold; its own inverse."""
    return param.T


def init_mlp(sizes: Sequence[int], rng: np.random.Generator, *,
             final_zero: bool = False) -> MlpParams:
    """He-initialized stack with ReLU hidden layers and a linear final layer.

    Each weight is drawn [out, in] from ``rng`` and stored transposed;
    ``final_zero`` zeroes the last layer, so the stack starts as the zero map
    (identity prompt at the start of training).
    """
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    layers = []
    n_layers = len(sizes) - 1
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        w = (np.zeros((fan_out, fan_in)) if final_zero and i == n_layers - 1
             else rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / fan_in))
        layers.append((parameter(out_in(w)), parameter(np.zeros(fan_out))))
    return MlpParams(layers=layers)


def linear(x, w, b, relu: bool = False) -> Node:
    """One fully connected layer, ``x @ w + b`` for ``x`` [batch, in], ``w``
    [in, out] and ``b`` [out], followed by a ReLU when ``relu`` is set.

    One node with the values and gradients of the primitive chain
    ``relu(add(matmul(x, transpose(out_in(w))), b))``, bit for bit, whose
    ``relu`` and ``transpose`` are in ``tests/oracles.py``: the chain's
    row-major copy holds ``w``'s bytes, so the products are the same BLAS
    calls. The weight's gradient is ``x.T @ g``, [in, out] as it comes.
    """
    x, w, b = as_node(x), as_node(w), as_node(b)
    if x.array.ndim != 2 or w.array.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: input {x.shape}, weight {w.shape} and bias {b.shape} disagree")
    pre = x.array @ w.array + b.array

    def back(g: np.ndarray) -> None:
        if relu:
            g = g * (pre > 0.0)
        if x._needs_grad:
            x.accumulate(g @ w.array.T)
        if w._needs_grad:
            w.accumulate(x.array.T @ g)
        if b._needs_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    out = np.maximum(pre, 0.0) if relu else pre
    return Node(out, parents=(x, w, b), backward=back)


def mlp_forward(params: MlpParams, x) -> Node:
    """Apply the stack to ``x`` of shape [batch, in]; :func:`linear`
    checks the shapes."""
    h = as_node(x)
    last = len(params.layers) - 1
    for i, (w, b) in enumerate(params.layers):
        h = linear(h, w, b, relu=i < last)
    return h


# ---------------------------------------------------------------------------
# initialization and the optimizer
# ---------------------------------------------------------------------------

def orthogonal_rows(j: int, k: int, seed: int) -> np.ndarray:
    """[j,k] matrix with pairwise orthonormal rows (j <= k).

    For j > k no such matrix exists; the rows are then produced in stacked
    orthonormal blocks of at most k rows each (cross-block rows
    unconstrained).
    """
    if j < 1 or k < 1:
        raise ValueError("j and k must be positive")
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
    return np.vstack(blocks)


def sgd_step(params: Sequence[Node], grads: Sequence[np.ndarray], eta: float) -> None:
    """p <- p - eta * g for each node, in place; a non-finite update raises
    :class:`TrainingDivergedError` after the nodes before it have moved."""
    if len(params) != len(grads):
        raise ShapeError("params and grads differ in length")
    # p is finite, so for a finite eta a non-finite g always makes the update
    # non-finite (0 * inf is NaN): the check of each new value covers the
    # gradient, and NumPy's warnings about that arithmetic would only repeat it
    with np.errstate(invalid="ignore", over="ignore"):
        for p, g in zip(params, grads):
            garr = np.asarray(g, dtype=np.float64)
            if p.shape != garr.shape:
                raise ShapeError(f"param shape {p.shape} != grad shape {garr.shape}")
            try:
                p.set(p.array - eta * garr)
            except NonFiniteError:
                raise TrainingDivergedError("non-finite gradient or update in sgd_step") \
                    from None
