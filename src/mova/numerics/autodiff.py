"""Minimal reverse-mode autodiff on float64 arrays.

A computation builds a graph of :class:`Node` objects; :func:`backward` on a
scalar node accumulates vector-Jacobian products into ``node.grad`` for every
node with ``requires_grad``. Graphs are built fresh per evaluation, so values
are never mutated and evaluation stays pure.

The op set is intentionally small: exactly what the adapter network and the
toy trainer need. Shapes are the caller's contract; ops assert only what
their math requires. Softmax and 2x pooling take their forward values from
the :mod:`mova.numerics.ops` kernels and add only their VJPs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from mova.errors import ShapeError
from mova.numerics.ops import avg_pool_2x_tokens, stable_softmax

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "requires_grad", "grad", "_parents", "_vjps")

    def __init__(
        self,
        value,
        parents: tuple["Node", ...] = (),
        vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = (),
        requires_grad: bool = False,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self._parents = parents
        self._vjps = vjps
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


def constant(value) -> Node:
    return Node(value)


def variable(value) -> Node:
    return Node(value, requires_grad=True)


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar root into the graph."""
    if root.value.shape != ():
        raise ShapeError(f"backward needs a scalar root, got shape {root.value.shape}")
    if not root.requires_grad:
        return
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones(())
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


# ---------------------------------------------------------------------------
# primitive ops


def add(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return Node(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def sub(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")
    return Node(a.value - b.value, (a, b), (lambda g: g, lambda g: -g))


def mul(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    return Node(a.value * b.value, (a, b), (lambda g: g * b.value, lambda g: g * a.value))


def scale(a: Node, c: float) -> Node:
    return Node(a.value * c, (a,), (lambda g: g * c,))


def mul_scalar(a: Node, s: Node) -> Node:
    """Tensor times a scalar node."""
    if s.shape != ():
        raise ShapeError(f"mul_scalar needs a scalar, got shape {s.shape}")
    return Node(
        a.value * s.value,
        (a, s),
        (lambda g: g * s.value, lambda g: np.asarray((g * a.value).sum())),
    )


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} vs {b.shape}")
    return Node(
        a.value @ b.value,
        (a, b),
        (lambda g: g @ b.value.T, lambda g: a.value.T @ g),
    )


def transpose(a: Node) -> Node:
    return Node(a.value.T, (a,), (lambda g: g.T,))


def reshape(a: Node, shape) -> Node:
    old = a.shape
    return Node(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


def concat_vec(a: Node, b: Node) -> Node:
    n = a.shape[0]
    return Node(
        np.concatenate([a.value, b.value]),
        (a, b),
        (lambda g: g[:n], lambda g: g[n:]),
    )


def gather_vec(a: Node, indices) -> Node:
    idx = np.asarray(indices, dtype=int)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return out

    return Node(a.value[idx], (a,), (vjp,))


def pick(a: Node, index: int) -> Node:
    """Single element of a vector, as a scalar node."""

    def vjp(g):
        out = np.zeros_like(a.value)
        out[index] = g
        return out

    return Node(a.value[index], (a,), (vjp,))


def mean_all(a: Node) -> Node:
    size = a.value.size

    def vjp(g):
        return np.full(a.shape, float(g) / size)

    return Node(np.asarray(a.value.mean()), (a,), (vjp,))


def mean_rows(a: Node) -> Node:
    """Mean over rows of a (T, C) matrix, yielding (C,)."""
    t = a.shape[0]

    def vjp(g):
        return np.broadcast_to(g / t, a.shape).copy()

    return Node(a.value.mean(axis=0), (a,), (vjp,))


def add_bias(x: Node, b: Node) -> Node:
    """Add a (C,) bias to every row of a (T, C) matrix."""
    if x.value.ndim != 2 or b.shape != (x.shape[1],):
        raise ShapeError(f"bias {b.shape} does not fit matrix {x.shape}")
    return Node(
        x.value + b.value,
        (x, b),
        (lambda g: g, lambda g: g.sum(axis=0)),
    )


def tanh(a: Node) -> Node:
    y = np.tanh(a.value)
    return Node(y, (a,), (lambda g: g * (1.0 - y * y),))


def gelu(a: Node) -> Node:
    """Exact (erf-based) GELU."""
    x = a.value
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return Node(x * cdf, (a,), (lambda g: g * (cdf + x * pdf),))


def softmax_vec(a: Node) -> Node:
    p = stable_softmax(a.value)

    def vjp(g):
        return p * (g - float(np.dot(g, p)))

    return Node(p, (a,), (vjp,))


def row_softmax(a: Node) -> Node:
    p = stable_softmax(a.value)

    def vjp(g):
        return p * (g - (g * p).sum(axis=1, keepdims=True))

    return Node(p, (a,), (vjp,))


def layer_norm_rows(x: Node, gamma: Node, beta: Node, eps: float = 1e-6) -> Node:
    """Per-row layer normalization of a (T, C) matrix with affine params."""
    v = x.value
    mu = v.mean(axis=1, keepdims=True)
    centered = v - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = centered / std
    out = xhat * gamma.value + beta.value

    def vjp_x(g):
        dxhat = g * gamma.value
        return (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        ) / std

    return Node(
        out,
        (x, gamma, beta),
        (vjp_x, lambda g: (g * xhat).sum(axis=0), lambda g: g.sum(axis=0)),
    )


def avg_pool_2x_rows(x: Node, height: int, width: int) -> Node:
    """2x average pooling of row-major (height*width, C) tokens."""
    pooled = avg_pool_2x_tokens(x.value, height, width)
    t, c = x.shape

    def vjp(g):
        gg = g.reshape(height // 2, 1, width // 2, 1, c) / 4.0
        return np.broadcast_to(gg, (height // 2, 2, width // 2, 2, c)).reshape(t, c).copy()

    return Node(pooled, (x,), (vjp,))


def slice_cols(a: Node, lo: int, hi: int) -> Node:
    def vjp(g):
        out = np.zeros_like(a.value)
        out[:, lo:hi] = g
        return out

    return Node(a.value[:, lo:hi].copy(), (a,), (vjp,))


def concat_cols(parts: Sequence[Node]) -> Node:
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def make_vjp(i):
        return lambda g: g[:, offsets[i]:offsets[i + 1]]

    return Node(
        np.concatenate([p.value for p in parts], axis=1),
        tuple(parts),
        tuple(make_vjp(i) for i in range(len(parts))),
    )
