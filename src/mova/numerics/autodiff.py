"""Minimal reverse-mode autodiff on float64 arrays.

A computation builds a graph of :class:`Node` objects; :func:`backward` on a
scalar node accumulates vector-Jacobian products into ``node.grad`` for every
leaf with ``requires_grad``. Graphs are built fresh per evaluation, so values
are never mutated and evaluation stays pure.

Memory follows the gradient: a node no gradient flows through keeps no parents
and no VJP closures, so a forward-only graph is freed as it is built, and
:func:`backward` releases each interior node's grad, parents and closures once
it has propagated them. Only leaves keep (and accumulate) their grads.

The op set is intentionally small: exactly what the adapter network and the
toy trainer need. Ops broadcast over leading (batch) axes where the adapter
needs them to; parameter gradients are summed over those axes. Shapes are the
caller's contract; ops assert only what their math requires. Softmax,
attention and 2x pooling take their forward values from the
:mod:`mova.numerics.ops` kernels and add only their VJPs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from mova.errors import ShapeError
from mova.numerics.ops import avg_pool_2x_tokens, dot_attention, erf, stable_softmax

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
        if not requires_grad:
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        if self.requires_grad:
            self._parents, self._vjps = parents, vjps
        else:
            self._parents, self._vjps = (), ()
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


def constant(value) -> Node:
    return Node(value)


def variable(value) -> Node:
    return Node(value, requires_grad=True)


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar root into the graph's leaves.

    Interior nodes are spent: each drops its grad, parents and VJP closures as
    soon as it has passed its gradient on.
    """
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
    while order:
        node = order.pop()
        parents, vjps, g = node._parents, node._vjps, node.grad
        if not parents:
            continue
        node._parents, node._vjps, node.grad = (), (), None
        if g is None:
            continue
        for parent, vjp in zip(parents, vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over the leading axes it has beyond `shape` (a shared parameter's gradient)."""
    return g if g.shape == shape else g.reshape((-1,) + shape).sum(axis=0)


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
    """Tensor times a scalar node, or times one scalar per leading row when s is a vector."""
    if s.value.ndim > 1 or (s.value.ndim == 1 and s.shape[0] != a.shape[0]):
        raise ShapeError(f"mul_scalar needs a scalar or one per row of {a.shape}, got {s.shape}")
    sv = s.value.reshape(s.shape + (1,) * (a.value.ndim - s.value.ndim))

    def vjp_s(g):
        return np.asarray((g * a.value).reshape(s.shape + (-1,)).sum(axis=-1))

    return Node(a.value * sv, (a, s), (lambda g: g * sv, vjp_s))


def matmul(a: Node, b: Node) -> Node:
    """a (..., n, k) @ b (k, m), with the matrix b shared across a's leading axes."""
    if a.value.ndim < 2 or b.value.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} vs {b.shape}")
    k, m = b.shape
    return Node(
        a.value @ b.value,
        (a, b),
        (lambda g: g @ b.value.T, lambda g: a.value.reshape(-1, k).T @ g.reshape(-1, m)),
    )


def linear(x: Node, w: Node, b: Node | None = None) -> Node:
    """x (..., k) @ w (k, m) + b (m,) as one node; w and b are shared across leading axes."""
    bias = None if b is None else b.shape
    if w.value.ndim != 2 or x.shape[-1] != w.shape[0] or bias not in (None, w.shape[1:]):
        raise ShapeError(f"linear shapes incompatible: {x.shape} @ {w.shape} + {bias}")
    k, m = w.shape
    y = x.value @ w.value
    parents: tuple[Node, ...] = (x, w)
    vjps: tuple = (lambda g: g @ w.value.T, lambda g: x.value.reshape(-1, k).T @ g.reshape(-1, m))
    if b is not None:
        y += b.value
        parents += (b,)
        vjps += (lambda g: _sum_to(g, (m,)),)
    return Node(y, parents, vjps)


def grouped_linear(x: Node, ws: Sequence[Node], bs: Sequence[Node | None], rows: Sequence[int]) -> Node:
    """linear over row groups of x as one node: ws[i] and bs[i] apply to the next
    rows[i] leading rows. Each group makes linear's own numpy calls, so its values
    and gradients are bitwise those of linear on its rows."""
    k, m = ws[0].shape
    segs, start = [], 0
    for n in rows:
        segs.append(slice(start, start + n))
        start += n
    if x.shape[-1] != k or start != x.shape[0] or not len(ws) == len(bs) == len(rows) or any(
        w.shape != (k, m) or b is not None and b.shape != (m,) for w, b in zip(ws, bs)
    ):
        raise ShapeError(f"grouped_linear shapes incompatible: {x.shape} in groups {list(rows)}")
    if len(segs) == 1:
        return linear(x, ws[0], bs[0])
    xv = x.value
    ys = [xv[seg] @ w.value for seg, w in zip(segs, ws)]
    for y, b in zip(ys, bs):
        if b is not None:
            y += b.value
    if not any(p.requires_grad for p in (x, *ws, *bs) if p is not None):
        return Node(np.concatenate(ys))
    biased = [(seg, b) for seg, b in zip(segs, bs) if b is not None]
    vjps = [lambda g: np.concatenate([g[seg] @ w.value.T for seg, w in zip(segs, ws)])]
    vjps += [lambda g, s=seg: xv[s].reshape(-1, k).T @ g[s].reshape(-1, m) for seg in segs]
    vjps += [lambda g, s=seg: _sum_to(g[s], (m,)) for seg, _ in biased]
    return Node(np.concatenate(ys), (x, *ws, *(b for _, b in biased)), tuple(vjps))


def attention(q: Node, k: Node, v: Node) -> Node:
    """softmax(q k^T / sqrt(d)) v over the last two axes, as one node.

    Only the attention probabilities are kept for the VJP; the score gradient
    is computed once and shared by the q and k VJPs.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] or q.shape[:-2] != k.shape[:-2]:
        raise ShapeError(f"attention shapes incompatible: q {q.shape}, k {k.shape}, v {v.shape}")
    out, p = dot_attention(q.value, k.value, v.value)
    c = 1.0 / np.sqrt(q.shape[-1])
    memo: list = [None, None]  # (g, gradient of the scaled scores for that g)

    def dscores(g):
        if memo[0] is not g:
            dp = g @ np.swapaxes(v.value, -1, -2)
            memo[:] = g, p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
        return memo[1]

    return Node(
        out,
        (q, k, v),
        (
            lambda g: dscores(g) @ k.value,
            lambda g: np.swapaxes(dscores(g), -1, -2) @ q.value,
            lambda g: np.swapaxes(p, -1, -2) @ g,
        ),
    )


def transpose(a: Node) -> Node:
    """Swap the last two axes."""
    return Node(np.swapaxes(a.value, -1, -2), (a,), (lambda g: np.swapaxes(g, -1, -2),))


def reshape(a: Node, shape) -> Node:
    old = a.shape
    return Node(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


def concat_vec(a: Node, b: Node) -> Node:
    """Concatenation along the leading axis."""
    n = a.shape[0]
    return Node(
        np.concatenate([a.value, b.value]),
        (a, b),
        (lambda g: g[:n], lambda g: g[n:]),
    )


def gather_vec(a: Node, indices) -> Node:
    """a[indices]: entries of a vector, or rows along a's leading axis; any index shape."""
    idx = np.asarray(indices, dtype=int)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return out

    return Node(a.value[idx], (a,), (vjp,))


def scatter_rows(base: Node, part: Node, terms) -> Node:
    """Rows of `base`, with each routed row replaced by a sum of rows of `part`.

    terms[b] lists the rows of `part` that make up row b, padded at the end with
    -1: the result is part[terms[b, 0]] + part[terms[b, 1]] + ..., added in that
    order, and a row with no terms is base[b].
    """
    terms = np.asarray(terms, dtype=int)
    out = base.value.copy()
    first = terms[:, 0] >= 0
    out[first] = part.value[terms[first, 0]]
    for j in range(1, terms.shape[1]):
        live = terms[:, j] >= 0
        out[live] += part.value[terms[live, j]]
    rows, cols = np.nonzero(terms >= 0)
    src = terms[rows, cols]

    def base_vjp(g):
        kept = g.copy()
        kept[first] = 0.0
        return kept

    def part_vjp(g):
        grad = np.zeros_like(part.value)
        np.add.at(grad, src, g[rows])
        return grad

    return Node(out, (base, part), (base_vjp, part_vjp))


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
    """Mean over the token axis of (..., T, C) tokens, yielding (..., C)."""
    t = a.shape[-2]

    def vjp(g):
        return np.broadcast_to(np.expand_dims(g / t, -2), a.shape).copy()

    return Node(a.value.mean(axis=-2), (a,), (vjp,))


def add_bias(x: Node, b: Node) -> Node:
    """Add a (C,) bias to every row of (..., T, C) tokens."""
    if x.value.ndim < 2 or b.shape != (x.shape[-1],):
        raise ShapeError(f"bias {b.shape} does not fit matrix {x.shape}")
    return Node(
        x.value + b.value,
        (x, b),
        (lambda g: g, lambda g: _sum_to(g, b.shape)),
    )


def tanh(a: Node) -> Node:
    y = np.tanh(a.value)
    return Node(y, (a,), (lambda g: g * (1.0 - y * y),))


def gelu(a: Node) -> Node:
    """Exact (erf-based) GELU."""
    x = a.value
    cdf = erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return g * (cdf + x * pdf)

    return Node(x * cdf, (a,), (vjp,))


def softmax_vec(a: Node) -> Node:
    """Softmax over the last axis; -inf entries (padding) get weight exactly 0.

    A row with no finite entry is all zeros.
    """
    x = a.value
    empty = np.isneginf(x).all(axis=-1, keepdims=True)
    if empty.any():
        p = np.where(empty, 0.0, stable_softmax(np.where(empty, 0.0, x)))
    else:
        p = stable_softmax(x)

    def vjp(g):
        return p * (g - (g * p).sum(axis=-1, keepdims=True))

    return Node(p, (a,), (vjp,))


# Row-wise softmax of token scores is the same last-axis softmax.
row_softmax = softmax_vec


def layer_norm_rows(x: Node, gamma: Node, beta: Node, eps: float = 1e-6) -> Node:
    """Per-row layer normalization of (..., T, C) tokens with affine params."""
    v = x.value
    xhat = v - v.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat /= std
    out = xhat * gamma.value
    out += beta.value

    def vjp_x(g):
        dxhat = g * gamma.value
        return (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) / std

    return Node(
        out,
        (x, gamma, beta),
        (vjp_x, lambda g: _sum_to(g * xhat, gamma.shape), lambda g: _sum_to(g, beta.shape)),
    )


def avg_pool_2x_rows(x: Node, height: int, width: int) -> Node:
    """2x average pooling of row-major (..., height*width, C) tokens."""
    pooled = avg_pool_2x_tokens(x.value, height, width)
    *lead, _, c = x.shape

    def vjp(g):
        gg = g.reshape(*lead, height // 2, 1, width // 2, 1, c) / 4.0
        return np.broadcast_to(gg, (*lead, height // 2, 2, width // 2, 2, c)).reshape(x.shape)

    return Node(pooled, (x,), (vjp,))


def slice_cols(a: Node, lo: int, hi: int) -> Node:
    """Columns lo:hi of the last axis."""

    def vjp(g):
        out = np.zeros_like(a.value)
        out[..., lo:hi] = g
        return out

    return Node(a.value[..., lo:hi].copy(), (a,), (vjp,))


def concat_cols(parts: Sequence[Node]) -> Node:
    """Concatenation along the last axis."""
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def make_vjp(i):
        return lambda g: g[..., offsets[i]:offsets[i + 1]]

    return Node(
        np.concatenate([p.value for p in parts], axis=-1),
        tuple(parts),
        tuple(make_vjp(i) for i in range(len(parts))),
    )
