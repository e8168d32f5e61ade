"""Deterministic dense kernels: softmax, erf, interpolation, pooling, attention.

All functions are pure. Summation orders are fixed, so identical inputs give
bitwise-identical outputs. ``stable_softmax``, ``dot_attention`` and
``avg_pool_2x_tokens`` are array kernels without a finiteness check that work
over any leading (batch) axes: the autodiff tape takes its forward values from
them, and the validated ``softmax`` below calls ``stable_softmax`` too.
"""

from __future__ import annotations

import functools

import numpy as np

from mova.errors import EmptySupportError, ShapeError
from mova.numerics.tensor import FeatureMap, as_finite_array


def stable_softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unchecked softmax over the last axis, shifted by the row max for stability.

    The result goes to ``out`` when given (``out=x`` softmaxes in place, with
    the same bits); otherwise ``x`` is left unchanged.
    """
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# Cephes ndtr.c coefficients: erf = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc = exp(-x^2) P(x) / Q(x) for 1 < x < 8. Cephes leaves the leading 1 of U
# and Q implied (p1evl); it is written out here, and x * 1.0 is exact.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)


def _polevl(x: np.ndarray, coef, out=None) -> np.ndarray:
    """Cephes polevl: Horner's rule from the highest coefficient, in place."""
    acc = np.multiply(x, coef[0], out=out)
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def erf(x) -> np.ndarray:
    """Error function, bit for bit the Cephes erf that scipy.special.erf runs.

    The operation order is Cephes' own. Elements with |x| > 1 are 1 - erfc(|x|)
    signed like x, and take exp(-x^2) from libm. numpy's SIMD exp (AVX-512)
    differs from libm in the last bit on some inputs, but numpy sends only
    contiguous arrays through it: on a reversed (negative-stride) view it calls
    libm's ``exp`` per element in C, the function ``math.exp`` calls, so one
    numpy call gives libm's bits. For |x| >= 8 Cephes' erfc is below 2**-54,
    so erf rounds to exactly +-1; clamping |x| to 8 keeps those bits and keeps
    +-inf finite. NaN gives NaN, and -0.0 keeps its sign.
    Temporaries are reused: each extra live array of 128 KiB or more (one
    (8, 64, 32) GELU input) comes from the allocator as fresh pages.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    inner = np.clip(x, -1.0, 1.0)
    z = inner * inner
    out = _polevl(z, _ERF_T)
    out *= inner
    out /= _polevl(z, _ERF_U, out=inner)
    outer = np.flatnonzero(np.abs(x, out=z) > 1.0)
    if outer.size:
        xo = x[outer]
        a = np.minimum(np.abs(xo), 8.0)
        y = np.exp((-a * a)[::-1])[::-1]
        y *= _polevl(a, _ERFC_P)
        y /= _polevl(a, _ERFC_Q)
        out[outer] = np.copysign(1.0 - y, xo)
    return out.reshape(shape)


def dot_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked softmax(q k^T / sqrt(d)) v over the last two axes; returns (output, probabilities)."""
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= 1.0 / np.sqrt(q.shape[-1])
    p = stable_softmax(scores, out=scores)
    return p @ v, p


def avg_pool_2x_tokens(tokens: np.ndarray, height: int, width: int) -> np.ndarray:
    """Mean of each disjoint 2x2 block of row-major (..., height*width, C) tokens."""
    *lead, t, c = tokens.shape
    if t != height * width or height % 2 or width % 2:
        raise ShapeError(f"cannot 2x-pool {t} tokens as even {height}x{width} grid")
    blocks = tokens.reshape(*lead, height // 2, 2, width // 2, 2, c)
    return blocks.mean(axis=(-4, -2)).reshape(*lead, (height // 2) * (width // 2), c)


def softmax(v, mask=None) -> np.ndarray:
    """Stable softmax of a vector, optionally restricted to a boolean mask.

    Masked-out entries are exactly zero; the remaining entries are positive
    and sum to one. The masked computation runs on the selected subvector, so
    it is bitwise identical to softmaxing that subvector directly.
    """
    v = as_finite_array(v, "softmax input")
    if v.ndim != 1:
        raise ShapeError(f"softmax expects a vector, got shape {v.shape}")
    support = np.ones(v.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if support.shape != v.shape:
        raise ShapeError(f"mask length {support.shape} does not match vector {v.shape}")
    if not support.any():
        raise EmptySupportError("softmax mask excludes every entry")
    out = np.zeros_like(v)
    out[support] = stable_softmax(v[support])
    return out


@functools.lru_cache(maxsize=256)
def _sampling_grid(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source rows (lo, hi) and fraction per output; cached per size, so read-only."""
    if n_out == 1 or n_in == 1:
        coords = np.zeros(n_out)
    else:
        coords = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    lo = np.minimum(np.floor(coords).astype(int), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    grid = lo, hi, coords - lo
    for arr in grid:
        arr.flags.writeable = False
    return grid


def bilinear_interpolate(f: FeatureMap, out_h: int, out_w: int) -> FeatureMap:
    """Resize a feature map with align-corners bilinear sampling.

    Output index p samples source coordinate p*(n_in-1)/(n_out-1) (0 when the
    output extent is 1). Matching sizes return an exact copy.
    """
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"target extents must be >= 1, got ({out_h}, {out_w})")
    c, h, w = f.shape
    if (out_h, out_w) == (h, w):
        return FeatureMap(f.data)
    ylo, yhi, fy = _sampling_grid(out_h, h)
    xlo, xhi, fx = _sampling_grid(out_w, w)
    # v0 + f*(v1 - v0) keeps constants and grid-aligned samples exact.
    rows_lo = f.data[:, ylo, :]
    rows = rows_lo + fy[None, :, None] * (f.data[:, yhi, :] - rows_lo)
    cols_lo = rows[:, :, xlo]
    out = cols_lo + fx[None, None, :] * (rows[:, :, xhi] - cols_lo)
    return FeatureMap(out)


def global_avg_pool(f: FeatureMap) -> np.ndarray:
    """Mean over all spatial positions, one value per channel."""
    return f.data.mean(axis=(1, 2))


def adaptive_avg_pool(f: FeatureMap, grid: int) -> FeatureMap:
    """Average-pool to a grid x grid map; regions tile the input as evenly as possible."""
    c, h, w = f.shape
    if grid < 1:
        raise ShapeError(f"grid must be >= 1, got {grid}")
    if grid > h or grid > w:
        raise ShapeError(f"grid {grid} exceeds spatial extents {h}x{w}")

    def bounds(n_in: int):
        starts = (np.arange(grid) * n_in) // grid
        stops = -(-(np.arange(1, grid + 1) * n_in) // grid)
        return starts, stops

    ys, ye = bounds(h)
    xs, xe = bounds(w)
    out = np.empty((c, grid, grid))
    for i in range(grid):
        for j in range(grid):
            out[:, i, j] = f.data[:, ys[i]:ye[i], xs[j]:xe[j]].mean(axis=(1, 2))
    return FeatureMap(out)
