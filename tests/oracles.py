"""Independent reference implementations used as test oracles.

Everything here is written against the documented math, step by step, without
calling the library's adapter code paths. Tolerances in the tests are the
contract; these oracles are deliberately naive.
"""

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-6


def bilinear_resize(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    c, h, w = data.shape
    out = np.zeros((c, out_h, out_w))
    for p in range(out_h):
        for q in range(out_w):
            sy = 0.0 if out_h == 1 else p * (h - 1) / (out_h - 1)
            sx = 0.0 if out_w == 1 else q * (w - 1) / (out_w - 1)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            top = data[:, y0, x0] + fx * (data[:, y0, x1] - data[:, y0, x0])
            bottom = data[:, y1, x0] + fx * (data[:, y1, x1] - data[:, y1, x0])
            out[:, p, q] = top + fy * (bottom - top)
    return out


def tokens_of(data: np.ndarray) -> np.ndarray:
    c, h, w = data.shape
    return data.reshape(c, h * w).T


def map_of(tokens: np.ndarray, h: int, w: int) -> np.ndarray:
    return tokens.T.reshape(tokens.shape[1], h, w)


def linear(x, p):
    y = x @ p.weight
    return y if p.bias is None else y + p.bias


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def softmax_rows(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def attention(q, k, v):
    return softmax_rows(q @ k.T / np.sqrt(q.shape[1])) @ v


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LAYER_NORM_EPS) * gamma + beta


def extract(x_map: np.ndarray, feat_map: np.ndarray, cap) -> np.ndarray:
    """Eq-by-eq extractor: resize, project, attend, output-project, residual."""
    _, h, w = x_map.shape
    resized = bilinear_resize(feat_map, h, w)
    xt = tokens_of(x_map)
    ft = tokens_of(resized)
    attended = attention(linear(xt, cap.query), linear(ft, cap.key), linear(ft, cap.value))
    return map_of(xt + linear(attended, cap.out), h, w)


def gate(visual, text, gp, indices, mode="dynamic"):
    if mode == "uniform":
        return np.full(len(indices), 1.0 / len(indices))
    joint = np.concatenate([visual, text])
    hidden = np.tanh(linear(joint[None, :], gp.hidden))
    logits = linear(hidden, gp.logits)[0]
    sub = logits[list(indices)]
    e = np.exp(sub - sub.max())
    return e / e.sum()


def transformer(x_map: np.ndarray, tp) -> np.ndarray:
    _, h, w = x_map.shape
    xt = tokens_of(x_map)
    att = attention(linear(xt, tp.attn_query), linear(xt, tp.attn_key), linear(xt, tp.attn_value))
    hidden = layer_norm(xt + linear(att, tp.attn_out), tp.norm_attn.gamma, tp.norm_attn.beta)
    ffn = linear(gelu(linear(hidden, tp.ffn_in)), tp.ffn_out)
    return map_of(layer_norm(hidden + ffn, tp.norm_ffn.gamma, tp.norm_ffn.beta), h, w)


def pool_2x(x_map: np.ndarray) -> np.ndarray:
    c, h, w = x_map.shape
    return x_map.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


def adapter_tokens(base_map, features_by_name, indices, text_values, params):
    """Full-stack single-path reference for the desk config (one head)."""
    names = [params.expert_names[i] for i in indices]
    x = base_map
    for block in params.blocks:
        if names:
            conditional = [extract(x, features_by_name[n], block.extractors[n]) for n in names]
            visual = tokens_of(x).mean(axis=0)
            weights = gate(visual, text_values, block.gating, indices)
            fused = np.zeros_like(x)
            for w_j, y_j in zip(weights, conditional):
                fused = fused + w_j * y_j
            x = transformer(fused, block.transformer)
        else:
            x = transformer(x, block.transformer)
    _, h, w = x.shape
    xt = tokens_of(x)
    for reducer in params.reducers:
        xt = xt + linear(gelu(linear(xt, reducer.fc1)), reducer.fc2)
    pooled = tokens_of(pool_2x(map_of(xt, h, w)))
    return linear(gelu(linear(pooled, params.projector_hidden)), params.projector_out)


def base_feature(shape, image_seed: int) -> np.ndarray:
    """One base feature map as the seeded stream defines it."""
    return np.random.default_rng([0x0B45E, image_seed]).standard_normal(shape)


def expert_feature(spec, image_seed: int, answer=None) -> np.ndarray:
    """One expert feature map: the map's draws, then one distractor offset per
    channel, then the answer planted as the leading channels' spatial means."""
    rng = np.random.default_rng([0xE79E87, spec.seed, image_seed])
    data = rng.standard_normal(spec.shape)
    data = data + rng.standard_normal(spec.channels)[:, None, None]
    if answer is not None:
        k = len(answer)
        data[:k] = data[:k] - data[:k].mean(axis=(1, 2), keepdims=True)
        data[:k] = data[:k] + np.asarray(answer)[:, None, None]
    return data


def summed_gradient(microbatches, layout) -> np.ndarray:
    """The batch gradient from each microbatch's {tensor name: gradient}, in
    microbatch order: a tensor's first gradient as it is, each later one added
    to the sum so far, and +0.0 for a tensor that no microbatch has. The tensors
    are laid out one after another, as the (name, size) pairs of `layout`."""
    out = []
    for name, size in layout:
        total = None
        for grads in microbatches:
            if name in grads:
                total = grads[name] if total is None else total + grads[name]
        out.append(np.zeros(size) if total is None else np.ravel(total))
    return np.concatenate(out)
