"""The fusion adapter: per-expert cross-attention extraction, dynamic gating,
transformer mixing, token reduction, and the output projector.

Every operation is built once as an autodiff graph (numerics.autodiff); the
public array-in/array-out functions run the same graph over constant nodes, so
inference and training share one definition of the math. Feature positions are
treated as tokens; no positional encodings are added, queries and keys stay
spatially aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from mova.adapter.config import AdapterConfig
from mova.adapter.params import (
    AdapterParams,
    CrossAttentionParams,
    GatingParams,
    LayerNormParams,
    LinearParams,
    TransformerBlockParams,
    visit,
)
from mova.adapter.text import TextToken, encode_text
from mova.errors import (
    EmptySelectionError,
    FeatureMismatchError,
    ShapeError,
    ValidationError,
)
from mova.numerics import autodiff as ad
from mova.numerics.ops import bilinear_interpolate
from mova.numerics.tensor import FeatureMap, as_finite_array
from mova.routing import ExpertSelection


@dataclass(frozen=True)
class GatingInput:
    visual_token: np.ndarray
    text_token: TextToken

    def __post_init__(self):
        object.__setattr__(
            self, "visual_token", as_finite_array(self.visual_token, "visual token")
        )


@dataclass(frozen=True)
class GateWeights:
    """Softmax weights over the selected experts, in selection order."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_finite_array(self.weights, "gate weights")
        if w.ndim != 1 or w.size < 1:
            raise ShapeError(f"gate weights must be a non-empty vector, got {w.shape}")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"gate weights sum to {w.sum()!r}, expected 1")
        if w.size == 1:
            if w[0] != 1.0:
                raise ValidationError(f"single-expert gate weight must be exactly 1, got {w[0]!r}")
        elif not np.all((w > 0.0) & (w < 1.0)):
            raise ValidationError(f"gate weights must lie strictly in (0, 1), got {w!r}")
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class AdapterOutput:
    tokens: np.ndarray
    gate_weights: tuple[GateWeights, ...]  # one per block; empty for empty selections


# ---------------------------------------------------------------------------
# graph builders (leaves are autodiff nodes)


def lift(params: AdapterParams, trainable=frozenset()) -> tuple[AdapterParams, dict[str, ad.Node]]:
    """Wrap every tensor leaf in a Node; returns the tracked trainable nodes.

    `trainable` is a set of tensor names, or the string "all".
    """
    tracked: dict[str, ad.Node] = {}
    train_all = trainable == "all"

    def fn(name, arr):
        node = ad.Node(arr, requires_grad=train_all or name in trainable)
        if node.requires_grad:
            tracked[name] = node
        return node

    return visit(params, fn), tracked


def _linear(x: ad.Node, p: LinearParams) -> ad.Node:
    y = ad.matmul(x, p.weight)
    return y if p.bias is None else ad.add_bias(y, p.bias)


def _attention(q: ad.Node, k: ad.Node, v: ad.Node, heads: int) -> ad.Node:
    width = q.shape[1]
    if width % heads:
        raise ShapeError(f"heads ({heads}) must divide token width ({width})")
    d = width // heads
    outs = []
    for h in range(heads):
        qh = ad.slice_cols(q, h * d, (h + 1) * d) if heads > 1 else q
        kh = ad.slice_cols(k, h * d, (h + 1) * d) if heads > 1 else k
        vh = ad.slice_cols(v, h * d, (h + 1) * d) if heads > 1 else v
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(d))
        outs.append(ad.matmul(ad.row_softmax(scores), vh))
    return outs[0] if heads == 1 else ad.concat_cols(outs)


def _extract(x_tokens: ad.Node, feat_tokens: ad.Node, cap: CrossAttentionParams, heads: int) -> ad.Node:
    q = _linear(x_tokens, cap.query)
    k = _linear(feat_tokens, cap.key)
    v = _linear(feat_tokens, cap.value)
    attended = _attention(q, k, v, heads)
    return ad.add(x_tokens, _linear(attended, cap.out))


def _maybe_norm(x: ad.Node, norm: LayerNormParams | None) -> ad.Node:
    if norm is None:
        return x
    return ad.layer_norm_rows(x, norm.gamma, norm.beta)


def _transformer(x: ad.Node, tp: TransformerBlockParams, heads: int) -> ad.Node:
    q = _linear(x, tp.attn_query)
    k = _linear(x, tp.attn_key)
    v = _linear(x, tp.attn_value)
    h = ad.add(x, _linear(_attention(q, k, v, heads), tp.attn_out))
    h = _maybe_norm(h, tp.norm_attn)
    f = _linear(ad.gelu(_linear(h, tp.ffn_in)), tp.ffn_out)
    return _maybe_norm(ad.add(h, f), tp.norm_ffn)


def _gate(
    visual: ad.Node,
    text: ad.Node,
    gp: GatingParams,
    selection: ExpertSelection,
    mode: str,
) -> ad.Node:
    """Gate weight vector (K,) over the selection, in selection order."""
    if mode == "uniform":
        return ad.constant(np.full(selection.k, 1.0 / selection.k))
    row = ad.reshape(ad.concat_vec(visual, text), (1, -1))
    hidden = ad.tanh(_linear(row, gp.hidden))
    logits = ad.reshape(_linear(hidden, gp.logits), (-1,))
    return ad.softmax_vec(ad.gather_vec(logits, selection.indices))


def _residual_mlp(x: ad.Node, r) -> ad.Node:
    return ad.add(x, _linear(ad.gelu(_linear(x, r.fc1)), r.fc2))


def build_forward_graph(
    base: FeatureMap,
    expert_features: Mapping[str, FeatureMap],
    selection: ExpertSelection,
    question: str,
    lifted: AdapterParams,
    config: AdapterConfig,
) -> tuple[ad.Node, list[ad.Node]]:
    """Full adapter forward pass; returns (output tokens node, per-block gate nodes)."""
    c, h, w = base.shape
    if c != config.hidden_dim:
        raise ShapeError(f"base feature has {c} channels, config hidden_dim is {config.hidden_dim}")
    if h % 2 or w % 2:
        raise ShapeError(f"base spatial extents must be even for token reduction, got {h}x{w}")
    selection.validate_against(len(lifted.expert_names))
    selected_names = [lifted.expert_names[i] for i in selection.indices]
    feat_tokens: dict[str, ad.Node] = {}
    for name in selected_names:
        if name not in expert_features:
            raise FeatureMismatchError(f"no feature map supplied for routed expert {name!r}")
        feat = expert_features[name]
        kv_in = lifted.blocks[0].extractors[name].key.weight.shape[0]
        if feat.channels != kv_in:
            raise ShapeError(
                f"expert {name!r} feature has {feat.channels} channels, extractor expects {kv_in}"
            )
        feat_tokens[name] = ad.constant(bilinear_interpolate(feat, h, w).tokens())

    x = ad.constant(base.tokens())
    gates: list[ad.Node] = []
    text = ad.constant(encode_text(question, config.text_dim).values) if selection.k else None
    for block in lifted.blocks:
        if selection.k:
            conditional = [
                _extract(x, feat_tokens[name], block.extractors[name], config.heads)
                for name in selected_names
            ]
            weights = _gate(ad.mean_rows(x), text, block.gating, selection, config.gating_mode)
            fused = ad.mul_scalar(conditional[0], ad.pick(weights, 0))
            for j in range(1, selection.k):
                fused = ad.add(fused, ad.mul_scalar(conditional[j], ad.pick(weights, j)))
            gates.append(weights)
            x = _transformer(fused, block.transformer, config.heads)
        else:
            x = _transformer(x, block.transformer, config.heads)
    for reducer in lifted.reducers:
        x = _residual_mlp(x, reducer)
    x = ad.avg_pool_2x_rows(x, h, w)
    x = _linear(ad.gelu(_linear(x, lifted.projector_hidden)), lifted.projector_out)
    return x, gates


# ---------------------------------------------------------------------------
# public array-level operations


def _constants(params):
    """Copy of a params dataclass with every array leaf wrapped in ad.constant."""
    if params is None:
        return None
    if is_dataclass(params):
        leaves = {f.name: _constants(getattr(params, f.name)) for f in fields(params)}
        return replace(params, **leaves)
    return ad.constant(params)


def extract_expert_knowledge(
    x: FeatureMap,
    expert_feature: FeatureMap,
    params: CrossAttentionParams,
    heads: int = 1,
) -> FeatureMap:
    """Conditional representation: x + out(attention(q(x), kv(resized feature)))."""
    c_expected = params.query.weight.shape[0]
    if x.channels != c_expected:
        raise ShapeError(
            f"input has {x.channels} channels, extractor is configured for {c_expected}"
        )
    kv_in = params.key.weight.shape[0]
    if expert_feature.channels != kv_in:
        raise ShapeError(
            f"expert feature has {expert_feature.channels} channels, extractor expects {kv_in}"
        )
    resized = bilinear_interpolate(expert_feature, x.height, x.width)
    out = _extract(
        ad.constant(x.tokens()), ad.constant(resized.tokens()), _constants(params), heads
    )
    return FeatureMap.from_tokens(out.value, x.height, x.width)


def gate_weights(
    gating_input: GatingInput,
    selection: ExpertSelection,
    params: GatingParams,
    mode: str = "dynamic",
) -> GateWeights:
    """Simplex weights over the selected experts (uniform mode: exactly 1/K each)."""
    if selection.k == 0:
        raise EmptySelectionError(
            "gate weights need a non-empty selection; empty routing takes the base-only path"
        )
    n = params.logits.weight.shape[1]
    selection.validate_against(n)
    joint = gating_input.visual_token.shape[0] + gating_input.text_token.dim
    expected = params.hidden.weight.shape[0]
    if joint != expected:
        raise ShapeError(f"gating input width {joint} does not match MLP fan-in {expected}")
    node = _gate(
        ad.constant(gating_input.visual_token),
        ad.constant(gating_input.text_token.values),
        _constants(params),
        selection,
        mode,
    )
    return GateWeights(node.value)


def fuse(conditional: Sequence[FeatureMap], weights: GateWeights) -> FeatureMap:
    """Weighted sum of conditional representations, in selection order."""
    if len(conditional) != weights.k:
        raise ShapeError(
            f"{len(conditional)} conditional maps for {weights.k} gate weights"
        )
    shape = conditional[0].shape
    for m in conditional[1:]:
        if m.shape != shape:
            raise ShapeError(f"conditional maps disagree in shape: {shape} vs {m.shape}")
    acc = conditional[0].data * weights.weights[0]
    for j in range(1, weights.k):
        acc = acc + conditional[j].data * weights.weights[j]
    return FeatureMap(acc)


def transformer_block(x: FeatureMap, params: TransformerBlockParams, heads: int = 1) -> FeatureMap:
    """Post-norm encoder block over the H*W feature positions."""
    if x.channels != params.attn_query.weight.shape[0]:
        raise ShapeError(
            f"input has {x.channels} channels, block is configured for "
            f"{params.attn_query.weight.shape[0]}"
        )
    out = _transformer(ad.constant(x.tokens()), _constants(params), heads)
    return FeatureMap.from_tokens(out.value, x.height, x.width)


def adapter_apply(
    base: FeatureMap,
    expert_features: Mapping[str, FeatureMap],
    selection: ExpertSelection,
    question: str,
    params: AdapterParams,
    config: AdapterConfig,
) -> AdapterOutput:
    """Forward pass returning output tokens plus per-block gate weights."""
    lifted, _ = lift(params)
    out, gates = build_forward_graph(base, expert_features, selection, question, lifted, config)
    return AdapterOutput(
        tokens=out.value,
        gate_weights=tuple(GateWeights(g.value) for g in gates),
    )


def adapter_forward(
    base: FeatureMap,
    expert_features: Mapping[str, FeatureMap],
    selection: ExpertSelection,
    question: str,
    params: AdapterParams,
    config: AdapterConfig,
) -> np.ndarray:
    """Output token matrix of shape (H/2 * W/2, llm_dim)."""
    return adapter_apply(base, expert_features, selection, question, params, config).tokens
