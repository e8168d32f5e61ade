"""The fusion adapter: per-expert cross-attention extraction, dynamic gating,
transformer mixing, token reduction, and the output projector.

Every operation is built once as an autodiff graph (numerics.autodiff); the
public array-in/array-out functions run the same graph over constant nodes, so
inference and training share one definition of the math. The full forward pass
takes a batch of samples (inference is a batch of one) and extracts every
routed (sample, expert) pair of the batch at once. Feature positions are
treated as tokens; no positional encodings are added, queries and keys stay
spatially aligned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Mapping, Sequence

import numpy as np

from mova.adapter.config import AdapterConfig
from mova.adapter.params import (
    AdapterParams,
    CrossAttentionParams,
    GatingParams,
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
    """Softmax weights over the selected experts, in selection order: a point of
    the closed simplex, since the softmax can round a weight to 1.0 or 0.0."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_finite_array(self.weights, "gate weights")
        if w.ndim != 1 or w.size < 1:
            raise ShapeError(f"gate weights must be a non-empty vector, got {w.shape}")
        for outside in (w < 0.0, w > 1.0):  # with a sum of 1, a weight above 1 forces one below 0
            if outside.any():
                i = int(outside.argmax())
                raise ValidationError(f"gate weight {i} is {float(w[i])}, outside [0, 1]")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"gate weights sum to {w.sum()!r}, expected 1")
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


_lifted: tuple[AdapterParams, AdapterParams] | None = None  # (params, its forward-only lift)


def lift(params: AdapterParams, trainable=frozenset()) -> tuple[AdapterParams, dict[str, ad.Node]]:
    """Wrap a read-only view of every tensor leaf in a Node; returns the tracked
    trainable nodes. A view sees in-place writes to its array (the optimizer's,
    the probes'), and an op that writes through it raises. `trainable` is a set
    of tensor names. A forward-only lift (no `trainable`) is kept for the last
    params object lifted so; the memo holds that object, so its id cannot be
    reused. Frozen containers over read-only views of the live arrays make this
    sound. A lift with trainable leaves, which collect gradients, is not kept.
    """
    global _lifted
    if not trainable and _lifted is not None and _lifted[0] is params:
        return _lifted[1], {}
    tracked: dict[str, ad.Node] = {}

    def fn(name, arr):
        view = arr.view()
        view.setflags(write=False)
        node = ad.Node(view, requires_grad=name in trainable)
        if node.requires_grad:
            tracked[name] = node
        return node

    lifted = visit(params, fn)
    if not trainable:
        _lifted = (params, lifted)
    return lifted, tracked


def _linear(x: ad.Node, p: LinearParams) -> ad.Node:
    return ad.linear(x, p.weight, p.bias)


def _attention(q: ad.Node, k: ad.Node, v: ad.Node, heads: int) -> ad.Node:
    width = q.shape[-1]
    if width % heads:
        raise ShapeError(f"heads ({heads}) must divide token width ({width})")
    if heads == 1:
        return ad.attention(q, k, v)
    d = width // heads
    return ad.concat_cols(
        [
            ad.attention(*(ad.slice_cols(t, h * d, (h + 1) * d) for t in (q, k, v)))
            for h in range(heads)
        ]
    )


def _extract(x: ad.Node, kv, heads: int) -> ad.Node:
    """x + out(attention(q(x), k(f), v(f))) for stacked (sample, expert) pairs.

    kv holds, per run of experts whose features share a channel count, the
    run's stacked resized tokens f, its extractors and each one's pair count.
    """

    def project(t, layers, rows):
        return ad.grouped_linear(t, [p.weight for p in layers], [p.bias for p in layers], rows)

    caps = [cap for _, run, _ in kv for cap in run]
    rows = [n for _, _, counts in kv for n in counts]
    k = v = None
    for feats, run, counts in kv:
        kr = project(feats, [c.key for c in run], counts)
        vr = project(feats, [c.value for c in run], counts)
        k, v = (kr, vr) if k is None else (ad.concat_vec(k, kr), ad.concat_vec(v, vr))
    attended = _attention(project(x, [c.query for c in caps], rows), k, v, heads)
    return ad.add(x, project(attended, [c.out for c in caps], rows))


def _transformer(x: ad.Node, tp: TransformerBlockParams, heads: int) -> ad.Node:
    q = _linear(x, tp.attn_query)
    k = _linear(x, tp.attn_key)
    v = _linear(x, tp.attn_value)
    h = ad.add(x, _linear(_attention(q, k, v, heads), tp.attn_out))
    h = ad.layer_norm_rows(h, tp.norm_attn.gamma, tp.norm_attn.beta)
    f = _linear(ad.gelu(_linear(h, tp.ffn_in)), tp.ffn_out)
    return ad.layer_norm_rows(ad.add(h, f), tp.norm_ffn.gamma, tp.norm_ffn.beta)


def _gate(
    visual: ad.Node,
    text: ad.Node,
    gp: GatingParams,
    selections: Sequence[ExpertSelection],
    mode: str,
) -> ad.Node:
    """Gate weights (B, K): row b is sample b's softmax over its own selection,
    in selection order, and exactly 0 in the slots past its K."""
    kmax = max(s.k for s in selections)
    if mode == "uniform":
        return ad.constant(
            [[1.0 / s.k for _ in range(s.k)] + [0.0] * (kmax - s.k) for s in selections]
        )
    hidden = ad.tanh(_linear(ad.concat_cols([visual, text]), gp.hidden))
    logits = _linear(hidden, gp.logits)
    rows, n = logits.shape
    flat = ad.reshape(logits, (-1,))
    # Padded slots gather a -inf appended past the last logit.
    index = np.full((rows, kmax), rows * n)
    for row, s in enumerate(selections):
        index[row, : s.k] = row * n + np.asarray(s.indices, dtype=int)
    if any(s.k < kmax for s in selections):
        flat = ad.concat_vec(flat, ad.constant([-np.inf]))
    return ad.softmax_vec(ad.gather_vec(flat, index))


def _residual_mlp(x: ad.Node, r) -> ad.Node:
    return ad.add(x, _linear(ad.gelu(_linear(x, r.fc1)), r.fc2))


@dataclass(frozen=True)
class ForwardInput:
    """One sample of a forward pass: its features, its routing and its question."""

    base: FeatureMap
    expert_features: Mapping[str, FeatureMap]
    selection: ExpertSelection
    question: str


def _resized_tokens(feats: Sequence[FeatureMap], h: int, w: int) -> np.ndarray:
    """(n, h*w, C) tokens of n C-channel maps resized to h x w, in order.

    Maps of one shape are stacked along channels and resized by one
    bilinear_interpolate call; the arithmetic is per channel, so each map's
    bits are those of resizing it alone.
    """
    c = feats[0].channels
    by_shape: dict[tuple[int, int, int], list[int]] = {}
    for i, f in enumerate(feats):
        by_shape.setdefault(f.shape, []).append(i)
    out = np.empty((len(feats), h * w, c))
    for idx in by_shape.values():
        stacked = feats[idx[0]] if len(idx) == 1 else FeatureMap(
            np.concatenate([feats[i].data for i in idx])
        )
        resized = bilinear_interpolate(stacked, h, w).data
        out[idx] = resized.reshape(len(idx), c, h * w).transpose(0, 2, 1)
    return out


def build_forward_graph(
    batch: Sequence[ForwardInput],
    lifted: AdapterParams,
    config: AdapterConfig,
    record: list[np.ndarray] | None = None,
    resume: tuple[int, np.ndarray] | None = None,
) -> tuple[ad.Node, list[ad.Node]]:
    """Adapter forward pass over a batch, dispatched by expert.

    Returns the output tokens node (B, H/2 * W/2, llm_dim) and one gate node
    (B, K) per block, where K is the batch's largest selection; there are no
    gate nodes when no sample routes an expert. Each block extracts every
    routed (sample, expert) pair in one fixed set of nodes, whatever K is: the
    pairs are stacked expert-major and each projection applies every expert's
    weights to its own pairs, so a routed-out feature never enters the graph.
    Each routed expert's features are resized once per input shape, stacked.
    The weighted conditionals are summed back per sample in selection order;
    a sample with K=0 passes its tokens straight to the transformer.
    Stage i is block i, and stage num_blocks the tail. A `record` list receives
    the value entering each stage the pass runs. `resume=(stage, value recorded
    over this batch)` runs only the stages from there on, with the full pass's
    bits, and returns the gates of the blocks it runs.
    """
    c, h, w = batch[0].base.shape
    if c != config.hidden_dim:
        raise ShapeError(f"base feature has {c} channels, config hidden_dim is {config.hidden_dim}")
    if h % 2 or w % 2:
        raise ShapeError(f"base spatial extents must be even for token reduction, got {h}x{w}")
    kmax = max(sample.selection.k for sample in batch)
    # Per routed expert: the (sample, selection position, feature) that route it.
    routed: dict[str, list[tuple[int, int, FeatureMap]]] = {}
    texts = np.zeros((len(batch), config.text_dim))
    for row, sample in enumerate(batch):
        if sample.base.shape != (c, h, w):
            raise ShapeError(f"base features differ in shape: {(c, h, w)} vs {sample.base.shape}")
        sample.selection.validate_against(len(lifted.expert_names))
        for pos, idx in enumerate(sample.selection.indices):
            name = lifted.expert_names[idx]
            if name not in sample.expert_features:
                raise FeatureMismatchError(f"no feature map supplied for routed expert {name!r}")
            feat = sample.expert_features[name]
            kv_in = lifted.blocks[0].extractors[name].key.weight.shape[0]
            if feat.channels != kv_in:
                raise ShapeError(
                    f"expert {name!r} feature has {feat.channels} channels, "
                    f"extractor expects {kv_in}"
                )
            routed.setdefault(name, []).append((row, pos, feat))
        if sample.selection.k:
            texts[row] = encode_text(sample.question, config.text_dim).values

    start, entering = resume or (0, np.stack([sample.base.tokens() for sample in batch]))
    if entering.shape != (len(batch), h * w, c) or not 0 <= start <= len(lifted.blocks):
        raise ShapeError(f"cannot resume at stage {start} from a value of shape {entering.shape}")
    x = ad.constant(entering)
    text = ad.constant(texts)
    selections = [sample.selection for sample in batch]
    # The routed (sample, position) pairs, expert-major; terms[b, pos] indexes them.
    pairs = [(row, pos) for rows in routed.values() for row, pos, _ in rows]
    terms = np.full((len(batch), kmax), -1)
    for i, (row, pos) in enumerate(pairs):
        terms[row, pos] = i
    pair_rows = [row for row, _ in pairs]
    slots = [row * kmax + pos for row, pos in pairs]
    # Each run of experts with one feature width stacks into one key/value input.
    runs = [list(run) for _, run in groupby(routed, key=lambda n: routed[n][0][2].channels)]
    resized = {n: _resized_tokens([f for _, _, f in rows], h, w) for n, rows in routed.items()}
    feats = [ad.constant(np.concatenate([resized[n] for n in run])) for run in runs]
    counts = [[len(routed[n]) for n in run] for run in runs]
    gates: list[ad.Node] = []
    for block in lifted.blocks[start:]:
        if record is not None:
            record.append(x.value)
        if kmax:
            weights = _gate(ad.mean_rows(x), text, block.gating, selections, config.gating_mode)
            mine = x if pair_rows == list(range(len(batch))) else ad.gather_vec(x, pair_rows)
            kv = [(f, [block.extractors[n] for n in run], c) for f, run, c in zip(feats, runs, counts)]
            conditional = _extract(mine, kv, config.heads)
            weighted = ad.mul_scalar(conditional, ad.gather_vec(ad.reshape(weights, (-1,)), slots))
            gates.append(weights)
            x = ad.scatter_rows(x, weighted, terms)
        x = _transformer(x, block.transformer, config.heads)
    if record is not None:
        record.append(x.value)
    for reducer in lifted.reducers:
        x = _residual_mlp(x, reducer)
    x = ad.avg_pool_2x_rows(x, h, w)
    x = _linear(ad.gelu(_linear(x, lifted.projector_hidden)), lifted.projector_out)
    return x, gates


# ---------------------------------------------------------------------------
# public array-level operations


def _constants(params):
    """Copy of a params dataclass with every array leaf wrapped in ad.constant."""
    return visit(params, lambda _name, array: ad.constant(array))


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
    kv = [(ad.constant(resized.tokens()[None]), [_constants(params)], [1])]
    out = _extract(ad.constant(x.tokens()[None]), kv, heads)
    return FeatureMap.from_tokens(out.value[0], x.height, x.width)


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
        ad.constant(gating_input.visual_token[None]),
        ad.constant(gating_input.text_token.values[None]),
        _constants(params),
        [selection],
        mode,
    )
    return GateWeights(node.value[0])


def fuse(conditional: Sequence[FeatureMap], weights: GateWeights) -> FeatureMap:
    """Weighted sum of conditional representations, in selection order, by the
    nodes build_forward_graph runs: mul_scalar, then scatter_rows' ordered sum."""
    if len(conditional) != weights.k:
        raise ShapeError(
            f"{len(conditional)} conditional maps for {weights.k} gate weights"
        )
    shape = conditional[0].shape
    for m in conditional[1:]:
        if m.shape != shape:
            raise ShapeError(f"conditional maps disagree in shape: {shape} vs {m.shape}")
    stacked = ad.constant(np.stack([m.data for m in conditional]))
    weighted = ad.mul_scalar(stacked, ad.constant(weights.weights))
    summed = ad.scatter_rows(ad.constant(np.zeros((1, *shape))), weighted, [range(weights.k)])
    return FeatureMap(summed.value[0])


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
    """Forward pass returning output tokens plus per-block gate weights (a batch of one).

    `lift` lifts each params object once, while it is the last one lifted
    forward-only. Unrouted experts' extractors are lifted but never enter the graph.
    """
    sample = ForwardInput(base, expert_features, selection, question)
    out, gates = build_forward_graph([sample], lift(params)[0], config)
    return AdapterOutput(
        tokens=out.value[0],
        gate_weights=tuple(GateWeights(g.value[0]) for g in gates),
    )

