"""Adapter parameter containers, seeded initialization, and persistence.

The dataclasses hold float64 ndarrays. The same containers are reused with
autodiff nodes as leaves when a forward graph is built (see network.lift).
Parameter directories hold one MOVT file per tensor plus a manifest mapping
tensor name to file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mova.adapter.config import AdapterConfig
from mova.errors import ValidationError, read_json_object
from mova.experts import ExpertRegistry
from mova.numerics.movt import load_tensor, save_tensor

_PARAM_SALT = 0x9A7A


@dataclass
class LinearParams:
    weight: np.ndarray  # (fan_in, fan_out); applied as x @ weight + bias
    bias: np.ndarray | None = None  # key projections are bias-free (softmax cancels them)


@dataclass
class LayerNormParams:
    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class CrossAttentionParams:
    query: LinearParams  # C -> C
    key: LinearParams    # C_j -> C
    value: LinearParams  # C_j -> C
    out: LinearParams    # C -> C


@dataclass
class GatingParams:
    hidden: LinearParams  # C + C_T -> gating_hidden
    logits: LinearParams  # gating_hidden -> N


@dataclass
class TransformerBlockParams:
    attn_query: LinearParams
    attn_key: LinearParams
    attn_value: LinearParams
    attn_out: LinearParams
    norm_attn: LayerNormParams | None
    ffn_in: LinearParams
    ffn_out: LinearParams
    norm_ffn: LayerNormParams | None


@dataclass
class ResidualMlpParams:
    fc1: LinearParams
    fc2: LinearParams


@dataclass
class AdapterBlockParams:
    extractors: dict[str, CrossAttentionParams]  # one per pool expert, registry order
    gating: GatingParams
    transformer: TransformerBlockParams


@dataclass
class AdapterParams:
    expert_names: tuple[str, ...]
    blocks: list[AdapterBlockParams]
    reducers: list[ResidualMlpParams]
    projector_hidden: LinearParams  # C -> C
    projector_out: LinearParams     # C -> llm_dim


def visit(params: AdapterParams, fn: Callable[[str, object], object]) -> AdapterParams:
    """Rebuild the structure applying fn(name, leaf) to every tensor leaf.

    This walk is the single source of truth for tensor naming; initialization
    order, persistence, lifting, and training-scope filters all go through it.
    """

    def lin(prefix: str, p: LinearParams) -> LinearParams:
        return LinearParams(
            fn(f"{prefix}.weight", p.weight),
            None if p.bias is None else fn(f"{prefix}.bias", p.bias),
        )

    def norm(prefix: str, p: LayerNormParams | None) -> LayerNormParams | None:
        if p is None:
            return None
        return LayerNormParams(fn(f"{prefix}.gamma", p.gamma), fn(f"{prefix}.beta", p.beta))

    blocks = []
    for i, block in enumerate(params.blocks):
        pre = f"block{i}"
        extractors = {
            name: CrossAttentionParams(
                query=lin(f"{pre}.extract.{name}.query", ca.query),
                key=lin(f"{pre}.extract.{name}.key", ca.key),
                value=lin(f"{pre}.extract.{name}.value", ca.value),
                out=lin(f"{pre}.extract.{name}.out", ca.out),
            )
            for name, ca in block.extractors.items()
        }
        gating = GatingParams(
            hidden=lin(f"{pre}.gate.hidden", block.gating.hidden),
            logits=lin(f"{pre}.gate.logits", block.gating.logits),
        )
        tr = block.transformer
        transformer = TransformerBlockParams(
            attn_query=lin(f"{pre}.attn.query", tr.attn_query),
            attn_key=lin(f"{pre}.attn.key", tr.attn_key),
            attn_value=lin(f"{pre}.attn.value", tr.attn_value),
            attn_out=lin(f"{pre}.attn.out", tr.attn_out),
            norm_attn=norm(f"{pre}.norm_attn", tr.norm_attn),
            ffn_in=lin(f"{pre}.ffn.fc_in", tr.ffn_in),
            ffn_out=lin(f"{pre}.ffn.fc_out", tr.ffn_out),
            norm_ffn=norm(f"{pre}.norm_ffn", tr.norm_ffn),
        )
        blocks.append(AdapterBlockParams(extractors=extractors, gating=gating, transformer=transformer))
    reducers = [
        ResidualMlpParams(
            fc1=lin(f"reduce{i}.fc1", r.fc1),
            fc2=lin(f"reduce{i}.fc2", r.fc2),
        )
        for i, r in enumerate(params.reducers)
    ]
    return AdapterParams(
        expert_names=params.expert_names,
        blocks=blocks,
        reducers=reducers,
        projector_hidden=lin("projector.hidden", params.projector_hidden),
        projector_out=lin("projector.out", params.projector_out),
    )


def named_arrays(params: AdapterParams) -> list[tuple[str, np.ndarray]]:
    out: list[tuple[str, np.ndarray]] = []

    def fn(name, leaf):
        out.append((name, leaf))
        return leaf

    visit(params, fn)
    return out


def clone_params(params: AdapterParams) -> AdapterParams:
    return visit(params, lambda _name, arr: arr.copy())


def init_params(config: AdapterConfig, registry: ExpertRegistry, seed: int | None = None) -> AdapterParams:
    """Seeded init: N(0, 1/fan_in) weights, zero biases, identity norms."""
    if config.hidden_dim != registry.base_channels:
        raise ValidationError(
            f"config hidden_dim {config.hidden_dim} must equal base channels "
            f"{registry.base_channels}"
        )
    rng = np.random.default_rng([_PARAM_SALT, int(config.seed if seed is None else seed)])
    c = config.hidden_dim
    ffn = config.ffn_expansion * c

    def lin(fan_in: int, fan_out: int, bias: bool = True) -> LinearParams:
        w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        return LinearParams(weight=w, bias=np.zeros(fan_out) if bias else None)

    def norm() -> LayerNormParams:
        return LayerNormParams(gamma=np.ones(c), beta=np.zeros(c))

    n = len(registry)
    blocks = []
    for _ in range(config.num_blocks):
        extractors = {
            spec.name: CrossAttentionParams(
                query=lin(c, c),
                key=lin(spec.channels, c, bias=False),
                value=lin(spec.channels, c),
                out=lin(c, c),
            )
            for spec in registry.experts
        }
        gating = GatingParams(
            hidden=lin(c + config.text_dim, config.gating_hidden),
            logits=lin(config.gating_hidden, n),
        )
        transformer = TransformerBlockParams(
            attn_query=lin(c, c),
            attn_key=lin(c, c, bias=False),
            attn_value=lin(c, c),
            attn_out=lin(c, c),
            norm_attn=norm(),
            ffn_in=lin(c, ffn),
            ffn_out=lin(ffn, c),
            norm_ffn=norm(),
        )
        blocks.append(AdapterBlockParams(extractors=extractors, gating=gating, transformer=transformer))
    reducers = [ResidualMlpParams(fc1=lin(c, c), fc2=lin(c, c)) for _ in range(2)]
    return AdapterParams(
        expert_names=tuple(spec.name for spec in registry.experts),
        blocks=blocks,
        reducers=reducers,
        projector_hidden=lin(c, c),
        projector_out=lin(c, config.llm_dim),
    )


def save_params(params: AdapterParams, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, str] = {}
    for name, arr in named_arrays(params):
        filename = f"{name}.movt"
        save_tensor(directory / filename, arr)
        manifest[name] = filename
    payload = {"expert_names": list(params.expert_names), "tensors": manifest}
    (directory / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_params(directory, config: AdapterConfig, registry: ExpertRegistry) -> AdapterParams:
    """Read a parameter directory; every manifest file name must be a plain name inside it."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"{directory}: missing manifest.json")
    manifest = read_json_object(manifest_path, "parameter manifest")
    tensors = manifest.get("tensors", {})
    expert_names = manifest.get("expert_names", [])
    if not (isinstance(tensors, dict) and isinstance(expert_names, list)):
        raise ValidationError(f"{manifest_path}: needs a 'tensors' object and an 'expert_names' list")
    template = init_params(config, registry)
    if tuple(expert_names) != template.expert_names:
        raise ValidationError(
            f"{directory}: manifest expert names {expert_names} "
            f"do not match registry {list(template.expert_names)}"
        )
    expected = {name for name, _ in named_arrays(template)}
    if set(tensors) != expected:
        missing = sorted(expected - set(tensors))
        extra = sorted(set(tensors) - expected)
        raise ValidationError(
            f"{directory}: manifest tensors mismatch (missing {missing}, extra {extra})"
        )
    for name, filename in tensors.items():
        if not isinstance(filename, str) or filename in ("", ".", "..") or Path(filename).name != filename:
            raise ValidationError(f"{manifest_path}: {name} file {filename!r} is not a plain file name")

    def fn(name, arr):
        loaded = load_tensor(directory / tensors[name])
        if loaded.shape != arr.shape:
            raise ValidationError(
                f"{directory}: tensor {name} has shape {loaded.shape}, expected {arr.shape}"
            )
        return loaded

    return visit(template, fn)
