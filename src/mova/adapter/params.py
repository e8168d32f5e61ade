"""Adapter parameter containers, seeded initialization, and persistence.

The dataclasses hold float64 ndarrays. The same containers are reused with
autodiff nodes as leaves when a forward graph is built (see network.lift).
They are frozen, with `blocks` and `reducers` stored as tuples and each
block's `extractors` as a read-only mapping: a params object's structure never
changes once built, and only its arrays are written in place (by the optimizer
and the gradient probes). network.lift relies on this to lift each params
object once for forward-only passes: its leaves are read-only views of the live
arrays, so they see each in-place write.
A parameter directory holds `params.movt`, one MOVT vector of every tensor in
`visit` order (the layout of the trainer's buffer, see flat_views), and a
`manifest.json` of the expert names and that file's SHA-256. The manifest is
written last, atomically, and a load checks the vector against it, so a
directory loads as one save or not at all: a save stopped during or after the
vector's write leaves the old manifest, which the new bytes no longer match.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from mova.adapter.config import AdapterConfig
from mova.errors import ValidationError, atomic_write, read_json_object
from mova.experts import ExpertRegistry
from mova.numerics.movt import load_tensor, save_tensor

_PARAM_SALT = 0x9A7A
PARAMS_FILE = "params.movt"


@dataclass(frozen=True)
class LinearParams:
    weight: np.ndarray  # (fan_in, fan_out); applied as x @ weight + bias
    bias: np.ndarray | None = None  # key projections are bias-free (softmax cancels them)


@dataclass(frozen=True)
class LayerNormParams:
    gamma: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class CrossAttentionParams:
    query: LinearParams  # C -> C
    key: LinearParams    # C_j -> C
    value: LinearParams  # C_j -> C
    out: LinearParams    # C -> C


@dataclass(frozen=True)
class GatingParams:
    hidden: LinearParams  # C + C_T -> gating_hidden
    logits: LinearParams  # gating_hidden -> N


@dataclass(frozen=True)
class TransformerBlockParams:
    attn_query: LinearParams
    attn_key: LinearParams
    attn_value: LinearParams
    attn_out: LinearParams
    norm_attn: LayerNormParams
    ffn_in: LinearParams
    ffn_out: LinearParams
    norm_ffn: LayerNormParams


@dataclass(frozen=True)
class ResidualMlpParams:
    fc1: LinearParams
    fc2: LinearParams


@dataclass(frozen=True)
class AdapterBlockParams:
    extractors: Mapping[str, CrossAttentionParams]  # one per pool expert, registry order
    gating: GatingParams
    transformer: TransformerBlockParams

    def __post_init__(self):
        object.__setattr__(self, "extractors", MappingProxyType(dict(self.extractors)))


@dataclass(frozen=True)
class AdapterParams:
    expert_names: tuple[str, ...]
    blocks: tuple[AdapterBlockParams, ...]
    reducers: tuple[ResidualMlpParams, ...]
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

    def norm(prefix: str, p: LayerNormParams) -> LayerNormParams:
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
    reducers = tuple(
        ResidualMlpParams(
            fc1=lin(f"reduce{i}.fc1", r.fc1),
            fc2=lin(f"reduce{i}.fc2", r.fc2),
        )
        for i, r in enumerate(params.reducers)
    )
    return AdapterParams(
        expert_names=params.expert_names,
        blocks=tuple(blocks),
        reducers=reducers,
        projector_hidden=lin("projector.hidden", params.projector_hidden),
        projector_out=lin("projector.out", params.projector_out),
    )


def stage_of(name: str, num_blocks: int) -> int:
    """The forward stage that first reads tensor `name`: i for a block<i> tensor,
    num_blocks (the tail) for reducer and projector tensors, 0 (a full pass) for any other."""
    block = re.match(r"block(\d+)\.", name)
    if block and int(block[1]) < num_blocks:
        return int(block[1])
    return num_blocks if re.match(r"(reduce\d+|projector)\.", name) else 0


def named_arrays(params: AdapterParams) -> list[tuple[str, np.ndarray]]:
    out: list[tuple[str, np.ndarray]] = []

    def fn(name, leaf):
        out.append((name, leaf))
        return leaf

    visit(params, fn)
    return out


def flat_views(template: AdapterParams, flat: np.ndarray) -> tuple[AdapterParams, dict[str, slice]]:
    """`template`'s structure over shaped views of the vector `flat`, which holds
    exactly its values, tensors in `visit` order; and each tensor name's slice of `flat`."""
    segments: dict[str, slice] = {}
    end = 0

    def view(name, array):
        nonlocal end
        segments[name] = slice(end, end + array.size)
        end += array.size
        return flat[segments[name]].reshape(array.shape)

    return visit(template, view), segments


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
    reducers = tuple(ResidualMlpParams(fc1=lin(c, c), fc2=lin(c, c)) for _ in range(2))
    return AdapterParams(
        expert_names=tuple(spec.name for spec in registry.experts),
        blocks=tuple(blocks),
        reducers=reducers,
        projector_hidden=lin(c, c),
        projector_out=lin(c, config.llm_dim),
    )


def save_params(params: AdapterParams, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vector = np.concatenate([array for _name, array in named_arrays(params)], axis=None)
    digest = save_tensor(directory / PARAMS_FILE, vector)
    payload = {"expert_names": list(params.expert_names), "sha256": digest}
    with atomic_write(directory / "manifest.json") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_params(directory, config: AdapterConfig, registry: ExpertRegistry) -> AdapterParams:
    """Read a parameter directory: `params.movt` must have the SHA-256 that the
    manifest records and hold as many values as the config's params."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"{directory}: missing manifest.json")
    manifest = read_json_object(manifest_path, "parameter manifest")
    expert_names, digest = manifest.get("expert_names"), manifest.get("sha256")
    if "tensors" in manifest or isinstance(digest, dict):
        raise ValidationError(f"{manifest_path}: per-tensor files are an older format; save the params again")
    if not (isinstance(expert_names, list) and isinstance(digest, str)):
        raise ValidationError(f"{manifest_path}: needs an 'expert_names' list and a 'sha256' string")
    template = init_params(config, registry)
    if tuple(expert_names) != template.expert_names:
        raise ValidationError(
            f"{directory}: manifest expert names {expert_names} "
            f"do not match registry {list(template.expert_names)}"
        )
    path = directory / PARAMS_FILE
    vector = load_tensor(path, digest)
    size = sum(array.size for _name, array in named_arrays(template))
    if vector.shape != (size,):
        raise ValidationError(f"{path}: holds shape {vector.shape}, the config's params take {size} values")
    return flat_views(template, vector)[0]
