"""Adapter configuration and its adapter.json serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from mova.errors import Field, ValidationError, check_fields, read_json_object

GATING_MODES = ("dynamic", "uniform")

_DIMS = ("hidden_dim", "text_dim", "llm_dim", "num_blocks", "gating_hidden", "ffn_expansion", "heads")
_FIELDS = {**dict.fromkeys(_DIMS, Field(int, 1)), "seed": Field(int, 0)}


@dataclass(frozen=True)
class AdapterConfig:
    hidden_dim: int
    text_dim: int
    llm_dim: int
    num_blocks: int = 3
    gating_hidden: int = 16
    ffn_expansion: int = 4
    heads: int = 1
    gating_mode: str = "dynamic"
    seed: int = 0

    def __post_init__(self):
        check_fields(self, _FIELDS)
        if self.gating_mode not in GATING_MODES:
            raise ValidationError(
                f"gating_mode must be one of {GATING_MODES}, got {self.gating_mode!r}"
            )
        if self.hidden_dim % self.heads:
            raise ValidationError(
                f"heads ({self.heads}) must divide hidden_dim ({self.hidden_dim})"
            )


def desk_config(seed: int = 0, gating_mode: str = "dynamic") -> AdapterConfig:
    """Reference desk-scale config: C=8, C_T=8, D_llm=32, 3 blocks."""
    return AdapterConfig(
        hidden_dim=8,
        text_dim=8,
        llm_dim=32,
        num_blocks=3,
        gating_hidden=16,
        ffn_expansion=4,
        heads=1,
        gating_mode=gating_mode,
        seed=seed,
    )


def save_config(config: AdapterConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=2, sort_keys=True) + "\n")


def parse_config(raw, path) -> AdapterConfig:
    """AdapterConfig from the JSON object of adapter.json or toy.json's "adapter"."""
    try:  # a TypeError is an unknown or missing key, or a value that is not an object
        return AdapterConfig(**raw)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed adapter config ({exc})") from exc


def load_config(path) -> AdapterConfig:
    return parse_config(read_json_object(path, "adapter config"), path)
