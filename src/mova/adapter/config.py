"""Adapter configuration and its adapter.json serialization."""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

from mova.errors import ValidationError, read_json_object

GATING_MODES = ("dynamic", "uniform")


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
        dims = {
            "hidden_dim": self.hidden_dim,
            "text_dim": self.text_dim,
            "llm_dim": self.llm_dim,
            "num_blocks": self.num_blocks,
            "gating_hidden": self.gating_hidden,
            "ffn_expansion": self.ffn_expansion,
            "heads": self.heads,
        }
        for key, value in {**dims, "seed": self.seed}.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{key} must be an integer, got {value!r}")
        for key, value in dims.items():
            if value < 1:
                raise ValidationError(f"{key} must be >= 1, got {value}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
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


def load_config(path) -> AdapterConfig:
    raw = read_json_object(path, "adapter config")
    known = {f for f in AdapterConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"{path}: unknown adapter config keys {sorted(unknown)}")
    try:
        return AdapterConfig(**raw)
    except TypeError as exc:
        raise ValidationError(f"{path}: incomplete adapter config ({exc})") from exc
