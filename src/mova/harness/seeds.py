"""Default seeds and the MOVA_SEED environment override."""

from __future__ import annotations

import os

from mova.errors import ValidationError

DEFAULT_IMAGE_SEED = 42
DEFAULT_ROUTE_SEED = 42
DEFAULT_CORPUS_SEED = 42

ENV_SEED = "MOVA_SEED"


def resolve_seed(flag_value: int | None, default: int) -> int:
    """Flag wins; otherwise MOVA_SEED if set; otherwise the built-in default."""
    env = os.environ.get(ENV_SEED)
    if flag_value is not None:
        seed = flag_value
    elif env is None:
        seed = default
    else:
        try:
            seed = int(env)
        except ValueError:
            raise ValidationError(f"{ENV_SEED}={env!r} is not an integer seed") from None
    if seed < 0:  # numpy's generators take only non-negative seeds
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed
