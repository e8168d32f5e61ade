"""The default seed and the MOVA_SEED environment override."""

from __future__ import annotations

import os

from mova.errors import Field, ValidationError

DEFAULT_SEED = 42

ENV_SEED = "MOVA_SEED"


def resolve_seed(flag_value: int | None) -> int:
    """Flag wins; otherwise MOVA_SEED if set; otherwise the built-in default."""
    env = os.environ.get(ENV_SEED)
    if flag_value is not None:
        seed = flag_value
    elif env is None:
        seed = DEFAULT_SEED
    else:
        try:
            seed = int(env)
        except ValueError:
            raise ValidationError(f"{ENV_SEED}={env!r} is not an integer seed") from None
    return Field(int, 0).check("seed", seed)  # numpy's generators take only non-negative seeds
