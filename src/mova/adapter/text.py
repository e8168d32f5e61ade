"""Deterministic stand-in for the instruction text encoder.

Tokens are hashed to seeded unit vectors and averaged, so the embedding is a
pure function of the string with no learned weights. A real encoder can be
swapped in by replacing :func:`encode_text` wherever it is injected.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from mova.errors import Field, ValidationError
from mova.numerics.tensor import as_finite_array, freeze

_NORM_FLOOR = 1e-12
_TEXT_DIM = Field(int, 1)


@dataclass(frozen=True)
class TextToken:
    values: np.ndarray

    def __post_init__(self):
        arr = as_finite_array(self.values, "text token")
        if arr.ndim != 1:
            raise ValidationError(f"text token must be a vector, got shape {arr.shape}")
        object.__setattr__(self, "values", freeze(arr))

    @property
    def dim(self) -> int:
        return self.values.shape[0]


# Seeding a generator per token dominates encode_text, and questions reuse a
# small vocabulary; the bound keeps an open-ended stream of new words in check.
@functools.lru_cache(maxsize=4096)
def _token_vector(token: str, text_dim: int) -> np.ndarray:
    """Unit vector for one token; cached, so the array is read-only."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    vec = rng.standard_normal(text_dim)
    norm = np.linalg.norm(vec)
    vec = vec / norm if norm > _NORM_FLOOR else vec
    vec.flags.writeable = False
    return vec


def encode_text(question: str, text_dim: int) -> TextToken:
    """Whitespace-tokenized hash embedding, scaled to unit norm; "" maps to zero."""
    _TEXT_DIM.check("text_dim", text_dim)
    tokens = question.split()
    if not tokens:
        return TextToken(np.zeros(text_dim))
    mean = np.zeros(text_dim)
    for token in tokens:
        mean += _token_vector(token, text_dim)
    mean /= len(tokens)
    norm = np.linalg.norm(mean)
    if norm > _NORM_FLOOR:
        mean = mean / norm
    return TextToken(mean)
