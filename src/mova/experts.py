"""Synthetic vision experts and the registry describing the pool.

Real encoders are out of scope; each expert is a deterministic seeded feature
generator. A "planted" feature embeds an answer vector into the spatial means
of its leading channels, which is what gives routing experiments a checkable
ground truth.
"""

from __future__ import annotations

import functools
import json
import string
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from mova.errors import CapacityError, Field, ValidationError, check_fields, read_json_object
from mova.numerics.tensor import FeatureMap, as_finite_array

_BASE_FEATURE_SALT = 0x0B45E
_EXPERT_FEATURE_SALT = 0xE79E87

# Non-planted expert features carry O(1) per-channel mean offsets: a specialist
# consulted outside its specialty emits confident but task-irrelevant signal,
# not just weak noise. This is what makes indiscriminate fusion costly.
_DISTRACTOR_SCALE = 1.0

_MAX_EXPERTS = len(string.ascii_uppercase)

# Bounds on registry geometry, checked at load so a hostile experts.json fails
# before any feature is generated or any weight allocated.
# A channel count sizes the (channels, hidden) key and value weights of an
# extractor in every block, and the base channels are the hidden width itself.
_MAX_CHANNELS = 4096
# Every feature map is generated per sample as float64: 2**20 elements is 8 MiB.
_MAX_FEATURE_ELEMENTS = 2**20
# Adapter attention is quadratic in the base token count height*width: one
# 4096-token attention matrix is already 128 MiB of float64.
_MAX_BASE_TOKENS = 4096
MAX_SAMPLES = 2**20  # a corpus keeps ~1.5 KiB per sample in memory (desk registry)

_ELEMENTS = Field(int, 1, _MAX_FEATURE_ELEMENTS)
_TOKENS = Field(int, 1, _MAX_BASE_TOKENS)
_SPEC_FIELDS = {
    "letter": Field(str),
    "name": Field(str, 1),
    "description": Field(str, 1),
    "channels": Field(int, 1, _MAX_CHANNELS),
    "height": Field(int, 1),
    "width": Field(int, 1),
    "seed": Field(int, 0, 2**64 - 1),
}
_REGISTRY_FIELDS = {
    "base_channels": Field(int, 1, _MAX_CHANNELS),
    "base_height": Field(int, 1),
    "base_width": Field(int, 1),
}


@dataclass(frozen=True)
class ExpertSpec:
    letter: str
    name: str
    description: str
    channels: int
    height: int
    width: int
    seed: int

    def __post_init__(self):
        check_fields(self, _SPEC_FIELDS)
        if len(self.letter) != 1 or self.letter not in string.ascii_uppercase:
            raise ValidationError(f"expert {self.name!r}: letter {self.letter!r} must be A..Z")
        _ELEMENTS.check("channels*height*width", self.channels * self.height * self.width)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)


@dataclass(frozen=True)
class ExpertRegistry:
    experts: tuple[ExpertSpec, ...]
    base_channels: int
    base_height: int
    base_width: int

    def __post_init__(self):
        if not 1 <= len(self.experts) <= _MAX_EXPERTS:
            raise ValidationError(
                f"registry must hold 1..{_MAX_EXPERTS} experts, got {len(self.experts)}"
            )
        check_fields(self, _REGISTRY_FIELDS)
        tokens = self.base_height * self.base_width
        _TOKENS.check("base_height*base_width", tokens)
        _ELEMENTS.check("base_channels*base_height*base_width", self.base_channels * tokens)
        names = [e.name for e in self.experts]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate expert names in registry: {names}")
        for i, expert in enumerate(self.experts):
            expected = string.ascii_uppercase[i]
            if expert.letter != expected:
                raise ValidationError(
                    f"expert {expert.name!r} has letter {expert.letter!r}, "
                    f"expected contiguous letter {expected!r}"
                )

    def __len__(self) -> int:
        return len(self.experts)

    @property
    def base_shape(self) -> tuple[int, int, int]:
        return (self.base_channels, self.base_height, self.base_width)

    def index_of(self, name: str) -> int:
        for i, expert in enumerate(self.experts):
            if expert.name == name:
                return i
        raise ValidationError(f"unknown expert name {name!r}")

    def by_letter(self, letter: str) -> int:
        idx = string.ascii_uppercase.find(letter)
        if not 0 <= idx < len(self.experts):
            raise ValidationError(f"letter {letter!r} is outside the registry range")
        return idx


_SAMPLE_FIELDS = {
    "sample_id": Field(str),
    "image_seed": Field(int, 0),  # numpy seeds are >= 0
    "question": Field(str),
    "answer_vector": Field(float, many=True),
    "planted_expert": Field(str, optional=True),
}


@dataclass(frozen=True)
class Sample:
    sample_id: str
    image_seed: int
    question: str
    answer_vector: tuple[float, ...] = field(default_factory=tuple)
    planted_expert: str | None = None

    def __post_init__(self):
        check_fields(self, _SAMPLE_FIELDS)


# Blocks of at least this many rows hash their seeds together (`_streams`).
# That costs about 110 µs a call, then saves about 15 µs a row over
# np.random.default_rng: timing base_features plus expert_features in 25
# alternating runs (desk registry, 2-core host), the block was faster 3 times
# at 6 rows, 17 at 7 and 22 at 8. The one-row calls of `mova fuse` and the
# training runner stay on default_rng.
_BLOCK_SEEDING_ROWS = 8

# numpy's SeedSequence (NEP 19), whose algorithm numpy fixes so that seeded
# streams stay the same across versions: the entropy's 32-bit words are mixed
# into a pool of 4, which is hashed out as the 4 uint64 words that seed PCG64.
_POOL_WORDS = 4
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (initial constant, multiplier) of the pool's hashmix
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # the same for generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_OTHERS = [np.array([d for d in range(_POOL_WORDS) if d != s]) for s in range(_POOL_WORDS)]
_TWICE = np.arange(2 * _POOL_WORDS) % _POOL_WORDS  # generate_state cycles the pool for 8 uint32 words


@functools.cache
def _hash_constants(start: int, multiplier: int, count: int) -> np.ndarray:
    """The first `count` constants of a hashmix chain, start * multiplier**i modulo
    2**32; read-only, since every caller shares the cached array."""
    constants = np.array([start * pow(multiplier, i, 2**32) % 2**32 for i in range(count)], dtype=np.uint32)
    constants.flags.writeable = False
    return constants


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of column i with the i-th of consecutive calls: xor by
    constants[i], multiply by constants[i + 1], then xor-shift."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ values >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool word x with hashed word y."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> _SHIFT


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of an (n, L >= 4)
    uint32 block of entropy words. Shorter entropy is zero-padded to 4 words first,
    as SeedSequence pads its pool."""
    words = entropy.shape[1]
    a = _hash_constants(*_HASH_A, _POOL_WORDS * words + 1)  # one hashmix call each, in call order
    with np.errstate(over="ignore"):  # the arithmetic wraps modulo 2**32
        pool = _hashmix(entropy[:, :_POOL_WORDS], a[: _POOL_WORDS + 1])
        for src, others in enumerate(_OTHERS):  # each other word mixes in src's hash
            k = _POOL_WORDS + 3 * src
            pool[:, others] = _mix(pool[:, others], _hashmix(pool[:, src, None], a[k : k + 4]))
        for src in range(_POOL_WORDS, words):  # every word mixes in each entropy word past the pool's
            k = _POOL_WORDS * src
            pool = _mix(pool, _hashmix(entropy[:, src, None], a[k : k + _POOL_WORDS + 1]))
        state = _hashmix(pool[:, _TWICE], _hash_constants(*_HASH_B, _TWICE.size + 1))
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_state() -> type:
    """An ISeedSequence that hands PCG64 its 4 seed words, computed in advance.
    Made on first use: numpy loads numpy.random only when it is first used, and
    importing it costs about 18 ms and 6 MB."""

    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedState


def _words(n: int) -> list[int]:
    """n's little-endian 32-bit words, as SeedSequence reads an int: [0] for 0."""
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def _streams(
    prefix: tuple[int, ...], image_seeds: Sequence[int]
) -> Iterator[tuple[int, np.random.Generator]]:
    """(r, np.random.default_rng([*prefix, image_seeds[r]])) for every row r, bit
    for bit, one stream alive at a time. A block of _BLOCK_SEEDING_ROWS or more
    rows hashes its seeds together, one group per entropy length, and yields the
    rows group by group; a smaller block, or one with a negative seed (numpy's
    error), is seeded a row at a time, in order."""
    seeds = [int(s) for s in image_seeds]
    if len(seeds) < _BLOCK_SEEDING_ROWS or min(seeds) < 0:
        for r, seed in enumerate(seeds):
            yield r, np.random.default_rng([*prefix, seed])
        return
    head = [word for part in prefix for word in _words(part)]
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}  # padded length -> (rows, entropy)
    for r, seed in enumerate(seeds):
        entropy = head + _words(seed)
        entropy += [0] * (_POOL_WORDS - len(entropy))
        rows, block = groups.setdefault(len(entropy), ([], []))
        rows.append(r)
        block.append(entropy)
    seeded = _seed_state()
    for rows, block in groups.values():
        for r, state in zip(rows, _seed_states(np.array(block, dtype=np.uint32))):
            yield r, np.random.Generator(np.random.PCG64(seeded(state)))


def base_features(registry: ExpertRegistry, image_seeds: Sequence[int]) -> np.ndarray:
    """Seeded standard-normal stand-ins for the base encoder feature: a read-only
    (n, C, H, W) block whose row r belongs to image_seeds[r]."""
    block = np.empty((len(image_seeds),) + registry.base_shape)
    for r, rng in _streams((_BASE_FEATURE_SALT,), image_seeds):
        rng.standard_normal(out=block[r])
    return _frozen(block)


def expert_features(
    spec: ExpertSpec, image_seeds: Sequence[int], planted: Mapping[int, Sequence[float]]
) -> np.ndarray:
    """Seeded expert features: a read-only (n, C, H, W) block whose row r belongs
    to image_seeds[r]. Planting row r overwrites the spatial means of its leading
    channels with planted[r]; rows missing from `planted` are not planted."""
    block = np.empty((len(image_seeds),) + spec.shape)
    distractor = np.empty((len(image_seeds), spec.channels))
    for r, rng in _streams((_EXPERT_FEATURE_SALT, int(spec.seed)), image_seeds):
        rng.standard_normal(out=block[r])
        rng.standard_normal(out=distractor[r])
    block += _DISTRACTOR_SCALE * distractor[:, :, None, None]
    for r in sorted(planted):
        answer = np.asarray(planted[r], dtype=np.float64)
        if answer.size > spec.channels:
            raise CapacityError(
                f"answer vector of length {answer.size} does not fit "
                f"{spec.channels} channels of expert {spec.name!r}"
            )
        lead = block[r, : answer.size]
        lead -= lead.mean(axis=(1, 2), keepdims=True)
        lead += answer[:, None, None]
    return _frozen(block)


def _frozen(block: np.ndarray) -> np.ndarray:
    """The block, read-only; a non-finite value raises FeatureMap's NumericError."""
    as_finite_array(block, "feature map")
    block.flags.writeable = False
    return block


def generate_base_feature(registry: ExpertRegistry, image_seed: int) -> FeatureMap:
    """The base feature of one image: row 0 of base_features."""
    return FeatureMap(base_features(registry, (image_seed,))[0])


def generate_expert_feature(
    spec: ExpertSpec,
    image_seed: int,
    planted: bool = False,
    answer_vector=(),
) -> FeatureMap:
    """The expert feature of one image, planted with answer_vector when `planted`:
    row 0 of expert_features."""
    return FeatureMap(expert_features(spec, (image_seed,), {0: answer_vector} if planted else {})[0])


# ---------------------------------------------------------------------------
# registry serialization (experts.json)


_BASE_KEYS = ("channels", "height", "width")


def save_registry(registry: ExpertRegistry, path) -> None:
    doc = {
        "base": dict(zip(_BASE_KEYS, registry.base_shape)),
        "experts": [asdict(e) for e in registry.experts],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_registry(path) -> ExpertRegistry:
    """Read experts.json; every rejection names the file and the field."""
    raw = read_json_object(path, "registry")
    try:
        unknown = set(raw) - {"base", "experts"} | set(raw["base"]) - set(_BASE_KEYS)
        if unknown:
            raise ValidationError(f"unknown keys {sorted(unknown)}")
        return ExpertRegistry(
            experts=tuple(ExpertSpec(**item) for item in raw["experts"]),
            **{f"base_{key}": value for key, value in raw["base"].items()},
        )
    except (AttributeError, KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed registry field ({exc})") from exc


_DEFAULT_POOL = [
    ("dinov2", "Self-supervised visual features for grounding and localizing objects."),
    ("codetr", "Object detection features for finding and counting distinct objects."),
    ("sam", "Segmentation features for precise object boundaries and region masks."),
    ("pix2struct", "Text recognition features for reading scene text and documents."),
    ("deplot", "Chart understanding features for plots, axes, and data tables."),
    ("vary", "Document parsing features for dense text pages and formatted charts."),
    ("biomedclip", "Biomedical image-text features for medical and anatomical imagery."),
]


def default_registry() -> ExpertRegistry:
    """The shipped desk-scale pool: 7 experts at 16x4x4 over an 8x8x8 base."""
    experts = tuple(
        ExpertSpec(
            letter=string.ascii_uppercase[i],
            name=name,
            description=description,
            channels=16,
            height=4,
            width=4,
            seed=101 + i,
        )
        for i, (name, description) in enumerate(_DEFAULT_POOL)
    )
    return ExpertRegistry(experts=experts, base_channels=8, base_height=8, base_width=8)
