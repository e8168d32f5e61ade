import dataclasses
import json

import numpy as np
import oracles
import pytest

from mova.errors import CapacityError, NumericError, ValidationError
from mova.experts import (
    _BLOCK_SEEDING_ROWS,
    ExpertRegistry,
    ExpertSpec,
    base_features,
    default_registry,
    expert_features,
    generate_base_feature,
    generate_expert_feature,
    load_registry,
    save_registry,
)
from mova.numerics.ops import global_avg_pool


@pytest.fixture
def registry():
    return default_registry()


class TestRegistry:
    def test_default_pool_is_seven_lettered_a_to_g(self, registry):
        assert len(registry) == 7
        assert [e.letter for e in registry.experts] == list("ABCDEFG")
        assert registry.experts[0].name == "dinov2"
        assert registry.experts[3].name == "pix2struct"

    def test_empty_expert_list_rejected(self):
        with pytest.raises(ValidationError):
            ExpertRegistry(experts=(), base_channels=8, base_height=8, base_width=8)

    def test_letter_gap_rejected(self):
        specs = (
            ExpertSpec("A", "one", "first expert", 4, 2, 2, 1),
            ExpertSpec("C", "two", "second expert", 4, 2, 2, 2),
        )
        with pytest.raises(ValidationError, match="two"):
            ExpertRegistry(experts=specs, base_channels=4, base_height=4, base_width=4)

    def test_duplicate_names_rejected(self):
        specs = (
            ExpertSpec("A", "same", "first", 4, 2, 2, 1),
            ExpertSpec("B", "same", "second", 4, 2, 2, 2),
        )
        with pytest.raises(ValidationError, match="duplicate"):
            ExpertRegistry(experts=specs, base_channels=4, base_height=4, base_width=4)

    def test_load_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "experts.json"
        path.write_text(json.dumps({"base": {"channels": 4}}))
        with pytest.raises(ValidationError):
            load_registry(path)

    def test_load_rejects_letter_gap_naming_expert(self, registry, tmp_path):
        path = tmp_path / "experts.json"
        save_registry(registry, path)
        raw = json.loads(path.read_text())
        raw["experts"][1]["letter"] = "Z"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="codetr"):
            load_registry(path)


class TestBaseFeature:
    def test_deterministic(self, registry):
        a = generate_base_feature(registry, 42)
        b = generate_base_feature(registry, 42)
        assert a.data.tobytes() == b.data.tobytes()

    def test_different_seeds_differ(self, registry):
        a = generate_base_feature(registry, 42)
        b = generate_base_feature(registry, 43)
        assert np.any(a.data != b.data)

    def test_shape_follows_registry(self, registry):
        assert generate_base_feature(registry, 0).shape == (8, 8, 8)


class TestExpertFeature:
    def test_deterministic(self, registry):
        spec = registry.experts[0]
        a = generate_expert_feature(spec, 7)
        b = generate_expert_feature(spec, 7)
        assert a.data.tobytes() == b.data.tobytes()

    def test_shape_follows_spec(self, registry):
        assert generate_expert_feature(registry.experts[0], 0).shape == (16, 4, 4)

    def test_planted_answer_recoverable_by_pooling(self, registry, rng):
        spec = registry.experts[2]
        answer = rng.standard_normal(5)
        feature = generate_expert_feature(spec, 11, planted=True, answer_vector=answer)
        pooled = global_avg_pool(feature)
        assert np.max(np.abs(pooled[:5] - answer)) < 1e-9

    def test_planting_changes_only_leading_channels(self, registry, rng):
        spec = registry.experts[2]
        answer = rng.standard_normal(3)
        plain = generate_expert_feature(spec, 11)
        planted = generate_expert_feature(spec, 11, planted=True, answer_vector=answer)
        assert np.array_equal(plain.data[3:], planted.data[3:])

    def test_answer_longer_than_channels_rejected(self, registry):
        spec = registry.experts[0]
        with pytest.raises(CapacityError, match=spec.name):
            generate_expert_feature(spec, 0, planted=True, answer_vector=np.ones(17))

    def test_unplanted_ignores_answer_vector(self, registry):
        spec = registry.experts[0]
        a = generate_expert_feature(spec, 3, planted=False, answer_vector=(1.0, 2.0))
        b = generate_expert_feature(spec, 3, planted=False)
        assert a.data.tobytes() == b.data.tobytes()


def two_shape_registry() -> ExpertRegistry:
    specs = (
        ExpertSpec("A", "wide", "first expert", 6, 3, 5, 11),
        ExpertSpec("B", "small", "second expert", 4, 2, 2, 12),
    )
    return ExpertRegistry(experts=specs, base_channels=4, base_height=6, base_width=2)


SEEDS = (5, 2**63 - 1, 0, 5, 917)

# Seeds at the edges of SeedSequence's 32-bit words: one, two, three and five words.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**130 + 7)
# Around the row count at which a block's seeds are hashed together.
BLOCK_SIZES = (1, _BLOCK_SEEDING_ROWS - 1, _BLOCK_SEEDING_ROWS, 130)


def mixed_seeds(size: int) -> list[int]:
    """`size` image seeds in a fixed shuffle: the edge seeds (all of them from
    7 rows on, the five-word one alone at 1 row), then ordinary ones."""
    rng = np.random.default_rng(size)
    seeds = (list(EDGE_SEEDS[::-1]) + [int(s) for s in rng.integers(2**63, size=size)])[:size]
    return [seeds[i] for i in rng.permutation(size)]


def with_seeds(registry: ExpertRegistry) -> list[ExpertSpec]:
    """The registry's experts, then its first expert with spec seeds 0 and 2**64 - 1."""
    return list(registry.experts) + [dataclasses.replace(registry.experts[0], seed=s) for s in (0, 2**64 - 1)]


def assert_expert_rows(spec: ExpertSpec, seeds, planted) -> np.ndarray:
    """expert_features' block, once each row is checked against the oracle and the one-map call."""
    block = expert_features(spec, seeds, planted)
    assert block.shape == (len(seeds),) + spec.shape
    for r, seed in enumerate(seeds):
        answer = planted.get(r)
        expected = oracles.expert_feature(spec, seed, answer)
        one = generate_expert_feature(
            spec, seed, planted=answer is not None, answer_vector=() if answer is None else answer
        )
        assert block[r].tobytes() == expected.tobytes() == one.data.tobytes()
    return block


class TestFeatureBlocks:
    """Row r of a block has the bits of the one map of image_seeds[r]."""

    @pytest.mark.parametrize("make_registry", [default_registry, two_shape_registry])
    def test_base_rows_are_the_seeded_maps(self, make_registry):
        registry = make_registry()
        for seeds in (SEEDS, *map(mixed_seeds, BLOCK_SIZES)):
            block = base_features(registry, seeds)
            assert block.shape == (len(seeds),) + registry.base_shape
            for row, seed in zip(block, seeds):
                assert row.tobytes() == oracles.base_feature(registry.base_shape, seed).tobytes()
                assert row.tobytes() == generate_base_feature(registry, seed).data.tobytes()

    @pytest.mark.parametrize("make_registry", [default_registry, two_shape_registry])
    def test_expert_rows_are_the_seeded_maps(self, make_registry, rng):
        """SEEDS' rows 1 and 3 are planted (row 3 with the same seed as unplanted
        row 0); a mixed block plants every third row."""
        registry = make_registry()
        for spec in with_seeds(registry):
            block = assert_expert_rows(spec, SEEDS, {1: rng.standard_normal(spec.channels), 3: (0.5, -2.0)})
            assert block[0].tobytes() != block[3].tobytes()
            for size in BLOCK_SIZES:
                answers = {r: rng.standard_normal(1 + r % spec.channels) for r in range(0, size, 3)}
                assert_expert_rows(spec, mixed_seeds(size), answers)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_a_negative_seed_is_numpys_error(self, registry, size):
        with pytest.raises(Exception) as numpy_error:
            np.random.default_rng([0, -1])
        seeds = mixed_seeds(size)[:-1] + [-1]
        with pytest.raises(type(numpy_error.value)):
            base_features(registry, seeds)
        with pytest.raises(type(numpy_error.value)):
            expert_features(registry.experts[0], seeds, {})

    def test_block_means_are_global_avg_pool(self, registry, rng):
        spec = registry.experts[4]
        answers = {r: rng.standard_normal(4) for r in range(0, len(SEEDS), 2)}
        blocks = [
            (base_features(registry, SEEDS), [generate_base_feature(registry, s) for s in SEEDS]),
            (
                expert_features(spec, SEEDS, answers),
                [generate_expert_feature(spec, s, r in answers, answers.get(r, ())) for r, s in enumerate(SEEDS)],
            ),
        ]
        for block, maps in blocks:
            means = block.mean(axis=(2, 3))
            assert means.tobytes() == np.stack([global_avg_pool(m) for m in maps]).tobytes()

    def test_blocks_are_read_only(self, registry):
        for block in (
            base_features(registry, SEEDS),
            expert_features(registry.experts[0], SEEDS, {2: (1.0,)}),
        ):
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0, 0, 0] = 1.0

    def test_oversize_planted_answer_is_the_one_map_error(self, registry):
        spec = registry.experts[0]
        with pytest.raises(CapacityError) as one:
            generate_expert_feature(spec, 2, planted=True, answer_vector=np.ones(17))
        with pytest.raises(CapacityError) as block:
            expert_features(spec, SEEDS, {0: np.ones(3), 2: np.ones(17)})
        assert str(block.value) == str(one.value) == (
            "answer vector of length 17 does not fit 16 channels of expert 'dinov2'"
        )

    def test_non_finite_answer_is_the_feature_map_error(self, registry):
        spec = registry.experts[0]
        with pytest.raises(NumericError) as one:
            generate_expert_feature(spec, 2, planted=True, answer_vector=(np.inf,))
        with pytest.raises(NumericError) as block:
            expert_features(spec, SEEDS, {4: (np.inf,)})
        assert str(block.value) == str(one.value) == "feature map contains non-finite values"
