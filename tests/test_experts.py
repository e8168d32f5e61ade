import json

import numpy as np
import oracles
import pytest

from mova.errors import CapacityError, NumericError, ValidationError
from mova.experts import (
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


class TestFeatureBlocks:
    """Row r of a block has the bits of the one map of image_seeds[r]."""

    @pytest.mark.parametrize("make_registry", [default_registry, two_shape_registry])
    def test_base_rows_are_the_seeded_maps(self, make_registry):
        registry = make_registry()
        block = base_features(registry, SEEDS)
        assert block.shape == (len(SEEDS),) + registry.base_shape
        for row, seed in zip(block, SEEDS):
            assert row.tobytes() == oracles.base_feature(registry.base_shape, seed).tobytes()
            assert row.tobytes() == generate_base_feature(registry, seed).data.tobytes()

    @pytest.mark.parametrize("make_registry", [default_registry, two_shape_registry])
    def test_expert_rows_are_the_seeded_maps(self, make_registry, rng):
        """Rows 1 and 3 are planted (row 3 with the same seed as unplanted row 0)."""
        registry = make_registry()
        for spec in registry.experts:
            planted = {1: rng.standard_normal(spec.channels), 3: (0.5, -2.0)}
            block = expert_features(spec, SEEDS, planted)
            assert block.shape == (len(SEEDS),) + spec.shape
            for r, seed in enumerate(SEEDS):
                answer = planted.get(r)
                expected = oracles.expert_feature(spec, seed, answer)
                one = generate_expert_feature(
                    spec, seed, planted=answer is not None, answer_vector=() if answer is None else answer
                )
                assert block[r].tobytes() == expected.tobytes() == one.data.tobytes()
            assert block[0].tobytes() != block[3].tobytes()

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
