import json

import numpy as np
import pytest

from mova.errors import CapacityError, ValidationError
from mova.experts import (
    ExpertRegistry,
    ExpertSpec,
    default_registry,
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
