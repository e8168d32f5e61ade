import json

import numpy as np
import pytest

from mova.errors import ValidationError
from mova.experts import default_registry
from mova.numerics.ops import global_avg_pool
from mova.routing_data import (
    LossRecord,
    RoutingAnnotation,
    build_annotations,
    construct_routing_set,
    generate_synthetic_corpus,
    load_annotations,
    load_ground_truth,
    load_loss_records,
    load_samples,
    score_routing_accuracy,
)


@pytest.fixture
def registry():
    return default_registry()


class TestConstructRoutingSet:
    def test_no_expert_beats_base(self, registry):
        record = LossRecord("s", 2.0, (2.0, 2.5, 3.0, 2.0, 2.1, 2.2, 4.0))
        assert construct_routing_set(record, registry).experts == ()

    def test_cap_keeps_smallest_losses(self, registry):
        record = LossRecord("s", 2.0, (1.5, 1.9, 1.99, 1.0, 2.3, 2.1, 2.0))
        annotation = construct_routing_set(record, registry, cap=3)
        names = [registry.experts[i].name for i in (3, 0, 1)]
        assert list(annotation.experts) == names

    def test_seven_way_tie_breaks_by_registry_index(self, registry):
        record = LossRecord("s", 2.0, (1.0,) * 7)
        annotation = construct_routing_set(record, registry, cap=3)
        assert list(annotation.experts) == [registry.experts[i].name for i in (0, 1, 2)]

    def test_strict_inequality_excludes_equal_loss(self, registry):
        record = LossRecord("s", 1.0, (1.0, 0.999, 1.001, 1.0, 1.0, 1.0, 1.0))
        annotation = construct_routing_set(record, registry)
        assert list(annotation.experts) == ["codetr"]

    def test_rejects_negative_losses(self):
        with pytest.raises(ValidationError):
            LossRecord("s", -1.0, (0.5,))

    def test_rejects_wrong_vector_length(self, registry):
        record = LossRecord("s", 2.0, (1.0,) * 8)
        with pytest.raises(ValidationError):
            construct_routing_set(record, registry)


class TestBuildAnnotations:
    def write_losses(self, path, rows):
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_one_line_per_record_in_order(self, registry, tmp_path):
        losses = tmp_path / "losses.jsonl"
        self.write_losses(
            losses,
            [
                {"sample_id": f"s{i}", "base_loss": 2.0, "expert_losses": [1.0 + i] * 7}
                for i in range(3)
            ],
        )
        out = tmp_path / "routing.jsonl"
        assert build_annotations(losses, registry, 3, out) == 3
        annotations = load_annotations(out)
        assert [a.sample_id for a in annotations] == ["s0", "s1", "s2"]

    def test_wrong_length_names_line(self, registry, tmp_path):
        losses = tmp_path / "losses.jsonl"
        self.write_losses(
            losses,
            [
                {"sample_id": "s0", "base_loss": 2.0, "expert_losses": [1.0] * 7},
                {"sample_id": "s1", "base_loss": 2.0, "expert_losses": [1.0] * 8},
            ],
        )
        with pytest.raises(ValidationError, match=":2"):
            build_annotations(losses, registry, 3, tmp_path / "routing.jsonl")
        # Malformed records name their line in every loss reader.
        good = json.dumps({"sample_id": "s0", "base_loss": 2.0, "expert_losses": [1.0] * 7})
        for bad in (
            '{"sample_id": "s1", "base_loss": "abc", "expert_losses": [1, 1, 1, 1, 1, 1, 1]}',
            '{"sample_id": "s1", "expert_losses": [1, 1, 1, 1, 1, 1, 1]}',
            '{"sample_id": "s1", "base_loss": 2.0, "expert_losses": 3}',
            '{"sample_id": "s1", "base_loss": 2.0',
            '{"sample_id": "s1", "base_loss": -1.0, "expert_losses": [1, 1, 1, 1, 1, 1, 1]}',
            # No value is converted from another JSON type.
            '{"sample_id": "s1", "base_loss": "0.5", "expert_losses": [1, 1, 1, 1, 1, 1, 1]}',
            '{"sample_id": "s1", "base_loss": true, "expert_losses": [1, 1, 1, 1, 1, 1, 1]}',
            '{"sample_id": "s1", "base_loss": 2.0, "expert_losses": "0123456"}',
        ):
            losses.write_text(good + "\n" + bad + "\n")
            for read in (
                load_loss_records,
                lambda path: build_annotations(path, registry, 3, tmp_path / "routing.jsonl"),
            ):
                with pytest.raises(ValidationError, match=r"losses\.jsonl:2: malformed"):
                    read(losses)
        # An experts string is not split into characters; a repeated expert is rejected.
        routing = tmp_path / "routing.jsonl"
        for experts in ("sam", ["sam", "sam"], [3]):
            routing.write_text(json.dumps({"sample_id": "cli", "experts": experts}) + "\n")
            with pytest.raises(ValidationError, match=r"routing\.jsonl:1: malformed annotation"):
                load_annotations(routing)
        truth = tmp_path / "ground_truth.jsonl"
        for bad in ({"sample_id": "s0", "planted": 3}, {"sample_id": "s0", "planted": "sam", "x": 1}):
            truth.write_text(json.dumps(bad) + "\n")
            with pytest.raises(ValidationError, match=r"ground_truth\.jsonl:1: malformed ground truth"):
                load_ground_truth(truth)
        # A record its own type rejects names its line too, as does a value of
        # the wrong JSON type or an unknown key.
        samples = tmp_path / "samples.jsonl"
        sample = '{"sample_id": "s0", "image_seed": 1, "question": "q", "answer_vector": [1.5]'
        for bad in (
            json.dumps({"sample_id": "s0", "image_seed": -1, "question": "q", "answer_vector": []}),
            sample.replace('"image_seed": 1', '"image_seed": 1.7') + "}",
            sample.replace('"image_seed": 1', '"image_seed": true') + "}",
            sample.replace("[1.5]", "[NaN]") + "}",
            sample.replace("[1.5]", '["1.5"]') + "}",
            sample.replace('"s0"', "7") + "}",
            sample + ', "answer": [1.5]}',
        ):
            samples.write_text(bad + "\n")
            with pytest.raises(ValidationError, match=r"samples\.jsonl:1: malformed sample"):
                load_samples(samples)

    def test_duplicate_sample_id_names_line(self, registry, tmp_path):
        losses = tmp_path / "losses.jsonl"
        self.write_losses(
            losses,
            [
                {"sample_id": "dup", "base_loss": 2.0, "expert_losses": [1.0] * 7},
                {"sample_id": "dup", "base_loss": 2.0, "expert_losses": [1.0] * 7},
            ],
        )
        with pytest.raises(ValidationError, match=":2"):
            build_annotations(losses, registry, 3, tmp_path / "routing.jsonl")
        with pytest.raises(ValidationError, match=":2: duplicate"):
            load_loss_records(losses)
        routing = tmp_path / "routing.jsonl"
        routing.write_text(
            "".join(
                json.dumps({"sample_id": "cli", "experts": [name]}) + "\n"
                for name in ("dinov2", "sam")
            )
        )
        with pytest.raises(ValidationError, match=r"routing\.jsonl:2: .*duplicate"):
            load_annotations(routing)
        # Two samples under one id would share the first one's cached features.
        samples = tmp_path / "samples.jsonl"
        self.write_losses(
            samples,
            [
                {"sample_id": "s00000", "image_seed": seed, "question": "q", "answer_vector": [0.5]}
                for seed in (1, 2)
            ],
        )
        with pytest.raises(ValidationError, match=r"samples\.jsonl:2: .*duplicate"):
            load_samples(samples)

    def test_regeneration_is_byte_identical(self, registry, tmp_path):
        losses = tmp_path / "losses.jsonl"
        rng = np.random.default_rng(4)
        self.write_losses(
            losses,
            [
                {
                    "sample_id": f"s{i}",
                    "base_loss": float(rng.random() * 2),
                    "expert_losses": [float(v) for v in rng.random(7) * 2],
                }
                for i in range(20)
            ],
        )
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        build_annotations(losses, registry, 3, a)
        build_annotations(losses, registry, 3, b)
        assert a.read_bytes() == b.read_bytes()


class TestScoreRoutingAccuracy:
    def test_perfect_recovery(self):
        annotations = [RoutingAnnotation(f"s{i}", (f"e{i}",)) for i in range(4)]
        truth = {f"s{i}": f"e{i}" for i in range(4)}
        assert score_routing_accuracy(annotations, truth) == 1.0

    def test_all_empty_annotations(self):
        annotations = [RoutingAnnotation(f"s{i}", ()) for i in range(4)]
        truth = {f"s{i}": "e" for i in range(4)}
        assert score_routing_accuracy(annotations, truth) == 0.0

    def test_id_mismatch_rejected(self):
        annotations = [RoutingAnnotation("s0", ("e",))]
        with pytest.raises(ValidationError):
            score_routing_accuracy(annotations, {"other": "e"})


class TestSyntheticCorpus:
    def test_noise_zero_planted_expert_has_strictly_smallest_loss(self, registry, tmp_path):
        generate_synthetic_corpus(registry, 40, seed=3, out_dir=tmp_path / "c")
        records = load_loss_records(tmp_path / "c" / "losses.jsonl")
        truth = load_ground_truth(tmp_path / "c" / "ground_truth.jsonl")
        for record in records:
            planted = registry.index_of(truth[record.sample_id])
            others = [
                loss for i, loss in enumerate(record.expert_losses) if i != planted
            ] + [record.base_loss]
            assert record.expert_losses[planted] < min(others)

    def test_same_seed_is_byte_identical(self, registry, tmp_path):
        generate_synthetic_corpus(registry, 12, seed=8, out_dir=tmp_path / "a")
        generate_synthetic_corpus(registry, 12, seed=8, out_dir=tmp_path / "b")
        for name in ("samples.jsonl", "losses.jsonl", "ground_truth.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_line_counts_match_sample_count(self, registry, tmp_path):
        generate_synthetic_corpus(registry, 17, seed=1, out_dir=tmp_path / "c")
        for name in ("samples.jsonl", "losses.jsonl", "ground_truth.jsonl"):
            lines = (tmp_path / "c" / name).read_text().strip().split("\n")
            assert len(lines) == 17

    def test_noise_zero_constructed_annotations_score_one(self, registry, tmp_path):
        generate_synthetic_corpus(registry, 30, seed=5, out_dir=tmp_path / "c")
        build_annotations(
            tmp_path / "c" / "losses.jsonl", registry, 3, tmp_path / "routing.jsonl"
        )
        accuracy = score_routing_accuracy(
            load_annotations(tmp_path / "routing.jsonl"),
            load_ground_truth(tmp_path / "c" / "ground_truth.jsonl"),
        )
        assert accuracy == 1.0

    def test_planted_pool_restricts_ground_truth(self, registry, tmp_path):
        generate_synthetic_corpus(
            registry, 20, seed=2, out_dir=tmp_path / "c", planted_pool=("sam", "vary")
        )
        truth = load_ground_truth(tmp_path / "c" / "ground_truth.jsonl")
        assert set(truth.values()) <= {"sam", "vary"}

    def test_samples_answers_match_pooled_planted_features(self, registry, tmp_path):
        from mova.experts import generate_expert_feature

        generate_synthetic_corpus(registry, 6, seed=9, out_dir=tmp_path / "c", answer_dim=3)
        for sample in load_samples(tmp_path / "c" / "samples.jsonl"):
            spec = registry.experts[registry.index_of(sample.planted_expert)]
            feature = generate_expert_feature(
                spec, sample.image_seed, planted=True, answer_vector=sample.answer_vector
            )
            pooled = global_avg_pool(feature)
            assert np.max(np.abs(pooled[:3] - np.asarray(sample.answer_vector))) < 1e-9

    def test_rejects_oversized_answer_dim(self, registry, tmp_path):
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(registry, 4, seed=0, out_dir=tmp_path / "c", answer_dim=17)
