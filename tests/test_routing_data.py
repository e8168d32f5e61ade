import json
import os

import numpy as np
import pytest

from mova import forked, routing_data
from mova.errors import CapacityError, MovaError, ValidationError
from mova.experts import Sample, default_registry, generate_base_feature, generate_expert_feature
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


def pooled_one_map_at_a_time(registry, samples, planted_idx, lo, hi):
    rows = samples[lo:hi]
    base = [global_avg_pool(generate_base_feature(registry, s.image_seed)) for s in rows]
    experts = [
        np.stack(
            [
                global_avg_pool(
                    generate_expert_feature(spec, s.image_seed, planted_idx[i] == j, s.answer_vector)
                )
                for i, s in enumerate(rows, start=lo)
            ]
        )
        for j, spec in enumerate(registry.experts)
    ]
    return np.stack(base), experts


# Samples per block at the desk registry: 64 of base features, 128 of expert features.
BASE_ROWS = routing_data.POOL_BLOCK_VALUES // (8 * 8 * 8)
EXPERT_ROWS = routing_data.POOL_BLOCK_VALUES // (16 * 4 * 4)


class TestPooledRows:
    """Pooling a block of samples at a time gives the bits of pooling one map at a time."""

    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 1)]
        + [(0, rows + d) for rows in (BASE_ROWS, EXPERT_ROWS) for d in (-1, 0, 1)]
        + [(37, 37 + 2 * EXPERT_ROWS + 5)],
    )
    @pytest.mark.parametrize("block_values", [routing_data.POOL_BLOCK_VALUES, 700])
    def test_rows_are_each_map_pooled_alone(self, registry, monkeypatch, lo, hi, block_values):
        """At 700 values a block holds one sample's base features or two of its expert features."""
        monkeypatch.setattr(routing_data, "POOL_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(lo + hi)
        samples = [
            Sample(f"s{i}", int(rng.integers(2**63)), "q", tuple(rng.standard_normal(3)))
            for i in range(hi)
        ]
        planted_idx = rng.integers(len(registry), size=hi)
        base, experts = routing_data._pooled_rows(registry, samples, planted_idx, lo, hi)
        base_1, experts_1 = pooled_one_map_at_a_time(registry, samples, planted_idx, lo, hi)
        assert base.tobytes() == base_1.tobytes()
        assert [e.tobytes() for e in experts] == [e.tobytes() for e in experts_1]

    def test_first_error_is_the_one_map_at_a_time_error(self, registry):
        """Expert 5 fails at sample 3 and expert 2 at sample 100: expert 2 comes first."""
        samples = [Sample(f"s{i}", i, "q", (0.5,) * (17 if i in (3, 100) else 2)) for i in range(130)]
        planted_idx = np.zeros(130, dtype=int)
        planted_idx[3], planted_idx[100] = 5, 2
        with pytest.raises(CapacityError) as blocks:
            routing_data._pooled_rows(registry, samples, planted_idx, 0, 130)
        with pytest.raises(CapacityError) as one:
            pooled_one_map_at_a_time(registry, samples, planted_idx, 0, 130)
        assert str(blocks.value) == str(one.value)
        assert registry.experts[2].name in str(one.value)


CORPUS_FILES = ("samples.jsonl", "losses.jsonl", "ground_truth.jsonl", "manifest.json")


def with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))


def counted_fork_map(monkeypatch):
    """Record the ranges of each fork_map call the corpus generator makes."""
    calls = []

    def fork_map(fn, ranges):
        calls.append(ranges)
        return forked.fork_map(fn, ranges)

    monkeypatch.setattr(routing_data, "fork_map", fork_map)
    return calls


class TestForkedCorpus:
    @pytest.mark.parametrize("planted_pool", ["vary", ("sam", "vary", "biomedclip")])
    @pytest.mark.parametrize("noise", [0.0, 0.5])
    @pytest.mark.parametrize("n", [512, 769, 1000])
    def test_bytes_do_not_depend_on_processes(self, registry, tmp_path, monkeypatch, n, noise, planted_pool):
        calls = counted_fork_map(monkeypatch)
        corpora = {}
        for cpus in (1, 2, 3):
            with_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            generate_synthetic_corpus(registry, n, seed=n, out_dir=out, noise_scale=noise, planted_pool=planted_pool)
            corpora[cpus] = [(out / name).read_bytes() for name in CORPUS_FILES]
        assert corpora[2] == corpora[1] and corpora[3] == corpora[1]
        # Each process pools at least 256 samples, in contiguous ranges.
        procs = min(3, n // 256)
        assert calls == [
            [(0, n // 2), (n // 2, n)],
            [(n * w // procs, n * (w + 1) // procs) for w in range(procs)],
        ]

    def test_fewer_than_512_samples_never_fork(self, registry, tmp_path, monkeypatch):
        calls = counted_fork_map(monkeypatch)
        with_cpus(monkeypatch, 3)
        generate_synthetic_corpus(registry, 511, seed=1, out_dir=tmp_path / "c")
        assert calls == []

    @pytest.mark.parametrize("kind", ["capacity", "unpicklable"])
    def test_child_error_is_the_serial_error(self, registry, tmp_path, monkeypatch, kind):
        """Samples from 700 on fail in expert 2; with 2 or 3 processes only a
        child pools them. An error pickle cannot carry keeps its text."""
        n = 1000
        generate_synthetic_corpus(registry, n, seed=4, out_dir=tmp_path / "good")
        failing = {s.image_seed for s in load_samples(tmp_path / "good" / "samples.jsonl")[700:]}

        class Unpicklable(Exception):  # a local class cannot be pickled
            pass

        error = CapacityError if kind == "capacity" else Unpicklable
        original = routing_data.expert_features

        def expert_features(spec, image_seeds, planted):
            for image_seed in image_seeds:
                if spec.name == registry.experts[2].name and image_seed in failing:
                    raise error(f"no feature for image {image_seed}")
            return original(spec, image_seeds, planted)

        monkeypatch.setattr(routing_data, "expert_features", expert_features)
        errors = {}
        for cpus in (1, 2, 3):
            with_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            with pytest.raises(Exception) as caught:
                generate_synthetic_corpus(registry, n, seed=4, out_dir=out)
            errors[cpus] = caught.value
            assert not out.exists()
        assert type(errors[1]) is error
        forked_type = CapacityError if kind == "capacity" else MovaError
        for cpus in (2, 3):
            assert type(errors[cpus]) is forked_type and str(errors[cpus]) == str(errors[1])

    def test_a_child_that_dies_is_one_error(self):
        def fn(lo, hi):
            if lo:
                os._exit(3)
            return lo

        with pytest.raises(MovaError, match="^a forked worker process exited$"):
            forked.fork_map(fn, [(0, 1), (1, 2), (2, 3)])
