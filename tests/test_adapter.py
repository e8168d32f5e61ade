import hashlib
import json
import os
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import oracles
from mova.adapter import network
from mova.adapter import params as params_module
from mova.adapter.config import AdapterConfig, desk_config, load_config, save_config
from mova.adapter.network import (
    ForwardInput,
    GateWeights,
    GatingInput,
    adapter_apply,
    build_forward_graph,
    extract_expert_knowledge,
    fuse,
    gate_weights,
    lift,
    transformer_block,
)
from mova.adapter.params import clone_params, init_params, load_params, named_arrays, save_params
from mova.adapter.text import encode_text
from mova.errors import (
    EmptySelectionError,
    FeatureMismatchError,
    ShapeError,
    ValidationError,
)
from mova.experts import (
    ExpertRegistry,
    ExpertSpec,
    Sample,
    default_registry,
    generate_base_feature,
    generate_expert_feature,
)
from mova.harness.train import _CorpusRunner
from mova.numerics import autodiff as ad
from mova.numerics.movt import load_tensor
from mova.numerics.ops import bilinear_interpolate
from mova.numerics.tensor import FeatureMap
from mova.routing import ExpertSelection

# SHA-256 of params.movt for init_params(desk_config(), default_registry()).
PINNED_PARAMS_SHA256 = "a2ff654e625c6322350109cab653efccbba48199bf472ca24cac85549fb0daf2"


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def config():
    return desk_config(seed=5)


@pytest.fixture
def params(config, registry):
    return init_params(config, registry, seed=11)


class TestEncodeText:
    def test_deterministic(self):
        a = encode_text("locate the red sign", 8)
        b = encode_text("locate the red sign", 8)
        assert a.values.tobytes() == b.values.tobytes()

    def test_empty_string_is_zero_vector(self):
        assert np.array_equal(encode_text("", 8).values, np.zeros(8))

    def test_distinct_questions_are_distinguishable(self):
        a = encode_text("locate the red sign", 32).values
        b = encode_text("read the chart values", 32).values
        assert float(a @ b) < 0.99

    def test_unit_norm(self):
        token = encode_text("a few words here", 16)
        assert abs(np.linalg.norm(token.values) - 1.0) < 1e-12


class TestAdapterConfig:
    def test_default_has_three_blocks(self, config):
        assert config.num_blocks == 3

    def test_json_roundtrip(self, config, tmp_path):
        path = tmp_path / "adapter.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_rejects_unknown_gating_mode(self):
        with pytest.raises(ValidationError):
            AdapterConfig(hidden_dim=8, text_dim=8, llm_dim=32, gating_mode="sparse")

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValidationError):
            AdapterConfig(hidden_dim=8, text_dim=8, llm_dim=32, heads=3)


class TestInitParams:
    def test_same_seed_is_bitwise_identical(self, config, registry):
        a = init_params(config, registry, seed=3)
        b = init_params(config, registry, seed=3)
        for (name_a, arr_a), (name_b, arr_b) in zip(named_arrays(a), named_arrays(b)):
            assert name_a == name_b
            assert arr_a.tobytes() == arr_b.tobytes()

    def test_biases_start_at_zero(self, params):
        for name, arr in named_arrays(params):
            if name.endswith(".bias") or name.endswith(".beta"):
                assert not arr.any(), name

    def test_weight_scale_follows_inverse_sqrt_fan_in(self, registry):
        # 1024-wide hidden: the projector input matrix is 1024x1024.
        from mova.experts import ExpertRegistry, ExpertSpec

        wide = ExpertRegistry(
            experts=(ExpertSpec("A", "only", "the only expert", 4, 2, 2, 1),),
            base_channels=1024,
            base_height=2,
            base_width=2,
        )
        cfg = AdapterConfig(
            hidden_dim=1024, text_dim=4, llm_dim=4, num_blocks=1,
            gating_hidden=4, ffn_expansion=1, seed=0,
        )
        p = init_params(cfg, wide, seed=9)
        std = float(p.projector_hidden.weight.std())
        assert abs(std - 1 / 32) < 0.2 / 32

    def test_extractor_count_is_pool_size_per_block(self, params, registry, config):
        for block in params.blocks:
            assert len(block.extractors) == len(registry)
        assert len(params.blocks) == config.num_blocks

    def test_hidden_dim_must_match_base_channels(self, registry):
        cfg = AdapterConfig(hidden_dim=16, text_dim=8, llm_dim=32)
        with pytest.raises(ValidationError):
            init_params(cfg, registry)


class TestExtractExpertKnowledge:
    def test_matching_size_feature_skips_resampling(self, params, registry, rng):
        cap = params.blocks[0].extractors["dinov2"]
        x = FeatureMap(rng.standard_normal((8, 4, 4)))
        feat = FeatureMap(rng.standard_normal((16, 4, 4)))
        out = extract_expert_knowledge(x, feat, cap)
        assert np.max(np.abs(out.data - oracles.extract(x.data, feat.data, cap))) < 1e-12

    def test_matches_composed_oracle(self, rng):
        from mova.adapter.params import CrossAttentionParams, LinearParams

        def lin(fan_in, fan_out, bias=True):
            return LinearParams(
                rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in),
                rng.standard_normal(fan_out) * 0.1 if bias else None,
            )

        for _ in range(20):
            cap = CrossAttentionParams(
                query=lin(4, 4), key=lin(6, 4, bias=False), value=lin(6, 4), out=lin(4, 4)
            )
            x = FeatureMap(rng.standard_normal((4, 3, 3)))
            feat = FeatureMap(rng.standard_normal((6, 2, 2)))
            out = extract_expert_knowledge(x, feat, cap)
            assert np.max(np.abs(out.data - oracles.extract(x.data, feat.data, cap))) < 1e-10

    def test_channel_mismatch_is_shape_error(self, params, rng):
        cap = params.blocks[0].extractors["dinov2"]
        with pytest.raises(ShapeError):
            extract_expert_knowledge(
                FeatureMap(rng.standard_normal((5, 4, 4))),
                FeatureMap(rng.standard_normal((16, 4, 4))),
                cap,
            )


class TestGateWeights:
    def gating_input(self, config, question="which expert?"):
        rng = np.random.default_rng(15)
        return GatingInput(
            visual_token=rng.standard_normal(config.hidden_dim),
            text_token=encode_text(question, config.text_dim),
        )

    def test_single_expert_gets_weight_one(self, params, config):
        out = gate_weights(self.gating_input(config), ExpertSelection((2,)), params.blocks[0].gating)
        assert out.weights.shape == (1,)
        assert out.weights[0] == 1.0

    def test_zeroed_mlp_gives_uniform(self, params, config):
        gating = clone_params(params).blocks[0].gating
        for p in (gating.hidden, gating.logits):
            p.weight[:] = 0.0
            p.bias[:] = 0.0
        out = gate_weights(self.gating_input(config), ExpertSelection((0, 3, 5)), gating)
        assert np.max(np.abs(out.weights - 1 / 3)) < 1e-15

    def test_uniform_mode_is_exactly_one_over_k(self, params, config):
        out = gate_weights(
            self.gating_input(config), ExpertSelection((1, 4, 6)), params.blocks[0].gating, "uniform"
        )
        assert np.array_equal(out.weights, np.full(3, 1 / 3))

    def test_empty_selection_is_routed_empty_error(self, params, config):
        with pytest.raises(EmptySelectionError):
            gate_weights(self.gating_input(config), ExpertSelection(()), params.blocks[0].gating)

    def test_gate_weights_type_validates_simplex(self):
        with pytest.raises(ValidationError):
            GateWeights(np.array([0.7, 0.7]))
        with pytest.raises(ValidationError):
            GateWeights(np.array([1.0, 0.0]))


class TestFuse:
    def maps(self, rng, k, shape=(8, 4, 4)):
        return [FeatureMap(rng.standard_normal(shape)) for _ in range(k)]

    def test_single_map_is_bitwise_identity(self, rng):
        (m,) = self.maps(rng, 1)
        out = fuse([m], GateWeights(np.array([1.0])))
        assert out.data.tobytes() == m.data.tobytes()

    def test_uniform_weights_give_elementwise_mean(self, rng):
        maps = self.maps(rng, 4)
        out = fuse(maps, GateWeights(np.full(4, 0.25)))
        mean = np.mean([m.data for m in maps], axis=0)
        assert np.max(np.abs(out.data - mean)) < 1e-15

    def test_matches_explicit_summation_oracle(self, rng):
        maps = self.maps(rng, 3)
        weights = np.array([0.2, 0.5, 0.3])
        out = fuse(maps, GateWeights(weights))
        expected = np.zeros((8, 4, 4))
        for w, m in zip(weights, maps):
            expected = expected + w * m.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_mismatched_shapes_rejected(self, rng):
        a = FeatureMap(rng.standard_normal((2, 2, 2)))
        b = FeatureMap(rng.standard_normal((2, 3, 2)))
        with pytest.raises(ShapeError):
            fuse([a, b], GateWeights(np.array([0.5, 0.5])))


class TestTransformerBlock:
    def test_residual_identity_when_update_paths_zeroed(self, params, rng):
        tp = clone_params(params).blocks[1].transformer
        tp.attn_out.weight[:] = 0.0
        tp.attn_out.bias[:] = 0.0
        tp.ffn_out.weight[:] = 0.0
        tp.ffn_out.bias[:] = 0.0
        x = FeatureMap(rng.standard_normal((8, 4, 4)))
        out = transformer_block(x, tp)
        # Both update paths add zero, so the block is its two norms applied to x.
        once = oracles.layer_norm(oracles.tokens_of(x.data), tp.norm_attn.gamma, tp.norm_attn.beta)
        twice = oracles.layer_norm(once, tp.norm_ffn.gamma, tp.norm_ffn.beta)
        assert np.max(np.abs(out.tokens() - twice)) <= 1e-12

    def test_shape_preserved(self, params, rng):
        x = FeatureMap(rng.standard_normal((8, 6, 4)))
        assert transformer_block(x, params.blocks[0].transformer).shape == (8, 6, 4)

    def test_matches_composed_oracle(self, params, rng):
        tp = params.blocks[2].transformer
        for _ in range(10):
            x = FeatureMap(rng.standard_normal((8, 3, 3)))
            out = transformer_block(x, tp)
            assert np.max(np.abs(out.data - oracles.transformer(x.data, tp))) < 1e-10


class TestAdapterForward:
    # 16- and 6-channel experts with spatial shapes 4x4 (the base's), 3x5 and 6x6.
    MIXED = (
        ExpertSpec("A", "wide", "a wide expert", 16, 4, 4, 1),
        ExpertSpec("B", "narrow", "a narrow expert", 6, 3, 5, 2),
        ExpertSpec("C", "wider", "a second wide expert", 16, 6, 6, 3),
    )

    def features(self, registry, image_seed=42, planted=None, answer=()):
        return {
            spec.name: generate_expert_feature(
                spec, image_seed, planted=(spec.name == planted), answer_vector=answer
            )
            for spec in registry.experts
        }

    def test_desk_output_shape(self, params, config, registry):
        base = generate_base_feature(registry, 42)
        out = adapter_apply(
            base, self.features(registry), ExpertSelection((0, 3)), "read it", params, config
        ).tokens
        assert out.shape == (16, 32)

    def test_matches_full_stack_oracle(self, params, config, registry):
        base = generate_base_feature(registry, 7)
        feats = self.features(registry, image_seed=7)
        selection = ExpertSelection((0, 3))
        question = "where is the planted signal?"
        out = adapter_apply(base, feats, selection, question, params, config).tokens
        expected = oracles.adapter_tokens(
            base.data,
            {name: fm.data for name, fm in feats.items()},
            selection.indices,
            encode_text(question, config.text_dim).values,
            params,
        )
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_gate_summary_covers_selection_per_block(self, params, config, registry):
        base = generate_base_feature(registry, 42)
        result = adapter_apply(
            base, self.features(registry), ExpertSelection((1, 4)), "q", params, config
        )
        assert len(result.gate_weights) == config.num_blocks
        for gate in result.gate_weights:
            assert gate.k == 2

    def test_block_node_count_does_not_grow_with_k(self, params, config, registry):
        base = generate_base_feature(registry, 42)
        feats = self.features(registry)

        def non_leaf_nodes(k, num_blocks):
            trimmed = replace(params, blocks=params.blocks[:num_blocks])
            lifted, _ = lift(trimmed, {n for n, _ in named_arrays(trimmed)})
            sample = ForwardInput(base, feats, ExpertSelection(tuple(range(k))), "q")
            out, _ = build_forward_graph([sample], lifted, replace(config, num_blocks=num_blocks))
            seen, stack = set(), [out]
            while stack:
                node = stack.pop()
                if id(node) not in seen and node._parents:
                    seen.add(id(node))
                    stack.extend(node._parents)
            return len(seen)

        # The first block reads the constant base tokens, so its gather of them
        # over the pairs is a constant at every K; later blocks skip that gather
        # only at K=1, where the pairs are the batch rows.
        assert len({non_leaf_nodes(k, 1) for k in (1, 2, 3, 7)}) == 1
        assert len({non_leaf_nodes(k, 3) for k in (2, 3, 7)}) == 1

    def test_two_channel_widths_match_one_expert_at_a_time(self):
        # Routed so the channel widths alternate: three key/value runs.
        registry = ExpertRegistry(self.MIXED, 8, 4, 4)
        config = desk_config(seed=5)
        params = init_params(config, registry, seed=11)
        base = generate_base_feature(registry, 42)
        feats = self.features(registry)
        selection = ExpertSelection((0, 1, 2))
        question = "read the wide and the narrow"
        result = adapter_apply(base, feats, selection, question, params, config)

        text = encode_text(question, config.text_dim)
        x = base
        for block, gate in zip(params.blocks, result.gate_weights, strict=True):
            conditional = [extract_expert_knowledge(x, feats[s.name], block.extractors[s.name])
                           for s in self.MIXED]
            weights = gate_weights(GatingInput(x.tokens().mean(axis=0), text), selection, block.gating)
            assert np.max(np.abs(gate.weights - weights.weights)) < 1e-10
            x = transformer_block(fuse(conditional, weights), block.transformer)
        xt = x.tokens()
        for reducer in params.reducers:
            xt = xt + oracles.linear(oracles.gelu(oracles.linear(xt, reducer.fc1)), reducer.fc2)
        pooled = oracles.tokens_of(oracles.pool_2x(oracles.map_of(xt, x.height, x.width)))
        hidden = oracles.gelu(oracles.linear(pooled, params.projector_hidden))
        expected = oracles.linear(hidden, params.projector_out)
        assert np.max(np.abs(result.tokens - expected)) < 1e-10

    def test_grouped_resize_matches_resizing_each_feature_alone(self, monkeypatch):
        # Expert C is routed by four samples, and sample 3 hands it a 5x7 feature.
        registry = ExpertRegistry(self.MIXED, 8, 4, 4)
        config = desk_config(seed=5)
        params = init_params(config, registry, seed=11)
        lifted, _ = lift(params)
        batch, presized = [], []
        for seed, indices in enumerate(((2, 0), (2,), (), (1, 2), (2, 1))):
            feats = self.features(registry, image_seed=seed)
            if seed == 3:
                feats["wider"] = FeatureMap(np.random.default_rng(seed).standard_normal((16, 5, 7)))
            sample = ForwardInput(
                generate_base_feature(registry, seed), feats, ExpertSelection(indices), f"q{seed}"
            )
            batch.append(sample)
            alone = {n: bilinear_interpolate(f, 4, 4) for n, f in feats.items()}
            presized.append(replace(sample, expert_features=alone))

        shapes = []

        def counting(f, out_h, out_w):
            shapes.append(f.shape)
            return bilinear_interpolate(f, out_h, out_w)

        monkeypatch.setattr(network, "bilinear_interpolate", counting)
        out, gates = build_forward_graph(batch, lifted, config)
        # One call per routed (expert, input shape), its samples stacked on channels.
        assert sorted(shapes) == sorted([(16, 4, 4), (12, 3, 5), (48, 6, 6), (16, 5, 7)])
        # Features resized one at a time beforehand give the same bits.
        ref, ref_gates = build_forward_graph(presized, lifted, config)
        assert out.value.tobytes() == ref.value.tobytes()
        for gate, ref_gate in zip(gates, ref_gates, strict=True):
            assert gate.value.tobytes() == ref_gate.value.tobytes()
        # A batch of one is bitwise adapter_apply; a larger batch's GEMMs round
        # differently from a single sample's in the last bits.
        for row, sample in enumerate(batch):
            alone = adapter_apply(
                sample.base, sample.expert_features, sample.selection, sample.question,
                params, config,
            )
            one, _ = build_forward_graph([sample], lifted, config)
            assert one.value[0].tobytes() == alone.tokens.tobytes()
            assert np.max(np.abs(out.value[row] - alone.tokens)) <= 1e-12
            for gate, weights in zip(gates, alone.gate_weights):
                k = sample.selection.k
                assert np.max(np.abs(gate.value[row, :k] - weights.weights)) <= 1e-12

    def test_missing_feature_names_expert(self, params, config, registry):
        base = generate_base_feature(registry, 42)
        feats = self.features(registry)
        del feats["pix2struct"]
        with pytest.raises(FeatureMismatchError, match="pix2struct"):
            adapter_apply(base, feats, ExpertSelection((0, 3)), "q", params, config)

    def test_odd_spatial_extent_rejected(self, params, config, registry, rng):
        base = FeatureMap(rng.standard_normal((8, 7, 8)))
        with pytest.raises(ShapeError):
            adapter_apply(base, {}, ExpertSelection(()), "q", params, config)


class TestLiftedOnce:
    """lift keeps one forward-only lift, of the last params object lifted so, and
    adapter_apply serves through it; the lifted leaves are read-only views of the
    object's arrays."""

    SELECTION = ExpertSelection((1, 4, 6))

    def request(self, params, config, registry):
        base = generate_base_feature(registry, 42)
        feats = {spec.name: generate_expert_feature(spec, 42) for spec in registry.experts}
        return adapter_apply(base, feats, self.SELECTION, "q", params, config).tokens

    def test_in_place_writes_are_seen(self, params, config, registry):
        params = clone_params(params)
        before = self.request(params, config, registry)
        params.blocks[1].extractors["sam"].value.weight[...] = 0.0
        params.projector_out.bias[...] += 0.5
        after = self.request(params, config, registry)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == self.request(clone_params(params), config, registry).tobytes()

    def test_another_params_object_gets_its_own_view(self, params, config, registry):
        other = clone_params(params)
        other.projector_out.weight[...] *= 2.0
        first = self.request(params, config, registry)
        assert self.request(other, config, registry).tobytes() == (2.0 * first).tobytes()
        assert self.request(params, config, registry).tobytes() == first.tobytes()

    def test_a_write_through_the_view_raises(self, params):
        """A forward-only lift is kept for its object; its leaves raise on a
        write and see an in-place write to the object's arrays."""
        params = clone_params(params)
        lifted, tracked = lift(params)
        assert tracked == {} and lift(params)[0] is lifted
        with pytest.raises(ValueError, match="read-only"):
            lifted.projector_out.weight.value[0, 0] = 1.0
        params.projector_out.weight[0, 0] = 7.0
        assert lift(params)[0].projector_out.weight.value[0, 0] == 7.0

    def test_each_object_gets_its_own_lift_and_a_trainable_lift_is_not_kept(self, params):
        first, second = clone_params(params), clone_params(params)
        lifted = lift(first)[0]
        other = lift(second)[0]
        assert other is not lifted and lift(second)[0] is other
        assert other.projector_out.weight.value.base is second.projector_out.weight
        trainable, tracked = lift(second, {"projector.out.weight"})
        assert list(tracked) == ["projector.out.weight"]
        assert trainable.projector_out.weight is tracked["projector.out.weight"]
        assert trainable is not other and lift(second, {"projector.out.weight"})[0] is not trainable
        assert lift(second)[0] is other
        third = clone_params(params)
        trainable = lift(third, {"projector.out.weight"})[0]
        assert lift(third)[0] is not trainable
        assert not lift(third)[0].projector_out.weight.requires_grad

    def test_requests_lift_once_with_a_pinned_node_count(self, params, config, registry, monkeypatch):
        """The count guard: with one params object only the first request walks
        its tensors, and a K=3 request builds exactly 108 nodes, none of them a
        lifted leaf."""
        counts = {"visit": 0, "nodes": 0}
        original_visit, original_init = network.visit, ad.Node.__init__

        def counting_visit(*args, **kwargs):
            counts["visit"] += 1
            return original_visit(*args, **kwargs)

        def counting_init(node, *args, **kwargs):
            counts["nodes"] += 1
            original_init(node, *args, **kwargs)

        monkeypatch.setattr(network, "visit", counting_visit)
        monkeypatch.setattr(ad.Node, "__init__", counting_init)
        params = clone_params(params)  # an object lift has not kept
        per_request = []
        for _ in range(3):
            before = counts["nodes"]
            self.request(params, config, registry)
            per_request.append(counts["nodes"] - before)
        assert counts["visit"] == 1
        assert per_request[0] == 108 + len(named_arrays(params))
        assert per_request[1:] == [108, 108]


class TestFrozenParams:
    def test_rebinding_a_leaf_block_reducer_or_extractor_raises(self, params):
        assert isinstance(params.blocks, tuple) and isinstance(params.reducers, tuple)
        with pytest.raises(FrozenInstanceError):
            params.projector_out.weight = np.zeros((8, 32))
        with pytest.raises(FrozenInstanceError):
            params.blocks = params.blocks[:1]
        with pytest.raises(FrozenInstanceError):
            params.blocks[0].gating = params.blocks[1].gating
        with pytest.raises(FrozenInstanceError):
            params.reducers[0].fc1 = params.reducers[1].fc1
        with pytest.raises(TypeError):
            params.blocks[0] = params.blocks[1]
        with pytest.raises(TypeError):
            params.blocks[0].extractors["sam"] = params.blocks[0].extractors["dinov2"]

    def test_walks_and_replace_still_work(self, params, config, registry, tmp_path):
        clone = clone_params(params)
        assert [n for n, _ in named_arrays(clone)] == [n for n, _ in named_arrays(params)]
        for (_, a), (_, b) in zip(named_arrays(clone), named_arrays(params)):
            assert a is not b and a.tobytes() == b.tobytes()
        save_params(params, tmp_path / "params")
        loaded = load_params(tmp_path / "params", config, registry)
        assert isinstance(loaded.blocks, tuple) and len(loaded.blocks) == config.num_blocks
        shorter = replace(params, blocks=params.blocks[:1])
        assert len(shorter.blocks) == 1 and shorter.blocks[0] is params.blocks[0]
        assert shorter.reducers is params.reducers
        with pytest.raises(FrozenInstanceError):
            shorter.blocks = params.blocks


class TestParamsPersistence:
    def test_save_load_roundtrip_shapes_and_names(self, params, config, registry, tmp_path):
        save_params(params, tmp_path / "params")
        loaded = load_params(tmp_path / "params", config, registry)
        original = dict(named_arrays(params))
        for name, arr in named_arrays(loaded):
            assert arr.shape == original[name].shape
            # MOVT narrows to f32; reload must be exact at f32 resolution.
            assert np.array_equal(arr, original[name].astype(np.float32).astype(np.float64))

    def test_second_save_is_byte_identical(self, params, tmp_path):
        save_params(params, tmp_path / "a")
        save_params(params, tmp_path / "b")
        a = sorted((tmp_path / "a").iterdir())
        b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_save_over_existing_directory_roundtrips_bitwise(self, params, config, registry, tmp_path):
        save_params(params, tmp_path / "params")
        second = init_params(config, registry, seed=12)
        save_params(second, tmp_path / "params")
        loaded = dict(named_arrays(load_params(tmp_path / "params", config, registry)))
        arrays = list(named_arrays(second))
        assert len(arrays) == len(loaded) == 216
        for name, arr in arrays:
            assert loaded[name].tobytes() == arr.astype(np.float32).astype(np.float64).tobytes()

    def test_interrupted_save_does_not_load(self, params, config, registry, tmp_path, monkeypatch):
        """A second save into the same directory stops after params.movt is written,
        or partway through its write, which leaves it empty. The old manifest stays,
        and the new file no longer matches it."""
        save_params(params, tmp_path / "params")
        before = (tmp_path / "params" / "manifest.json").read_bytes()
        original_save, original_write = params_module.save_tensor, os.write

        def save_then_stop(path, array):
            original_save(path, array)
            raise KeyboardInterrupt

        def write_half_then_stop(fd, data):
            original_write(fd, data[: len(data) // 2])
            raise KeyboardInterrupt

        for patch in ((params_module, "save_tensor", save_then_stop), (os, "write", write_half_then_stop)):
            with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
                m.setattr(*patch)
                save_params(init_params(config, registry, seed=12), tmp_path / "params")
            assert sorted(p.name for p in (tmp_path / "params").iterdir()) == ["manifest.json", "params.movt"]
            assert (tmp_path / "params" / "manifest.json").read_bytes() == before
            with pytest.raises(ValidationError, match=r"params\.movt: SHA-256 differs"):
                load_params(tmp_path / "params", config, registry)
        assert (tmp_path / "params" / "params.movt").stat().st_size == 0  # save_tensor cut its failed write

    def test_params_file_of_another_save_does_not_load(self, params, config, registry, tmp_path):
        save_params(params, tmp_path / "a")
        save_params(init_params(config, registry, seed=12), tmp_path / "b")
        (tmp_path / "a" / "params.movt").write_bytes((tmp_path / "b" / "params.movt").read_bytes())
        with pytest.raises(ValidationError, match=r"params\.movt: SHA-256 differs"):
            load_params(tmp_path / "a", config, registry)

    def test_cut_manifest_does_not_load(self, params, config, registry, tmp_path):
        save_params(params, tmp_path / "params")
        manifest = tmp_path / "params" / "manifest.json"
        raw = manifest.read_bytes()
        for cut in (len(raw) // 2, len(raw) - 3):
            manifest.write_bytes(raw[:cut])
            with pytest.raises(ValidationError, match="manifest.json: not valid JSON"):
                load_params(tmp_path / "params", config, registry)

    def test_manifest_without_digests_does_not_load(self, params, config, registry, tmp_path):
        save_params(params, tmp_path / "params")
        manifest = tmp_path / "params" / "manifest.json"
        names = {"expert_names": json.loads(manifest.read_text())["expert_names"]}
        for doc in (names, {**names, "sha256": None}, {**names, "sha256": 5}, {**names, "sha256": ["0" * 64]}):
            manifest.write_text(json.dumps(doc))
            with pytest.raises(ValidationError, match="needs an 'expert_names' list and a 'sha256' string"):
                load_params(tmp_path / "params", config, registry)

    def test_load_rejects_missing_tensor(self, params, config, registry, tmp_path):
        save_params(params, tmp_path / "params")
        (tmp_path / "params" / "params.movt").unlink()
        with pytest.raises(ValidationError, match=r"params\.movt: cannot read MOVT file"):
            load_params(tmp_path / "params", config, registry)

    def test_params_of_another_config_do_not_load(self, config, registry, tmp_path):
        """A params.movt with its recorded digest, saved for a smaller gating MLP."""
        smaller = replace(config, gating_hidden=8)
        save_params(init_params(smaller, registry), tmp_path / "params")
        sizes = [sum(a.size for _, a in named_arrays(init_params(c, registry))) for c in (smaller, config)]
        assert sizes[0] < sizes[1]
        message = rf"holds shape \({sizes[0]},\), the config's params take {sizes[1]} values"
        with pytest.raises(ValidationError, match=message):
            load_params(tmp_path / "params", config, registry)

    def test_params_file_layout_is_pinned(self, tmp_path):
        """params.movt holds the desk params in `visit` order, the trainer's buffer
        layout: a change to that order or to init fails here by name."""
        registry, config = default_registry(), desk_config()
        params = init_params(config, registry)
        save_params(params, tmp_path / "params")
        assert sorted(p.name for p in (tmp_path / "params").iterdir()) == ["manifest.json", "params.movt"]
        raw = (tmp_path / "params" / "params.movt").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == PINNED_PARAMS_SHA256
        assert json.loads((tmp_path / "params" / "manifest.json").read_text()) == {
            "expert_names": [spec.name for spec in registry.experts], "sha256": PINNED_PARAMS_SHA256,
        }
        sample = Sample(sample_id="s", image_seed=0, question="q", answer_vector=[0.0])
        with _CorpusRunner(registry, config, [sample], lambda _s: ExpertSelection(()), params) as runner:
            flat = runner.flat.astype(np.float32).astype(np.float64)
        assert load_tensor(tmp_path / "params" / "params.movt").tobytes() == flat.tobytes()
