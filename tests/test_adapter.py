from dataclasses import replace

import numpy as np
import pytest

import oracles
from mova.adapter import (
    AdapterConfig,
    GateWeights,
    GatingInput,
    adapter_apply,
    adapter_forward,
    clone_params,
    desk_config,
    encode_text,
    extract_expert_knowledge,
    fuse,
    gate_weights,
    init_params,
    load_config,
    load_params,
    named_arrays,
    save_config,
    save_params,
    transformer_block,
)
from mova.errors import (
    EmptySelectionError,
    FeatureMismatchError,
    ShapeError,
    ValidationError,
)
from mova.adapter.network import ForwardInput, build_forward_graph, lift
from mova.experts import (
    ExpertRegistry,
    ExpertSpec,
    default_registry,
    generate_base_feature,
    generate_expert_feature,
)
from mova.numerics import FeatureMap
from mova.routing import ExpertSelection


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
        tp.norm_attn = None
        tp.norm_ffn = None
        x = FeatureMap(rng.standard_normal((8, 4, 4)))
        out = transformer_block(x, tp)
        assert out.data.tobytes() == x.data.tobytes()

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
    def features(self, registry, image_seed=42, planted=None, answer=()):
        return {
            spec.name: generate_expert_feature(
                spec, image_seed, planted=(spec.name == planted), answer_vector=answer
            )
            for spec in registry.experts
        }

    def test_desk_output_shape(self, params, config, registry):
        base = generate_base_feature(registry, 42)
        out = adapter_forward(
            base, self.features(registry), ExpertSelection((0, 3)), "read it", params, config
        )
        assert out.shape == (16, 32)

    def test_matches_full_stack_oracle(self, params, config, registry):
        base = generate_base_feature(registry, 7)
        feats = self.features(registry, image_seed=7)
        selection = ExpertSelection((0, 3))
        question = "where is the planted signal?"
        out = adapter_forward(base, feats, selection, question, params, config)
        expected = oracles.adapter_forward(
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
            lifted, _ = lift(replace(params, blocks=params.blocks[:num_blocks]), "all")
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
        # 16- and 6-channel experts, routed so the widths alternate: three key/value runs.
        specs = (
            ExpertSpec("A", "wide", "a wide expert", 16, 4, 4, 1),
            ExpertSpec("B", "narrow", "a narrow expert", 6, 3, 5, 2),
            ExpertSpec("C", "wider", "a second wide expert", 16, 6, 6, 3),
        )
        registry = ExpertRegistry(specs, 8, 4, 4)
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
                           for s in specs]
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

    def test_missing_feature_names_expert(self, params, config, registry):
        base = generate_base_feature(registry, 42)
        feats = self.features(registry)
        del feats["pix2struct"]
        with pytest.raises(FeatureMismatchError, match="pix2struct"):
            adapter_forward(base, feats, ExpertSelection((0, 3)), "q", params, config)

    def test_odd_spatial_extent_rejected(self, params, config, registry, rng):
        base = FeatureMap(rng.standard_normal((8, 7, 8)))
        with pytest.raises(ShapeError):
            adapter_forward(base, {}, ExpertSelection(()), "q", params, config)


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

    def test_load_rejects_missing_tensor(self, params, config, registry, tmp_path):
        save_params(params, tmp_path / "params")
        (tmp_path / "params" / "projector.out.weight.movt").unlink()
        with pytest.raises(ValidationError):
            load_params(tmp_path / "params", config, registry)
