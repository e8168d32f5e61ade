import numpy as np
import pytest

from mova.adapter.config import desk_config
from mova.adapter.params import init_params, named_arrays, stage_of
from mova.experts import default_registry
from mova.harness.gradcheck_run import planted_runner, probe_planted


@pytest.fixture(scope="module")
def instance():
    registry = default_registry()
    config = desk_config(seed=2)
    params = init_params(config, registry, seed=21)
    answer = np.random.default_rng(17).standard_normal(4)
    return params, planted_runner(registry, config, 5, answer, "find the signal")


def check_block(instance, name, max_entries=None):
    params, runner = instance
    size = dict(named_arrays(params))[name].size
    indices = None
    if max_entries is not None and size > max_entries:
        indices = np.random.default_rng(1).choice(size, max_entries, replace=False)
    report = probe_planted(runner, params, {name: indices}, eps=1e-5)[name]
    assert report.max_rel_error < 1e-4, f"{name}: {report.max_rel_error}"


def test_gating_mlp_weights_match_finite_differences(instance):
    check_block(instance, "block0.gate.hidden.weight")
    check_block(instance, "block1.gate.logits.weight")
    check_block(instance, "block2.gate.logits.bias")


def test_extractor_projection_weights_match_finite_differences(instance):
    check_block(instance, "block0.extract.pix2struct.value.weight", max_entries=64)
    check_block(instance, "block1.extract.dinov2.query.weight", max_entries=64)
    check_block(instance, "block2.extract.pix2struct.out.weight", max_entries=64)


def test_projector_matches_finite_differences(instance):
    check_block(instance, "projector.out.weight", max_entries=96)
    check_block(instance, "projector.hidden.bias")


def test_transformer_and_norm_params_match_finite_differences(instance):
    check_block(instance, "block1.attn.out.weight", max_entries=64)
    check_block(instance, "block0.norm_ffn.gamma")
    check_block(instance, "reduce0.fc1.weight", max_entries=64)


def test_unrouted_extractor_gradient_is_zero(instance):
    params, runner = instance
    name = "block0.extract.sam.value.weight"
    _loss, grads = runner.batch_loss(runner.samples, params, {name})
    assert not grads[name].any()


def test_stage_map_follows_tensor_names():
    params = init_params(desk_config(), default_registry())
    blocks = len(params.blocks)
    stages = [stage_of(name, blocks) for name, _ in named_arrays(params)]
    assert stages == sorted(stages)  # visit names the blocks in order, then the tail
    assert {s: stages.count(s) for s in set(stages)} == {0: 68, 1: 68, 2: 68, 3: 12}
    for name, stage in {
        "block0.gate.hidden.weight": 0,
        "block1.extract.sam.key.weight": 1,
        "block2.norm_ffn.beta": 2,
        "reduce0.fc1.weight": 3,
        "reduce1.fc2.bias": 3,
        "projector.out.weight": 3,
        # Unknown names map to stage 0, a full pass.
        "block3.attn.query.weight": 0,
        "blocks.attn.query.weight": 0,
        "reducer.fc1.weight": 0,
        "projector_out.weight": 0,
        "unknown": 0,
        "": 0,
    }.items():
        assert stage_of(name, blocks) == stage, name
