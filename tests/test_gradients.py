import numpy as np
import pytest

from mova.adapter import desk_config, init_params
from mova.adapter.params import named_arrays
from mova.experts import default_registry
from mova.harness.gradcheck_run import planted_sample_loss, probe_gradients
from mova.numerics import autodiff as ad


@pytest.fixture(scope="module")
def instance():
    registry = default_registry()
    config = desk_config(seed=2)
    params = init_params(config, registry, seed=21)
    answer = np.random.default_rng(17).standard_normal(4)
    return params, planted_sample_loss(registry, config, params, 5, answer, "find the signal")


def check_block(instance, name, max_entries=None):
    params, loss = instance
    size = dict(named_arrays(params))[name].size
    indices = None
    if max_entries is not None and size > max_entries:
        indices = np.random.default_rng(1).choice(size, max_entries, replace=False)
    report = probe_gradients(loss, params, {name: indices}, eps=1e-5)[name]
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
    _params, loss = instance
    root, tracked = loss({"block0.extract.sam.value.weight"})
    ad.backward(root)
    grad = tracked["block0.extract.sam.value.weight"].grad
    assert grad is None or not grad.any()
