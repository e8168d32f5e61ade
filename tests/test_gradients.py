import numpy as np
import pytest

from mova.adapter import desk_config, init_params
from mova.adapter.network import ForwardInput, build_forward_graph, lift
from mova.adapter.params import clone_params, named_arrays
from mova.experts import default_registry, generate_base_feature, generate_expert_feature
from mova.numerics import autodiff as ad
from mova.numerics import finite_diff_check
from mova.routing import ExpertSelection


@pytest.fixture(scope="module")
def instance():
    registry = default_registry()
    config = desk_config(seed=2)
    params = init_params(config, registry, seed=21)
    base = generate_base_feature(registry, 5)
    answer = np.random.default_rng(17).standard_normal(4)
    features = {
        spec.name: generate_expert_feature(
            spec, 5, planted=(spec.name == "pix2struct"), answer_vector=answer
        )
        for spec in registry.experts
    }
    selection = ExpertSelection((0, 3))
    return registry, config, params, base, features, selection, answer


def loss_and_tracked(instance, params, trainable):
    _registry, config, _params, base, features, selection, answer = instance
    lifted, tracked = lift(params, trainable)
    sample = ForwardInput(base, features, selection, "find the signal")
    out, _ = build_forward_graph([sample], lifted, config)
    pooled = ad.reshape(ad.mean_rows(out), (-1,))  # a batch of one
    diff = ad.sub(ad.gather_vec(pooled, range(4)), ad.constant(answer))
    return ad.mean_all(ad.mul(diff, diff)), tracked


def check_block(instance, name, max_entries=None):
    params = instance[2]
    loss, tracked = loss_and_tracked(instance, params, {name})
    ad.backward(loss)
    analytic = tracked[name].grad
    block = dict(named_arrays(params))[name]
    assert analytic is not None and analytic.shape == block.shape

    def scalar_fn(values):
        work = clone_params(params)
        dict(named_arrays(work))[name][...] = values
        return float(loss_and_tracked(instance, work, frozenset())[0].value)

    indices = None
    if max_entries is not None and block.size > max_entries:
        indices = np.random.default_rng(1).choice(block.size, max_entries, replace=False)
    report = finite_diff_check(block, scalar_fn, analytic, eps=1e-5, op_name=name, indices=indices)
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
    params = instance[2]
    loss, tracked = loss_and_tracked(instance, params, {"block0.extract.sam.value.weight"})
    ad.backward(loss)
    grad = tracked["block0.extract.sam.value.weight"].grad
    assert grad is None or not grad.any()
