"""The batched forward pass agrees with the one-sample forward it replaces, and
a pass resumed at a stage agrees with the full pass bit for bit."""

import numpy as np
import pytest

from mova.adapter.params import init_params, named_arrays, stage_of
from mova.adapter.network import ForwardInput, build_forward_graph, lift
from mova.errors import ShapeError
from mova.experts import default_registry, generate_expert_feature
from mova.harness.train import MICROBATCH, ToyTrainConfig, _CorpusRunner
from mova.routing import ExpertSelection
from mova.routing_data import generate_synthetic_corpus, load_samples

# 11 samples, so the batch is not a multiple of the microbatch: K = 0, 1, 3
# and 7, unsorted selections, and experts that several samples share.
SELECTIONS = (
    (), (2,), (5, 0, 3), (6, 4, 2, 0, 1, 3, 5), (0,), (3, 1), (),
    (1, 4, 6), (0, 2), (4,), (2, 6, 0),
)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    registry = default_registry()
    corpus = tmp_path_factory.mktemp("batching") / "corpus"
    generate_synthetic_corpus(registry, len(SELECTIONS), seed=13, out_dir=corpus, answer_dim=4)
    config = ToyTrainConfig(corpus_dir=str(corpus), batch_size=len(SELECTIONS), seed=3)
    ids = [s.sample_id for s in load_samples(corpus / "samples.jsonl")]
    chosen = {sid: ExpertSelection(sel) for sid, sel in zip(ids, SELECTIONS)}
    runner = _CorpusRunner(registry, config, lambda sample: chosen[sample.sample_id])
    params = init_params(config.adapter, registry, seed=29)
    return registry, runner, params


def full_inputs(registry, runner):
    """Forward inputs that carry every expert's feature, routed or not."""
    inputs = []
    for sample in runner.samples:
        routed = runner.forward_input(sample)
        feats = {
            spec.name: generate_expert_feature(spec, sample.image_seed)
            for spec in registry.experts
        }
        inputs.append(ForwardInput(routed.base, feats, routed.selection, sample.question))
    return inputs


def rel_diff(a, b):
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / scale) if scale else float(np.max(np.abs(a)))


def test_batch_covers_the_intended_mix(setup):
    _registry, runner, _params = setup
    assert len(runner.samples) % MICROBATCH != 0
    assert [runner.forward_input(s).selection.indices for s in runner.samples] == list(SELECTIONS)


def test_batch_loss_matches_mean_of_one_sample_graphs(setup):
    _registry, runner, params = setup
    batch = runner.samples
    loss, grads = runner.batch_loss(batch, params, "all")
    singles = [runner.batch_loss([sample], params, "all") for sample in batch]
    mean_loss = sum(l for l, _ in singles) / len(batch)
    assert abs(loss - mean_loss) <= 1e-12 * abs(mean_loss)
    assert loss == pytest.approx(runner.batch_loss_value(batch, params), rel=1e-15)
    for name, grad in grads.items():
        mean_grad = sum(g[name] for _, g in singles) / len(batch)
        assert rel_diff(grad, mean_grad) <= 1e-12, name


def test_batched_tokens_match_one_sample_forward(setup):
    registry, runner, params = setup
    config = runner.config.adapter
    lifted, _ = lift(params)
    inputs = full_inputs(registry, runner)
    out, gates = build_forward_graph(inputs, lifted, config)
    kmax = max(len(s) for s in SELECTIONS)
    assert out.shape[0] == len(inputs) and len(gates) == config.num_blocks
    for row, sample in enumerate(inputs):
        one, one_gates = build_forward_graph([sample], lifted, config)
        assert rel_diff(out.value[row], one.value[0]) <= 1e-12
        k = sample.selection.k
        assert len(one_gates) == (config.num_blocks if k else 0)
        for gate, one_gate in zip(gates, one_gates):
            assert rel_diff(gate.value[row, :k], one_gate.value[0]) <= 1e-12
        for gate in gates:
            assert gate.shape == (len(inputs), kmax)
            assert not gate.value[row, k:].any()


def test_routed_out_feature_cannot_change_any_output(setup):
    registry, runner, params = setup
    config = runner.config.adapter
    lifted, _ = lift(params)
    inputs = full_inputs(registry, runner)
    before, before_gates = build_forward_graph(inputs, lifted, config)
    names = lifted.expert_names
    # Sample 1 routes only expert 2; samples 2, 3, 4, 8 and 10 route expert 0.
    target = names[0]
    assert 0 not in inputs[1].selection.indices
    assert sum(0 in s.selection.indices for s in inputs) > 1
    feats = dict(inputs[1].expert_features)
    noise = np.random.default_rng(5).standard_normal(feats[target].shape) * 100.0
    feats[target] = type(feats[target])(feats[target].data + noise)
    perturbed = list(inputs)
    perturbed[1] = ForwardInput(inputs[1].base, feats, inputs[1].selection, inputs[1].question)
    after, after_gates = build_forward_graph(perturbed, lifted, config)
    assert after.value.tobytes() == before.value.tobytes()
    for a, b in zip(after_gates, before_gates):
        assert a.value.tobytes() == b.value.tobytes()


def test_resumed_loss_equals_full_pass_for_every_tensor(setup):
    """Perturb one element of each tensor in turn: the loss resumed at the
    tensor's stage, from what one batch_loss kept, has the full pass's bits."""
    registry, runner, params = setup
    batch = runner.samples
    kept = []
    base_loss, _ = runner.batch_loss(batch, params, "all", kept)
    stages = len(params.blocks) + 1
    assert [len(microbatch) for microbatch in kept] == [stages] * 2
    rng = np.random.default_rng(11)
    moved = set()
    for name, arr in named_arrays(params):
        flat = int(rng.integers(arr.size))
        original = arr.flat[flat]
        arr.flat[flat] = original + 0.5
        try:
            full = runner.batch_loss_value(batch, params)
            stage = stage_of(name, len(params.blocks))
            assert runner.batch_loss_value(batch, params, stage=stage, kept=kept) == full, name
        finally:
            arr.flat[flat] = original
        if full != base_loss:
            moved.add(stage)
    assert moved == set(range(stages))  # every stage had a probe that changed the loss
    # Nothing wrote into the kept inputs: resuming the tail still gives the unperturbed loss.
    assert runner.batch_loss_value(batch, params, stage=stages - 1, kept=kept) == base_loss
    lifted, _ = lift(params)
    inputs = [runner.forward_input(s) for s in batch[:MICROBATCH]]
    with pytest.raises(ShapeError, match="cannot resume at stage"):
        build_forward_graph(inputs, lifted, runner.config.adapter, resume=(stages, kept[0][0]))
    with pytest.raises(ShapeError, match="cannot resume at stage"):
        build_forward_graph(inputs[1:], lifted, runner.config.adapter, resume=(1, kept[0][1]))
