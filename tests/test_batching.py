"""The batched forward pass agrees with the one-sample forward it replaces, a
pass resumed at a stage agrees with the full pass bit for bit, and a pass split
across processes has the bits of one process."""

import dataclasses
import os
import signal

import numpy as np
import pytest

from mova.adapter.config import desk_config
from mova.adapter.params import init_params, named_arrays, stage_of
from mova.adapter.network import ForwardInput, build_forward_graph, lift
from mova.errors import ShapeError, TrainingError
from mova.experts import default_registry, generate_expert_feature
from mova.harness.train import MICROBATCH, _CorpusRunner, _fails_as
from mova.routing import ExpertSelection
from mova.routing_data import generate_synthetic_corpus, load_samples

# 11 samples, so the batch is not a multiple of the microbatch: K = 0, 1, 3
# and 7, unsorted selections, and experts that several samples share.
SELECTIONS = (
    (), (2,), (5, 0, 3), (6, 4, 2, 0, 1, 3, 5), (0,), (3, 1), (),
    (1, 4, 6), (0, 2), (4,), (2, 6, 0),
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    registry = default_registry()
    corpus = tmp_path_factory.mktemp("batching") / "corpus"
    generate_synthetic_corpus(registry, len(SELECTIONS), seed=13, out_dir=corpus, answer_dim=4)
    samples = load_samples(corpus / "samples.jsonl")
    params = init_params(desk_config(), registry, seed=29)
    return registry, samples, params


def make_runner(registry, samples):
    chosen = {s.sample_id: ExpertSelection(sel) for s, sel in zip(samples, SELECTIONS)}
    return _CorpusRunner(registry, desk_config(), samples, lambda sample: chosen[sample.sample_id])


@pytest.fixture
def setup(corpus):
    registry, samples, params = corpus
    with make_runner(registry, samples) as runner:
        yield registry, runner, params


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
    config = runner.config
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
    config = runner.config
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
        build_forward_graph(inputs, lifted, runner.config, resume=(stages, kept[0][0]))
    with pytest.raises(ShapeError, match="cannot resume at stage"):
        build_forward_graph(inputs[1:], lifted, runner.config, resume=(1, kept[0][1]))


def one_per_stage(params):
    """The first tensor each stage reads, by name."""
    firsts = {}
    for name, _ in named_arrays(params):
        firsts.setdefault(stage_of(name, len(params.blocks)), name)
    return firsts


def all_passes(runner, params):
    """batch_loss, a resumed batch_loss_value per stage (one element of one of
    its tensors moved) and evaluate, over the runner's whole corpus."""
    batch = runner.samples
    kept = []
    loss, grads = runner.batch_loss(batch, params, "all", kept)
    arrays = dict(named_arrays(params))
    resumed = {}
    for stage, name in one_per_stage(params).items():
        original = arrays[name].flat[0]
        arrays[name].flat[0] = original + 0.5
        try:
            resumed[name] = runner.batch_loss_value(batch, params, stage=stage, kept=kept)
        finally:
            arrays[name].flat[0] = original
    return loss, grads, resumed, runner.evaluate(params, batch)


def with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))


def test_parallel_passes_have_the_serial_bits(corpus, monkeypatch):
    registry, samples, params = corpus
    runs = {}
    for cpus in (1, 2):
        with_cpus(monkeypatch, cpus)
        with make_runner(registry, samples) as runner:
            runs[cpus] = all_passes(runner, params)
            assert runner.processes == cpus
    (loss, grads, resumed, evaluated), (p_loss, p_grads, p_resumed, p_evaluated) = runs[1], runs[2]
    assert p_loss == loss and p_resumed == resumed and p_evaluated == evaluated
    assert len(resumed) == len(params.blocks) + 1
    assert list(p_grads) == list(grads)
    for name, grad in grads.items():
        assert p_grads[name].tobytes() == grad.tobytes(), name
    # Some tensors get their whole gradient from the first microbatch: the
    # second routes none of experts 1, 3 and 5.
    with make_runner(registry, samples) as runner:
        _, tail = runner.batch_loss(samples[MICROBATCH:], params, "all")
    assert any(grads[name].any() and not tail[name].any() for name in grads)


def test_worker_overflow_fails_as_the_serial_run(corpus, monkeypatch):
    """Sample 9, in the second microbatch, has an answer whose squared error
    overflows; with two CPUs a worker runs that microbatch."""
    registry, samples, params = corpus
    samples = list(samples)
    samples[9] = dataclasses.replace(samples[9], answer_vector=(1e200,) * 4)
    errors = {}
    for cpus in (1, 2):
        with_cpus(monkeypatch, cpus)
        with make_runner(registry, samples) as runner:
            with pytest.raises(TrainingError) as caught, _fails_as("step 0"):
                runner.batch_loss(samples, params, "all")
            errors[cpus] = str(caught.value)
            assert runner.processes == cpus
    assert errors[2] == errors[1] and errors[1].startswith("step 0: overflow")


def test_dead_worker_fails_with_one_error(corpus, monkeypatch):
    """A worker killed between passes: the next pass's send to it fails."""
    registry, samples, params = corpus
    with_cpus(monkeypatch, 2)
    with make_runner(registry, samples) as runner:
        runner.batch_loss(samples, params, "all")
        for process, _conn in runner._workers:
            os.kill(process.pid, signal.SIGKILL)
            process.join(10)
            assert not process.is_alive()
        with pytest.raises(TrainingError, match="^a microbatch worker process exited$"):
            runner.batch_loss(samples, params, "all")


def test_unpicklable_worker_error_keeps_its_text(corpus, monkeypatch):
    registry, samples, params = corpus

    class Unpicklable(Exception):  # a local class cannot be pickled
        pass

    original = _CorpusRunner._microbatch

    def microbatch(self, kind, chunk, *args):
        if chunk[0].sample_id == samples[MICROBATCH].sample_id:  # the second microbatch, a worker's on 2 CPUs
            raise Unpicklable(f"microbatch of {chunk[0].sample_id!r} failed")
        return original(self, kind, chunk, *args)

    monkeypatch.setattr(_CorpusRunner, "_microbatch", microbatch)
    errors = {}
    for cpus in (1, 2):
        with_cpus(monkeypatch, cpus)
        with make_runner(registry, samples) as runner:
            with pytest.raises(Exception) as caught:
                runner.batch_loss(samples, params, "all")
            assert runner.processes == cpus
        errors[cpus] = caught.value
    assert type(errors[1]) is Unpicklable and type(errors[2]) is TrainingError
    assert str(errors[2]) == str(errors[1])
