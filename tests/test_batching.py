"""The batched forward pass agrees with the one-sample forward it replaces, a
pass resumed at a stage agrees with the full pass bit for bit, and a pass split
across processes has the bits of one process."""

import dataclasses
import gc
import os
import signal
import weakref

import numpy as np
import oracles
import pytest
from conftest import with_cpus

from mova import forked
from mova.adapter import network
from mova.adapter.config import desk_config
from mova.adapter.params import init_params, named_arrays, stage_of
from mova.adapter.network import ForwardInput, build_forward_graph, lift
from mova.errors import MovaError, ShapeError, TrainingError
from mova.experts import default_registry, generate_expert_feature
from mova.harness import train
from mova.harness.train import MICROBATCH, _CorpusRunner, _fails_as, probe_gradients
from mova.numerics import autodiff as ad
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


def make_runner(registry, samples, params):
    chosen = {s.sample_id: ExpertSelection(sel) for s, sel in zip(samples, SELECTIONS)}
    return _CorpusRunner(registry, desk_config(), samples, lambda sample: chosen[sample.sample_id], params)


def every_name(params):
    return {name for name, _ in named_arrays(params)}


@pytest.fixture
def setup(corpus):
    registry, samples, params = corpus
    with make_runner(registry, samples, params) as runner:
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
    loss, grad = runner.batch_loss(batch, every_name(params))
    singles = [runner.batch_loss([sample], every_name(params)) for sample in batch]
    mean_loss = sum(l for l, _ in singles) / len(batch)
    assert abs(loss - mean_loss) <= 1e-12 * abs(mean_loss)
    assert loss == pytest.approx(runner.batch_loss_value(batch), rel=1e-15)
    for name, segment in runner.segments.items():
        mean_grad = sum(g[segment] for _, g in singles) / len(batch)
        assert rel_diff(grad[segment], mean_grad) <= 1e-12, name


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
    base_loss, _ = runner.batch_loss(batch, every_name(params), kept)
    stages = len(params.blocks) + 1
    assert [len(microbatch) for microbatch in kept] == [stages] * 2
    rng = np.random.default_rng(11)
    moved = set()
    for name, arr in named_arrays(runner.params):
        flat = int(rng.integers(arr.size))
        original = arr.flat[flat]
        arr.flat[flat] = original + 0.5
        try:
            full = runner.batch_loss_value(batch)
            stage = stage_of(name, len(params.blocks))
            assert runner.batch_loss_value(batch, stage=stage, kept=kept) == full, name
        finally:
            arr.flat[flat] = original
        if full != base_loss:
            moved.add(stage)
    assert moved == set(range(stages))  # every stage had a probe that changed the loss
    # Nothing wrote into the kept inputs: resuming the tail still gives the unperturbed loss.
    assert runner.batch_loss_value(batch, stage=stages - 1, kept=kept) == base_loss
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


def resume_each_stage(runner, kept):
    """A batch_loss_value resumed at each stage, from `kept`, with one element
    of that stage's first tensor moved in `runner.params`: {tensor name: loss}."""
    arrays = dict(named_arrays(runner.params))
    resumed = {}
    for stage, name in one_per_stage(runner.params).items():
        original = arrays[name].flat[0]
        arrays[name].flat[0] = original + 0.5
        try:
            resumed[name] = runner.batch_loss_value(runner.samples, stage=stage, kept=kept)
        finally:
            arrays[name].flat[0] = original
    return resumed


def all_passes(runner):
    """batch_loss, the stage inputs it kept, resume_each_stage from them and
    evaluate, over the runner's whole corpus."""
    batch = runner.samples
    kept = []
    loss, grads = runner.batch_loss(batch, every_name(runner.params), kept)
    return loss, grads, kept, resume_each_stage(runner, kept), runner.evaluate(batch)


def test_parallel_passes_have_the_serial_bits(corpus, monkeypatch):
    """2 microbatches on 2 CPUs, and 5 on 3 CPUs split as ranges of 1, 2 and 2,
    have the bits of one process."""
    registry, samples, params = corpus
    for cpus, size in ((2, len(samples)), (3, 36)):
        batch = (samples * 4)[:size]
        runs = {}
        for n in (1, cpus):
            with_cpus(monkeypatch, n)
            with make_runner(registry, batch, params) as runner:
                runs[n] = all_passes(runner)
                assert runner.processes == n
                # A pass over no samples, once the workers have started, runs in the caller.
                assert runner.evaluate([]) == (0.0, dict.fromkeys(params.expert_names, 0.0))
        (loss, grads, kept, resumed, evaluated), (p_loss, p_grads, p_kept, p_resumed, p_evaluated) = runs[1], runs[cpus]
        assert p_loss == loss and p_resumed == resumed and p_evaluated == evaluated
        assert len(resumed) == len(params.blocks) + 1
        # The keep list holds every microbatch's stage inputs, read-only, with the
        # same bits whichever process recorded them, so any runner can resume from them.
        assert [[a.tobytes() for a in m] for m in p_kept] == [[a.tobytes() for a in m] for m in kept]
        assert not any(array.flags.writeable for microbatch in kept + p_kept for array in microbatch)
        for microbatch in (kept[0], p_kept[-1]):  # recorded by this process, and by a worker
            with pytest.raises(ValueError, match="read-only"):
                microbatch[0][0, 0, 0] = 1.0
        assert p_grads.shape == grads.shape
        for name, segment in runner.segments.items():
            assert p_grads[segment].tobytes() == grads[segment].tobytes(), name
        with_cpus(monkeypatch, 1)
        with make_runner(registry, batch, params) as runner:
            # A fresh one-process runner resumes from what several processes kept.
            assert resume_each_stage(runner, p_kept) == resumed
            # Some tensors get their whole gradient from the first microbatch: the
            # second routes none of experts 1, 3 and 5.
            _, tail = runner.batch_loss(samples[MICROBATCH:], every_name(params))
        assert any(grads[segment].any() and not tail[segment].any() for segment in runner.segments.values())


def test_gradient_is_the_oracle_sum_of_microbatch_gradients(corpus, monkeypatch):
    """At 1, 2 and 3 CPUs the batch gradient has the bytes of the oracle's sum of
    each microbatch's per-tensor gradients, in microbatch order. Both batches run 3
    microbatches, and the second and third route none of experts 1, 3 and 5. A
    -0.0 that the first microbatch gives survives the sum; a tensor that no
    microbatch reaches reads +0.0. A worker replies with one float64 vector per
    microbatch and the names of the tensors it reached, never a per-tensor dict."""
    registry, samples, params = corpus
    unrouted = [params.expert_names[i] for i in (1, 3, 5)]
    planted = f"block0.extract.{params.expert_names[1]}.query.weight"
    batches = {
        "mixed": samples + samples[MICROBATCH:] * 2,
        "unrouted": samples[MICROBATCH:] * 6,
    }
    tracked, per_microbatch, replies = [], [], []
    original_lift, original_backward, original_map = train.lift, ad.backward, forked.Workers.map

    def lift(p, trainable=frozenset()):
        lifted, nodes = original_lift(p, trainable)
        tracked.append(nodes)
        return lifted, nodes

    def backward(loss):
        original_backward(loss)
        node = tracked[-1].get(planted)
        if node is not None and node.grad is not None:
            node.grad = node.grad.copy()
            node.grad.flat[0] = -0.0
        per_microbatch.append({name: n.grad.copy() for name, n in tracked[-1].items() if n.grad is not None})

    def spied_map(self, shares):
        out = original_map(self, shares)
        if shares[0][0] == "grad":
            replies.extend(out[1:])  # the workers' replies, as they came through the pipes
        return out

    monkeypatch.setattr(train, "lift", lift)
    monkeypatch.setattr(ad, "backward", backward)
    monkeypatch.setattr(forked.Workers, "map", spied_map)
    layout = [(name, array.size) for name, array in named_arrays(params)]
    reference = {}
    for cpus in (1, 2, 3):
        with_cpus(monkeypatch, cpus)
        with make_runner(registry, samples, params) as runner:
            for key, batch in batches.items():
                per_microbatch.clear()
                _loss, grad = runner.batch_loss(batch, every_name(params))
                if cpus == 1:
                    assert len(per_microbatch) == 3
                    reference[key] = oracles.summed_gradient(per_microbatch, layout)
                assert grad.tobytes() == reference[key].tobytes(), (cpus, key)
            assert runner.processes == cpus
        mixed, unrouted_grad = reference["mixed"], reference["unrouted"]
        assert np.signbit(mixed[runner.segments[planted].start])
        for name, segment in runner.segments.items():
            if any(f".extract.{expert}." in name for expert in unrouted):
                assert not unrouted_grad[segment].any() and not np.signbit(unrouted_grad[segment]).any(), name
    assert len(replies) == 2 * (1 + 2)  # each batch: one worker at 2 CPUs, two at 3
    for results, _records in replies:
        for _loss, (vector, names) in results:
            assert type(vector) is np.ndarray and vector.dtype == np.float64
            assert vector.shape == runner.flat.shape
            assert isinstance(names, set) and names <= set(runner.segments)


def test_a_runner_writes_only_its_own_copy_of_the_params(corpus):
    """The params handed to a runner keep their bytes through a gradient pass,
    probes and an optimizer step, all of which write `runner.params`."""
    registry, samples, params = corpus
    before = [array.tobytes() for _name, array in named_arrays(params)]
    with make_runner(registry, samples, params) as runner:
        kept = []
        loss, grad = runner.batch_loss(samples, every_name(params), kept)
        entries = {"block0.gate.hidden.weight": [0, 5], "projector.out.weight": [3, 40]}
        probe_gradients(runner, samples, grad, entries, kept, eps=1e-5)
        runner.flat -= 0.1 * grad
        assert runner.batch_loss_value(samples) != loss  # the runner reads what it wrote
    assert [array.tobytes() for _name, array in named_arrays(params)] == before


def test_a_write_between_passes_reaches_the_worker(corpus, monkeypatch):
    """On 2 CPUs a worker runs the second microbatch. An in-place write to
    `runner.params` after one pass moves that microbatch's loss in the next,
    to the loss a one-process runner gives after the same write."""
    registry, samples, params = corpus
    losses = {}
    for cpus in (2, 1):
        with_cpus(monkeypatch, cpus)
        with make_runner(registry, samples, params) as runner:
            passes = [[loss for loss, _ in runner._pass("value", samples)]]
            runner.params.projector_out.weight[0, 0] += 0.5  # read by every sample's first answer component
            passes.append([loss for loss, _ in runner._pass("value", samples)])
            assert runner.processes == cpus
        losses[cpus] = passes
    assert len(losses[2][0]) == 2 and losses[2][1][1] != losses[2][0][1]
    assert losses[2] == losses[1]


def test_a_runner_is_freed_when_its_caller_lets_go(corpus, monkeypatch):
    """Leaving the runner breaks the cycle through its workers' bound method, so
    its input cache goes without waiting for the cycle collector."""
    registry, samples, params = corpus
    with_cpus(monkeypatch, 2)
    gc.disable()
    try:
        with make_runner(registry, samples, params) as runner:
            runner.batch_loss(samples, every_name(params))
            assert runner.processes == 2
        freed = weakref.ref(runner)
        del runner
        assert freed() is None
    finally:
        gc.enable()


def test_worker_overflow_fails_as_the_serial_run(corpus, monkeypatch):
    """Sample 9, in the second microbatch, has an answer whose squared error
    overflows; with two CPUs a worker runs that microbatch."""
    registry, samples, params = corpus
    samples = list(samples)
    samples[9] = dataclasses.replace(samples[9], answer_vector=(1e200,) * 4)
    errors = {}
    for cpus in (1, 2):
        with_cpus(monkeypatch, cpus)
        with make_runner(registry, samples, params) as runner:
            with pytest.raises(TrainingError) as caught, _fails_as("step 0"):
                runner.batch_loss(samples, every_name(params))
            errors[cpus] = str(caught.value)
            assert runner.processes == cpus
    assert errors[2] == errors[1] and errors[1].startswith("step 0: overflow")


def test_dead_worker_fails_with_one_error(corpus, monkeypatch):
    """A worker killed between passes: the next pass's send to it fails."""
    registry, samples, params = corpus
    with_cpus(monkeypatch, 2)
    with make_runner(registry, samples, params) as runner:
        runner.batch_loss(samples, every_name(params))
        for process, _conn in runner._workers.children:
            os.kill(process.pid, signal.SIGKILL)
            process.join(10)
            assert not process.is_alive()
        with pytest.raises(MovaError) as caught:
            runner.batch_loss(samples, every_name(params))
    assert type(caught.value) is MovaError and str(caught.value) == "a forked worker process exited"


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
        with make_runner(registry, samples, params) as runner:
            with pytest.raises(Exception) as caught:
                runner.batch_loss(samples, every_name(params))
            assert runner.processes == cpus
        errors[cpus] = caught.value
    assert type(errors[1]) is Unpicklable and type(errors[2]) is MovaError
    assert str(errors[2]) == str(errors[1])


@pytest.mark.parametrize("cpus", [1, 2])
def test_forward_only_passes_lift_once_and_see_writes(corpus, monkeypatch, cpus):
    """Three value passes lift `runner.params` once in this process. After an
    in-place write to `runner.arrays`, the value pass, full and resumed, and
    evaluate have the bits of a fresh runner built on the written params."""
    registry, samples, params = corpus
    with_cpus(monkeypatch, cpus)
    walked = []
    original = network.visit
    monkeypatch.setattr(network, "visit", lambda p, fn: walked.append(p) or original(p, fn))
    with make_runner(registry, samples, params) as runner:
        kept = []
        runner.batch_loss(samples, every_name(params), kept)
        walked.clear()
        before = [runner.batch_loss_value(samples) for _ in range(3)]
        assert len(walked) == 1 and walked[0] is runner.params
        for name in one_per_stage(params).values():
            runner.arrays[name].flat[1] += 0.25
        seen = runner.batch_loss_value(samples), resume_each_stage(runner, kept), runner.evaluate(samples)
        assert len(walked) == 1 and runner.processes == cpus
        with make_runner(registry, samples, runner.params) as fresh:
            assert (fresh.batch_loss_value(samples), resume_each_stage(fresh, kept), fresh.evaluate(samples)) == seen
    assert before == before[:1] * 3 and seen[0] != before[0]


def check_a_worker_write_fails(corpus, monkeypatch, through):
    """A worker that makes the `through` write fails its share of a gradient or a
    value pass with numpy's read-only error, and the caller's params keep their bytes."""
    registry, samples, params = corpus
    with_cpus(monkeypatch, 2)
    parent = os.getpid()
    original = _CorpusRunner._microbatch

    def microbatch(self, kind, chunk, batch_size, lifted, *args):
        if os.getpid() != parent:
            if through == "node":
                lifted.blocks[0].transformer.norm_attn.gamma.value[0] = 2.0
            elif through == "slab":
                self.params.blocks[0].transformer.norm_attn.gamma[0] = 2.0
            elif through == "params":
                self.params.projector_out.weight[0, 0] = 123.0
            else:
                self.arrays["projector.out.weight"][0, 0] = 123.0
        return original(self, kind, chunk, batch_size, lifted, *args)

    monkeypatch.setattr(_CorpusRunner, "_microbatch", microbatch)
    with make_runner(registry, samples, params) as runner:
        before = {name: array.tobytes() for name, array in runner.arrays.items()}
        for run in (lambda: runner.batch_loss(samples, every_name(params)), lambda: runner.batch_loss_value(samples)):
            with pytest.raises(ValueError, match="read-only"):
                run()
            assert runner.processes == 2
            assert {name: array.tobytes() for name, array in runner.arrays.items()} == before
            assert runner.params.projector_out.weight[0, 0] != 123.0


@pytest.mark.parametrize("through", ["node", "slab"])
def test_a_worker_cannot_write_the_params_slab(corpus, monkeypatch, through):
    """Through its lifted node, or straight into its `params` view of the shared
    buffer, a worker's write to a param fails and the buffer keeps its bits."""
    check_a_worker_write_fails(corpus, monkeypatch, through)


@pytest.mark.parametrize("through", ["params", "arrays"])
def test_a_worker_cannot_write_the_callers_params(corpus, monkeypatch, through):
    """Through `runner.params` or `runner.arrays`, a worker's write fails and the
    caller's params keep their bytes."""
    check_a_worker_write_fails(corpus, monkeypatch, through)
