"""The corpus runner over drawn configurations: a pass split across 2 or 3
processes has the bits of the serial pass, a pass resumed at a stage has the
bits of the full pass, each batched row is the one-sample forward's, each gate
row lies on the simplex, a feature no sample routes changes nothing, and a
pass through `lift`'s memo has the bits of a fresh lift.

Each example draws an adapter config (1 to 4 blocks, any head count that
divides the hidden width, either gating mode), a 7-expert registry with two
feature widths, a training scope, and 1 to 20 samples routed to 0 to 7
experts each, in drawn order, so experts are shared across samples and
microbatches. Examples stay small: a few tokens per map, so one example runs
in well under a second.
"""

import numpy as np
import pytest
from conftest import with_cpus
from hypothesis import given, settings
from hypothesis import strategies as st

from mova.adapter.config import GATING_MODES, AdapterConfig
from mova.adapter.network import ForwardInput, adapter_apply, build_forward_graph, lift
from mova.adapter.params import clone_params, init_params, named_arrays, stage_of
from mova.experts import ExpertRegistry, ExpertSpec, Sample
from mova.harness.train import MICROBATCH, SCOPES, _CorpusRunner, scope_names
from mova.numerics.tensor import FeatureMap
from mova.routing import ExpertSelection

EXPERTS = 7
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)


@st.composite
def runs(draw):
    """(config, registry, samples, {sample id: selection}, scope)."""
    hidden = draw(st.sampled_from([4, 6, 8]))
    config = AdapterConfig(
        hidden_dim=hidden,
        text_dim=draw(st.sampled_from([3, 8])),
        llm_dim=6,
        num_blocks=draw(st.integers(1, 4)),
        gating_hidden=draw(st.integers(2, 6)),
        ffn_expansion=draw(st.integers(1, 2)),
        heads=draw(st.sampled_from([h for h in range(1, hidden + 1) if hidden % h == 0])),
        gating_mode=draw(st.sampled_from(GATING_MODES)),
        seed=draw(st.integers(0, 99)),
    )
    widths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True))
    experts = tuple(
        ExpertSpec(chr(ord("A") + i), f"e{i}", "a drawn expert", widths[i % 2],
                   draw(st.integers(1, 5)), draw(st.integers(1, 5)), 100 + i)
        for i in range(EXPERTS)
    )
    side = st.sampled_from([2, 4])
    registry = ExpertRegistry(experts, hidden, draw(side), draw(side))
    samples, chosen = [], {}
    for i in range(draw(st.integers(1, 20))):
        k = draw(st.integers(0, EXPERTS))
        chosen[f"s{i}"] = ExpertSelection(tuple(draw(st.permutations(range(EXPERTS)))[:k]))
        answer = draw(st.lists(st.floats(-2, 2), min_size=1, max_size=config.llm_dim))
        samples.append(Sample(f"s{i}", draw(st.integers(0, 2**20)), f"question {i % 3}", tuple(answer)))
    return config, registry, samples, chosen, draw(st.sampled_from(SCOPES))


def first_per_stage(runner):
    """The first tensor each stage reads, by name."""
    firsts = {}
    for name in runner.arrays:
        firsts.setdefault(stage_of(name, runner.config.num_blocks), name)
    return firsts


def every_pass(runner, trainable):
    """batch_loss with the stage inputs it kept, a full and a resumed value pass
    with one element of each stage's first tensor moved, and evaluate."""
    kept = []
    loss, grad = runner.batch_loss(runner.samples, trainable, kept)
    resumed = {}
    for stage, name in first_per_stage(runner).items():
        array = runner.arrays[name]
        original = array.flat[0]
        array.flat[0] = original + 0.5
        try:
            full = runner.batch_loss_value(runner.samples)
            resumed[name] = runner.batch_loss_value(runner.samples, stage=stage, kept=kept)
        finally:
            array.flat[0] = original
        assert resumed[name] == full, name
    stage_inputs = [[array.tobytes() for array in microbatch] for microbatch in kept]
    return loss, grad.tobytes(), stage_inputs, resumed, runner.evaluate(runner.samples)


@PROPERTY
@given(drawn=runs())
def test_parallel_and_resumed_passes_have_the_serial_bits(drawn):
    config, registry, samples, chosen, scope = drawn
    params = init_params(config, registry)
    trainable = scope_names(params, scope)
    microbatches = -(-len(samples) // MICROBATCH)
    results = {}
    # Hypothesis runs every example in one test call, so each gets its own patches.
    with pytest.MonkeyPatch.context() as monkeypatch:
        for cpus in (1, 2, 3):
            with_cpus(monkeypatch, cpus)
            with _CorpusRunner(registry, config, samples, lambda s: chosen[s.sample_id], params) as runner:
                results[cpus] = every_pass(runner, trainable)
                assert runner.processes == min(cpus, microbatches)
    assert results[2] == results[1]
    assert results[3] == results[1]
    assert len(results[1][3]) == config.num_blocks + 1
    assert [array.tobytes() for _name, array in named_arrays(params)] == [
        array.tobytes() for _name, array in named_arrays(init_params(config, registry))
    ]


def graph_bits(out, gates):
    return out.value.tobytes(), [gate.value.tobytes() for gate in gates]


@PROPERTY
@given(drawn=runs())
def test_batched_rows_gates_unrouted_features_and_the_lift_memo(drawn):
    config, registry, samples, chosen, scope = drawn
    params = init_params(config, registry)
    with pytest.MonkeyPatch.context() as monkeypatch:
        with_cpus(monkeypatch, 1)
        with _CorpusRunner(registry, config, samples, lambda s: chosen[s.sample_id], params) as runner:
            inputs = [runner.forward_input(s) for s in samples]
            memo = lift(runner.params)[0]
            # One step written in place: the memo's views must see it.
            _loss, grad = runner.batch_loss(runner.samples, scope_names(params, scope))
            runner.flat -= 0.5 * grad
            assert lift(runner.params)[0] is memo
            out, gates = build_forward_graph(inputs, memo, config)
            bits = graph_bits(out, gates)
            assert graph_bits(*build_forward_graph(inputs, lift(clone_params(runner.params))[0], config)) == bits

            kmax = max(inp.selection.k for inp in inputs)
            assert len(gates) == (config.num_blocks if kmax else 0)
            for row, inp in enumerate(inputs):
                one = adapter_apply(inp.base, inp.expert_features, inp.selection, inp.question,
                                    runner.params, config).tokens
                scale = np.max(np.abs(one))
                assert np.max(np.abs(out.value[row] - one)) <= 1e-12 * scale
                k = inp.selection.k
                for gate in gates:
                    weights = gate.value[row]
                    assert not weights[k:].any()
                    if not k:
                        continue
                    if config.gating_mode == "uniform":
                        assert (weights[:k] == 1.0 / k).all()
                    else:
                        assert (weights[:k] >= 0.0).all()
                        assert abs(weights[:k].sum() - 1.0) <= 1e-12

            # Every sample gains, then changes, a feature for each expert it does not route.
            rng = np.random.default_rng(len(samples))
            for size in (1.0, 100.0):
                padded = []
                for inp in inputs:
                    feats = dict(inp.expert_features)
                    for idx in set(range(EXPERTS)) - set(inp.selection.indices):
                        spec = registry.experts[idx]
                        feats[spec.name] = FeatureMap(size * rng.standard_normal(spec.shape))
                    padded.append(ForwardInput(inp.base, feats, inp.selection, inp.question))
                assert graph_bits(*build_forward_graph(padded, memo, config)) == bits
