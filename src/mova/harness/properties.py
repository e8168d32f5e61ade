"""Executable property suite behind `mova check`.

One group per module's invariant list, run with fixed seeds. Checks raise
AssertionError (or any MovaError) to fail; the report counts passes and
failures per group. This is the only copy of these invariants: pytest runs
each check in `property_checks` as its own test.
"""

from __future__ import annotations

import itertools
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mova.adapter.config import desk_config
from mova.adapter.network import (
    GatingInput,
    adapter_apply,
    extract_expert_knowledge,
    fuse,
    gate_weights,
)
from mova.adapter.params import clone_params, init_params
from mova.adapter.text import encode_text
from mova.errors import MovaError
from mova.experts import (
    Sample,
    default_registry,
    generate_base_feature,
    generate_expert_feature,
    load_registry,
    save_registry,
)
from mova.harness.gradcheck_run import planted_runner, probe_planted
from mova.harness.train import ToyTrainConfig, train_toy, training_batch_indices
from mova.numerics import autodiff as ad
from mova.numerics.movt import load_tensor, save_tensor
from mova.numerics.ops import (
    bilinear_interpolate,
    global_avg_pool,
    scaled_dot_attention,
    softmax,
)
from mova.numerics.tensor import FeatureMap
from mova.routing import (
    ExpertSelection,
    build_routing_prompt,
    coarse_image_tokens,
    extract_question,
    parse_routing_response,
    render_selection,
    route,
    RoutingContext,
)
from mova.routing_data import (
    LossRecord,
    construct_routing_set,
    generate_synthetic_corpus,
    probe_residuals,
)

_SUITE_SEED = 20240521

Check = Callable[[], None]


@dataclass
class GroupResult:
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SuiteReport:
    groups: dict[str, GroupResult]

    @property
    def ok(self) -> bool:
        return all(g.failed == 0 for g in self.groups.values())

    def summary_dict(self) -> dict:
        return {
            name: {"passed": g.passed, "failed": g.failed, "failures": g.failures}
            for name, g in self.groups.items()
        }


# ---------------------------------------------------------------------------
# numerics


def _check_softmax_simplex():
    rng = np.random.default_rng(_SUITE_SEED)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        v = rng.standard_normal(n) * 10
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True
        p = softmax(v, mask)
        assert abs(p[mask].sum() - 1.0) <= 1e-12
        assert np.all(p[~mask] == 0.0)
        assert np.all((p >= 0.0) & (p <= 1.0))


def _check_softmax_shift_invariance():
    rng = np.random.default_rng(_SUITE_SEED + 1)
    for _ in range(100):
        v = rng.standard_normal(int(rng.integers(1, 11)))
        c = float(rng.standard_normal() * 50)
        assert np.max(np.abs(softmax(v + c) - softmax(v))) <= 1e-12


def _check_bilinear_identity_and_bounds():
    rng = np.random.default_rng(_SUITE_SEED + 2)
    for _ in range(20):
        c, h, w = int(rng.integers(1, 5)), int(rng.integers(1, 8)), int(rng.integers(1, 8))
        f = FeatureMap(rng.standard_normal((c, h, w)))
        same = bilinear_interpolate(f, h, w)
        assert same.data.tobytes() == f.data.tobytes()
        oh, ow = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        out = bilinear_interpolate(f, oh, ow)
        for p in range(oh):
            for q in range(ow):
                sy = 0.0 if oh == 1 else p * (h - 1) / (oh - 1)
                sx = 0.0 if ow == 1 else q * (w - 1) / (ow - 1)
                y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                corners = f.data[:, [y0, y0, y1, y1], [x0, x1, x0, x1]]
                assert np.all(out.data[:, p, q] >= corners.min(axis=1) - 1e-12)
                assert np.all(out.data[:, p, q] <= corners.max(axis=1) + 1e-12)


def _check_attention_convex_hull():
    rng = np.random.default_rng(_SUITE_SEED + 3)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        nq, nk = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        v = rng.standard_normal((nk, d))
        out = scaled_dot_attention(rng.standard_normal((nq, d)), rng.standard_normal((nk, d)), v)
        assert np.all(out >= v.min(axis=0) - 1e-12)
        assert np.all(out <= v.max(axis=0) + 1e-12)


def _check_matmul_vs_naive():
    rng = np.random.default_rng(_SUITE_SEED + 4)
    for _ in range(100):
        m, k, n = (int(rng.integers(1, 9)) for _ in range(3))
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        naive = np.zeros((m, n))
        for r in range(m):
            for s in range(n):
                acc = 0.0
                for t in range(k):
                    acc += a[r, t] * b[t, s]
                naive[r, s] = acc
        product = ad.linear(ad.constant(a), ad.constant(b)).value  # the matmul every layer runs
        assert np.max(np.abs(product - naive)) < 1e-12


def _check_purity_bitwise():
    rng = np.random.default_rng(_SUITE_SEED + 5)
    f = FeatureMap(rng.standard_normal((3, 6, 6)))
    q, k, v = (rng.standard_normal((4, 5)) for _ in range(3))
    assert bilinear_interpolate(f, 9, 4).data.tobytes() == bilinear_interpolate(f, 9, 4).data.tobytes()
    assert scaled_dot_attention(q, k, v).tobytes() == scaled_dot_attention(q, k, v).tobytes()
    assert global_avg_pool(f).tobytes() == global_avg_pool(f).tobytes()


# ---------------------------------------------------------------------------
# experts


def _check_generation_determinism():
    registry = default_registry()
    a = generate_base_feature(registry, 7)
    b = generate_base_feature(registry, 7)
    assert a.data.tobytes() == b.data.tobytes()
    for spec, planted in ((registry.experts[0], False), (registry.experts[2], True)):
        x = generate_expert_feature(spec, 9, planted, answer_vector=(0.5, -1.0))
        y = generate_expert_feature(spec, 9, planted, answer_vector=(0.5, -1.0))
        assert x.data.tobytes() == y.data.tobytes()
    assert generate_base_feature(registry, 8).data.tobytes() != a.data.tobytes()


def _check_planted_probe():
    registry = default_registry()
    rng = np.random.default_rng(_SUITE_SEED + 6)
    for spec in registry.experts[3:5]:
        answers = rng.standard_normal((64, 4))
        planted = [global_avg_pool(generate_expert_feature(spec, 1000 + i, True, answers[i])) for i in range(64)]
        held_out = [global_avg_pool(generate_expert_feature(spec, 5000 + i, False)) for i in range(64)]
        # The corpus's probe, fit on the planted rows only.
        residuals = probe_residuals(np.stack(planted + held_out), np.tile(answers, (2, 1)), np.arange(64))
        planted_res, held_res = float(residuals[:64].mean()), float(residuals[64:].mean())
        assert planted_res < 1e-6
        assert held_res >= 10 * planted_res


def _check_registry_roundtrip():
    registry = default_registry()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "experts.json"
        save_registry(registry, path)
        assert load_registry(path) == registry


# ---------------------------------------------------------------------------
# adapter


def _adapter_fixture():
    registry = default_registry()
    config = desk_config(seed=5)
    params = init_params(config, registry, seed=11)
    return registry, config, params


def _check_gate_simplex():
    registry, config, params = _adapter_fixture()
    gating = params.blocks[0].gating
    rng = np.random.default_rng(_SUITE_SEED + 7)
    n = len(registry)
    for _ in range(1000):
        k = int(rng.integers(1, n + 1))
        selection = ExpertSelection(tuple(int(i) for i in rng.choice(n, size=k, replace=False)))
        gin = GatingInput(
            visual_token=rng.standard_normal(config.hidden_dim),
            text_token=encode_text("check the gate", config.text_dim),
        )
        w = gate_weights(gin, selection, gating, "dynamic").weights
        assert abs(float(w.sum()) - 1.0) <= 1e-9
        if k >= 2:
            assert np.all((w > 0.0) & (w < 1.0))
        else:
            assert w.shape == (1,) and w[0] == 1.0


def _check_subset_consistency():
    registry, config, params = _adapter_fixture()
    gating = params.blocks[0].gating
    rng = np.random.default_rng(_SUITE_SEED + 8)
    gin = GatingInput(
        visual_token=rng.standard_normal(config.hidden_dim),
        text_token=encode_text("subset consistency", config.text_dim),
    )
    # Independent oracle: explicit MLP evaluation + masked softmax via numerics.
    joint = np.concatenate([gin.visual_token, gin.text_token.values])
    hidden = np.tanh(joint @ gating.hidden.weight + gating.hidden.bias)
    logits = hidden @ gating.logits.weight + gating.logits.bias
    n = len(registry)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            selection = ExpertSelection(subset)
            w = gate_weights(gin, selection, gating, "dynamic").weights
            mask = np.zeros(n, dtype=bool)
            mask[list(subset)] = True
            masked = softmax(logits, mask)[list(subset)]
            direct = softmax(logits[list(subset)])
            assert np.max(np.abs(w - masked)) <= 1e-12
            assert np.max(np.abs(w - direct)) <= 1e-12


def _check_selection_order_equivariance():
    registry, config, params = _adapter_fixture()
    rng = np.random.default_rng(_SUITE_SEED + 9)
    block = params.blocks[0]
    gin = GatingInput(
        visual_token=rng.standard_normal(config.hidden_dim),
        text_token=encode_text("order equivariance", config.text_dim),
    )
    base = FeatureMap(rng.standard_normal((config.hidden_dim, 4, 4)))
    feats = {
        spec.name: generate_expert_feature(spec, 77)
        for spec in registry.experts
    }
    order_a = ExpertSelection((0, 3, 5))
    order_b = ExpertSelection((5, 0, 3))
    maps = {
        i: extract_expert_knowledge(
            base, feats[registry.experts[i].name], block.extractors[registry.experts[i].name]
        )
        for i in order_a.indices
    }
    wa = gate_weights(gin, order_a, block.gating, "dynamic")
    wb = gate_weights(gin, order_b, block.gating, "dynamic")
    perm = [order_b.indices.index(i) for i in order_a.indices]
    assert np.max(np.abs(wa.weights - wb.weights[perm])) <= 1e-12
    fused_a = fuse([maps[i] for i in order_a.indices], wa)
    fused_b = fuse([maps[i] for i in order_b.indices], wb)
    assert np.max(np.abs(fused_a.data - fused_b.data)) <= 1e-12


def _check_irrelevance_exclusion():
    registry, config, params = _adapter_fixture()
    selection = ExpertSelection((0, 3))
    base = generate_base_feature(registry, 42)
    feats = {spec.name: generate_expert_feature(spec, 42) for spec in registry.experts}
    out_a = adapter_apply(base, feats, selection, "what is planted?", params, config).tokens
    perturbed = dict(feats)
    spec = registry.experts[5]  # not in the selection
    perturbed[spec.name] = generate_expert_feature(spec, 4242)
    out_b = adapter_apply(base, perturbed, selection, "what is planted?", params, config).tokens
    assert out_a.tobytes() == out_b.tobytes()
    empty = ExpertSelection(())
    e1 = adapter_apply(base, feats, empty, "question one", params, config).tokens
    e2 = adapter_apply(base, feats, empty, "a different question", params, config).tokens
    assert e1.tobytes() == e2.tobytes()


def _check_residual_identity():
    registry, config, params = _adapter_fixture()
    block = params.blocks[0]
    name = registry.experts[1].name
    cap = block.extractors[name]
    zeroed = clone_params(params).blocks[0].extractors[name]
    zeroed.out.weight[:] = 0.0
    zeroed.out.bias[:] = 0.0
    rng = np.random.default_rng(_SUITE_SEED + 10)
    x = FeatureMap(rng.standard_normal((config.hidden_dim, 4, 4)))
    feat = generate_expert_feature(registry.experts[1], 3)
    out = extract_expert_knowledge(x, feat, zeroed)
    assert out.data.tobytes() == x.data.tobytes()
    assert cap.out.weight.any()  # the original params were not touched


def _check_gradient_spot():
    registry, config, params = _adapter_fixture()
    answer = np.random.default_rng(_SUITE_SEED + 11).standard_normal(4)
    runner = planted_runner(registry, config, 21, answer, "find it", params)
    rng = np.random.default_rng(_SUITE_SEED + 12)
    arrays = runner.arrays
    names = sorted(
        n for n in arrays
        if ".gate." in n or ".extract.dinov2." in n or n.startswith("projector")
    )
    chosen = [names[int(i)] for i in rng.choice(len(names), size=10, replace=False)]
    entries = {name: [int(rng.integers(arrays[name].size))] for name in chosen}
    for name, result in probe_planted(runner, entries, eps=1e-5).items():
        assert result.max_rel_error < 1e-4, f"{name}: {result.max_rel_error}"


# ---------------------------------------------------------------------------
# routing


def _check_prompt_parse_roundtrip():
    registry = default_registry()
    n = len(registry)
    for question in (
        "Where is the ### sign?\n###\nStill the question.",
        "what does ### mean?\n###\nanswer me",
    ):
        assert extract_question(build_routing_prompt(registry, question)) == question
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            selection = ExpertSelection(subset)
            rendered = render_selection(selection)
            assert parse_routing_response(rendered, registry).indices == subset


def _check_parse_idempotent():
    registry = default_registry()
    for response in ("A, D", "B", "G.", "B A C", "G, A, C.", "E D A"):
        once = render_selection(parse_routing_response(response, registry))
        twice = render_selection(parse_routing_response(once, registry))
        assert once == twice


def _check_coarse_mean_preservation():
    rng = np.random.default_rng(_SUITE_SEED + 13)
    for size in (16, 24):
        base = FeatureMap(rng.standard_normal((5, size, size)))
        tokens = coarse_image_tokens(base, grid=8)
        assert tokens.shape == (64, 5)
        assert abs(tokens.mean() - base.data.mean()) <= 1e-9


def _check_random_cap():
    registry = default_registry()
    sample = Sample(sample_id="x", image_seed=0, question="q")
    for seed in range(10_000):
        decision = route("random", registry, sample, RoutingContext(seed=seed, cap=3))
        assert 1 <= decision.selection.k <= 3


# ---------------------------------------------------------------------------
# routing_data


def _oracle_routing_set(record: LossRecord, cap: int) -> list[int]:
    qualifying = sorted(
        (loss, idx)
        for idx, loss in enumerate(record.expert_losses)
        if loss < record.base_loss
    )
    return [idx for _, idx in qualifying[:cap]]


# Three experts beat the base loss and one ties it: the cap and the strict inequality bind.
_FIXED_RECORD = LossRecord("s", 2.0, (1.5, 1.9, 1.99, 1.0, 2.3, 2.1, 2.0))


def _random_records(count: int, n: int, seed: int) -> list[LossRecord]:
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        # Coarse quantization manufactures plenty of ties.
        losses = np.round(rng.random(n + 1) * 4, 1)
        records.append(LossRecord(f"r{i}", float(losses[0]), losses[1:].tolist()))
    return records


def _check_constructor_vs_bruteforce():
    registry = default_registry()
    n = len(registry)
    for i, record in enumerate(_random_records(10_000, n, _SUITE_SEED + 14)):
        cap = 1 + i % 4
        annotation = construct_routing_set(record, registry, cap)
        expected = tuple(registry.experts[i].name for i in _oracle_routing_set(record, cap))
        assert annotation.experts == expected
        assert len(annotation.experts) <= cap
        for name in annotation.experts:
            assert record.expert_losses[registry.index_of(name)] < record.base_loss


def _check_monotonicity():
    registry = default_registry()
    rng = np.random.default_rng(_SUITE_SEED + 15)
    for record in [_FIXED_RECORD, *_random_records(300, len(registry), _SUITE_SEED + 16)]:
        before = construct_routing_set(record, registry, 3)
        for name in before.experts:
            idx = registry.index_of(name)
            for factor in (0.5, float(rng.random())):
                lowered = list(record.expert_losses)
                lowered[idx] = lowered[idx] * factor
                after = construct_routing_set(
                    LossRecord(record.sample_id, record.base_loss, tuple(lowered)), registry, 3
                )
                assert name in after.experts


def _check_scale_invariance():
    registry = default_registry()
    for record in [_FIXED_RECORD, *_random_records(300, len(registry), _SUITE_SEED + 17)]:
        for factor in (2.5, 3.5):
            scaled = LossRecord(
                record.sample_id,
                record.base_loss * factor,
                tuple(v * factor for v in record.expert_losses),
            )
            assert (
                construct_routing_set(record, registry, 3).experts
                == construct_routing_set(scaled, registry, 3).experts
            )


# ---------------------------------------------------------------------------
# harness


def _check_pipeline_determinism():
    from mova.harness.pipeline import run_pipeline

    registry = default_registry()
    config = desk_config(seed=3)
    params = init_params(config, registry, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.movt", Path(tmp) / "b.movt"]
        for path in paths:
            run_pipeline(
                registry,
                "read the chart",
                "scripted",
                RoutingContext(response="A, D"),
                config,
                params,
                image_seed=11,
                out_path=path,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()
        reloaded = load_tensor(paths[0])
        save_tensor(paths[0], reloaded)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def _check_frozen_experts():
    registry = default_registry()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        generate_synthetic_corpus(registry, 8, seed=5, out_dir=corpus, answer_dim=4)
        before = Path(tmp) / "before.json"
        after = Path(tmp) / "after.json"
        save_registry(registry, before)
        config = ToyTrainConfig(
            corpus_dir=str(corpus), steps=3, learning_rate=0.05, batch_size=4, seed=5,
            selection=("dinov2", "pix2struct"), eval_samples=4, gradcheck_entries=4,
        )
        train_toy(config, registry)
        save_registry(registry, after)
        assert before.read_bytes() == after.read_bytes()


def _check_ablation_fairness():
    config_a = ToyTrainConfig(corpus_dir="unused", steps=2, seed=9, batch_size=6)
    config_b = ToyTrainConfig(
        corpus_dir="unused", steps=2, seed=9, batch_size=6,
        adapter=desk_config(gating_mode="uniform"),
    )
    idx_a = training_batch_indices(40, config_a)
    idx_b = training_batch_indices(40, config_b)
    assert np.array_equal(idx_a, idx_b)


# ---------------------------------------------------------------------------


def property_checks() -> dict[str, list[tuple[str, Check]]]:
    """Every invariant check as {group: [(name, check)]}, in report order."""
    return {
        "numerics": [
            ("softmax_simplex", _check_softmax_simplex),
            ("softmax_shift_invariance", _check_softmax_shift_invariance),
            ("bilinear_identity_and_bounds", _check_bilinear_identity_and_bounds),
            ("attention_convex_hull", _check_attention_convex_hull),
            ("matmul_vs_naive", _check_matmul_vs_naive),
            ("purity_bitwise", _check_purity_bitwise),
        ],
        "experts": [
            ("generation_determinism", _check_generation_determinism),
            ("planted_probe", _check_planted_probe),
            ("registry_roundtrip", _check_registry_roundtrip),
        ],
        "gate-simplex": [
            ("gate_simplex_1000", _check_gate_simplex),
            ("subset_consistency", _check_subset_consistency),
        ],
        "adapter": [
            ("selection_order_equivariance", _check_selection_order_equivariance),
            ("irrelevance_exclusion", _check_irrelevance_exclusion),
            ("residual_identity", _check_residual_identity),
            ("gradient_spot_check", _check_gradient_spot),
        ],
        "routing": [
            ("prompt_parse_roundtrip", _check_prompt_parse_roundtrip),
            ("parse_idempotent", _check_parse_idempotent),
            ("coarse_mean_preservation", _check_coarse_mean_preservation),
            ("random_cap", _check_random_cap),
        ],
        "routing-data": [
            ("constructor_vs_bruteforce", _check_constructor_vs_bruteforce),
            ("monotonicity", _check_monotonicity),
            ("scale_invariance", _check_scale_invariance),
        ],
        "harness": [
            ("pipeline_determinism", _check_pipeline_determinism),
            ("frozen_experts", _check_frozen_experts),
            ("ablation_fairness", _check_ablation_fairness),
        ],
    }


def run_property_suite() -> SuiteReport:
    """Run every invariant group; failures are results, not exceptions."""
    report: dict[str, GroupResult] = {}
    for group, checks in property_checks().items():
        result = GroupResult()
        for name, check in checks:
            try:
                check()
            except (AssertionError, MovaError) as exc:
                result.failed += 1
                result.failures.append(f"{name}: {exc}")
            else:
                result.passed += 1
        report[group] = result
    return SuiteReport(groups=report)
