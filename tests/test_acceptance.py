"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances and runtime caps
are fixed here; nothing is calibrated at run time.
"""

import itertools
import json
import time

import numpy as np
import pytest

import oracles
from mova.adapter.config import AdapterConfig, desk_config
from mova.adapter.network import (
    GateWeights,
    GatingInput,
    adapter_apply,
    extract_expert_knowledge,
    fuse,
    gate_weights,
)
from mova.adapter.params import clone_params, init_params
from mova.adapter.text import encode_text
from mova.experts import (
    ExpertRegistry,
    ExpertSpec,
    default_registry,
    generate_base_feature,
    generate_expert_feature,
)
from mova.harness.ablate import run_ablation
from mova.harness.cli import main
from mova.harness.gradcheck_run import full_gradient_check
from mova.harness.train import ToyTrainConfig, train_toy
from mova.numerics.movt import load_tensor, save_tensor
from mova.numerics.ops import softmax
from mova.numerics.tensor import FeatureMap
from mova.routing import (
    ExpertSelection,
    build_routing_prompt,
    coarse_image_tokens,
    parse_routing_response,
)
from mova.routing_data import (
    LossRecord,
    build_annotations,
    construct_routing_set,
    generate_synthetic_corpus,
    load_annotations,
    load_ground_truth,
    load_loss_records,
    save_annotations,
    save_ground_truth,
    save_loss_records,
    score_routing_accuracy,
)

REGISTRY = default_registry()


def ok(criterion, message):
    print(f"\n[acceptance] criterion {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def all_features(image_seed, planted=None, answer=()):
    return {
        spec.name: generate_expert_feature(
            spec, image_seed, planted=(spec.name == planted), answer_vector=answer
        )
        for spec in REGISTRY.experts
    }


def test_criterion_1_structural_constants():
    started = time.perf_counter()
    wide = ExpertRegistry(
        experts=(ExpertSpec("A", "solo", "the only expert", 8, 4, 4, 1),),
        base_channels=16,
        base_height=48,
        base_width=48,
    )
    config = AdapterConfig(hidden_dim=16, text_dim=8, llm_dim=8, gating_hidden=8)
    params = init_params(config, wide, seed=0)
    base = generate_base_feature(wide, 1)
    assert base.height * base.width == 2304
    out = adapter_apply(base, {}, ExpertSelection(()), "count the tokens", params, config).tokens
    assert out.shape[0] == 576

    tokens = coarse_image_tokens(base, grid=8)
    assert tokens.shape == (64, 16)

    assert config.num_blocks == 3
    assert desk_config().num_blocks == 3

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    ok(1, f"2304 -> 576 tokens, 64 coarse tokens, L=3 ({elapsed:.1f}s)")


def test_criterion_2_routing_protocol_fidelity():
    question = "Where is the red sign and what does it say?"
    lines = build_routing_prompt(REGISTRY, question).split("\n")
    assert lines[0] == (
        "As a router, your task is to choose several models from a model pool to "
        "assist you. Below is a brief overview of the expertise of each model in "
        "the pool:"
    )
    for i, expert in enumerate(REGISTRY.experts):
        assert lines[1 + i] == f"{expert.letter}. {expert.description}"
    assert lines[8] == "Here is user question:"
    assert lines[9] == "###"
    assert lines[10] == question
    assert lines[11] == "###"
    assert lines[12] == (
        "Identify and select models that will best enable you to accurately answer "
        "questions. Please consider the image contents, questions, and expertise of "
        "these models when you perform selection. Answer with the model's letter "
        "from the given choices directly."
    )

    selection = parse_routing_response("A, D", REGISTRY)
    names = {REGISTRY.experts[i].name for i in selection.indices}
    assert names == {"dinov2", "pix2struct"}
    ok(2, "prompt skeleton verbatim; 'A, D' -> {dinov2, pix2struct}")


def test_criterion_3_equation_oracle_equivalence():
    config = desk_config(seed=31)
    params = init_params(config, REGISTRY, seed=31)
    rng = np.random.default_rng(31)
    worst = 0.0
    for case in range(100):
        block = params.blocks[case % 3]
        spec = REGISTRY.experts[case % 7]
        x = FeatureMap(rng.standard_normal((8, 4, 4)))
        feat = generate_expert_feature(spec, case)
        cap = block.extractors[spec.name]
        got = extract_expert_knowledge(x, feat, cap)
        want = oracles.extract(x.data, feat.data, cap)
        worst = max(worst, float(np.max(np.abs(got.data - want))))

        k = int(rng.integers(1, 8))
        selection = ExpertSelection(tuple(int(i) for i in rng.choice(7, k, replace=False)))
        gin = GatingInput(
            visual_token=rng.standard_normal(8),
            text_token=encode_text(f"case {case}", 8),
        )
        got_w = gate_weights(gin, selection, block.gating).weights
        want_w = oracles.gate(
            gin.visual_token, gin.text_token.values, block.gating, selection.indices
        )
        worst = max(worst, float(np.max(np.abs(got_w - want_w))))

        maps = [FeatureMap(rng.standard_normal((8, 4, 4))) for _ in range(3)]
        weights = GateWeights(softmax(rng.standard_normal(3)))
        got_f = fuse(maps, weights)
        want_f = sum(w * m.data for w, m in zip(weights.weights, maps))
        worst = max(worst, float(np.max(np.abs(got_f.data - want_f))))
    assert worst < 1e-10, worst

    # degenerate cases hold exactly
    x = FeatureMap(rng.standard_normal((8, 4, 4)))
    same_size = FeatureMap(rng.standard_normal((16, 4, 4)))
    from mova.numerics.ops import bilinear_interpolate

    assert bilinear_interpolate(same_size, 4, 4).data.tobytes() == same_size.data.tobytes()
    single = FeatureMap(rng.standard_normal((8, 4, 4)))
    assert fuse([single], GateWeights(np.array([1.0]))).data.tobytes() == single.data.tobytes()
    zeroed = clone_params(params).blocks[0].extractors["sam"]
    zeroed.out.weight[:] = 0.0
    zeroed.out.bias[:] = 0.0
    feat = generate_expert_feature(REGISTRY.experts[2], 5)
    assert extract_expert_knowledge(x, feat, zeroed).data.tobytes() == x.data.tobytes()
    ok(3, f"100 seeded instances match step-by-step oracles (max |err| {worst:.2e})")


def test_criterion_4_gate_simplex_and_subset_consistency():
    config = desk_config(seed=41)
    params = init_params(config, REGISTRY, seed=41)
    gating = params.blocks[0].gating
    rng = np.random.default_rng(41)
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        selection = ExpertSelection(tuple(int(i) for i in rng.choice(7, k, replace=False)))
        gin = GatingInput(
            visual_token=rng.standard_normal(8),
            text_token=encode_text("weigh the experts", 8),
        )
        w = gate_weights(gin, selection, gating).weights
        assert abs(float(w.sum()) - 1.0) <= 1e-9
        if k >= 2:
            assert np.all((w > 0.0) & (w < 1.0))

    logits = np.random.default_rng(42).standard_normal(7)
    count = 0
    for r in range(1, 8):
        for subset in itertools.combinations(range(7), r):
            mask = np.zeros(7, dtype=bool)
            mask[list(subset)] = True
            masked = softmax(logits, mask)[list(subset)]
            direct = softmax(logits[list(subset)])
            assert np.max(np.abs(masked - direct)) <= 1e-12
            count += 1
    assert count == 127
    ok(4, "1000 gate draws on the simplex; 127 masked/subset softmax pairs agree")


def test_criterion_5_routing_constructor_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(51)

    def brute_force(record, cap):
        qualifying = sorted(
            (loss, idx)
            for idx, loss in enumerate(record.expert_losses)
            if loss < record.base_loss
        )
        return tuple(REGISTRY.experts[idx].name for _, idx in qualifying[:cap])

    for i in range(10_000):
        losses = np.round(rng.random(8) * 4, 1)
        record = LossRecord(f"r{i}", float(losses[0]), tuple(float(v) for v in losses[1:]))
        cap = int(rng.integers(1, 5))
        annotation = construct_routing_set(record, REGISTRY, cap)
        assert annotation.experts == brute_force(record, cap)

        scaled = LossRecord(
            record.sample_id,
            record.base_loss * 2.5,
            tuple(v * 2.5 for v in record.expert_losses),
        )
        assert construct_routing_set(scaled, REGISTRY, cap).experts == annotation.experts

        if annotation.experts:
            name = annotation.experts[int(rng.integers(len(annotation.experts)))]
            idx = REGISTRY.index_of(name)
            lowered = list(record.expert_losses)
            lowered[idx] *= 0.5
            after = construct_routing_set(
                LossRecord(record.sample_id, record.base_loss, tuple(lowered)), REGISTRY, cap
            )
            assert name in after.experts
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    ok(5, f"10,000 records match the brute-force oracle ({elapsed:.1f}s)")


def test_criterion_6_synthetic_routing_recovery(workdir):
    clean = workdir / "recovery-noise0"
    generate_synthetic_corpus(REGISTRY, 200, seed=42, out_dir=clean, noise_scale=0.0)
    build_annotations(clean / "losses.jsonl", REGISTRY, 3, clean / "routing.jsonl")
    accuracy = score_routing_accuracy(
        load_annotations(clean / "routing.jsonl"),
        load_ground_truth(clean / "ground_truth.jsonl"),
    )
    assert accuracy == 1.0

    # Documented operating point: noise scale 0.25 with the shipped seed.
    noisy = workdir / "recovery-noise025"
    generate_synthetic_corpus(REGISTRY, 200, seed=42, out_dir=noisy, noise_scale=0.25)
    build_annotations(noisy / "losses.jsonl", REGISTRY, 3, noisy / "routing.jsonl")
    noisy_accuracy = score_routing_accuracy(
        load_annotations(noisy / "routing.jsonl"),
        load_ground_truth(noisy / "ground_truth.jsonl"),
    )
    assert noisy_accuracy >= 0.9
    ok(6, f"accuracy 1.0 at noise 0; {noisy_accuracy:.3f} at noise 0.25")


def test_criterion_7_gradient_correctness():
    started = time.perf_counter()
    report = full_gradient_check(eps=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - started
    assert report["ok"], report
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    ok(
        7,
        "gating/extractor/projector gradients at max rel err "
        f"{report['max_rel_error']:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_8_gating_concentration_and_ablation_ordering(workdir):
    planted_dir = workdir / "planted-pix2struct"
    generate_synthetic_corpus(
        REGISTRY, 64, seed=42, out_dir=planted_dir, planted_pool="pix2struct"
    )
    concentration = ToyTrainConfig(
        corpus_dir=str(planted_dir),
        steps=500,
        learning_rate=0.2,
        batch_size=16,
        seed=42,
        scope="full-adapter",
        selection=("dinov2", "pix2struct"),
        eval_samples=32,
    )
    report, _ = train_toy(concentration, REGISTRY)
    gates = report.mean_gate_weights
    assert gates["pix2struct"] > 0.5
    assert all(gates["pix2struct"] > w for name, w in gates.items() if name != "pix2struct")

    mixed_dir = workdir / "mixed-three"
    generate_synthetic_corpus(
        REGISTRY, 96, seed=42, out_dir=mixed_dir,
        planted_pool=("dinov2", "pix2struct", "deplot"),
    )
    arm = dict(
        corpus_dir=str(mixed_dir), steps=400, learning_rate=0.2, batch_size=48,
        seed=42, scope="full-adapter", eval_samples=48,
    )
    gating_pair = run_ablation(
        ["dynamic", "uniform-gating"],
        ToyTrainConfig(selection=("dinov2", "pix2struct", "deplot"), **arm),
        REGISTRY,
    )["modes"]
    assert gating_pair["dynamic"]["eval_loss"] <= gating_pair["uniform-gating"]["eval_loss"]

    routing_pair = run_ablation(
        ["dynamic", "random-routing"], ToyTrainConfig(selection=None, **arm), REGISTRY
    )["modes"]
    assert routing_pair["dynamic"]["eval_loss"] <= routing_pair["random-routing"]["eval_loss"]
    ok(
        8,
        f"pix2struct gate {gates['pix2struct']:.3f} > 0.5; "
        f"dynamic {gating_pair['dynamic']['eval_loss']:.3f} <= "
        f"uniform {gating_pair['uniform-gating']['eval_loss']:.3f}; "
        f"oracle {routing_pair['dynamic']['eval_loss']:.3f} <= "
        f"random {routing_pair['random-routing']['eval_loss']:.3f}",
    )


def test_criterion_9_irrelevance_exclusion():
    config = desk_config(seed=91)
    params = init_params(config, REGISTRY, seed=91)
    base = generate_base_feature(REGISTRY, 9)
    features = all_features(9)
    selection = ExpertSelection((0, 3))
    reference = adapter_apply(base, features, selection, "what is here?", params, config).tokens
    for spec in REGISTRY.experts:
        if spec.name in ("dinov2", "pix2struct"):
            continue
        perturbed = dict(features)
        perturbed[spec.name] = generate_expert_feature(spec, 10_000 + spec.seed)
        out = adapter_apply(base, perturbed, selection, "what is here?", params, config).tokens
        assert out.tobytes() == reference.tobytes(), spec.name

    empty = ExpertSelection(())
    a = adapter_apply(base, features, empty, "first question", params, config).tokens
    b = adapter_apply(base, features, empty, "second question entirely", params, config).tokens
    assert a.tobytes() == b.tobytes()
    ok(9, "routed-out features cannot reach the output; empty routing ignores the question")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_10_cli_determinism_and_formats(workdir, capsys):
    corpus = workdir / "cli-corpus"
    twice = {}
    for tag in ("a", "b"):
        out = workdir / f"cli-{tag}"
        commands = {
            "gen-synthetic": (
                "gen-synthetic", "--samples", "10", "--seed", "6", "--noise", "0.25",
                "--out", str(out / "corpus"),
            ),
            "build-routing-data": (
                "build-routing-data", "--losses", str(out / "corpus/losses.jsonl"),
                "--out", str(out / "routing.jsonl"),
            ),
            "score-routing": (
                "score-routing", "--annotations", str(out / "routing.jsonl"),
                "--truth", str(out / "corpus/ground_truth.jsonl"),
            ),
            "route": (
                "route", "--question", "read the sign", "--strategy", "random",
                "--seed", "3",
            ),
            "fuse": (
                "fuse", "--question", "read the sign", "--strategy", "scripted",
                "--response", "A, D", "--image-seed", "4", "--out", str(out / "tokens.movt"),
            ),
            "train-toy": ("train-toy", "--config", str(out / "toy.json"),
                          "--report", str(out / "train-report.json")),
            "ablate": (
                "ablate", "--modes", "all-experts,fixed-K:7", "--corpus", str(out / "corpus"),
                "--steps", "2", "--batch-size", "4", "--seed", "2", "--eval-samples", "4",
                "--report", str(out / "ablate-report.json"),
            ),
            "gradcheck": ("gradcheck", "--eps", "1e-5", "--tol", "1e-4"),
            "check": ("check", "--report", str(out / "check-report.json")),
        }
        out.mkdir()
        (out / "toy.json").write_text(json.dumps({
            "corpus": "corpus", "steps": 3, "learning_rate": 0.05, "batch_size": 4,
            "seed": 7, "selection": ["dinov2", "pix2struct"], "eval_samples": 4,
            "gradcheck_entries": 4,
        }))
        stdouts = {}
        for name, argv in commands.items():
            code, stdout = run_cli(capsys, *argv)
            assert code == 0, f"{name} exited {code}: {stdout}"
            stdouts[name] = stdout.replace(str(out), "<out>")
        artifacts = {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.suffix in (".jsonl", ".movt", ".json")
        }
        twice[tag] = (stdouts, artifacts)
    assert twice["a"][0] == twice["b"][0], "stdout differs between runs"
    assert twice["a"][1] == twice["b"][1], "artifacts differ between runs"

    # Round trips: MOVT and all three JSONL formats.
    out = workdir / "cli-a"
    tensor_path = out / "tokens.movt"
    save_tensor(workdir / "tokens-rt.movt", load_tensor(tensor_path))
    assert (workdir / "tokens-rt.movt").read_bytes() == tensor_path.read_bytes()

    losses = out / "corpus/losses.jsonl"
    save_loss_records(workdir / "losses-rt.jsonl", load_loss_records(losses))
    assert (workdir / "losses-rt.jsonl").read_bytes() == losses.read_bytes()

    routing = out / "routing.jsonl"
    save_annotations(workdir / "routing-rt.jsonl", load_annotations(routing))
    assert (workdir / "routing-rt.jsonl").read_bytes() == routing.read_bytes()

    truth = out / "corpus/ground_truth.jsonl"
    save_ground_truth(workdir / "truth-rt.jsonl", load_ground_truth(truth))
    assert (workdir / "truth-rt.jsonl").read_bytes() == truth.read_bytes()
    ok(10, "nine CLI commands byte-reproducible; MOVT and JSONL formats round-trip")
