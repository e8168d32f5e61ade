import hashlib
import json
import pickle

import numpy as np
import pytest

from mova.adapter.config import desk_config
from mova.adapter.network import GateWeights
from mova.adapter.params import init_params, named_arrays
from mova import errors, forked
from mova.errors import PipelineError, TrainingError, ValidationError
from mova.experts import default_registry
from mova.harness import properties, train
from mova.harness.ablate import run_ablation
from mova.harness.pipeline import run_pipeline
from mova.harness.properties import property_checks, run_property_suite
from mova.harness.train import (
    ToyTrainConfig,
    _corpus_provider,
    _CorpusRunner,
    _spot_check_gradients,
    load_toy_config,
    scope_names,
    train_toy,
)
from mova.numerics.movt import load_tensor
from mova.routing import RoutingContext
from mova.routing_data import generate_synthetic_corpus, load_samples


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, registry):
    path = tmp_path_factory.mktemp("corpus") / "c"
    generate_synthetic_corpus(registry, 16, seed=5, out_dir=path, answer_dim=4)
    return str(path)


def tiny_config(corpus, **overrides):
    defaults = dict(
        corpus_dir=corpus,
        steps=4,
        learning_rate=0.05,
        batch_size=4,
        seed=7,
        scope="full-adapter",
        selection=("dinov2", "pix2struct"),
        eval_samples=4,
        gradcheck_entries=4,
    )
    defaults.update(overrides)
    return ToyTrainConfig(**defaults)


class TestPipeline:
    def setup_method(self):
        self.registry = default_registry()
        self.config = desk_config(seed=3)
        self.params = init_params(self.config, self.registry, seed=3)

    def run(self, tmp_path, response="A, D", out_name="tokens.movt"):
        return run_pipeline(
            self.registry,
            "Where is the red sign and what does it say?",
            "scripted",
            RoutingContext(response=response),
            self.config,
            self.params,
            image_seed=11,
            out_path=tmp_path / out_name,
        )

    def test_scripted_gate_summary_lists_exactly_the_selection(self, tmp_path):
        result = self.run(tmp_path)
        assert result.expert_names == ("dinov2", "pix2struct")
        assert len(result.gate_summary) == 3
        for block in result.gate_summary:
            assert set(block) == {"dinov2", "pix2struct"}
            assert abs(sum(block.values()) - 1.0) < 1e-9

    def test_empty_response_surfaces_routing_stage(self, tmp_path):
        with pytest.raises(PipelineError) as err:
            self.run(tmp_path, response="")
        assert err.value.stage == "routing"

    def test_output_file_is_byte_reproducible(self, tmp_path):
        self.run(tmp_path, out_name="a.movt")
        self.run(tmp_path, out_name="b.movt")
        assert (tmp_path / "a.movt").read_bytes() == (tmp_path / "b.movt").read_bytes()

    def test_tokens_file_matches_returned_matrix(self, tmp_path):
        result = self.run(tmp_path)
        assert result.tokens.shape == (16, 32)
        reloaded = load_tensor(tmp_path / "tokens.movt")
        assert np.array_equal(
            reloaded, result.tokens.astype(np.float32).astype(np.float64)
        )

    def test_summary_dict_shape(self, tmp_path):
        summary = self.run(tmp_path).summary_dict()
        assert summary["routing"]["letters"] == ["A", "D"]
        assert summary["tokens"]["shape"] == [16, 32]

    def test_empty_annotation_takes_base_only_path(self, tmp_path):
        from mova.routing_data import RoutingAnnotation

        result = run_pipeline(
            self.registry,
            "anything at all",
            "annotation",
            RoutingContext(annotations={"cli": RoutingAnnotation("cli", ())}),
            self.config,
            self.params,
            image_seed=11,
            out_path=tmp_path / "tokens.movt",
        )
        assert result.decision.selection.k == 0
        assert result.gate_summary == ()
        assert result.tokens.shape == (16, 32)


def test_every_error_survives_a_pickle_round_trip():
    """A forked child's error comes back through pickle with its type, text and fields."""
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.MovaError)]
    assert PipelineError in classes and len(classes) > 10
    for cls in classes:
        exc = cls("route", "boom") if cls is PipelineError else cls("boom")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc) and vars(back) == vars(exc), cls
        assert forked.sendable(exc) is exc
    assert pickle.loads(pickle.dumps(PipelineError("route", "boom"))).stage == "route"


class TestTrainToy:
    def test_zero_learning_rate_keeps_loss_trace_constant(self, corpus, registry):
        report, _ = train_toy(tiny_config(corpus, learning_rate=0.0, steps=5), registry)
        assert len(report.loss_trace) == 5
        assert len(set(report.loss_trace)) == 1

    def test_loss_decreases_with_updates(self, corpus, registry):
        report, _ = train_toy(tiny_config(corpus, steps=30, learning_rate=0.1), registry)
        assert report.loss_trace[-1] < report.loss_trace[0]

    def test_oracle_training_report_is_pinned(self, corpus, registry):
        """A 3-step oracle-routed run is pinned bit for bit, spot check included.

        Unlike the inference digests in perfbench/golden.json, which hold under
        every OpenBLAS kernel measured, this digest holds only under the kernel
        it was taken with (SkylakeX): training's matrix products round
        differently under others, such as Haswell and Sandybridge.

        K runs from 2 to 3 and every expert is shared: expert 4 by all 16
        samples, the others by 2 to 5. A tape change that keeps the arithmetic
        keeps this digest.
        """
        config = tiny_config(corpus, steps=3, batch_size=16, selection=None, eval_samples=16)
        samples = load_samples(f"{corpus}/samples.jsonl")
        ks = {_corpus_provider(config, registry)(s).k for s in samples}
        assert len(samples) == 16 and ks == {2, 3}
        report, _ = train_toy(config, registry)
        artifact = json.dumps(report.artifact_dict(), sort_keys=True).encode()
        assert hashlib.sha256(artifact).hexdigest() == (
            "3ab4534d88c08eb238b7d58c04acc07cf107d91bb15b2cc11628d10a5412f15e"
        )

    def test_gradcheck_summary_present_and_tight(self, corpus, registry):
        report, _ = train_toy(tiny_config(corpus), registry)
        assert report.gradcheck["entries_checked"] == 4
        assert report.gradcheck["max_rel_error"] < 1e-4

    def test_mean_gate_weights_cover_pool_and_sum_to_one(self, corpus, registry):
        report, _ = train_toy(tiny_config(corpus), registry)
        assert set(report.mean_gate_weights) == {e.name for e in registry.experts}
        assert abs(sum(report.mean_gate_weights.values()) - 1.0) < 1e-9

    def test_training_is_deterministic(self, corpus, registry):
        a, _ = train_toy(tiny_config(corpus, steps=6), registry)
        b, _ = train_toy(tiny_config(corpus, steps=6), registry)
        assert a.loss_trace == b.loss_trace
        assert a.mean_gate_weights == b.mean_gate_weights

    def test_scope_filters_trainable_names(self, corpus, registry):
        params = init_params(desk_config(), registry)
        gating = scope_names(params, "gating")
        extended = scope_names(params, "gating+extractor")
        everything = scope_names(params, "full-adapter")
        assert gating < extended < everything
        assert all(".gate." in name for name in gating)

    def test_scope_restricts_updates(self, corpus, registry):
        config = tiny_config(corpus, scope="gating", steps=6, learning_rate=0.2)
        _, trained = train_toy(config, registry)
        fresh = init_params(config.adapter, registry)
        for (name, arr), (_, ref) in zip(named_arrays(trained), named_arrays(fresh)):
            if ".gate." in name:
                continue
            assert np.array_equal(arr, ref), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_training_error(self, corpus, registry):
        # steps=2 diverges on its last update, after the last finite loss.
        for steps in (40, 2):
            with pytest.raises(TrainingError):
                train_toy(tiny_config(corpus, learning_rate=1e6, steps=steps), registry)

    def test_spot_check_fails_on_non_finite_gradient(self, corpus, registry):
        config = tiny_config(corpus)
        samples = load_samples(f"{corpus}/samples.jsonl")
        params = init_params(config.adapter, registry)
        runner = _CorpusRunner(registry, config.adapter, samples, _corpus_provider(config, registry), params)
        grad = np.full(runner.flat.size, np.nan)
        with pytest.raises(TrainingError, match="step-0 gradient check failed: .*non-finite"):
            _spot_check_gradients(config, runner, samples[:4], grad, set(runner.segments), ())

    def test_spot_check_calls_only_batch_loss_value(self, corpus, registry, monkeypatch):
        """Step 0's spot check runs two batch_loss_value calls per probed entry,
        each resumed from what step 0's batch_loss kept, and no batch_loss: the
        benchmark times exactly these calls."""
        calls = []

        def counted(name):
            method = getattr(_CorpusRunner, name)

            def wrapped(self, *args, **kwargs):
                calls.append((name, kwargs))
                return method(self, *args, **kwargs)

            return wrapped

        for name in ("batch_loss", "batch_loss_value"):
            monkeypatch.setattr(_CorpusRunner, name, counted(name))
        config = tiny_config(corpus, steps=1, selection=None, gradcheck_entries=32)
        report, _ = train_toy(config, registry)
        checked = report.gradcheck["entries_checked"]
        assert checked == 32
        assert [name for name, _ in calls] == ["batch_loss"] + ["batch_loss_value"] * 2 * checked
        stages = {kwargs["stage"] for _, kwargs in calls[1:]}
        assert stages == {0, 1, 2, 3} and all(kwargs["kept"] for _, kwargs in calls[1:])

    def test_params_are_walked_a_fixed_number_of_times(self, corpus, registry, monkeypatch):
        """No step walks the params tree: the runner keeps the names and arrays of
        the one walk it makes when it is built."""
        walks = []
        original = train.named_arrays

        def named_arrays(params):
            walks.append(params)
            return original(params)

        monkeypatch.setattr(train, "named_arrays", named_arrays)
        counts = []
        for steps in (2, 6):
            walks.clear()
            train_toy(tiny_config(corpus, steps=steps), registry)
            counts.append(len(walks))
        assert counts[0] == counts[1]

    def test_load_toy_config_resolves_relative_paths(self, corpus, registry, tmp_path):
        import json

        (tmp_path / "toy.json").write_text(
            json.dumps({"corpus": corpus, "steps": 3, "selection": ["dinov2"]})
        )
        config, loaded_registry = load_toy_config(tmp_path / "toy.json")
        assert config.steps == 3
        assert config.selection == ("dinov2",)
        assert len(loaded_registry) == 7

    def test_load_toy_config_rejects_unknown_keys(self, tmp_path):
        import json

        (tmp_path / "toy.json").write_text(json.dumps({"corpus": "c", "stepz": 3}))
        with pytest.raises(ValidationError, match="stepz"):
            load_toy_config(tmp_path / "toy.json")


class TestAblation:
    def test_one_entry_per_requested_mode(self, corpus, registry):
        config = tiny_config(corpus, selection=None)
        report = run_ablation(["dynamic", "all-experts"], config, registry)
        assert set(report["modes"]) == {"dynamic", "all-experts"}

    def test_fixed_k_full_pool_equals_all_experts_bitwise(self, corpus, registry):
        config = tiny_config(corpus, selection=None, steps=3)
        report = run_ablation(["fixed-K:7", "all-experts"], config, registry)
        a = report["modes"]["fixed-K:7"]
        b = report["modes"]["all-experts"]
        assert a["eval_loss"] == b["eval_loss"]
        assert a["final_train_loss"] == b["final_train_loss"]
        assert a["mean_gate_weights"] == b["mean_gate_weights"]

    def test_unknown_mode_is_usage_error(self, corpus, registry):
        with pytest.raises(ValidationError, match="unknown ablation mode"):
            run_ablation(["bogus"], tiny_config(corpus), registry)

    def test_fixed_k_out_of_range(self, corpus, registry):
        with pytest.raises(ValidationError):
            run_ablation(["fixed-K:9"], tiny_config(corpus, selection=None), registry)


class TestPropertySuite:
    @pytest.mark.parametrize(
        "check",
        [
            pytest.param(check, id=f"{group}/{name}")
            for group, checks in property_checks().items()
            for name, check in checks
        ],
    )
    def test_check(self, check):
        check()

    def test_pristine_build_passes_every_group(self):
        import time

        started = time.perf_counter()
        report = run_property_suite()
        assert time.perf_counter() - started < 120.0
        assert report.ok, report.summary_dict()
        # Module tests rely on the suite for these invariants: a dropped check must fail here.
        names = {group: [name for name, _ in checks] for group, checks in property_checks().items()}
        assert names == {
            "numerics": [
                "softmax_simplex", "softmax_shift_invariance", "bilinear_identity_and_bounds",
                "attention_convex_hull", "matmul_vs_naive", "purity_bitwise",
            ],
            "experts": ["generation_determinism", "planted_probe", "registry_roundtrip"],
            "gate-simplex": ["gate_simplex_1000", "subset_consistency"],
            "adapter": [
                "selection_order_equivariance", "irrelevance_exclusion",
                "residual_identity", "gradient_spot_check",
            ],
            "routing": [
                "prompt_parse_roundtrip", "parse_idempotent",
                "coarse_mean_preservation", "random_cap",
            ],
            "routing-data": ["constructor_vs_bruteforce", "monotonicity", "scale_invariance"],
            "harness": ["pipeline_determinism", "frozen_experts", "ablation_fairness"],
        }

    def test_perturbed_gate_normalization_fails_gate_simplex_group(self, monkeypatch):
        class UncheckedWeights(GateWeights):
            def __post_init__(self):
                pass  # GateWeights itself would refuse the weights below

        real = properties.gate_weights

        def broken_gate(*args):
            return UncheckedWeights(real(*args).weights * 1.01)  # breaks the simplex on purpose

        monkeypatch.setattr(properties, "gate_weights", broken_gate)
        report = run_property_suite()
        failures = report.groups["gate-simplex"].failures
        assert any(f.startswith("gate_simplex_1000:") for f in failures), failures
        assert not report.ok
