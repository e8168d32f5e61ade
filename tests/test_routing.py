import itertools

import numpy as np
import pytest

from mova.errors import (
    EmptyResponseError,
    MissingContextError,
    UnknownExpertError,
    ValidationError,
)
from mova.experts import Sample, default_registry
from mova.numerics.tensor import FeatureMap
from mova.routing import (
    ExpertSelection,
    RoutingContext,
    build_routing_prompt,
    coarse_image_tokens,
    extract_question,
    parse_routing_response,
    render_selection,
    route,
)
from mova.routing_data import LossRecord, RoutingAnnotation

QUESTION = "Where is the red sign and what does it say?"


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def sample():
    return Sample(sample_id="s1", image_seed=3, question=QUESTION)


class TestPromptTemplate:
    def test_skeleton_lines(self, registry):
        lines = build_routing_prompt(registry, QUESTION).split("\n")
        assert lines[0] == (
            "As a router, your task is to choose several models from a model pool to "
            "assist you. Below is a brief overview of the expertise of each model in "
            "the pool:"
        )
        assert lines[1].startswith("A. ")
        assert lines[7].startswith("G. ")
        assert lines[8] == "Here is user question:"
        assert lines[9] == "###"
        assert lines[10] == QUESTION
        assert lines[11] == "###"
        assert lines[12].startswith(
            "Identify and select models that will best enable you to accurately answer questions."
        )
        assert lines[12].endswith("Answer with the model's letter from the given choices directly.")

    def test_choice_lines_carry_descriptions(self, registry):
        prompt = build_routing_prompt(registry, QUESTION)
        for expert in registry.experts:
            assert f"{expert.letter}. {expert.description}" in prompt.split("\n")

    def test_single_expert_pool_has_one_choice(self, registry):
        from mova.experts import ExpertRegistry

        solo = ExpertRegistry(
            experts=registry.experts[:1], base_channels=8, base_height=8, base_width=8
        )
        lines = build_routing_prompt(solo, QUESTION).split("\n")
        choices = [l for l in lines if len(l) > 2 and l[1] == "." and l[0].isupper()]
        assert len(choices) == 1 and choices[0].startswith("A. ")

    def test_question_containing_fences_round_trips(self, registry):
        tricky = "what does ### mean?\n###\nanswer me"
        prompt = build_routing_prompt(registry, tricky)
        assert extract_question(prompt) == tricky

    def test_empty_question_rejected(self, registry):
        with pytest.raises(ValidationError):
            build_routing_prompt(registry, "")


class TestParseResponse:
    def test_paper_style_response(self, registry):
        selection = parse_routing_response("A, D", registry)
        assert selection.indices == (0, 3)
        assert [registry.experts[i].name for i in selection.indices] == ["dinov2", "pix2struct"]

    def test_single_letter(self, registry):
        assert parse_routing_response("B", registry).indices == (1,)

    def test_letter_outside_registry(self, registry):
        with pytest.raises(UnknownExpertError, match="H"):
            parse_routing_response("H", registry)

    def test_trailing_periods_and_whitespace(self, registry):
        assert parse_routing_response("  C.  A\nB, ", registry).indices == (2, 0, 1)

    def test_duplicates_keep_first_occurrence(self, registry):
        assert parse_routing_response("D, A, D", registry).indices == (3, 0)

    def test_empty_response(self, registry):
        with pytest.raises(EmptyResponseError):
            parse_routing_response("", registry)

    def test_unrecognized_token_is_not_silently_dropped(self, registry):
        with pytest.raises(EmptyResponseError, match="sure"):
            parse_routing_response("sure, A and D", registry)

    def test_roundtrip_all_subsets(self, registry):
        for r in range(1, 8):
            for subset in itertools.combinations(range(7), r):
                rendered = render_selection(ExpertSelection(subset))
                assert parse_routing_response(rendered, registry).indices == subset


class TestCoarseImageTokens:
    def test_48x48_grid8_gives_64_tokens(self, rng):
        base = FeatureMap(rng.standard_normal((4, 48, 48)))
        assert coarse_image_tokens(base, grid=8).shape == (64, 4)

    def test_constant_map_gives_constant_tokens(self):
        base = FeatureMap(np.full((3, 16, 16), 2.25))
        assert np.all(coarse_image_tokens(base, grid=8) == 2.25)

    def test_matches_naive_block_mean(self, rng):
        base = FeatureMap(rng.standard_normal((2, 16, 16)))
        tokens = coarse_image_tokens(base, grid=8)
        for ty in range(8):
            for tx in range(8):
                block = base.data[:, 2 * ty : 2 * ty + 2, 2 * tx : 2 * tx + 2]
                expected = block.mean(axis=(1, 2))
                assert np.max(np.abs(tokens[ty * 8 + tx] - expected)) < 1e-12

    def test_grid_larger_than_map_rejected(self, rng):
        with pytest.raises(Exception):
            coarse_image_tokens(FeatureMap(rng.standard_normal((1, 4, 4))), grid=8)


class TestExpertSelection:
    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            ExpertSelection((1, 1))

    def test_rejects_out_of_range_on_validate(self):
        with pytest.raises(ValidationError):
            ExpertSelection((9,)).validate_against(7)

    def test_letters(self):
        assert ExpertSelection((0, 3)).letters() == ("A", "D")


class TestRouteStrategies:
    def test_all_selects_everything_in_order(self, registry, sample):
        decision = route("all", registry, sample)
        assert decision.selection.indices == tuple(range(7))
        assert decision.strategy == "all"

    def test_annotation_lookup(self, registry, sample):
        context = RoutingContext(
            annotations={"s1": RoutingAnnotation("s1", ("dinov2", "pix2struct"))}
        )
        decision = route("annotation", registry, sample, context)
        assert decision.selection.indices == (0, 3)
        assert decision.raw_response == "A, D"

    def test_annotation_missing_sample(self, registry, sample):
        with pytest.raises(MissingContextError):
            route("annotation", registry, sample, RoutingContext(annotations={}))

    def test_oracle_uses_loss_record(self, registry, sample):
        record = LossRecord("s1", 2.0, (1.5, 1.9, 1.99, 1.0, 2.3, 2.1, 2.0))
        decision = route("oracle", registry, sample, RoutingContext(losses={"s1": record}))
        assert decision.selection.indices == (3, 0, 1)

    def test_random_is_deterministic_per_seed(self, registry, sample):
        a = route("random", registry, sample, RoutingContext(seed=9))
        b = route("random", registry, sample, RoutingContext(seed=9))
        assert a.selection.indices == b.selection.indices

    def test_scripted_parses_response(self, registry, sample):
        decision = route("scripted", registry, sample, RoutingContext(response="A, D"))
        assert decision.selection.indices == (0, 3)
        assert decision.raw_response == "A, D"

    def test_scripted_without_response_is_missing_context(self, registry, sample):
        with pytest.raises(MissingContextError):
            route("scripted", registry, sample, RoutingContext())

    def test_unknown_strategy(self, registry, sample):
        with pytest.raises(ValidationError):
            route("llm", registry, sample, RoutingContext())
