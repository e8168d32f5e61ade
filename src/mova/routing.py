"""Coarse-grained context-aware routing.

The language model that answers the routing prompt is out of scope; the exact
text protocol it would consume and emit lives here, together with pluggable
router strategies standing in for it (offline annotations, a loss oracle,
seeded random, all experts, or a scripted response).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from mova.errors import (
    EmptyResponseError,
    Field,
    MissingContextError,
    UnknownExpertError,
    ValidationError,
    check_fields,
)
from mova.experts import ExpertRegistry, Sample
from mova.numerics.ops import adaptive_avg_pool
from mova.numerics.tensor import FeatureMap
from mova.routing_data import (
    DEFAULT_CAP,
    LossRecord,
    RoutingAnnotation,
    construct_routing_set,
)

_RANDOM_ROUTE_SALT = 0x7A9D0

PROMPT_OPENING = (
    "As a router, your task is to choose several models from a model pool to "
    "assist you. Below is a brief overview of the expertise of each model in "
    "the pool:"
)
PROMPT_QUESTION_HEADER = "Here is user question:"
PROMPT_FENCE = "###"
PROMPT_CLOSING = (
    "Identify and select models that will best enable you to accurately answer "
    "questions. Please consider the image contents, questions, and expertise of "
    "these models when you perform selection. Answer with the model's letter "
    "from the given choices directly."
)

STRATEGIES = ("annotation", "oracle", "random", "all", "scripted")

_SELECTION_FIELDS = {"indices": Field(int, 0, many=True)}
_CONTEXT_FIELDS = {"seed": Field(int, 0, optional=True), "cap": Field(int, 1)}


@dataclass(frozen=True)
class ExpertSelection:
    """Ordered registry indices of the routed experts; may be empty."""

    indices: tuple[int, ...]

    def __post_init__(self):
        check_fields(self, _SELECTION_FIELDS)
        if len(set(self.indices)) != len(self.indices):
            raise ValidationError(f"duplicate expert indices in selection {self.indices}")

    @property
    def k(self) -> int:
        return len(self.indices)

    def validate_against(self, n_experts: int) -> "ExpertSelection":
        Field(int, 0, n_experts - 1, many=True).check("indices", self.indices)
        return self

    def letters(self) -> tuple[str, ...]:
        return tuple(string.ascii_uppercase[i] for i in self.indices)


def render_selection(selection: ExpertSelection) -> str:
    """Canonical response rendering, e.g. "A, D"."""
    return ", ".join(selection.letters())


@dataclass(frozen=True)
class RoutingDecision:
    selection: ExpertSelection
    raw_response: str
    strategy: str


@dataclass(frozen=True)
class RoutingContext:
    """Strategy-specific inputs for route(); cap and seed are checked whatever the strategy."""

    annotations: Mapping[str, RoutingAnnotation] | None = None
    losses: Mapping[str, LossRecord] | None = None
    seed: int | None = None
    cap: int = DEFAULT_CAP
    response: str | None = None

    def __post_init__(self):
        check_fields(self, _CONTEXT_FIELDS)


def build_routing_prompt(registry: ExpertRegistry, question: str) -> str:
    """The full routing prompt: opening, lettered choices, fenced question, closing."""
    if not question:
        raise ValidationError("routing prompt question must be non-empty")
    lines = [PROMPT_OPENING]
    lines.extend(f"{e.letter}. {e.description}" for e in registry.experts)
    lines.append(PROMPT_QUESTION_HEADER)
    lines.append(PROMPT_FENCE)
    lines.append(question)
    lines.append(PROMPT_FENCE)
    lines.append(PROMPT_CLOSING)
    return "\n".join(lines)


def extract_question(prompt: str) -> str:
    """Recover the question between the line-anchored fences of a prompt."""
    lines = prompt.split("\n")
    try:
        header = lines.index(PROMPT_QUESTION_HEADER)
    except ValueError:
        raise ValidationError("prompt has no question header") from None
    if header + 1 >= len(lines) or lines[header + 1] != PROMPT_FENCE:
        raise ValidationError("prompt question is not fenced")
    fences = [i for i, line in enumerate(lines) if line == PROMPT_FENCE and i > header + 1]
    if not fences:
        raise ValidationError("prompt question fence is not closed")
    return "\n".join(lines[header + 2 : fences[-1]])


def parse_routing_response(response: str, registry: ExpertRegistry) -> ExpertSelection:
    """Parse standalone letter tokens ("A, D", "B.", ...) into a selection.

    Tokens are split on commas and whitespace with trailing periods stripped.
    Anything that is not a single uppercase letter is rejected rather than
    silently dropped; letters outside the registry raise UnknownExpertError.
    """
    tokens = response.replace(",", " ").split()
    indices: list[int] = []
    for token in tokens:
        token = token.rstrip(".")
        if not token:
            continue
        if len(token) != 1 or token not in string.ascii_uppercase:
            raise EmptyResponseError(
                f"unrecognized token {token!r} in routing response {response!r}"
            )
        idx = string.ascii_uppercase.index(token)
        if idx >= len(registry):
            raise UnknownExpertError(
                f"letter {token!r} is outside the registry (experts A..{registry.experts[-1].letter})"
            )
        if idx not in indices:
            indices.append(idx)
    if not indices:
        raise EmptyResponseError(f"no expert letters found in response {response!r}")
    return ExpertSelection(tuple(indices))


def coarse_image_tokens(base: FeatureMap, grid: int = 8) -> np.ndarray:
    """Downsample a base feature to grid*grid tokens of C channels (row-major)."""
    pooled = adaptive_avg_pool(base, grid)
    c = pooled.channels
    return pooled.data.reshape(c, grid * grid).T.copy()


def oracle_selection(record: LossRecord, registry: ExpertRegistry, cap: int) -> ExpertSelection:
    """The loss oracle's routed experts: those beating the base loss, lowest first."""
    annotation = construct_routing_set(record, registry, cap)
    return ExpertSelection(tuple(registry.index_of(name) for name in annotation.experts))


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise MissingContextError(what)


def route(
    strategy: str,
    registry: ExpertRegistry,
    sample: Sample,
    context: RoutingContext | None = None,
) -> RoutingDecision:
    """Run one routing strategy for one sample."""
    context = context or RoutingContext()
    n = len(registry)
    if strategy == "all":
        selection = ExpertSelection(tuple(range(n)))
        return RoutingDecision(selection, render_selection(selection), strategy)
    if strategy == "annotation":
        _require(context.annotations is not None, "annotation strategy needs annotations")
        annotation = context.annotations.get(sample.sample_id)
        _require(annotation is not None, f"no annotation for sample {sample.sample_id!r}")
        selection = ExpertSelection(
            tuple(registry.index_of(name) for name in annotation.experts)
        )
        raw = render_selection(selection) if selection.k else ""
        return RoutingDecision(selection, raw, strategy)
    if strategy == "oracle":
        _require(context.losses is not None, "oracle strategy needs loss records")
        record = context.losses.get(sample.sample_id)
        _require(record is not None, f"no loss record for sample {sample.sample_id!r}")
        selection = oracle_selection(record, registry, context.cap)
        raw = render_selection(selection) if selection.k else ""
        return RoutingDecision(selection, raw, strategy)
    if strategy == "random":
        _require(context.seed is not None, "random strategy needs a seed")
        rng = np.random.default_rng([_RANDOM_ROUTE_SALT, context.seed])
        cap = min(context.cap, n)
        k = int(rng.integers(1, cap + 1))
        chosen = rng.choice(n, size=k, replace=False)
        selection = ExpertSelection(tuple(int(i) for i in chosen))
        return RoutingDecision(selection, render_selection(selection), strategy)
    if strategy == "scripted":
        _require(context.response is not None, "scripted strategy needs a response string")
        selection = parse_routing_response(context.response, registry)
        return RoutingDecision(selection, context.response, strategy)
    raise ValidationError(f"unknown routing strategy {strategy!r}; choose from {STRATEGIES}")
