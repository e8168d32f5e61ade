"""End-to-end coarse-to-fine run: route, generate features, fuse, write tokens."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mova.adapter.config import AdapterConfig
from mova.adapter.network import ForwardInput, adapter_apply
from mova.adapter.params import AdapterParams
from mova.errors import MovaError, PipelineError
from mova.experts import (
    ExpertRegistry,
    Sample,
    generate_base_feature,
    generate_expert_feature,
)
from mova.harness.seeds import DEFAULT_IMAGE_SEED
from mova.numerics.movt import save_tensor
from mova.routing import ExpertSelection, RoutingContext, RoutingDecision, route


@dataclass(frozen=True)
class PipelineResult:
    decision: RoutingDecision
    expert_names: tuple[str, ...]
    gate_summary: tuple[dict[str, float], ...]  # per block: expert name -> weight
    tokens: np.ndarray
    out_path: str | None

    def summary_dict(self) -> dict:
        return {
            "routing": {
                "experts": list(self.expert_names),
                "letters": list(self.decision.selection.letters()),
                "strategy": self.decision.strategy,
            },
            "gates": [
                {"block": i + 1, "weights": weights}
                for i, weights in enumerate(self.gate_summary)
            ],
            "tokens": {
                "path": self.out_path,
                "shape": list(self.tokens.shape),
            },
        }


def sample_input(registry: ExpertRegistry, sample: Sample, selection: ExpertSelection) -> ForwardInput:
    """The adapter's input for one sample, as `mova fuse` and training both build
    it: the base feature, then each routed expert's feature in selection order,
    planted with the answer vector for the sample's planted expert."""
    base = generate_base_feature(registry, sample.image_seed)
    feats = {}
    for idx in selection.indices:
        spec = registry.experts[idx]
        planted = spec.name == sample.planted_expert
        feats[spec.name] = generate_expert_feature(spec, sample.image_seed, planted, sample.answer_vector)
    return ForwardInput(base, feats, selection, sample.question)


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except MovaError as exc:
        raise PipelineError(stage, str(exc)) from exc


def run_pipeline(
    registry: ExpertRegistry,
    question: str,
    strategy: str,
    context: RoutingContext,
    config: AdapterConfig,
    params: AdapterParams,
    image_seed: int = DEFAULT_IMAGE_SEED,
    out_path=None,
    sample_id: str = "cli",
) -> PipelineResult:
    sample = Sample(sample_id=sample_id, image_seed=image_seed, question=question)
    decision = _stage("routing", route, strategy, registry, sample, context)
    inputs = _stage("features", sample_input, registry, sample, decision.selection)
    output = _stage(
        "adapter",
        adapter_apply,
        inputs.base,
        inputs.expert_features,
        inputs.selection,
        inputs.question,
        params,
        config,
    )
    if out_path is not None:
        _stage("io", save_tensor, out_path, output.tokens)
    names = tuple(registry.experts[i].name for i in decision.selection.indices)
    gate_summary = tuple(
        {name: float(w) for name, w in zip(names, gate.weights)}
        for gate in output.gate_weights
    )
    return PipelineResult(
        decision=decision,
        expert_names=names,
        gate_summary=gate_summary,
        tokens=output.tokens,
        out_path=str(out_path) if out_path is not None else None,
    )
