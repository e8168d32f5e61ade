"""Ablation arms over the toy objective: routing and gating variants trained
under identical seeds and sample streams."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np

from mova.errors import Field, ValidationError
from mova.experts import ExpertRegistry, Sample
from mova.harness.train import SelectionProvider, ToyTrainConfig, train_toy
from mova.routing import ExpertSelection
from mova.routing_data import checked_losses, load_loss_records

_ABLATION_ROUTE_SALT = 0xAB1A7E

MODES = ("dynamic", "random-routing", "all-experts", "uniform-gating", "fixed-K:<k>")
_FIXED_K = re.compile(r"^fixed-K:(\d+)$")


def _random_provider(config: ToyTrainConfig, registry: ExpertRegistry) -> SelectionProvider:
    n = len(registry)
    cap = min(config.cap, n)

    def provider(sample: Sample) -> ExpertSelection:
        rng = np.random.default_rng(
            [_ABLATION_ROUTE_SALT, config.seed, int(sample.image_seed)]
        )
        k = int(rng.integers(1, cap + 1))
        chosen = rng.choice(n, size=k, replace=False)
        return ExpertSelection(tuple(int(i) for i in chosen))

    return provider


def _fixed_k_provider(config: ToyTrainConfig, registry: ExpertRegistry, k: int) -> SelectionProvider:
    Field(int, 1, len(registry)).check("fixed-K", k)
    losses = {r.sample_id: r for r in load_loss_records(f"{config.corpus_dir}/losses.jsonl")}

    def provider(sample: Sample) -> ExpertSelection:
        record = losses.get(sample.sample_id)
        if record is None:
            raise ValidationError(f"no loss record for sample {sample.sample_id!r}")
        scores = checked_losses(record, registry)
        ranked = sorted(range(len(registry)), key=lambda j: (scores[j], j))
        # Registry-order output keeps fixed-K:N bitwise identical to all-experts.
        return ExpertSelection(tuple(sorted(ranked[:k])))

    return provider


def _arm(config: ToyTrainConfig, registry: ExpertRegistry, mode: str):
    """Per-mode (train config, selection provider).

    The dynamic and uniform-gating arms keep the trainer's default routing (a
    fixed selection when configured, the loss oracle otherwise), so that pair
    isolates the gating mechanism.
    """
    if mode == "dynamic":
        return config, None
    if mode == "uniform-gating":
        return replace(config, adapter=replace(config.adapter, gating_mode="uniform")), None
    if mode == "random-routing":
        return config, _random_provider(config, registry)
    if mode == "all-experts":
        return replace(config, selection=tuple(spec.name for spec in registry.experts)), None
    match = _FIXED_K.match(mode)
    if match:
        return config, _fixed_k_provider(config, registry, int(match.group(1)))
    raise ValidationError(f"unknown ablation mode {mode!r}; choose from {MODES}")


def run_ablation(
    modes: list[str], config: ToyTrainConfig, registry: ExpertRegistry
) -> dict:
    """Train each requested mode under shared seeds; report eval loss per mode."""
    if not modes:
        raise ValidationError("run_ablation needs at least one mode")
    arms = {mode: _arm(config, registry, mode) for mode in modes}  # all checked before any trains
    results = {}
    for mode, (arm_config, provider) in arms.items():
        report, _params = train_toy(arm_config, registry, selection_provider=provider)
        results[mode] = {
            "eval_loss": report.eval_loss,
            "final_train_loss": report.loss_trace[-1],
            "mean_gate_weights": report.mean_gate_weights,
        }
    # No paths in the report: identical flags must give identical bytes.
    return {
        "modes": results,
        "steps": config.steps,
        "seed": config.seed,
    }
