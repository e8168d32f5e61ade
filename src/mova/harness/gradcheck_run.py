"""Full finite-difference audit of the adapter gradients on the desk config.

Checks every element of the gating MLPs, the routed extractors' projections,
and the projector against central differences of the toy training loss. The
one-sample loss and the probe loop here also back `mova check` and the tests.
"""

from __future__ import annotations

import numpy as np

from mova.adapter.config import desk_config
from mova.adapter.network import ForwardInput, lift
from mova.adapter.params import init_params, named_arrays
from mova.errors import NumericError
from mova.experts import default_registry, generate_base_feature, generate_expert_feature
from mova.harness.train import answer_loss
from mova.numerics import autodiff as ad
from mova.numerics.gradcheck import GradCheckReport, finite_diff_check
from mova.routing import ExpertSelection

_CHECK_SEED = 2024

# The probed sample routes dinov2 and pix2struct; its answer is planted in pix2struct.
ROUTED = ("dinov2", "pix2struct")


def planted_sample_loss(registry, config, params, image_seed: int, answer, question: str):
    """loss(trainable=frozenset()) -> (answer loss node, tracked nodes) of one planted sample."""
    feats = {
        spec.name: generate_expert_feature(
            spec, image_seed, planted=(spec.name == ROUTED[-1]), answer_vector=answer
        )
        for spec in registry.experts
    }
    selection = ExpertSelection(tuple(registry.index_of(name) for name in ROUTED))
    sample = ForwardInput(generate_base_feature(registry, image_seed), feats, selection, question)

    def loss(trainable=frozenset()):
        lifted, tracked = lift(params, trainable)
        return answer_loss([sample], [answer], lifted, config)[0], tracked

    return loss


def probe_gradients(loss, params, entries: dict, eps: float) -> dict[str, GradCheckReport]:
    """Backpropagate `loss` once, then probe {tensor name: flat indices or None (all)}."""
    root, tracked = loss(set(entries))
    ad.backward(root)
    arrays = dict(named_arrays(params))
    reports = {}
    for name, flats in entries.items():
        if tracked[name].grad is None:
            raise NumericError(f"{name}: no gradient reached the tensor")
        reports[name] = finite_diff_check(
            arrays[name], lambda _block: float(loss()[0].value), tracked[name].grad,
            eps=eps, op_name=name, indices=flats,
        )
    return reports


def full_gradient_check(eps: float = 1e-5, tol: float = 1e-4) -> dict:
    registry = default_registry()
    config = desk_config(seed=_CHECK_SEED)
    params = init_params(config, registry, seed=_CHECK_SEED)
    answer = np.random.default_rng(_CHECK_SEED).standard_normal(4)
    loss = planted_sample_loss(
        registry, config, params, _CHECK_SEED, answer, "where is the planted signal?"
    )
    groups = {
        "gating": lambda name: ".gate." in name,
        "extractor": lambda name: any(f".extract.{r}." in name for r in ROUTED),
        "projector": lambda name: name.startswith("projector."),
    }
    names = [name for name, _ in named_arrays(params)]
    checked = {g: [n for n in names if match(n)] for g, match in groups.items()}
    results = probe_gradients(loss, params, dict.fromkeys(sum(checked.values(), [])), eps)

    report: dict = {"eps": eps, "tolerance": tol, "groups": {}}
    for group, members in checked.items():
        report["groups"][group] = {
            "max_rel_error": max(results[n].max_rel_error for n in members),
            "entries": sum(results[n].count for n in members),
        }
    report["max_rel_error"] = max(g["max_rel_error"] for g in report["groups"].values())
    report["ok"] = bool(report["max_rel_error"] < tol)
    return report
