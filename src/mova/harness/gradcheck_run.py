"""Full finite-difference audit of the adapter gradients on the desk config.

Checks every element of the gating MLPs, the routed extractors' projections,
and the projector against central differences of the toy training loss.
"""

from __future__ import annotations

import numpy as np

from mova.adapter.config import desk_config
from mova.adapter.network import ForwardInput, build_forward_graph, lift
from mova.adapter.params import clone_params, named_arrays
from mova.adapter.params import init_params
from mova.experts import default_registry, generate_base_feature, generate_expert_feature
from mova.numerics import autodiff as ad
from mova.numerics.gradcheck import finite_diff_check
from mova.routing import ExpertSelection

_CHECK_SEED = 2024


def full_gradient_check(eps: float = 1e-5, tol: float = 1e-4) -> dict:
    registry = default_registry()
    config = desk_config(seed=_CHECK_SEED)
    params = init_params(config, registry, seed=_CHECK_SEED)
    selection = ExpertSelection((0, 3))
    routed = [registry.experts[i].name for i in selection.indices]
    base = generate_base_feature(registry, _CHECK_SEED)
    answer = np.random.default_rng(_CHECK_SEED).standard_normal(4)
    feats = {
        spec.name: generate_expert_feature(
            spec, _CHECK_SEED, planted=(spec.name == routed[-1]), answer_vector=answer
        )
        for spec in registry.experts
    }
    question = "where is the planted signal?"

    def loss_node(p, trainable):
        lifted, tracked = lift(p, trainable)
        out, _ = build_forward_graph([ForwardInput(base, feats, selection, question)], lifted, config)
        pooled = ad.reshape(ad.mean_rows(out), (-1,))  # a batch of one
        diff = ad.sub(ad.gather_vec(pooled, range(answer.size)), ad.constant(answer))
        return ad.mean_all(ad.mul(diff, diff)), tracked

    groups = {
        "gating": lambda name: ".gate." in name,
        "extractor": lambda name: any(f".extract.{r}." in name for r in routed),
        "projector": lambda name: name.startswith("projector."),
    }
    all_names = [name for name, _ in named_arrays(params)]
    checked = {g: [n for n in all_names if match(n)] for g, match in groups.items()}
    trainable = set().union(*checked.values())
    loss, tracked = loss_node(params, trainable)
    ad.backward(loss)

    report: dict = {"eps": eps, "tolerance": tol, "groups": {}}
    worst = 0.0
    for group, names in checked.items():
        group_worst = 0.0
        entries = 0
        for name in names:
            analytic = tracked[name].grad
            if analytic is None:
                analytic = np.zeros_like(tracked[name].value)

            def scalar_fn(block, _name=name):
                work = clone_params(params)
                dict(named_arrays(work))[_name][...] = block
                value, _ = loss_node(work, frozenset())
                return float(value.value)

            result = finite_diff_check(
                dict(named_arrays(params))[name], scalar_fn, analytic, eps=eps, op_name=name
            )
            group_worst = max(group_worst, result.max_rel_error)
            entries += result.count
        report["groups"][group] = {"max_rel_error": group_worst, "entries": entries}
        worst = max(worst, group_worst)
    report["max_rel_error"] = worst
    report["ok"] = bool(worst < tol)
    return report
