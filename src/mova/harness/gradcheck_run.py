"""Full finite-difference audit of the adapter gradients on the desk config.

Checks every element of the gating MLPs, the routed extractors' projections,
and the projector against central differences of the toy training loss. The
loss and the probe loop are the trainer's: a one-sample `_CorpusRunner` over
a planted sample, whose `batch_loss` gives the gradient and the stage inputs each
probe resumes from, and `probe_gradients`, which moves entries in place in the
runner's own copy of the params. `mova check` and the tests probe the same way.
"""

from __future__ import annotations

import numpy as np

from mova.adapter.config import desk_config
from mova.adapter.params import init_params
from mova.errors import POSITIVE
from mova.experts import Sample, default_registry
from mova.harness.train import _CorpusRunner, probe_gradients
from mova.numerics.gradcheck import GradCheckReport
from mova.routing import ExpertSelection

_CHECK_SEED = 2024

# The probed sample routes dinov2 and pix2struct; its answer is planted in pix2struct.
ROUTED = ("dinov2", "pix2struct")


def planted_runner(registry, config, image_seed: int, answer, question: str, params) -> _CorpusRunner:
    """A runner on a copy of `params` over one sample that routes ROUTED, `answer` planted in the last."""
    sample = Sample("planted", image_seed, question, tuple(answer), planted_expert=ROUTED[-1])
    selection = ExpertSelection(tuple(registry.index_of(name) for name in ROUTED))
    return _CorpusRunner(registry, config, [sample], lambda _sample: selection, params)


def probe_planted(runner: _CorpusRunner, entries: dict, eps: float) -> dict[str, GradCheckReport]:
    """One batch_loss over the runner's samples, training exactly the `entries`
    tensors, then probe_gradients resumed from what it kept."""
    kept: list = []
    _loss, grad = runner.batch_loss(runner.samples, set(entries), kept)
    return probe_gradients(runner, runner.samples, grad, entries, kept, eps)


def full_gradient_check(eps: float = 1e-5, tol: float = 1e-4) -> dict:
    POSITIVE.check("eps", eps)
    POSITIVE.check("tol", tol)
    registry = default_registry()
    config = desk_config(seed=_CHECK_SEED)
    params = init_params(config, registry, seed=_CHECK_SEED)
    answer = np.random.default_rng(_CHECK_SEED).standard_normal(4)
    runner = planted_runner(registry, config, _CHECK_SEED, answer, "where is the planted signal?", params)
    groups = {
        "gating": lambda name: ".gate." in name,
        "extractor": lambda name: any(f".extract.{r}." in name for r in ROUTED),
        "projector": lambda name: name.startswith("projector."),
    }
    checked = {g: [n for n in runner.arrays if match(n)] for g, match in groups.items()}
    results = probe_planted(runner, dict.fromkeys(sum(checked.values(), [])), eps)

    report: dict = {"eps": eps, "tolerance": tol, "groups": {}}
    for group, members in checked.items():
        report["groups"][group] = {
            "max_rel_error": max(results[n].max_rel_error for n in members),
            "entries": sum(results[n].count for n in members),
        }
    report["max_rel_error"] = max(g["max_rel_error"] for g in report["groups"].values())
    report["ok"] = bool(report["max_rel_error"] < tol)
    return report
