"""Toy trainer: plain gradient descent on the adapter against a planted corpus.

The objective is mean squared error between the token-pooled projector output
(first len(answer) components) and the sample's answer vector. Expert feature
generators are frozen by construction: only adapter parameters receive
updates. Training runs full-batch on a fixed seeded draw of `batch_size`
corpus samples, so a zero learning rate leaves the loss trace constant.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from mova.adapter.config import AdapterConfig, desk_config, parse_config
from mova.adapter.network import ForwardInput, build_forward_graph, lift
from mova.adapter.params import AdapterParams, init_params, named_arrays, stage_of
from mova.errors import (
    POSITIVE, Field, NumericError, TrainingError, ValidationError, check_fields, read_json_object,
)
from mova.experts import (
    ExpertRegistry,
    Sample,
    default_registry,
    generate_base_feature,
    generate_expert_feature,
    load_registry,
)
from mova.numerics import autodiff as ad
from mova.numerics.gradcheck import finite_diff_check
from mova.routing import ExpertSelection, oracle_selection
from mova.routing_data import (
    DEFAULT_CAP,
    construct_routing_set,  # noqa: F401 -- unused here; perfbench/tracer.py binds this name
    load_loss_records,
    load_samples,
)

_BATCH_SALT = 0x8A7C4
_GRADCHECK_SALT = 0x96AD

SCOPES = ("gating", "gating+extractor", "full-adapter")

# Samples per tape. A graph holds every activation of its samples until
# backward frees it: one graph over a 48-sample batch raised peak RSS by about
# 150 MB, a microbatch of 12 by 12% and one of 8 by 5.6%, while 8 still lets
# each routed expert's extractor run over several samples at once.
MICROBATCH = 8

SelectionProvider = Callable[[Sample], ExpertSelection]

_FIELDS = {
    "steps": Field(int, 1),
    "learning_rate": Field(float, 0),
    "batch_size": Field(int, 1),
    "seed": Field(int, 0),
    "selection": Field(str, many=True, optional=True),
    "eval_samples": Field(int, 0),
    "cap": Field(int, 1),
    "gradcheck_entries": Field(int, 0),
    "gradcheck_eps": POSITIVE,
    "gradcheck_tol": POSITIVE,
}


@dataclass(frozen=True)
class ToyTrainConfig:
    corpus_dir: str
    steps: int = 500
    learning_rate: float = 0.1
    batch_size: int = 8
    seed: int = 42
    scope: str = "full-adapter"
    selection: tuple[str, ...] | None = None
    eval_samples: int = 32
    cap: int = DEFAULT_CAP
    adapter: AdapterConfig = field(default_factory=desk_config)
    gradcheck_entries: int = 32
    gradcheck_eps: float = 1e-5
    gradcheck_tol: float = 1e-4

    def __post_init__(self):
        check_fields(self, _FIELDS)
        if self.scope not in SCOPES:
            raise ValidationError(f"scope must be one of {SCOPES}, got {self.scope!r}")


@dataclass(frozen=True)
class TrainReport:
    loss_trace: tuple[float, ...]
    mean_gate_weights: dict[str, float]
    eval_loss: float
    gradcheck: dict
    wall_clock_seconds: float

    def artifact_dict(self) -> dict:
        """Serializable form; excludes wall clock so report files are byte-stable."""
        return {
            "loss_trace": list(self.loss_trace),
            "mean_gate_weights": self.mean_gate_weights,
            "eval_loss": self.eval_loss,
            "gradcheck": self.gradcheck,
        }


def training_batch_indices(n_samples: int, config: ToyTrainConfig) -> np.ndarray:
    """The fixed training batch: a seeded draw shared by every ablation arm."""
    rng = np.random.default_rng([_BATCH_SALT, config.seed])
    return rng.choice(n_samples, size=min(config.batch_size, n_samples), replace=False)


def scope_names(params: AdapterParams, scope: str) -> set[str]:
    names = [name for name, _ in named_arrays(params)]
    if scope == "full-adapter":
        return set(names)
    keep = {".gate."} if scope == "gating" else {".gate.", ".extract."}
    return {n for n in names if any(tag in n for tag in keep)}


def answer_loss(
    batch: Sequence[ForwardInput],
    answers: Sequence[Sequence[float]],
    lifted: AdapterParams,
    config: AdapterConfig,
    weight: float = 1.0,
    record: list[np.ndarray] | None = None,
    resume: tuple[int, np.ndarray] | None = None,
) -> tuple[ad.Node, list[ad.Node]]:
    """The toy task loss as one graph: (`weight` times the summed sample losses, gates).

    A sample's loss is the mean squared error between the leading pooled output
    components and its answer. Training and every gradient check use this graph;
    `record` and `resume` go to build_forward_graph.
    """
    out, gates = build_forward_graph(list(batch), lifted, config, record, resume)
    width = out.shape[-1]
    index, targets, scale = [], [], []
    for row, answer in enumerate(answers):
        n = len(answer)
        index += range(row * width, row * width + n)
        targets += list(answer)
        scale += [weight / n] * n
    pooled = ad.reshape(ad.mean_rows(out), (-1,))
    diff = ad.sub(ad.gather_vec(pooled, index), ad.constant(targets))
    # mean_all divides by the entry count; scaling each entry by it first
    # leaves the weighted sum of per-sample means.
    per_entry = ad.constant(np.asarray(scale) * len(index))
    return ad.mean_all(ad.mul(ad.mul(diff, diff), per_entry)), gates


class _CorpusRunner:
    """Shared machinery for training and evaluation over one corpus."""

    def __init__(
        self,
        registry: ExpertRegistry,
        config: ToyTrainConfig,
        selection_provider: SelectionProvider | None = None,
    ):
        corpus = Path(config.corpus_dir)
        self.registry = registry
        self.config = config
        self.samples = load_samples(corpus / "samples.jsonl")
        if not self.samples:
            raise ValidationError(f"{corpus}: corpus has no samples")
        losses_path = corpus / "losses.jsonl"
        self.losses = (
            {r.sample_id: r for r in load_loss_records(losses_path)}
            if losses_path.exists()
            else {}
        )
        for sample in self.samples:
            if not sample.answer_vector:
                raise ValidationError(f"sample {sample.sample_id!r}: empty answer vector")
            if len(sample.answer_vector) > config.adapter.llm_dim:
                raise ValidationError(
                    f"sample {sample.sample_id!r}: answer vector longer than llm_dim "
                    f"{config.adapter.llm_dim}"
                )
        self.selection_for = selection_provider or self._default_provider()
        self._inputs: dict[str, ForwardInput] = {}

    def _default_provider(self) -> SelectionProvider:
        if self.config.selection is not None:
            fixed = ExpertSelection(
                tuple(self.registry.index_of(name) for name in self.config.selection)
            )

            def fixed_provider(_sample: Sample) -> ExpertSelection:
                return fixed

            return fixed_provider

        def oracle_provider(sample: Sample) -> ExpertSelection:
            record = self.losses.get(sample.sample_id)
            if record is None:
                losses_path = Path(self.config.corpus_dir) / "losses.jsonl"
                raise ValidationError(
                    f"sample {sample.sample_id!r} has no loss record in {losses_path} "
                    "for oracle selection"
                )
            return oracle_selection(record, self.registry, self.config.cap)

        return oracle_provider

    def forward_input(self, sample: Sample) -> ForwardInput:
        """The sample's features, selection and question, generated once and cached."""
        if sample.sample_id not in self._inputs:
            selection = self.selection_for(sample)
            base = generate_base_feature(self.registry, sample.image_seed)
            feats = {}
            for idx in selection.indices:
                spec = self.registry.experts[idx]
                feats[spec.name] = generate_expert_feature(
                    spec,
                    sample.image_seed,
                    planted=(spec.name == sample.planted_expert),
                    answer_vector=sample.answer_vector,
                )
            self._inputs[sample.sample_id] = ForwardInput(base, feats, selection, sample.question)
        return self._inputs[sample.sample_id]

    def batch_loss(self, batch: list[Sample], params: AdapterParams, trainable, keep=None) -> tuple[float, dict[str, np.ndarray]]:
        """Mean loss over the batch; one tape per microbatch, gradients accumulate across them.
        A `keep` list receives each microbatch's stage inputs, for batch_loss_value."""
        lifted, tracked = lift(params, trainable)
        total = 0.0
        for _samples, loss, _gates in self._graphs(batch, lifted, keep):
            total += float(loss.value)
            ad.backward(loss)
        grads = {
            name: node.grad if node.grad is not None else np.zeros_like(node.value)
            for name, node in tracked.items()
        }
        return total, grads

    def batch_loss_value(self, batch: list[Sample], params: AdapterParams, stage=0, kept=()) -> float:
        """The loss alone; given what batch_loss kept of this batch, each pass resumes at `stage`."""
        graphs = self._graphs(batch, lift(params)[0], None, stage, kept)
        return sum(float(loss.value) for _s, loss, _g in graphs)

    def _graphs(self, batch: list[Sample], lifted: AdapterParams, keep=None, stage=0, kept=()):
        """(samples, finite loss, gates) per microbatch, each loss weighted by 1/len(batch)."""
        for i, start in enumerate(range(0, len(batch), MICROBATCH)):
            samples = batch[start : start + MICROBATCH]
            inputs = [self.forward_input(s) for s in samples]
            answers = [s.answer_vector for s in samples]
            record = None if keep is None else []
            resume = (stage, kept[i][stage]) if kept else None
            weight = 1.0 / len(batch)
            loss, gates = answer_loss(inputs, answers, lifted, self.config.adapter, weight, record, resume)
            if keep is not None:
                keep.append(record)
            if not np.isfinite(loss.value):
                ids = ", ".join(repr(s.sample_id) for s in samples)
                raise TrainingError(f"non-finite loss on samples {ids}")
            yield samples, loss, gates

    def evaluate(self, params: AdapterParams) -> tuple[float, dict[str, float]]:
        """Eval loss plus mean gate weight per pool expert over samples and blocks."""
        eval_set = self.samples[: min(self.config.eval_samples, len(self.samples))]
        total = 0.0
        sums = {name: 0.0 for name in params.expert_names}
        denom = 0
        for samples, loss, gates in self._graphs(eval_set, lift(params)[0]):
            total += float(loss.value)
            for row, sample in enumerate(samples):
                sel = self.forward_input(sample).selection
                if not sel.k:
                    continue
                for gate in gates:
                    denom += 1
                    for pos, idx in enumerate(sel.indices):
                        sums[self.registry.experts[idx].name] += float(gate.value[row, pos])
        mean_gates = {
            name: (sums[name] / denom if denom else 0.0) for name in params.expert_names
        }
        return total, mean_gates


def _spot_check_gradients(
    runner: _CorpusRunner,
    params: AdapterParams,
    batch: list[Sample],
    grads: Mapping[str, np.ndarray],
    kept: Sequence = (),
) -> dict:
    """Central-difference probe of seeded entries of the step-0 gradient; each probe
    pass resumes, from what step 0's batch_loss `kept`, at the stage its tensor feeds."""
    config = runner.config
    rng = np.random.default_rng([_GRADCHECK_SALT, config.seed])
    arrays = dict(named_arrays(params))
    names = sorted(grads)
    entries: dict[str, list[int]] = {}
    budget = min(config.gradcheck_entries, sum(arrays[n].size for n in names))
    order = list(rng.permutation(len(names)))
    for drawn in range(budget):
        name = names[order[drawn % len(names)]]
        entries.setdefault(name, []).append(int(rng.integers(arrays[name].size)))
    worst = 0.0
    try:
        for name, flats in entries.items():
            stage = stage_of(name, len(params.blocks))
            result = finite_diff_check(
                arrays[name],
                lambda _block: runner.batch_loss_value(batch, params, stage=stage, kept=kept),
                grads[name], eps=config.gradcheck_eps, op_name=name, indices=flats,
            )
            worst = max(worst, result.max_rel_error)
    except (NumericError, TrainingError) as exc:
        raise TrainingError(f"step-0 gradient check failed: {exc}") from exc
    if worst > config.gradcheck_tol:
        raise TrainingError(
            f"step-0 gradient check failed: max relative error {worst:.3e} "
            f"exceeds {config.gradcheck_tol:.1e}"
        )
    return {
        "max_rel_error": worst,
        "entries_checked": budget,
        "eps": config.gradcheck_eps,
        "tolerance": config.gradcheck_tol,
    }


@contextlib.contextmanager
def _fails_as(what: str):
    """Numpy overflow, invalid values and zero division in the block raise a TrainingError naming `what`."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingError(f"{what}: {exc}") from exc


def train_toy(
    config: ToyTrainConfig,
    registry: ExpertRegistry,
    selection_provider: SelectionProvider | None = None,
) -> tuple[TrainReport, AdapterParams]:
    """Run gradient descent on the configured scopes; returns (report, trained params)."""
    started = time.perf_counter()
    runner = _CorpusRunner(registry, config, selection_provider)
    params = init_params(config.adapter, registry)
    trainable = scope_names(params, config.scope)
    arrays = dict(named_arrays(params))
    batch_idx = training_batch_indices(len(runner.samples), config)
    batch = [runner.samples[i] for i in batch_idx]

    trace: list[float] = []
    gradcheck_summary: dict = {}
    # A diverging step fails where it overflows, so no parameter turns non-finite.
    for step in range(config.steps):
        with _fails_as(f"step {step}"):
            kept = [] if step == 0 else None  # each stage's input, for step 0's spot check
            loss, grads = runner.batch_loss(batch, params, trainable, kept)
            trace.append(loss)
            if step == 0:  # the probe ignores overflow itself and reports it once
                gradcheck_summary = _spot_check_gradients(runner, params, batch, grads, kept)
                kept = None  # frees the stage inputs before training goes on
            for name, grad in grads.items():
                arrays[name] -= config.learning_rate * grad
    with _fails_as(f"eval after {config.steps} steps"):
        eval_loss, mean_gates = runner.evaluate(params)
    if not np.isfinite(eval_loss):
        raise TrainingError(f"non-finite eval loss after {config.steps} steps")
    report = TrainReport(
        loss_trace=tuple(trace),
        mean_gate_weights=mean_gates,
        eval_loss=eval_loss,
        gradcheck=gradcheck_summary,
        wall_clock_seconds=time.perf_counter() - started,
    )
    return report, params


# ---------------------------------------------------------------------------
# toy.json loading for the CLI


def load_toy_config(path) -> tuple[ToyTrainConfig, ExpertRegistry]:
    """Read toy.json: ToyTrainConfig's fields, with "corpus", "experts" and "adapter"
    in place of corpus_dir and adapter; relative paths resolve against the file."""
    path = Path(path)
    raw = read_json_object(path, "toy config")
    corpus, experts = raw.pop("corpus", None), raw.pop("experts", None)
    if not isinstance(corpus, str) or not isinstance(experts, (str, type(None))):
        raise ValidationError(f"{path}: toy config needs a 'corpus' directory and an optional 'experts' file")
    # Joining an absolute path to the config's directory gives the absolute path.
    registry = load_registry(path.parent / experts) if experts else default_registry()
    adapter = parse_config(raw.pop("adapter"), path) if "adapter" in raw else desk_config()
    try:  # a TypeError is an unknown key
        config = ToyTrainConfig(corpus_dir=str(path.parent / corpus), adapter=adapter, **raw)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed toy config ({exc})") from exc
    return config, registry
