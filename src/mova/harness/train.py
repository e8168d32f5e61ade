"""Toy trainer: plain gradient descent on the adapter against a planted corpus.

The objective is mean squared error between the token-pooled projector output
(first len(answer) components) and the sample's answer vector. Expert feature
generators are frozen by construction: only adapter parameters receive
updates. Training runs full-batch on a fixed seeded draw of `batch_size`
corpus samples, so a zero learning rate leaves the loss trace constant.
"""

from __future__ import annotations

import contextlib
import mmap
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from mova.adapter.config import AdapterConfig, desk_config, parse_config
from mova.adapter.network import ForwardInput, build_forward_graph, lift
from mova.adapter.params import AdapterParams, flat_views, init_params, named_arrays, stage_of
from mova.errors import (
    POSITIVE, Field, NumericError, TrainingError, ValidationError, check_fields, read_json_object,
)
from mova.experts import (
    ExpertRegistry,
    Sample,
    default_registry,
    generate_base_feature,  # noqa: F401 -- unused here; perfbench/tracer.py binds this name
    generate_expert_feature,  # noqa: F401 -- unused here; perfbench/tracer.py binds this name
    load_registry,
)
from mova.forked import Workers, usable_cpus
from mova.harness.pipeline import sample_input
from mova.numerics import autodiff as ad
from mova.numerics.gradcheck import GradCheckReport, finite_diff_check
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
    processes: int  # processes that ran the microbatches

    def artifact_dict(self) -> dict:
        """Serializable form; excludes wall clock and process count so report files are byte-stable."""
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


class _CorpusRunner:
    """The toy loss over a list of samples: built, differentiated and resumed
    here for training, evaluation and every gradient check. Reads no files.

    The runner owns its params: it copies the ones it is given, once, into
    `flat`, one float64 vector in a shared `mmap` buffer, laid out as a saved
    `params.movt`. `flat_views` gives `params`, shaped views of `flat` that
    `arrays` names, and `segments`, each name's slice. Every pass lifts
    `params` in each process (forward-only, once per process), so a forked
    worker sees each in-place write with no copy; in a worker `flat` and its
    views are read-only.
    A gradient is one vector laid out like `flat`, applied in one subtraction
    and probed by segment. A microbatch fills the segments of the tensors it
    reached and leaves -0.0, the identity of IEEE addition, in the rest; a
    segment that no microbatch reached reads +0.0. On more than one usable CPU
    a pass of two or more microbatches runs data-parallel: process w of P (this
    one is 0, the forked workers 1..P-1) runs the w-th of P contiguous ranges of
    microbatches, and this process adds losses, gradients and gate weights in
    microbatch order, so the bits are those of one process.
    Workers keep nothing between passes: stage inputs they record come back
    with their reply, and a resumed pass sends each share its stage inputs.
    Use the runner as a context manager: leaving it ends its workers.
    """

    def __init__(
        self,
        registry: ExpertRegistry,
        config: AdapterConfig,
        samples: Sequence[Sample],
        selection_for: SelectionProvider,
        params: AdapterParams,
    ):
        if not samples:
            raise ValidationError("corpus has no samples")
        for sample in samples:
            if not sample.answer_vector:
                raise ValidationError(f"sample {sample.sample_id!r}: empty answer vector")
            if len(sample.answer_vector) > config.llm_dim:
                raise ValidationError(
                    f"sample {sample.sample_id!r}: answer vector longer than llm_dim {config.llm_dim}"
                )
        self.registry = registry
        self.config = config
        self.samples = list(samples)
        self.selection_for = selection_for
        self.processes = 1  # the most processes that have run this runner's microbatches
        self._inputs: dict[str, ForwardInput] = {}
        self._workers = Workers(self._run, 1)
        vector = np.concatenate([array for _name, array in named_arrays(params)], axis=None)
        self.flat = np.frombuffer(mmap.mmap(-1, vector.nbytes))  # shared with every worker forked later
        self.flat[:] = vector
        self.params, self.segments = flat_views(params, self.flat)
        self.arrays = dict(named_arrays(self.params))

    def _read_only(self) -> None:
        """In a forked worker: `flat` and the views in `arrays`, also the leaves of
        `params`, become read-only, so no write reaches the caller's params."""
        for array in (self.flat, *self.arrays.values()):
            array.flags.writeable = False

    def __enter__(self) -> "_CorpusRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        # The workers hold the bound `_run`: dropping them breaks that cycle, so the
        # runner and its input cache are freed as soon as the caller lets go.
        workers, self._workers = self._workers, None
        workers.__exit__(*exc_info)

    def forward_input(self, sample: Sample) -> ForwardInput:
        """The adapter's input for `sample` under `selection_for`, built by
        `sample_input` as `mova fuse` builds it, once per sample id: expert
        features are frozen, so every later pass reuses it."""
        if sample.sample_id not in self._inputs:
            self._inputs[sample.sample_id] = sample_input(self.registry, sample, self.selection_for(sample))
        return self._inputs[sample.sample_id]

    def batch_loss(self, batch: list[Sample], trainable, keep=None) -> tuple[float, np.ndarray]:
        """Mean loss over the batch and its gradient, laid out like `flat`; one tape per
        microbatch. A `keep` list receives each microbatch's stage inputs as read-only arrays,
        whichever process ran it, for batch_loss_value on any runner over the same samples."""
        total, grad, reached = 0.0, np.full(self.flat.size, -0.0), set()
        for loss, (microbatch_grad, names) in self._pass("grad", batch, trainable, keep=keep):
            total += loss
            grad += microbatch_grad
            reached |= names
        for name in self.segments.keys() - reached:
            grad[self.segments[name]] = 0.0
        return total, grad

    def batch_loss_value(self, batch: list[Sample], stage=0, kept=()) -> float:
        """The loss alone, finite or not: finite_diff_check judges a probe's value. Given
        what batch_loss kept of this batch, each pass resumes at `stage`."""
        return sum(loss for loss, _ in self._pass("value", batch, stage=stage, kept=kept))

    def evaluate(self, eval_set: list[Sample]) -> tuple[float, dict[str, float]]:
        """Eval loss plus mean gate weight per pool expert over samples and blocks."""
        total, denom = 0.0, 0
        sums = {name: 0.0 for name in self.params.expert_names}
        for loss, (weights, count) in self._pass("eval", eval_set):
            total += loss
            denom += count
            for name, weight in weights:
                sums[name] += weight
        mean_gates = {
            name: (sums[name] / denom if denom else 0.0) for name in self.params.expert_names
        }
        return total, mean_gates

    def _pass(self, kind: str, batch: list[Sample], trainable=frozenset(), keep=None, stage=0, kept=()) -> list:
        """Run `kind` ("grad", "value" or "eval") over the batch's microbatches;
        returns their `_microbatch` results in microbatch order, or raises the
        error of the first microbatch that failed."""
        chunks = [batch[start : start + MICROBATCH] for start in range(0, len(batch), MICROBATCH)]
        procs = min(usable_cpus(), len(chunks))
        if self._workers.count == 1 < procs:
            self._workers = Workers(self._run, procs, in_child=self._read_only)
            self.processes = procs
        jobs = [(samples, (stage, kept[j][stage]) if kept else None) for j, samples in enumerate(chunks)]
        # Process w runs the w-th contiguous range, so the lowest failing share
        # holds the first failing microbatch.
        shares = max(1, min(self._workers.count, len(jobs)))
        bounds = [len(jobs) * w // shares for w in range(shares + 1)]
        errstate = np.geterr()
        replies = self._workers.map([
            (kind, len(batch), trainable, keep is not None, jobs[lo:hi], errstate)
            for lo, hi in zip(bounds, bounds[1:])
        ])
        if keep is not None:
            for _results, records in replies:
                for record in records:
                    for array in record:  # a write into a recorded input would change the probes' bits
                        array.flags.writeable = False
                    keep.append(record)
        return [result for results, _records in replies for result in results]

    def _run(self, share) -> tuple[list, list]:
        """One process's share of a pass under the caller's numpy error state: its
        microbatches' results in order, and the stage inputs each recorded (None
        unless the pass keeps them). The first microbatch that raises ends it."""
        kind, batch_size, trainable, keeps, jobs, errstate = share
        lifted, tracked = lift(self.params, trainable)
        results, records = [], []
        with np.errstate(**errstate):
            for samples, resume in jobs:
                records.append([] if keeps else None)
                results.append(self._microbatch(kind, samples, batch_size, lifted, tracked, records[-1], resume))
        return results, records

    def _microbatch(self, kind, samples, batch_size, lifted, tracked, record, resume):
        """One microbatch's loss, weighted by 1/batch_size, with its gradient (a vector
        like `flat`, the names of the tensors it reached) ("grad"), nothing ("value"),
        or its gate weights ([(expert, weight)], count of (sample, block) gates) ("eval").

        A sample's loss is the mean squared error between the leading pooled output
        components and its answer; `record` and `resume` record and resume the stage
        inputs through build_forward_graph.
        """
        inputs = [self.forward_input(s) for s in samples]
        out, gates = build_forward_graph(inputs, lifted, self.config, record, resume)
        width = out.shape[-1]
        index, targets, scale = [], [], []
        for row, sample in enumerate(samples):
            n = len(sample.answer_vector)
            index += range(row * width, row * width + n)
            targets += list(sample.answer_vector)
            scale += [1.0 / batch_size / n] * n
        pooled = ad.reshape(ad.mean_rows(out), (-1,))
        diff = ad.sub(ad.gather_vec(pooled, index), ad.constant(targets))
        # mean_all divides by the entry count; scaling each entry by it first
        # leaves the weighted sum of per-sample means.
        per_entry = ad.constant(np.asarray(scale) * len(index))
        loss = ad.mean_all(ad.mul(ad.mul(diff, diff), per_entry))
        if kind == "value":
            return float(loss.value), None
        value = _finite(loss, samples)
        if kind == "grad":
            ad.backward(loss)
            grad, reached = np.full(self.flat.size, -0.0), set()
            for name, node in tracked.items():  # the leaves are shared by the run's microbatches
                if node.grad is not None:
                    grad[self.segments[name]], node.grad = node.grad.reshape(-1), None
                    reached.add(name)
            return value, (grad, reached)
        weights, count = [], 0
        for row, sample in enumerate(samples):
            sel = inputs[row].selection
            if not sel.k:
                continue
            for gate in gates:
                count += 1
                for pos, idx in enumerate(sel.indices):
                    weights.append((self.registry.experts[idx].name, float(gate.value[row, pos])))
        return value, (weights, count)


def _finite(loss: ad.Node, samples: Sequence[Sample]) -> float:
    if not np.isfinite(loss.value):
        ids = ", ".join(repr(s.sample_id) for s in samples)
        raise TrainingError(f"non-finite loss on samples {ids}")
    return float(loss.value)


def probe_gradients(
    runner: _CorpusRunner,
    batch: list[Sample],
    grad: np.ndarray,
    entries: Mapping[str, Sequence[int] | None],
    kept: Sequence,
    eps: float,
) -> dict[str, GradCheckReport]:
    """Central differences of {tensor name: flat indices or None (all)} against that
    tensor's segment of `grad`, probed in place in its segment of `runner.flat`; each
    probe pass resumes, from what batch_loss `kept` of `batch`, at the stage its tensor feeds."""
    reports = {}
    for name, flats in entries.items():
        stage = stage_of(name, len(runner.params.blocks))
        segment = runner.segments[name]
        reports[name] = finite_diff_check(
            runner.flat[segment],
            lambda _block: runner.batch_loss_value(batch, stage=stage, kept=kept),
            grad[segment], eps=eps, op_name=name, indices=flats,
        )
    return reports


def _spot_check_gradients(
    config: ToyTrainConfig,
    runner: _CorpusRunner,
    batch: list[Sample],
    grad: np.ndarray,
    trainable: set[str],
    kept: Sequence,
) -> dict:
    """Central-difference probe of seeded entries of the `trainable` tensors' step-0
    gradient, resumed from what step 0's batch_loss `kept`."""
    rng = np.random.default_rng([_GRADCHECK_SALT, config.seed])
    arrays = runner.arrays
    names = sorted(trainable)
    entries: dict[str, list[int]] = {}
    budget = min(config.gradcheck_entries, sum(arrays[n].size for n in names))
    order = list(rng.permutation(len(names)))
    for drawn in range(budget):
        name = names[order[drawn % len(names)]]
        entries.setdefault(name, []).append(int(rng.integers(arrays[name].size)))
    try:
        results = probe_gradients(runner, batch, grad, entries, kept, config.gradcheck_eps)
    except NumericError as exc:
        raise TrainingError(f"step-0 gradient check failed: {exc}") from exc
    worst = max((result.max_rel_error for result in results.values()), default=0.0)
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


def _corpus_provider(config: ToyTrainConfig, registry: ExpertRegistry) -> SelectionProvider:
    """The fixed `config.selection`, or the loss oracle over the corpus's losses.jsonl."""
    if config.selection is not None:
        fixed = ExpertSelection(tuple(registry.index_of(name) for name in config.selection))
        return lambda _sample: fixed
    losses_path = Path(config.corpus_dir) / "losses.jsonl"
    losses = (
        {r.sample_id: r for r in load_loss_records(losses_path)} if losses_path.exists() else {}
    )

    def oracle_provider(sample: Sample) -> ExpertSelection:
        record = losses.get(sample.sample_id)
        if record is None:
            raise ValidationError(
                f"sample {sample.sample_id!r} has no loss record in {losses_path} "
                "for oracle selection"
            )
        return oracle_selection(record, registry, config.cap)

    return oracle_provider


def train_toy(
    config: ToyTrainConfig,
    registry: ExpertRegistry,
    selection_provider: SelectionProvider | None = None,
) -> tuple[TrainReport, AdapterParams]:
    """Run gradient descent on the configured scopes over the corpus at `config.corpus_dir`,
    routed by `selection_provider` or, without one, by `_corpus_provider`; returns
    (report, trained params)."""
    started = time.perf_counter()
    samples = load_samples(Path(config.corpus_dir) / "samples.jsonl")
    provider = selection_provider or _corpus_provider(config, registry)
    params = init_params(config.adapter, registry)
    trainable = scope_names(params, config.scope)
    with _CorpusRunner(registry, config.adapter, samples, provider, params) as runner:
        batch_idx = training_batch_indices(len(runner.samples), config)
        batch = [runner.samples[i] for i in batch_idx]

        trace: list[float] = []
        gradcheck_summary: dict = {}
        # A diverging step fails where it overflows, so no parameter turns non-finite.
        for step in range(config.steps):
            with _fails_as(f"step {step}"):
                kept = [] if step == 0 else None  # each stage's input, for step 0's spot check
                loss, grad = runner.batch_loss(batch, trainable, kept)
                trace.append(loss)
                if step == 0:  # the probe ignores overflow itself and reports it once
                    gradcheck_summary = _spot_check_gradients(config, runner, batch, grad, trainable, kept)
                    kept = None  # frees the stage inputs before training goes on
                runner.flat -= config.learning_rate * grad
        with _fails_as(f"eval after {config.steps} steps"):
            eval_loss, mean_gates = runner.evaluate(runner.samples[: config.eval_samples])
    if not np.isfinite(eval_loss):
        raise TrainingError(f"non-finite eval loss after {config.steps} steps")
    report = TrainReport(
        loss_trace=tuple(trace),
        mean_gate_weights=mean_gates,
        eval_loss=eval_loss,
        gradcheck=gradcheck_summary,
        wall_clock_seconds=time.perf_counter() - started,
        processes=runner.processes,
    )
    return report, runner.params


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
