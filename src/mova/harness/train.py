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
from mova.adapter.params import AdapterParams, init_params, named_arrays, stage_of, visit
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
from mova.forked import fork, sendable, usable_cpus
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


@dataclass(frozen=True)
class _Held:
    """Stands in a keep list for the stage inputs of a microbatch that `worker`
    ran and holds, from its backpropagated pass number `generation`."""

    worker: int
    generation: int


class _CorpusRunner:
    """The toy loss over a list of samples: built, differentiated and resumed
    here for training, evaluation and every gradient check. Reads no files.

    Every batch pass runs its microbatches through `_microbatch`. A pass of two
    or more microbatches on a host with more than one usable CPU runs them
    data-parallel: process w of P (this one is 0, the forked workers 1..P-1)
    runs the microbatches j = w (mod P), the workers reading the caller's
    params from a shared slab, and this process adds losses, gradients and
    gate weights in microbatch order, so the bits are those of one process.
    Use the runner as a context manager, or `close` it, to end its workers.
    """

    def __init__(
        self,
        registry: ExpertRegistry,
        config: AdapterConfig,
        samples: Sequence[Sample],
        selection_for: SelectionProvider,
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
        self._workers: list = []  # (process, pipe end) of workers 1..P-1
        self._slab: AdapterParams | None = None  # params in shared memory, read by the workers
        self._generation = 0  # backpropagated passes that asked to keep stage inputs
        self._held = None  # in a worker: (generation, {microbatch: stage inputs})

    def __enter__(self) -> "_CorpusRunner":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(terminate=exc_type is not None)

    def close(self, terminate: bool = False) -> None:
        """End the workers: each exits at EOF on its pipe, or at once with `terminate`."""
        workers, self._workers, self._slab = self._workers, [], None
        for process, conn in workers:
            if terminate:
                process.terminate()
            conn.close()
        for process, _conn in workers:
            process.join()

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
        """Mean loss over the batch and its gradient; one tape per microbatch. A `keep`
        list receives each microbatch's stage inputs, for batch_loss_value."""
        results, tracked = self._pass("grad", batch, params, trainable, keep=keep)
        total, grads = 0.0, {}
        for loss, microbatch_grads in results:
            total += loss
            # A microbatch that gives a tensor no gradient adds nothing: adding
            # zeros would turn a -0.0 into 0.0.
            for name, grad in microbatch_grads.items():
                grads[name] = grads[name] + grad if name in grads else grad
        return total, {
            name: grads[name] if name in grads else np.zeros_like(node.value)
            for name, node in tracked.items()
        }

    def batch_loss_value(self, batch: list[Sample], params: AdapterParams, stage=0, kept=()) -> float:
        """The loss alone, finite or not: finite_diff_check judges a probe's value. Given
        what batch_loss kept of this batch, each pass resumes at `stage`."""
        results, _ = self._pass("value", batch, params, stage=stage, kept=kept)
        return sum(loss for loss, _ in results)

    def evaluate(self, params: AdapterParams, eval_set: list[Sample]) -> tuple[float, dict[str, float]]:
        """Eval loss plus mean gate weight per pool expert over samples and blocks."""
        results, _ = self._pass("eval", eval_set, params)
        total, denom = 0.0, 0
        sums = {name: 0.0 for name in params.expert_names}
        for loss, (weights, count) in results:
            total += loss
            denom += count
            for name, weight in weights:
                sums[name] += weight
        mean_gates = {
            name: (sums[name] / denom if denom else 0.0) for name in params.expert_names
        }
        return total, mean_gates

    def _pass(self, kind: str, batch: list[Sample], params: AdapterParams, trainable=frozenset(),
              keep=None, stage=0, kept=()) -> tuple[list, dict[str, ad.Node]]:
        """Run `kind` ("grad", "value" or "eval") over the batch's microbatches;
        returns their `_microbatch` results in microbatch order and the tracked
        nodes, or raises the error of the first microbatch that failed."""
        chunks = [batch[start : start + MICROBATCH] for start in range(0, len(batch), MICROBATCH)]
        owners = self._owners(len(chunks), params, kept)
        jobs: list[list] = [[] for _ in range(1 + len(self._workers))]
        for j, (owner, samples) in enumerate(zip(owners, chunks)):
            jobs[owner].append((j, samples, kept[j][stage] if kept else None))
        if keep is not None and kind == "grad":
            self._generation += 1
        sent = [(conn, mine) for (_process, conn), mine in zip(self._workers, jobs[1:]) if mine]
        if sent:
            for (_name, slab), (_same, array) in zip(named_arrays(self._slab), named_arrays(params), strict=True):
                slab[...] = array
            generation = self._generation if keep is not None else None
            for conn, mine in sent:
                with _worker_exits():
                    conn.send((kind, len(batch), trainable, stage, generation, mine, np.geterr()))
        lifted, tracked = lift(params, trainable)
        records: dict | None = None if keep is None else {}
        results = self._run(kind, len(batch), lifted, tracked, stage, jobs[0], records)
        for conn, _mine in sent:
            with _worker_exits():
                results.update(conn.recv())
        ordered = [results.get(j) for j in range(len(chunks))]
        for result in ordered:  # a process stops at its first error, so this is the first overall
            if isinstance(result, Exception):
                raise result
        if keep is not None:
            stages = len(params.blocks) + 1
            keep.extend(
                records[j] if owner == 0 else [_Held(owner, self._generation)] * stages
                for j, owner in enumerate(owners)
            )
        return ordered, tracked

    def _owners(self, n: int, params: AdapterParams, kept) -> list[int]:
        """The process that runs each of `n` microbatches: 0 for this one, w for worker w.
        A resumed pass runs each microbatch where its stage inputs are."""
        if kept:
            return [record[0].worker if isinstance(record[0], _Held) else 0 for record in kept]
        procs = min(usable_cpus(), n)
        if procs > 1:
            if not self._workers:
                self._start(procs - 1, params)
            procs = min(procs, 1 + len(self._workers))
        return [j % procs for j in range(n)]

    def _start(self, count: int, params: AdapterParams) -> None:
        """Fork `count` workers that share a params slab shaped like `params`."""
        import mmap

        sizes = [array.size for _name, array in named_arrays(params)]
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
        parts = iter(np.split(flat, np.cumsum(sizes)[:-1]))
        self._slab = visit(params, lambda _name, array: next(parts).reshape(array.shape))
        for _ in range(count):
            self._workers.append(fork(self._serve))
        self.processes = max(self.processes, 1 + count)

    def _serve(self, conn) -> None:
        """A worker: run each request's microbatches on the slab's params, under the
        caller's numpy error state, and reply; exit at EOF. An error that cannot
        be pickled is sent as a TrainingError with its text."""
        while True:
            try:
                kind, batch_size, trainable, stage, generation, jobs, errstate = conn.recv()
            except EOFError:
                return
            lifted, tracked = lift(self._slab, trainable)
            records = None if generation is None else {}
            with np.errstate(**errstate):
                results = self._run(kind, batch_size, lifted, tracked, stage, jobs, records)
            if kind == "grad":  # each backpropagated pass replaces the stage inputs held
                self._held = None if generation is None else (generation, records)
            for j, result in results.items():
                if isinstance(result, Exception):
                    results[j] = sendable(result, TrainingError)
            try:
                conn.send(results)
            except OSError:  # the parent is gone
                return

    def _run(self, kind, batch_size, lifted, tracked, stage, jobs, records) -> dict:
        """Run `jobs` [(j, samples, stage input or None)] in order in this process:
        {j: result}, where the first microbatch that raises gets its error and ends the run."""
        results = {}
        for j, samples, source in jobs:
            try:
                if isinstance(source, _Held):
                    if self._held is None or self._held[0] != source.generation:
                        raise ValidationError("the stage inputs of that pass are no longer held")
                    source = self._held[1][j][stage]
                record = None if records is None else []
                resume = None if source is None else (stage, source)
                results[j] = self._microbatch(kind, samples, batch_size, lifted, tracked, record, resume)
                if records is not None:
                    records[j] = record
            except Exception as exc:
                results[j] = exc
                break
        return results

    def _microbatch(self, kind, samples, batch_size, lifted, tracked, record, resume):
        """One microbatch's loss, weighted by 1/batch_size, with its gradient
        {tracked name: array} ("grad"), nothing ("value"), or its gate weights
        ([(expert, weight)], count of (sample, block) gates) ("eval").

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
            grads = {}
            for name, node in tracked.items():  # the leaves are shared by the run's microbatches
                if node.grad is not None:
                    grads[name], node.grad = node.grad, None
            return value, grads
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


@contextlib.contextmanager
def _worker_exits():
    """A pipe to a worker that has exited, at a send or a receive, raises one TrainingError."""
    try:
        yield
    except (EOFError, OSError):
        raise TrainingError("a microbatch worker process exited") from None


def _finite(loss: ad.Node, samples: Sequence[Sample]) -> float:
    if not np.isfinite(loss.value):
        ids = ", ".join(repr(s.sample_id) for s in samples)
        raise TrainingError(f"non-finite loss on samples {ids}")
    return float(loss.value)


def probe_gradients(
    runner: _CorpusRunner,
    batch: list[Sample],
    params: AdapterParams,
    grads: Mapping[str, np.ndarray],
    entries: Mapping[str, Sequence[int] | None],
    kept: Sequence,
    eps: float,
) -> dict[str, GradCheckReport]:
    """Central differences of {tensor name: flat indices or None (all)} against `grads`;
    each probe pass resumes, from what batch_loss `kept` of `batch`, at the stage its tensor feeds."""
    arrays = dict(named_arrays(params))
    reports = {}
    for name, flats in entries.items():
        stage = stage_of(name, len(params.blocks))
        reports[name] = finite_diff_check(
            arrays[name],
            lambda _block: runner.batch_loss_value(batch, params, stage=stage, kept=kept),
            grads[name], eps=eps, op_name=name, indices=flats,
        )
    return reports


def _spot_check_gradients(
    config: ToyTrainConfig,
    runner: _CorpusRunner,
    params: AdapterParams,
    batch: list[Sample],
    grads: Mapping[str, np.ndarray],
    kept: Sequence,
) -> dict:
    """Central-difference probe of seeded entries of the step-0 gradient, resumed
    from what step 0's batch_loss `kept`."""
    rng = np.random.default_rng([_GRADCHECK_SALT, config.seed])
    arrays = dict(named_arrays(params))
    names = sorted(grads)
    entries: dict[str, list[int]] = {}
    budget = min(config.gradcheck_entries, sum(arrays[n].size for n in names))
    order = list(rng.permutation(len(names)))
    for drawn in range(budget):
        name = names[order[drawn % len(names)]]
        entries.setdefault(name, []).append(int(rng.integers(arrays[name].size)))
    try:
        results = probe_gradients(runner, batch, params, grads, entries, kept, config.gradcheck_eps)
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
    with _CorpusRunner(registry, config.adapter, samples, provider) as runner:
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
                    gradcheck_summary = _spot_check_gradients(config, runner, params, batch, grads, kept)
                    kept = None  # frees the stage inputs before training goes on
                for name, grad in grads.items():
                    arrays[name] -= config.learning_rate * grad
        with _fails_as(f"eval after {config.steps} steps"):
            eval_loss, mean_gates = runner.evaluate(params, runner.samples[: config.eval_samples])
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
