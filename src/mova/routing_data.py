"""Loss-driven routing annotations and the synthetic corpus that grounds them.

An expert joins a sample's routing set only when its loss is strictly below
the base model's; at most ``cap`` experts are kept, lowest loss first, ties
broken by registry index. The synthetic generator plants each sample's answer
vector in exactly one expert's features and derives losses from linear-probe
recovery residuals, so the planted expert provably has the smallest loss at
noise scale zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from mova.errors import Field, ValidationError, atomic_write, check_fields
from mova.experts import (
    MAX_SAMPLES,
    ExpertRegistry,
    Sample,
    base_features,
    expert_features,
    generate_base_feature,  # noqa: F401 -- unused here; perfbench/tracer.py binds this name
    generate_expert_feature,  # noqa: F401 -- unused here; perfbench/tracer.py binds this name
)
from mova.forked import fork_map, usable_cpus

_Record = TypeVar("_Record")

_CORPUS_SALT = 0xC0285
DEFAULT_CAP = 3

# Samples each process pools at the least. Forking a child and the first
# import of multiprocessing cost 12-19 ms together, about half the 24-27 ms it
# takes to pool 256 samples' eight feature maps (2-core host, same runs). Split
# over two processes, a fresh process still generated a 512-sample corpus
# faster in 9 of 12 alternating runs (medians 90 against 110 ms), and a
# 1,000-sample one in 9 of 12 (161 against 216 ms).
FORK_SAMPLES = 256

# Feature maps are generated and pooled in blocks of whole samples that hold at
# most this many values, and at least one sample: 256 KiB of float64, so 64
# samples of the desk registry's base features or 128 of its expert features.
# One block of all the samples raised the peak RSS of a serial 1,000-sample build
# by 2.3 MB; blocks of this size keep it at or below one map at a time, and a
# map at experts.json's 2**20-value bound is still generated alone.
POOL_BLOCK_VALUES = 2**15

_QUESTION_TEMPLATES = (
    "Where is the answer hidden in this image?",
    "What value is encoded here?",
    "Recover the signal from this picture.",
    "What does this image tell you?",
)


def _question_for(rng: np.random.Generator, planted_description: str) -> str:
    # The question cues the planted expert's specialty so the gating network
    # has a real multimodal signal to route on, mirroring instruction-aware
    # gating at desk scale.
    template = _QUESTION_TEMPLATES[int(rng.integers(len(_QUESTION_TEMPLATES)))]
    return f"{template} Focus: {planted_description}"


_LOSS_FIELDS = {
    "sample_id": Field(str),
    "base_loss": Field(float, 0),
    "expert_losses": Field(float, 0, many=True),
}
_ANNOTATION_FIELDS = {"sample_id": Field(str), "experts": Field(str, many=True)}
_CAP = Field(int, 1)


@dataclass(frozen=True)
class LossRecord:
    sample_id: str
    base_loss: float
    expert_losses: tuple[float, ...]

    def __post_init__(self):
        check_fields(self, _LOSS_FIELDS)


@dataclass(frozen=True)
class RoutingAnnotation:
    sample_id: str
    experts: tuple[str, ...]

    def __post_init__(self):
        check_fields(self, _ANNOTATION_FIELDS)
        if len(set(self.experts)) != len(self.experts):
            raise ValidationError(
                f"sample {self.sample_id!r}: duplicate experts in annotation"
            )


def checked_losses(record: LossRecord, registry: ExpertRegistry) -> tuple[float, ...]:
    """The record's expert losses in registry order; refused unless there is one per expert."""
    if len(record.expert_losses) != len(registry):
        raise ValidationError(
            f"sample {record.sample_id!r}: {len(record.expert_losses)} expert losses "
            f"for a registry of {len(registry)}"
        )
    return record.expert_losses


def construct_routing_set(
    record: LossRecord, registry: ExpertRegistry, cap: int = DEFAULT_CAP
) -> RoutingAnnotation:
    """Experts strictly beating the base loss, capped, ordered by ascending loss."""
    _CAP.check("cap", cap)
    qualifying = [
        (loss, idx)
        for idx, loss in enumerate(checked_losses(record, registry))
        if loss < record.base_loss
    ]
    qualifying.sort()
    names = tuple(registry.experts[idx].name for _, idx in qualifying[:cap])
    return RoutingAnnotation(sample_id=record.sample_id, experts=names)


# ---------------------------------------------------------------------------
# JSONL formats: one object per line with exactly these keys (only
# planted_expert may be left out). Numbers are finite; integers count as
# numbers, but no value is converted from another JSON type ("0.5", true).
#
# samples.jsonl:      {"sample_id": string, "image_seed": integer >= 0, "question": string,
#                      "answer_vector": [number, ...], "planted_expert": string | null}
# losses.jsonl:       {"sample_id": string, "base_loss": number >= 0,
#                      "expert_losses": [number >= 0, one per registry expert]}
# routing.jsonl:      {"sample_id": string, "experts": [string, ...], no repeats}
# ground_truth.jsonl: {"sample_id": string, "planted": string}
# Sample ids are unique within each file.


def _read_jsonl(path, what: str, parse: Callable[[dict], _Record]) -> Iterator[tuple[int, _Record]]:
    """Yield (line number, parse(object)) for every non-blank line of a JSONL file.

    Bad JSON, a missing or unknown key, a wrong value or a record its type
    rejects raises a ValidationError naming path:line (json.JSONDecodeError is
    a ValueError). A repeated ``sample_id`` is rejected the same way.
    """
    try:
        fh = open(path, "rb")  # json.loads decodes, so bad UTF-8 fails at its line
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc})") from exc
    seen: set[str] = set()
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                record = parse(obj)
                sample_id = obj["sample_id"]
                duplicate = sample_id in seen  # an unhashable id raises TypeError here
            except (ValidationError, KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{lineno}: malformed {what} ({exc})") from exc
            if duplicate:
                raise ValidationError(f"{path}:{lineno}: duplicate sample id {sample_id!r}")
            seen.add(sample_id)
            yield lineno, record


# json.dumps(obj, sort_keys=True) without building an encoder per line.
_ENCODER = json.JSONEncoder(sort_keys=True)


def _dump_jsonl(path, objects: Iterable[dict]) -> None:
    """One sorted-key JSON line per object, written in one step. A record's
    fields are its format's keys, so the writers pass vars(record)."""
    with atomic_write(path) as fh:
        for obj in objects:
            fh.write(_ENCODER.encode(obj) + "\n")


def _loss_records(path) -> Iterator[tuple[int, LossRecord]]:
    return _read_jsonl(path, "loss record", lambda obj: LossRecord(**obj))


def load_loss_records(path) -> list[LossRecord]:
    """Records in file order; a repeated sample id is an error."""
    return [record for _, record in _loss_records(path)]


def save_loss_records(path, records: Iterable[LossRecord]) -> None:
    _dump_jsonl(path, map(vars, records))


def load_annotations(path) -> list[RoutingAnnotation]:
    return [a for _, a in _read_jsonl(path, "annotation", lambda obj: RoutingAnnotation(**obj))]


def save_annotations(path, annotations: Iterable[RoutingAnnotation]) -> None:
    _dump_jsonl(path, map(vars, annotations))


def load_ground_truth(path) -> dict[str, str]:
    def parse(obj):
        if set(obj) != {"sample_id", "planted"}:
            raise ValidationError(f"keys must be sample_id and planted, got {sorted(obj)}")
        return tuple(Field(str).check(key, obj[key]) for key in ("sample_id", "planted"))

    return dict(pair for _, pair in _read_jsonl(path, "ground truth", parse))


def save_ground_truth(path, truth: Mapping[str, str]) -> None:
    _dump_jsonl(path, ({"sample_id": sid, "planted": planted} for sid, planted in truth.items()))


def _sample(obj: dict) -> Sample:
    if "answer_vector" not in obj:  # Sample defaults it for routing-only samples
        raise KeyError("answer_vector")
    return Sample(**obj)


def load_samples(path) -> list[Sample]:
    return [sample for _, sample in _read_jsonl(path, "sample", _sample)]


def save_samples(path, samples: Iterable[Sample]) -> None:
    _dump_jsonl(path, map(vars, samples))


def build_annotations(losses_path, registry: ExpertRegistry, cap: int, out_path) -> int:
    """One annotation line per loss record, order preserved; returns the count."""
    _CAP.check("cap", cap)
    annotations = []
    for lineno, record in _loss_records(losses_path):
        try:
            annotations.append(construct_routing_set(record, registry, cap))
        except ValidationError as exc:
            raise ValidationError(f"{losses_path}:{lineno}: malformed loss record ({exc})") from exc
    save_annotations(out_path, annotations)
    return len(annotations)


def score_routing_accuracy(
    annotations: Sequence[RoutingAnnotation], ground_truth: Mapping[str, str]
) -> float:
    """Fraction of samples whose annotation contains the planted expert."""
    if not annotations:
        raise ValidationError("no annotations to score")
    ids = {a.sample_id for a in annotations}
    if len(ids) != len(annotations):
        raise ValidationError("duplicate sample ids among annotations")
    if ids != set(ground_truth):
        missing = sorted(set(ground_truth) - ids)
        extra = sorted(ids - set(ground_truth))
        raise ValidationError(
            f"annotation/ground-truth id mismatch (missing {missing[:5]}, extra {extra[:5]})"
        )
    hits = sum(1 for a in annotations if ground_truth[a.sample_id] in a.experts)
    return hits / len(annotations)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass(frozen=True)
class CorpusManifest:
    directory: str
    samples_path: str
    losses_path: str
    ground_truth_path: str
    num_samples: int
    seed: int
    noise_scale: float
    answer_dim: int


def probe_residuals(features: np.ndarray, answers: np.ndarray, fit_rows: np.ndarray) -> np.ndarray:
    """Per-sample MSE of the least-squares probe fit on `fit_rows`."""
    weights, *_ = np.linalg.lstsq(features[fit_rows], answers[fit_rows], rcond=None)
    diff = features @ weights - answers
    return (diff * diff).mean(axis=1)


def _pooled_rows(
    registry: ExpertRegistry, samples: Sequence[Sample], planted_idx: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Globally pooled base and per-expert features of samples [lo, hi):
    (base rows, [rows of expert j]). The base and then each expert is generated
    in blocks of POOL_BLOCK_VALUES, in sample order, so the first error raised is
    the one that generating one map at a time would raise. A block's row means
    are global_avg_pool's, bit for bit."""

    def pooled(shape: tuple[int, ...], block: Callable[[range], np.ndarray]) -> np.ndarray:
        step = max(1, POOL_BLOCK_VALUES // math.prod(shape))
        starts = range(lo, hi, step)
        return np.concatenate([block(range(c, min(c + step, hi))).mean(axis=(2, 3)) for c in starts])

    def seeds(rows: range) -> list[int]:
        return [samples[i].image_seed for i in rows]

    def answers(rows: range, j: int) -> dict[int, tuple[float, ...]]:
        return {r: samples[i].answer_vector for r, i in enumerate(rows) if planted_idx[i] == j}

    base = pooled(registry.base_shape, lambda rows: base_features(registry, seeds(rows)))
    experts = [
        pooled(spec.shape, lambda rows: expert_features(spec, seeds(rows), answers(rows, j)))
        for j, spec in enumerate(registry.experts)
    ]
    return base, experts


def generate_synthetic_corpus(
    registry: ExpertRegistry,
    num_samples: int,
    seed: int,
    out_dir,
    noise_scale: float = 0.0,
    answer_dim: int = 4,
    planted_pool: str | Sequence[str] | None = None,
) -> CorpusManifest:
    """Emit samples.jsonl, losses.jsonl, and ground_truth.jsonl under out_dir.

    Every sample plants its answer vector in one expert, drawn seeded-random
    from `planted_pool` (a name, several names, or the whole registry when
    None). Losses are linear-probe recovery residuals: each expert's probe is
    fit on the samples it carries, the base probe on all samples, plus
    `noise_scale * |N(0,1)|` observation noise.
    """
    Field(int, 1, MAX_SAMPLES).check("num_samples", num_samples)
    # Checked, not stored: an integer scale is written to manifest.json as given.
    Field(float, 0).check("noise_scale", noise_scale)
    Field(int, 1, min(spec.channels for spec in registry.experts)).check("answer_dim", answer_dim)
    out_dir = Path(out_dir)
    # Checked before the work, and not made until after it: a failed run leaves no directory.
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists() or path.is_symlink())
    if not existing.is_dir():
        what = "not a directory" if existing == out_dir else f"{existing} is not a directory"
        raise ValidationError(f"{out_dir}: {what}")
    if planted_pool is None:
        pool = tuple(range(len(registry)))
    else:
        names = (planted_pool,) if isinstance(planted_pool, str) else tuple(planted_pool)
        pool = tuple(registry.index_of(name) for name in names)

    rng = np.random.default_rng([_CORPUS_SALT, int(seed)])
    n = len(registry)
    samples: list[Sample] = []
    planted_idx = np.empty(num_samples, dtype=int)
    answers = np.empty((num_samples, answer_dim))
    for i in range(num_samples):
        image_seed = int(rng.integers(2**63))
        p = pool[int(rng.integers(len(pool)))]
        answer = rng.standard_normal(answer_dim)
        question = _question_for(rng, registry.experts[p].description)
        planted_idx[i] = p
        answers[i] = answer
        samples.append(
            Sample(
                sample_id=f"s{i:05d}",
                image_seed=image_seed,
                question=question,
                answer_vector=answer.tolist(),
                planted_expert=registry.experts[p].name,
            )
        )

    # Each feature map has its own seed, so pooling ranges of samples in several
    # processes and joining the rows in range order gives the serial bits.
    procs = max(1, min(usable_cpus(), num_samples // FORK_SAMPLES))
    bounds = [num_samples * w // procs for w in range(procs + 1)]
    ranges = list(zip(bounds, bounds[1:]))

    def pool(lo: int, hi: int):
        return _pooled_rows(registry, samples, planted_idx, lo, hi)

    parts = fork_map(pool, ranges)  # one range runs here and forks nothing
    pooled_base = np.concatenate([base for base, _ in parts])
    pooled_experts = [np.concatenate([experts[j] for _, experts in parts]) for j in range(n)]

    all_rows = np.arange(num_samples)
    base_losses = probe_residuals(pooled_base, answers, all_rows)
    expert_losses = np.empty((num_samples, n))
    for j in range(n):
        rows = np.flatnonzero(planted_idx == j)
        fit_rows = rows if rows.size else all_rows
        expert_losses[:, j] = probe_residuals(pooled_experts[j], answers, fit_rows)

    try:
        with np.errstate(over="raise"):
            noise = noise_scale * np.abs(rng.standard_normal((num_samples, n + 1)))
            base_losses = base_losses + noise[:, 0]
            expert_losses = expert_losses + noise[:, 1:]
    except FloatingPointError:
        raise ValidationError(f"noise_scale {noise_scale!r} makes a loss overflow") from None

    out_dir.mkdir(parents=True, exist_ok=True)
    samples_path = out_dir / "samples.jsonl"
    losses_path = out_dir / "losses.jsonl"
    truth_path = out_dir / "ground_truth.jsonl"
    manifest_path = out_dir / "manifest.json"
    # Each file is replaced on its own, so the old corpus goes before any new file
    # is written: a rewrite stopped part way leaves files of one generation only.
    for path in (manifest_path, samples_path, losses_path, truth_path):
        path.unlink(missing_ok=True)
    save_samples(samples_path, samples)
    save_loss_records(
        losses_path,
        (
            LossRecord(s.sample_id, float(base_losses[i]), expert_losses[i].tolist())
            for i, s in enumerate(samples)
        ),
    )
    save_ground_truth(truth_path, {s.sample_id: s.planted_expert for s in samples})
    manifest = CorpusManifest(
        directory=str(out_dir),
        samples_path=str(samples_path),
        losses_path=str(losses_path),
        ground_truth_path=str(truth_path),
        num_samples=num_samples,
        seed=seed,
        noise_scale=noise_scale,
        answer_dim=answer_dim,
    )
    # On-disk manifest is path-free so identical seeds give identical bytes
    # regardless of where the corpus lands.
    on_disk = {
        "files": ["ground_truth.jsonl", "losses.jsonl", "samples.jsonl"],
        "num_samples": num_samples,
        "seed": seed,
        "noise_scale": noise_scale,
        "answer_dim": answer_dim,
    }
    with atomic_write(manifest_path) as fh:
        fh.write(json.dumps(on_disk, indent=2, sort_keys=True) + "\n")
    return manifest
