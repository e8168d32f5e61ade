"""The benchmark's three workloads.

Each workload sets itself up from a workload seed, then runs one closed-loop
client in this process: it issues its next operation only after the previous
one returned. ``run(seconds)`` keeps going until the time is used up (and a
minimum count is met); ``run(None)`` does a fixed amount of work, which is what
the traced run uses so that its counts repeat exactly. Every operation's output
is checked, and an operation that raises or fails a check counts as failed.

All calls into the system go through module attributes (``pipeline.run_pipeline``,
``train.train_toy``, ``routing_data.build_annotations``) so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import numpy as np

from mova import routing, routing_data
from mova.adapter.config import desk_config
from mova.adapter.params import init_params
from mova.errors import MovaError
from mova.experts import default_registry
from mova.harness import pipeline, train

GOLDEN_PATH = Path(__file__).with_name("golden.json")
TRAIN_POOL = ("dinov2", "pix2struct", "deplot")
_QUESTION_WORDS = (
    "where", "what", "how", "many", "is", "the", "value", "label", "axis", "chart",
    "text", "sign", "object", "region", "boundary", "table", "page", "scan", "organ",
    "count", "peak", "line", "bar", "left", "right", "top", "written", "shown",
)
_FUSE_SALT, _TRAIN_SALT, _CORPUS_SALT = 0xF05E, 0x78A1, 0xC08B
_GOLDEN_SEED, _GOLDEN_SAMPLES = 2404, 16  # the golden corpus; no workload seed changes it
_GAUGE_EVERY_S = 0.4  # fuse-stream takes a speed-gauge reading this often


@dataclass(frozen=True)
class Sizes:
    setup_probes: int = 7
    # fuse-stream
    oracle_corpus: int = 256
    oracle_noise: float = 0.5  # enough noise that some samples route to no expert
    min_requests: int = 1000  # p99 needs >= 10 requests beyond it
    traced_requests: int = 1000
    cli_calls: int = 10
    # train-oracle
    train_corpus: int = 96
    batch: int = 48
    eval_samples: int = 48
    extra_steps: int = 12
    min_rounds: int = 2
    traced_extra_steps: int = 8
    # corpus-build
    corpus_samples: int = 1000
    min_builds: int = 5
    traced_builds: int = 3


FULL = Sizes()
SMOKE = Sizes(
    setup_probes=1, oracle_corpus=32, min_requests=20, traced_requests=20, cli_calls=1,
    train_corpus=16, batch=8, eval_samples=8, extra_steps=2, min_rounds=1,
    traced_extra_steps=1, corpus_samples=100, min_builds=1, traced_builds=1,
)

# Units of the named end-to-end metrics each workload reports.
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "fuse_p50_ms": "ms",
    "fuse_p99_ms": "ms",
    "fuse_rps": "req/s",
    "cli_fuse_p50_ms": "ms",
    "train_samples_per_s": "samples/s",
    "train_forward_ms": "ms",
    "train_fixed_s": "s",
    "corpus_samples_per_s": "samples/s",
    "annotate_records_per_s": "records/s",
}


@dataclass
class Result:
    """What one pass of a workload did and measured."""

    attempted: int = 0
    failed: int = 0
    items: int = 0  # normalisation base of the per-layer metrics
    named: dict[str, float] = field(default_factory=dict)  # as measured
    rate_per_s: float = 0.0  # the generic steady-state rate, at nominal host speed
    call_s: float = 0.0  # the generic one-shot call time, at nominal host speed
    latencies: list[float] = field(default_factory=list)
    gauge_s: list[float] = field(default_factory=list)  # speed-gauge readings
    k_share: dict[int, float] = field(default_factory=dict)  # fuse-stream: requests per K


def _keep_going(done: int, at_least: int, started: float, seconds, last_op_s: float) -> bool:
    """Start another operation? Fixed work when seconds is None, else time-boxed."""
    if done < at_least:
        return True
    if seconds is None:
        return False
    return perf_counter() - started + last_op_s <= seconds


class SpeedGauge:
    """Scales measured times to one nominal host speed.

    The host is shared, and its speed changes by more than a regression worth
    catching: it switches between a fast and a slow state for seconds to
    minutes at a time (baseline.json records each workload's spread with and
    without scaling). So a run takes readings of a fixed reference kernel
    between its operations, outside their timed parts, and multiplies each
    operation's time by NOMINAL_S over the mean of the readings taken within
    WINDOW_S of it. The mean, not the median, because the readings have two
    modes, and their mean follows the share of the window spent in each state.
    The kernel lives in the benchmark, not the system, so no change to the
    system can alter it; like the system, it is interpreter-bound work on tiny
    arrays. NOMINAL_S only fixes the unit: it is about the kernel's time on
    the host baseline.json was measured on, and on any host only runs on that
    host compare. An inactive gauge (the traced run's) takes no readings and
    scales by 1.
    """

    NOMINAL_S = 0.008
    WINDOW_S = 2.0
    _WEIGHTS = np.random.default_rng(0).standard_normal((8, 8))

    def __init__(self, active: bool):
        self.active = active
        self.readings: list[float] = []
        self.times: list[float] = []  # when each reading was taken
        self.spent = 0.0  # seconds spent taking readings
        self.read()

    def read(self) -> None:
        if not self.active:
            return
        # The kernel makes no reference cycles; a collection it happened to
        # trigger would time the caller's heap, not the host.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        x, acc = np.ones((16, 8)), {}
        for i in range(1500):
            y = np.tanh(x @ self._WEIGHTS) + x
            acc[i % 97] = float(y[0, 0])
            x = 0.5 * y
        seconds = perf_counter() - t0
        if gc_was_enabled:
            gc.enable()
        self.readings.append(seconds)
        self.times.append(t0)
        self.spent += seconds

    def nominal(self, seconds: float, at: float) -> float:
        """An operation's seconds at nominal speed; `at` is when it started.

        Call once the readings after the operation have been taken.
        """
        if not self.readings:
            return seconds
        lo = bisect_left(self.times, at - self.WINDOW_S)
        hi = bisect_right(self.times, at + seconds + self.WINDOW_S)
        near = self.readings[lo:hi] or self.readings[max(lo - 1, 0):lo + 1]
        return seconds * self.NOMINAL_S / fmean(near)


def child_env(root: Path, base_env) -> dict:
    env = dict(base_env)
    env.pop("MOVA_SEED", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class RoutingCorpus:
    """A generated corpus with its loss records and routing annotations."""

    losses_path: Path
    annotations_path: Path
    losses: dict
    annotations: dict

    @classmethod
    def generate(cls, registry, samples: int, seed: int, out_dir: Path, noise: float):
        manifest = routing_data.generate_synthetic_corpus(
            registry, samples, seed=seed, out_dir=out_dir, noise_scale=noise
        )
        annotations_path = out_dir / "routing.jsonl"
        routing_data.build_annotations(
            manifest.losses_path, registry, routing_data.DEFAULT_CAP, annotations_path
        )
        return cls(
            manifest.losses_path,
            annotations_path,
            {r.sample_id: r for r in routing_data.load_loss_records(manifest.losses_path)},
            {a.sample_id: a for a in routing_data.load_annotations(annotations_path)},
        )


@dataclass(frozen=True)
class Request:
    index: int
    sample_id: str
    question: str
    image_seed: int
    strategy: str
    route_seed: int | None = None
    response: str | None = None


def request_stream(seed: int, corpus: RoutingCorpus, registry):
    """The endless seeded request stream over a corpus's samples.

    Strategies take turns in the order of mova.routing.STRATEGIES, one equal
    share each: every strategy `mova fuse` accepts. The random strategy draws
    K from 1 to routing_data.DEFAULT_CAP, and scripted responses name that
    many letters too, so all K values from 0 to 3 (oracle and annotation, as
    the data decides) and 7 (all) occur. Image seeds and questions are
    distinct for every request.
    """
    rng = np.random.default_rng([_FUSE_SALT, seed])
    sample_ids = sorted(corpus.losses)
    index = 0
    while True:
        strategy = routing.STRATEGIES[index % len(routing.STRATEGIES)]
        words = rng.choice(_QUESTION_WORDS, size=int(rng.integers(4, 10)))
        sample_id = sample_ids[int(rng.integers(len(sample_ids)))]
        route_seed = int(rng.integers(2**31))
        k = int(rng.integers(1, routing_data.DEFAULT_CAP + 1))
        letters = ", ".join(registry.experts[int(i)].letter
                            for i in rng.choice(len(registry), size=k, replace=False))
        yield Request(
            index=index,
            sample_id=sample_id,
            question=" ".join(words) + f" (request {seed}-{index})?",
            image_seed=(seed << 32) | index,
            strategy=strategy,
            route_seed=route_seed if strategy == "random" else None,
            response=letters if strategy == "scripted" else None,
        )
        index += 1


class FuseStream:
    """Seeded inference requests through run_pipeline, with `mova fuse` twins.

    The golden requests, one per strategy over a corpus that no workload seed
    changes, must give the MOVT digests stored in golden.json (keyed by
    strategy), both in this process and as `mova fuse` processes.
    """

    name = "fuse-stream"
    item_span = "harness.run_pipeline"

    def __init__(self, seed: int, work: Path, sizes: Sizes, root: Path, env: dict):
        self.seed, self.work, self.sizes, self.root, self.env = seed, work, sizes, root, env
        self.registry = default_registry()
        self.config = desk_config()
        self.params = init_params(self.config, self.registry)
        corpus_seed = int(np.random.default_rng([_FUSE_SALT, seed]).integers(2**31))
        self.corpus = RoutingCorpus.generate(
            self.registry, sizes.oracle_corpus, corpus_seed, work / "oracle", sizes.oracle_noise
        )
        self.golden_corpus = RoutingCorpus.generate(
            self.registry, _GOLDEN_SAMPLES, _GOLDEN_SEED, work / "golden", FULL.oracle_noise
        )
        self.golden = [r for r, _ in zip(
            request_stream(_GOLDEN_SEED, self.golden_corpus, self.registry),
            routing.STRATEGIES,
        )]
        self.tokens_path = work / "tokens.movt"
        c, h, w = self.registry.base_shape
        self.token_shape = ((h // 2) * (w // 2), self.config.llm_dim)
        self.expected = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
        self.golden_digests = {r.strategy: self._golden_digest(r) for r in self.golden}
        self.golden_failed = sum(
            digest is None or digest != self.expected.get(strategy)
            for strategy, digest in self.golden_digests.items()
        )

    def _golden_digest(self, request: Request) -> str | None:
        try:
            result = self._call(request, self.golden_corpus)
        except MovaError:
            return None
        return _sha256(self.tokens_path) if self._valid(request, result) else None

    def _call(self, request: Request, corpus: RoutingCorpus):
        context = routing.RoutingContext(
            annotations=corpus.annotations if request.strategy == "annotation" else None,
            losses=corpus.losses if request.strategy == "oracle" else None,
            seed=request.route_seed,
            response=request.response,
        )
        return pipeline.run_pipeline(
            self.registry, request.question, request.strategy, context, self.config,
            self.params, image_seed=request.image_seed, out_path=self.tokens_path,
            sample_id=request.sample_id,
        )

    def _valid(self, request: Request, result) -> bool:
        tokens = result.tokens
        if tokens.shape != self.token_shape or not np.all(np.isfinite(tokens)):
            return False
        k = result.decision.selection.k
        if request.strategy == "all" and k != len(self.registry):
            return False
        if len(result.gate_summary) != (self.config.num_blocks if k else 0):
            return False
        return all(abs(sum(g.values()) - 1.0) <= 1e-9 for g in result.gate_summary)

    def _cli(self, request: Request, expected: str | None) -> bool:
        """One `mova fuse` process for a golden request; is its output right?"""
        out = self.work / "cli.movt"
        cmd = [
            sys.executable, "-m", "mova.harness.cli", "fuse",
            "--question", request.question, "--strategy", request.strategy,
            "--image-seed", str(request.image_seed), "--sample-id", request.sample_id,
            "--losses", str(self.golden_corpus.losses_path),
            "--annotations", str(self.golden_corpus.annotations_path), "--out", str(out),
        ]
        if request.route_seed is not None:
            cmd += ["--seed", str(request.route_seed)]
        if request.response is not None:
            cmd += ["--response", request.response]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )
        return proc.returncode == 0 and _sha256(out) == expected

    def run(self, seconds) -> Result:
        res = Result(attempted=len(self.golden), failed=self.golden_failed)
        gauge = SpeedGauge(active=seconds is not None)
        at_least = self.sizes.min_requests if seconds is not None else self.sizes.traced_requests
        # The CLI twins are spread over the window, so that one slow spell of
        # the host cannot meet all of them.
        cli_due = [] if seconds is None else [
            self.golden[i % len(self.golden)] for i in range(self.sizes.cli_calls)
        ]
        spacing = seconds / len(cli_due) if cli_due else 0.0
        cli_walls, cli_starts, starts, ks = [], [], [], Counter()

        def run_cli(request):
            t0 = perf_counter()
            ok = self._cli(request, self.expected.get(request.strategy))
            cli_walls.append(perf_counter() - t0)
            cli_starts.append(t0)
            gauge.read()
            res.attempted += 1
            res.failed += not ok

        started = last_reading = perf_counter()
        last = 0.0
        for request in request_stream(self.seed, self.corpus, self.registry):
            if not _keep_going(request.index, at_least, started, seconds, last):
                break
            if cli_due and perf_counter() - started >= len(cli_walls) * spacing:
                run_cli(cli_due.pop(0))
            if perf_counter() - last_reading >= _GAUGE_EVERY_S:
                gauge.read()
                last_reading = perf_counter()
            t0 = perf_counter()
            try:
                result = self._call(request, self.corpus)
            except MovaError:
                result = None
            last = perf_counter() - t0
            res.attempted += 1
            if result is None or not self._valid(request, result):
                res.failed += 1
                continue
            res.latencies.append(last)
            starts.append(t0)
            ks[result.decision.selection.k] += 1
        gauge.read()
        for request in cli_due:
            run_cli(request)
        res.items = len(res.latencies)
        res.gauge_s = gauge.readings
        if not res.latencies:
            return res
        lat = np.asarray(res.latencies)
        res.k_share = {k: ks[k] / len(lat) for k in sorted(ks)}
        res.named = {
            "fuse_p50_ms": 1e3 * float(np.median(lat)),
            "fuse_p99_ms": 1e3 * float(np.percentile(lat, 99)),
            "fuse_rps": len(lat) / float(lat.sum()),
        }
        res.rate_per_s = len(lat) / sum(map(gauge.nominal, res.latencies, starts))
        if cli_walls:
            res.named["cli_fuse_p50_ms"] = 1e3 * median(cli_walls)
            res.call_s = median(map(gauge.nominal, cli_walls, cli_starts))
        return res


@contextmanager
def timed_batches(gauge: SpeedGauge):
    """Time every batch_loss (a training step) and batch_loss_value (a
    forward-only pass over the batch, 64 of them in the step-0 spot check) of
    the trainer; read the gauge after each, outside the timed part.

    Yields {method name: [(start, seconds) of each call]}. Rebinds the methods on the
    trainer's corpus runner, from the benchmark's side, and restores them on
    exit; a method that no longer exists fails the run.
    """
    runner = train._CorpusRunner
    originals = {name: getattr(runner, name, None) for name in ("batch_loss", "batch_loss_value")}
    timed: dict[str, list[tuple[float, float]]] = {name: [] for name in originals}

    def timing(name, method):
        if not callable(method):
            raise RuntimeError(f"mova.harness.train._CorpusRunner.{name} no longer exists")

        def wrapped(self, *args, **kwargs):
            t0 = perf_counter()
            out = method(self, *args, **kwargs)
            timed[name].append((t0, perf_counter() - t0))
            gauge.read()
            return out

        return wrapped

    wrappers = {name: timing(name, method) for name, method in originals.items()}
    try:
        for name, wrapper in wrappers.items():
            setattr(runner, name, wrapper)
        yield timed
    finally:
        for name, method in originals.items():
            setattr(runner, name, method)


class TrainOracle:
    """Rounds of one train_toy call of 1+extra steps, with oracle routing.

    Step 0 carries the spot check; steps 1..extra are the steady state. Each
    step and each of the spot check's forward-only passes is timed on its own.
    """

    name = "train-oracle"
    item_span = "adapter.build_forward_graph"

    def __init__(self, seed: int, work: Path, sizes: Sizes, root: Path, env: dict):
        self.sizes = sizes
        self.registry = default_registry()
        corpus_seed = int(np.random.default_rng([_TRAIN_SALT, seed]).integers(2**31))
        self.corpus = work / "train-corpus"
        routing_data.generate_synthetic_corpus(
            self.registry, sizes.train_corpus, seed=corpus_seed, out_dir=self.corpus,
            planted_pool=TRAIN_POOL,
        )

    def run(self, seconds) -> Result:
        res = Result()
        extra = self.sizes.extra_steps if seconds is not None else self.sizes.traced_extra_steps
        at_least = self.sizes.min_rounds if seconds is not None else 1
        config = train.ToyTrainConfig(
            corpus_dir=str(self.corpus), steps=1 + extra, learning_rate=0.2,
            batch_size=self.sizes.batch, seed=42, scope="full-adapter", selection=None,
            eval_samples=self.sizes.eval_samples,
        )
        gauge = SpeedGauge(active=seconds is not None)
        steps, forwards, fixed, first_losses = [], [], [], set()
        started, last, rounds = perf_counter(), 0.0, 0
        while _keep_going(rounds, at_least, started, seconds, last):
            res.attempted += 1
            t0, spent = perf_counter(), gauge.spent
            try:
                with timed_batches(gauge) as timed:
                    report, _ = train.train_toy(config, self.registry)
            except MovaError:
                report = None
            last, rounds = perf_counter() - t0, rounds + 1
            reading_s = gauge.spent - spent
            gauge.read()
            # The spot check raises if it fails; every loss must be finite,
            # training must help, and the same config must give the same step 0.
            if report is None or not (
                all(np.isfinite(report.loss_trace)) and np.isfinite(report.eval_loss)
                and report.gradcheck["max_rel_error"] <= config.gradcheck_tol
                and report.loss_trace[-1] < report.loss_trace[0]
                and len(timed["batch_loss"]) == 1 + extra
            ):
                res.failed += 1
                continue
            first_losses.add(report.loss_trace[0])
            steps += timed["batch_loss"][1:]
            forwards += timed["batch_loss_value"]
            # Everything but steps 1..extra, less the gauge's own readings.
            fixed.append(last - reading_s - sum(s for _, s in timed["batch_loss"][1:]))
        if len(first_losses) > 1:
            res.failed += 1
        res.items = rounds * self.sizes.batch * (1 + extra)
        res.gauge_s = gauge.readings
        if steps and not res.failed:
            res.named = {
                "train_samples_per_s": self.sizes.batch / median(s for _, s in steps),
                "train_forward_ms": 1e3 * median(s for _, s in forwards),
                "train_fixed_s": median(fixed),
            }
            res.rate_per_s = self.sizes.batch / median(gauge.nominal(s, t) for t, s in steps)
            res.call_s = median(gauge.nominal(s, t) for t, s in forwards)
        return res


class CorpusBuild:
    """Generate a planted corpus, annotate it, read it back and score it."""

    name = "corpus-build"
    item_span = "routing_data.generate_synthetic_corpus"

    def __init__(self, seed: int, work: Path, sizes: Sizes, root: Path, env: dict):
        self.seed, self.work, self.sizes = seed, work, sizes
        self.registry = default_registry()

    def _check(self, directory: Path, manifest, written: int) -> bool:
        n = self.sizes.corpus_samples
        records = routing_data.load_loss_records(manifest.losses_path)
        annotations = routing_data.load_annotations(directory / "routing.jsonl")
        truth = routing_data.load_ground_truth(manifest.ground_truth_path)
        same_ids = [a.sample_id for a in annotations] == [r.sample_id for r in records]
        # Noise 0 guarantees the planted expert makes every routing set.
        accuracy = routing_data.score_routing_accuracy(annotations, truth)
        return written == n and len(records) == n and same_ids and accuracy == 1.0

    def run(self, seconds) -> Result:
        res = Result()
        n = self.sizes.corpus_samples
        seeds = np.random.default_rng([_CORPUS_SALT, self.seed])
        at_least = self.sizes.min_builds if seconds is not None else self.sizes.traced_builds
        gauge = SpeedGauge(active=seconds is not None)
        generate_s, annotate_s = [], []
        started, last, builds = perf_counter(), 0.0, 0
        while _keep_going(builds, at_least, started, seconds, last):
            directory = self.work / f"corpus-{builds}"
            corpus_seed = int(seeds.integers(2**31))
            res.attempted += 1
            t0 = perf_counter()
            try:
                manifest = routing_data.generate_synthetic_corpus(
                    self.registry, n, seed=corpus_seed, out_dir=directory
                )
                t1 = perf_counter()
                written = routing_data.build_annotations(
                    manifest.losses_path, self.registry, 3, directory / "routing.jsonl"
                )
                t2 = perf_counter()
                ok = self._check(directory, manifest, written)
            except MovaError:
                ok = False
            last, builds = perf_counter() - t0, builds + 1
            shutil.rmtree(directory, ignore_errors=True)
            gauge.read()
            if not ok:
                res.failed += 1
                continue
            generate_s.append((t0, t1 - t0))
            annotate_s.append((t1, t2 - t1))
        res.items = builds * n
        res.gauge_s = gauge.readings
        if generate_s:
            res.named = {
                "corpus_samples_per_s": n / median(s for _, s in generate_s),
                "annotate_records_per_s": n / median(s for _, s in annotate_s),
            }
            res.rate_per_s = n / median(gauge.nominal(s, t) for t, s in generate_s)
            res.call_s = median(gauge.nominal(s, t) for t, s in annotate_s)
        return res


WORKLOADS = {cls.name: cls for cls in (FuseStream, TrainOracle, CorpusBuild)}
