"""The mova command line.

Exit codes: 0 success, 1 validation/usage/file/import error or interrupt, 2
property or acceptance failure. MOVA_SEED overrides default seeds when the
corresponding flag is absent. All reports are JSON on stdout or at --report.
Each subcommand imports its own harness module when it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from mova.adapter.config import desk_config, load_config
from mova.adapter.params import init_params, load_params
from mova.errors import EmptyResponseError, MovaError, ValidationError, atomic_write
from mova.experts import Sample, default_registry, load_registry
from mova.harness.pipeline import run_pipeline
from mova.harness.seeds import (
    DEFAULT_CORPUS_SEED,
    DEFAULT_IMAGE_SEED,
    DEFAULT_ROUTE_SEED,
    resolve_seed,
)
from mova.routing import STRATEGIES, ExpertSelection, RoutingContext, route
from mova.routing_data import (
    DEFAULT_CAP,
    build_annotations,
    generate_synthetic_corpus,
    load_annotations,
    load_ground_truth,
    load_loss_records,
    score_routing_accuracy,
)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(payload: dict, report_path=None) -> None:
    """Print the report; with a path, also write it there in one step."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if report_path:
        with atomic_write(report_path) as fh:
            fh.write(text + "\n")


def _registry_from(path):
    return load_registry(path) if path else default_registry()


def _routing_context(args) -> RoutingContext:
    """The context of the flags _add_routing_flags defines."""
    return RoutingContext(
        annotations={a.sample_id: a for a in load_annotations(args.annotations)} if args.annotations else None,
        losses={r.sample_id: r for r in load_loss_records(args.losses)} if args.losses else None,
        seed=resolve_seed(args.seed, DEFAULT_ROUTE_SEED),
        cap=args.cap,
        response=args.response,
    )


def _add_routing_flags(parser, with_question=True):
    parser.add_argument("--experts", help="experts.json (default: built-in desk registry)")
    if with_question:
        parser.add_argument("--question", required=True)
    parser.add_argument("--strategy", required=True, choices=STRATEGIES)
    parser.add_argument("--annotations", help="routing.jsonl for the annotation strategy")
    parser.add_argument("--losses", help="losses.jsonl for the oracle strategy")
    parser.add_argument("--sample-id", default="cli")
    parser.add_argument("--response", help="scripted strategy response text")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)


def _cmd_route(args) -> int:
    registry = _registry_from(args.experts)
    context = _routing_context(args)
    sample = Sample(sample_id=args.sample_id, image_seed=0, question=args.question)
    try:
        decision = route(args.strategy, registry, sample, context)
        selection = decision.selection
    except EmptyResponseError:
        # Caller-decided fallback: an unparseable/empty response routes nothing.
        selection = ExpertSelection(())
    _emit(
        {
            "experts": [registry.experts[i].name for i in selection.indices],
            "letters": list(selection.letters()),
            "strategy": args.strategy,
        }
    )
    return 0


def _cmd_build_routing_data(args) -> int:
    registry = _registry_from(args.experts)
    count = build_annotations(args.losses, registry, args.cap, args.out)
    _emit({"written": count, "out": args.out})
    return 0


def _cmd_gen_synthetic(args) -> int:
    registry = _registry_from(args.experts)
    manifest = generate_synthetic_corpus(
        registry,
        num_samples=args.samples,
        seed=resolve_seed(args.seed, DEFAULT_CORPUS_SEED),
        out_dir=args.out,
        noise_scale=args.noise,
        answer_dim=args.answer_dim,
        planted_pool=args.planted.split(",") if args.planted else None,
    )
    _emit(manifest.__dict__)
    return 0


def _cmd_score_routing(args) -> int:
    annotations = load_annotations(args.annotations)
    truth = load_ground_truth(args.truth)
    accuracy = score_routing_accuracy(annotations, truth)
    _emit({"accuracy": accuracy, "samples": len(annotations)})
    return 0


def _cmd_fuse(args) -> int:
    registry = _registry_from(args.experts)
    config = load_config(args.adapter_config) if args.adapter_config else desk_config()
    params = load_params(args.params, config, registry) if args.params else init_params(config, registry)
    result = run_pipeline(
        registry, args.question, args.strategy, _routing_context(args), config, params,
        image_seed=resolve_seed(args.image_seed, DEFAULT_IMAGE_SEED), out_path=args.out,
        sample_id=args.sample_id,
    )
    _emit(result.summary_dict())
    return 0


def _cmd_train_toy(args) -> int:
    from mova.harness.train import load_toy_config, train_toy
    config, registry = load_toy_config(args.config)
    report, _params = train_toy(config, registry)
    print(
        f"trained {config.steps} steps in {report.wall_clock_seconds:.2f}s "
        f"on {report.processes} process{'es' if report.processes > 1 else ''}",
        file=sys.stderr,
    )
    _emit(report.artifact_dict(), args.report)
    return 0


def _cmd_ablate(args) -> int:
    from mova.harness.ablate import run_ablation
    from mova.harness.train import ToyTrainConfig
    registry = _registry_from(args.experts)
    config = ToyTrainConfig(
        corpus_dir=args.corpus,
        steps=args.steps,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=resolve_seed(args.seed, DEFAULT_CORPUS_SEED),
        scope=args.scope,
        eval_samples=args.eval_samples,
    )
    modes = [m for m in args.modes.split(",") if m]
    report = run_ablation(modes, config, registry)
    _emit(report, args.report)
    return 0


def _cmd_gradcheck(args) -> int:
    from mova.harness.gradcheck_run import full_gradient_check
    report = full_gradient_check(eps=args.eps, tol=args.tol)
    _emit(report, args.report)
    return 0 if report["ok"] else 2


def _cmd_check(args) -> int:
    from mova.harness.properties import run_property_suite
    report = run_property_suite()
    _emit(report.summary_dict(), args.report)
    return 0 if report.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mova", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("route", help="run one routing strategy and print the decision")
    _add_routing_flags(p)
    p.set_defaults(fn=_cmd_route)

    p = sub.add_parser("build-routing-data", help="construct routing annotations from losses")
    p.add_argument("--experts")
    p.add_argument("--losses", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(fn=_cmd_build_routing_data)

    p = sub.add_parser("gen-synthetic", help="generate a planted-signal corpus")
    p.add_argument("--experts")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--answer-dim", type=int, default=4)
    p.add_argument("--planted", help="comma-separated expert names to plant in (default: all)")
    p.set_defaults(fn=_cmd_gen_synthetic)

    p = sub.add_parser("score-routing", help="score annotations against planted ground truth")
    p.add_argument("--annotations", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(fn=_cmd_score_routing)

    p = sub.add_parser("fuse", help="route, fuse, and write output tokens (full pipeline)")
    _add_routing_flags(p)
    p.add_argument("--adapter-config", help="adapter.json (default: desk config)")
    p.add_argument("--params", help="parameter directory (default: seeded init)")
    p.add_argument("--image-seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output MOVT token file")
    p.set_defaults(fn=_cmd_fuse)

    p = sub.add_parser("train-toy", help="train the adapter on a planted corpus")
    p.add_argument("--config", required=True, help="toy.json training config")
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("ablate", help="train routing/gating ablation arms and compare")
    p.add_argument("--modes", required=True, help="comma-separated ablation modes")
    p.add_argument("--corpus", required=True)
    p.add_argument("--experts")
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scope", default="full-adapter")
    p.add_argument("--eval-samples", type=int, default=32)
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="audit analytic gradients against finite differences")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("check", help="run the executable property suite")
    p.add_argument("--report", help="also write the report JSON here")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 1
    try:
        # Fail before the run, not after it, when its output file cannot be written.
        files = {"--report": getattr(args, "report", None)}
        if args.command in ("fuse", "build-routing-data"):
            files["--out"] = args.out
        for flag, path in files.items():
            if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
                raise ValidationError(f"{flag} {path} must name a file in an existing directory")
        return args.fn(args)
    except (MovaError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
