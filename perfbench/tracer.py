"""Span tracer for the benchmark's traced run.

Wrappers are installed from the benchmark's side by rebinding each public name
where its callers look it up (``mova.harness.pipeline.route``,
``mova.numerics.autodiff.matmul``, ...), and the originals are restored on
exit. Nothing under ``src/`` knows about tracing. Every wrapped call records a
span: name, start, end, parent span and item id. Spans stay in compact arrays
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Every public op of mova.numerics.autodiff, each timed and counted separately.
AUTODIFF_OPS = (
    "constant", "variable", "add", "sub", "mul", "scale", "mul_scalar",
    "matmul", "transpose", "reshape", "concat_vec", "gather_vec", "pick",
    "mean_all", "mean_rows", "add_bias", "tanh", "gelu", "softmax_vec",
    "row_softmax", "layer_norm_rows", "avg_pool_2x_rows", "slice_cols",
    "concat_cols",
)


def _array_digest(arr) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


def _text_key(question, text_dim):
    return question, text_dim


def _resize_key(f, out_h, out_w):
    return _array_digest(f.data), f.shape, out_h, out_w


def _base_key(registry, image_seed):
    return registry.base_shape, int(image_seed)


def _expert_key(spec, image_seed, planted=False, answer_vector=()):
    return spec.seed, int(image_seed), bool(planted)


def _record_k(tracer, result, args, kwargs):
    tracer.selected_k.append(result.selection.k)


def _record_bytes(tracer, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.saved_bytes += os.path.getsize(path)


# (span name, binding sites, input key for repeat_frac, result observer).
# A binding site is "module:attribute", the name a caller resolves at call time.
_LAYERS = (
    ("harness.run_pipeline", ("mova.harness.pipeline:run_pipeline",), None, None),
    ("harness.train_toy", ("mova.harness.train:train_toy",), None, None),
    ("routing.route", ("mova.harness.pipeline:route",), None, _record_k),
    (
        "routing_data.construct_routing_set",
        (
            "mova.routing:construct_routing_set",
            "mova.harness.train:construct_routing_set",
            "mova.routing_data:construct_routing_set",
        ),
        None,
        None,
    ),
    (
        "routing_data.load_loss_records",
        ("mova.harness.train:load_loss_records", "mova.routing_data:load_loss_records"),
        None,
        None,
    ),
    ("routing_data.build_annotations", ("mova.routing_data:build_annotations",), None, None),
    (
        "routing_data.generate_synthetic_corpus",
        ("mova.routing_data:generate_synthetic_corpus",),
        None,
        None,
    ),
    (
        "experts.generate_base_feature",
        (
            "mova.harness.pipeline:generate_base_feature",
            "mova.harness.train:generate_base_feature",
            "mova.routing_data:generate_base_feature",
        ),
        _base_key,
        None,
    ),
    (
        "experts.generate_expert_feature",
        (
            "mova.harness.pipeline:generate_expert_feature",
            "mova.harness.train:generate_expert_feature",
            "mova.routing_data:generate_expert_feature",
        ),
        _expert_key,
        None,
    ),
    ("adapter.adapter_apply", ("mova.harness.pipeline:adapter_apply",), None, None),
    ("adapter.lift", ("mova.adapter.network:lift", "mova.harness.train:lift"), None, None),
    (
        "adapter.build_forward_graph",
        ("mova.adapter.network:build_forward_graph", "mova.harness.train:build_forward_graph"),
        None,
        None,
    ),
    ("adapter.encode_text", ("mova.adapter.network:encode_text",), _text_key, None),
    (
        "ops.bilinear_interpolate",
        ("mova.adapter.network:bilinear_interpolate",),
        _resize_key,
        None,
    ),
    ("movt.save_tensor", ("mova.harness.pipeline:save_tensor",), None, _record_bytes),
    ("autodiff.backward", ("mova.numerics.autodiff:backward",), None, None),
) + tuple(
    (f"autodiff.op.{op}", (f"mova.numerics.autodiff:{op}",), None, None) for op in AUTODIFF_OPS
)

# The fields reported for each span name, as "<span>.<field>" metrics.
_TIMED = ("calls", "self_ms")
_REPORT = (
    ("autodiff.backward", _TIMED),
    ("adapter.lift", _TIMED),
    ("adapter.build_forward_graph", _TIMED),
    ("adapter.adapter_apply", ("self_ms",)),
    ("adapter.encode_text", _TIMED + ("repeat_frac",)),
    ("ops.bilinear_interpolate", _TIMED + ("repeat_frac",)),
    ("experts.generate_base_feature", _TIMED + ("repeat_frac",)),
    ("experts.generate_expert_feature", _TIMED + ("repeat_frac",)),
    ("routing.route", _TIMED + ("errors",)),
    ("routing_data.construct_routing_set", _TIMED),
    ("routing_data.load_loss_records", ("self_ms",)),
    ("routing_data.build_annotations", ("self_ms",)),
    ("routing_data.generate_synthetic_corpus", ("self_ms",)),
    ("movt.save_tensor", _TIMED),
    ("harness.run_pipeline", ("self_ms",)),
    ("harness.train_toy", ("self_ms",)),
)

_UNITS = {"calls": "count", "self_ms": "ms", "repeat_frac": "ratio", "errors": "count"}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [("autodiff.nodes_per_item", "count"), ("autodiff.forward.self_ms", "ms")]
    names += [(f"autodiff.op.{op}.calls", "count") for op in AUTODIFF_OPS]
    for span, fields in _REPORT:
        names += [(f"{span}.{field}", _UNITS[field]) for field in fields]
    names += [
        ("routing.selected_k.mean", "count"),
        ("routing.selected_k.max", "count"),
        ("movt.save_tensor.bytes", "bytes"),
    ]
    return names


class Tracer:
    """Records spans for wrapped calls; use as a context manager to install."""

    def __init__(self, item_span: str):
        # A new item (request, sample-step, corpus) starts whenever a span of
        # this name opens; all spans record the item that is current.
        self.item_span = item_span
        self.items = 0
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_item = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.selected_k: list[int] = []
        self.saved_bytes = 0
        self.nodes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, key, observe):
        name_id = len(self.names)
        self.names.append(name)
        opens_item = name == self.item_span
        stack = self._stack
        calls, errors, keys = self.calls, self.errors, self.keys[name]
        span_name, span_item, span_parent = self.span_name, self.span_item, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapped(*args, **kwargs):
            if opens_item:
                self.items += 1
            calls[name] += 1
            if key is not None:
                keys.add(key(*args, **kwargs))
            idx = len(span_start)
            span_name.append(name_id)
            span_item.append(self.items)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result, args, kwargs)
            return result

        return wrapped

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for name, sites, key, observe in _LAYERS:
                for site in sites:
                    module_name, attr = site.split(":")
                    module = importlib.import_module(module_name)
                    if not callable(getattr(module, attr, None)):
                        raise RuntimeError(f"traced name {site} no longer exists")
                    self._rebind(module, attr, self._wrap(name, getattr(module, attr), key, observe))
            autodiff = importlib.import_module("mova.numerics.autodiff")
            node_init = autodiff.Node.__init__

            def counting_init(node, *args, **kwargs):
                self.nodes += 1
                node_init(node, *args, **kwargs)

            self._rebind(autodiff.Node, "__init__", counting_init)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _span_arrays(self):
        name_ids = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return name_ids, duration, duration - covered

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the time child spans cover."""
        name_ids, _, self_time = self._span_arrays()
        per_id = np.bincount(name_ids, weights=self_time, minlength=len(self.names))
        totals: Counter[str] = Counter()
        for name, seconds in zip(self.names, per_id):
            totals[name] += float(seconds)
        return totals

    def item_self_seconds(self) -> np.ndarray:
        """Summed self time of every span of each item, indexed by item id - 1."""
        _, _, self_time = self._span_arrays()
        item_ids = np.frombuffer(self.span_item, dtype=np.int64)
        return np.bincount(item_ids, weights=self_time, minlength=self.items + 1)[1:]

    def layer_metrics(self, items: int) -> dict[str, float]:
        """Per-layer metrics, normalised per item where a count or time applies."""
        self_s = self.self_seconds()
        out = {
            "autodiff.nodes_per_item": self.nodes / items,
            "autodiff.forward.self_ms": 1e3
            * sum(self_s[f"autodiff.op.{op}"] for op in AUTODIFF_OPS)
            / items,
        }
        for op in AUTODIFF_OPS:
            out[f"autodiff.op.{op}.calls"] = self.calls[f"autodiff.op.{op}"] / items
        for span, fields in _REPORT:
            calls = self.calls[span]
            values = {
                "calls": calls / items,
                "self_ms": 1e3 * self_s[span] / items,
                "errors": self.errors[span] / items,
                "repeat_frac": 1.0 - len(self.keys[span]) / calls if calls else 0.0,
            }
            for field in fields:
                out[f"{span}.{field}"] = values[field]
        ks = self.selected_k
        out["routing.selected_k.mean"] = sum(ks) / len(ks) if ks else 0.0
        out["routing.selected_k.max"] = float(max(ks)) if ks else 0.0
        out["movt.save_tensor.bytes"] = self.saved_bytes / items
        return out

    def write(self, path) -> None:
        """Write every span: name table plus name id, item, parent, start and end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            item=np.frombuffer(self.span_item, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
