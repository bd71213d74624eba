"""Span tracer that wraps kvcompose's public functions from outside.

Every traced function is replaced at each module binding that holds it
(``scoring.prefill`` as well as ``model.prefill``), so calls between
modules nest as child spans. Nothing is wrapped until ``install`` runs;
``uninstall`` puts the original functions back. Spans stay in memory.
"""
from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

TRACED = {
    "model": ("prefill", "decode_step", "greedy_decode"),
    "numerics": ("softmax_rows", "argsort_desc"),
    "scoring": ("collect_attention", "score_pipeline"),
    "composer": (
        "compress",
        "composite_indices",
        "allocate_budgets",
        "compact_cache",
        "gather_cache",
        "unstructured_compress",
    ),
    "baselines": ("select_baseline_indices", "tova_select", "snapkv_select"),
    "evaluator": ("sweep", "make_agreement_tasks"),
    "cache_io": ("write_cache", "read_cache", "write_report"),
    "cli": ("main",),
}


def _kept_bytes(args, kwargs, result):
    cache = result
    return {"kept_bytes": sum(k.nbytes + v.nbytes for k, v in zip(cache.keys, cache.values))}


@functools.lru_cache(maxsize=8)
def _weights(size: int):
    import numpy as np  # not at import time: run.py sets BLAS threads first

    return np.random.default_rng(size).standard_normal(size)


def _score_key(args, kwargs, result):
    """Names the (scoring input, AggregationChoice) a score call serves: the
    capture is identified by random projections of its attention and value
    norms (a plain sum would not do, since attention rows sum to one). On
    the recall model two tasks whose queried pair sits at the same position
    capture identical inputs and count as one."""
    cap = args[0] if args else kwargs["cap"]
    choice = args[2] if len(args) > 2 else kwargs["choice"]
    task = tuple(
        (a.shape, float(a.ravel() @ _weights(a.size))) for a in (cap.A, cap.value_norms_raw)
    )
    return {"distinct": (task, choice)}


# Counters recorded per call, all computed from array sizes or return values.
MEASURES = {
    "model.prefill": lambda a, k, r: {
        "rows": r.logits.shape[0],
        "attn_bytes": sum(x.nbytes for x in r.attention),
    },
    "scoring.collect_attention": lambda a, k, r: {
        "capture_bytes": r.A.nbytes + r.value_norms_raw.nbytes + r.value_norms_proj.nbytes
    },
    "scoring.score_pipeline": _score_key,
    "composer.compact_cache": _kept_bytes,
    "composer.gather_cache": _kept_bytes,
    "cache_io.write_cache": lambda a, k, r: {"bytes": r},
}


class Tracer:
    """Records (name, start, end, parent, op) for every traced call."""

    def __init__(self, package: str = "kvcompose"):
        self.package = package
        self.op: object = None
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[object] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.starts.append(0)
            self.ends.append(0)
            self._stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if measure is not None:
                self.attrs[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for short, names in TRACED.items():
            home = sys.modules[f"{self.package}.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original, wrapper))

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [name, start_ns, end_ns, parent, op, attrs]."""
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                attrs = {
                    k: v for k, v in self.attrs.get(i, {}).items() if k != "distinct"
                }
                row = [name, self.starts[i], self.ends[i], self.parents[i], self.ops[i], attrs]
                fh.write(json.dumps(row) + "\n")


def self_times(starts: list[int], ends: list[int], parents: list[int]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur_s = cur_e = None
        for cs, ce in sorted(
            (max(starts[c], s), min(ends[c], e)) for c in children.get(i, ())
        ):
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(e - s - covered)
    return out


# Time metrics of functions that not every workload calls are kept out of
# the machine-readable record (a function a workload never calls would
# report a constant 0 s); they still appear in the printed table.
TIME_METRICS = (
    "model.prefill.self_s",
    "model.prefill.p50_us",
    "model.decode_step.self_s",
    "model.decode_step.p50_us",
    "model.greedy_decode.busy_s",
    "numerics.softmax_rows.self_s",
    "numerics.argsort_desc.self_s",
    "scoring.collect_attention.self_s",
    "scoring.collect_attention.busy_s",
    "scoring.score_pipeline.busy_s",
    "composer.compress.self_s",
    "composer.composite_indices.busy_s",
    "composer.allocate_budgets.busy_s",
    "composer.compact_cache.busy_s",
)


def layer_metrics(
    tracer: Tracer, op_ids: set, setup_id: object, points: int, input_rows: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the set-up span tree and the measured ops.

    Ratios that describe the work an op does (rows per input row, decode
    steps per point, score calls per distinct input) use the ops only.
    """
    keep = op_ids | {setup_id}
    self_ns = self_times(tracer.starts, tracer.ends, tracer.parents)
    durations: dict[str, list[int]] = defaultdict(list)
    selfs: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    op_calls: dict[str, int] = defaultdict(int)
    op_rows = 0
    distinct = set()
    for i, name in enumerate(tracer.names):
        op = tracer.ops[i]
        if op not in keep:
            continue
        durations[name].append(tracer.ends[i] - tracer.starts[i])
        selfs[name] += self_ns[i]
        attrs = tracer.attrs.get(i, {})
        for key, value in attrs.items():
            if key != "distinct":
                sums[f"{name}.{key}"] += value
        if op in op_ids:
            op_calls[name] += 1
            if name == "model.prefill":
                op_rows += attrs["rows"]
            if "distinct" in attrs:
                distinct.add(attrs["distinct"])

    out: dict[str, tuple[float, str]] = {}
    for short, names in TRACED.items():
        for fname in names:
            name = f"{short}.{fname}"
            d = durations.get(name, [])
            out[f"{name}.calls"] = (len(d), "count")
            out[f"{name}.busy_s"] = (sum(d) / 1e9, "s")
            out[f"{name}.self_s"] = (selfs.get(name, 0) / 1e9, "s")
            out[f"{name}.p50_us"] = (statistics.median(d) / 1e3 if d else 0.0, "us")
    out["model.prefill.rows"] = (sums["model.prefill.rows"], "rows")
    out["model.prefill.attn_bytes"] = (sums["model.prefill.attn_bytes"], "B")
    out["model.prefill.rows_per_input_row"] = (op_rows / input_rows if input_rows else 0.0, "ratio")
    out["scoring.capture_bytes"] = (sums["scoring.collect_attention.capture_bytes"], "B")
    score_calls = op_calls["scoring.score_pipeline"]
    out["scoring.score_pipeline.calls_per_distinct"] = (
        score_calls / len(distinct) if distinct else 0.0,
        "ratio",
    )
    out["composer.kept_bytes"] = (
        sums["composer.compact_cache.kept_bytes"] + sums["composer.gather_cache.kept_bytes"],
        "B",
    )
    out["evaluator.decode_steps_per_point"] = (
        op_calls["model.decode_step"] / points if points else 0.0,
        "ratio",
    )
    out["cache_io.write_cache.bytes"] = (sums["cache_io.write_cache.bytes"], "B")
    return out


def record_metric_names() -> list[str]:
    """Per-layer metrics that go into the machine-readable result."""
    counts = [f"{short}.{f}.calls" for short, names in TRACED.items() for f in names]
    derived = [
        "model.prefill.rows",
        "model.prefill.attn_bytes",
        "model.prefill.rows_per_input_row",
        "scoring.capture_bytes",
        "scoring.score_pipeline.calls_per_distinct",
        "composer.kept_bytes",
        "evaluator.decode_steps_per_point",
        "cache_io.write_cache.bytes",
    ]
    return counts + derived + list(TIME_METRICS) + ["trace.overhead_pct"]
