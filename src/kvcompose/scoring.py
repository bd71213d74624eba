"""Turn captured attention into per-layer, per-kv-head token importance.

The pipeline is three reductions over the raw 4-D attention tensor:

    A[l, h_q, m, c]   task tokens m attending to context tokens c
      -> aggregate over m            (task aggregation, optionally norm-weighted)
      -> aggregate over query groups (GQA reduction to kv heads)
      -> add the cross-head mean     (mean augmentation)

yielding S[l, h_kv, c] >= 0, the score every eviction decision is based on.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError
from .model import KVCache, Model, _forward, check_tokens, empty_cache, prefill_weights

AGG_OPS = ("max", "avg")
NORM_VARIANTS = ("none", "v-norm", "vo-norm")
TASK_MODES = ("task-aware", "task-agnostic")
DEFAULT_MODE = "task-agnostic"
OBSERVATION_WINDOW = 32  # trailing context rows scored when no task is known


def check_observation_window(window: int, error: type[Exception] = UsageError) -> None:
    if window < 1:
        raise error(f"observation_window must be >= 1, got {window}")


@dataclass(frozen=True)
class TaskSet:
    """What the scoring queries are.

    task-aware: every task is a token sequence appended to the context;
    its tokens' attention rows are the signal. task-agnostic: the last
    ``observation_window`` context tokens play that role.
    """

    mode: str  # one of TASK_MODES
    tasks: tuple[tuple[int, ...], ...] = ()
    observation_window: int = OBSERVATION_WINDOW

    def __post_init__(self):
        if self.mode not in TASK_MODES:
            raise UsageError(f"unknown task set mode {self.mode!r}")
        if self.mode == "task-aware":
            if not self.tasks or any(len(t) == 0 for t in self.tasks):
                raise UsageError("task-aware mode needs at least one non-empty task")
        elif self.tasks:
            raise UsageError("task-agnostic mode takes no tasks: its window rows are the queries")
        else:
            check_observation_window(self.observation_window)

    @classmethod
    def for_context(
        cls, mode: str, context_len: int, tasks, observation_window: int
    ) -> "TaskSet":
        """The task set scoring one context: ``tasks`` when task-aware, else
        the trailing ``observation_window`` rows, at most the whole context."""
        if mode == "task-agnostic":
            return cls(mode, observation_window=min(observation_window, context_len))
        return cls(mode, tasks=tuple(tuple(t) for t in tasks))


@dataclass(frozen=True)
class AggregationChoice:
    agg_task: str = "max"
    agg_group: str = "avg"
    agg_head: str = "avg"
    norm_variant: str = "none"
    mean_augment: bool = True

    def __post_init__(self):
        for name in ("agg_task", "agg_group", "agg_head"):
            if getattr(self, name) not in AGG_OPS:
                raise UsageError(f"{name} must be one of {AGG_OPS}")
        if self.norm_variant not in NORM_VARIANTS:
            raise UsageError(f"norm_variant must be one of {NORM_VARIANTS}")

    def label(self) -> str:
        mean = "on" if self.mean_augment else "off"
        return (
            f"Agg({self.agg_task},{self.agg_group},{self.agg_head}), "
            f"mean={mean}, norm={self.norm_variant}"
        )


@dataclass
class AttentionCapture:
    """Raw signal for scoring one context, the same object for every policy.

    It holds the model, the task set, the context's full prefill cache, the prefill's
    per-layer queries and the raw value norms, per kv head. What a selector reads beyond
    them is computed on its first read and kept: the task rows ``A``, and the value norms
    projected per query head, which only vo-norm reads. So streaming and random compute
    neither, and tova rebuilds its head means from the queries a row block at a time.
    No capture holds an (N, N) array.

    A is task-major, with axes [layer, query head, task token, context
    token]: row m is task token m's probability distribution over its full
    (causal) key range, of which only the context columns are kept here.
    """

    model: Model
    task_set: TaskSet
    cache: KVCache  # the context's full unstacked prefill cache
    queries: list[np.ndarray]  # per layer (H_q, N, d_h) prefill queries
    value_norms_raw: np.ndarray  # (L, H_kv, N)

    @cached_property
    def A(self) -> np.ndarray:
        """(L, H_q, M, N) task rows. Task-agnostic, the last ``w`` rows of the prefill's
        attention, rebuilt from the queries by ``model.prefill_weights`` in the pass's own
        row blocks, so with the pass's bits. Task-aware, the tasks of each distinct length
        run as one (T, M) stack after the cache, and each task's rows are copied,
        untransposed, into its own rows, in task order; no task writes the cache, so every
        policy and ratio compresses the same full cache, and nothing reads a stack's logits."""
        cfg, n, tasks = self.model.config, self.context_len, self.task_set.tasks
        kept = 0 if tasks else self.task_set.observation_window  # the window rows A keeps
        a = np.zeros((cfg.layers, cfg.query_heads, kept, n))
        for start, stop, layer, rows in prefill_weights(self.queries, self.cache.keys, n - kept):
            a[layer, :, start - n + kept : stop - n + kept, :stop] = rows
        lengths = [len(t) for t in tasks]
        starts = np.cumsum([0, *lengths])  # task i's rows are [starts[i], starts[i + 1])
        for m in dict.fromkeys(lengths):  # one stack per length; it never writes the cache
            group = [i for i, k in enumerate(lengths) if k == m]  # its tasks, in task order
            attention = _forward(
                self.model, self.cache, np.array([tasks[i] for i in group]),
                attention=True, logits=False,
            ).attention  # the stack shares the held rows, so it returns no cache
            if a.shape[2] < starts[-1]:  # sized after the first stack: A never meets its K/V
                a = np.empty((cfg.layers, cfg.query_heads, starts[-1], n))
            for layer, attn in enumerate(attention):  # (T, H_q, M, N+M); A keeps N columns
                for i, rows in zip(group, attn):
                    a[layer, :, starts[i] : starts[i + 1]] = rows[:, :, :n]
        return a

    @cached_property
    def value_norms_proj(self) -> np.ndarray:
        """(L, H_q, N) norms of each value after its query head's output matrix. Query
        head h reads kv head h // group: no copy of the values per query head."""
        values = np.stack(self.cache.values)  # (L, H_kv, N, d_h)
        layers, kv_heads, n, d_h = values.shape
        wo = self.model.wo.reshape(layers, kv_heads, -1, d_h, self.model.wo.shape[-1])
        return np.linalg.norm(values[:, :, None] @ wo, axis=4).reshape(layers, -1, n)

    @property
    def context_len(self) -> int:
        return self.value_norms_raw.shape[2]

    @property
    def task_len(self) -> int:
        tasks = self.task_set.tasks
        return sum(map(len, tasks)) if tasks else self.task_set.observation_window


def reduce_axis(values: np.ndarray, op: str, axis: int) -> np.ndarray:
    """Max or mean over one axis, as ``op`` names: an ``AggregationChoice``'s op, or "avg"."""
    if op == "max":
        return values.max(axis=axis)
    return values.mean(axis=axis)  # "avg"


def collect_attention(
    model: Model, context: list[int], task_set: TaskSet,
    cache: KVCache | None = None, queries: list[np.ndarray] | None = None,
) -> AttentionCapture:
    """The capture of ``task_set`` on ``context``: its prefill and raw value norms.

    A carried prefill, the context's own unstacked N-row ``cache`` and the per-layer
    ``queries`` its pass returned (``ForwardResult.queries``), is read and never rerun;
    with neither, one plain prefill with ``logits=False`` gives both. The task rows are
    computed on the capture's first read of ``A``; the tasks are checked here, as their
    pass would check them, whether or not any selector reads them.
    """
    if not context:
        raise UsageError("context must be non-empty")
    cfg = model.config
    n = len(context)
    w = task_set.observation_window if task_set.mode == "task-agnostic" else 0
    if w > n:
        raise UsageError(f"observation_window {w} exceeds context length {n}")
    if (cache is None) != (queries is None):
        raise UsageError("a carried prefill brings both its cache and its queries")
    if cache is None:  # one plain prefill; nothing reads its logits
        run = _forward(model, empty_cache(model), np.asarray(context), logits=False)
        cache, queries = run.cache, run.queries
    shapes = [k.shape for k in cache.keys] + [q.shape for q in queries], cache.next_position
    if shapes != ([(cfg.kv_heads, n, cfg.head_dim)] * cfg.layers  # an unstacked N-row prefill
                  + [(cfg.query_heads, n, cfg.head_dim)] * cfg.layers, n):
        raise UsageError(f"the given cache is not this {n}-token context's unstacked prefill")
    for task in task_set.tasks:
        check_tokens(model, np.asarray(task), n)
    raw = np.linalg.norm(np.stack(cache.values), axis=3)  # (L, H_kv, N)
    return AttentionCapture(model, task_set, cache, queries, raw)


def aggregate_task(cap: AttentionCapture, op: str, norm_variant: str = "none") -> np.ndarray:
    """Reduce the task axis to (L, H_q, N), optionally weighting entries by value norms first.

    v-norm multiplies each attention entry by the raw value norm of the
    token's kv head; vo-norm uses the norm after the query head's output
    projection. Weighting happens entrywise, before the reduction over A's axis 2.
    """
    a = cap.A
    if norm_variant == "v-norm":
        hq, hkv = a.shape[1], cap.value_norms_raw.shape[1]
        per_query = np.repeat(cap.value_norms_raw, hq // hkv, axis=1)  # (L, H_q, N)
        a = a * per_query[:, :, None, :]
    elif norm_variant == "vo-norm":
        a = a * cap.value_norms_proj[:, :, None, :]
    return reduce_axis(a, op, axis=2)


def aggregate_group(s: np.ndarray, kv_heads: int, op: str) -> np.ndarray:
    """Reduce (L, H_q, N) query-head scores onto their kv heads: (L, H_kv, N)."""
    layers, query_heads, n = s.shape
    if query_heads % kv_heads != 0:
        raise UsageError(f"{query_heads} query heads do not split into {kv_heads} kv heads")
    group = query_heads // kv_heads
    grouped = s.reshape(layers, kv_heads, group, n)
    return reduce_axis(grouped, op, axis=2)


def augment_mean(s: np.ndarray, enabled: bool = True) -> np.ndarray:
    """Add the cross-head mean score to every head; off, ``s`` itself (nothing writes it)."""
    if not enabled:
        return s
    return s + s.mean(axis=1, keepdims=True)


def score_stages(
    cap: AttentionCapture, kv_heads: int, choice: AggregationChoice
) -> list[np.ndarray]:
    """Every stage of task agg -> group agg -> mean augmentation, the one home of that order."""
    s_task = aggregate_task(cap, choice.agg_task, choice.norm_variant)
    s_group = aggregate_group(s_task, kv_heads, choice.agg_group)
    return [s_task, s_group, augment_mean(s_group, choice.mean_augment)]


def score_pipeline(
    cap: AttentionCapture, kv_heads: int, choice: AggregationChoice
) -> np.ndarray:
    """The final (L, H_kv, N) scores of ``score_stages``."""
    return score_stages(cap, kv_heads, choice)[-1]
