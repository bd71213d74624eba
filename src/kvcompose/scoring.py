"""Turn captured attention into per-layer, per-kv-head token importance.

The pipeline is three reductions over the raw 4-D attention tensor:

    A[l, h_q, c, m]   task tokens m attending to context tokens c
      -> aggregate over m            (task aggregation, optionally norm-weighted)
      -> aggregate over query groups (GQA reduction to kv heads)
      -> add the cross-head mean     (mean augmentation)

yielding S[l, h_kv, c] >= 0, the score every eviction decision is based on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError
from .model import KVCache, Model, _forward, prefill

AGG_OPS = ("max", "avg")
NORM_VARIANTS = ("none", "v-norm", "vo-norm")
TASK_MODES = ("task-aware", "task-agnostic")
DEFAULT_MODE = "task-agnostic"
OBSERVATION_WINDOW = 32  # trailing context rows scored when no task is known

STAGE_TASK = "agg_task"
STAGE_GROUP = "agg_group"
STAGE_FINAL = "final"


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
    """Raw signal for scoring one context.

    A has axes [layer, query head, context token, task token]; every task
    row is a probability distribution over its full (causal) key range, of
    which only the context columns are kept here. Value norms are recorded
    per kv head (raw) and per query head (projected through that head's
    output matrix). Of the context's prefill it keeps only what the
    selectors read: the full cache, and the (L, N, N) attention averaged
    over query heads only when asked for. Only tova asks (it replays it),
    and that mean is then the capture's one O(N^2) array: the prefill
    scores rows in blocks and never holds a full (H_q, N, N) one.
    """

    A: np.ndarray  # (L, H_q, N, M)
    value_norms_raw: np.ndarray  # (L, H_kv, N)
    value_norms_proj: np.ndarray  # (L, H_q, N)
    cache: KVCache | None = None  # the context's full prefill cache; None when built by hand
    attention_mean: np.ndarray | None = None  # (L, N, N) prefill attention, mean over H_q

    @property
    def context_len(self) -> int:
        return self.A.shape[2]

    @property
    def task_len(self) -> int:
        return self.A.shape[3]


@dataclass
class ScoreTensor:
    stage: str
    values: np.ndarray  # (L, H, N); H = H_q at STAGE_TASK, H_kv afterwards


def reduce_axis(values: np.ndarray, op: str, axis: int) -> np.ndarray:
    """Max or mean over one axis, as ``op`` (one of AGG_OPS) names."""
    if op == "max":
        return values.max(axis=axis)
    if op == "avg":
        return values.mean(axis=axis)
    raise UsageError(f"unknown aggregation op {op!r}")


def _task_rows(model: Model, cache: KVCache, task: tuple[int, ...]) -> np.ndarray:
    """(L, H_q, N, M) attention of one task's rows onto the context.

    The task runs after the context cache at positions N..N+M-1, so only
    its M rows are computed; the cache is read, not written.
    """
    n, m = cache.rows(0), len(task)
    attention = _forward(
        model, cache, np.asarray(task), np.arange(n, n + m), attention_rows=m
    ).attention
    return np.stack([np.transpose(attn[:, :, :n], (0, 2, 1)) for attn in attention])


def collect_attention(
    model: Model, context: list[int], task_set: TaskSet, head_mean: bool = False
) -> AttentionCapture:
    """Prefill the context once; record how the task tokens attend to it, plus value norms.

    task-aware runs each task after the prefilled cache and keeps its
    rows; task-agnostic keeps the trailing observation-window rows of the
    prefill itself. No task writes the prefill's cache, which travels with
    the capture, so every policy and ratio compresses the same full cache.
    ``head_mean`` also keeps the prefill's attention averaged over query
    heads, which only a policy that replays it needs (``Policy.reads_head_mean``).
    """
    if not context:
        raise UsageError("context must be non-empty")
    cfg = model.config
    n = len(context)
    agnostic = task_set.mode == "task-agnostic"
    w = task_set.observation_window if agnostic else 0  # prefill rows the capture reads
    if w > n:
        raise UsageError(f"observation_window {w} exceeds context length {n}")
    base = prefill(model, context, attention_rows=w, head_mean=head_mean)

    if agnostic:
        a = np.stack([np.transpose(attn, (0, 2, 1)) for attn in base.attention])  # (L, H_q, N, w)
    else:
        a = np.concatenate([_task_rows(model, base.cache, t) for t in task_set.tasks], axis=3)

    raw = np.stack(
        [np.linalg.norm(v, axis=2) for v in base.cache.values], axis=0
    )  # (L, H_kv, N)
    per_query = np.repeat(np.stack(base.cache.values), cfg.group_size, axis=1)  # (L, H_q, N, d_h)
    proj = np.linalg.norm(per_query @ model.wo, axis=3)  # (L, H_q, N)

    return AttentionCapture(
        A=a,
        value_norms_raw=raw,
        value_norms_proj=proj,
        cache=base.cache,
        attention_mean=np.stack(base.attention_mean) if head_mean else None,
    )


def aggregate_task(cap: AttentionCapture, op: str, norm_variant: str = "none") -> ScoreTensor:
    """Reduce the task axis, optionally weighting entries by value norms first.

    v-norm multiplies each attention entry by the raw value norm of the
    token's kv head; vo-norm uses the norm after the query head's output
    projection. Weighting happens entrywise, before the reduction.
    """
    if norm_variant not in NORM_VARIANTS:
        raise UsageError(f"unknown norm variant {norm_variant!r}")
    if cap.task_len < 1:
        raise UsageError("capture holds no task tokens")
    a = cap.A
    if norm_variant == "v-norm":
        hq, hkv = a.shape[1], cap.value_norms_raw.shape[1]
        per_query = np.repeat(cap.value_norms_raw, hq // hkv, axis=1)  # (L, H_q, N)
        a = a * per_query[:, :, :, None]
    elif norm_variant == "vo-norm":
        a = a * cap.value_norms_proj[:, :, :, None]
    return ScoreTensor(stage=STAGE_TASK, values=reduce_axis(a, op, axis=3))


def aggregate_group(s: ScoreTensor, kv_heads: int, op: str) -> ScoreTensor:
    """Reduce query-head scores onto their kv heads."""
    if s.stage != STAGE_TASK:
        raise UsageError(f"aggregate_group expects stage {STAGE_TASK!r}, got {s.stage!r}")
    layers, query_heads, n = s.values.shape
    if query_heads % kv_heads != 0:
        raise ShapeError(f"{query_heads} query heads do not split into {kv_heads} kv heads")
    group = query_heads // kv_heads
    grouped = s.values.reshape(layers, kv_heads, group, n)
    return ScoreTensor(stage=STAGE_GROUP, values=reduce_axis(grouped, op, axis=2))


def augment_mean(s: ScoreTensor, enabled: bool = True) -> ScoreTensor:
    """Add the cross-head mean score to every head (mild consensus prior)."""
    if s.stage != STAGE_GROUP:
        raise UsageError(f"augment_mean expects stage {STAGE_GROUP!r}, got {s.stage!r}")
    if not enabled:
        return ScoreTensor(stage=STAGE_FINAL, values=s.values.copy())
    mean = s.values.mean(axis=1, keepdims=True)
    return ScoreTensor(stage=STAGE_FINAL, values=s.values + mean)


def score_stages(
    cap: AttentionCapture, kv_heads: int, choice: AggregationChoice
) -> list[ScoreTensor]:
    """Task agg -> group agg -> mean augmentation, keeping every stage."""
    s_task = aggregate_task(cap, choice.agg_task, choice.norm_variant)
    s_group = aggregate_group(s_task, kv_heads, choice.agg_group)
    return [s_task, s_group, augment_mean(s_group, choice.mean_augment)]


def score_pipeline(
    cap: AttentionCapture, kv_heads: int, choice: AggregationChoice
) -> ScoreTensor:
    """The final-stage scores of ``score_stages``."""
    return score_stages(cap, kv_heads, choice)[-1]
