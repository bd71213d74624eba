"""Composite-token construction and layer-adaptive budget allocation.

Each kv head sorts its context tokens by importance; slot k of a layer
then holds, for every head, that head's k-th most important token. Slots
are scored by aggregating the sorted per-head scores, pooled globally
across layers, and the retention budget goes to the best slots wherever
they live. Because per-head rows are sorted, a layer's kept slots are
always a prefix, so the compressed cache stays a dense tensor per layer.

Slot order in the compressed cache is score order, not original position;
attention does not care (keys are cached post-rotation), and prefix
budgets make nestedness across compression ratios immediate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Policy, retention_budget, select_baseline_indices
from .errors import ConfigError, ShapeError, UsageError
from .model import HeadMaskSet, KVCache, Model
from .numerics import argsort_desc
from .scoring import (
    STAGE_FINAL,
    AggregationChoice,
    AttentionCapture,
    ScoreTensor,
    TaskSet,
    collect_attention,
    reduce_axis,
    score_pipeline,
)


@dataclass
class CompositeIndex:
    idx: np.ndarray  # (L, H_kv, N) int64; per-head descending-importance permutation
    s_prime: np.ndarray  # (L, H_kv, N); scores gathered into slot order


@dataclass
class LayerImportance:
    values: np.ndarray  # (L, N), rows non-increasing


@dataclass
class BudgetAllocation:
    r_target: float
    budget_total: int
    layer_budgets: np.ndarray  # (L,) int64, sums to budget_total


@dataclass
class CompressedCache(KVCache):
    """KVCache plus, for every slot, the original context index it came from."""

    provenance: list[np.ndarray] | None = None  # per layer (H_kv, N_l) int64

    def clone(self) -> "CompressedCache":
        copy = super().clone()
        copy.provenance = [p.copy() for p in self.provenance]
        return copy


@dataclass
class CompressReport:
    policy: str
    r_target: float
    r_achieved: float
    budget_total: int
    layer_budgets: list[int]

    def summary(self) -> str:
        budgets = ",".join(str(b) for b in self.layer_budgets)
        return (
            f"policy={self.policy} r_target={self.r_target} "
            f"r_achieved={self.r_achieved} budget_total={self.budget_total} "
            f"budgets={budgets}"
        )


def composite_indices(s: ScoreTensor) -> CompositeIndex:
    """Per-head descending sort of the final scores (ties keep lower index)."""
    if s.stage != STAGE_FINAL:
        raise UsageError(f"composite_indices expects stage {STAGE_FINAL!r}, got {s.stage!r}")
    idx = argsort_desc(s.values, axis=2)
    return CompositeIndex(idx=idx, s_prime=np.take_along_axis(s.values, idx, axis=2))


def layer_importance(ci: CompositeIndex, op: str) -> LayerImportance:
    """Marginalize slot scores over heads; rows stay non-increasing."""
    return LayerImportance(values=reduce_axis(ci.s_prime, op, axis=1))


def allocate_budgets(importance: LayerImportance, r_target: float) -> BudgetAllocation:
    """Pool slot scores across layers and keep the global top-B.

    Ties break by score descending, then lower layer, then lower slot (the
    lower flat index), so the allocation is a deterministic function of
    the scores. Kept slots at each layer form a prefix because importance
    rows are non-increasing and the tie rule prefers lower slots.
    """
    layers, n = importance.values.shape
    budget = retention_budget(r_target, layers, n)
    keep = argsort_desc(importance.values.reshape(-1))[:budget]
    layer_budgets = np.bincount(keep // n, minlength=layers).astype(np.int64)
    return BudgetAllocation(
        r_target=r_target, budget_total=budget, layer_budgets=layer_budgets
    )


def _gather(cache: KVCache, takes: list[np.ndarray], n: int) -> CompressedCache:
    """Take rows ``takes[l]`` (H_kv, n_l) of each layer of an n-row cache."""
    return CompressedCache(
        keys=[np.take_along_axis(k, t[:, :, None], axis=1) for k, t in zip(cache.keys, takes)],
        values=[np.take_along_axis(v, t[:, :, None], axis=1) for v, t in zip(cache.values, takes)],
        next_positions=[n] * len(takes),
        provenance=[t.copy() for t in takes],
    )


def compact_cache(
    cache: KVCache, ci: CompositeIndex, alloc: BudgetAllocation
) -> CompressedCache:
    """Gather each head's top rows into the slot-ordered compressed cache."""
    layers, heads, n = ci.idx.shape
    if cache.layer_count != layers:
        raise ShapeError(f"cache has {cache.layer_count} layers, index {layers}")
    takes = []
    for layer in range(layers):
        n_l = int(alloc.layer_budgets[layer])
        if n_l > n:
            raise UsageError(f"layer {layer} budget {n_l} exceeds context length {n}")
        if cache.rows(layer) != n:
            raise UsageError(
                f"compact_cache needs the uncompressed cache; layer {layer} has "
                f"{cache.rows(layer)} rows for context length {n}"
            )
        takes.append(ci.idx[layer, :, :n_l])  # (H_kv, n_l)
    return _gather(cache, takes, n)


def gather_cache(cache: KVCache, kept: list[np.ndarray]) -> CompressedCache:
    """Build a compressed cache from explicit per-layer (H_kv, n_l) index arrays."""
    takes = []
    for layer, take in enumerate(kept):
        take = np.asarray(take, dtype=np.int64)
        if take.ndim == 1:  # same indices for every head
            take = np.broadcast_to(take, (cache.keys[layer].shape[0], take.size))
        takes.append(take)
    return _gather(cache, takes, cache.rows(0))


def unstructured_compress(s: ScoreTensor, r_target: float) -> HeadMaskSet:
    """Keep the globally best (layer, head, token) entries, as boolean masks.

    The budget counts per-head entries, floor((1-r) * L * H_kv * N), so a
    given ratio removes the same fraction of cache entries as the
    structured path. Evaluation applies the masks pre-softmax; no memory
    is actually freed.
    """
    if s.stage != STAGE_FINAL:
        raise UsageError(f"unstructured_compress expects stage {STAGE_FINAL!r}")
    layers, heads, n = s.values.shape
    budget = retention_budget(r_target, layers, heads, n)
    masks = np.zeros(layers * heads * n, dtype=bool)
    masks[argsort_desc(s.values.reshape(-1))[:budget]] = True  # ties -> lower (l, h, c)
    return HeadMaskSet(masks=masks.reshape(layers, heads, n))


def compress(
    model: Model,
    context: list[int],
    task_set: TaskSet,
    agg_choice: AggregationChoice,
    r_target: float,
    policy: Policy,
) -> tuple[CompressedCache, CompressReport]:
    """Capture ``task_set`` on ``context``, then compress at one ratio."""
    if policy.name == "unstructured":
        raise ConfigError("unstructured policy produces masks; use unstructured_compress")
    cap = collect_attention(model, context, task_set)
    return compress_capture(model, cap, agg_choice, r_target, policy)


def compress_capture(
    model: Model,
    cap: AttentionCapture,
    agg_choice: AggregationChoice,
    r_target: float,
    policy: Policy,
) -> tuple[CompressedCache, CompressReport]:
    """One ratio of the structured path on a capture and its prefill: score,
    compose, allocate, compact (or a baseline)."""
    cfg = model.config
    n = cap.context_len
    budget = retention_budget(r_target, cfg.layers, n)
    full = cap.prefill.cache

    if policy.name == "kvcompose":
        ci = composite_indices(score_pipeline(cap, cfg.kv_heads, agg_choice))
        alloc = allocate_budgets(layer_importance(ci, agg_choice.agg_head), r_target)
        compressed = compact_cache(full, ci, alloc)
    else:
        compressed = gather_cache(full, select_baseline_indices(cap, policy, budget))

    layer_budgets = [compressed.rows(l) for l in range(cfg.layers)]
    total = sum(layer_budgets)
    if total != budget:
        raise UsageError(f"policy {policy.name} kept {total} slots, budget is {budget}")
    report = CompressReport(
        policy=policy.name,
        r_target=r_target,
        r_achieved=1.0 - total / (cfg.layers * n),
        budget_total=budget,
        layer_budgets=layer_budgets,
    )
    return compressed, report
