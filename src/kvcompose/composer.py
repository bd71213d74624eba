"""Composite-token construction and layer-adaptive budget allocation.

Each kv head sorts its context tokens by their (L, H_kv, N) final scores
into an int64 slot order of that shape: slot k of a layer holds, for every
head, that head's k-th most important token. Slots are scored by
aggregating the sorted per-head scores, pooled globally across layers, and
the retention budget goes to the best slots wherever they live. Since rows
are sorted, kept slots are a prefix, and the cache stays dense per layer.

Slot order in the compressed cache is score order, not original position;
attention does not care (keys are cached post-rotation), and prefix
budgets make nestedness across compression ratios immediate. So
``kept_rows`` scores and sorts once for a whole grid; ``compress``
gathers one ratio's rows, and ``keep_masks`` marks every ratio's rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Policy, retention_budget, select_baseline_indices
from .errors import ConfigError, ShapeError, UsageError
from .model import KVCache, Model
from .numerics import argsort_desc
from .scoring import (
    AggregationChoice,
    AttentionCapture,
    TaskSet,
    collect_attention,
    reduce_axis,
    score_pipeline,
)


@dataclass(frozen=True)
class CompressedCache(KVCache):
    """KVCache plus, for every slot, the original context index it came from."""

    provenance: list[np.ndarray]  # per layer (H_kv, N_l) int64


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


def composite_indices(s: np.ndarray) -> np.ndarray:
    """The (L, H_kv, N) int64 slot order: each head's descending sort of the
    final scores ``s`` (ties keep lower index)."""
    return argsort_desc(s)


def layer_importance(s: np.ndarray, idx: np.ndarray, op: str) -> np.ndarray:
    """(L, N) slot scores: ``s`` in slot order ``idx``, marginalized over
    heads; rows stay non-increasing."""
    return reduce_axis(np.take_along_axis(s, idx, axis=2), op, axis=1)


def allocate_budgets(importance: np.ndarray, grid: tuple[float, ...]) -> np.ndarray:
    """Pool (L, N) slot scores across layers and keep each ratio's global
    top-B; return the (G, L) int64 layer budgets, row g summing to B_g.

    Ties break by score descending, then lower layer, then lower slot (the
    lower flat index), so the allocation is a deterministic function of
    the scores. Kept slots at each layer form a prefix because importance
    rows are non-increasing and the tie rule prefers lower slots.
    """
    return _top_entries(importance, grid).sum(axis=-1, dtype=np.int64)


def compact_cache(
    cache: KVCache, idx: np.ndarray, layer_budgets: np.ndarray
) -> CompressedCache:
    """Gather each head's first ``layer_budgets[l]`` slots of the slot order
    ``idx`` (from ``composite_indices``) into the compressed cache.

    No program path calls it: ``compress`` gathers the rows ``kept_rows``
    picks. It stays because tests build ragged caches with it, and the
    benchmark's tracer wraps it by name (a Tier-1 test pins that), so
    deleting it would break a traced benchmark run.
    """
    n = idx.shape[2]
    if (layer_budgets > n).any():
        raise UsageError(f"layer budgets {layer_budgets.tolist()} exceed context length {n}")
    return gather_cache(cache, [idx[l, :, :b] for l, b in enumerate(layer_budgets)])


def gather_cache(cache: KVCache, kept: list[np.ndarray]) -> CompressedCache:
    """Take rows ``kept[l]`` of each layer of an uncompressed cache: one
    (H_kv, n_l) index array per layer, or (n_l,) for the same rows in every head."""
    if len(kept) != cache.layer_count:
        raise ShapeError(f"cache has {cache.layer_count} layers, index {len(kept)}")
    keys, values, provenance = [], [], []
    for layer, (k, v, take) in enumerate(zip(cache.keys, cache.values, kept)):
        rows = cache.rows(layer)
        if rows != cache.next_positions[layer]:
            raise UsageError(f"gather needs the uncompressed cache; layer {layer} has {rows} rows")
        take = np.asarray(take, dtype=np.int64)
        take = np.broadcast_to(take, (k.shape[0], take.shape[-1]))
        if take.size and (take.min() < 0 or take.max() >= rows):
            raise UsageError(f"layer {layer} takes rows outside [0, {rows})")
        heads = np.arange(k.shape[0])[:, None]
        keys.append(k[heads, take])
        values.append(v[heads, take])
        provenance.append(take.copy())
    return CompressedCache(
        keys=keys, values=values, next_positions=list(cache.next_positions), provenance=provenance
    )


def unstructured_compress(s: np.ndarray, grid: tuple[float, ...]) -> np.ndarray:
    """Keep each ratio's globally best (layer, head, token) entries, as a
    (G, L, H_kv, N) bool keep-mask stack.

    The budget counts per-head entries, floor((1-r) * L * H_kv * N), so a
    given ratio removes the same fraction of cache entries as the
    structured path. Evaluation applies the mask pre-softmax; no memory
    is actually freed.
    """
    return _top_entries(s, grid)


def _top_entries(values: np.ndarray, grid: tuple[float, ...]) -> np.ndarray:
    """(G, *values.shape) bool: each ratio's best entries, a prefix of one ranking."""
    budgets = np.array([retention_budget(r, *values.shape) for r in grid], dtype=np.int64)
    rank = np.empty(values.size, dtype=np.int64)
    rank[argsort_desc(values.reshape(-1))] = np.arange(values.size)
    return (rank < budgets[:, None]).reshape(len(grid), *values.shape)


def kept_rows(
    cap: AttentionCapture, agg_choice: AggregationChoice, grid: tuple[float, ...], policy: Policy
) -> list[list[np.ndarray]]:
    """Each grid ratio's kept rows per layer, (H_kv, n_l) or (n_l,) for every
    head: prefixes of one score order for kvcompose, else a baseline's rows."""
    layers, kv_heads, n = cap.value_norms_raw.shape
    budgets = [retention_budget(r_target, layers, n) for r_target in grid]
    if policy.name == "kvcompose":
        s = score_pipeline(cap, kv_heads, agg_choice)
        idx = composite_indices(s)
        grid_budgets = allocate_budgets(layer_importance(s, idx, agg_choice.agg_head), grid)
        out = [[idx[l, :, :b] for l, b in enumerate(row)] for row in grid_budgets]
    else:
        out = select_baseline_indices(cap, policy, budgets)
    for rows, budget in zip(out, budgets, strict=True):
        layer_budgets = [r.shape[-1] for r in rows]
        if sum(layer_budgets) != budget:
            raise UsageError(f"policy {policy.name} kept {layer_budgets} slots, budget is {budget}")
    return out


def keep_masks(
    cap: AttentionCapture, agg_choice: AggregationChoice, grid: tuple[float, ...], policy: Policy
) -> np.ndarray:
    """The (G, L, H_kv, N) bool keep-masks of ``policy`` at every ratio of
    ``grid``: ``unstructured_compress``'s masks, or each ratio's kept rows."""
    layers, kv_heads, n = cap.value_norms_raw.shape
    if policy.name == "unstructured":
        return unstructured_compress(score_pipeline(cap, kv_heads, agg_choice), grid)
    masks = np.zeros((len(grid), layers, kv_heads, n), dtype=bool)
    heads = np.arange(kv_heads)[:, None]
    for mask, rows in zip(masks, kept_rows(cap, agg_choice, grid, policy)):
        for layer, take in enumerate(rows):
            mask[layer, heads, take] = True
    return masks


def compress(
    model: Model,
    context: list[int],
    task_set: TaskSet,
    agg_choice: AggregationChoice,
    r_target: float,
    policy: Policy,
) -> tuple[CompressedCache, CompressReport]:
    """Capture ``task_set`` on ``context``, then compact its cache at one ratio."""
    if policy.name == "unstructured":
        raise ConfigError("unstructured policy produces masks; use unstructured_compress")
    cap = collect_attention(model, context, task_set, policy.reads_head_mean)
    compressed = gather_cache(cap.cache, kept_rows(cap, agg_choice, (r_target,), policy)[0])
    layer_budgets = [compressed.rows(l) for l in range(compressed.layer_count)]
    budget = sum(layer_budgets)
    r_achieved = 1.0 - budget / (len(layer_budgets) * cap.context_len)
    return compressed, CompressReport(policy.name, r_target, r_achieved, budget, layer_budgets)
