"""Composite-token construction and layer-adaptive budget allocation.

Each kv head sorts its context tokens by their (L, H_kv, N) final scores
into an int64 slot order of that shape: slot k of a layer holds, for every
head, that head's k-th most important token. Slots are scored by
aggregating the sorted per-head scores, pooled globally across layers, and
the retention budget goes to the best slots wherever they live. Since rows
are sorted, kept slots are a prefix, and the cache stays dense per layer.
Slot order in the compressed cache is score order, not original position;
attention does not care (keys are cached post-rotation), and prefix
budgets make nestedness across compression ratios immediate.

``keep_masks`` is every policy's selection, one (A, G, L, H_kv, N) bool stack for
every ratio and aggregation choice: a global rule's top entries, or each token whose
slot rank is below its layer's budget (kvcompose's slots, each choice on a leading arm
axis, or a baseline's ranks), checked once. ``compress`` gathers one ratio's rows:
kvcompose's slot-order prefixes through ``compact_cache``, or each head's ascending
rows of a baseline's mask through ``gather_cache``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import POLICIES, Policy, baseline_budgets, retention_budget, select_baseline_indices
from .errors import ConfigError, UsageError
from .model import KVCache, Model
from .numerics import argsort_desc, ranks
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
    """The (…, L, H_kv, N) int64 slot order: each head's descending sort of the
    final scores ``s`` (ties keep lower index)."""
    return argsort_desc(s)


def layer_importance(s: np.ndarray, idx: np.ndarray, op: str) -> np.ndarray:
    """(…, L, N) slot scores: ``s`` in slot order ``idx``, marginalized over
    heads; rows stay non-increasing."""
    return reduce_axis(np.take_along_axis(s, idx, axis=-1), op, axis=-2)


def allocate_budgets(importance: np.ndarray, grid: tuple[float, ...]) -> np.ndarray:
    """Pool (…, L, N) slot scores across layers and keep each ratio's global
    top-B; return the (…, G, L) int64 layer budgets, row g summing to B_g.
    Each leading index (an ablation arm) is ranked on its own.

    Ties break by score descending, then lower layer, then lower slot (the
    lower flat index), so the allocation is a deterministic function of
    the scores. Kept slots at each layer form a prefix because importance
    rows are non-increasing and the tie rule prefers lower slots.
    """
    return _top_entries(importance, grid, 2).sum(axis=-1, dtype=np.int64)


def compact_cache(
    cache: KVCache, idx: np.ndarray, layer_budgets: np.ndarray
) -> CompressedCache:
    """Gather each head's first ``layer_budgets[l]`` slots of the slot order ``idx`` (from
    ``composite_indices``) into the compressed cache, the compact stage of a kvcompose
    ``compress``; the budgets, from ``allocate_budgets``, keep at most N slots a layer."""
    return gather_cache(cache, [idx[l, :, :b] for l, b in enumerate(layer_budgets)])


def gather_cache(cache: KVCache, kept: list[np.ndarray]) -> CompressedCache:
    """Take rows ``kept[l]`` of each layer of ``cache``, one index per layer: (H_kv, n_l), or
    (n_l,) for the same rows in every head. ``compress`` (or its ``compact_cache``) passes its
    capture's N-row prefill and rows in [0, N) from ``composite_indices`` or ``keep_masks``."""
    keys, values, provenance = [], [], []
    for k, v, take in zip(cache.keys, cache.values, kept, strict=True):
        take = np.asarray(take, dtype=np.int64)
        take = np.broadcast_to(take, (k.shape[0], take.shape[-1]))
        heads = np.arange(k.shape[0])[:, None]
        keys.append(k[heads, take])
        values.append(v[heads, take])
        provenance.append(take.copy())
    return CompressedCache(
        keys=keys, values=values, next_positions=list(cache.next_positions), provenance=provenance
    )


def unstructured_compress(s: np.ndarray, grid: tuple[float, ...]) -> np.ndarray:
    """Keep each ratio's globally best (layer, head, token) entries, as a
    (…, G, L, H_kv, N) bool keep-mask stack, each leading index on its own.

    The budget counts per-head entries, floor((1-r) * L * H_kv * N), so a
    given ratio removes the same fraction of cache entries as the
    structured path. Evaluation applies the mask pre-softmax; no memory
    is actually freed.
    """
    return _top_entries(s, grid, 3)


def _top_entries(values: np.ndarray, grid: tuple[float, ...], dims: int) -> np.ndarray:
    """(*lead, G, *block) bool, ``block`` the trailing ``dims`` axes: each ratio's
    best entries of each leading index's block, a prefix of that block's ranking."""
    lead, block = values.shape[:-dims], values.shape[-dims:]
    budgets = np.array([retention_budget(r, *block) for r in grid], dtype=np.int64)
    rank = ranks(argsort_desc(values.reshape(*lead, -1)))
    return (rank[..., None, :] < budgets[:, None]).reshape(*lead, len(grid), *block)


def _slot_budgets(
    cap: AttentionCapture, choices: list[AggregationChoice], grid: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """kvcompose's (A, L, H_kv, N) slot orders for the A ``choices`` and their (A, G, L)
    layer budgets at every ratio of ``grid``: the choices' scores stack on a leading
    arm axis, each arm sorted, marginalized by its own ``agg_head`` and allocated alone."""
    kv_heads = cap.value_norms_raw.shape[1]
    s = np.stack([score_pipeline(cap, kv_heads, c) for c in choices])
    idx = composite_indices(s)
    imp = {op: layer_importance(s, idx, op) for op in {c.agg_head for c in choices}}
    budgets = allocate_budgets(np.stack([imp[c.agg_head][a] for a, c in enumerate(choices)]), grid)
    return idx, budgets


def keep_masks(
    cap: AttentionCapture, choices: list[AggregationChoice], grid: tuple[float, ...], policy: Policy
) -> np.ndarray:
    """The (A, G, L, H_kv, N) bool keep-masks of ``policy`` for each of the A ``choices``
    at every ratio of ``grid``, by its row's budget rule (the same masks for every choice
    but under the pooled and global rules). Every kv head of a layer must keep one count,
    and each ratio its retention budget."""
    layers, kv_heads, n = cap.value_norms_raw.shape
    rule = POLICIES[policy.name].budgets
    if rule == "global":
        s = np.stack([score_pipeline(cap, kv_heads, c) for c in choices])
        return unstructured_compress(s, grid)
    totals = [retention_budget(r_target, layers, n) for r_target in grid]
    if rule == "pooled":
        idx, budgets = _slot_budgets(cap, choices, grid)
        rank = ranks(idx)[:, None]  # (A, 1, L, H_kv, N) under (A, G, L) budgets
    else:
        budgets = baseline_budgets(policy, layers, n, totals)
        rank = select_baseline_indices(cap, policy, budgets)
    masks = rank < budgets[..., None, None]
    counts = np.count_nonzero(masks, axis=-1)  # (…, G, L, H_kv)
    if (counts != counts[..., :1]).any():
        raise UsageError(f"policy {policy.name} keeps unequal counts in the kv heads of a layer")
    kept = counts[..., 0].sum(axis=-1)
    if np.not_equal(kept, totals).any():
        raise UsageError(f"policy {policy.name} kept {kept} slots, budgets are {totals}")
    return np.broadcast_to(masks, (len(choices), len(grid), layers, kv_heads, n))


def compress(
    model: Model,
    context: list[int],
    task_set: TaskSet,
    agg_choice: AggregationChoice,
    r_target: float,
    policy: Policy,
) -> tuple[CompressedCache, CompressReport]:
    """Capture ``task_set`` on ``context``, then compact its cache at one ratio."""
    rule = POLICIES[policy.name].budgets
    if rule == "global":
        raise ConfigError(f"policy {policy.name} keeps masks only; use unstructured_compress")
    cap = collect_attention(model, context, task_set)
    if rule == "pooled":  # slot-order prefixes, so the file keeps the slot order
        idx, budgets = _slot_budgets(cap, [agg_choice], (r_target,))
        compressed = compact_cache(cap.cache, idx[0], budgets[0, 0])
    else:  # each head's ascending rows; keep_masks checked that every head keeps as many
        mask = keep_masks(cap, [agg_choice], (r_target,), policy)[0, 0]
        compressed = gather_cache(cap.cache, [m.nonzero()[1].reshape(len(m), -1) for m in mask])
    layer_budgets = [compressed.rows(l) for l in range(compressed.layer_count)]
    budget = sum(layer_budgets)
    r_achieved = 1.0 - budget / (len(layer_budgets) * cap.context_len)
    return compressed, CompressReport(policy.name, r_target, r_achieved, budget, layer_budgets)
