"""Structured eviction baselines: sinks+window, online eviction, window top-k,
a depth-decreasing budget schedule, and a uniform-random control.

``POLICIES`` is every policy's row. A baseline's (G, L) budgets come from its row's
rule (``baseline_budgets``), ``select_baseline_indices`` ranks its tokens, and
``composer.keep_masks`` keeps those ranked below their layer's budget, as it keeps
kvcompose's slots: one count in every kv head of a layer, a dense cache layout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, UsageError
from .model import ROW_BLOCK, prefill_weights
from .numerics import SeededRng, argsort_desc, ranks, stable_floor
from .scoring import AttentionCapture, reduce_axis


class PolicyRow(NamedTuple):
    params: tuple[str, ...]  # the Policy parameters its selector reads: a config sets no other
    budgets: str  # its layer budgets: "pooled", "uniform", "pyramid" or "global" (none)


POLICIES = {
    "kvcompose": PolicyRow((), "pooled"),  # composer.allocate_budgets on its slots
    "streaming": PolicyRow(("sinks",), "uniform"),
    "tova": PolicyRow((), "uniform"),
    "snapkv": PolicyRow(("window",), "uniform"),
    "pyramid": PolicyRow(("window", "shape"), "pyramid"),
    "random": PolicyRow(("seed",), "uniform"),
    "unstructured": PolicyRow((), "global"),  # one top over (L, H_kv, N) entries
}
POLICY_PARAMS = {name: row.params for name, row in POLICIES.items()}
POLICY_NAMES = tuple(POLICIES)


@dataclass(frozen=True)
class Policy:
    """An eviction policy and its parameters; its row of ``POLICIES`` lists the
    ones it reads, and a config may set only those.

    sinks: leading tokens always kept by streaming.
    window: trailing tokens kept (and scored over) by snapkv/pyramid.
    shape: slope of the pyramid schedule; 0 degenerates to uniform.
    seed: stream for the random-eviction control.
    """

    name: str
    sinks: int = 2
    window: int = 4
    shape: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.name!r}; expected one of {POLICY_NAMES}")
        if self.sinks < 1:
            raise ConfigError(f"sinks must be >= 1, got {self.sinks}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if not (np.isfinite(self.shape) and self.shape >= 0):
            raise ConfigError(f"shape must be a finite number >= 0, got {self.shape}")

    @property
    def reads_aggregation(self) -> bool:
        """Whether an ``AggregationChoice`` (what ``ablate`` varies) can change what it
        keeps: the pooled and global rules alone rank ``score_pipeline``'s scores."""
        return POLICIES[self.name].budgets in ("pooled", "global")


def retention_budget(r_target: float, *dims: int) -> int:
    """Entries kept at the target ratio: floor((1-r) * d1 * d2 * ...), left to right."""
    if not 0.0 <= r_target <= 1.0:
        raise UsageError(f"r_target must be in [0, 1], got {r_target}")
    kept = 1.0 - r_target
    for d in dims:
        kept *= d
    return stable_floor(kept)


def streaming_order(n: int, sinks: int) -> np.ndarray:
    """The (N,) slot order of sinks plus window: the first ``sinks`` tokens, then
    the rest newest first, so any budget below ``sinks`` keeps the first tokens."""
    sinks = min(sinks, n)
    return np.concatenate([np.arange(sinks), np.arange(n - 1, sinks - 1, -1)])


def tova_select(queries: list, keys: list, budgets: np.ndarray) -> np.ndarray:
    """Per-layer survivors of online least-attended eviction, replayed on a prefill's
    attention averaged over query heads, rebuilt from its per-layer (H_q, N, d_h)
    ``queries`` and N-row ``keys`` one (L, ROW_BLOCK, N) block of rows at a time
    (``model.prefill_weights``): no (L, N, N) array is ever held.

    Step m appends token m to every layer; each layer then holding
    budget+1 tokens evicts the one that row m attends to least, the lowest
    index on ties. The newest token is evictable, so a budget of 0 keeps
    nothing. ``budgets`` is (G, L), one row per grid ratio; the (G, L, N)
    keep-masks all come from one replay over positions.
    """
    layers, n = len(keys), keys[0].shape[-2]
    budgets = np.asarray(budgets)
    if budgets.ndim != 2 or budgets.shape[1] != layers or (budgets < 0).any():
        raise ConfigError(f"tova budgets must be (G, L={layers}) and >= 0, got {budgets.tolist()}")
    flat = budgets.reshape(-1)
    layer = np.tile(np.arange(layers), len(budgets))  # the attention each mask row reads
    first = int(min(flat.min(), n))  # no layer evicts before step ``first``
    # the keep-mask as an added cost: 0 where a token is held, inf where it
    # is evicted or not yet appended, so the least-attended held token wins
    cost = np.tile(np.where(np.arange(n) < first, 0.0, np.inf), (flat.size, 1))
    rows = np.zeros((layers, ROW_BLOCK, n))  # steps [start, stop); no step reads past stop
    for start, stop, l, weights in prefill_weights(queries, keys, first):
        rows[l, : stop - start, :stop] = weights.mean(axis=-3)
        for m in range(start, stop) if l == layers - 1 else ():  # once every layer's rows are in
            cost[:, m] = 0.0
            over = np.flatnonzero(flat <= m)  # mask rows now holding budget + 1 tokens
            worst = (rows[layer[over], m - start] + cost[over]).argmin(axis=1)
            cost[over, worst] = np.inf
    return (cost == 0.0).reshape(*budgets.shape, n)


def snapkv_select(cap: AttentionCapture, window: int) -> np.ndarray:
    """Each kv head's (L, H_kv, N) window top-k slot order: the trailing window, then the
    tokens it attends to hardest (max-pool over the last ``window`` task rows of the capture).
    It reads no budget: only ``select_baseline_indices`` clamps the window to the budgets."""
    n, layers = cap.context_len, cap.A.shape[0]
    kv_heads = cap.value_norms_raw.shape[1]
    if window > n:
        raise ConfigError(f"window {window} exceeds context length {n}")
    rows = min(window, cap.task_len)
    # query heads by group; rows == 0 (a zero layer budget) scores on every task row
    grouped = cap.A.reshape(layers, kv_heads, -1, cap.task_len, n)[..., -rows:, :]
    scores = reduce_axis(grouped, "avg", axis=2).max(axis=2)  # (L, H_kv, N)
    rest = argsort_desc(scores[:, :, : n - window])  # (L, H_kv, N - window)
    tail = np.broadcast_to(np.arange(n - window, n), (layers, kv_heads, window))
    return np.concatenate([tail, rest], axis=-1)


def pyramid_budgets(layers: int, context_len: int, total: int, shape: float) -> np.ndarray:
    """Linearly decreasing per-layer budgets summing to ``total``.

    Budgets are clamped to [1, context_len]; shape=0 gives the uniform split with the
    remainder on the earliest layers. ``total`` is a retention budget, at most L * N.
    """
    if not (np.isfinite(shape) and shape >= 0):
        raise ConfigError(f"shape must be a finite number >= 0, got {shape}")
    if total < layers:
        raise ConfigError(
            f"budget {total} cannot give every one of {layers} layers its floor of 1"
        )
    denom = max(layers - 1, 1)
    weights = np.asarray([1.0 + shape * (layers - 1 - l) / denom for l in range(layers)])

    active = np.ones(layers, dtype=bool)
    budgets = np.zeros(layers, dtype=np.int64)
    remaining = total
    while active.any():
        # Python's sum, in layer order: np.sum would add in another order
        raw = remaining * weights / sum(weights[active])
        for bound, hit in ((context_len, raw > context_len), (1, raw < 1.0)):
            hit &= active
            if hit.any():
                break
        else:
            break  # every active share lies in [1, context_len]
        budgets[hit] = bound
        remaining -= bound * int(hit.sum())
        active &= ~hit

    base = np.floor(raw[active]).astype(np.int64)
    leftover = remaining - int(base.sum())
    for i in argsort_desc(raw[active] - base):  # ties -> lower layer
        if leftover == 0:
            break
        if base[i] < context_len:
            base[i] += 1
            leftover -= 1
    budgets[active] = base
    return budgets


def baseline_budgets(policy: Policy, layers: int, n: int, totals: list[int]) -> np.ndarray:
    """A baseline's (G, L) layer budgets, one row per total of ``totals``, by its rule:
    ``pyramid_budgets``, or the uniform split with the remainder on the earliest layers."""
    if POLICIES[policy.name].budgets == "pyramid":
        return np.stack([pyramid_budgets(layers, n, t, policy.shape) for t in totals])
    t = np.asarray(totals, dtype=np.int64)[:, None]
    return t // layers + (np.arange(layers) < t % layers)


def select_baseline_indices(
    cap: AttentionCapture, policy: Policy, budgets: np.ndarray
) -> np.ndarray:
    """A baseline's slot ranks under its (G, L) ``budgets``, one row per grid ratio, for
    ``keep_masks``' uniform and pyramid rows: (L, H_kv, N) where one order serves every ratio,
    else (G, L, H_kv, N). random's keys are drawn once for every ratio; snapkv/pyramid rank
    once per distinct window, each ratio's window clamped here, and nowhere else, to its
    smallest layer budget; tova replays once for every ratio and ranks each replay's
    survivors first: exact, as a replay keeps exactly its layer's budget."""
    layers, heads, n = cap.value_norms_raw.shape
    if policy.name == "tova":
        survivors = ranks(argsort_desc(tova_select(cap.queries, cap.cache.keys, budgets)))
        return np.broadcast_to(survivors[:, :, None], (len(budgets), layers, heads, n))
    if policy.name == "random":
        keys = SeededRng(policy.seed).uniform_block(layers * heads * n)
        return ranks(argsort_desc(keys.reshape(layers, heads, n)))
    if policy.name == "streaming":
        return np.broadcast_to(ranks(streaming_order(n, policy.sinks)), (layers, heads, n))
    windows = [int(min(policy.window, b.min(), n)) for b in budgets]  # snapkv and pyramid
    ranked = {w: ranks(snapkv_select(cap, w)) for w in set(windows)}
    return np.stack([ranked[w] for w in windows])  # each ratio's window ranks, in grid order
