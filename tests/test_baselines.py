import re

import numpy as np
import pytest

from kvcompose.baselines import (
    Policy,
    pyramid_budgets,
    select_baseline_indices,
    snapkv_select,
    streaming_select,
    tova_select,
)
from kvcompose.composer import kept_rows, retention_budget
from kvcompose.errors import ConfigError, UsageError
from kvcompose.evaluator import RATIO_GRID
from kvcompose.model import prefill
from kvcompose.numerics import SeededRng, argsort_desc
from kvcompose.scoring import AggregationChoice, AttentionCapture, TaskSet, collect_attention

from conftest import count_calls, random_context


class TestPolicy:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            Policy(name="oracle")

    def test_parameters_positive(self):
        with pytest.raises(ConfigError):
            Policy(name="streaming", sinks=0)
        with pytest.raises(ConfigError):
            Policy(name="pyramid", shape=-1.0)

    @pytest.mark.parametrize("shape", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_shape_rejected(self, shape):
        # NaN passes a plain ``shape < 0`` check, so the schedule would cast NaN
        with pytest.raises(ConfigError, match="shape"):
            Policy(name="pyramid", shape=shape)
        with pytest.raises(ConfigError, match="shape"):
            pyramid_budgets(4, 10, 20, shape)


class TestStreamingSelect:
    def test_hand_example(self):
        assert streaming_select(10, 5, 2) == [0, 1, 7, 8, 9]

    def test_full_budget_is_identity(self):
        assert streaming_select(6, 6, 2) == list(range(6))

    def test_matches_set_union_oracle(self):
        got = streaming_select(100, 20, 4)
        assert got == sorted(set(range(4)) | set(range(84, 100)))

    def test_budget_below_sinks_rejected(self):
        with pytest.raises(ConfigError):
            streaming_select(10, 1, 2)

    def test_independent_of_model_weights(self):
        # pure index arithmetic: no model argument exists to depend on
        assert streaming_select(12, 7, 3) == streaming_select(12, 7, 3)


def tova_oracle(rows: np.ndarray, budget: int) -> list[int]:
    """Independent step-by-step replay with explicit set bookkeeping."""
    alive = []
    for step in range(rows.shape[0]):
        alive.append(step)
        if len(alive) > budget:
            worst, worst_score = None, None
            for tok in alive:
                score = rows[step, tok]
                if worst_score is None or score < worst_score:
                    worst, worst_score = tok, score
            alive.remove(worst)
    return alive


def per_ratio_replay(rows: np.ndarray, budgets: np.ndarray) -> list[np.ndarray]:
    """One ratio's all-layer replay with an (L, N) keep-mask: the form that
    the grid replay replaced."""
    layers, n = rows.shape[:2]
    first = int(min(budgets.min(), n))
    keep = np.tile(np.arange(n) < first, (layers, 1))
    for m in range(first, n):
        keep[:, m] = True
        over = np.flatnonzero(budgets <= m)
        worst = np.where(keep[over], rows[over, m], np.inf).argmin(axis=1)
        keep[over, worst] = False
    return [np.flatnonzero(k) for k in keep]


def uniform_grid_budgets(layers: int, n: int) -> np.ndarray:
    """(G, L) uniform splits of every RATIO_GRID budget, remainder to the earliest layers."""
    out = []
    for r in RATIO_GRID:
        base, extra = divmod(retention_budget(r, layers, n), layers)
        out.append([base + (layer < extra) for layer in range(layers)])
    return np.asarray(out, dtype=np.int64)


def head_mean(model, context) -> np.ndarray:
    """(L, N, N) prefill attention averaged over query heads: tova's input."""
    return np.stack(
        [a.mean(axis=0) for a in prefill(model, context, attention_rows=len(context)).attention]
    )


class TestTovaSelect:
    def test_budget_at_least_context_keeps_all(self, tiny_model):
        kept = tova_select(head_mean(tiny_model, random_context(40, 8)), np.asarray([[8, 8]]))[0]
        assert all(k.tolist() == list(range(8)) for k in kept)

    def test_budget_one_leaves_one_survivor(self, tiny_model):
        kept = tova_select(head_mean(tiny_model, random_context(41, 8)), np.asarray([[1, 1]]))[0]
        assert all(len(k) == 1 for k in kept)

    def test_budget_zero_keeps_nothing(self, tiny_model):
        rows = head_mean(tiny_model, random_context(44, 8))
        assert [k.tolist() for k in tova_select(rows, np.asarray([[0, 0]]))[0]] == [[], []]
        with pytest.raises(ConfigError):
            tova_select(rows, np.asarray([[-1, -1]]))

    @pytest.mark.parametrize(
        "budgets", [6, [6, 6], [[6, 6, 6]]], ids=["scalar", "per-layer", "3-layers"]
    )
    def test_budgets_other_than_grid_by_layer_rejected(self, tiny_model, budgets):
        # (G, L) is the one form, so every call returns one list per grid row
        rows = head_mean(tiny_model, random_context(44, 8))
        with pytest.raises(ConfigError, match="G, L=2"):
            tova_select(rows, np.asarray(budgets))

    def test_matches_replay_oracle(self, tiny_model):
        rows = head_mean(tiny_model, random_context(42, 12))
        kept = tova_select(rows, np.asarray([[6, 6]]))[0]
        for layer in range(2):
            assert kept[layer].dtype == np.int64
            assert kept[layer].tolist() == tova_oracle(rows[layer], 6)

    def test_mixed_layer_budgets_match_replay_oracle(self, gqa_model):
        # one replay serves every layer, each at its own budget: none, one,
        # a middle value and at least the whole context
        n = 24
        rows = head_mean(gqa_model, random_context(45, n))
        budgets = np.asarray([0, 1, 9, n + 3])
        kept = tova_select(rows, budgets[None])[0]
        for layer, b in enumerate(budgets):
            assert kept[layer].tolist() == tova_oracle(rows[layer], b)
        assert [len(k) for k in kept] == [0, 1, 9, n]

    def test_ties_evict_lowest_index(self):
        # equal attention everywhere: each step evicts the oldest token
        rows = np.tril(np.ones((2, 6, 6)))
        kept = tova_select(rows, np.asarray([[3, 0]]))[0]
        assert [k.tolist() for k in kept] == [[3, 4, 5], []] == [tova_oracle(rows[0], 3), []]

    def test_grid_replay_matches_per_ratio_replay(self, gqa_model):
        # random attention, where ties are rare, and a real prefill's head mean
        random_rows = SeededRng(46).uniform_block(4 * 128 * 128).reshape(4, 128, 128)
        for rows in (random_rows, head_mean(gqa_model, random_context(47, 64))):
            budgets = uniform_grid_budgets(*rows.shape[:2])
            grid = tova_select(rows, budgets)
            assert len(grid) == len(RATIO_GRID)
            for row, kept in zip(budgets, grid):
                want = per_ratio_replay(rows, row)
                assert [k.tolist() for k in kept] == [w.tolist() for w in want]
                assert all(k.dtype == np.int64 for k in kept)
            for layer, b in enumerate(budgets[-1]):  # the tightest ratio, by the set oracle
                assert grid[-1][layer].tolist() == tova_oracle(rows[layer], b)

    def test_kept_rows_replays_once_for_the_grid(self, tiny_model, monkeypatch):
        from kvcompose import baselines

        context = random_context(48, 20)
        ts = TaskSet(mode="task-agnostic", observation_window=4)
        cap = collect_attention(tiny_model, context, ts, head_mean=True)
        calls = count_calls(monkeypatch, baselines, "tova_select")
        grid = kept_rows(cap, AggregationChoice(), RATIO_GRID, Policy(name="tova"))
        assert len(calls) == 1 and calls[0][1].shape == (len(RATIO_GRID), 2)
        assert [sum(len(k) for k in rows) for rows in grid] == [
            retention_budget(r, 2, 20) for r in RATIO_GRID
        ]

    def test_capture_without_head_mean_rejected(self, tiny_model):
        ts = TaskSet(mode="task-agnostic", observation_window=4)
        cap = collect_attention(tiny_model, random_context(49, 12), ts)
        assert cap.attention_mean is None
        with pytest.raises(UsageError, match="head_mean=True"):
            select_baseline_indices(cap, Policy(name="tova"), (12,))

    def test_deterministic(self, tiny_model):
        context = random_context(43, 10)
        first = tova_select(head_mean(tiny_model, context), np.asarray([[5, 5]]))[0]
        second = tova_select(head_mean(tiny_model, context), np.asarray([[5, 5]]))[0]
        assert all(np.array_equal(a, b) for a, b in zip(first, second, strict=True))


def snapkv_oracle(cap: AttentionCapture, layer: int, head: int, budget: int, window: int):
    n = cap.context_len
    group = cap.A.shape[1] // cap.value_norms_raw.shape[1]
    block = cap.A[layer, head * group : (head + 1) * group].mean(axis=0)
    rows = min(window, cap.task_len)
    scores = block[:, -rows:].max(axis=1)
    candidates = sorted(
        range(n - window), key=lambda c: (-scores[c], c)
    )[: budget - window]
    return sorted(set(candidates) | set(range(n - window, n)))


class TestSnapkvSelect:
    def capture(self, model, context, window):
        return collect_attention(
            model, context, TaskSet(mode="task-agnostic", observation_window=window)
        )

    def test_full_budget_is_identity(self, tiny_model):
        context = random_context(44, 10)
        cap = self.capture(tiny_model, context, 4)
        kept = snapkv_select(cap, budget_per_head=10, window=4)
        for layer in kept:
            for head_kept in layer:
                assert head_kept.tolist() == list(range(10))

    def test_uniform_attention_tie_case(self):
        # constant scores: keeps the window plus the lowest-index tokens
        a = np.full((1, 2, 8, 3), 0.125)
        cap = AttentionCapture(
            A=a,
            value_norms_raw=np.ones((1, 1, 8)),
            value_norms_proj=np.ones((1, 2, 8)),
        )
        kept = snapkv_select(cap, budget_per_head=5, window=2)
        assert kept[0][0].tolist() == [0, 1, 2, 6, 7]

    def test_matches_topk_oracle(self, tiny_model):
        context = random_context(45, 12)
        cap = self.capture(tiny_model, context, 4)
        kept = snapkv_select(cap, budget_per_head=7, window=4)
        for layer in range(2):
            for head in range(2):
                assert kept[layer][head].tolist() == snapkv_oracle(cap, layer, head, 7, 4)

    def test_budget_below_window_rejected(self, tiny_model):
        cap = self.capture(tiny_model, random_context(46, 8), 4)
        with pytest.raises(ConfigError):
            snapkv_select(cap, budget_per_head=3, window=4)

    def test_full_compression_keeps_nothing(self, tiny_model):
        cap = self.capture(tiny_model, random_context(49, 12), 4)
        budget = retention_budget(1.0, 2, 12)
        kept = select_baseline_indices(cap, Policy(name="snapkv"), (budget,))[0]
        assert [k.shape for k in kept] == [(2, 0), (2, 0)]

    def test_zero_layer_budget_clamps_window(self, tiny_model):
        # uniform split of 1 over 2 layers is [1, 0]: the window clamps to 0
        # and layer 0 keeps its top token scored over every task row
        cap = self.capture(tiny_model, random_context(50, 12), 4)
        kept = select_baseline_indices(cap, Policy(name="snapkv"), (1,))[0]
        assert kept[1].shape == (2, 0)
        for head in range(2):
            assert kept[0][head].tolist() == snapkv_oracle(cap, 0, head, 1, 0)

    def test_counts_uniform_sets_may_differ(self, tiny_model):
        context = random_context(47, 12)
        cap = self.capture(tiny_model, context, 4)
        kept = snapkv_select(cap, budget_per_head=6, window=4)
        for layer in kept:
            assert {len(h) for h in layer} == {6}


class TestPyramidBudgets:
    def test_shape_zero_uniform_with_remainder(self):
        budgets = pyramid_budgets(4, 10, retention_budget(0.47, 4, 10), 0.0)
        # floor(0.53 * 40) = 21 -> 6,5,5,5
        assert budgets.tolist() == [6, 5, 5, 5]

    def test_monotone_for_positive_shape(self):
        for shape in (0.5, 1.0, 2.0):
            budgets = pyramid_budgets(5, 20, retention_budget(0.5, 5, 20), shape)
            assert all(budgets[i] >= budgets[i + 1] for i in range(4))

    def test_rescaled_total(self):
        budgets = pyramid_budgets(4, 10, retention_budget(0.5, 4, 10), 1.0)
        assert budgets.sum() == 20

    def test_floor_of_one_token(self):
        budgets = pyramid_budgets(4, 32, retention_budget(0.9, 4, 32), 5.0)
        assert budgets.min() >= 1
        assert budgets.sum() == retention_budget(0.9, 4, 32)

    def test_cap_at_context_length(self):
        budgets = pyramid_budgets(3, 8, retention_budget(0.0, 3, 8), 4.0)
        assert budgets.tolist() == [8, 8, 8]

    def test_infeasible_total_rejected(self):
        with pytest.raises(ConfigError):
            pyramid_budgets(8, 4, retention_budget(0.95, 8, 4), 1.0)  # floor(0.05*32)=1 < 8 layers


def reference_schedule(layers, context_len, total, shape):
    """Oracle for ``pyramid_budgets``: the dict-based schedule it replaced.
    Shares above ``context_len`` are clamped first, then shares below 1,
    and the largest remainders go to the lower layer on ties."""
    if shape < 0:
        raise ConfigError(f"shape must be >= 0, got {shape}")
    if total < layers:
        raise ConfigError(
            f"budget {total} cannot give every one of {layers} layers its floor of 1"
        )
    if total > layers * context_len:
        raise ConfigError(f"budget {total} exceeds cache capacity {layers * context_len}")
    denom = max(layers - 1, 1)
    weights = np.asarray([1.0 + shape * (layers - 1 - l) / denom for l in range(layers)])

    fixed = {}
    active = list(range(layers))
    remaining = total
    while active:
        wsum = sum(weights[l] for l in active)
        raw = {l: remaining * weights[l] / wsum for l in active}
        over = [l for l in active if raw[l] > context_len]
        if over:
            for l in over:
                fixed[l] = context_len
                remaining -= context_len
            active = [l for l in active if l not in over]
            continue
        under = [l for l in active if raw[l] < 1.0]
        if under:
            for l in under:
                fixed[l] = 1
                remaining -= 1
            active = [l for l in active if l not in under]
            continue
        break
    if not active and remaining != 0:
        raise ConfigError(f"cannot schedule budget {total} over {layers} layers")

    budgets = np.zeros(layers, dtype=np.int64)
    for l, b in fixed.items():
        budgets[l] = b
    if active:
        base = {l: int(np.floor(raw[l])) for l in active}
        leftover = remaining - sum(base.values())
        order = argsort_desc([raw[l] - base[l] for l in active])  # ties -> lower layer
        for l in (active[i] for i in order):
            if leftover == 0:
                break
            if base[l] < context_len:
                base[l] += 1
                leftover -= 1
        for l, b in base.items():
            budgets[l] = b
    return budgets


class TestScheduleOracle:
    def test_matches_reference_schedule(self):
        """Budgets, or the ConfigError message, equal the oracle's on a grid
        that reaches both clamps. Four cases with 10 layers (context 6, 12,
        18 and 33) change if the weight sum is taken with np.sum."""
        seen = {"budgets": 0, "errors": 0}
        for layers in range(1, 13):
            for context_len in (1, 2, 3, 5, 6, 8, 12, 13, 18, 21, 33, 39):
                for r in np.linspace(0.0, 1.0, 14):
                    total = retention_budget(r, layers, context_len)
                    for shape in (0.0, 0.3, 1.0, 2.5, 5.0, 12.0, 17.3):
                        try:
                            want = reference_schedule(layers, context_len, total, shape)
                        except ConfigError as exc:
                            with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                                pyramid_budgets(layers, context_len, total, shape)
                            seen["errors"] += 1
                            continue
                        got = pyramid_budgets(layers, context_len, total, shape)
                        assert got.dtype == np.int64
                        assert got.tolist() == want.tolist(), (layers, context_len, r, shape)
                        seen["budgets"] += 1
        assert seen["budgets"] > 5000 and seen["errors"] > 1000


class TestBudgetParity:
    @pytest.mark.parametrize("name", ["streaming", "tova", "snapkv", "pyramid"])
    def test_totals_match_structured_budget(self, tiny_model, name):
        context = random_context(48, 16)
        policy = Policy(name=name)
        cap = collect_attention(
            tiny_model, context, TaskSet(mode="task-agnostic", observation_window=4),
            head_mean=policy.reads_head_mean,
        )
        budgets = [retention_budget(r, 2, 16) for r in (0.0, 0.25, 0.5, 0.75)]
        grid = select_baseline_indices(cap, policy, budgets)
        assert len(grid) == len(budgets)
        for budget, kept in zip(budgets, grid):
            total = sum(k.shape[-1] for k in kept)
            assert total == budget
            for layer_kept in kept:  # structured: uniform count across heads
                arr = np.asarray(layer_kept)
                if arr.ndim == 2:
                    assert len({row.size for row in arr}) == 1
