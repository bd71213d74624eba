import re
from dataclasses import replace

import numpy as np
import pytest

from kvcompose.baselines import (
    POLICY_NAMES,
    POLICY_PARAMS,
    Policy,
    baseline_budgets,
    pyramid_budgets,
    select_baseline_indices,
    snapkv_select,
    streaming_order,
    tova_select,
)
from kvcompose.cli import ablation_grid
from kvcompose.composer import (
    allocate_budgets,
    composite_indices,
    keep_masks,
    layer_importance,
    retention_budget,
)
from kvcompose.errors import ConfigError
from kvcompose.evaluator import RATIO_GRID
from kvcompose.model import ROW_BLOCK, ModelConfig, init_model, prefill
from kvcompose.numerics import SeededRng, argsort_desc, ranks
from kvcompose.scoring import (
    AggregationChoice,
    AttentionCapture,
    TaskSet,
    collect_attention,
    score_pipeline,
)

from conftest import (
    baseline_rows,
    count_calls,
    hand_capture,
    head_mean_oracle,
    kind_capture,
    mark_rows,
    prefill_keeping,
    random_context,
    snapkv_rows,
    streaming_rows,
    tova_oracle,
    tova_rows,
)


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

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_reads_aggregation_iff_some_choice_moves_the_masks(self, gqa_model, name):
        # over all 48 ablation arms, on a model with two kv heads
        policy = Policy(name=name)
        cap = collect_attention(
            gqa_model, random_context(51, 24), TaskSet(mode="task-agnostic", observation_window=8),
        )
        stack = keep_masks(cap, ablation_grid(), (0.0, 0.5, 0.75), policy)
        masks = {arm.tobytes() for arm in stack}
        assert (len(masks) > 1) == policy.reads_aggregation

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_reads_exactly_the_parameters_its_table_lists(self, gqa_model, name):
        # on the demo agreement shape (N=128, task-agnostic window 32), a changed
        # parameter moves the masks at some grid ratio iff POLICY_PARAMS lists it
        policy = Policy(name=name, sinks=2, window=4, shape=1.0, seed=0)
        task_set = TaskSet(mode="task-agnostic", observation_window=32)
        cap = collect_attention(gqa_model, random_context(52, 128), task_set)

        def masks(p: Policy) -> np.ndarray:
            return keep_masks(cap, [AggregationChoice()], RATIO_GRID, p)

        changed = {"sinks": 5, "window": 8, "shape": 0.0, "seed": 1}
        moved = {
            key for key, value in changed.items()
            if not np.array_equal(masks(replace(policy, **{key: value})), masks(policy))
        }
        assert moved == set(POLICY_PARAMS[name])


def selected(cap: AttentionCapture, policy: Policy, totals) -> np.ndarray:
    """(G, L, H_kv, N) bool: a baseline's slot ranks below its layer budgets for ``totals``."""
    layers, kv_heads, n = cap.value_norms_raw.shape
    budgets = baseline_budgets(policy, layers, n, list(totals))
    rank = select_baseline_indices(cap, policy, budgets)
    return np.broadcast_to(rank < budgets[..., None, None], (len(budgets), layers, kv_heads, n))


def kept_rows(order: np.ndarray, budget: int) -> list[int]:
    """The tokens an (N,) slot order keeps at ``budget``: those ranked below it."""
    return np.flatnonzero(ranks(order) < budget).tolist()


class TestStreamingSelect:
    def test_hand_example(self):
        assert kept_rows(streaming_order(10, 2), 5) == [0, 1, 7, 8, 9]

    def test_full_budget_is_identity(self):
        order = streaming_order(6, 2)
        assert sorted(order.tolist()) == list(range(6)) and kept_rows(order, 6) == list(range(6))

    def test_matches_set_union_oracle(self):
        assert kept_rows(streaming_order(100, 4), 20) == streaming_rows(100, 20, 4)

    def test_budget_below_sinks_keeps_the_first_tokens(self):
        # the sink count clamps to the budget: a budget b < sinks keeps tokens 0 .. b-1
        order = streaming_order(10, 4)
        for b in range(5):
            assert kept_rows(order, b) == list(range(b)) == streaming_rows(10, b, b)
        assert streaming_order(3, 5).tolist() == [0, 1, 2]  # more sinks than tokens

    def test_independent_of_model_weights(self):
        # pure index arithmetic: no model argument exists to depend on
        assert np.array_equal(streaming_order(12, 3), streaming_order(12, 3))


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


def prefill_qk(model, context) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A prefill's per-layer queries and keys: what every capture keeps, and tova reads."""
    run = prefill(model, context)
    return run.queries, run.cache.keys


def random_qk(seed: int, layers: int, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uniform random per-layer (4, n, 8) queries and (2, n, 8) keys: random attention."""
    draws = SeededRng(seed).uniform_block(layers * 6 * n * 8).reshape(layers, 6, n, 8) * 4.0
    return [d[:4] for d in draws], [d[4:] for d in draws]


class TestTovaSelect:
    def test_budget_at_least_context_keeps_all(self, tiny_model):
        kept = tova_select(*prefill_qk(tiny_model, random_context(40, 8)), np.asarray([[8, 8]]))[0]
        assert kept.shape == (2, 8) and kept.all()

    def test_budget_one_leaves_one_survivor(self, tiny_model):
        kept = tova_select(*prefill_qk(tiny_model, random_context(41, 8)), np.asarray([[1, 1]]))[0]
        assert np.count_nonzero(kept, axis=1).tolist() == [1, 1]

    def test_budget_zero_keeps_nothing(self, tiny_model):
        qk = prefill_qk(tiny_model, random_context(44, 8))
        kept = tova_select(*qk, np.asarray([[0, 0]]))
        assert kept.shape == (1, 2, 8) and not kept.any()
        with pytest.raises(ConfigError):
            tova_select(*qk, np.asarray([[-1, -1]]))

    @pytest.mark.parametrize(
        "budgets", [6, [6, 6], [[6, 6, 6]]], ids=["scalar", "per-layer", "3-layers"]
    )
    def test_budgets_other_than_grid_by_layer_rejected(self, tiny_model, budgets):
        # (G, L) is the one form, so every call returns one mask stack per grid row
        qk = prefill_qk(tiny_model, random_context(44, 8))
        with pytest.raises(ConfigError, match="G, L=2"):
            tova_select(*qk, np.asarray(budgets))

    @pytest.mark.parametrize("n", [8, ROW_BLOCK + 9, 3 * ROW_BLOCK])
    def test_oracle_mean_is_the_mean_of_the_pass_rows(self, gqa_model, n):
        # the oracle's plain (L, N, N) mean is, bit for bit, the query-head mean
        # of every attention row a prefill keeps: what tova replayed before its
        # capture kept the queries in place of the mean
        run = prefill_keeping(gqa_model, random_context(39, n), n)
        want = np.stack([a.mean(axis=0) for a in run.attention])
        assert head_mean_oracle(run.queries, run.cache.keys).tobytes() == want.tobytes()

    def test_matches_replay_oracle(self, tiny_model):
        qk = prefill_qk(tiny_model, random_context(42, 12))
        rows = head_mean_oracle(*qk)
        kept = tova_select(*qk, np.asarray([[6, 6]]))[0]
        assert kept.dtype == bool
        for layer in range(2):
            assert np.flatnonzero(kept[layer]).tolist() == tova_oracle(rows[layer], 6)

    def test_mixed_layer_budgets_match_replay_oracle(self, gqa_model):
        # one replay serves every layer, each at its own budget: none, one,
        # a middle value and at least the whole context
        n = 24
        qk = prefill_qk(gqa_model, random_context(45, n))
        rows = head_mean_oracle(*qk)
        budgets = np.asarray([0, 1, 9, n + 3])
        kept = tova_select(*qk, budgets[None])[0]
        for layer, b in enumerate(budgets):
            assert np.flatnonzero(kept[layer]).tolist() == tova_oracle(rows[layer], b)
        assert np.count_nonzero(kept, axis=1).tolist() == [0, 1, 9, n]

    def test_ties_evict_lowest_index(self):
        # zero queries attend equally to every token so far: each step evicts the oldest
        queries, keys = random_qk(38, 2, 6)
        queries = [np.zeros_like(q) for q in queries]
        rows = head_mean_oracle(queries, keys)
        kept = tova_select(queries, keys, np.asarray([[3, 0]]))[0]
        got = [np.flatnonzero(k).tolist() for k in kept]
        assert got == [[3, 4, 5], []] == [tova_oracle(rows[0], 3), []]

    def test_grid_replay_matches_per_ratio_replay(self, gqa_model):
        # random attention, where ties are rare, and a real prefill's head mean,
        # each over two row blocks
        for qk in (random_qk(46, 4, 128), prefill_qk(gqa_model, random_context(47, 2 * ROW_BLOCK))):
            rows = head_mean_oracle(*qk)
            budgets = uniform_grid_budgets(*rows.shape[:2])
            grid = tova_select(*qk, budgets)
            assert grid.shape == (len(RATIO_GRID), *rows.shape[:2]) and grid.dtype == bool
            for row, kept in zip(budgets, grid):
                want = per_ratio_replay(rows, row)
                assert [np.flatnonzero(k).tolist() for k in kept] == [w.tolist() for w in want]
            for layer, b in enumerate(budgets[-1]):  # the tightest ratio, by the set oracle
                assert np.flatnonzero(grid[-1][layer]).tolist() == tova_oracle(rows[layer], b)

    def test_keep_masks_replays_once_for_the_grid(self, tiny_model, monkeypatch):
        from kvcompose import baselines

        context = random_context(48, 20)
        ts = TaskSet(mode="task-agnostic", observation_window=4)
        cap = collect_attention(tiny_model, context, ts)
        calls = count_calls(monkeypatch, baselines, "tova_select")
        masks = keep_masks(cap, [AggregationChoice()], RATIO_GRID, Policy(name="tova"))
        assert len(calls) == 1 and calls[0][2].shape == (len(RATIO_GRID), 2)
        assert np.count_nonzero(masks[0, :, :, 0], axis=(1, 2)).tolist() == [
            retention_budget(r, 2, 20) for r in RATIO_GRID
        ]

    def test_any_capture_replays_its_prefill_queries(self, tiny_model):
        # every capture holds its prefill's queries, so tova reads them and
        # computes no attention rows of the capture
        context, budgets = random_context(49, 12), np.asarray([[6, 6]])
        ts = TaskSet(mode="task-agnostic", observation_window=4)
        cap = collect_attention(tiny_model, context, ts)
        got = select_baseline_indices(cap, Policy(name="tova"), budgets)
        want = ranks(argsort_desc(tova_select(*prefill_qk(tiny_model, context), budgets)))
        assert got[0, :, 0].tobytes() == want[0].tobytes()
        assert "A" not in vars(cap)

    def test_capture_and_replay_peak_is_o_n(self):
        # N=2,048 on the demo's random shape: a head-mean capture held the
        # (L, N, N) mean, 128 MiB; keeping the queries and rebuilding one
        # (L, ROW_BLOCK, N) block of means at a time, the capture and the
        # replay peak within 2x a kvcompose capture's window rows
        import tracemalloc

        n = 2048
        model = init_model(ModelConfig(
            layers=4, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=64,
            seed=7, max_context=n,
        ))
        context, ts = random_context(37, n), TaskSet(mode="task-agnostic", observation_window=32)
        budgets = baseline_budgets(Policy(name="tova"), 4, n, [n // 2, n // 8])
        peaks = []
        for reads in ("rows", "head-mean"):  # kvcompose's window rows, or tova's replay
            tracemalloc.start()
            try:
                cap = collect_attention(model, context, ts)
                if reads == "rows":
                    cap.A
                else:
                    select_baseline_indices(cap, Policy(name="tova"), budgets)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del cap
        assert peaks[1] <= 2 * peaks[0], peaks

    def test_deterministic(self, tiny_model):
        context = random_context(43, 10)
        first = tova_select(*prefill_qk(tiny_model, context), np.asarray([[5, 5]]))[0]
        second = tova_select(*prefill_qk(tiny_model, context), np.asarray([[5, 5]]))[0]
        assert np.array_equal(first, second)


def snapkv_oracle(cap: AttentionCapture, layer: int, head: int, budget: int, window: int):
    n = cap.context_len
    group = cap.A.shape[1] // cap.value_norms_raw.shape[1]
    block = cap.A[layer, head * group : (head + 1) * group].mean(axis=0)  # (M, N)
    rows = min(window, cap.task_len)
    scores = block[-rows:, :].max(axis=0)
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
        order = snapkv_select(cap, window=4)
        assert order.shape == (2, 2, 10) and (ranks(order) < 10).all()

    def test_uniform_attention_tie_case(self):
        # constant scores: keeps the window plus the lowest-index tokens
        a = np.full((1, 2, 3, 8), 0.125)
        cap = hand_capture(a, np.ones((1, 1, 8)))  # snapkv reads no norms
        order = snapkv_select(cap, window=2)
        assert order[0, 0].tolist() == [6, 7, 0, 1, 2, 3, 4, 5]  # window first, then by score
        assert kept_rows(order[0, 0], 5) == [0, 1, 2, 6, 7]

    def test_matches_topk_oracle(self, tiny_model):
        context = random_context(45, 12)
        cap = self.capture(tiny_model, context, 4)
        order = snapkv_select(cap, window=4)
        for layer in range(2):
            for head in range(2):
                got = kept_rows(order[layer, head], 7)
                assert got == snapkv_oracle(cap, layer, head, 7, 4)

    def test_window_past_context_rejected(self, tiny_model):
        cap = self.capture(tiny_model, random_context(46, 8), 4)
        with pytest.raises(ConfigError, match="window 9 exceeds context length 8"):
            snapkv_select(cap, window=9)

    def test_full_compression_keeps_nothing(self, tiny_model):
        cap = self.capture(tiny_model, random_context(49, 12), 4)
        budget = retention_budget(1.0, 2, 12)
        kept = selected(cap, Policy(name="snapkv"), (budget,))[0]
        assert kept.shape == (2, 2, 12) and not kept.any()

    def test_zero_layer_budget_clamps_window(self, tiny_model):
        # uniform split of 1 over 2 layers is [1, 0]: the window clamps to 0
        # and layer 0 keeps its top token scored over every task row
        cap = self.capture(tiny_model, random_context(50, 12), 4)
        kept = selected(cap, Policy(name="snapkv"), (1,))[0]
        assert not kept[1].any()
        for head in range(2):
            assert np.flatnonzero(kept[0][head]).tolist() == snapkv_oracle(cap, 0, head, 1, 0)

    @pytest.mark.parametrize("name", ["snapkv", "pyramid"])
    def test_grid_ranks_once_per_distinct_window(self, tiny_model, monkeypatch, name):
        # the window clamps to each ratio's smallest layer budget, so the
        # tight ratios rank on narrower windows; one call ranks each window
        # for every ratio sharing it and keeps what one call per ratio keeps
        from kvcompose import baselines

        cap = self.capture(tiny_model, random_context(51, 20), 4)
        policy = Policy(name=name, shape=0.5)
        totals = tuple(retention_budget(r, 2, 20) for r in RATIO_GRID)
        calls = count_calls(monkeypatch, baselines, "snapkv_select")
        want = [selected(cap, policy, (t,))[0] for t in totals]
        windows = [call[1] for call in calls]
        calls.clear()
        got = selected(cap, policy, totals)
        assert len(set(windows)) > 1
        assert sorted(call[1] for call in calls) == sorted(set(windows))
        assert np.array_equal(got, np.stack(want))

    def test_counts_uniform_sets_may_differ(self, tiny_model):
        context = random_context(47, 12)
        cap = self.capture(tiny_model, context, 4)
        kept = ranks(snapkv_select(cap, window=4)) < 6
        assert (np.count_nonzero(kept, axis=-1) == 6).all()


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
        )
        totals = [retention_budget(r, 2, 16) for r in (0.0, 0.25, 0.5, 0.75)]
        grid = selected(cap, policy, totals)
        assert grid.shape == (len(totals), 2, 2, 16) and grid.dtype == bool
        for budget, kept in zip(totals, grid):
            counts = np.count_nonzero(kept, axis=-1)  # (L, H_kv)
            assert counts[:, 0].sum() == budget
            assert (counts == counts[:, :1]).all()  # structured: uniform count across heads


class TestMaskOracles:
    """Each selector keeps exactly the rows of its row-returning oracle
    (``conftest``) at every ratio of RATIO_GRID, on an agreement capture with
    two kv heads and on a recall capture: tova's masks, and streaming's and
    snapkv's slot orders ranked below each budget; and ``keep_masks`` keeps
    them for every baseline, from ranks that are each head's permutation."""

    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    def test_streaming(self, gqa_model, kind):
        layers, _, n = kind_capture(gqa_model, kind).value_norms_raw.shape
        budgets = uniform_grid_budgets(layers, n)
        for sinks in (1, 2, 5):
            masks = ranks(streaming_order(n, sinks)) < budgets[..., None]
            assert masks.shape == (len(RATIO_GRID), layers, n)
            for mask, b in zip(masks.reshape(-1, n), budgets.ravel()):
                assert np.flatnonzero(mask).tolist() == streaming_rows(n, b, min(sinks, b))

    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    def test_tova(self, gqa_model, kind):
        cap = kind_capture(gqa_model, kind)
        budgets = uniform_grid_budgets(len(cap.queries), cap.context_len)
        masks = tova_select(cap.queries, cap.cache.keys, budgets)
        rows = head_mean_oracle(cap.queries, cap.cache.keys)
        want = mark_rows(tova_rows(rows, budgets), 1, cap.context_len)
        assert np.array_equal(masks[:, :, None], want)

    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    def test_snapkv(self, gqa_model, kind):
        cap = kind_capture(gqa_model, kind)
        layers, kv_heads, n = cap.value_norms_raw.shape
        budgets = uniform_grid_budgets(layers, n)
        for window in (0, 1, 4):  # one call per window, on every ratio that fits it
            rows = budgets[(budgets >= window).all(axis=1)]
            want = mark_rows(snapkv_rows(cap, rows, window), kv_heads, n)
            got = ranks(snapkv_select(cap, window)) < rows[..., None, None]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    @pytest.mark.parametrize("name", ["streaming", "tova", "snapkv", "pyramid", "random"])
    def test_dispatch(self, gqa_model, kind, name):
        policy = Policy(name=name)
        cap = kind_capture(gqa_model, kind)
        layers, kv_heads, n = cap.value_norms_raw.shape
        totals = [retention_budget(r, layers, n) for r in RATIO_GRID]
        rank = select_baseline_indices(cap, policy, baseline_budgets(policy, layers, n, totals))
        assert rank.shape in ((layers, kv_heads, n), (len(RATIO_GRID), layers, kv_heads, n))
        assert (np.sort(rank, axis=-1) == np.arange(n)).all()
        masks = keep_masks(cap, [AggregationChoice()], RATIO_GRID, policy)[0]
        assert masks.shape == (len(RATIO_GRID), layers, kv_heads, n) and masks.dtype == bool
        assert np.array_equal(masks, mark_rows(baseline_rows(cap, policy, totals), kv_heads, n))


# each policy's layer-budget rule, stated apart from the table under test
BUDGET_RULES = {
    "kvcompose": "pooled",
    "streaming": "uniform",
    "tova": "uniform",
    "snapkv": "uniform",
    "pyramid": "pyramid",
    "random": "uniform",
    "unstructured": "global",
}


class TestBudgetRules:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_rule_sets_the_per_layer_kept_counts(self, gqa_model, name):
        # kept rows per (ratio, layer) in every kv head: the uniform split, pyramid_budgets,
        # or allocate_budgets over the choice's slot scores; the global rule keeps only
        # its entry total, with counts that differ between the heads of a layer
        policy, choice = Policy(name=name), AggregationChoice()
        cap = kind_capture(gqa_model, "agreement")
        layers, kv_heads, n = cap.value_norms_raw.shape
        counts = np.count_nonzero(keep_masks(cap, [choice], RATIO_GRID, policy)[0], axis=-1)
        rule = BUDGET_RULES[name]
        if rule == "global":
            totals = [retention_budget(r, layers, kv_heads, n) for r in RATIO_GRID]
            assert counts.sum(axis=(1, 2)).tolist() == totals
            assert (counts != counts[..., :1]).any()
            return
        if rule == "uniform":
            want = uniform_grid_budgets(layers, n)
        elif rule == "pyramid":
            totals = [retention_budget(r, layers, n) for r in RATIO_GRID]
            want = np.stack([pyramid_budgets(layers, n, t, policy.shape) for t in totals])
        else:
            s = score_pipeline(cap, kv_heads, choice)
            imp = layer_importance(s, composite_indices(s), choice.agg_head)
            want = allocate_budgets(imp, RATIO_GRID)
        assert (want != uniform_grid_budgets(layers, n)).any() or rule == "uniform"
        assert np.array_equal(counts, np.broadcast_to(want[..., None], counts.shape))
