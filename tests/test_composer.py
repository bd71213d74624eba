import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcompose import composer
from kvcompose.baselines import Policy
from kvcompose.composer import (
    allocate_budgets,
    compact_cache,
    composite_indices,
    compress,
    gather_cache,
    keep_masks,
    kept_rows,
    layer_importance,
    retention_budget,
    unstructured_compress,
)
from kvcompose.errors import UsageError
from kvcompose.evaluator import RATIO_GRID
from kvcompose.model import _forward, decode_step, prefill
from kvcompose.numerics import SeededRng, argsort_desc
from kvcompose.scoring import (
    STAGE_FINAL,
    STAGE_GROUP,
    AggregationChoice,
    ScoreTensor,
    TaskSet,
    collect_attention,
)

from conftest import count_calls, random_context


def final_scores(seed, layers=2, heads=2, n=8) -> ScoreTensor:
    rng = SeededRng(seed)
    return ScoreTensor(STAGE_FINAL, rng.uniform_block(layers * heads * n).reshape(layers, heads, n))


def allocation_oracle(importance: np.ndarray, budget: int):
    """Brute-force pool sort with the (score desc, layer, slot) tie rule."""
    layers, n = importance.shape
    pool = [(-importance[l, k], l, k) for l in range(layers) for k in range(n)]
    pool.sort()
    counts = [0] * layers
    for _, l, _ in pool[:budget]:
        counts[l] += 1
    return counts


class TestCompositeIndices:
    def test_hand_example(self):
        s = ScoreTensor(STAGE_FINAL, np.array([[[0.1, 0.9, 0.5]]]))
        ci = composite_indices(s)
        assert ci.idx[0, 0].tolist() == [1, 2, 0]
        assert ci.s_prime[0, 0].tolist() == [0.9, 0.5, 0.1]

    def test_constant_row_uses_tie_rule(self):
        s = ScoreTensor(STAGE_FINAL, np.ones((1, 1, 5)))
        ci = composite_indices(s)
        assert ci.idx[0, 0].tolist() == [0, 1, 2, 3, 4]

    def test_random_rows_sorted_and_permutations(self):
        s = final_scores(3, layers=2, heads=2, n=8)
        ci = composite_indices(s)
        for layer in range(2):
            for h in range(2):
                row = ci.s_prime[layer, h]
                assert all(row[i] >= row[i + 1] for i in range(7))
                assert sorted(ci.idx[layer, h].tolist()) == list(range(8))
                assert np.array_equal(row, s.values[layer, h, ci.idx[layer, h]])

    def test_stage_enforced(self):
        with pytest.raises(UsageError):
            composite_indices(ScoreTensor(STAGE_GROUP, np.zeros((1, 1, 2))))

    def test_matches_per_head_argsort_oracle(self):
        # coarse values force ties, which must keep the lower index first
        values = np.round(final_scores(6, layers=3, heads=4, n=12).values * 4) / 4
        ci = composite_indices(ScoreTensor(STAGE_FINAL, values))
        for layer in range(3):
            for h in range(4):
                order = argsort_desc(values[layer, h])
                assert np.array_equal(ci.idx[layer, h], order)
                assert np.array_equal(ci.s_prime[layer, h], values[layer, h, order])

    def test_rejects_non_finite(self):
        values = np.zeros((1, 2, 3))
        values[0, 1, 2] = np.nan
        with pytest.raises(UsageError):
            composite_indices(ScoreTensor(STAGE_FINAL, values))


class TestLayerImportance:
    def test_single_head_identity(self):
        ci = composite_indices(final_scores(4, heads=1))
        imp = layer_importance(ci, "avg")
        assert np.array_equal(imp, ci.s_prime[:, 0, :])

    def test_two_head_average(self):
        s = ScoreTensor(STAGE_FINAL, np.array([[[0.4], [0.8]]]))
        imp = layer_importance(composite_indices(s), "avg")
        assert abs(imp[0, 0] - 0.6) < 1e-12

    def test_rows_non_increasing_and_match_loop(self):
        ci = composite_indices(final_scores(5, layers=3, heads=4, n=6))
        for op in ("max", "avg"):
            imp = layer_importance(ci, op)
            for layer in range(3):
                row = imp[layer]
                assert all(row[i] >= row[i + 1] - 1e-15 for i in range(5))
                for k in range(6):
                    slot = ci.s_prime[layer, :, k]
                    expected = slot.max() if op == "max" else slot.mean()
                    assert imp[layer, k] == expected


class TestAllocateBudgets:
    def test_hand_pool_example(self):
        budgets = allocate_budgets(np.array([[5.0, 4.0, 1.0], [3.0, 2.0, 0.0]]), (0.5,))[0]
        assert budgets.sum() == 3
        assert budgets.tolist() == [2, 1]

    def test_no_compression(self):
        budgets = allocate_budgets(np.array([[3.0, 2.0], [1.0, 0.5]]), (0.0,))[0]
        assert budgets.sum() == 4
        assert budgets.tolist() == [2, 2]

    def test_budget_formula(self):
        rng = SeededRng(6)
        values = np.sort(rng.uniform_block(4 * 10).reshape(4, 10), axis=1)[:, ::-1]
        budgets = allocate_budgets(values.copy(), (0.9,))[0]
        assert budgets.sum() == 4  # floor(0.1 * 40)
        assert budgets.dtype == np.int64

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 64))
    def test_matches_bruteforce_oracle(self, seed, layers, n):
        rng = SeededRng(seed)
        rows = np.sort(rng.uniform_block(layers * n).reshape(layers, n), axis=1)[:, ::-1]
        grid_budgets = allocate_budgets(rows.copy(), RATIO_GRID)
        assert grid_budgets.shape == (len(RATIO_GRID), layers)
        for r, budgets in zip(RATIO_GRID, grid_budgets):
            assert budgets.tolist() == allocation_oracle(rows, retention_budget(r, layers, n))
            assert budgets.sum() == retention_budget(r, layers, n)

    def test_one_ranking_serves_the_grid(self, monkeypatch):
        calls = count_calls(monkeypatch, composer, "argsort_desc")
        rows = np.sort(SeededRng(8).uniform_block(3 * 12).reshape(3, 12), axis=1)[:, ::-1]
        grid_budgets = allocate_budgets(rows.copy(), RATIO_GRID)
        assert len(calls) == 1
        for r, budgets in zip(RATIO_GRID, grid_budgets):
            assert np.array_equal(budgets, allocate_budgets(rows.copy(), (r,))[0])

    def test_kept_slots_form_prefix(self):
        # non-increasing rows + tie rule imply the kept set is slots [0, N_l)
        rng = SeededRng(7)
        rows = np.sort(rng.uniform_block(3 * 12).reshape(3, 12), axis=1)[:, ::-1]
        budgets = allocate_budgets(rows.copy(), (0.6,))[0]
        pool = [(-rows[l, k], l, k) for l in range(3) for k in range(12)]
        pool.sort()
        kept = {(l, k) for _, l, k in pool[: retention_budget(0.6, 3, 12)]}
        for l in range(3):
            expected = {(l, k) for k in range(budgets[l])}
            assert {(a, b) for a, b in kept if a == l} == expected

    def test_invalid_ratio(self):
        with pytest.raises(UsageError):
            allocate_budgets(np.ones((1, 2)), (1.5,))

    def test_rejects_non_finite(self):
        with pytest.raises(UsageError, match="finite"):
            allocate_budgets(np.array([[1.0, np.nan], [2.0, 0.5]]), (0.5,))


class TestCompactCache:
    def test_r0_is_permutation_with_provenance(self, tiny_model):
        context = random_context(20, 8)
        base = prefill(tiny_model, context)
        s = final_scores(8, layers=2, heads=2, n=8)
        ci = composite_indices(s)
        budgets = allocate_budgets(layer_importance(ci, "avg"), (0.0,))[0]
        compressed = compact_cache(base.cache, ci, budgets)
        for layer in range(2):
            assert np.array_equal(compressed.provenance[layer], ci.idx[layer])
            for h in range(2):
                perm = ci.idx[layer, h]
                assert np.array_equal(
                    compressed.keys[layer][h], base.cache.keys[layer][h][perm]
                )

    def test_single_slot_keeps_top_token(self, tiny_model):
        context = random_context(21, 6)
        base = prefill(tiny_model, context)
        s = final_scores(9, layers=2, heads=2, n=6)
        ci = composite_indices(s)
        compressed = compact_cache(base.cache, ci, np.array([1, 1]))
        for layer in range(2):
            assert compressed.rows(layer) == 1
            for h in range(2):
                top = ci.idx[layer, h, 0]
                assert np.array_equal(
                    compressed.keys[layer][h, 0], base.cache.keys[layer][h, top]
                )

    def test_gather_oracle_bit_equality(self, tiny_model):
        context = random_context(22, 10)
        base = prefill(tiny_model, context)
        s = final_scores(10, layers=2, heads=2, n=10)
        ci = composite_indices(s)
        budgets = allocate_budgets(layer_importance(ci, "avg"), (0.4,))[0]
        compressed = compact_cache(base.cache, ci, budgets)
        for layer in range(2):
            for h in range(2):
                for slot, original in enumerate(compressed.provenance[layer][h]):
                    assert np.array_equal(
                        compressed.keys[layer][h, slot],
                        base.cache.keys[layer][h, original],
                    )
                    assert np.array_equal(
                        compressed.values[layer][h, slot],
                        base.cache.values[layer][h, original],
                    )

    @pytest.mark.parametrize("name", ["streaming", "tova", "snapkv", "pyramid", "random"])
    def test_baseline_gather_oracle_bit_equality(self, tiny_model, name):
        context = random_context(26, 12)
        base = prefill(tiny_model, context)
        ts = TaskSet(mode="task-agnostic", observation_window=4)
        for r in (0.25, 0.6):
            compressed, _ = compress(
                tiny_model, context, ts, AggregationChoice(), r, Policy(name=name)
            )
            for layer in range(2):
                for h in range(2):
                    rows = compressed.provenance[layer][h]
                    assert np.array_equal(
                        compressed.keys[layer][h], base.cache.keys[layer][h, rows]
                    )
                    assert np.array_equal(
                        compressed.values[layer][h], base.cache.values[layer][h, rows]
                    )

    def test_rejects_compressed_input(self, tiny_model):
        context = random_context(23, 6)
        base = prefill(tiny_model, context)
        s = final_scores(11, layers=2, heads=2, n=6)
        ci = composite_indices(s)
        budgets = allocate_budgets(layer_importance(ci, "avg"), (0.5,))[0]
        once = compact_cache(base.cache, ci, budgets)
        with pytest.raises(UsageError):
            compact_cache(once, ci, budgets)

    def test_gather_rejects_compressed_input(self, tiny_model):
        base = prefill(tiny_model, random_context(24, 10))
        once = gather_cache(base.cache, [np.arange(5)] * 2)
        assert once.next_positions == [10, 10]
        with pytest.raises(UsageError, match="uncompressed"):
            gather_cache(once, [np.arange(3)] * 2)

    def test_gather_rejects_rows_past_the_cache(self, tiny_model):
        base = prefill(tiny_model, random_context(25, 10))
        with pytest.raises(UsageError, match="outside"):
            gather_cache(base.cache, [np.arange(5), np.array([0, 10])])
        with pytest.raises(UsageError, match="outside"):
            gather_cache(base.cache, [np.arange(5), np.array([-1, 2])])


class TestCompressPipeline:
    @pytest.mark.parametrize(
        "name", ["kvcompose", "streaming", "tova", "snapkv", "pyramid", "random"]
    )
    @pytest.mark.parametrize("mode", ["task-aware", "task-agnostic"])
    def test_reuse_gives_identical_cache(self, tiny_model, name, mode):
        # one grid call on one capture gathers, at each ratio, the cache a
        # fresh compress builds, and its keep-mask marks exactly those rows
        context = random_context(28, 16)
        if mode == "task-aware":
            ts = TaskSet(mode=mode, tasks=((5, 9, 2), (17,)))
        else:
            ts = TaskSet(mode=mode, observation_window=6)
        policy = Policy(name=name)
        cap = collect_attention(tiny_model, context, ts, head_mean=policy.reads_head_mean)
        grid = kept_rows(cap, AggregationChoice(), RATIO_GRID, policy)
        masks = keep_masks(cap, AggregationChoice(), RATIO_GRID, policy)
        assert len(grid) == len(RATIO_GRID) == len(masks)
        for r, rows, mask in zip(RATIO_GRID, grid, masks):
            reused = gather_cache(cap.cache, rows)
            fresh, fresh_report = compress(tiny_model, context, ts, AggregationChoice(), r, policy)
            for got, want in [
                (fresh.keys, reused.keys),
                (fresh.values, reused.values),
                (fresh.provenance, reused.provenance),
            ]:
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert fresh.next_positions == reused.next_positions
            assert fresh_report.layer_budgets == [reused.rows(l) for l in range(2)]
            marked = np.zeros_like(mask)
            for layer, kept in enumerate(fresh.provenance):
                np.put_along_axis(marked[layer], kept, True, axis=1)
            assert np.array_equal(mask, marked)

    def test_task_aware_compress_prefills_context_once(self, tiny_model, monkeypatch):
        from kvcompose import model

        calls = count_calls(monkeypatch, model, "prefill")
        context = random_context(30, 16)
        ts = TaskSet(mode="task-aware", tasks=((5, 9, 2), (17,)))
        compress(tiny_model, context, ts, AggregationChoice(), 0.5, Policy(name="kvcompose"))
        assert [tokens for _, tokens in calls] == [context]

    def test_task_aware_compress_peak_memory_below_one_attention_set(self):
        # the capture's prefill keeps no attention rows, so its traced peak
        # stays below what one full set of per-layer attention would take
        import tracemalloc

        from kvcompose.model import ModelConfig, init_model

        model = init_model(
            ModelConfig(
                layers=8, query_heads=4, kv_heads=2, model_dim=32, head_dim=8,
                vocab_size=64, seed=5,
            )
        )
        cfg, n = model.config, 256
        context = random_context(31, n)
        ts = TaskSet(mode="task-aware", tasks=((5, 9, 2, 7), (17, 3)))
        tracemalloc.start()
        try:
            compress(model, context, ts, AggregationChoice(), 0.5, Policy(name="kvcompose"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.layers * cfg.query_heads * n * n * 8, peak

    def test_r0_logit_fidelity(self, tiny_model):
        context = random_context(24, 12)
        ts = TaskSet(mode="task-agnostic", observation_window=6)
        cache, report = compress(
            tiny_model, context, ts, AggregationChoice(), 0.0, Policy(name="kvcompose")
        )
        assert report.r_achieved == 0.0
        full = prefill(tiny_model, context).cache
        for step, token in enumerate([3, 1, 4]):
            a = decode_step(tiny_model, full, token, 12 + step)
            b = decode_step(tiny_model, cache, token, 12 + step)
            assert np.abs(a.logits[0] - b.logits[0]).max() < 1e-5
            full, cache = a.cache, b.cache

    def test_entry_conservation(self, tiny_model):
        context = random_context(25, 16)
        ts = TaskSet(mode="task-agnostic", observation_window=8)
        for r in (0.0, 0.25, 0.5, 0.8):
            cache, report = compress(
                tiny_model, context, ts, AggregationChoice(), r, Policy(name="kvcompose")
            )
            total = sum(cache.rows(l) for l in range(2))
            assert total == report.budget_total == retention_budget(r, 2, 16)

    def test_structured_constraint_holds(self, tiny_model):
        context = random_context(26, 10)
        ts = TaskSet(mode="task-agnostic", observation_window=5)
        cache, _ = compress(
            tiny_model, context, ts, AggregationChoice(), 0.5, Policy(name="kvcompose")
        )
        for layer in range(2):
            k, v = cache.keys[layer], cache.values[layer]
            assert k.shape[0] == v.shape[0] == 2
            assert k.shape[1] == v.shape[1]

    def test_nestedness_across_ratios(self, tiny_model):
        context = random_context(27, 16)
        ts = TaskSet(mode="task-agnostic", observation_window=8)
        kept = {}
        budgets = {}
        for r in (0.8, 0.5, 0.25):
            cache, report = compress(
                tiny_model, context, ts, AggregationChoice(), r, Policy(name="kvcompose")
            )
            kept[r] = [
                {int(i) for i in cache.provenance[l][h]}
                for l in range(2)
                for h in range(2)
            ]
            budgets[r] = report.layer_budgets
        for tight, loose in [(0.8, 0.5), (0.5, 0.25)]:
            for small, big in zip(kept[tight], kept[loose]):
                assert small <= big
            assert all(a <= b for a, b in zip(budgets[tight], budgets[loose]))

    def test_single_kv_head_degenerates_to_top_n(self):
        # with one kv head, composite selection is plain per-layer top-N
        from kvcompose.model import ModelConfig, init_model

        model = init_model(
            ModelConfig(layers=2, query_heads=2, kv_heads=1, model_dim=16, head_dim=8, vocab_size=32, seed=3)
        )
        context = random_context(28, 12, vocab=32)
        ts = TaskSet(mode="task-agnostic", observation_window=6)
        from kvcompose.scoring import collect_attention, score_pipeline

        cap = collect_attention(model, context, ts)
        scores = score_pipeline(cap, 1, AggregationChoice())
        cache, report = compress(
            model, context, ts, AggregationChoice(), 0.5, Policy(name="kvcompose")
        )
        for layer in range(2):
            n_l = report.layer_budgets[layer]
            expected = set(np.argsort(-scores.values[layer, 0], kind="stable")[:n_l].tolist())
            assert {int(i) for i in cache.provenance[layer][0]} == expected

    def test_head_consensus_collapse(self, tiny_model):
        # identical per-head scores make every head retain the same tokens
        context = random_context(29, 10)
        base = prefill(tiny_model, context)
        row = SeededRng(12).uniform_block(10)
        values = np.stack([np.stack([row, row]), np.stack([row, row])])
        ci = composite_indices(ScoreTensor(STAGE_FINAL, values))
        budgets = allocate_budgets(layer_importance(ci, "avg"), (0.5,))[0]
        compressed = compact_cache(base.cache, ci, budgets)
        for layer in range(2):
            assert np.array_equal(
                compressed.provenance[layer][0], compressed.provenance[layer][1]
            )


class TestUnstructured:
    def test_r0_all_true_and_exact_logits(self, tiny_model):
        context = random_context(30, 8)
        masks = unstructured_compress(final_scores(13, n=8), (0.0,))
        assert masks.shape[0] == 1 and masks.all()
        full = prefill(tiny_model, context)
        a = decode_step(tiny_model, full.cache, 2, 8).logits[0]
        b = _forward(tiny_model, full.cache, np.asarray([2]), np.asarray([8]), masks).logits[0, 0]
        assert np.array_equal(a, b)

    def test_boundary_single_entry(self):
        s = final_scores(14, layers=2, heads=2, n=8)
        total = 2 * 2 * 8
        masks = unstructured_compress(s, (1.0 - 1.0 / total,))[0]
        assert masks.dtype == bool and masks.shape == (2, 2, 8)
        assert np.count_nonzero(masks) == 1
        winner = np.unravel_index(np.argmax(s.values), s.values.shape)
        assert masks[winner]

    def test_kept_set_matches_global_sort_oracle(self):
        s = final_scores(15, layers=3, heads=2, n=10)
        masks = unstructured_compress(s, (0.6,))[0]
        flat = s.values.reshape(-1)
        order = sorted(range(flat.size), key=lambda i: (-flat[i], i))
        expected = np.zeros(flat.size, dtype=bool)
        expected[order[: retention_budget(0.6, 3, 2, 10)]] = True
        assert np.array_equal(masks.reshape(-1), expected)

    def test_budget_counts_per_head_entries(self):
        s = final_scores(16, layers=2, heads=2, n=10)
        masks = unstructured_compress(s, (0.5,))[0]
        assert np.count_nonzero(masks) == 20  # floor(0.5 * 2 * 2 * 10)

    def test_grid_masks_match_oracle_and_nest(self, monkeypatch):
        calls = count_calls(monkeypatch, composer, "argsort_desc")
        s = final_scores(18, layers=3, heads=2, n=10)
        masks = unstructured_compress(s, RATIO_GRID)
        assert len(calls) == 1
        assert masks.dtype == bool and masks.shape == (len(RATIO_GRID), 3, 2, 10)
        flat = s.values.reshape(-1)
        order = sorted(range(flat.size), key=lambda i: (-flat[i], i))
        for r, mask in zip(RATIO_GRID, masks):
            expected = np.zeros(flat.size, dtype=bool)
            expected[order[: retention_budget(r, 3, 2, 10)]] = True
            assert np.array_equal(mask.reshape(-1), expected)
        assert not (masks[1:] & ~masks[:-1]).any()  # a higher ratio keeps a subset

    def test_rejects_non_finite(self):
        s = final_scores(17)
        s.values[1, 0, 3] = np.nan
        with pytest.raises(UsageError, match="finite"):
            unstructured_compress(s, (0.5,))
