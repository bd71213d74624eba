from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcompose
from kvcompose import composer
from kvcompose.baselines import POLICY_NAMES, Policy
from kvcompose.cli import ablation_grid, build_model, build_tasks, load_config
from kvcompose.composer import (
    allocate_budgets,
    compact_cache,
    composite_indices,
    compress,
    gather_cache,
    keep_masks,
    layer_importance,
    retention_budget,
    unstructured_compress,
)
from kvcompose.errors import UsageError
from kvcompose.evaluator import RATIO_GRID, prepare_task
from kvcompose.model import _forward, decode_step, prefill
from kvcompose.numerics import SeededRng, argsort_desc
from kvcompose.scoring import AggregationChoice, TaskSet, collect_attention, score_pipeline

from conftest import (
    allocation_oracle,
    kind_capture,
    baseline_rows,
    count_calls,
    count_prefills,
    mark_rows,
    random_context,
)


def final_scores(seed, layers=2, heads=2, n=8) -> np.ndarray:
    rng = SeededRng(seed)
    return rng.uniform_block(layers * heads * n).reshape(layers, heads, n)


class TestCompositeIndices:
    def test_hand_example(self):
        s = np.array([[[0.1, 0.9, 0.5]]])
        idx = composite_indices(s)
        assert idx.dtype == np.int64 and idx.shape == s.shape
        assert idx[0, 0].tolist() == [1, 2, 0]
        assert s[0, 0, idx[0, 0]].tolist() == [0.9, 0.5, 0.1]

    def test_constant_row_uses_tie_rule(self):
        idx = composite_indices(np.ones((1, 1, 5)))
        assert idx[0, 0].tolist() == [0, 1, 2, 3, 4]

    def test_random_rows_sorted_and_permutations(self):
        s = final_scores(3, layers=2, heads=2, n=8)
        idx = composite_indices(s)
        for layer in range(2):
            for h in range(2):
                row = s[layer, h, idx[layer, h]]
                assert all(row[i] >= row[i + 1] for i in range(7))
                assert sorted(idx[layer, h].tolist()) == list(range(8))

    def test_matches_per_head_argsort_oracle(self):
        # coarse values force ties, which must keep the lower index first
        values = np.round(final_scores(6, layers=3, heads=4, n=12) * 4) / 4
        idx = composite_indices(values)
        for layer in range(3):
            for h in range(4):
                assert np.array_equal(idx[layer, h], argsort_desc(values[layer, h]))

    def test_rejects_non_finite(self):
        values = np.zeros((1, 2, 3))
        values[0, 1, 2] = np.nan
        with pytest.raises(UsageError):
            composite_indices(values)


class TestLayerImportance:
    def test_single_head_identity(self):
        s = final_scores(4, heads=1)
        imp = layer_importance(s, composite_indices(s), "avg")
        assert np.array_equal(imp, -np.sort(-s[:, 0, :], axis=1))

    def test_two_head_average(self):
        s = np.array([[[0.4], [0.8]]])
        imp = layer_importance(s, composite_indices(s), "avg")
        assert abs(imp[0, 0] - 0.6) < 1e-12

    def test_rows_non_increasing_and_match_loop(self):
        s = final_scores(5, layers=3, heads=4, n=6)
        idx = composite_indices(s)
        for op in ("max", "avg"):
            imp = layer_importance(s, idx, op)
            for layer in range(3):
                row = imp[layer]
                assert all(row[i] >= row[i + 1] - 1e-15 for i in range(5))
                for k in range(6):
                    slot = np.array([s[layer, h, idx[layer, h, k]] for h in range(4)])
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

    def test_arms_are_ranked_apart(self):
        # every slot score of arm 0 beats every one of arm 1, and the arms prefer
        # different layers: one ranking pooled over both arms would give arm 1 nothing
        high = np.array([[9.0, 8.5, 8.0, 7.5], [7.0, 6.0, 5.0, 4.0]])
        low = np.array([[0.1, 0.05, 0.02, 0.01], [0.9, 0.8, 0.7, 0.6]])
        stacked = allocate_budgets(np.stack([high, low]), RATIO_GRID)
        assert stacked.shape == (2, len(RATIO_GRID), 2)
        per_arm = [allocate_budgets(a, RATIO_GRID) for a in (high, low)]
        assert np.array_equal(stacked, np.stack(per_arm))
        assert stacked[1].sum(axis=1).tolist() == [retention_budget(r, 2, 4) for r in RATIO_GRID]
        assert stacked[:, RATIO_GRID.index(0.5)].tolist() == [[4, 0], [0, 4]]

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
        idx = composite_indices(s)
        budgets = allocate_budgets(layer_importance(s, idx, "avg"), (0.0,))[0]
        compressed = compact_cache(base.cache, idx, budgets)
        for layer in range(2):
            assert np.array_equal(compressed.provenance[layer], idx[layer])
            for h in range(2):
                perm = idx[layer, h]
                assert np.array_equal(
                    compressed.keys[layer][h], base.cache.keys[layer][h][perm]
                )

    def test_single_slot_keeps_top_token(self, tiny_model):
        context = random_context(21, 6)
        base = prefill(tiny_model, context)
        s = final_scores(9, layers=2, heads=2, n=6)
        idx = composite_indices(s)
        compressed = compact_cache(base.cache, idx, np.array([1, 1]))
        for layer in range(2):
            assert compressed.rows(layer) == 1
            for h in range(2):
                top = idx[layer, h, 0]
                assert np.array_equal(
                    compressed.keys[layer][h, 0], base.cache.keys[layer][h, top]
                )

    def test_gather_oracle_bit_equality(self, tiny_model):
        context = random_context(22, 10)
        base = prefill(tiny_model, context)
        s = final_scores(10, layers=2, heads=2, n=10)
        idx = composite_indices(s)
        budgets = allocate_budgets(layer_importance(s, idx, "avg"), (0.4,))[0]
        compressed = compact_cache(base.cache, idx, budgets)
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
        idx = composite_indices(s)
        budgets = allocate_budgets(layer_importance(s, idx, "avg"), (0.5,))[0]
        once = compact_cache(base.cache, idx, budgets)
        with pytest.raises(UsageError):
            compact_cache(once, idx, budgets)

    def test_gather_rejects_compressed_input(self, tiny_model):
        base = prefill(tiny_model, random_context(24, 10))
        once = gather_cache(base.cache, [np.arange(5)] * 2)
        assert once.next_positions == [10, 10]
        with pytest.raises(UsageError, match="uncompressed"):
            gather_cache(once, [np.arange(3)] * 2)

    def test_empty_context_rejected(self, tiny_model):
        # the package API's one refusal of an empty context
        with pytest.raises(UsageError, match="^context must be non-empty$"):
            kvcompose.compress(
                tiny_model, [], TaskSet(mode="task-agnostic", observation_window=1),
                AggregationChoice(), 0.5, Policy(name="kvcompose"),
            )

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
        # the oracle's rows for the whole grid gather, at each ratio, the cache a
        # fresh compress builds, and one keep_masks call marks exactly those rows
        context = random_context(28, 16)
        if mode == "task-aware":
            ts = TaskSet(mode=mode, tasks=((5, 9, 2), (17,)))
        else:
            ts = TaskSet(mode=mode, observation_window=6)
        policy = Policy(name=name)
        cap = collect_attention(tiny_model, context, ts)
        grid = oracle_rows(cap, AggregationChoice(), RATIO_GRID, policy)
        masks = keep_masks(cap, [AggregationChoice()], RATIO_GRID, policy)[0]
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
        prefills = count_prefills(monkeypatch)
        context = random_context(30, 16)
        ts = TaskSet(mode="task-aware", tasks=((5, 9, 2), (17,)))
        compress(tiny_model, context, ts, AggregationChoice(), 0.5, Policy(name="kvcompose"))
        assert prefills == [context]

    @pytest.mark.parametrize("name", [p for p in POLICY_NAMES if p != "unstructured"])
    def test_only_kvcompose_compacts_through_compact_cache(self, tiny_model, monkeypatch, name):
        # kvcompose's compressed cache is compact_cache's result, from one call;
        # a baseline gathers its mask's rows and never calls it
        compacted, original = [], composer.compact_cache

        def recording(*args):
            compacted.append(original(*args))
            return compacted[-1]

        monkeypatch.setattr(composer, "compact_cache", recording)
        ts = TaskSet(mode="task-agnostic", observation_window=4)
        cache, _ = compress(
            tiny_model, random_context(31, 16), ts, AggregationChoice(), 0.5, Policy(name=name)
        )
        assert len(compacted) == (name == "kvcompose")
        assert all(c is cache for c in compacted)

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
            a = decode_step(tiny_model, full, token)
            b = decode_step(tiny_model, cache, token)
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

    @pytest.mark.parametrize("config", ["demo_agreement", "demo_recall"])
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_policy_nests_across_ratios(self, name, config):
        # each ratio's kept set holds the next ratio's, counted over every task's ratio
        # steps (16 x 8 on demo_agreement, 32 x 8 on demo_recall); snapkv alone breaks
        # it, on demo_recall, where its window shrinks to each ratio's smallest budget
        breaks = {("snapkv", "demo_recall"): 32}
        cfg = load_config(Path(__file__).parent.parent / "configs" / f"{config}.json")
        model, policy = build_model(cfg), Policy(name=name)
        mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
        broken = 0
        for task in build_tasks(cfg, model):
            cap = prepare_task(model, task, mode, window)
            kept = keep_masks(cap, [cfg.agg], tuple(cfg.grid), policy)[0]  # (G, L, H_kv, N)
            broken += np.count_nonzero((kept[1:] & ~kept[:-1]).any(axis=(1, 2, 3)))
        assert broken == breaks.get((name, config), 0)

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
            expected = set(np.argsort(-scores[layer, 0], kind="stable")[:n_l].tolist())
            assert {int(i) for i in cache.provenance[layer][0]} == expected

    def test_head_consensus_collapse(self, tiny_model):
        # identical per-head scores make every head retain the same tokens
        context = random_context(29, 10)
        base = prefill(tiny_model, context)
        row = SeededRng(12).uniform_block(10)
        values = np.stack([np.stack([row, row]), np.stack([row, row])])
        idx = composite_indices(values)
        budgets = allocate_budgets(layer_importance(values, idx, "avg"), (0.5,))[0]
        compressed = compact_cache(base.cache, idx, budgets)
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
        a = decode_step(tiny_model, full.cache, 2).logits[0]
        b = _forward(tiny_model, full.cache, np.asarray([2]), masks).logits[0, 0]
        assert np.array_equal(a, b)

    def test_boundary_single_entry(self):
        s = final_scores(14, layers=2, heads=2, n=8)
        total = 2 * 2 * 8
        masks = unstructured_compress(s, (1.0 - 1.0 / total,))[0]
        assert masks.dtype == bool and masks.shape == (2, 2, 8)
        assert np.count_nonzero(masks) == 1
        winner = np.unravel_index(np.argmax(s), s.shape)
        assert masks[winner]

    def test_kept_set_matches_global_sort_oracle(self):
        s = final_scores(15, layers=3, heads=2, n=10)
        masks = unstructured_compress(s, (0.6,))[0]
        flat = s.reshape(-1)
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
        flat = s.reshape(-1)
        order = sorted(range(flat.size), key=lambda i: (-flat[i], i))
        for r, mask in zip(RATIO_GRID, masks):
            expected = np.zeros(flat.size, dtype=bool)
            expected[order[: retention_budget(r, 3, 2, 10)]] = True
            assert np.array_equal(mask.reshape(-1), expected)
        assert not (masks[1:] & ~masks[:-1]).any()  # a higher ratio keeps a subset

    def test_rejects_non_finite(self):
        s = final_scores(17)
        s[1, 0, 3] = np.nan
        with pytest.raises(UsageError, match="finite"):
            unstructured_compress(s, (0.5,))

    def test_arms_are_ranked_apart(self):
        # every entry of arm 0 beats every entry of arm 1: one ranking pooled
        # over both arms would keep nothing of arm 1
        high, low = final_scores(19, layers=3, n=5) + 5.0, final_scores(20, layers=3, n=5)
        stacked = unstructured_compress(np.stack([high, low]), RATIO_GRID)
        assert stacked.shape == (2, len(RATIO_GRID), 3, 2, 5)
        per_arm = [unstructured_compress(s, RATIO_GRID) for s in (high, low)]
        assert np.array_equal(stacked, np.stack(per_arm))
        kept = np.count_nonzero(stacked[1], axis=(1, 2, 3))
        assert kept.tolist() == [retention_budget(r, 3, 2, 5) for r in RATIO_GRID]


def oracle_rows(cap, choice, grid, policy) -> list[list[np.ndarray]]:
    """One choice's kept rows per ratio and layer, built apart from the code
    under test: for kvcompose, prefixes of that choice's own slot order under its
    own budgets; else the baseline's rows from the row-returning oracles."""
    layers, kv_heads, n = cap.value_norms_raw.shape
    if policy.name != "kvcompose":
        return baseline_rows(cap, policy, [retention_budget(r, layers, n) for r in grid])
    s = score_pipeline(cap, kv_heads, choice)
    idx = composite_indices(s)
    budgets = allocate_budgets(layer_importance(s, idx, choice.agg_head), grid)
    return [[idx[l, :, :b] for l, b in enumerate(row)] for row in budgets]


def per_choice_masks(cap, choice, grid, policy) -> np.ndarray:
    """One choice's (G, L, H_kv, N) keep-masks as they were built before the
    arm stack: ``unstructured_compress`` on that choice's scores, else
    ``oracle_rows`` marked one (ratio, layer) at a time."""
    _, kv_heads, n = cap.value_norms_raw.shape
    if policy.name == "unstructured":
        return unstructured_compress(score_pipeline(cap, kv_heads, choice), grid)
    return mark_rows(oracle_rows(cap, choice, grid, policy), kv_heads, n)


class TestKeepMaskStack:
    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_equals_one_build_per_choice(self, gqa_model, kind, name):
        policy = Policy(name=name)
        cap = kind_capture(gqa_model, kind)
        stack = keep_masks(cap, ablation_grid(), RATIO_GRID, policy)
        oracle = np.stack([per_choice_masks(cap, c, RATIO_GRID, policy) for c in ablation_grid()])
        assert stack.dtype == bool and stack.shape == oracle.shape
        assert np.array_equal(stack, oracle)

    @pytest.mark.parametrize("choice", ablation_grid()[::7])
    def test_one_arm_marks_the_rows_compress_keeps(self, gqa_model, choice):
        context, ts = random_context(62, 32), TaskSet(mode="task-agnostic", observation_window=8)
        policy = Policy(name="kvcompose")
        masks = keep_masks(collect_attention(gqa_model, context, ts), [choice], RATIO_GRID, policy)
        assert masks.shape[0] == 1
        for r, mask in zip(RATIO_GRID, masks[0]):
            compressed, _ = compress(gqa_model, context, ts, choice, r, policy)
            marked = np.zeros_like(mask)
            for layer, kept in enumerate(compressed.provenance):
                np.put_along_axis(marked[layer], kept, True, axis=1)
            assert np.array_equal(mask, marked)

    def test_checks_every_arm_budget(self, gqa_model, monkeypatch):
        allocate = composer.allocate_budgets

        def one_short(importance, grid):
            budgets = allocate(importance, grid)
            budgets[-1, 0, 0] -= 1  # the last arm keeps one slot too few at r=0
            return budgets

        monkeypatch.setattr(composer, "allocate_budgets", one_short)
        cap = kind_capture(gqa_model, "agreement")
        with pytest.raises(UsageError, match="budgets are"):
            keep_masks(cap, ablation_grid(), RATIO_GRID, Policy(name="kvcompose"))

    @pytest.mark.parametrize("ties", [1, 3])
    def test_baseline_row_sets_must_match_the_grid(self, gqa_model, monkeypatch, ties):
        select = composer.select_baseline_indices

        def tied(cap, policy, budgets):
            # not a permutation: each head's top ``ties`` + 1 tokens share rank 0, so
            # every head of a layer keeps ``ties`` rows past its budget, alike
            return np.maximum(select(cap, policy, budgets) - ties, 0)

        monkeypatch.setattr(composer, "select_baseline_indices", tied)
        cap = kind_capture(gqa_model, "agreement")
        with pytest.raises(UsageError, match="budgets are"):
            keep_masks(cap, [AggregationChoice()], (0.25, 0.5), Policy(name="tova"))

    @pytest.mark.parametrize("entry", ["keep_masks", "compress"])
    @pytest.mark.parametrize("name", ["streaming", "tova", "snapkv", "pyramid", "random"])
    def test_every_head_of_a_layer_keeps_one_count(self, gqa_model, monkeypatch, name, entry):
        select = composer.select_baseline_indices

        def moved(cap, policy, budgets):
            # layer 0 moves a kept row from head 1 to head 0 and layer 1 one from
            # head 0 to head 1, so every layer's and every head's total still holds:
            # the source's first token is ranked past every budget, and the
            # destination's last ties its first
            rank = np.array(select(cap, policy, budgets))
            n = rank.shape[-1]
            for layer, (src, dst) in enumerate([(1, 0), (0, 1)]):
                first, last = rank[..., layer, src, :], rank[..., layer, dst, :]
                first[first == 0] = n
                last[last == n - 1] = 0
            return rank

        monkeypatch.setattr(composer, "select_baseline_indices", moved)
        policy = Policy(name=name)
        context, ts = random_context(61, 32), TaskSet(mode="task-agnostic", observation_window=8)
        with pytest.raises(UsageError, match="kv heads of a layer"):
            if entry == "keep_masks":
                cap = collect_attention(gqa_model, context, ts)
                keep_masks(cap, [AggregationChoice()], (0.5,), policy)
            else:  # without the check, each layer's per-head reshape would misassign rows
                compress(gqa_model, context, ts, AggregationChoice(), 0.5, policy)


class TestKvHeadSymmetry:
    # random draws its keys in head order, so swapping the heads moves its orders
    # onto other rows (49,024 of 147,456 entries on the demo's 16 tasks): left out
    @pytest.mark.parametrize(
        "name", ["kvcompose", "unstructured", "snapkv", "pyramid", "streaming", "tova"]
    )
    def test_swapping_kv_heads_swaps_their_masks(self, name):
        # kv heads 0 and 1 of the demo model traded together with their query
        # groups compute the same attention, up to a sum's order, so a policy
        # that scores each head by its own attention keeps the same rows, each
        # on the other head
        cfg = load_config(Path(__file__).parent.parent / "configs" / "demo_agreement.json")
        cfg = replace(cfg, tasks={**cfg.tasks, "count": 8})
        model = build_model(cfg)
        group = model.config.query_heads // model.config.kv_heads
        assert model.config.kv_heads == 2
        kv_order, q_order = [1, 0], [*range(group, 2 * group), *range(group)]
        swapped = replace(
            model, wq=model.wq[:, q_order], wk=model.wk[:, kv_order], wv=model.wv[:, kv_order],
            wo=model.wo[:, q_order],
        )
        policy, mode = Policy(name=name), cfg.scoring["mode"]
        window = cfg.scoring["observation_window"]
        for task in build_tasks(cfg, model):
            task = replace(task, cache=None, queries=None)  # each model runs its own prefill
            want, got = (
                keep_masks(
                    prepare_task(m, task, mode, window),
                    [cfg.agg], RATIO_GRID, policy,
                )
                for m in (model, swapped)
            )
            assert np.array_equal(got, want[..., kv_order, :]), task.id
