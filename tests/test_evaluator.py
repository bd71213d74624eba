from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kvcompose.baselines import POLICY_NAMES, Policy, select_baseline_indices
from kvcompose.composer import (
    allocate_budgets,
    compact_cache,
    composite_indices,
    compress,
    gather_cache,
    layer_importance,
    retention_budget,
    unstructured_compress,
)
from kvcompose.errors import UsageError
from kvcompose.evaluator import (
    RATIO_GRID,
    CurvePoint,
    TaskInstance,
    auc,
    build_report,
    epsilon,
    kv_entry_count,
    make_agreement_tasks,
    make_recall_tasks,
    max_ratio_under_tolerance,
    prepare_task,
    reward,
    sweep,
    sweep_prepared,
    _forced_steps,
    _reward_and_kl,
    _run_steps,
)
from kvcompose.model import (
    ModelConfig,
    construct_induction_model,
    decode_step,
    greedy_decode,
    init_model,
    prefill,
)
from kvcompose.numerics import SeededRng
from kvcompose.scoring import AggregationChoice, TaskSet, collect_attention, score_pipeline

from conftest import count_calls
from test_model import reference_forward


def point(r, eps=0.0, reward_mean=1.0):
    return CurvePoint(
        r_target=r,
        r_achieved=r,
        reward_mean=reward_mean,
        reward_std=0.0,
        epsilon=eps,
        kl_mean=0.0,
    )


class TestCompressionRatio:
    def test_paper_scale_entry_count(self):
        assert kv_entry_count(32, 8, 32000, 128) == 2_097_152_000


class TestReward:
    def test_full_cache_recall_is_one(self):
        model = construct_induction_model(8, 32)
        tasks = make_recall_tasks(8, 32, 10, seed=1)
        for task in tasks:
            base = prefill(model, list(task.prompt))
            assert reward(model, base.cache, task) == 1.0

    def test_r0_agreement_is_one(self, tiny_model):
        tasks = make_agreement_tasks(tiny_model, 3, 16, 6, seed=2)
        ts = TaskSet(mode="task-agnostic", observation_window=8)
        for task in tasks:
            cache, _ = compress(
                tiny_model, list(task.prompt), ts, AggregationChoice(), 0.0,
                Policy(name="kvcompose"),
            )
            assert reward(tiny_model, cache, task) == 1.0

    def test_compressed_recall_matches_lookup_oracle(self):
        model = construct_induction_model(8, 32)
        tasks = make_recall_tasks(8, 32, 16, seed=3)
        agg = AggregationChoice()
        for task in tasks:
            lookup = {task.prompt[i]: task.prompt[i + 1] for i in range(0, 16, 2)}
            ts = TaskSet(mode="task-aware", tasks=(task.query,))
            cache, _ = compress(
                model, list(task.prompt), ts, agg, 0.5, Policy(name="kvcompose")
            )
            from kvcompose.model import decode_step

            logits = decode_step(model, cache, task.query[0]).logits[0]
            predicted = int(np.argmax(logits))
            expected = 1.0 if predicted == lookup[task.query[0]] else 0.0
            assert reward(model, cache, task) == expected

    def test_task_validation(self):
        with pytest.raises(UsageError):
            TaskInstance(id="x", kind="recall", prompt=(), query=(1,), answer=(2,))
        with pytest.raises(UsageError):
            TaskInstance(id="x", kind="other", prompt=(1,), query=(1,), answer=(2,))


class TestEpsilon:
    def test_identical_rewards_give_zero(self):
        assert epsilon([1.0, 0.5, 0.25], [1.0, 0.5, 0.25]) == 0.0

    def test_hand_example(self):
        assert abs(epsilon([1.0, 1.0], [0.5, 1.0]) - 0.25) < 1e-12

    def test_matches_elementwise_oracle(self):
        rng = SeededRng(4)
        full = (rng.uniform_block(20) + 0.5).tolist()
        comp = rng.uniform_block(20).tolist()
        expected = float(np.mean([(f - c) / f for f, c in zip(full, comp)]))
        assert abs(epsilon(full, comp) - expected) < 1e-12

    def test_zero_full_reward_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            value = epsilon([0.0, 1.0], [0.3, 0.5])
        assert abs(value - 0.5) < 1e-12

    def test_all_excluded_returns_zero(self):
        with pytest.warns(UserWarning):
            assert epsilon([0.0], [0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            epsilon([1.0], [1.0, 1.0])

    def test_nonnegative_when_dominated(self):
        rng = SeededRng(5)
        full = (rng.uniform_block(10) + 0.5).tolist()
        comp = [f * 0.8 for f in full]
        assert epsilon(full, comp) >= 0.0


class TestAuc:
    def test_constant_curve_equals_constant(self):
        points = [point(r, reward_mean=0.37) for r in RATIO_GRID]
        assert abs(auc(points) - 0.37) < 1e-12

    def test_triangle(self):
        points = [point(0.0, reward_mean=1.0), point(1.0, reward_mean=0.0)]
        assert abs(auc(points) - 0.5) < 1e-12

    def test_matches_trapezoid_oracle(self):
        rng = SeededRng(6)
        rewards = rng.uniform_block(len(RATIO_GRID))
        points = [point(r, reward_mean=w) for r, w in zip(RATIO_GRID, rewards)]
        rs = np.asarray(RATIO_GRID)
        oracle = 0.0
        for i in range(len(rs) - 1):
            oracle += (rewards[i] + rewards[i + 1]) / 2 * (rs[i + 1] - rs[i])
        oracle /= rs[-1] - rs[0]
        assert abs(auc(points) - oracle) < 1e-12

    def test_needs_two_points(self):
        with pytest.raises(UsageError):
            auc([point(0.0)])


class TestMaxRatioUnderTolerance:
    def test_all_passing_returns_max(self):
        points = [point(r, eps=0.0) for r in RATIO_GRID]
        res = max_ratio_under_tolerance(points, 0.10)
        assert res.r_grid == 0.9
        assert res.r_interpolated == 0.9

    def test_hand_threshold_scan(self):
        eps = [0.0, 0.05, 0.15, 0.3]
        grid = [0.0, 0.25, 0.5, 0.75]
        points = [point(r, eps=e) for r, e in zip(grid, eps)]
        res = max_ratio_under_tolerance(points, 0.10)
        assert res.r_grid == 0.25
        # refinement: between (0.25, 0.05) and (0.5, 0.15)
        assert abs(res.r_interpolated - 0.375) < 1e-12

    def test_matches_linear_scan_oracle(self):
        rng = SeededRng(7)
        eps = np.sort(rng.uniform_block(9)) * 0.5
        eps[0] = 0.0
        points = [point(r, eps=e) for r, e in zip(RATIO_GRID, eps)]
        for tol in (0.05, 0.1, 0.2, 0.4):
            res = max_ratio_under_tolerance(points, tol)
            passing = [p.r_target for p in points if p.epsilon <= tol]
            assert res.r_grid == (max(passing) if passing else 0.0)

    def test_no_passing_point(self):
        points = [point(0.0, eps=0.5), point(0.5, eps=0.9)]
        res = max_ratio_under_tolerance(points, 0.10)
        assert res.r_grid == 0.0 and res.r_interpolated == 0.0

    def test_requires_r0(self):
        with pytest.raises(UsageError):
            max_ratio_under_tolerance([point(0.5)], 0.1)


class TestTasks:
    def test_recall_prompts_are_lookup_tables(self):
        tasks = make_recall_tasks(4, 16, 12, seed=8)
        for task in tasks:
            keys = task.prompt[0::2]
            values = task.prompt[1::2]
            assert len(set(keys)) == 4
            assert all(k < 8 for k in keys)
            assert all(8 <= v < 16 for v in values)
            lookup = dict(zip(keys, values))
            assert task.answer == (lookup[task.query[0]],)

    def test_agreement_reference_is_greedy_run(self, tiny_model):
        tasks = make_agreement_tasks(tiny_model, 2, 12, 5, seed=9)
        for task in tasks:
            run = prefill(tiny_model, list(task.prompt))
            start = int(np.argmax(run.logits[-1]))
            continuation = greedy_decode(tiny_model, run.cache, start, 5)
            assert task.answer == (start, *continuation)

    def test_agreement_tasks_peak_memory_below_one_attention_set(self):
        # building a task reads logits and the cache, not attention, so its
        # prefill keeps none and the traced peak stays below what one full
        # set of per-layer attention would take
        import tracemalloc

        model = init_model(
            ModelConfig(
                layers=8, query_heads=4, kv_heads=2, model_dim=32, head_dim=8,
                vocab_size=64, seed=5,
            )
        )
        cfg, n = model.config, 256
        tracemalloc.start()
        try:
            make_agreement_tasks(model, 1, n, 4, seed=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.layers * cfg.query_heads * n * n * 8, peak


class TestSweep:
    def test_single_point_grid(self):
        model = construct_induction_model(4, 16)
        tasks = make_recall_tasks(4, 16, 4, seed=10)
        points = sweep(
            model, tasks, Policy(name="kvcompose"), AggregationChoice(),
            grid=(0.0,), mode="task-aware",
        )
        assert len(points) == 1
        assert points[0].epsilon == 0.0
        assert points[0].reward_mean == 1.0

    def test_default_grid_has_nine_points(self):
        model = construct_induction_model(4, 16)
        tasks = make_recall_tasks(4, 16, 2, seed=11)
        points = sweep(
            model, tasks, Policy(name="kvcompose"), AggregationChoice(), mode="task-aware"
        )
        assert [p.r_target for p in points] == list(RATIO_GRID)

    def test_achieved_ratio_close_to_target(self, tiny_model):
        tasks = make_agreement_tasks(tiny_model, 2, 16, 4, seed=12)
        points = sweep(tiny_model, tasks, Policy(name="kvcompose"), AggregationChoice())
        slack = 1.0 / (2 * 16)
        for p in points:
            assert abs(p.r_achieved - p.r_target) <= slack

    def test_deterministic_reports(self, tiny_model):
        from kvcompose.cache_io import report_to_json

        tasks = make_agreement_tasks(tiny_model, 2, 12, 4, seed=13)
        reports = []
        for _ in range(2):
            points = sweep(
                tiny_model, tasks, Policy(name="streaming"), AggregationChoice(),
                grid=(0.0, 0.5),
            )
            reports.append(
                report_to_json(build_report(Policy(name="streaming"), points, seeds=[13]))
            )
        assert reports[0] == reports[1]

    def test_unsorted_grid_rejected(self, tiny_model):
        tasks = make_agreement_tasks(tiny_model, 1, 8, 2, seed=14)
        with pytest.raises(UsageError):
            sweep(tiny_model, tasks, Policy(name="kvcompose"), AggregationChoice(), grid=(0.5, 0.0))

    def test_unstructured_policy_sweeps(self, tiny_model):
        tasks = make_agreement_tasks(tiny_model, 2, 12, 4, seed=15)
        points = sweep(
            tiny_model, tasks, Policy(name="unstructured"), AggregationChoice(),
            grid=(0.0, 0.5),
        )
        assert points[0].reward_mean == 1.0  # all-true masks reproduce the run
        assert abs(points[1].r_achieved - 0.5) < 1e-9

    def test_one_reference_decode_per_task(self, tiny_model, monkeypatch):
        # one teacher-forced pass per task for the reference run and one
        # for the whole grid, each a single forward call
        from kvcompose import evaluator, model

        steps, grid = 4, (0.0, 0.5, 0.9)
        tasks = make_agreement_tasks(tiny_model, 3, 16, steps, seed=16)
        forwards = []

        def counting(*args, **kwargs):
            forwards.append(len(args[2]))
            return model._forward(*args, **kwargs)

        monkeypatch.setattr(evaluator, "_forward", counting)
        decodes = count_calls(monkeypatch, model, "decode_step")
        sweep(tiny_model, tasks, Policy(name="kvcompose"), AggregationChoice(), grid=grid)
        assert forwards == [steps] * (len(tasks) * 2)
        assert decodes == []

    @pytest.mark.parametrize("mode", ["task-aware", "task-agnostic"])
    def test_prepare_task_copies_no_cache(self, tiny_model, monkeypatch, mode):
        # the capture and the reference run both read the one prefill cache
        from kvcompose.model import KVCache

        def no_clone(self):
            raise AssertionError("a cache was cloned")

        task = make_agreement_tasks(tiny_model, 1, 16, 4, seed=20)[0]
        monkeypatch.setattr(KVCache, "clone", no_clone)
        state = prepare_task(tiny_model, task, mode, 8)
        assert state.capture.cache.next_positions == [16, 16]
        assert [state.capture.cache.rows(l) for l in range(2)] == [16, 16]
        assert state.full_reward == 1.0

    @pytest.mark.parametrize("config", ["demo_agreement.json", "demo_recall.json"])
    def test_r0_reproduces_the_reference_run(self, config):
        # at r=0 every policy keeps every row, and an all-true mask in the
        # grid call must give the reference run's logits bit for bit
        from kvcompose.cli import build_model, build_tasks, load_config

        cfg = load_config(Path(__file__).parent.parent / "configs" / config)
        model = build_model(cfg)
        mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
        # every policy sweeps these states, so they keep the head mean tova reads
        states = [prepare_task(model, t, mode, window, True) for t in build_tasks(cfg, model)]
        full_mean = float(np.mean([s.full_reward for s in states]))
        agg = AggregationChoice()
        for name in POLICY_NAMES:
            p0 = sweep_prepared(model, states, Policy(name=name), agg, RATIO_GRID)[0]
            assert (p0.r_target, p0.r_achieved) == (0.0, 0.0)
            assert (p0.reward_mean, p0.kl_mean) == (full_mean, 0.0), name

    def test_agreement_kl_is_nonnegative(self):
        from kvcompose.cli import build_model, build_tasks, load_config

        cfg = load_config(Path(__file__).parent.parent / "configs" / "demo_agreement.json")
        model = build_model(cfg)
        points = sweep(
            model, build_tasks(cfg, model), Policy(name="kvcompose"), cfg.agg,
            mode=cfg.scoring["mode"], observation_window=cfg.scoring["observation_window"],
        )
        assert all(p.kl_mean >= 0.0 for p in points)

    def test_non_monotone_curve_takes_largest_passing(self):
        eps = [0.0, 0.3, 0.05, 0.4]
        grid = [0.0, 0.25, 0.5, 0.75]
        points = [point(r, eps=e) for r, e in zip(grid, eps)]
        res = max_ratio_under_tolerance(points, 0.10)
        assert res.r_grid == 0.5


def stepwise_logits(model, cache, task, head_masks=None):
    """Oracle for ``_run_steps``: one step per teacher-forced input, by
    ``decode_step``, or under a single (L, H_kv, N) mask by the reference
    forward pass of ``test_model`` with M=1 at each step's position."""
    position = cache.next_position
    inputs, targets = _forced_steps(task)
    logits = []
    for i, tok in enumerate(inputs):
        if head_masks is None:
            run = decode_step(model, cache, tok)
            out, cache = run.logits, run.cache
        else:
            step = np.asarray([position + i])
            out, _, cache = reference_forward(model, cache, np.asarray([tok]), step, head_masks)
        logits.append(out[0])
    return logits[-len(targets) :]


class TestOnePassTeacherForcing:
    """``_run_steps`` runs every forced input in one forward pass; it must
    give the logits of feeding them one step at a time."""

    @staticmethod
    def assert_matches_stepwise(model, cache, task, head_masks=None):
        rows_before = [cache.rows(l) for l in range(model.config.layers)]
        if head_masks is None:
            got = _run_steps(model, cache, task, None)
        else:  # the mask runs as a G=1 stack
            got = _run_steps(model, cache, task, head_masks[None])[0]
        want = stepwise_logits(model, cache, task, head_masks)
        assert len(got) == len(want) == len(_forced_steps(task)[1])
        for a, b in zip(got, want):
            assert np.abs(a - b).max() < 1e-10
        assert [cache.rows(l) for l in range(model.config.layers)] == rows_before

    def test_full_cache(self, gqa_model):
        task = make_agreement_tasks(gqa_model, 1, 64, 8, seed=30)[0]
        self.assert_matches_stepwise(gqa_model, prefill(gqa_model, list(task.prompt)).cache, task)

    def test_ragged_kvcompose_cache(self, gqa_model):
        task = make_agreement_tasks(gqa_model, 1, 64, 8, seed=31)[0]
        ts = TaskSet(mode="task-agnostic", observation_window=16)
        cache, _ = compress(
            gqa_model, list(task.prompt), ts, AggregationChoice(), 0.7, Policy(name="kvcompose")
        )
        assert len({cache.rows(l) for l in range(gqa_model.config.layers)}) > 1
        self.assert_matches_stepwise(gqa_model, cache, task)

    def test_unstructured_head_masks(self, gqa_model):
        task = make_agreement_tasks(gqa_model, 1, 64, 8, seed=32)[0]
        cap = collect_attention(
            gqa_model, list(task.prompt), TaskSet(mode="task-agnostic", observation_window=16)
        )
        masks = unstructured_compress(score_pipeline(cap, 2, AggregationChoice()), (0.7,))[0]
        assert not masks.all()
        self.assert_matches_stepwise(gqa_model, cap.cache, task, head_masks=masks)

    def test_recall_task(self):
        model = construct_induction_model(8, 32)
        task = make_recall_tasks(8, 32, 1, seed=33)[0]
        ts = TaskSet(mode="task-aware", tasks=(task.query,))
        cache, _ = compress(
            model, list(task.prompt), ts, AggregationChoice(), 0.5, Policy(name="kvcompose")
        )
        self.assert_matches_stepwise(model, cache, task)


class TestStructuredConstraint:
    @pytest.mark.parametrize(
        "name", ["kvcompose", "streaming", "tova", "snapkv", "pyramid", "random"]
    )
    def test_every_policy_emits_uniform_per_layer_counts(self, tiny_model, name):
        from kvcompose.scoring import TaskSet

        prompt = [int(t) for t in np.arange(20) % 60]
        ts = TaskSet(mode="task-agnostic", observation_window=8)
        from kvcompose.scoring import AggregationChoice as Agg

        for r in (0.0, 0.4, 0.75):
            cache, _ = compress(
                tiny_model, prompt, ts, Agg(), r, Policy(name=name)
            )
            for layer in range(tiny_model.config.layers):
                k, v = cache.keys[layer], cache.values[layer]
                assert k.shape == v.shape
                assert k.shape[0] == tiny_model.config.kv_heads
                assert cache.provenance[layer].shape == k.shape[:2]


def list_replay(layer_rows: np.ndarray, budget: int) -> list[int]:
    """One layer's TOVA replay as a Python list, evicting the least-attended
    token at each step (ties: the first, lowest index): the per-layer form
    that the all-layer replay replaced."""
    kept: list[int] = []
    for m in range(layer_rows.shape[0]):
        kept.append(m)
        if len(kept) > budget:
            scores = layer_rows[m, kept]
            kept.pop(int(np.argmin(scores)))
    return kept


def reference_point(model, state, policy, agg_choice, r_target):
    """(r_achieved, reward, kl) of one task at one ratio, scoring afresh at
    every ratio and, for a cache policy, decoding on the compacted cache:
    the per-ratio evaluation that the grid of keep-masks replaced. tova
    selects by ``list_replay``, so the library's replay is not its own
    reference."""
    cfg = model.config
    cap = state.capture
    if policy.name == "unstructured":
        scores = score_pipeline(cap, cfg.kv_heads, agg_choice)
        masks = unstructured_compress(scores, (r_target,))  # a G=1 stack
        r_achieved = 1.0 - np.count_nonzero(masks) / (cfg.layers * cfg.kv_heads * cap.context_len)
        r, kl = _reward_and_kl(
            model, cap.cache, state.task, state.reference_logp, head_masks=masks
        )
        return r_achieved, r[0], kl[0]
    budget = retention_budget(r_target, cfg.layers, cap.context_len)
    if policy.name == "kvcompose":
        scores = score_pipeline(cap, cfg.kv_heads, agg_choice)
        idx = composite_indices(scores)
        importance = layer_importance(scores, idx, agg_choice.agg_head)
        budgets = allocate_budgets(importance, (r_target,))[0]
        cache = compact_cache(cap.cache, idx, budgets)
    elif policy.name == "tova":
        base, extra = divmod(budget, cfg.layers)  # the remainder goes to the earliest layers
        uniform = [base + (layer < extra) for layer in range(cfg.layers)]
        kept = [list_replay(rows, b) for rows, b in zip(cap.attention_mean, uniform)]
        cache = gather_cache(cap.cache, kept)
    else:
        cache = gather_cache(cap.cache, select_baseline_indices(cap, policy, (budget,))[0])
    total = sum(cache.rows(l) for l in range(cfg.layers))
    r, kl = _reward_and_kl(model, cache, state.task, state.reference_logp)
    return 1.0 - total / (cfg.layers * cap.context_len), r, kl


def reference_sweep(model, states, policy, agg_choice, grid):
    full_rewards = [s.full_reward for s in states]
    points = []
    for r_target in grid:
        results = [reference_point(model, s, policy, agg_choice, r_target) for s in states]
        achieved, rewards, kls = zip(*results)
        points.append(
            CurvePoint(
                r_target=float(r_target),
                r_achieved=float(np.mean(achieved)),
                reward_mean=float(np.mean(rewards)),
                reward_std=float(np.std(rewards)),
                epsilon=epsilon(full_rewards, list(rewards)),
                kl_mean=float(np.mean(kls)),
            )
        )
    return points


def assert_same_sweep(kind, got, want):
    """Recall points are equal exactly; agreement points too, except that a
    masked run sums in another order than a compacted one, so ``kl_mean``
    may move by at most 1e-12."""
    if kind == "recall":
        assert got == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert abs(a.kl_mean - b.kl_mean) <= 1e-12
        assert replace(a, kl_mean=0.0) == replace(b, kl_mean=0.0)


class TestGridOnce:
    @pytest.fixture(scope="class")
    def task_sets(self):
        agreement_model = init_model(
            ModelConfig(
                layers=4, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=64, seed=7
            )
        )
        tasks = make_agreement_tasks(agreement_model, 3, 24, 4, seed=17)
        recall_model = construct_induction_model(8, 32)
        recall = make_recall_tasks(8, 32, 4, seed=18)
        return {
            "agreement": (
                agreement_model,
                [prepare_task(agreement_model, t, "task-agnostic", 8, True) for t in tasks],
            ),
            "recall": (
                recall_model,
                [prepare_task(recall_model, t, "task-aware", 32, True) for t in recall],
            ),
        }

    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_equals_per_ratio_reference(self, task_sets, kind, name):
        model, states = task_sets[kind]
        policy, agg = Policy(name=name), AggregationChoice()
        got = sweep_prepared(model, states, policy, agg, RATIO_GRID)
        assert_same_sweep(kind, got, reference_sweep(model, states, policy, agg, RATIO_GRID))

    @pytest.mark.parametrize("name", ["kvcompose", "unstructured"])
    def test_scores_once_per_task(self, tiny_model, name, monkeypatch):
        from kvcompose import scoring

        tasks = make_agreement_tasks(tiny_model, 3, 16, 4, seed=19)
        states = [prepare_task(tiny_model, t, "task-agnostic", 8) for t in tasks]
        calls = count_calls(monkeypatch, scoring, "score_pipeline")
        sweep_prepared(tiny_model, states, Policy(name=name), AggregationChoice(), RATIO_GRID)
        assert len(RATIO_GRID) == 9
        assert len(calls) == len(states)
