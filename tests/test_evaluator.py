from dataclasses import replace
from pathlib import Path
import json
import sys
import weakref

import numpy as np
import pytest

from kvcompose.baselines import POLICY_NAMES, Policy
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
from kvcompose.evaluator import (
    RATIO_GRID,
    TASK_BLOCK,
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
    sweep,
    sweep_arms,
    _forced_steps,
    _reward_and_kl,
    _run_steps,
)
from kvcompose.model import (
    ModelConfig,
    construct_induction_model,
    decode_step,
    greedy_decode,
    induction_value_range,
    init_model,
    prefill,
)
from kvcompose.numerics import SeededRng
from kvcompose.scoring import (
    AggregationChoice,
    TaskSet,
    collect_attention,
    score_pipeline,
)

from conftest import (
    agreement_tasks_oracle,
    baseline_rows,
    count_calls,
    full_cache_reference,
    head_mean_oracle,
    plain_logits,
    reward,
    selector_read,
    tova_oracle,
)
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

    def test_stack_equals_the_per_point_mean_bit_for_bit(self):
        # the (…, T) form of the rule: each point's mean of the included tasks' terms
        rng = SeededRng(6)
        full = rng.uniform_block(7) + 0.5
        full[[1, 4]] = 0.0
        comp = rng.uniform_block(3 * 5 * 7).reshape(3, 5, 7)
        with pytest.warns(UserWarning, match="skipped 2 task"):
            got = epsilon(full, comp)
        want = [
            [float(np.mean([(f - c) / f for f, c in zip(full, row) if f != 0.0])) for row in rows]
            for rows in comp
        ]
        assert got.shape == (3, 5) and got.tolist() == want

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

    @pytest.mark.parametrize("count, block", [(0, 2), (1, 2), (5, 2), (TASK_BLOCK + 1, TASK_BLOCK)])
    def test_agreement_tasks_equal_the_per_task_oracle(self, tiny_model, monkeypatch, count, block):
        # the lockstep blocks (of 2, 2 and 1 tasks at a block of 2) give every
        # task's prompt, start and continuation of one chain per task
        from kvcompose import evaluator

        monkeypatch.setattr(evaluator, "TASK_BLOCK", block)
        got = make_agreement_tasks(tiny_model, count, 6, 4, seed=31)
        assert got == agreement_tasks_oracle(tiny_model, count, 6, 4, seed=31)
        assert len(got) == count

    def test_agreement_tasks_carry_their_prefill_caches(self, tiny_model, monkeypatch):
        # each task, across lockstep blocks of 2, 2 and 1, carries its own prompt's
        # prefill cache and queries bit for bit; a recall task has neither
        from kvcompose import evaluator

        monkeypatch.setattr(evaluator, "TASK_BLOCK", 2)
        for task in make_agreement_tasks(tiny_model, 5, 6, 4, seed=31):
            run = prefill(tiny_model, list(task.prompt))
            want = run.cache
            assert task.cache.next_positions == want.next_positions
            for got, exp in zip(
                task.cache.keys + task.cache.values + task.queries,
                want.keys + want.values + run.queries, strict=True,
            ):
                assert got.shape == exp.shape and got.tobytes() == exp.tobytes()
        recall = make_recall_tasks(4, 16, 2, seed=8)
        assert [(t.cache, t.queries) for t in recall] == [(None, None)] * 2

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="an interpreter before 3.11 holds a call's arguments"
    )
    def test_lockstep_stack_dies_at_the_first_decode_step(self, tiny_model, monkeypatch):
        # the stacked (T, H_kv, N, d_h) copy of a block's caches is only
        # greedy_decode's argument: once the first step has grown the next
        # stack, nothing holds it beside the tasks' own caches
        import weakref

        from kvcompose import evaluator, model

        stacks, alive, greedy, step = [], [], model.greedy_decode, model.decode_step

        def watching(model_, cache, start, steps):  # hands the stack on, holding none of it
            stacks.append(weakref.ref(cache.keys[0]))
            held = [cache]
            del cache
            return greedy(model_, held.pop(), start, steps)

        def stepping(model_, cache, token):
            alive.append(stacks[-1]() is not None)
            return step(model_, cache, token)

        monkeypatch.setattr(evaluator, "greedy_decode", watching)
        monkeypatch.setattr(model, "decode_step", stepping)
        make_agreement_tasks(tiny_model, 3, 12, 4, seed=5)
        assert alive == [True, False, False, False]

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
        from kvcompose.cache_io import json_text

        tasks = make_agreement_tasks(tiny_model, 2, 12, 4, seed=13)
        reports = []
        for _ in range(2):
            points = sweep(
                tiny_model, tasks, Policy(name="streaming"), AggregationChoice(),
                grid=(0.0, 0.5),
            )
            reports.append(
                json_text(build_report(Policy(name="streaming"), points, seeds=[13]))
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

    def test_one_forward_call_per_task(self, tiny_model, monkeypatch):
        # preparing a task runs no teacher-forced pass, and the grid's distinct
        # masks, the all-kept reference row among them, run in one forward call
        from kvcompose import evaluator, model

        steps, grid = 4, (0.0, 0.5, 0.9)
        tasks = make_agreement_tasks(tiny_model, 3, 16, steps, seed=16)
        runs = count_calls(monkeypatch, evaluator, "_run_steps")
        for task in tasks:
            prepare_task(tiny_model, task, "task-agnostic", 8)
        assert runs == []
        forwards = []

        def counting(*args, **kwargs):
            forwards.append(len(args[2]))
            return model._forward(*args, **kwargs)

        monkeypatch.setattr(evaluator, "_forward", counting)
        decodes = count_calls(monkeypatch, model, "decode_step")
        sweep(tiny_model, tasks, Policy(name="kvcompose"), AggregationChoice(), grid=grid)
        assert forwards == [steps] * len(tasks)
        assert decodes == []

    def test_task_caches_move_no_curve_point(self):
        # a sweep whose captures score each task's own prefill gives every
        # policy the points of one whose captures prefill again
        from kvcompose.cli import build_model, build_tasks, load_config

        cfg = load_config(Path(__file__).parent.parent / "configs" / "demo_agreement.json")
        model = build_model(cfg)
        tasks = build_tasks(cfg, model)
        bare = [replace(t, cache=None, queries=None) for t in tasks]
        assert all(t.cache is not None and t.queries is not None for t in tasks) and bare == tasks
        mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
        for name in POLICY_NAMES:
            got, want = (
                sweep(model, given, Policy(name=name), cfg.agg, tuple(cfg.grid), mode, window)
                for given in (tasks, bare)
            )
            assert got == want, name

    @pytest.mark.parametrize("mode", ["task-aware", "task-agnostic"])
    def test_prepare_task_copies_no_cache(self, tiny_model, monkeypatch, mode):
        # the capture reads and keeps the one prefill cache; task-aware
        # scoring reads a query, which only a recall task has
        from kvcompose.model import KVCache

        def no_clone(self):
            raise AssertionError("a cache was cloned")

        if mode == "task-aware":
            model, task = construct_induction_model(8, 32), make_recall_tasks(8, 32, 1, seed=20)[0]
        else:
            model, task = tiny_model, make_agreement_tasks(tiny_model, 1, 16, 4, seed=20)[0]
        monkeypatch.setattr(KVCache, "clone", no_clone)
        capture = prepare_task(model, task, mode, 8)
        layers = model.config.layers
        assert capture.cache.next_positions == [16] * layers
        assert [capture.cache.rows(l) for l in range(layers)] == [16] * layers

    @pytest.mark.parametrize("name", ["kvcompose", "streaming"])
    def test_no_aggregation_choice_rejected(self, tiny_model, name):
        task = make_agreement_tasks(tiny_model, 1, 16, 4, seed=20)[0]
        captures = [prepare_task(tiny_model, task, "task-agnostic", 8)]
        with pytest.raises(UsageError, match="one aggregation choice"):
            sweep_arms(tiny_model, [task], captures, Policy(name=name), [], RATIO_GRID)

    def test_unequal_task_and_capture_lists_rejected(self, tiny_model):
        # each task is scored on its own capture: a list or a stream one short pairs no
        # task with it, and one capture too many is refused too
        tasks = make_agreement_tasks(tiny_model, 2, 16, 4, seed=20)
        captures = [prepare_task(tiny_model, t, "task-agnostic", 8) for t in tasks]
        streams = [(c for c in captures[:1]), (c for c in captures + captures[:1])]
        for given in (captures[:1], captures + captures[:1], *streams):
            with pytest.raises(UsageError, match="a capture for each"):
                sweep_arms(tiny_model, tasks, given, Policy(name="kvcompose"), [AggregationChoice()], RATIO_GRID)

    def test_task_aware_agreement_refused(self, tiny_model):
        # an agreement task has no query before its answer, so nothing to score on
        task = make_agreement_tasks(tiny_model, 1, 16, 4, seed=20)[0]
        with pytest.raises(UsageError, match="task-aware mode needs"):
            prepare_task(tiny_model, task, "task-aware", 8)

    @pytest.mark.parametrize("config", ["demo_agreement.json", "demo_recall.json"])
    def test_full_cache_row_equals_the_plain_path(self, config, monkeypatch):
        # row 0 of each task's stack keeps every row: the full-cache rewards and
        # reference log-probabilities must be the plain unmasked run's bit for
        # bit, also on a grid without r=0, where no grid mask dedupes with row 0
        from kvcompose import evaluator
        from kvcompose.cli import build_model, build_tasks, load_config

        cfg = load_config(Path(__file__).parent.parent / "configs" / config)
        model = build_model(cfg)
        mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
        # every policy sweeps the one capture list of the tasks
        tasks = build_tasks(cfg, model)
        captures = [prepare_task(model, t, mode, window) for t in tasks]
        full_rewards, reference_logps = zip(
            *(full_cache_reference(model, t, c) for t, c in zip(tasks, captures))
        )
        epsilons = count_calls(monkeypatch, evaluator, "epsilon")
        scored = count_calls(monkeypatch, evaluator, "_reward_and_kl")
        agg = AggregationChoice()
        for name in POLICY_NAMES:
            curves = {}
            for grid in (RATIO_GRID, (0.5, 0.9)):
                epsilons.clear()
                scored.clear()
                curves[grid] = sweep_arms(model, tasks, captures, Policy(name=name), [agg], grid)[0]
                assert [tuple(args[0]) for args in epsilons] == [full_rewards], (name, grid)
                assert len(scored) == len(tasks)
                for (_, logp, _), want in zip(scored, reference_logps):
                    assert np.array_equal(logp, want), (name, grid)
            p0 = curves[RATIO_GRID][0]
            assert (p0.r_target, p0.r_achieved, p0.epsilon) == (0.0, 0.0, 0.0), name
            assert (p0.reward_mean, p0.kl_mean) == (float(np.mean(full_rewards)), 0.0), name
            # a point does not depend on the other ratios of its grid
            at = [RATIO_GRID.index(r) for r in (0.5, 0.9)]
            assert curves[(0.5, 0.9)] == [curves[RATIO_GRID][i] for i in at], name

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
        if head_masks is None:  # an all-kept mask over the fewest rows a layer holds
            fewest = min(rows_before)
            masks = np.ones((1, model.config.layers, model.config.kv_heads, fewest), dtype=bool)
            got = _run_steps(model, cache, task, masks)[0]
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


def reference_point(model, task, cap, reference_logp, policy, agg_choice, r_target):
    """(r_achieved, reward, kl) of one task at one ratio, scoring afresh at
    every ratio and, for a cache policy, decoding on the compacted cache:
    the per-ratio evaluation that the grid of keep-masks replaced. tova
    selects by ``tova_oracle``, so the library's replay is not its own
    reference."""
    cfg = model.config
    if policy.name == "unstructured":
        scores = score_pipeline(cap, cfg.kv_heads, agg_choice)
        masks = unstructured_compress(scores, (r_target,))  # a G=1 stack
        r_achieved = 1.0 - np.count_nonzero(masks) / (cfg.layers * cfg.kv_heads * cap.context_len)
        logits = _run_steps(model, cap.cache, task, masks)
        r, kl = _reward_and_kl(logits, reference_logp, task)
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
        means = head_mean_oracle(cap.queries, cap.cache.keys)
        kept = [tova_oracle(rows, b) for rows, b in zip(means, uniform)]
        cache = gather_cache(cap.cache, kept)
    else:
        cache = gather_cache(cap.cache, baseline_rows(cap, policy, (budget,))[0])
    total = sum(cache.rows(l) for l in range(cfg.layers))
    r, kl = _reward_and_kl(plain_logits(model, cache, task), reference_logp, task)
    return 1.0 - total / (cfg.layers * cap.context_len), r, kl


def reference_sweep(model, tasks, captures, policy, agg_choice, grid):
    """The curve of ``reference_point``s, against each task's full-cache
    reference by the plain unmasked run."""
    pairs = zip(tasks, captures)
    full_rewards, reference_logps = zip(*(full_cache_reference(model, *p) for p in pairs))
    points = []
    for r_target in grid:
        results = [
            reference_point(model, t, c, logp, policy, agg_choice, r_target)
            for t, c, logp in zip(tasks, captures, reference_logps)
        ]
        achieved, rewards, kls = zip(*results)
        points.append(
            CurvePoint(
                r_target=float(r_target),
                r_achieved=float(np.mean(achieved)),
                reward_mean=float(np.mean(rewards)),
                reward_std=float(np.std(rewards)),
                epsilon=epsilon(list(full_rewards), list(rewards)),
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


class TestOneCaptureList:
    @pytest.mark.parametrize("config", ["demo_agreement.json", "demo_recall.json"])
    def test_serves_every_policy_as_its_own_sweep(self, config):
        # one capture list per task set: each policy's report from it is byte for
        # byte that of its standalone sweep, whichever policies read it before
        from kvcompose.cache_io import json_text
        from kvcompose.cli import build_model, build_tasks, load_config

        cfg = load_config(Path(__file__).parent.parent / "configs" / config)
        model = build_model(cfg)
        tasks, grid = build_tasks(cfg, model), tuple(cfg.grid)
        mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
        captures = [prepare_task(model, t, mode, window) for t in tasks]
        seeds = [model.config.seed, cfg.tasks["seed"]]
        for name in POLICY_NAMES:
            policy = Policy(name=name)
            shared = sweep_arms(model, tasks, captures, policy, [cfg.agg], grid)[0]
            alone = sweep(model, tasks, policy, cfg.agg, grid, mode, window)
            got, want = (json_text(build_report(policy, p, seeds)) for p in (shared, alone))
            assert got == want, name


class TestOneCaptureAtATime:
    # sweep and ablate build each task's capture as they reach it, so a capture and
    # the window rows it computed are freed before the next task's is built
    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    def test_one_capture_alive_at_each_evaluation(self, tmp_path, command, monkeypatch):
        from kvcompose import cli, evaluator

        demo = Path(__file__).parent.parent / "configs" / "demo_agreement.json"
        config = json.loads(demo.read_text())
        config.update(policy={"name": "kvcompose"}, out_dir=str(tmp_path / "out"))
        path = tmp_path / "kvcompose.json"
        path.write_text(json.dumps(config))
        made, alive = [], []
        evaluate = evaluator._evaluate_task

        def tracked(*args):
            capture = prepare_task(*args)
            made.append(weakref.ref(capture))
            return capture

        def counted(*args):
            alive.append(sum(ref() is not None for ref in made))
            return evaluate(*args)

        monkeypatch.setattr(evaluator, "prepare_task", tracked)
        monkeypatch.setattr(cli, "prepare_task", tracked)
        monkeypatch.setattr(evaluator, "_evaluate_task", counted)
        assert cli.main([command, "--config", str(path), "--grid", "0,0.5"]) == 0
        assert len(made) == len(alive) == 16 and max(alive) == 1, alive


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
        return {  # kind -> (model, tasks, captures)
            kind: (model, given, [prepare_task(model, t, mode, window) for t in given])
            for kind, model, given, mode, window in [
                ("agreement", agreement_model, tasks, "task-agnostic", 8),
                ("recall", recall_model, recall, "task-aware", 32),
            ]
        }

    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_equals_per_ratio_reference(self, task_sets, kind, name):
        policy, agg = Policy(name=name), AggregationChoice()
        model, tasks, captures = task_sets[kind]
        got = sweep_arms(model, tasks, captures, policy, [agg], RATIO_GRID)[0]
        want = reference_sweep(model, tasks, captures, policy, agg, RATIO_GRID)
        assert_same_sweep(kind, got, want)

    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_arms_equal_one_sweep_per_choice(self, task_sets, kind, name):
        policy = Policy(name=name)
        model, tasks, captures = task_sets[kind]
        choices = [
            AggregationChoice(),
            AggregationChoice(agg_task="avg", norm_variant="vo-norm"),
            AggregationChoice(),  # a repeated choice repeats every mask
            AggregationChoice(agg_group="max", agg_head="max", mean_augment=False),
            AggregationChoice(agg_task="avg", norm_variant="vo-norm"),
        ]
        got = sweep_arms(model, tasks, captures, policy, choices, RATIO_GRID)
        want = [sweep_arms(model, tasks, captures, policy, [c], RATIO_GRID)[0] for c in choices]
        assert got == want

    @pytest.mark.parametrize("name", ["kvcompose", "unstructured"])
    def test_scores_once_per_task(self, tiny_model, name, monkeypatch):
        from kvcompose import scoring

        tasks = make_agreement_tasks(tiny_model, 3, 16, 4, seed=19)
        captures = [prepare_task(tiny_model, t, "task-agnostic", 8) for t in tasks]
        calls = count_calls(monkeypatch, scoring, "score_pipeline")
        policy = Policy(name=name)
        sweep_arms(tiny_model, tasks, captures, policy, [AggregationChoice()], RATIO_GRID)
        assert len(RATIO_GRID) == 9
        assert len(calls) == len(tasks)


class TestZeroFullReward:
    """A task whose full cache already misses its answer is left out of every
    point's epsilon, with a warning; no demo config has one."""

    @pytest.fixture(scope="class")
    def recall(self):
        model = construct_induction_model(8, 32)
        tasks = make_recall_tasks(8, 32, 4, seed=23)
        value = tasks[0].answer[0]
        wrong = next(v for v in induction_value_range(32) if v != value)
        tasks[0] = replace(tasks[0], answer=(wrong,))
        captures = [prepare_task(model, t, "task-aware", 32) for t in tasks]
        full = [full_cache_reference(model, t, c)[0] for t, c in zip(tasks, captures)]
        assert full == [0.0, 1.0, 1.0, 1.0]
        return model, tasks, captures

    @pytest.mark.parametrize("name", ["kvcompose", "streaming"])
    def test_equals_reference_and_warns(self, recall, name):
        model, tasks, captures = recall
        policy = Policy(name=name)
        choices = [AggregationChoice(), AggregationChoice(agg_task="avg", mean_augment=False)]
        with pytest.warns(UserWarning, match="skipped 1 task"):
            got = sweep_arms(model, tasks, captures, policy, choices, RATIO_GRID)
        with pytest.warns(UserWarning, match="skipped 1 task"):
            want = [
                reference_sweep(model, tasks, captures, policy, c, RATIO_GRID) for c in choices
            ]
        assert got == want

    def test_every_task_excluded_reads_zero(self, recall):
        model, tasks, captures = recall
        policy, choices = Policy(name="kvcompose"), [AggregationChoice()]
        with pytest.warns(UserWarning, match="skipped 1 task"):
            points = sweep_arms(model, tasks[:1], captures[:1], policy, choices, RATIO_GRID)[0]
        assert [p.epsilon for p in points] == [0.0] * len(RATIO_GRID)
        assert all(type(p.epsilon) is float for p in points)


class TestLeanCaptures:
    """A capture computes only what its policy's selector reads: a streaming,
    random or tova sweep computes no attention row and no projected norm, so
    a task-aware one runs no task pass, yet each keeps the masks it would keep
    on a capture whose rows and norms were read."""

    @pytest.fixture(scope="class")
    def demo(self):
        from kvcompose.cli import build_model, build_tasks, load_config

        out = {}
        for kind in ("agreement", "recall"):
            cfg = load_config(Path(__file__).parent.parent / "configs" / f"demo_{kind}.json")
            cfg = replace(cfg, tasks={**cfg.tasks, "count": 1})
            model = build_model(cfg)
            out[kind] = model, build_tasks(cfg, model)[0], cfg.scoring["observation_window"]
        return out

    @pytest.mark.parametrize("mode", ["task-agnostic", "task-aware"])
    @pytest.mark.parametrize("kind", ["agreement", "recall"])
    @pytest.mark.parametrize("name", ["streaming", "tova", "random"])
    def test_holds_no_rows_and_keeps_the_same_masks(self, demo, monkeypatch, name, kind, mode):
        from kvcompose import model as kvmodel

        model, task, window = demo[kind]
        policy, choice = Policy(name=name), [AggregationChoice()]
        if kind == "agreement" and mode == "task-aware":  # no query: refused
            with pytest.raises(UsageError, match="non-empty task"):
                prepare_task(model, task, mode, window)
            return
        stacks = count_calls(  # task passes: the only (T, M) token stacks a sweep runs
            monkeypatch, kvmodel, "_forward",
            lambda model, cache, tokens, *rest: tokens.shape if tokens.ndim == 2 else None,
        )
        lean = prepare_task(model, task, mode, window)
        sweep_arms(model, [task], [lean], policy, choice, RATIO_GRID)
        assert stacks == []
        assert [attr for attr in ("A", "value_norms_proj") if attr in vars(lean)] == []
        full = prepare_task(model, task, mode, window)
        full.A, full.value_norms_proj
        assert len(stacks) == (mode == "task-aware")  # the positive control
        got, want = (keep_masks(cap, choice, RATIO_GRID, policy) for cap in (lean, full))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert "A" not in vars(lean)

    @pytest.mark.parametrize("reads", ["rows", "head-mean", "none"])
    def test_checks_hold_whatever_is_read(self, tiny_model, reads):
        # a capture refuses, before anything reads it, the tasks a task pass would refuse
        too_wide = TaskSet("task-agnostic", observation_window=5)
        with pytest.raises(UsageError, match="observation_window 5 exceeds context length 2"):
            collect_attention(tiny_model, [1, 2], too_wide)
        vocab, limit = tiny_model.config.vocab_size, tiny_model.config.max_context
        for tasks, error in [
            (((1,), (vocab,)), rf"token ids must lie in \[0, {vocab}\), got range \[{vocab}, {vocab}\]"),
            (((1,), (-1, 2)), r"got range \[-1, 2\]"),
            (((1,), (1,) * (limit - 1)), rf"positions 2 to {limit} leave \[0, max_context {limit}\)"),
        ]:
            with pytest.raises(UsageError, match=error):
                collect_attention(tiny_model, [1, 2], TaskSet("task-aware", tasks))
        cap = collect_attention(tiny_model, [1, 2], TaskSet("task-aware", ((1,) * (limit - 2),)))
        selector_read(cap, reads)

    def test_tova_sweep_peaks_no_higher_than_kvcompose(self):
        # tracemalloc peaks above set-up of demo_agreement.json's sweeps (16
        # tasks, N=128): tova rebuilds its head means a row block at a time and
        # computes no window rows, so peaks no higher than kvcompose, which
        # computes them; streaming computes neither. A sweep holds one capture at a
        # time, so kvcompose's rows add less than two captures' worth to the peak
        import tracemalloc

        from kvcompose.cli import build_model, build_tasks, load_config

        cfg = load_config(Path(__file__).parent.parent / "configs" / "demo_agreement.json")
        model = build_model(cfg)
        tasks = build_tasks(cfg, model)
        mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
        rows = prepare_task(model, tasks[0], mode, window).A.nbytes
        peaks = {}
        for name in ("kvcompose", "tova", "streaming"):
            tracemalloc.start()
            try:
                sweep(model, tasks, Policy(name=name), cfg.agg, tuple(cfg.grid), mode, window)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["tova"] <= peaks["kvcompose"] + 2**20, peaks
        assert peaks["streaming"] < min(peaks["tova"], peaks["kvcompose"]), peaks
        assert peaks["kvcompose"] - peaks["streaming"] < 2 * rows, (peaks, rows)
