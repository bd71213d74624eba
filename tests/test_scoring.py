from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvcompose.errors import ShapeError, UsageError
from kvcompose.model import ModelConfig, init_model, prefill
from kvcompose.numerics import SeededRng, argsort_desc, softmax_rows
from kvcompose.scoring import (
    STAGE_FINAL,
    STAGE_GROUP,
    STAGE_TASK,
    TASK_MODES,
    AggregationChoice,
    AttentionCapture,
    ScoreTensor,
    TaskSet,
    aggregate_group,
    aggregate_task,
    augment_mean,
    collect_attention,
)

from conftest import count_calls, random_context


def make_capture(seed, layers=2, query_heads=4, kv_heads=2, n=6, m=3):
    rng = SeededRng(seed)
    a = rng.uniform_block(layers * query_heads * n * m).reshape(layers, query_heads, n, m)
    raw = rng.uniform_block(layers * kv_heads * n).reshape(layers, kv_heads, n) + 0.5
    proj = rng.uniform_block(layers * query_heads * n).reshape(layers, query_heads, n) + 0.5
    return AttentionCapture(A=a, value_norms_raw=raw, value_norms_proj=proj)


class TestTaskSet:
    def test_task_aware_needs_tasks(self):
        with pytest.raises(UsageError):
            TaskSet(mode="task-aware")
        with pytest.raises(UsageError):
            TaskSet(mode="task-aware", tasks=((),))

    def test_window_must_be_positive(self):
        with pytest.raises(UsageError):
            TaskSet(mode="task-agnostic", observation_window=0)

    def test_unknown_mode(self):
        with pytest.raises(UsageError):
            TaskSet(mode="oracle")


class TestCollectAttention:
    def test_singleton_window(self, tiny_model):
        cap = collect_attention(
            tiny_model, [5], TaskSet(mode="task-agnostic", observation_window=1)
        )
        assert cap.A.shape == (2, 4, 1, 1)
        assert np.array_equal(cap.A, np.ones_like(cap.A))

    def test_task_lengths_concatenate(self, tiny_model):
        tasks = (tuple(random_context(1, 3)), tuple(random_context(2, 5)))
        cap = collect_attention(
            tiny_model, random_context(3, 10), TaskSet(mode="task-aware", tasks=tasks)
        )
        assert cap.task_len == 8
        assert cap.A.shape == (2, 4, 10, 8)

    def test_capture_matches_qk_recompute(self, tiny_model):
        # task rows appended to the context cache equal the rows of one
        # prefill over context + task; the second input is the 4-layer GQA
        # shape at N=504, M=8, which fills max_context
        gqa = init_model(
            ModelConfig(
                layers=4, query_heads=4, kv_heads=2, model_dim=32, head_dim=8,
                vocab_size=64, seed=7,
            )
        )
        for model, n, m in [(tiny_model, 8, 2), (gqa, 504, 8)]:
            context = random_context(4, n)
            task = tuple(random_context(5, m))
            cap = collect_attention(model, context, TaskSet(mode="task-aware", tasks=(task,)))
            run = prefill(model, context + list(task), attention_rows=n + m)
            for layer in range(model.config.layers):
                full_attn = run.attention[layer]  # (H_q, N+M, N+M)
                recomputed = np.transpose(full_attn[:, n:, :n], (0, 2, 1))
                assert np.abs(cap.A[layer] - recomputed).max() < 1e-12
            # context columns of a task row form a sub-distribution
            sums = cap.A.sum(axis=2)
            assert (sums <= 1.0 + 1e-9).all()

    def test_task_beyond_max_context_rejected(self):
        model = init_model(
            ModelConfig(
                layers=1, query_heads=2, kv_heads=1, model_dim=16, head_dim=8,
                vocab_size=32, seed=1, max_context=16,
            )
        )
        context = random_context(8, 12, vocab=32)
        collect_attention(model, context, TaskSet(mode="task-aware", tasks=((1, 2, 3, 4),)))
        with pytest.raises(UsageError):
            collect_attention(model, context, TaskSet(mode="task-aware", tasks=((1, 2, 3, 4, 5),)))

    def test_task_rows_recompute_from_serialized_qk(self, tiny_model):
        # full oracle: rebuild scores q.K^T for the last row and softmax them
        from kvcompose.model import _embed, _rotate  # white-box on purpose

        context = random_context(6, 7)
        task = (3,)
        cap = collect_attention(
            tiny_model, context, TaskSet(mode="task-aware", tasks=(task,))
        )
        run = prefill(tiny_model, context + list(task))
        cfg = tiny_model.config
        n = len(context)
        # layer 0 only: q of the task token against that layer's cached keys
        tokens = np.asarray(context + list(task))
        x = _embed(tiny_model, tokens, np.arange(n + 1))
        q = np.einsum("nd,hde->hne", x, tiny_model.wq[0])
        angles = np.arange(n + 1)[:, None] * tiny_model.inv_freq[None, :]
        q = _rotate(q, np.cos(angles), np.sin(angles))[:, -1, :]  # (H_q, d_h)
        k = run.cache.keys[0]  # (H_kv, n+1, d_h) post-rotation
        k_rep = np.repeat(k, cfg.group_size, axis=0)
        scores = np.einsum("he,hce->hc", q, k_rep)
        oracle = softmax_rows(scores, scale=1.0 / np.sqrt(cfg.head_dim))
        assert np.abs(oracle[:, :n] - cap.A[0, :, :, 0]).max() < 1e-8

    def test_window_larger_than_context_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            collect_attention(
                tiny_model, [1, 2], TaskSet(mode="task-agnostic", observation_window=5)
            )

    def test_window_rejected_before_prefill(self, tiny_model, monkeypatch):
        from kvcompose import model

        calls = count_calls(monkeypatch, model, "prefill")
        with pytest.raises(UsageError, match="observation_window 5 exceeds context length 2"):
            collect_attention(
                tiny_model, [1, 2], TaskSet(mode="task-agnostic", observation_window=5)
            )
        assert calls == []

    def test_window_rows_equal_the_prefill_rows(self, gqa_model):
        context, w = random_context(13, 24), 5
        tset = TaskSet(mode="task-agnostic", observation_window=w)
        cap = collect_attention(gqa_model, context, tset)
        run = prefill(gqa_model, context, attention_rows=len(context))
        for layer, attn in enumerate(run.attention):
            assert np.array_equal(cap.A[layer], np.transpose(attn[:, -w:, :], (0, 2, 1)))

    @pytest.mark.parametrize("mode", TASK_MODES)
    def test_head_mean_only_when_asked(self, tiny_model, mode):
        context = random_context(14, 10)
        tset = TaskSet.for_context(mode, len(context), (tuple(random_context(15, 3)),), 4)
        assert collect_attention(tiny_model, context, tset).attention_mean is None
        cap = collect_attention(tiny_model, context, tset, head_mean=True)
        run = prefill(tiny_model, context, attention_rows=len(context))
        assert np.array_equal(cap.attention_mean, np.stack([a.mean(axis=0) for a in run.attention]))

    @pytest.mark.parametrize("head_mean", [False, True])
    @pytest.mark.parametrize("mode", TASK_MODES)
    def test_no_per_head_attention_outlives_the_prefill(
        self, tiny_model, monkeypatch, mode, head_mean
    ):
        # neither the capture nor the prefill it runs holds an (H_q, N, N)
        # array: the prefill keeps the window rows, or none when task-aware
        from kvcompose import scoring

        runs = []

        def recording(*args, **kwargs):
            runs.append(prefill(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(scoring, "prefill", recording)
        context, h_q = random_context(16, 20), tiny_model.config.query_heads
        tset = TaskSet.for_context(mode, len(context), (tuple(random_context(17, 3)),), 4)
        cap = collect_attention(tiny_model, context, tset, head_mean=head_mean)
        arrays = [getattr(cap, f.name) for f in fields(cap)] + cap.cache.keys + cap.cache.values
        arrays += runs[0].attention + (runs[0].attention_mean or [])
        assert [np.shape(a) for a in arrays if np.shape(a)[-3:] == (h_q, 20, 20)] == []
        kept = 4 if mode == "task-agnostic" else 0
        assert [a.shape for a in runs[0].attention] == [(h_q, kept, 20)] * tiny_model.config.layers

    def test_tasks_read_the_context_cache_without_a_copy(self, tiny_model, monkeypatch):
        # every task runs after the one prefill cache and none writes it, so
        # each task's rows equal those of a capture of that task alone
        from kvcompose.model import KVCache

        def no_clone(self):
            raise AssertionError("a cache was cloned")

        monkeypatch.setattr(KVCache, "clone", no_clone)
        context = random_context(16, 10)
        tasks = (tuple(random_context(14, 3)), tuple(random_context(15, 5)))
        cap = collect_attention(tiny_model, context, TaskSet(mode="task-aware", tasks=tasks))
        alone = [
            collect_attention(tiny_model, context, TaskSet(mode="task-aware", tasks=(t,))).A
            for t in tasks
        ]
        assert cap.cache.next_positions == [10, 10]
        assert [cap.cache.rows(l) for l in range(2)] == [10, 10]
        assert np.array_equal(cap.A, np.concatenate(alone, axis=3))

    def test_value_norm_shapes(self, tiny_model):
        cap = collect_attention(
            tiny_model, random_context(7, 6), TaskSet(mode="task-agnostic", observation_window=3)
        )
        assert cap.value_norms_raw.shape == (2, 2, 6)
        assert cap.value_norms_proj.shape == (2, 4, 6)
        assert (cap.value_norms_raw >= 0).all()


class TestAggregateTask:
    def test_single_column_identity(self):
        cap = make_capture(1, m=1)
        out = aggregate_task(cap, "avg")
        assert out.stage == STAGE_TASK
        assert np.array_equal(out.values, cap.A[:, :, :, 0])

    def test_avg_hand_example(self):
        cap = make_capture(2, layers=1, query_heads=1, kv_heads=1, n=1, m=2)
        cap.A[0, 0, 0] = [0.1, 0.3]
        out = aggregate_task(cap, "avg")
        assert abs(out.values[0, 0, 0] - 0.2) < 1e-12

    def test_max_vs_avg(self):
        cap = make_capture(3)
        mx = aggregate_task(cap, "max").values
        av = aggregate_task(cap, "avg").values
        assert (mx >= av - 1e-15).all()

    def test_constant_vnorm_scales_scores(self):
        cap = make_capture(4)
        cap.value_norms_raw[:] = 2.5
        plain = aggregate_task(cap, "avg", "none").values
        weighted = aggregate_task(cap, "avg", "v-norm").values
        assert np.abs(weighted - 2.5 * plain).max() < 1e-12

    def test_constant_vnorm_preserves_argsort(self):
        cap = make_capture(5)
        cap.value_norms_raw[:] = 0.7
        plain = aggregate_task(cap, "max", "none").values
        weighted = aggregate_task(cap, "max", "v-norm").values
        for layer in range(plain.shape[0]):
            for h in range(plain.shape[1]):
                assert np.array_equal(
                    argsort_desc(plain[layer, h]), argsort_desc(weighted[layer, h])
                )

    def test_vo_norm_uses_projected_norms(self):
        cap = make_capture(6)
        out = aggregate_task(cap, "avg", "vo-norm").values
        expected = (cap.A * cap.value_norms_proj[:, :, :, None]).mean(axis=3)
        assert np.abs(out - expected).max() < 1e-12


class TestAggregateGroup:
    def test_single_group_identity(self):
        s = ScoreTensor(STAGE_TASK, SeededRng(7).uniform_block(2 * 2 * 5).reshape(2, 2, 5))
        out = aggregate_group(s, kv_heads=2, op="avg")
        assert out.stage == STAGE_GROUP
        assert np.array_equal(out.values, s.values)

    def test_two_head_average(self):
        values = np.zeros((1, 2, 1))
        values[0, 0, 0], values[0, 1, 0] = 0.4, 0.8
        out = aggregate_group(ScoreTensor(STAGE_TASK, values), kv_heads=1, op="avg")
        assert abs(out.values[0, 0, 0] - 0.6) < 1e-12

    def test_matches_loop_oracle(self):
        rng = SeededRng(8)
        values = rng.uniform_block(2 * 8 * 6).reshape(2, 8, 6)
        out = aggregate_group(ScoreTensor(STAGE_TASK, values), kv_heads=2, op="max")
        for layer in range(2):
            for h in range(2):
                for c in range(6):
                    member = max(values[layer, h * 4 + g, c] for g in range(4))
                    assert out.values[layer, h, c] == member

    def test_shape_mismatch(self):
        s = ScoreTensor(STAGE_TASK, np.zeros((1, 3, 4)))
        with pytest.raises(ShapeError):
            aggregate_group(s, kv_heads=2, op="avg")

    def test_stage_enforced(self):
        s = ScoreTensor(STAGE_GROUP, np.zeros((1, 2, 4)))
        with pytest.raises(UsageError):
            aggregate_group(s, kv_heads=2, op="avg")


class TestAugmentMean:
    def test_single_head_doubles(self):
        values = SeededRng(9).uniform_block(2 * 1 * 4).reshape(2, 1, 4)
        out = augment_mean(ScoreTensor(STAGE_GROUP, values))
        assert out.stage == STAGE_FINAL
        assert np.abs(out.values - 2 * values).max() < 1e-12

    def test_identical_heads_double_and_keep_ranking(self):
        row = SeededRng(10).uniform_block(5)
        values = np.stack([row, row])[None, :, :]  # (1, 2, 5)
        out = augment_mean(ScoreTensor(STAGE_GROUP, values))
        assert np.abs(out.values - 2 * values).max() < 1e-12
        for h in range(2):
            assert np.array_equal(argsort_desc(out.values[0, h]), argsort_desc(values[0, h]))

    def test_hand_example(self):
        values = np.zeros((1, 2, 1))
        values[0, 0, 0], values[0, 1, 0] = 0.2, 0.6
        out = augment_mean(ScoreTensor(STAGE_GROUP, values))
        assert abs(out.values[0, 0, 0] - 0.6) < 1e-12
        assert abs(out.values[0, 1, 0] - 1.0) < 1e-12

    def test_disabled_passthrough(self):
        values = SeededRng(11).uniform_block(2 * 2 * 3).reshape(2, 2, 3)
        out = augment_mean(ScoreTensor(STAGE_GROUP, values), enabled=False)
        assert out.stage == STAGE_FINAL
        assert np.array_equal(out.values, values)


class TestInvariants:
    def test_scores_non_negative_through_pipeline(self, tiny_model):
        cap = collect_attention(
            tiny_model,
            random_context(12, 10),
            TaskSet(mode="task-agnostic", observation_window=4),
        )
        s = aggregate_task(cap, "max", "v-norm")
        assert (s.values >= 0).all()
        s = aggregate_group(s, 2, "avg")
        assert (s.values >= 0).all()
        s = augment_mean(s)
        assert (s.values >= 0).all() and np.isfinite(s.values).all()

    def test_avg_mass_is_subdistribution(self, tiny_model):
        # with avg everywhere and no norm weighting, per-(layer, head) mass <= 1
        cap = collect_attention(
            tiny_model,
            random_context(13, 10),
            TaskSet(mode="task-agnostic", observation_window=4),
        )
        s = aggregate_task(cap, "avg", "none")
        mass = s.values.sum(axis=2)
        assert (mass <= 1.0 + 1e-9).all()

    @given(st.integers(0, 2**32 - 1))
    def test_group_max_dominates_avg(self, seed):
        cap = make_capture(seed)
        s = aggregate_task(cap, "avg")
        mx = aggregate_group(s, 2, "max").values
        av = aggregate_group(s, 2, "avg").values
        assert (mx >= av - 1e-15).all()

    def test_aggregation_choice_validation(self):
        with pytest.raises(UsageError):
            AggregationChoice(agg_task="median")
        with pytest.raises(UsageError):
            AggregationChoice(norm_variant="z-norm")

    def test_choice_label_matches_convention(self):
        label = AggregationChoice().label()
        assert label == "Agg(max,avg,avg), mean=on, norm=none"
