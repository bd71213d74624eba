import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvcompose.baselines import Policy
from kvcompose.cli import ablation_grid
from kvcompose.composer import compress, keep_masks
from kvcompose.errors import UsageError
from kvcompose.evaluator import RATIO_GRID, make_agreement_tasks, sweep
from kvcompose.model import ROW_BLOCK, KVCache, ModelConfig, _forward, init_model, prefill
from kvcompose.numerics import SeededRng, argsort_desc, softmax_rows
from kvcompose.scoring import (
    TASK_MODES,
    AggregationChoice,
    TaskSet,
    aggregate_group,
    aggregate_task,
    augment_mean,
    collect_attention,
)

from conftest import (
    count_calls,
    count_prefills,
    hand_capture,
    selector_read,
    prefill_keeping,
    random_context,
    rebuilt_rows,
    rotate_two_halves,
    stack_caches,
)


def make_capture(seed, layers=2, query_heads=4, kv_heads=2, n=6, m=3):
    rng = SeededRng(seed)
    # the values drawn (L, H_q, N, M), laid out task-major as a capture holds them
    a = rng.uniform_block(layers * query_heads * n * m).reshape(layers, query_heads, n, m)
    a = np.ascontiguousarray(a.swapaxes(2, 3))
    raw = rng.uniform_block(layers * kv_heads * n).reshape(layers, kv_heads, n) + 0.5
    proj = rng.uniform_block(layers * query_heads * n).reshape(layers, query_heads, n) + 0.5
    cap = hand_capture(a, raw)
    cap.value_norms_proj = proj  # a capture with no cache to project: set, not computed
    return cap


class TestTaskSet:
    def test_task_aware_needs_tasks(self):
        with pytest.raises(UsageError):
            TaskSet(mode="task-aware")
        with pytest.raises(UsageError):
            TaskSet(mode="task-aware", tasks=((),))

    def test_window_must_be_positive(self):
        with pytest.raises(UsageError):
            TaskSet(mode="task-agnostic", observation_window=0)

    def test_task_agnostic_takes_no_tasks(self):
        # its window rows are the queries: a task would be a second, unread set of them
        with pytest.raises(UsageError, match="task-agnostic mode takes no tasks"):
            TaskSet(mode="task-agnostic", tasks=((1, 2),))

    def test_unknown_mode(self):
        with pytest.raises(UsageError):
            TaskSet(mode="oracle")


def reference_capture(model, context, task_set):
    """The capture from passes that keep their logits: a default prefill
    keeping the window rows, one default ``_forward`` per task after its
    cache with the task's rows stacked per layer as they are, the tasks
    joined on the task-row axis, and value norms projected through values
    repeated per query head."""
    n = len(context)
    w = task_set.observation_window if task_set.mode == "task-agnostic" else 0
    base = prefill_keeping(model, context, w)
    if w:
        a = np.stack(base.attention)
    else:
        parts = []
        for task in task_set.tasks:
            run = _forward(model, base.cache, np.asarray(task), attention=True)
            parts.append(np.stack([x[:, :, :n] for x in run.attention]))
        a = np.concatenate(parts, axis=2)
    values = base.cache.values
    raw = np.stack([np.linalg.norm(v, axis=2) for v in values], axis=0)
    group = model.config.query_heads // model.config.kv_heads
    per_query = np.repeat(np.stack(values), group, axis=1)
    proj = np.linalg.norm(per_query @ model.wo, axis=3)
    return a, raw, proj, base.cache, base.queries


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
        assert cap.A.shape == (2, 4, 8, 10)

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
            run = prefill_keeping(model, context + list(task), n + m)
            for layer in range(model.config.layers):
                full_attn = run.attention[layer]  # (H_q, N+M, N+M)
                recomputed = full_attn[:, n:, :n]
                assert np.abs(cap.A[layer] - recomputed).max() < 1e-12
            # context columns of a task row form a sub-distribution
            sums = cap.A.sum(axis=3)
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
        from kvcompose.model import _embed  # white-box on purpose

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
        q = rotate_two_halves(q, np.cos(angles), np.sin(angles))[:, -1, :]  # (H_q, d_h)
        k = run.cache.keys[0]  # (H_kv, n+1, d_h) post-rotation
        k_rep = np.repeat(k, cfg.query_heads // cfg.kv_heads, axis=0)
        scores = np.einsum("he,hce->hc", q, k_rep)
        oracle = softmax_rows(scores, scale=1.0 / np.sqrt(cfg.head_dim))
        assert np.abs(oracle[:, :n] - cap.A[0, :, 0, :]).max() < 1e-8

    def test_window_larger_than_context_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            collect_attention(
                tiny_model, [1, 2], TaskSet(mode="task-agnostic", observation_window=5)
            )

    def test_window_rejected_before_prefill(self, tiny_model, monkeypatch):
        prefills = count_prefills(monkeypatch)
        with pytest.raises(UsageError, match="observation_window 5 exceeds context length 2"):
            collect_attention(
                tiny_model, [1, 2], TaskSet(mode="task-agnostic", observation_window=5)
            )
        assert prefills == []

    def test_window_rows_equal_the_prefill_rows(self, gqa_model):
        context, w = random_context(13, 24), 5
        tset = TaskSet(mode="task-agnostic", observation_window=w)
        cap = collect_attention(gqa_model, context, tset)
        run = prefill_keeping(gqa_model, context, len(context))
        for layer, attn in enumerate(run.attention):
            assert np.array_equal(cap.A[layer], attn[:, -w:, :])

    @pytest.mark.parametrize("mode", TASK_MODES)
    def test_head_mean_only_when_asked(self, tiny_model, mode):
        # a capture holds no head mean and computes no rows: it keeps the prefill's
        # queries, from which the head mean of every row the prefill scores is
        # rebuilt bit for bit when tova asks for it
        context = random_context(14, 10)
        tset = TaskSet.for_context(mode, len(context), (tuple(random_context(15, 3)),), 4)
        cap = collect_attention(tiny_model, context, tset)
        assert "A" not in vars(cap)
        run = prefill_keeping(tiny_model, context, len(context))
        assert [q.tobytes() for q in cap.queries] == [q.tobytes() for q in run.queries]
        mean = np.stack([rows.mean(axis=0) for rows in rebuilt_rows(cap, len(context))])
        assert np.array_equal(mean, np.stack([a.mean(axis=0) for a in run.attention]))

    @pytest.mark.parametrize("head_mean", [False, True])
    @pytest.mark.parametrize("mode", TASK_MODES)
    def test_no_per_head_attention_outlives_the_prefill(
        self, tiny_model, monkeypatch, mode, head_mean
    ):
        # neither the capture nor the prefill it runs holds an (H_q, N, N)
        # array once its rows or tova's head means are read: the prefill keeps
        # no rows, and the capture rebuilds the window's from its queries
        from kvcompose import scoring

        runs = []

        def recording(model, cache, *args, **kwargs):
            run = _forward(model, cache, *args, **kwargs)
            if cache.next_position == 0:  # the context prefill, not a task pass
                runs.append(run)
            return run

        monkeypatch.setattr(scoring, "_forward", recording)
        context, h_q = random_context(16, 20), tiny_model.config.query_heads
        tset = TaskSet.for_context(mode, len(context), (tuple(random_context(17, 3)),), 4)
        cap = collect_attention(tiny_model, context, tset)
        selector_read(cap, "head-mean" if head_mean else "rows")
        arrays = [*vars(cap).values()] + cap.cache.keys + cap.cache.values
        assert len(runs) == 1
        arrays += runs[0].attention + runs[0].queries + cap.queries
        assert [np.shape(a) for a in arrays if np.shape(a)[-3:] == (h_q, 20, 20)] == []
        assert [a.shape for a in runs[0].attention] == [(h_q, 0, 20)] * tiny_model.config.layers
        if head_mean:  # tova reads no row of A
            assert "A" not in vars(cap)
        else:
            assert cap.A.shape[2] == (4 if mode == "task-agnostic" else 3)  # window or task rows

    def test_task_stack_cache_never_meets_a(self):
        # a task stack returns T grown copies of the context cache, which the
        # capture drops unread; A is sized only after that pass, so the traced
        # peak stays below A, the stack's kept rows and its K/V together
        import tracemalloc

        cfg = ModelConfig(
            layers=8, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=64, seed=7
        )
        model, n, t, m = init_model(cfg), 256, 4, 8
        tasks = tuple(tuple(random_context(70 + i, m)) for i in range(t))
        context = random_context(69, n)
        tracemalloc.start()
        try:
            cap = collect_attention(model, context, TaskSet(mode="task-aware", tasks=tasks))
            cap.A
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = cfg.layers * t * cfg.query_heads * m * (n + m) * 8
        stacked_kv = 2 * cfg.layers * t * cfg.kv_heads * (n + m) * cfg.head_dim * 8
        assert cap.A.shape == (cfg.layers, cfg.query_heads, t * m, n)
        assert peak < cap.A.nbytes + kept + stacked_kv, peak

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
        assert np.array_equal(cap.A, np.concatenate(alone, axis=2))

    @pytest.mark.parametrize("head_mean", [False, True])
    @pytest.mark.parametrize(
        "tasks", [(1,), (3,), (8,), (1, 3, 8), ()], ids=["1", "3", "8", "1-3-8", "agnostic"]
    )
    @pytest.mark.parametrize("group", [2, 3])
    def test_matches_passes_that_keep_their_logits(self, group, tasks, head_mean):
        # passes without logits, the task rows written into one array and
        # the value norms projected per kv head change no bit of the capture,
        # whether its rows or tova's head means are read first; N=130 spans
        # three row blocks and the observation window two
        model = init_model(
            ModelConfig(
                layers=3, query_heads=2 * group, kv_heads=2, model_dim=16 * group,
                head_dim=8, vocab_size=64, seed=9,
            )
        )
        context = random_context(80, 130)
        task_set = TaskSet.for_context(
            "task-aware" if tasks else "task-agnostic", len(context),
            [tuple(random_context(81 + m, m)) for m in tasks], ROW_BLOCK + 2,
        )
        cap = collect_attention(model, context, task_set)
        a, raw, proj, cache, queries = reference_capture(model, context, task_set)
        if head_mean:  # tova's replay reads the queries and computes no row of A
            selector_read(cap, "head-mean")
            assert "A" not in vars(cap)
        for got, want in [(cap.A, a), (cap.value_norms_raw, raw), (cap.value_norms_proj, proj)]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert cap.cache.next_positions == cache.next_positions
        for got, want in zip(cap.cache.keys + cap.cache.values, cache.keys + cache.values):
            assert got.tobytes() == want.tobytes()
        assert [q.tobytes() for q in cap.queries] == [q.tobytes() for q in queries]

    def test_value_norm_shapes(self, tiny_model):
        cap = collect_attention(
            tiny_model, random_context(7, 6), TaskSet(mode="task-agnostic", observation_window=3)
        )
        assert cap.value_norms_raw.shape == (2, 2, 6)
        assert cap.value_norms_proj.shape == (2, 4, 6)
        assert (cap.value_norms_raw >= 0).all()


class TestGivenCache:
    """A capture given its context's own prefill, cache and queries, holds it and reruns
    nothing of it."""

    @pytest.mark.parametrize("reads", ["rows", "head-mean", "none"])
    @pytest.mark.parametrize(
        "n, w", [(128, 32), (200, 80), (504, 64), (130, 3), (130, None)],
        ids=["128-32", "200-80", "504-64", "130-3", "task-aware"],
    )
    def test_equals_the_capture_that_prefills(self, gqa_model, monkeypatch, reads, n, w):
        # bit for bit: the window's rows are rebuilt from the queries in the
        # prefill's own row blocks, whether the capture ran the prefill or was
        # given it, so an unaligned window start N - w moves no bit; each
        # selector's read computes only what it reads
        from kvcompose import model as kvmodel

        context = random_context(90 + n, n)
        tasks = [tuple(random_context(91 + m, m)) for m in (3, 5, 3)]
        task_set = TaskSet.for_context("task-aware" if w is None else "task-agnostic", n, tasks, w)
        passes = count_calls(
            monkeypatch, kvmodel, "_forward",
            lambda model, held, tokens, *rest: (held.next_position, np.shape(tokens)),
        )
        want = collect_attention(gqa_model, context, task_set)
        wanted = selector_read(want, reads)
        want_passes = passes[:]
        run = prefill(gqa_model, context)
        cache = run.cache
        passes.clear()
        got = collect_attention(gqa_model, context, task_set, cache, run.queries)
        assert selector_read(got, reads).tobytes() == wanted.tobytes()
        assert ("A" in vars(got)) == ("A" in vars(want)) == (reads == "rows")
        # without a prefill the capture runs one; given one, it runs only the task
        # stacks, on the first read of its rows
        stacks = [(n, (2, 3)), (n, (1, 5))] if reads == "rows" and w is None else []
        assert want_passes == [(0, (n,))] + stacks
        assert passes == stacks
        assert got.cache is cache
        for a, b in [(got.A, want.A), (got.value_norms_raw, want.value_norms_raw)]:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert [q.tobytes() for q in got.queries] == [q.tobytes() for q in want.queries]
        assert cache.next_positions == want.cache.next_positions
        for a, b in zip(cache.keys + cache.values, want.cache.keys + want.cache.values):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("reads", ["rows", "head-mean", "none"])
    def test_an_agreement_task_capture_runs_no_pass(self, gqa_model, monkeypatch, reads):
        # an agreement task carries its prefill's cache and queries, so its
        # capture, whatever its selector reads, scores them and runs no forward pass
        from kvcompose import model as kvmodel

        task = make_agreement_tasks(gqa_model, 2, ROW_BLOCK + 20, 2, seed=97)[1]
        tset = TaskSet(mode="task-agnostic", observation_window=32)
        passes = count_calls(monkeypatch, kvmodel, "_forward")
        cap = collect_attention(gqa_model, list(task.prompt), tset, task.cache, task.queries)
        selector_read(cap, reads)
        assert passes == []
        assert ("A" in vars(cap)) == (reads == "rows")
        assert cap.cache is task.cache and cap.A.shape[2] == 32
        assert cap.queries is task.queries

    @pytest.mark.parametrize("misfit", ["stacked", "compacted", "next-position"])
    def test_a_cache_that_does_not_fit_is_refused(self, tiny_model, monkeypatch, misfit):
        # its rows would be another cache's: refused before any pass
        from kvcompose import model as kvmodel

        context, layers = random_context(95, 12), tiny_model.config.layers
        task_set = TaskSet(mode="task-agnostic", observation_window=4)
        run = prefill(tiny_model, context)
        cache = run.cache
        cache = {
            "stacked": lambda: stack_caches([cache, cache]),
            "compacted": lambda: compress(
                tiny_model, context, task_set, AggregationChoice(), 0.5, Policy(name="kvcompose")
            )[0],
            "next-position": lambda: KVCache(cache.keys, cache.values, [13] * layers),
        }[misfit]()
        passes = count_calls(monkeypatch, kvmodel, "_forward")
        with pytest.raises(UsageError, match="not this 12-token context's unstacked prefill"):
            collect_attention(tiny_model, context, task_set, cache, run.queries)
        assert passes == []

    @pytest.mark.parametrize("misfit", ["no-queries", "no-cache", "other-context"])
    def test_queries_that_do_not_fit_are_refused(self, tiny_model, monkeypatch, misfit):
        # a cache without its queries, queries without their cache, or another
        # context's queries: refused before any pass
        from kvcompose import model as kvmodel

        context = random_context(96, 12)
        task_set = TaskSet(mode="task-agnostic", observation_window=4)
        run = prefill(tiny_model, context)
        given, match = {
            "no-queries": ((run.cache, None), "both its cache and its queries"),
            "no-cache": ((None, run.queries), "both its cache and its queries"),
            "other-context": (
                (run.cache, prefill(tiny_model, context[:8]).queries), "not this 12-token"
            ),
        }[misfit]
        passes = count_calls(monkeypatch, kvmodel, "_forward")
        with pytest.raises(UsageError, match=match):
            collect_attention(tiny_model, context, task_set, *given)
        assert passes == []


class TestTaskStacks:
    def test_equals_per_task_passes_in_task_order(self, gqa_model, monkeypatch):
        # tasks of one length run as one stack, yet each task's rows land
        # in its own rows: those of its own pass, in task order
        from kvcompose import model

        context, n = random_context(90, 40), 40
        tasks = tuple(tuple(random_context(91 + i, m)) for i, m in enumerate((3, 8, 3, 5)))
        calls = count_calls(monkeypatch, model, "_forward")
        cap = collect_attention(gqa_model, context, TaskSet(mode="task-aware", tasks=tasks))
        cap.A
        # the prefill, then one pass per distinct length on the first read, in first-seen order
        assert [np.shape(c[2]) for c in calls] == [(40,), (2, 3), (1, 8), (1, 5)]
        passes = [
            _forward(gqa_model, cap.cache, np.asarray(t), attention=True, logits=False)
            for t in tasks
        ]
        want = np.concatenate(
            [np.stack([x[:, :, :n] for x in run.attention]) for run in passes],
            axis=2,
        )
        assert cap.A.shape == want.shape and cap.A.tobytes() == want.tobytes()


def eager_projected_norms(model, cache) -> np.ndarray:
    """The projected value norms computed at once: each kv head's values through
    the output matrices of its query group."""
    cfg = model.config
    values = np.stack(cache.values)  # (L, H_kv, N, d_h)
    group = cfg.query_heads // cfg.kv_heads
    wo = model.wo.reshape(cfg.layers, cfg.kv_heads, group, cfg.head_dim, -1)
    return np.linalg.norm(values[:, :, None] @ wo, axis=4).reshape(cfg.layers, cfg.query_heads, -1)


class TestLazyProjectedNorms:
    @pytest.mark.parametrize("norm", ["none", "v-norm"])
    def test_compress_and_sweep_without_vo_norm_compute_none(
        self, gqa_model, proj_computations, norm
    ):
        context = random_context(95, 24)
        ts = TaskSet(mode="task-aware", tasks=((1, 2, 3), (4, 5)))
        kvcompose = Policy(name="kvcompose")
        compress(gqa_model, context, ts, AggregationChoice(norm_variant=norm), 0.5, kvcompose)
        tasks = make_agreement_tasks(gqa_model, 2, 16, 4, seed=3)
        for name in ("kvcompose", "unstructured", "snapkv"):
            sweep(gqa_model, tasks, Policy(name=name), AggregationChoice(norm_variant=norm))
        assert proj_computations == []
        # the positive control: a vo-norm choice computes them
        compress(gqa_model, context, ts, AggregationChoice(norm_variant="vo-norm"), 0.5, kvcompose)
        assert len(proj_computations) == 1

    @pytest.mark.parametrize("policy", ["kvcompose", "unstructured"])
    def test_ablation_grid_computes_them_once_per_capture(
        self, gqa_model, proj_computations, policy
    ):
        ts = TaskSet(mode="task-aware", tasks=((1, 2, 3), (4, 5)))
        caps = [collect_attention(gqa_model, random_context(s, 24), ts) for s in (96, 97)]
        for cap in caps:
            for _ in range(2):
                keep_masks(cap, ablation_grid(), RATIO_GRID, Policy(name=policy))
        assert [id(c) for c in proj_computations] == [id(c) for c in caps]
        for cap in caps:
            want = eager_projected_norms(gqa_model, cap.cache)
            assert cap.value_norms_proj.tobytes() == want.tobytes()


class TestAggregateTask:
    def test_single_column_identity(self):
        cap = make_capture(1, m=1)
        out = aggregate_task(cap, "avg")
        assert out.shape == (*cap.A.shape[:2], cap.context_len)
        assert np.array_equal(out, cap.A[:, :, 0, :])

    def test_avg_hand_example(self):
        cap = make_capture(2, layers=1, query_heads=1, kv_heads=1, n=1, m=2)
        cap.A[0, 0, :, 0] = [0.1, 0.3]
        out = aggregate_task(cap, "avg")
        assert abs(out[0, 0, 0] - 0.2) < 1e-12

    def test_max_vs_avg(self):
        cap = make_capture(3)
        mx = aggregate_task(cap, "max")
        av = aggregate_task(cap, "avg")
        assert (mx >= av - 1e-15).all()

    def test_constant_vnorm_scales_scores(self):
        cap = make_capture(4)
        cap.value_norms_raw[:] = 2.5
        plain = aggregate_task(cap, "avg", "none")
        weighted = aggregate_task(cap, "avg", "v-norm")
        assert np.abs(weighted - 2.5 * plain).max() < 1e-12

    def test_constant_vnorm_preserves_argsort(self):
        cap = make_capture(5)
        cap.value_norms_raw[:] = 0.7
        plain = aggregate_task(cap, "max", "none")
        weighted = aggregate_task(cap, "max", "v-norm")
        for layer in range(plain.shape[0]):
            for h in range(plain.shape[1]):
                assert np.array_equal(
                    argsort_desc(plain[layer, h]), argsort_desc(weighted[layer, h])
                )

    def test_vo_norm_uses_projected_norms(self):
        cap = make_capture(6)
        out = aggregate_task(cap, "avg", "vo-norm")
        expected = (cap.A * cap.value_norms_proj[:, :, None, :]).mean(axis=2)
        assert np.abs(out - expected).max() < 1e-12


class TestAggregateGroup:
    def test_single_group_identity(self):
        s = SeededRng(7).uniform_block(2 * 2 * 5).reshape(2, 2, 5)
        out = aggregate_group(s, kv_heads=2, op="avg")
        assert out.shape == s.shape
        assert np.array_equal(out, s)

    def test_two_head_average(self):
        values = np.zeros((1, 2, 1))
        values[0, 0, 0], values[0, 1, 0] = 0.4, 0.8
        out = aggregate_group(values, kv_heads=1, op="avg")
        assert abs(out[0, 0, 0] - 0.6) < 1e-12

    def test_matches_loop_oracle(self):
        rng = SeededRng(8)
        values = rng.uniform_block(2 * 8 * 6).reshape(2, 8, 6)
        out = aggregate_group(values, kv_heads=2, op="max")
        for layer in range(2):
            for h in range(2):
                for c in range(6):
                    member = max(values[layer, h * 4 + g, c] for g in range(4))
                    assert out[layer, h, c] == member

    def test_shape_mismatch(self):
        s = np.zeros((1, 3, 4))
        with pytest.raises(UsageError, match="3 query heads do not split into 2 kv heads"):
            aggregate_group(s, kv_heads=2, op="avg")


class TestAugmentMean:
    def test_single_head_doubles(self):
        values = SeededRng(9).uniform_block(2 * 1 * 4).reshape(2, 1, 4)
        out = augment_mean(values)
        assert out.shape == values.shape
        assert np.abs(out - 2 * values).max() < 1e-12

    def test_identical_heads_double_and_keep_ranking(self):
        row = SeededRng(10).uniform_block(5)
        values = np.stack([row, row])[None, :, :]  # (1, 2, 5)
        out = augment_mean(values)
        assert np.abs(out - 2 * values).max() < 1e-12
        for h in range(2):
            assert np.array_equal(argsort_desc(out[0, h]), argsort_desc(values[0, h]))

    def test_hand_example(self):
        values = np.zeros((1, 2, 1))
        values[0, 0, 0], values[0, 1, 0] = 0.2, 0.6
        out = augment_mean(values)
        assert abs(out[0, 0, 0] - 0.6) < 1e-12
        assert abs(out[0, 1, 0] - 1.0) < 1e-12

    def test_disabled_passthrough(self):
        values = SeededRng(11).uniform_block(2 * 2 * 3).reshape(2, 2, 3)
        out = augment_mean(values, enabled=False)
        assert out is values


class TestInvariants:
    def test_scores_non_negative_through_pipeline(self, tiny_model):
        cap = collect_attention(
            tiny_model,
            random_context(12, 10),
            TaskSet(mode="task-agnostic", observation_window=4),
        )
        s = aggregate_task(cap, "max", "v-norm")
        assert (s >= 0).all()
        s = aggregate_group(s, 2, "avg")
        assert (s >= 0).all()
        s = augment_mean(s)
        assert (s >= 0).all() and np.isfinite(s).all()

    def test_avg_mass_is_subdistribution(self, tiny_model):
        # with avg everywhere and no norm weighting, per-(layer, head) mass <= 1
        cap = collect_attention(
            tiny_model,
            random_context(13, 10),
            TaskSet(mode="task-agnostic", observation_window=4),
        )
        s = aggregate_task(cap, "avg", "none")
        mass = s.sum(axis=2)
        assert (mass <= 1.0 + 1e-9).all()

    @given(st.integers(0, 2**32 - 1))
    def test_group_max_dominates_avg(self, seed):
        cap = make_capture(seed)
        s = aggregate_task(cap, "avg")
        mx = aggregate_group(s, 2, "max")
        av = aggregate_group(s, 2, "avg")
        assert (mx >= av - 1e-15).all()

    def test_aggregation_choice_validation(self):
        with pytest.raises(UsageError):
            AggregationChoice(agg_task="median")
        with pytest.raises(UsageError):
            AggregationChoice(norm_variant="z-norm")

    def test_choice_label_matches_convention(self):
        label = AggregationChoice().label()
        assert label == "Agg(max,avg,avg), mean=on, norm=none"
