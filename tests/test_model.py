from dataclasses import replace

import numpy as np
import pytest

from kvcompose.baselines import Policy
from kvcompose.composer import compress
from kvcompose.errors import ConfigError, UsageError
from kvcompose.model import (
    ROW_BLOCK,
    KVCache,
    ModelConfig,
    _embed,
    _forward,
    _rotate,
    construct_induction_model,
    decode_step,
    empty_cache,
    greedy_decode,
    induction_key_range,
    induction_value_range,
    init_model,
    prefill,
)
from kvcompose.numerics import SeededRng, softmax_rows
from kvcompose.scoring import AggregationChoice, TaskSet

from conftest import random_context


class TestConfig:
    def test_group_arithmetic(self):
        cfg = ModelConfig(layers=2, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=10)
        assert cfg.group_size == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(layers=0, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=10),
            dict(layers=2, query_heads=3, kv_heads=2, model_dim=24, head_dim=8, vocab_size=10),
            dict(layers=2, query_heads=4, kv_heads=2, model_dim=30, head_dim=8, vocab_size=10),
            dict(layers=2, query_heads=4, kv_heads=2, model_dim=28, head_dim=7, vocab_size=10),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)


class TestInitModel:
    def test_deterministic(self):
        cfg = ModelConfig(layers=2, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=16, seed=5)
        a, b = init_model(cfg), init_model(cfg)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.wq, b.wq)
        assert np.array_equal(a.wo, b.wo)

    def test_seed_sensitivity(self):
        base = dict(layers=2, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=16)
        a = init_model(ModelConfig(seed=1, **base))
        b = init_model(ModelConfig(seed=2, **base))
        assert not np.array_equal(a.embedding, b.embedding)

    def test_shape_audit(self):
        cfg = ModelConfig(layers=2, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=16)
        m = init_model(cfg)
        assert cfg.group_size == 2
        assert m.wq.shape == (2, 4, 32, 8)
        assert m.wk.shape == (2, 2, 32, 8)
        assert m.wv.shape == (2, 2, 32, 8)
        assert m.wo.shape == (2, 4, 8, 32)
        assert m.embedding.shape == (16, 32)
        assert np.isfinite(m.wq).all()


class TestPrefill:
    def test_single_token_attention(self, tiny_model):
        res = prefill(tiny_model, [3], attention_rows=1)
        for attn in res.attention:
            assert attn.shape == (4, 1, 1)
            assert np.array_equal(attn, np.ones((4, 1, 1)))

    def test_cache_shape(self, tiny_model):
        res = prefill(tiny_model, random_context(1, 10))
        for layer in range(2):
            assert res.cache.keys[layer].shape == (2, 10, 8)
            assert res.cache.values[layer].shape == (2, 10, 8)

    def test_attention_rows_are_distributions(self, tiny_model):
        res = prefill(tiny_model, random_context(2, 12), attention_rows=12)
        for attn in res.attention:
            sums = attn.sum(axis=2)
            assert np.abs(sums - 1.0).max() < 1e-6
            assert (attn >= 0).all()

    def test_attention_above_the_diagonal_is_exactly_zero(self, gqa_model):
        n = 40
        res = prefill(gqa_model, random_context(4, n), attention_rows=n)
        future = np.triu(np.ones((n, n), dtype=bool), k=1)
        for attn in res.attention:
            assert (attn[:, future] == 0.0).all()
            assert (attn[:, ~future] > 0.0).all()

    def test_matches_incremental_decode_oracle(self, tiny_model):
        tokens = random_context(3, 9)
        full = prefill(tiny_model, tokens)
        # oracle: grow the sequence one token at a time through decode_step
        cache = empty_cache(tiny_model)
        logits = None
        for tok in tokens:
            run = decode_step(tiny_model, cache, tok)
            logits, cache = run.logits[0], run.cache
        assert np.abs(logits - full.logits[-1]).max() < 1e-8

    def test_empty_input_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            prefill(tiny_model, [])

    def test_context_limit(self, tiny_model):
        with pytest.raises(UsageError):
            prefill(tiny_model, [0] * (tiny_model.config.max_context + 1))

    @pytest.mark.parametrize("rows", [0, 1, 5, 12])
    @pytest.mark.parametrize("head_mean", [False, True])
    def test_keep_cuts_each_layer_to_the_rows_asked_for(self, gqa_model, rows, head_mean):
        # the kept rows and the head mean equal those of the full attention
        # bit for bit, and nothing else of a layer's attention is returned
        tokens = random_context(6, 12)
        full = prefill(gqa_model, tokens, attention_rows=len(tokens))
        cut = prefill(gqa_model, tokens, attention_rows=rows, head_mean=head_mean)
        assert np.array_equal(cut.logits, full.logits)
        assert all(np.array_equal(a, b) for a, b in zip(cut.cache.keys, full.cache.keys))
        assert len(cut.attention) == gqa_model.config.layers
        for got, want in zip(cut.attention, full.attention):
            assert got.shape == (4, rows, 12) and got.base is None
            assert np.array_equal(got, want[:, 12 - rows :])
        assert full.attention_mean is None
        if head_mean:
            want = [a.mean(axis=0) for a in full.attention]
            assert all(np.array_equal(a, b) for a, b in zip(cut.attention_mean, want, strict=True))
        else:
            assert cut.attention_mean is None

    def test_keep_rejects_bad_row_counts(self, tiny_model):
        with pytest.raises(UsageError, match="-1"):
            prefill(tiny_model, random_context(7, 5), attention_rows=-1)
        with pytest.raises(UsageError, match="cannot keep 6 attention rows of 5"):
            prefill(tiny_model, random_context(7, 5), attention_rows=6)

    def test_default_keeps_no_attention(self, gqa_model):
        res = prefill(gqa_model, random_context(8, 12))
        assert [a.shape for a in res.attention] == [(4, 0, 12)] * gqa_model.config.layers
        assert res.attention_mean is None

    @pytest.mark.parametrize("rows", [-1, 4])
    def test_bad_row_counts_rejected_before_any_layer_runs(self, tiny_model, monkeypatch, rows):
        # three new rows onto a held cache of five: the bound is M, not R+M
        from kvcompose import model

        def no_layer(*args, **kwargs):
            raise AssertionError("a layer ran")

        cache = prefill(tiny_model, random_context(9, 5)).cache
        before = cache.clone()
        monkeypatch.setattr(model, "softmax_rows", no_layer)
        with pytest.raises(UsageError, match=f"cannot keep {rows} attention rows of 3"):
            _forward(tiny_model, cache, np.asarray([1, 2, 3]), attention_rows=rows)
        assert cache.next_positions == before.next_positions
        assert all(np.array_equal(a, b) for a, b in zip(cache.keys, before.keys, strict=True))


class TestForward:
    @pytest.mark.parametrize("held", [0, 5])
    def test_zero_new_tokens_rejected_before_any_layer_runs(self, tiny_model, monkeypatch, held):
        from kvcompose import model

        def no_layer(*args, **kwargs):
            raise AssertionError("a layer ran")

        cache = empty_cache(tiny_model)
        if held:
            cache = prefill(tiny_model, random_context(11, held)).cache
        before = cache.clone()
        monkeypatch.setattr(model, "softmax_rows", no_layer)
        with pytest.raises(UsageError, match="at least one new token"):
            _forward(tiny_model, cache, np.asarray([], dtype=np.int64))
        assert cache.next_positions == before.next_positions
        assert all(np.array_equal(a, b) for a, b in zip(cache.keys, before.keys, strict=True))

    @pytest.mark.parametrize(
        "start, m", [(-3, 1), (-1, 2), (510, 3)], ids=["negative", "straddles-zero", "past-the-end"]
    )
    def test_positions_outside_the_context_rejected(self, tiny_model, monkeypatch, start, m):
        # the new rows sit at the cache's next position onward, a hand-built
        # one's included; every one must lie in [0, max_context) before any
        # layer runs
        from kvcompose import model

        def no_layer(*args, **kwargs):
            raise AssertionError("a layer ran")

        held = prefill(tiny_model, random_context(14, 5)).cache
        cache = replace(held, next_positions=[start] * 2)
        monkeypatch.setattr(model, "softmax_rows", no_layer)
        with pytest.raises(UsageError, match=r"leave \[0, max_context 512\)"):
            _forward(tiny_model, cache, np.asarray(random_context(15, m)))

    def test_rejection_names_the_first_and_last_position(self):
        cfg = ModelConfig(
            layers=1, query_heads=2, kv_heads=1, model_dim=16, head_dim=8, vocab_size=64,
            max_context=64,
        )
        with pytest.raises(UsageError, match=r"^positions 0 to 69 leave \[0, max_context 64\)$"):
            prefill(init_model(cfg), random_context(15, 70))

    def test_rows_up_to_max_context_run(self, tiny_model):
        held = prefill(tiny_model, random_context(14, 5)).cache
        cache = replace(held, next_positions=[509, 509])
        res = _forward(tiny_model, cache, np.asarray(random_context(15, 3)))
        assert res.cache.next_positions == [512, 512]

    def test_several_rows_onto_a_held_cache_match_prefill(self, tiny_model):
        tokens = random_context(5, 12)
        full = prefill(tiny_model, tokens, attention_rows=len(tokens))
        cache = prefill(tiny_model, tokens[:7]).cache
        res = _forward(tiny_model, cache, np.asarray(tokens[7:]), attention_rows=5)
        assert np.abs(res.logits - full.logits[7:]).max() < 1e-8
        for got, want in zip(res.attention, full.attention):
            assert got.shape == (4, 5, 12)
            assert np.abs(got - want[:, 7:, :]).max() < 1e-8
        assert res.cache.next_positions == [12, 12] and cache.next_positions == [7, 7]
        for layer in range(2):
            assert np.abs(res.cache.keys[layer] - full.cache.keys[layer]).max() < 1e-8
            assert np.abs(res.cache.values[layer] - full.cache.values[layer]).max() < 1e-8

    @pytest.mark.parametrize(
        "form",
        ["plain", "attention_rows", "head_mean", "stack", "row_blocks", "decode_step", "greedy"],
    )
    def test_leaves_the_cache_it_reads_as_it_was(self, gqa_model, form):
        # bit for bit, down to the identity of the cache's lists and arrays;
        # the grown cache is new and shares no memory with the held one
        cfg, held = gqa_model.config, 20
        m = {"row_blocks": ROW_BLOCK + 5, "decode_step": 1}.get(form, 3)
        tokens = random_context(12, held + m)
        cache = prefill(gqa_model, tokens[:held]).cache
        lists = (cache.keys, cache.values, cache.next_positions)
        arrays = [id(a) for a in cache.keys + cache.values]
        before = cache.clone()
        kwargs = {
            "attention_rows": {"attention_rows": m},
            "head_mean": {"head_mean": True},
            "stack": {"head_masks": random_masks(13, 2, cfg.layers, cfg.kv_heads, held)},
        }.get(form, {})
        if form == "decode_step":
            res = decode_step(gqa_model, cache, tokens[held])
        elif form == "greedy":
            res = greedy_decode(gqa_model, cache, tokens[held], m)
        else:
            res = _forward(gqa_model, cache, np.asarray(tokens[held:]), **kwargs)
        assert all(a is b for a, b in zip((cache.keys, cache.values, cache.next_positions), lists))
        assert [id(a) for a in cache.keys + cache.values] == arrays
        assert cache.next_positions == before.next_positions == [held] * cfg.layers
        for got, want in zip(cache.keys + cache.values, before.keys + before.values, strict=True):
            assert got.tobytes() == want.tobytes()
        if form == "greedy":
            assert len(res) == m
            return
        if form == "stack":
            assert res.cache is None
            return
        assert res.cache.next_positions == [held + m] * cfg.layers
        for grown, kept in zip(res.cache.keys + res.cache.values, cache.keys + cache.values):
            assert grown.shape[1] == held + m and not np.shares_memory(grown, kept)
            assert grown[:, :held].tobytes() == kept.tobytes()


def reference_forward(model, cache, tokens, positions, head_masks=None):
    """The per-query-head layer body: K/V copied once per query head by
    np.repeat and every product an einsum. Kept as the oracle for the
    grouped matmul kernel of ``_forward``; returns the logits, every
    layer's full attention and the grown cache."""
    cfg = model.config
    m = len(tokens)
    x = _embed(model, tokens, positions)
    group = cfg.group_size
    attention, keys, values = [], [], []
    for layer in range(cfg.layers):
        q = np.einsum("nd,hde->hne", x, model.wq[layer])
        k_new = np.einsum("nd,hde->hne", x, model.wk[layer])
        v_new = np.einsum("nd,hde->hne", x, model.wv[layer])
        angles = positions[:, None] * model.inv_freq[None, :]
        qk = _rotate(np.concatenate([q, k_new]), np.cos(angles), np.sin(angles))
        q, k_new = qk[: cfg.query_heads], qk[cfg.query_heads :]
        held = cache.rows(layer)
        k = np.concatenate([cache.keys[layer], k_new], axis=1)
        v = np.concatenate([cache.values[layer], v_new], axis=1)
        k_rep = np.repeat(k, group, axis=0)
        v_rep = np.repeat(v, group, axis=0)
        scores = np.einsum("hme,hce->hmc", q, k_rep)
        if m > 1:
            scores = scores + np.triu(np.full((m, held + m), -np.inf), k=held + 1)
        if head_masks is not None:
            width = head_masks.shape[2]
            mask_rep = np.repeat(head_masks[layer], group, axis=0)[:, None, :]
            scores[:, :, :width] = np.where(mask_rep, scores[:, :, :width], -np.inf)
        attn = softmax_rows(scores.reshape(-1, held + m), scale=1.0 / np.sqrt(cfg.head_dim))
        attn = attn.reshape(scores.shape)
        out = np.einsum("hmc,hce->hme", attn, v_rep)
        x = x + np.einsum("hme,hed->md", out, model.wo[layer])
        attention.append(attn)
        keys.append(k)
        values.append(v)
    grown = KVCache(keys, values, [int(positions[-1]) + 1] * cfg.layers)
    return x @ model.embedding.T, attention, grown


def assert_matches_reference(model, cache, tokens, positions, head_masks=None, rows=None):
    # the last ``rows`` attention rows (all by default) and the head mean,
    # zero above the diagonal as the reference computes them; a single
    # (L, H_kv, W) mask runs as a G=1 stack, which grows no cache; the
    # reference runs at ``positions``, which _forward works out from the cache
    rows = len(tokens) if rows is None else rows
    want_logits, want_attn, want_cache = reference_forward(
        model, cache, tokens, positions, head_masks
    )
    stack = None if head_masks is None else head_masks[None]
    res = _forward(model, cache, tokens, stack, attention_rows=rows, head_mean=True)
    logits, attention, means = res.logits, res.attention, res.attention_mean
    if stack is not None:
        assert res.cache is None
        logits, attention, means = logits[0], [a[0] for a in attention], [a[0] for a in means]
    assert np.abs(logits - want_logits).max() < 1e-12
    for got, want in zip(attention, want_attn, strict=True):
        want = want[:, len(tokens) - rows :]
        assert got.shape == want.shape
        assert (np.abs(got - want) < 1e-12).all()
    for got, want in zip(means, want_attn, strict=True):
        assert got.shape == want.shape[1:]
        assert np.abs(got - want.mean(axis=0)).max() < 1e-12
    if stack is None:
        assert res.cache.next_positions == want_cache.next_positions
        for layer in range(model.config.layers):
            assert np.abs(res.cache.keys[layer] - want_cache.keys[layer]).max() < 1e-12
            assert np.abs(res.cache.values[layer] - want_cache.values[layer]).max() < 1e-12


def random_masks(seed: int, *shape: int) -> np.ndarray:
    rng = SeededRng(seed)
    bits = [rng.randint(2) for _ in range(int(np.prod(shape)))]
    return np.asarray(bits, dtype=bool).reshape(shape)


class TestGroupedKernelOracle:
    @pytest.mark.parametrize("n", [128, 504])
    def test_prefill_matches_repeat_einsum(self, gqa_model, n):
        tokens = np.asarray(random_context(20, n))
        assert_matches_reference(gqa_model, empty_cache(gqa_model), tokens, np.arange(n))

    def test_rows_onto_held_cache_match_repeat_einsum(self, gqa_model):
        tokens = random_context(21, 45)
        cache = prefill(gqa_model, tokens[:40]).cache
        assert_matches_reference(gqa_model, cache, np.asarray(tokens[40:]), np.arange(40, 45))

    def test_rows_onto_ragged_kvcompose_cache_match_repeat_einsum(self, gqa_model):
        # several causal rows onto layers of unequal length: the one (M, M)
        # mask must land on each layer's own new-row columns
        context = random_context(23, 48)
        ts = TaskSet(mode="task-agnostic", observation_window=16)
        cache, _ = compress(
            gqa_model, context, ts, AggregationChoice(), 0.6, Policy(name="kvcompose")
        )
        assert len({cache.rows(l) for l in range(gqa_model.config.layers)}) > 1
        tokens = np.asarray(random_context(24, 6))
        assert_matches_reference(gqa_model, cache, tokens, np.arange(48, 54))

    @pytest.mark.parametrize("m", [ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
    @pytest.mark.parametrize("held", [0, 37])
    def test_row_block_edges_match_repeat_einsum(self, gqa_model, m, held):
        tokens = random_context(25, held + m)
        cache = prefill(gqa_model, tokens[:held]).cache if held else empty_cache(gqa_model)
        new, positions = np.asarray(tokens[held:]), np.arange(held, held + m)
        assert_matches_reference(gqa_model, cache, new, positions)

    @pytest.mark.parametrize(
        "m, rows",
        [(ROW_BLOCK + 9, 20), (3 * ROW_BLOCK + 5, ROW_BLOCK + 6), (3 * ROW_BLOCK + 5, 1)],
    )
    def test_kept_rows_spanning_two_blocks_match_repeat_einsum(self, gqa_model, m, rows):
        # the last ``rows`` of M new rows onto a held cache: the end of the
        # first block and all of the second; the end of the second block and
        # the two after it, past a block that keeps none; the last row alone,
        # past three such blocks
        tokens = random_context(26, 30 + m)
        cache = prefill(gqa_model, tokens[:30]).cache
        new, positions = np.asarray(tokens[30:]), np.arange(30, len(tokens))
        assert_matches_reference(gqa_model, cache, new, positions, rows=rows)

    def test_masked_rows_over_several_blocks_match_repeat_einsum(self, gqa_model):
        # every block, not only the first, hides the masked held rows
        cfg = gqa_model.config
        tokens = random_context(27, 40 + 2 * ROW_BLOCK + 3)
        cache = prefill(gqa_model, tokens[:40]).cache
        masks = random_masks(28, cfg.layers, cfg.kv_heads, 40)
        new, positions = np.asarray(tokens[40:]), np.arange(40, len(tokens))
        assert_matches_reference(gqa_model, cache, new, positions, head_masks=masks)

    @pytest.mark.parametrize("kind", ["induction", "gqa"])
    def test_masked_decode_matches_repeat_einsum(self, gqa_model, kind):
        # the GQA shape has two kv heads, so a mask applied to the wrong
        # query group shows
        model = construct_induction_model(8, 32) if kind == "induction" else gqa_model
        prompt = [0, 20, 3, 25, 5, 17, 7, 30]
        cache = prefill(model, prompt).cache
        cfg = model.config
        masks = random_masks(22, cfg.layers, cfg.kv_heads, 8)
        assert_matches_reference(model, cache, np.asarray([3]), np.asarray([8]), head_masks=masks)


def assert_stack_equals_one_call_per_mask(model, held, m):
    # the grid rows share the held cache: each gives, bit for bit, the
    # logits, attention and head mean of its own G=1 call, and the cache
    # is left as it was
    cfg = model.config
    tokens = random_context(40, held + m)
    cache = prefill(model, tokens[:held]).cache
    before = cache.clone()
    stack = random_masks(41, 3, cfg.layers, cfg.kv_heads, held)
    stack[0] = True
    new = np.asarray(tokens[held:])
    res = _forward(model, cache, new, stack, attention_rows=m, head_mean=True)
    logits, attention, means = res.logits, res.attention, res.attention_mean
    assert logits.shape == (3, m, cfg.vocab_size)
    assert attention[0].shape == (3, cfg.query_heads, m, held + m)
    for g in range(3):
        want = _forward(model, before, new, stack[g : g + 1], attention_rows=m, head_mean=True)
        assert np.array_equal(logits[g], want.logits[0])
        for got, wanted in ((attention, want.attention), (means, want.attention_mean)):
            assert all(np.array_equal(a[g], b[0]) for a, b in zip(got, wanted, strict=True))
    unmasked = _forward(model, before, new).logits
    assert np.array_equal(logits[0], unmasked)
    assert cache.next_positions == before.next_positions
    for layer in range(cfg.layers):
        assert np.array_equal(cache.keys[layer], before.keys[layer])
        assert np.array_equal(cache.values[layer], before.values[layer])


class TestMaskStack:
    def test_stack_equals_one_call_per_mask(self, gqa_model):
        assert_stack_equals_one_call_per_mask(gqa_model, held=32, m=4)

    def test_stack_over_several_row_blocks_equals_one_call_per_mask(self, gqa_model):
        assert_stack_equals_one_call_per_mask(gqa_model, held=32, m=2 * ROW_BLOCK + 3)

    def test_grid_kv_dies_with_its_layer(self):
        # a stack's (G, H_kv, R+M, d_h) K and V serve one layer and no
        # result: the pass holds at most the last layer's pair while it
        # builds the next, where keeping all 8 layers' would peak near 8x
        import tracemalloc

        cfg = ModelConfig(
            layers=8, query_heads=4, kv_heads=2, model_dim=128, head_dim=32,
            vocab_size=64, seed=7,
        )
        model = init_model(cfg)
        held, g = 256, 8
        cache = prefill(model, random_context(62, held)).cache
        stack = np.ones((g, cfg.layers, cfg.kv_heads, held), dtype=bool)
        layer_kv = 2 * g * cfg.kv_heads * (held + 1) * cfg.head_dim * 8
        tracemalloc.start()
        try:
            res = _forward(model, cache, np.asarray([5]), stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.cache is None
        assert peak < 3 * layer_kv, (peak, layer_kv)
    @pytest.mark.parametrize(
        "shape, dtype",
        [
            ((1, 2, 1, 8), bool),  # one head's mask would broadcast to both kv heads
            ((1, 3, 2, 8), bool),  # one layer too many
            ((1, 1, 2, 8), bool),  # one layer too few
            ((1, 2, 2, 8), np.int64),
            ((1, 2, 8), bool),
            ((2, 2, 8), bool),  # a single (L, H_kv, W) mask: a stack is the one form
        ],
        ids=["one-head", "extra-layer", "one-layer", "int", "no-head-axis", "single-mask"],
    )
    def test_mask_of_wrong_shape_or_type_rejected(self, tiny_model, shape, dtype):
        cache = prefill(tiny_model, random_context(42, 8)).cache
        with pytest.raises(UsageError, match="head_masks"):
            _forward(tiny_model, cache, np.asarray([3]), np.ones(shape, dtype))


class TestRowBlocks:
    def test_long_prefill_peak_is_a_few_row_blocks(self):
        # N=2,048: the unblocked pass held each layer's (H_q, N, N) scores
        # and softmax's copy of them, 398 MiB in all. Blocked, at most three
        # score-sized (H_q, ROW_BLOCK, <=N) arrays live at once (the last
        # block's attention, the new scores, softmax's work array), and the
        # cache, logits and residual fit in the rest of the bound.
        import tracemalloc

        cfg = ModelConfig(
            layers=4, query_heads=4, kv_heads=2, model_dim=32, head_dim=8,
            vocab_size=64, seed=7, max_context=2048,
        )
        model = init_model(cfg)
        tokens = random_context(60, 2048)
        tracemalloc.start()
        try:
            prefill(model, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * cfg.query_heads * ROW_BLOCK * len(tokens) * 8

    @pytest.mark.parametrize("n", [65, 128])
    def test_one_block_equals_row_blocks_bit_for_bit_up_to_128_rows(
        self, gqa_model, monkeypatch, n
    ):
        # numpy sums rows of up to 128 entries in fixed lanes, so the zero
        # columns past a block's end change no bit: the demo configs'
        # N=128 reports are the same as with one block
        from kvcompose import model

        tokens = random_context(61, n)
        blocked = prefill(gqa_model, tokens, attention_rows=n, head_mean=True)
        monkeypatch.setattr(model, "ROW_BLOCK", n)
        whole = prefill(gqa_model, tokens, attention_rows=n, head_mean=True)
        assert np.array_equal(blocked.logits, whole.logits)
        for name in ("attention", "attention_mean"):
            pairs = zip(getattr(blocked, name), getattr(whole, name), strict=True)
            assert all(np.array_equal(a, b) for a, b in pairs)
        for name in ("keys", "values"):
            pairs = zip(getattr(blocked.cache, name), getattr(whole.cache, name), strict=True)
            assert all(np.array_equal(a, b) for a, b in pairs)


def assert_logits_off_changes_no_bit(model, cache, tokens, stack=None, rows=0, head_mean=False):
    # everything but the logits matches the default call bit for bit; the
    # logits keep their shape's other axes and have no rows
    kwargs = dict(attention_rows=rows, head_mean=head_mean)
    full = _forward(model, cache, tokens, stack, **kwargs)
    cut = _forward(model, cache, tokens, stack, logits=False, **kwargs)
    assert cut.logits.shape == full.logits.shape[:-2] + (0, model.config.vocab_size)
    assert [a.shape for a in cut.attention] == [a.shape for a in full.attention]
    assert all(np.array_equal(a, b) for a, b in zip(cut.attention, full.attention, strict=True))
    if head_mean:
        pairs = zip(cut.attention_mean, full.attention_mean, strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs)
    else:
        assert cut.attention_mean is None
    if stack is not None:
        assert cut.cache is None
        return
    assert cut.cache.next_positions == full.cache.next_positions
    for name in ("keys", "values"):
        pairs = zip(getattr(cut.cache, name), getattr(full.cache, name), strict=True)
        assert all(a.tobytes() == b.tobytes() for a, b in pairs)


def softmax_widths_per_layer(monkeypatch, *args, **kwargs):
    """The score width (held rows plus the block's end) of every
    ``softmax_rows`` call of ``_forward(*args, **kwargs)``, split by layer:
    a new layer starts where the width stops growing."""
    from kvcompose import model

    widths = []

    def recording(scores, *a, **kw):
        widths.append(scores.shape[-1])
        return softmax_rows(scores, *a, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(model, "softmax_rows", recording)
        _forward(*args, **kwargs)
    layers = [[]]
    for w in widths:
        if layers[-1] and w <= layers[-1][-1]:
            layers.append([])
        layers[-1].append(w)
    return layers


class TestLogitsOff:
    @pytest.mark.parametrize(
        "m, rows",
        [
            (m, rows)
            for m in (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 2)
            for rows in sorted({0, 1, ROW_BLOCK, ROW_BLOCK + 1, m})
            if rows <= m
        ],
    )
    @pytest.mark.parametrize("held", [0, 5])
    def test_changes_no_bit_but_the_logits(self, gqa_model, m, rows, held):
        tokens = random_context(70, held + m)
        cache = prefill(gqa_model, tokens[:held]).cache if held else empty_cache(gqa_model)
        for head_mean in (False, True):
            assert_logits_off_changes_no_bit(
                gqa_model, cache, np.asarray(tokens[held:]), rows=rows, head_mean=head_mean
            )

    @pytest.mark.parametrize("rows", [0, 1, ROW_BLOCK + 6])
    def test_mask_stack_changes_no_bit_but_the_logits(self, gqa_model, rows):
        cfg = gqa_model.config
        tokens = random_context(71, 40 + ROW_BLOCK + 6)
        cache = prefill(gqa_model, tokens[:40]).cache
        stack = random_masks(72, 3, cfg.layers, cfg.kv_heads, 40)
        for head_mean in (False, True):
            assert_logits_off_changes_no_bit(
                gqa_model, cache, np.asarray(tokens[40:]), stack, rows, head_mean
            )

    @pytest.mark.parametrize("held", [0, 5])
    def test_last_layer_runs_only_the_blocks_holding_kept_rows(
        self, gqa_model, monkeypatch, held
    ):
        # M=130 runs blocks [0, 64), [64, 128), [128, 130) in every layer;
        # without logits the last one starts at the block of its first kept
        # row, runs none when it keeps none, and all of them for the mean
        m, layers = 2 * ROW_BLOCK + 2, gqa_model.config.layers
        tokens = random_context(73, held + m)
        cache = prefill(gqa_model, tokens[:held]).cache if held else empty_cache(gqa_model)
        new = np.asarray(tokens[held:])

        def widths(**kwargs):
            return softmax_widths_per_layer(monkeypatch, gqa_model, cache, new, **kwargs)

        every_block = [held + e for e in (ROW_BLOCK, 2 * ROW_BLOCK, m)]
        assert widths() == [every_block] * layers
        assert widths(logits=False) == [every_block] * (layers - 1)
        for k in (1, 2, 3, ROW_BLOCK + 2, ROW_BLOCK + 3, m):
            got = widths(attention_rows=k, logits=False)
            assert got == [every_block] * (layers - 1) + [every_block[(m - k) // ROW_BLOCK :]]
        assert widths(head_mean=True, logits=False) == [every_block] * layers


class TestDecodeStep:
    def test_matches_prefill_continuation(self, tiny_model):
        tokens = random_context(4, 8)
        full = prefill(tiny_model, tokens)
        partial = prefill(tiny_model, tokens[:-1])
        logits = decode_step(tiny_model, partial.cache, tokens[-1]).logits[0]
        assert np.abs(logits - full.logits[-1]).max() < 1e-8

    def test_empty_layer_attends_only_to_new_token(self, tiny_model):
        # with every layer empty, the appended token is the whole key set,
        # so decoding at any position (here 17, all rows evicted) reproduces
        # the single-token prefill
        single = prefill(tiny_model, [5])
        evicted = replace(empty_cache(tiny_model), next_positions=[17, 17])
        run = decode_step(tiny_model, evicted, 5)
        assert np.abs(run.logits[0] - single.logits[0]).max() < 1e-8
        assert all(run.cache.rows(l) == 1 for l in range(2))
        assert run.cache.next_positions == [18, 18]

    def test_compressed_cache_decodes_at_its_next_position(self, gqa_model):
        # at r=0.5 every layer holds fewer rows than the context had, so the
        # next position (the context length) is no layer's row count; the
        # token runs there, as the reference does, and not at the row count
        n, layers = 128, gqa_model.config.layers
        ts = TaskSet(mode="task-agnostic", observation_window=32)
        cache, _ = compress(
            gqa_model, random_context(29, n), ts, AggregationChoice(), 0.5, Policy(name="kvcompose")
        )
        assert cache.next_position == n
        assert all(cache.rows(l) < n for l in range(layers))
        run = decode_step(gqa_model, cache, 5)
        token = np.asarray([5])
        want_logits, _, want_cache = reference_forward(gqa_model, cache, token, np.asarray([n]))
        assert np.abs(run.logits - want_logits).max() < 1e-12
        assert run.cache.next_positions == want_cache.next_positions == [n + 1] * layers
        at_rows = reference_forward(gqa_model, cache, token, np.asarray([cache.rows(0)]))[0]
        assert np.abs(at_rows - want_logits).max() > 1e-9

    def test_one_empty_layer_is_usable(self, tiny_model):
        tokens = random_context(5, 6)
        res = prefill(tiny_model, tokens)
        keys, values = list(res.cache.keys), list(res.cache.values)
        keys[0], values[0] = keys[0][:, :0, :], values[0][:, :0, :]
        run = decode_step(tiny_model, replace(res.cache, keys=keys, values=values), 2)
        assert np.isfinite(run.logits).all()
        assert run.cache.rows(0) == 1  # only the appended token

    def test_full_width_mask_on_compacted_cache_rejected(self, tiny_model):
        # the keep-mask indexes rows of the full context, which compaction reorders and drops
        context = random_context(25, 16)
        ts = TaskSet(mode="task-agnostic", observation_window=4)
        cache, _ = compress(
            tiny_model, context, ts, AggregationChoice(), 0.5, Policy(name="kvcompose")
        )
        assert cache.rows(0) == 8
        keep = np.ones((1, 2, 2, 16), dtype=bool)
        with pytest.raises(UsageError, match="uncompacted"):
            _forward(tiny_model, cache, np.asarray([3]), keep)

    def test_key_row_permutation_invariance(self, tiny_model):
        # each head reordered independently, like composite slots are
        tokens = random_context(6, 10)
        res = prefill(tiny_model, tokens)
        baseline = decode_step(tiny_model, res.cache, 1).logits[0]
        rng = SeededRng(99)
        shuffled = res.cache.clone()
        for layer in range(2):
            for head in range(2):
                perm = rng.sample(10, 10)
                shuffled.keys[layer][head] = shuffled.keys[layer][head][perm]
                shuffled.values[layer][head] = shuffled.values[layer][head][perm]
        permuted = decode_step(tiny_model, shuffled, 1).logits[0]
        assert np.abs(permuted - baseline).max() <= 1e-6

    def test_structured_rows_preserved(self, tiny_model):
        tokens = random_context(7, 5)
        res = prefill(tiny_model, tokens)
        grown = decode_step(tiny_model, res.cache, 0).cache
        for layer in range(2):
            k, v = grown.keys[layer], grown.values[layer]
            assert k.shape[1] == v.shape[1] == 6
            assert k.shape[0] == 2  # one row count shared by every head


class TestGreedyDecode:
    def test_single_step_is_argmax(self, tiny_model):
        tokens = random_context(8, 6)
        res = prefill(tiny_model, tokens)
        expected = int(np.argmax(decode_step(tiny_model, res.cache, tokens[-1]).logits[0]))
        got = greedy_decode(tiny_model, res.cache, tokens[-1], steps=1)
        assert got == [expected]

    def test_deterministic(self, tiny_model):
        tokens = random_context(9, 6)
        res = prefill(tiny_model, tokens)
        a = greedy_decode(tiny_model, res.cache, 3, steps=5)
        b = greedy_decode(tiny_model, res.cache, 3, steps=5)
        assert a == b

    def test_matches_full_recompute_oracle(self, tiny_model):
        tokens = random_context(10, 6)
        res = prefill(tiny_model, tokens)
        generated = greedy_decode(tiny_model, res.cache, tokens[-1], steps=10)
        # oracle: re-run prefill over the whole growing sequence each step
        sequence = list(tokens) + [tokens[-1]]
        expected = []
        for _ in range(10):
            run = prefill(tiny_model, sequence)
            nxt = int(np.argmax(run.logits[-1]))
            expected.append(nxt)
            sequence.append(nxt)
        assert generated == expected

    def test_rejects_zero_steps(self, tiny_model):
        res = prefill(tiny_model, [1])
        with pytest.raises(UsageError):
            greedy_decode(tiny_model, res.cache, 1, steps=0)


def lookup_oracle(prompt, query):
    pairs = {prompt[i]: prompt[i + 1] for i in range(0, len(prompt), 2)}
    return pairs[query]


class TestInductionModel:
    def test_single_pair(self):
        m = construct_induction_model(1, 8)
        run = prefill(m, [0, 5])
        logits = decode_step(m, run.cache, 0).logits[0]
        assert int(np.argmax(logits)) == 5

    def test_lookup_matches_dictionary_oracle(self):
        m = construct_induction_model(8, 32)
        rng = SeededRng(11)
        keys = [list(induction_key_range(32))[i] for i in rng.sample(16, 8)]
        values = [list(induction_value_range(32))[rng.randint(16)] for _ in range(8)]
        prompt = [tok for pair in zip(keys, values) for tok in pair]
        query = keys[2]
        run = prefill(m, prompt)
        logits = decode_step(m, run.cache, query).logits[0]
        assert int(np.argmax(logits)) == lookup_oracle(prompt, query)

    def test_hundred_prompts_full_recall(self):
        m = construct_induction_model(8, 32)
        rng = SeededRng(123)
        hits = 0
        for _ in range(100):
            keys = [list(induction_key_range(32))[i] for i in rng.sample(16, 8)]
            values = [list(induction_value_range(32))[rng.randint(16)] for _ in range(8)]
            prompt = [tok for pair in zip(keys, values) for tok in pair]
            j = rng.randint(8)
            run = prefill(m, prompt)
            logits = decode_step(m, run.cache, keys[j]).logits[0]
            hits += int(np.argmax(logits)) == lookup_oracle(prompt, keys[j])
        assert hits == 100

    def test_positions_past_the_table_rejected(self):
        # the positional table has max_context rows, so _forward's one
        # position check also guards the table: a cache that ends at
        # max_context takes no further token
        model = construct_induction_model(4, 16)
        limit = model.config.max_context
        assert model.pos_embedding.shape[0] == limit
        cache = prefill(model, [0, 8] * (limit // 2)).cache
        assert cache.next_position == limit
        with pytest.raises(UsageError, match="max_context"):
            decode_step(model, cache, 1)

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(ConfigError):
            construct_induction_model(1, 7)  # odd vocab
        with pytest.raises(ConfigError):
            construct_induction_model(20, 32)  # more pairs than keys


class TestWeightGoldens:
    def test_frozen_weight_values_pin_draw_order(self):
        # first uniform of seed 0 is (16294208416658607535 >> 11) * 2**-53;
        # embedding fills first, then per-layer wq, wk, wv, wo
        cfg = ModelConfig(
            layers=1, query_heads=2, kv_heads=1, model_dim=8, head_dim=4, vocab_size=4, seed=0
        )
        m = init_model(cfg)
        assert m.embedding[0, 0] == 0.27104167178996286
        assert m.embedding[0, 1] == -0.048417017608423894
        assert m.wq[0, 0, 0, 0] == -0.3190492819689369
        assert m.wo[0, 1, 3, 7] == -0.1269563909585786
