from dataclasses import replace

import numpy as np
import pytest

from kvcompose.baselines import Policy, tova_select
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
    prefill_weights,
)
from kvcompose.numerics import SeededRng, exp_rows, softmax_rows
from kvcompose.scoring import AggregationChoice, TaskSet

from conftest import (
    prefill_keeping,
    random_context,
    rebuilt_rows,
    rotate_two_halves,
    stack_caches,
)


def forbid_layers(monkeypatch, model_):
    """Make any layer that runs raise: ``_forward``'s one per-block kernel,
    ``exp_rows``, becomes a sentinel. A positive control first shows that the
    sentinel bites on a valid call, so a patch on a name ``_forward`` no
    longer calls fails here rather than letting a rejection test pass unseen."""
    from kvcompose import model

    def no_layer(*args, **kwargs):
        raise AssertionError("a layer ran")

    monkeypatch.setattr(model, "exp_rows", no_layer)
    with pytest.raises(AssertionError, match="a layer ran"):
        prefill(model_, [1, 2, 3])


class TestConfig:
    def test_group_arithmetic(self):
        # four query heads share two kv heads: the weights hold two query
        # heads' projections per kv head
        cfg = ModelConfig(layers=2, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=10)
        m = init_model(cfg)
        assert m.wq.shape[1] == 2 * m.wk.shape[1] == 2 * m.wv.shape[1] == m.wo.shape[1]

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
        assert m.wq.shape == (2, 4, 32, 8)
        assert m.wk.shape == (2, 2, 32, 8)
        assert m.wv.shape == (2, 2, 32, 8)
        assert m.wo.shape == (2, 4, 8, 32)
        assert m.embedding.shape == (16, 32)
        assert np.isfinite(m.wq).all()


class TestRotate:
    @pytest.mark.parametrize("shape", [(6, 128, 8), (9, 6, 8, 8), (6, 504, 8)])
    def test_full_width_equals_two_halves_bit_for_bit(self, shape):
        # [cos, cos] and [-sin, sin] at full width: a*cos + b*(-sin) is
        # a*cos - b*sin exactly, and b*cos + a*sin is a*sin + b*cos
        n, half = shape[-2], shape[-1] // 2
        vecs = SeededRng(80).uniform_block(int(np.prod(shape))).reshape(shape) * 8.0 - 4.0
        inv_freq = 10000.0 ** (-np.arange(half) / half)
        angles = (np.arange(n) + 3)[:, None] * inv_freq
        cos, sin = np.cos(angles), np.sin(angles)
        got = _rotate(vecs, np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1))
        assert got.tobytes() == rotate_two_halves(vecs, cos, sin).tobytes()


class TestPrefill:
    def test_single_token_attention(self, tiny_model):
        res = prefill_keeping(tiny_model, [3], 1)
        for attn in res.attention:
            assert attn.shape == (4, 1, 1)
            assert np.array_equal(attn, np.ones((4, 1, 1)))

    def test_cache_shape(self, tiny_model):
        res = prefill(tiny_model, random_context(1, 10))
        for layer in range(2):
            assert res.cache.keys[layer].shape == (2, 10, 8)
            assert res.cache.values[layer].shape == (2, 10, 8)

    def test_attention_rows_are_distributions(self, tiny_model):
        res = prefill_keeping(tiny_model, random_context(2, 12), 12)
        for attn in res.attention:
            sums = attn.sum(axis=2)
            assert np.abs(sums - 1.0).max() < 1e-6
            assert (attn >= 0).all()

    def test_attention_above_the_diagonal_is_exactly_zero(self, gqa_model):
        n = 40
        res = prefill_keeping(gqa_model, random_context(4, n), n)
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
    def test_kept_rows_equal_their_rebuild(self, gqa_model, rows):
        # keeping attention moves no bit of the logits, keys or queries; the
        # last ``rows`` rows it keeps equal, bit for bit, those rebuilt from a
        # plain prefill's queries and keys, as a capture rebuilds its window
        tokens = random_context(6, 12)
        run, plain = prefill_keeping(gqa_model, tokens, rows), prefill(gqa_model, tokens)
        assert np.array_equal(run.logits, plain.logits)
        assert all(np.array_equal(a, b) for a, b in zip(run.cache.keys, plain.cache.keys))
        assert all(np.array_equal(a, b) for a, b in zip(run.queries, plain.queries, strict=True))
        for got, want in zip(rebuilt_rows(plain, rows), run.attention, strict=True):
            assert got.shape == want.shape == (4, rows, 12)
            assert np.array_equal(got, want)

    def test_default_keeps_no_attention(self, gqa_model):
        res = prefill(gqa_model, random_context(8, 12))
        assert [a.shape for a in res.attention] == [(4, 0, 12)] * gqa_model.config.layers
        assert [q.shape for q in res.queries] == [(4, 12, 8)] * gqa_model.config.layers


class TestForward:
    @pytest.mark.parametrize("held", [0, 5])
    def test_zero_new_tokens_rejected_before_any_layer_runs(self, tiny_model, monkeypatch, held):
        cache = empty_cache(tiny_model)
        if held:
            cache = prefill(tiny_model, random_context(11, held)).cache
        before = cache.clone()
        forbid_layers(monkeypatch, tiny_model)
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
        held = prefill(tiny_model, random_context(14, 5)).cache
        cache = replace(held, next_positions=[start] * 2)
        forbid_layers(monkeypatch, tiny_model)
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
        full = prefill_keeping(tiny_model, tokens, len(tokens))
        cache = prefill(tiny_model, tokens[:7]).cache
        res = _forward(tiny_model, cache, np.asarray(tokens[7:]), attention=True)
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
        ["plain", "attention", "head_mean", "stack", "row_blocks", "decode_step", "greedy"],
    )
    def test_leaves_the_cache_it_reads_as_it_was(self, gqa_model, form):
        # bit for bit, down to the identity of the cache's lists and arrays;
        # the grown cache is new and shares no memory with the held one
        cfg, held = gqa_model.config, 20
        m = {"row_blocks": ROW_BLOCK + 5, "decode_step": 1}.get(form, 3)
        tokens = random_context(12, held + m)
        run = prefill(gqa_model, tokens[:held])
        cache = run.cache
        lists = (cache.keys, cache.values, cache.next_positions)
        arrays = [id(a) for a in cache.keys + cache.values]
        before = cache.clone()
        kwargs = {
            "attention": {"attention": True},
            "stack": {"head_masks": random_masks(13, 2, cfg.layers, cfg.kv_heads, held)},
        }.get(form, {})
        if form == "decode_step":
            res = decode_step(gqa_model, cache, tokens[held])
        elif form == "greedy":
            res = greedy_decode(gqa_model, cache, tokens[held], m)
        elif form == "head_mean":  # tova's head means, rebuilt from the prefill's queries
            res = tova_select(run.queries, cache.keys, np.asarray([[held // 2] * cfg.layers]))
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
        if form == "head_mean":
            assert res.shape == (1, cfg.layers, held) and (res.sum(axis=-1) == held // 2).all()
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
    np.repeat, every product an einsum, rotary one half at a time, and the
    scale and the softmax division applied to the weights. Kept as the
    oracle for the grouped matmul kernel of ``_forward``; returns the
    logits, every layer's full attention and the grown cache."""
    cfg = model.config
    m = len(tokens)
    x = _embed(model, tokens, positions)
    group = cfg.query_heads // cfg.kv_heads
    attention, keys, values = [], [], []
    for layer in range(cfg.layers):
        q = np.einsum("nd,hde->hne", x, model.wq[layer])
        k_new = np.einsum("nd,hde->hne", x, model.wk[layer])
        v_new = np.einsum("nd,hde->hne", x, model.wv[layer])
        angles = positions[:, None] * model.inv_freq[None, :]
        qk = rotate_two_halves(np.concatenate([q, k_new]), np.cos(angles), np.sin(angles))
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


def assert_matches_reference(model, cache, tokens, positions, head_masks=None):
    # a pass that keeps its attention: every row, zero above the diagonal as
    # the reference computes them, and the queries; a single (L, H_kv, W)
    # mask runs as a G=1 stack, which grows no cache; the reference runs at
    # ``positions``, which _forward works out from the cache
    want_logits, want_attn, want_cache = reference_forward(
        model, cache, tokens, positions, head_masks
    )
    stack = None if head_masks is None else head_masks[None]
    res = _forward(model, cache, tokens, stack, attention=True)
    logits, attention, queries = res.logits, res.attention, res.queries
    if stack is not None:
        assert res.cache is None
        logits, attention, queries = logits[0], [a[0] for a in attention], [q[0] for q in queries]
    assert np.abs(logits - want_logits).max() < 1e-12
    for got, want in zip(attention, want_attn, strict=True):
        assert got.shape == want.shape
        assert (np.abs(got - want) < 1e-12).all()
    # the queries come back rotated and scaled by 1/sqrt(d_h): scored against the
    # reference's keys where it attends, their row softmax is its attention
    group = model.config.query_heads // model.config.kv_heads
    for q, want, k in zip(queries, want_attn, want_cache.keys, strict=True):
        scores = np.where(want > 0.0, q @ np.repeat(k, group, axis=0).swapaxes(1, 2), -np.inf)
        got = softmax_rows(scores.reshape(-1, scores.shape[-1]), 1.0).reshape(want.shape)
        assert np.abs(got - want).max() < 1e-12
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

    @pytest.mark.parametrize(
        "held, m",
        [(held, m) for held in (0, 37) for m in (ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5)]
        + [(30, ROW_BLOCK + 9), (30, 3 * ROW_BLOCK + 5)],
    )
    def test_row_block_edges_match_repeat_einsum(self, gqa_model, held, m):
        tokens = random_context(25, held + m)
        cache = prefill(gqa_model, tokens[:held]).cache if held else empty_cache(gqa_model)
        new, positions = np.asarray(tokens[held:]), np.arange(held, held + m)
        assert_matches_reference(gqa_model, cache, new, positions)

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
    # logits, attention and queries of its own G=1 call, and the cache
    # is left as it was
    cfg = model.config
    tokens = random_context(40, held + m)
    cache = prefill(model, tokens[:held]).cache
    before = cache.clone()
    stack = random_masks(41, 3, cfg.layers, cfg.kv_heads, held)
    stack[0] = True
    new = np.asarray(tokens[held:])
    res = _forward(model, cache, new, stack, attention=True)
    logits, attention, queries = res.logits, res.attention, res.queries
    assert logits.shape == (3, m, cfg.vocab_size)
    assert attention[0].shape == (3, cfg.query_heads, m, held + m)
    for g in range(3):
        want = _forward(model, before, new, stack[g : g + 1], attention=True)
        assert np.array_equal(logits[g], want.logits[0])
        for got, wanted in ((attention, want.attention), (queries, want.queries)):
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


def assert_stack_row_equals(res, row: int, want) -> None:
    """Row ``row`` of a token stack's result equals the 1-D result ``want`` bit
    for bit: logits, attention, queries, and, where the stack returns one, the
    grown cache's K/V and positions."""
    assert res.logits[row].tobytes() == want.logits.tobytes()
    for got, wanted in ((res.attention, want.attention), (res.queries, want.queries)):
        assert [a[row].tobytes() for a in got] == [b.tobytes() for b in wanted]
    if res.cache is None:
        return
    for got, wanted in ((res.cache.keys, want.cache.keys), (res.cache.values, want.cache.values)):
        assert [a[row].tobytes() for a in got] == [b.tobytes() for b in wanted]
    assert res.cache.next_positions == want.cache.next_positions


def assert_cache_unchanged(cache, before) -> None:
    for got, want in zip(cache.keys + cache.values, before.keys + before.values, strict=True):
        assert got.tobytes() == want.tobytes()


def assert_token_stack_equals_one_call_per_row(model, held, t, m, logits=True):
    # the stack's T rows share the held cache: each gives, bit for bit, the
    # logits, attention and queries of its own 1-D call; the stack returns no
    # cache, so its T copies of the held rows die with their layer, and the held
    # cache is left as it was
    cfg = model.config
    cache = prefill(model, random_context(43, held)).cache if held else empty_cache(model)
    before = cache.clone()
    tokens = np.asarray(random_context(44, t * m)).reshape(t, m)
    kwargs = {"attention": True, "logits": logits}
    res = _forward(model, cache, tokens, **kwargs)
    assert res.logits.shape == (t, m if logits else 0, cfg.vocab_size)
    assert res.attention[0].shape == (t, cfg.query_heads, m, held + m)
    assert res.cache is None
    for row in range(t):
        assert_stack_row_equals(res, row, _forward(model, before, tokens[row], **kwargs))
    assert_cache_unchanged(cache, before)


class TestTokenStack:
    def test_one_row_stack_equals_the_plain_pass(self, gqa_model):
        # positions and row blocks come from M, the last axis, not from T
        assert_token_stack_equals_one_call_per_row(gqa_model, held=20, t=1, m=8)

    @pytest.mark.parametrize("logits", [True, False])
    def test_stack_equals_one_call_per_row(self, gqa_model, logits):
        assert_token_stack_equals_one_call_per_row(gqa_model, held=32, t=4, m=8, logits=logits)

    def test_stack_over_several_row_blocks_equals_one_call_per_row(self, gqa_model):
        assert_token_stack_equals_one_call_per_row(gqa_model, held=0, t=2, m=ROW_BLOCK + 3)

    @pytest.mark.parametrize("shape", [(), (1, 2, 4)], ids=["scalar", "3-d"])
    def test_other_ranks_rejected_before_any_layer_runs(self, tiny_model, monkeypatch, shape):
        cache = prefill(tiny_model, random_context(45, 6)).cache
        forbid_layers(monkeypatch, tiny_model)
        with pytest.raises(UsageError, match=r"tokens must be \(M,\), or \(T, M\)"):
            _forward(tiny_model, cache, np.ones(shape, dtype=np.int64))

    def test_token_stack_with_a_mask_stack_rejected(self, tiny_model, monkeypatch):
        cfg = tiny_model.config
        cache = prefill(tiny_model, random_context(46, 6)).cache
        masks = np.ones((1, cfg.layers, cfg.kv_heads, 6), dtype=bool)
        _forward(tiny_model, cache, np.asarray([3, 4]), masks)  # the same mask on a 1-D pass runs
        forbid_layers(monkeypatch, tiny_model)
        with pytest.raises(UsageError, match="without head_masks"):
            _forward(tiny_model, cache, np.asarray([[3, 4]]), masks)


def stacked_prefills(model, t: int, n: int, seed: int):
    """T plain prefill caches of n random tokens each, and the same caches stacked (T,)."""
    caches = [prefill(model, random_context(seed + row, n)).cache for row in range(t)]
    return caches, stack_caches(caches)


class TestStackedCache:
    @pytest.mark.parametrize("m", [1, 3])
    def test_stack_after_a_stacked_cache_equals_one_call_per_row(self, gqa_model, m):
        # row i of a (T, M) stack runs after row i of the stacked cache alone:
        # logits, attention, queries and grown cache, bit for bit
        caches, stacked = stacked_prefills(gqa_model, 3, 20, seed=90)
        before = stacked.clone()
        tokens = np.asarray(random_context(93, 3 * m)).reshape(3, m)
        kwargs = {"attention": True}
        res = _forward(gqa_model, stacked, tokens, **kwargs)
        assert res.cache.keys[0].shape == (3, gqa_model.config.kv_heads, 20 + m, 8)
        for row, cache in enumerate(caches):
            assert_stack_row_equals(res, row, _forward(gqa_model, cache, tokens[row], **kwargs))
        assert_cache_unchanged(stacked, before)

    def test_lockstep_greedy_equals_one_chain_per_row(self, gqa_model):
        caches, stacked = stacked_prefills(gqa_model, 4, 12, seed=94)
        befores = [c.clone() for c in [stacked, *caches]]
        starts = np.asarray([3, 0, 63, 3])
        got = greedy_decode(gqa_model, stacked, starts, steps=6)
        assert got == [greedy_decode(gqa_model, c, int(s), 6) for c, s in zip(caches, starts)]
        assert all(isinstance(tok, int) for chain in got for tok in chain)
        for cache, before in zip([stacked, *caches], befores, strict=True):
            assert_cache_unchanged(cache, before)

    @pytest.mark.parametrize(
        "tokens, masked, match",
        [
            ([1, 2], False, "a stacked cache takes only its"),
            ([[1, 2]] * 3, False, "a stacked cache takes only its"),
            ([1], True, "a stacked cache takes only its"),
            ([[1], [2]], True, "without head_masks"),
        ],
        ids=["1-d", "wrong-t", "mask-1-d", "mask-2-d"],
    )
    def test_stacked_cache_takes_only_its_token_stack(
        self, gqa_model, monkeypatch, tokens, masked, match
    ):
        # refused before any layer runs: a stacked cache's rows each need their own token row
        cfg = gqa_model.config
        _, stacked = stacked_prefills(gqa_model, 2, 6, seed=96)
        masks = np.ones((2, cfg.layers, cfg.kv_heads, 6), bool) if masked else None
        forbid_layers(monkeypatch, gqa_model)
        with pytest.raises(UsageError, match=match):
            _forward(gqa_model, stacked, np.asarray(tokens), masks)


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
        blocked = prefill_keeping(gqa_model, tokens, n)
        monkeypatch.setattr(model, "ROW_BLOCK", n)
        monkeypatch.setattr(model, "CAUSAL", np.arange(n)[:, None] < np.arange(n))
        whole = prefill_keeping(gqa_model, tokens, n)
        assert np.array_equal(blocked.logits, whole.logits)
        for name in ("attention", "queries"):
            pairs = zip(getattr(blocked, name), getattr(whole, name), strict=True)
            assert all(np.array_equal(a, b) for a, b in pairs)
        for name in ("keys", "values"):
            pairs = zip(getattr(blocked.cache, name), getattr(whole.cache, name), strict=True)
            assert all(np.array_equal(a, b) for a, b in pairs)


class TestDeferredDivision:
    def test_peaked_model_matches_repeat_einsum(self, gqa_model):
        # wq and wk scaled x64 after the draw put most of each row on one
        # entry; dividing each block's (rows, d_h) output, not its weights,
        # by the row sums still holds to 1e-12, and every kept row sums to 1
        peaked = replace(gqa_model, wq=gqa_model.wq * 64.0, wk=gqa_model.wk * 64.0)
        tokens = np.asarray(random_context(29, ROW_BLOCK + 20))
        assert_matches_reference(peaked, empty_cache(peaked), tokens, np.arange(len(tokens)))
        res = _forward(peaked, empty_cache(peaked), tokens, attention=True)
        for attn in res.attention:
            assert attn.max(axis=-1).mean() > 0.5
            assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("held, m", [(0, 12), (5, ROW_BLOCK + 5)])
    def test_kept_rows_and_means_are_softmax_of_the_prescaled_scores(
        self, gqa_model, monkeypatch, held, m
    ):
        # the queries carry 1/sqrt(d_h), so softmax_rows(scores, 1.0) of each
        # block's scores is, bit for bit, its kept rows and, for a prefill,
        # the block prefill_weights rebuilds from the queries and keys and,
        # averaged over query heads, tova's rows of the head mean
        from kvcompose import model

        cfg = gqa_model.config
        tokens = random_context(74, held + m)
        cache = prefill(gqa_model, tokens[:held]).cache if held else empty_cache(gqa_model)
        blocks = []

        def recording(scores):
            blocks.append(scores.copy())
            return exp_rows(scores)

        monkeypatch.setattr(model, "exp_rows", recording)
        new = np.asarray(tokens[held:])
        res = _forward(gqa_model, cache, new, attention=True)
        starts = range(0, m, ROW_BLOCK)
        assert len(blocks) == cfg.layers * len(starts)
        passed, rebuilt = list(blocks), {}
        if not held:
            for s, _, layer, w in prefill_weights(res.queries, res.cache.keys, 0):
                rebuilt[layer, s] = w
        for i, scores in enumerate(passed):
            layer, s = i // len(starts), starts[i % len(starts)]
            e = min(s + ROW_BLOCK, m)
            want = softmax_rows(scores, 1.0).reshape(cfg.query_heads, e - s, held + e)
            kept = res.attention[layer][:, s:e, : held + e]
            assert kept.tobytes() == want.tobytes()
            if not held:
                assert rebuilt[layer, s].tobytes() == want.tobytes()
                assert rebuilt[layer, s].mean(axis=-3).tobytes() == want.mean(axis=0).tobytes()


def assert_logits_off_changes_no_bit(model, cache, tokens, stack=None, rows=0):
    # everything but the logits matches the default call bit for bit, the
    # attention too, kept whole when a caller reads ``rows`` > 0 of it, and
    # its last ``rows`` rows; the logits keep their shape's other axes and
    # have no rows
    full = _forward(model, cache, tokens, stack, attention=rows > 0)
    cut = _forward(model, cache, tokens, stack, attention=rows > 0, logits=False)
    assert cut.logits.shape == full.logits.shape[:-2] + (0, model.config.vocab_size)
    assert [a.shape for a in cut.attention] == [a.shape for a in full.attention]
    assert all(np.array_equal(a, b) for a, b in zip(cut.attention, full.attention, strict=True))
    if rows:
        tails = zip(cut.attention, full.attention, strict=True)
        assert all(a[..., -rows:, :].tobytes() == b[..., -rows:, :].tobytes() for a, b in tails)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(cut.queries, full.queries, strict=True))
    if stack is not None:
        assert cut.cache is None
        return
    assert cut.cache.next_positions == full.cache.next_positions
    for name in ("keys", "values"):
        pairs = zip(getattr(cut.cache, name), getattr(full.cache, name), strict=True)
        assert all(a.tobytes() == b.tobytes() for a, b in pairs)


def block_widths_per_layer(monkeypatch, *args, **kwargs):
    """The score width (held rows plus the block's end) of every
    ``exp_rows`` call, one per row block, of ``_forward(*args, **kwargs)``,
    split by layer: a new layer starts where the width stops growing."""
    from kvcompose import model

    widths = []

    def recording(scores):
        widths.append(scores.shape[-1])
        return exp_rows(scores)

    with monkeypatch.context() as patch:
        patch.setattr(model, "exp_rows", recording)
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
        assert_logits_off_changes_no_bit(gqa_model, cache, np.asarray(tokens[held:]), rows=rows)

    @pytest.mark.parametrize("rows", [0, 1, ROW_BLOCK + 6])
    def test_mask_stack_changes_no_bit_but_the_logits(self, gqa_model, rows):
        cfg = gqa_model.config
        tokens = random_context(71, 40 + ROW_BLOCK + 6)
        cache = prefill(gqa_model, tokens[:40]).cache
        stack = random_masks(72, 3, cfg.layers, cfg.kv_heads, 40)
        assert_logits_off_changes_no_bit(gqa_model, cache, np.asarray(tokens[40:]), stack, rows)

    @pytest.mark.parametrize("held", [0, 5])
    def test_last_layer_runs_only_the_blocks_holding_kept_rows(
        self, gqa_model, monkeypatch, held
    ):
        # M=130 runs blocks [0, 64), [64, 128), [128, 130) in every layer;
        # without logits the last one runs every block when it keeps its
        # attention and none when it does not
        m, layers = 2 * ROW_BLOCK + 2, gqa_model.config.layers
        tokens = random_context(73, held + m)
        cache = prefill(gqa_model, tokens[:held]).cache if held else empty_cache(gqa_model)
        new = np.asarray(tokens[held:])

        def widths(**kwargs):
            return block_widths_per_layer(monkeypatch, gqa_model, cache, new, **kwargs)

        every_block = [held + e for e in (ROW_BLOCK, 2 * ROW_BLOCK, m)]
        assert widths() == widths(attention=True) == [every_block] * layers
        assert widths(attention=True, logits=False) == [every_block] * layers
        assert widths(logits=False) == [every_block] * (layers - 1)


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
        assert all(type(tok) is int for tok in generated)  # a scalar start: one list of ints
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
