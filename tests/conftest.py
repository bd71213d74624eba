import sys
from dataclasses import replace

import numpy as np
import pytest

from kvcompose import model as kvmodel
from kvcompose.baselines import pyramid_budgets, tova_select
from kvcompose.composer import CompressedCache
from kvcompose.evaluator import (
    TaskInstance,
    _forced_steps,
    _hit_rate,
    _log_softmax,
    make_recall_tasks,
    prepare_task,
)
from kvcompose.model import (
    KVCache,
    ModelConfig,
    _forward,
    check_positions,
    construct_induction_model,
    empty_cache,
    greedy_decode,
    init_model,
    prefill,
    prefill_weights,
)
from kvcompose.numerics import SeededRng, argsort_desc, softmax_rows
from kvcompose.scoring import AttentionCapture, TaskSet, collect_attention, reduce_axis


@pytest.fixture
def tiny_model():
    return init_model(
        ModelConfig(
            layers=2,
            query_heads=4,
            kv_heads=2,
            model_dim=32,
            head_dim=8,
            vocab_size=64,
            seed=7,
        )
    )


@pytest.fixture
def gqa_model():
    """The 4-layer grouped-query shape of the random demo model (two query
    heads per kv head)."""
    return init_model(
        ModelConfig(
            layers=4,
            query_heads=4,
            kv_heads=2,
            model_dim=32,
            head_dim=8,
            vocab_size=64,
            seed=7,
        )
    )


def stack_caches(caches):
    """Plain caches of equal row counts as one cache stacked (T,), row i being caches[i]."""
    keys = [np.stack(layer) for layer in zip(*(c.keys for c in caches))]
    values = [np.stack(layer) for layer in zip(*(c.values for c in caches))]
    return KVCache(keys, values, list(caches[0].next_positions))


def agreement_tasks_oracle(model, count: int, context_len: int, steps: int, seed: int):
    """``make_agreement_tasks`` as it was before its chains ran in lockstep: one
    prefill and one greedy chain per task, in task order."""
    check_positions(model, context_len + steps, "context_len + teacher_steps")
    rng = SeededRng(seed)
    tasks = []
    for t in range(count):
        prompt = tuple(rng.randint(model.config.vocab_size) for _ in range(context_len))
        run = prefill(model, list(prompt))
        start = int(np.argmax(run.logits[-1]))
        continuation = greedy_decode(model, run.cache, start, steps)
        tasks.append(
            TaskInstance(
                id=f"agreement-{t}",
                kind="agreement",
                prompt=prompt,
                query=(),
                answer=(start, *continuation),
            )
        )
    return tasks


def random_context(seed: int, length: int, vocab: int = 64) -> list[int]:
    rng = SeededRng(seed)
    return [rng.randint(vocab) for _ in range(length)]


def scalar_uniform(rng: SeededRng) -> float:
    """The scalar draw that ``SeededRng.uniform_block`` vectorizes: the next output's
    top 53 bits, scaled to [0, 1)."""
    return (rng.next_u64() >> 11) * 2.0**-53


def random_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    rng = SeededRng(seed)
    return (rng.uniform_block(rows * cols) * 2.0 - 1.0).reshape(rows, cols)


def rotate_two_halves(vecs: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary rotation of (..., n, d_h) vectors by their positions' (n, d_h/2)
    cos and sin, one half at a time: the formula ``model._rotate`` computes
    at full width, kept as its oracle."""
    half = vecs.shape[-1] // 2
    a, b = vecs[..., :half], vecs[..., half:]
    return np.concatenate([a * cos - b * sin, a * sin + b * cos], axis=-1)


def hand_capture(a: np.ndarray, raw: np.ndarray) -> AttentionCapture:
    """A capture of given (L, H_q, M, N) rows ``a`` and (L, H_kv, N) raw value norms,
    with no model, cache or queries: its lazy rows are set, not computed."""
    window = TaskSet("task-agnostic", observation_window=a.shape[2])
    cap = AttentionCapture(None, window, None, None, raw)
    cap.A = a
    return cap


def selector_read(cap: AttentionCapture, reads: str) -> np.ndarray:
    """What one kind of selector reads of ``cap``: its task rows ``A`` ("rows": kvcompose,
    unstructured, snapkv, pyramid), a replay of tova's head means on its queries
    ("head-mean"), or nothing computed ("none": streaming and random read its shape)."""
    if reads == "rows":
        return cap.A
    if reads == "head-mean":
        budgets = np.full((1, len(cap.queries)), cap.context_len // 2)
        return tova_select(cap.queries, cap.cache.keys, budgets)
    return cap.value_norms_raw


def kind_capture(gqa_model, kind: str):
    """An agreement capture of the random model (two kv heads) or a recall
    capture of the induction model (one kv head)."""
    if kind == "agreement":
        ts = TaskSet(mode="task-agnostic", observation_window=8)
        return collect_attention(gqa_model, random_context(61, 32), ts)
    task = make_recall_tasks(8, 32, 1, seed=21)[0]
    return prepare_task(construct_induction_model(8, 32), task, "task-aware", 32)


def plain_logits(model, cache, task) -> np.ndarray:
    """(steps, vocab) logits of a task's scored steps by one plain unmasked pass of
    ``model._forward`` on ``cache``, apart from the evaluator's mask-stack path."""
    inputs, targets = _forced_steps(task)
    return _forward(model, cache, np.asarray(inputs)).logits[-len(targets) :]


def reward(model, cache, task) -> float:
    """Score in [0, 1]: exact recall, or per-step argmax agreement, of one plain
    unmasked run on ``cache``: the oracle for a row of the evaluator's mask stacks."""
    return _hit_rate(plain_logits(model, cache, task), task)


def full_cache_reference(model, task, capture) -> tuple[float, np.ndarray]:
    """(full_reward, reference_logp) of a task by the plain unmasked run on its
    capture's full cache: the oracle for the evaluator's all-kept row 0."""
    cache = capture.cache
    return reward(model, cache, task), _log_softmax(plain_logits(model, cache, task))


def allocation_oracle(importance: np.ndarray, budget: int) -> list[int]:
    """Per-layer counts of a brute-force pool sort of every (layer, slot) score,
    with the (score desc, layer, slot) tie rule."""
    layers, n = importance.shape
    pool = [(-importance[l, k], l, k) for l in range(layers) for k in range(n)]
    pool.sort()
    counts = [0] * layers
    for _, l, _ in pool[:budget]:
        counts[l] += 1
    return counts


def head_mean_oracle(queries: list[np.ndarray], keys: list[np.ndarray]) -> np.ndarray:
    """(L, N, N) prefill attention averaged over query heads, from a prefill's per-layer
    (H_q, N, d_h) queries and (H_kv, N, d_h) keys: each ``ROW_BLOCK`` of query rows scored
    in the pass's own grouped product, then masked and put through ``softmax_rows`` as a
    whole row range, never through ``model._block_weights``. The plain mean tova replays."""
    layers, (h_q, n, d_h), h_kv = len(queries), queries[0].shape, keys[0].shape[0]
    out = np.zeros((layers, n, n))
    for layer, (q, k) in enumerate(zip(queries, keys)):
        for s in range(0, n, kvmodel.ROW_BLOCK):
            e = min(s + kvmodel.ROW_BLOCK, n)
            scores = q[:, s:e].reshape(h_kv, -1, d_h) @ k[:, :e].swapaxes(1, 2)
            scores = scores.reshape(h_q, e - s, e)
            scores[:, np.arange(s, e)[:, None] < np.arange(e)] = -np.inf  # causal
            weights = softmax_rows(scores.reshape(-1, e), 1.0).reshape(h_q, e - s, e)
            out[layer, s:e, :e] = weights.mean(axis=0)
    return out


def rebuilt_rows(run, rows: int) -> list[np.ndarray]:
    """Each layer's last ``rows`` (H_q, rows, N) attention rows of a prefill ``run``,
    rebuilt from its queries and keys by ``model.prefill_weights``, as a capture does."""
    n = run.cache.keys[0].shape[-2]
    out = [np.zeros((q.shape[0], rows, n)) for q in run.queries]
    for start, stop, layer, w in prefill_weights(run.queries, run.cache.keys, n - rows):
        out[layer][:, start - n + rows : stop - n + rows, :stop] = w
    return out


def tova_oracle(rows: np.ndarray, budget: int) -> list[int]:
    """One layer's TOVA replay, step by step with explicit set bookkeeping:
    each step over budget evicts the least-attended kept token (the lowest
    index on ties). The per-layer form that the all-layer replay replaced."""
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


# The baselines' selectors as they were before they returned keep-masks: each
# gives, per grid ratio, one ascending int64 row array per layer, (H_kv, n_l)
# or (n_l,) for every head. The mask selectors must mark exactly these rows.


def streaming_rows(n: int, budget: int, sinks: int) -> list[int]:
    """First ``sinks`` tokens plus the trailing window, as a set union."""
    return sorted(set(range(sinks)) | set(range(n - (budget - sinks), n)))


def tova_rows(rows: np.ndarray, budgets: np.ndarray) -> list[list[np.ndarray]]:
    """The (G, L) budgets' survivors of one replay with a (G*L, N) keep-cost,
    regrouped from its ``flatnonzero`` rows into one list per ratio."""
    layers, n = rows.shape[:2]
    flat = budgets.reshape(-1)
    layer = np.tile(np.arange(layers), len(budgets))
    first = int(min(flat.min(), n))
    cost = np.tile(np.where(np.arange(n) < first, 0.0, np.inf), (flat.size, 1))
    for m in range(first, n):
        cost[:, m] = 0.0
        over = np.flatnonzero(flat <= m)
        worst = (rows[layer[over], m] + cost[over]).argmin(axis=1)
        cost[over, worst] = np.inf
    kept = [np.flatnonzero(c == 0.0) for c in cost]
    return [kept[g : g + layers] for g in range(0, len(kept), layers)]


def snapkv_rows(cap, budgets, window: int) -> list[list[np.ndarray]]:
    """Each head's top ``b - window`` tokens before the window, concatenated
    with the window and sorted."""
    n, layers = cap.context_len, cap.A.shape[0]
    kv_heads = cap.value_norms_raw.shape[1]
    rows = min(window, cap.task_len)
    grouped = cap.A.reshape(layers, kv_heads, -1, cap.task_len, n)[..., -rows:, :]
    scores = reduce_axis(grouped, "avg", axis=2).max(axis=2)
    order = argsort_desc(scores[:, :, : n - window])
    tail = np.broadcast_to(np.arange(n - window, n), (kv_heads, window))
    return [
        [
            np.sort(np.concatenate([order[layer, :, : b - window], tail], axis=1), axis=1)
            for layer, b in enumerate(row)
        ]
        for row in budgets
    ]


def baseline_rows(cap, policy, totals) -> list[list[np.ndarray]]:
    """Each total's kept rows per layer: the row-list dispatch of the baselines."""
    layers, heads, n = cap.value_norms_raw.shape
    totals = np.asarray(totals, dtype=np.int64)[:, None]
    uniform = totals // layers + (np.arange(layers) < totals % layers)
    if policy.name == "tova":
        return tova_rows(head_mean_oracle(cap.queries, cap.cache.keys), uniform)
    if policy.name == "streaming":
        return [
            [np.asarray(streaming_rows(n, b, min(policy.sinks, b)), dtype=np.int64) for b in row]
            for row in uniform
        ]
    if policy.name == "random":
        # one uniform key per (layer, head, slot), drawn in that order; each head keeps
        # its b highest keys, ties to the lower slot (a stable descending sort)
        rng = SeededRng(policy.seed)
        keys = [
            [[scalar_uniform(rng) for _ in range(n)] for _ in range(heads)] for _ in range(layers)
        ]
        orders = [[sorted(range(n), key=lambda c: -head[c]) for head in layer] for layer in keys]
        return [
            [
                np.asarray([sorted(order[:b]) for order in orders[layer]], dtype=np.int64)
                for layer, b in enumerate(row)
            ]
            for row in uniform
        ]
    if policy.name == "pyramid":
        uniform = [pyramid_budgets(layers, n, int(t), policy.shape) for t in totals[:, 0]]
    return [snapkv_rows(cap, [b], int(min(policy.window, b.min(), n)))[0] for b in uniform]


def mark_rows(grid_rows: list[list[np.ndarray]], kv_heads: int, n: int) -> np.ndarray:
    """(G, L, H_kv, N) bool masks of per-ratio, per-layer rows, one (ratio, layer) at a time."""
    masks = np.zeros((len(grid_rows), len(grid_rows[0]), kv_heads, n), dtype=bool)
    heads = np.arange(kv_heads)[:, None]
    for mask, rows in zip(masks, grid_rows):
        for layer, take in enumerate(rows):
            mask[layer, heads, take] = True
    return masks


def prefill_keeping(model, tokens, rows: int, **options):
    """A prefill that keeps its attention, with ``_forward``'s other options (``logits``):
    ``_forward`` on an empty cache, as a capture runs it, each layer's attention cut to
    its last ``rows`` query rows."""
    run = _forward(model, empty_cache(model), np.asarray(tokens), attention=True, **options)
    return replace(run, attention=[a[..., a.shape[-2] - rows :, :] for a in run.attention])


def count_calls(monkeypatch, module, name: str, record=lambda *args: args) -> list:
    """Record ``record`` of the arguments of every call to ``module.name``,
    through each kvcompose module that binds it; a None record is skipped."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        entry = record(*args)
        if entry is not None:
            calls.append(entry)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("kvcompose") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def count_prefills(monkeypatch) -> list[list[int]]:
    """The tokens of every forward pass from position 0, in call order: each
    prefill, plain or a capture's, as ``_forward`` on an empty cache."""
    return count_calls(
        monkeypatch, kvmodel, "_forward",
        lambda model, cache, tokens, *options: (
            np.asarray(tokens).tolist() if cache.next_position == 0 else None
        ),
    )


@pytest.fixture
def proj_computations(monkeypatch) -> list:
    """Every capture whose projected value norms get computed, once a computation:
    the lazy attribute's own function is counted, and its caching left as it is."""
    computed, lazy = [], AttentionCapture.__dict__["value_norms_proj"]
    compute = lazy.func

    def counting(cap):
        computed.append(cap)
        return compute(cap)

    monkeypatch.setattr(lazy, "func", counting)
    return computed


def make_cache(seed, layers=2, kv_heads=2, head_dim=4, rows=(3, 2)) -> CompressedCache:
    """A compressed cache of float32-exact K/V and drawn provenance, ``rows[l]``
    slots per head in layer l, for the KVCF format tests."""
    rng = SeededRng(seed)
    keys, values, prov = [], [], []
    for n_l in rows:
        count = kv_heads * n_l * head_dim
        keys.append(
            np.float32(rng.uniform_block(count)).astype(np.float64).reshape(kv_heads, n_l, head_dim)
        )
        values.append(
            np.float32(rng.uniform_block(count)).astype(np.float64).reshape(kv_heads, n_l, head_dim)
        )
        prov.append(
            np.asarray(
                [[rng.randint(max(n_l * 2, 1)) for _ in range(n_l)] for _ in range(kv_heads)],
                dtype=np.int64,
            )
        )
    return CompressedCache(
        keys=keys,
        values=values,
        next_positions=[2 * max(rows)] * layers,  # past every provenance drawn above
        provenance=prov,
    )
