"""Small decoder-only transformer with grouped-query attention.

The model is deliberately minimal: token embeddings (tied with the output
head), a stack of residual attention layers with rotary positions, and
nothing else. Weights are drawn from a counter-based generator so two
machines given the same config build bit-identical models.

Caches are ragged across layers: every layer stores the same number of
rows for each of its kv heads (the structured constraint), but layers may
hold different row counts after compression. Keys are cached post-rotation
at their original absolute positions and are never re-rotated, which makes
attention invariant to row order within a head.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, UsageError
from .numerics import SeededRng, exp_rows

ROTARY_BASE = 10000.0
ROW_BLOCK = 64  # new query rows each layer scores at a time in _forward
CAUSAL = np.arange(ROW_BLOCK)[:, None] < np.arange(ROW_BLOCK)  # True above the diagonal


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    query_heads: int
    kv_heads: int
    model_dim: int
    head_dim: int
    vocab_size: int
    seed: int = 0
    max_context: int = 512

    def __post_init__(self):
        counts = {
            "layers": self.layers,
            "query_heads": self.query_heads,
            "kv_heads": self.kv_heads,
            "model_dim": self.model_dim,
            "head_dim": self.head_dim,
            "vocab_size": self.vocab_size,
            "max_context": self.max_context,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.query_heads % self.kv_heads != 0:
            raise ConfigError(
                f"query_heads ({self.query_heads}) must be a multiple of "
                f"kv_heads ({self.kv_heads})"
            )
        if self.model_dim != self.query_heads * self.head_dim:
            raise ConfigError(
                f"model_dim ({self.model_dim}) must equal "
                f"query_heads*head_dim ({self.query_heads * self.head_dim})"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary pairs, got {self.head_dim}")


@dataclass(frozen=True)
class Model:
    """Immutable after construction; safe to share across threads."""

    config: ModelConfig
    embedding: np.ndarray  # (vocab, d)
    wq: np.ndarray  # (L, H_q, d, d_h)
    wk: np.ndarray  # (L, H_kv, d, d_h)
    wv: np.ndarray  # (L, H_kv, d, d_h)
    wo: np.ndarray  # (L, H_q, d_h, d)
    inv_freq: np.ndarray  # (d_h/2,) rotary inverse frequencies
    pos_embedding: np.ndarray | None = None  # (max_context, d) absolute table


@dataclass(frozen=True)
class KVCache:
    """Per-layer K/V rows, uniform across a layer's heads, or T such stacked; nothing writes one."""

    keys: list[np.ndarray]  # per layer (H_kv, n_l, d_h), or (T, H_kv, n_l, d_h) stacked
    values: list[np.ndarray]  # per layer, as keys
    next_positions: list[int]  # per layer, position of the next appended token

    @property
    def layer_count(self) -> int:
        return len(self.keys)

    @property
    def next_position(self) -> int:
        return max(self.next_positions)

    def rows(self, layer: int) -> int:
        return self.keys[layer].shape[-2]

    def clone(self) -> "KVCache":
        """A copy owning its arrays; its one caller is perfbench's compress-long set-up."""
        return replace(
            self,
            keys=[k.copy() for k in self.keys],
            values=[v.copy() for v in self.values],
            next_positions=list(self.next_positions),
        )


@dataclass
class ForwardResult:
    """One pass's outputs; a capture rescores ``queries`` against the cache's keys."""

    cache: KVCache | None  # the held rows plus the new ones; None if a stack shared them
    logits: np.ndarray  # (M, vocab), or (T or G, M, vocab) under a stack; 0 rows if not asked for
    attention: list[np.ndarray]  # per layer (..., H_q, M, R+M) if asked for, else 0 rows
    queries: list[np.ndarray]  # per layer (..., H_q, M, d_h), rotated and scaled by 1/sqrt(d_h)


def _rotate(vecs: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary rotation of (..., n, d_h) vectors by their positions' [cos, cos], [-sin, sin]."""
    half = vecs.shape[-1] // 2
    out = np.concatenate([vecs[..., half:], vecs[..., :half]], axis=-1)  # halves swapped
    out *= sin
    out += vecs * cos
    return out


def _embed(model: Model, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
    x = model.embedding[tokens]  # check_tokens has checked the ids and positions
    return x if model.pos_embedding is None else x + model.pos_embedding[positions]


def init_model(config: ModelConfig) -> Model:
    """Build a model with weights drawn from SeededRng(config.seed).

    Tensors are filled in a fixed order (embedding, then per layer
    wq, wk, wv, wo) with uniform values in [-1, 1) scaled by
    1/sqrt(model_dim), so the layout is stable across implementations.
    """
    rng = SeededRng(config.seed)
    scale = 1.0 / np.sqrt(config.model_dim)

    def draw(*shape: int) -> np.ndarray:
        n = int(np.prod(shape))
        return ((rng.uniform_block(n) * 2.0 - 1.0) * scale).reshape(shape)

    L, Hq, Hkv = config.layers, config.query_heads, config.kv_heads
    d, dh = config.model_dim, config.head_dim
    embedding = draw(config.vocab_size, d)
    wq = np.empty((L, Hq, d, dh))
    wk = np.empty((L, Hkv, d, dh))
    wv = np.empty((L, Hkv, d, dh))
    wo = np.empty((L, Hq, dh, d))
    for layer in range(L):
        wq[layer] = draw(Hq, d, dh)
        wk[layer] = draw(Hkv, d, dh)
        wv[layer] = draw(Hkv, d, dh)
        wo[layer] = draw(Hq, dh, d)
    half = dh // 2
    inv_freq = ROTARY_BASE ** (-np.arange(half, dtype=np.float64) / half)
    return Model(config, embedding, wq, wk, wv, wo, inv_freq)


def check_positions(model: Model, count: int, what: str) -> None:
    """Refuse ``what``, ``count`` positions from 0, past [0, max_context) before any is run."""
    if count > model.config.max_context:
        raise ConfigError(f"{what} = {count} exceeds max_context {model.config.max_context}")


def check_tokens(model: Model, tokens: np.ndarray, start: int) -> np.ndarray:
    """Positions ``start`` onward of M >= 1 ``tokens``, refusing any past max_context or vocab."""
    cfg, positions = model.config, start + np.arange(tokens.shape[-1])
    if positions[0] < 0 or positions[-1] >= cfg.max_context:
        raise UsageError(
            f"positions {positions[0]} to {positions[-1]} leave [0, max_context {cfg.max_context})"
        )
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        low, high = int(tokens.min()), int(tokens.max())
        raise UsageError(f"token ids must lie in [0, {cfg.vocab_size}), got range [{low}, {high}]")
    return positions


def empty_cache(model: Model) -> KVCache:
    cfg = model.config
    shape = (cfg.kv_heads, 0, cfg.head_dim)
    return KVCache(
        keys=[np.zeros(shape) for _ in range(cfg.layers)],
        values=[np.zeros(shape) for _ in range(cfg.layers)],
        next_positions=[0] * cfg.layers,
    )


def _block_weights(q, k, held: int, s: int, e: int, skip: int = 0, visible=None):
    """Weights before their division, and (..., 1) row sums, of new query rows [s + skip, e)
    of ``q`` (..., H_q, M, d_h) over the ``held`` rows and new rows [0, e) of ``k`` (..., H_kv,
    R+M, d_h): the one home of a row block's scores, masks and exponentials, where the causal
    mask is ``CAUSAL`` cut to the block. The product runs at the full [s, e) shape, so ``skip``
    moves no bit: its rows drop before ``exp_rows``, whose max, exp and sum of a row read that
    row alone. ``visible`` (..., H_kv, 1, W) hides held row c < W where False. Query head h
    reads kv head h // group: one batched matmul per kv head serves its group's
    (group*rows, d_h) block of query rows."""
    grid, h_kv, width = q.shape[:-3], k.shape[-3], held + e  # every later row is masked
    q_rows = q[..., s:e, :].reshape(*grid, h_kv, -1, q.shape[-1])  # each kv head's query rows
    scores = (q_rows @ k[..., :width, :].swapaxes(-1, -2)).reshape(*q.shape[:-2], e - s, width)
    np.copyto(scores[..., held + s :], -np.inf, where=CAUSAL[: e - s, : e - s])
    if visible is not None:
        grouped = scores.reshape(*grid, h_kv, -1, width)
        np.copyto(grouped[..., : visible.shape[-1]], -np.inf, where=~visible)
    rows = scores[..., skip:, :]
    ex, sums = exp_rows(rows.reshape(-1, width))
    return ex.reshape(rows.shape), sums.reshape(*rows.shape[:-1], 1)


def prefill_weights(queries: list[np.ndarray], keys: list[np.ndarray], first: int):
    """Rows ``first`` to N of a prefill's attention, rebuilt from its per-layer (H_q, N, d_h)
    ``queries`` and N-row ``keys`` through ``_forward``'s own row blocks, so the bits are the
    pass's: yields (start, stop, layer, weights), block by block and layer by layer, where
    ``weights`` are the layer's (H_q, stop - start, stop) rows; later columns are causally 0."""
    n = keys[0].shape[-2]
    block = min(n, ROW_BLOCK)
    for s in range(first - first % block, n if first < n else 0, block):
        e, skip = min(s + block, n), max(first - s, 0)
        for layer, (q, k) in enumerate(zip(queries, keys)):
            yield s + skip, e, layer, np.divide(*_block_weights(q, k, 0, s, e, skip))


def _forward(
    model: Model,
    cache: KVCache,
    tokens: np.ndarray,
    head_masks: np.ndarray | None = None,
    attention: bool = False,
    logits: bool = True,
) -> ForwardResult:
    """Run M >= 1 tokens after the rows held in ``cache``, which it reads and never writes.

    Each layer may already hold any number of rows R. The new rows attend
    causally to each other and freely to the R held rows, so prefill is
    M=N on an empty cache and a decode step is M=1. The result's cache is
    new: the held rows plus the new ones. ``tokens`` is (M,) or a (T, M) stack of T
    passes after the same held rows, or each after its own row of a cache stacked
    (T,), which takes nothing else; ``head_masks``, when given,
    is a (G, L, H_kv, W) bool stack: False at [g, l, h, c] hides held row
    c < W of kv head h in layer l from grid row g (score forced to -inf).
    The two stacks do not combine. Under either, outputs gain a leading T or
    G axis. The cache is the grown stack after a stacked cache, and None where
    a stack shares one cache's held rows (a token stack after one cache, or a
    mask stack), so no layer's broadcast or masked K/V outlives it. With
    ``attention`` each layer keeps its whole (..., H_q, M, R+M) attention, and
    otherwise returns a 0-row array; every layer's rotated, pre-scaled queries come
    back, from which ``prefill_weights`` rebuilds any row of a prefill. New rows take
    positions ``cache.next_position`` onward, whatever R is; only here is a position
    set, and only model.py checks [0, ``max_context``).
    With ``logits`` off the last layer still adds its K/V rows, but runs its row blocks
    only if it keeps attention and skips its output projection; the logits come back as
    an empty (..., 0, vocab) array.

    Each layer runs its new rows in blocks of ``ROW_BLOCK`` through ``_block_weights``.
    Block [s, e) scores only the held rows and new rows [0, e), so the causal upper
    triangle past e is never computed and a layer's peak is O(H_q * ROW_BLOCK * (R+M));
    kept rows are zero past e, as the causal mask makes them. The block's output is
    (weights @ v) / sums: only kept rows divide every weight.
    """
    cfg = model.config
    if tokens.ndim not in (1, 2) or (tokens.ndim == 2 and head_masks is not None):
        raise UsageError(f"tokens must be (M,), or (T, M) without head_masks, got {tokens.shape}")
    if cache.keys[0].shape[:-3] not in ((), tokens.shape[:-1]):  # (T,) if stacked, else ()
        raise UsageError(f"a stacked cache takes only its (T, M) token stack, got {tokens.shape}")
    m = tokens.shape[-1]
    if tokens.size == 0:
        raise UsageError("a forward pass needs at least one new token")
    positions = check_tokens(model, tokens, cache.next_position)  # not R, which compaction lowers
    x = _embed(model, tokens, positions)  # (M, d) or (T, M, d)
    h_q, h_kv, d_h = cfg.query_heads, cfg.kv_heads, cfg.head_dim
    if head_masks is not None:
        shape, fewest = head_masks.shape, min(cache.rows(l) for l in range(cfg.layers))
        if head_masks.dtype != bool or len(shape) != 4 or shape[1:3] != (cfg.layers, h_kv):
            raise UsageError(
                f"head_masks must be a bool (G, L={cfg.layers}, H_kv={h_kv}, W) stack, "
                f"got {head_masks.dtype} {shape}"
            )
        if shape[-1] > fewest:
            raise UsageError(
                f"mask covers {shape[-1]} context rows but a layer holds only {fewest}; "
                "attention patching needs the uncompacted cache"
            )
        x = np.broadcast_to(x, shape[:1] + x.shape)
    grid = x.shape[:-2]  # (), (T,) or (G,)
    angles = np.tile(positions[:, None] * model.inv_freq, 2)  # (M, d_h), one table for all layers
    cos, sin = np.cos(angles), np.sin(angles) * np.repeat([-1.0, 1.0], d_h // 2)  # [-sin, sin]
    block = min(m, ROW_BLOCK)
    keys, values, kept_attention, queries = [], [], [], []

    for layer in range(cfg.layers):
        needs_out = logits or layer < cfg.layers - 1  # else only kept attention is read
        rows = x[..., None, :, :]  # each row's (M, d) block meets every head
        q, k_new, v_new = rows @ model.wq[layer], rows @ model.wk[layer], rows @ model.wv[layer]
        qk = _rotate(np.concatenate([q, k_new], axis=-3), cos, sin)
        q, k_new = qk[..., :h_q, :, :] * (1.0 / np.sqrt(d_h)), qk[..., h_q:, :, :]  # pre-scaled

        held = cache.rows(layer)
        k_held, v_held = cache.keys[layer], cache.values[layer]  # every grid row reads them
        k = np.concatenate([np.broadcast_to(k_held, grid + k_held.shape[-3:]), k_new], axis=-2)
        v = np.concatenate([np.broadcast_to(v_held, grid + v_held.shape[-3:]), v_new], axis=-2)
        visible = None if head_masks is None else head_masks[:, layer, :, None, :]

        out = np.empty(grid + (m, h_q * d_h))
        heads_out = out.reshape(*grid, m, h_q, d_h)  # a view: each block's rows copy once
        kept = np.zeros(grid + (h_q, m if attention else 0, held + m))
        for s in range(0, m if needs_out or attention else 0, block):
            e = min(s + block, m)
            ex, sums = _block_weights(q, k, held, s, e, visible=visible)
            if needs_out:
                by_kv = ex.reshape(*grid, h_kv, -1, held + e) @ v[..., : held + e, :]
                by_kv /= sums.reshape(by_kv.shape[:-1] + (1,))  # d_h divisions a row, not R+e
                heads_out[..., s:e, :, :] = by_kv.reshape(*grid, h_q, e - s, d_h).swapaxes(-3, -2)
            if attention:
                kept[..., s:e, : held + e] = ex / sums
        if needs_out:
            x = x + out @ model.wo[layer].reshape(h_q * d_h, -1)
        kept_attention.append(kept)
        queries.append(q)
        if k_held.shape[:-3] == grid:  # else a stack shares the held rows: K/V die here
            keys.append(k)
            values.append(v)

    grown = KVCache(keys, values, [int(positions[-1]) + 1] * cfg.layers) if keys else None
    final = x if logits else x[..., :0, :]  # no rows: the last layer added nothing to x
    return ForwardResult(grown, final @ model.embedding.T, kept_attention, queries)


def prefill(model: Model, tokens: list[int]) -> ForwardResult:
    """Causal forward pass over ``tokens`` (at least one) from position 0:
    ``_forward`` on an empty cache, keeping no attention.

    Returns logits (N, vocab) and a cache of one K,V row per token per kv head
    per layer, which stacks with other N-row caches for a lockstep decode. Rows
    run in ``ROW_BLOCK`` blocks: a layer's peak is O(H_q * ROW_BLOCK * N), not its
    (H_q, N, N) scores, and its time O(N^2), skipping the masked upper triangle.
    """
    return _forward(model, empty_cache(model), np.asarray(tokens))


def decode_step(model: Model, cache: KVCache, token: int | np.ndarray) -> ForwardResult:
    """Run ``token`` after ``cache``, at its next position; ``cache`` is read, never written.

    Returns ``_forward``'s result: logits (1, vocab) and the grown cache, a plain KVCache,
    as its new row is no context row; (T,) tokens after a cache stacked (T,) give
    (T, 1, vocab) and the grown stack. Layers may hold unequal row counts; each attends
    over what it has plus the new row.
    """
    return _forward(model, cache, np.asarray(token)[..., None])


def greedy_decode(
    model: Model,
    cache: KVCache,
    start: int | np.ndarray,
    steps: int,
) -> list[int] | list[list[int]]:
    """Repeated decode_step with argmax (ties take the lowest id), each after the last one's
    grown cache, ``cache`` left as it was; a (T,) ``start`` after a cache stacked (T,) runs
    T chains in lockstep."""
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    out = [np.asarray(start)]
    for _ in range(steps):
        run = decode_step(model, cache, out[-1])
        out.append(run.logits[..., 0, :].argmax(axis=-1))
        cache = run.cache
    return np.stack(out[1:], axis=-1).tolist()


# --- hand-constructed exact-recall model -------------------------------------
#
# Residual-channel layout (d = 2V + 4):
#   [0, V)        current-token one-hot
#   [V, 2V)       previous-token one-hot, written by layer 1
#   2V, 2V+1      cos/sin positional channels (from the absolute table)
#   2V+2          constant bias channel (set to 1 by every token embedding)
#   2V+3          position-zero flag
#
# Layer 1 head 0 matches position p-1 through the cos/sin channels and
# copies the attended token's one-hot into the previous-token block.
# Layer 2 head 0 matches "previous token == my token" (key-range tokens
# only), suppresses the degenerate position-0 row, and copies the matched
# value token back into the current-token block with gain 3 so it wins the
# tied output head. Query keys live in [0, V/2) and values in [V/2, V);
# prompts drawn that way are answered exactly at full cache.

INDUCTION_MAX_POSITIONS = 128
_MATCH_MARGIN = 60.0  # pre-softmax score gap that saturates attention
_POS0_PENALTY = 2.0
_COPY_GAIN = 3.0


def induction_key_range(vocab_size: int) -> range:
    return range(vocab_size // 2)


def induction_value_range(vocab_size: int) -> range:
    return range(vocab_size // 2, vocab_size)


def construct_induction_model(num_pairs: int, vocab: int) -> Model:
    """Two-layer attention model performing exact in-context key->value recall.

    For a prompt ``[a1 b1 a2 b2 ... ak bk aq]`` with distinct keys ``a_i``
    from the key half of the vocabulary and values from the value half,
    the greedy next token equals the value paired with ``aq``.
    """
    if vocab < 4 or vocab % 2 != 0:
        raise ConfigError(f"vocab must be an even number >= 4, got {vocab}")
    most = min(vocab // 2, (INDUCTION_MAX_POSITIONS - 1) // 2)  # distinct keys; pairs + query fit
    if num_pairs < 1 or num_pairs > most:
        raise ConfigError(
            f"num_pairs must be in [1, {most}] for vocab {vocab} "
            f"and max_context {INDUCTION_MAX_POSITIONS}, got {num_pairs}"
        )
    v = vocab
    d_h = v + 2
    d = 2 * v + 4
    config = ModelConfig(
        layers=2,
        query_heads=2,
        kv_heads=1,
        model_dim=d,
        head_dim=d_h,
        vocab_size=v,
        seed=0,
        max_context=INDUCTION_MAX_POSITIONS,
    )

    ch_prev = v  # start of the previous-token block
    ch_cos, ch_sin, ch_bias, ch_flag0 = 2 * v, 2 * v + 1, 2 * v + 2, 2 * v + 3
    head_bias = v  # bias channel inside the head space

    embedding = np.zeros((v, d))
    embedding[np.arange(v), np.arange(v)] = 1.0
    embedding[:, ch_bias] = 1.0

    omega = 2.0 * np.pi / (INDUCTION_MAX_POSITIONS + 1)
    positions = np.arange(INDUCTION_MAX_POSITIONS)
    pos_embedding = np.zeros((INDUCTION_MAX_POSITIONS, d))
    pos_embedding[:, ch_cos] = np.cos(omega * positions)
    pos_embedding[:, ch_sin] = np.sin(omega * positions)
    pos_embedding[0, ch_flag0] = 1.0

    wq = np.zeros((2, 2, d, d_h))
    wk = np.zeros((2, 1, d, d_h))
    wv = np.zeros((2, 1, d, d_h))
    wo = np.zeros((2, 2, d_h, d))
    sqrt_dh = np.sqrt(d_h)

    # Layer 1: previous-position head. Scores after the 1/sqrt(d_h)
    # division are s1 * cos(omega * (p - 1 - c)); the runner-up position
    # sits at least s1 * (1 - cos(omega)) below the true previous token.
    s1 = _MATCH_MARGIN / (1.0 - np.cos(omega)) * sqrt_dh
    wq[0, 0, ch_cos, 0] = s1 * np.cos(omega)
    wq[0, 0, ch_sin, 0] = s1 * np.sin(omega)
    wq[0, 0, ch_cos, 1] = -s1 * np.sin(omega)
    wq[0, 0, ch_sin, 1] = s1 * np.cos(omega)
    wk[0, 0, ch_cos, 0] = 1.0
    wk[0, 0, ch_sin, 1] = 1.0
    for t in range(v):
        wv[0, 0, t, t] = 1.0
        wo[0, 0, t, ch_prev + t] = 1.0

    # Layer 2: match-and-copy head. The query is the current token
    # restricted to the key range; keys are previous-token one-hots, with
    # the position-0 row pushed below every non-match.
    s2 = _MATCH_MARGIN * sqrt_dh
    for t in induction_key_range(v):
        wq[1, 0, t, t] = s2
        wk[1, 0, ch_prev + t, t] = 1.0
    wq[1, 0, ch_bias, head_bias] = s2
    wk[1, 0, ch_flag0, head_bias] = -_POS0_PENALTY
    for t in induction_value_range(v):
        wv[1, 0, t, t] = 1.0
        wo[1, 0, t, t] = _COPY_GAIN

    inv_freq = np.zeros(d_h // 2)  # rotary disabled; positions come from the table
    return Model(config, embedding, wq, wk, wv, wo, inv_freq, pos_embedding)
