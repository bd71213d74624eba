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
from .numerics import SeededRng, softmax_rows

ROTARY_BASE = 10000.0
ROW_BLOCK = 64  # new query rows each layer scores at a time in _forward


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

    @property
    def group_size(self) -> int:
        return self.query_heads // self.kv_heads


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
    """Per-layer key/value rows, uniform across heads within a layer; nothing writes one."""

    keys: list[np.ndarray]  # per layer (H_kv, n_l, d_h)
    values: list[np.ndarray]  # per layer (H_kv, n_l, d_h)
    next_positions: list[int]  # per layer, position of the next appended token

    @property
    def layer_count(self) -> int:
        return len(self.keys)

    @property
    def next_position(self) -> int:
        return max(self.next_positions)

    def rows(self, layer: int) -> int:
        return self.keys[layer].shape[1]

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
    cache: KVCache | None  # the held rows plus the new ones; None under a mask stack
    logits: np.ndarray  # (M, vocab), or (G, M, vocab) under a stack; 0 rows if not asked for
    attention: list[np.ndarray]  # per layer (..., H_q, attention_rows, R+M), the last query rows
    attention_mean: list[np.ndarray] | None = None  # per layer (..., M, R+M), mean over H_q


def _rotate(vecs: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary rotation of (..., n, d_h) vectors by their positions' (n, d_h/2) cos and sin."""
    half = vecs.shape[-1] // 2
    a, b = vecs[..., :half], vecs[..., half:]
    return np.concatenate([a * cos - b * sin, a * sin + b * cos], axis=-1)


def _embed(model: Model, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
    if tokens.size and (tokens.min() < 0 or tokens.max() >= model.config.vocab_size):
        raise UsageError(
            f"token ids must lie in [0, {model.config.vocab_size}), "
            f"got range [{int(tokens.min())}, {int(tokens.max())}]"
        )
    x = model.embedding[tokens]
    if model.pos_embedding is not None:  # _forward has checked positions against its rows
        x = x + model.pos_embedding[positions]
    return x


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


def empty_cache(model: Model) -> KVCache:
    cfg = model.config
    shape = (cfg.kv_heads, 0, cfg.head_dim)
    return KVCache(
        keys=[np.zeros(shape) for _ in range(cfg.layers)],
        values=[np.zeros(shape) for _ in range(cfg.layers)],
        next_positions=[0] * cfg.layers,
    )


def _forward(
    model: Model,
    cache: KVCache,
    tokens: np.ndarray,
    head_masks: np.ndarray | None = None,
    attention_rows: int = 0,
    head_mean: bool = False,
    logits: bool = True,
) -> ForwardResult:
    """Run M >= 1 tokens after the rows held in ``cache``, which it reads and never writes.

    Each layer may already hold any number of rows R. The new rows attend
    causally to each other and freely to the R held rows, so prefill is
    M=N on an empty cache and a decode step is M=1. The result's cache is
    new: the held rows plus the new ones. ``head_masks``, when given, is a
    (G, L, H_kv, W) bool stack: False at [g, l, h, c] hides held row c < W
    of kv head h in layer l from grid row g (score forced to -inf). Outputs
    then gain a leading G axis and the cache is None, so no layer's grid
    K/V outlives it. Of each layer's (H_q, M, R+M) attention only the last
    ``attention_rows`` query rows (0 to M, none by default) are kept, then
    the per-layer (M, R+M) means over query heads when ``head_mean`` (else
    None). New rows take positions ``cache.next_position`` onward, whatever R
    is; only here is a position set, or checked against [0, ``max_context``).
    With ``logits`` off the last layer still adds its K/V rows, but runs only
    the blocks that hold a kept row (all under ``head_mean``) and skips its
    output projection; the logits come back as an empty (..., 0, vocab) array.

    Each layer runs its new rows in blocks of ``ROW_BLOCK``. Block [s, e)
    scores only the held rows and new rows [0, e), so the causal upper
    triangle past e is never computed and a layer's peak is
    O(H_q * ROW_BLOCK * (R+M)); kept rows and means are zero past e, as the
    causal mask makes them. Each block writes its slice of the layer's
    output, kept rows and means, so a one-block call (M <= ROW_BLOCK) copies
    its output rows once. Query head h reads kv head h // group: a kv head's
    group of query rows is one (group*rows, d_h) block, so one batched matmul
    per kv head serves the whole group without copying K or V per query head.
    """
    cfg = model.config
    m = len(tokens)
    if m == 0:
        raise UsageError("a forward pass needs at least one new token")
    positions = cache.next_position + np.arange(m)  # not a row count, which compaction lowers
    if positions[0] < 0 or positions[-1] >= cfg.max_context:
        raise UsageError(
            f"positions {positions[0]} to {positions[-1]} leave [0, max_context {cfg.max_context})"
        )
    if not 0 <= attention_rows <= m:
        raise UsageError(f"cannot keep {attention_rows} attention rows of {m}")
    x = _embed(model, tokens, positions)  # (M, d)
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
    grid = x.shape[:-2]  # () or (G,)
    angles = positions[:, None].astype(np.float64) * model.inv_freq[None, :]  # (M, d_h/2)
    cos, sin = np.cos(angles), np.sin(angles)  # every layer rotates at the same positions
    scale = 1.0 / np.sqrt(d_h)
    block = min(m, ROW_BLOCK)
    upper = np.arange(block)[:, None] < np.arange(block)  # causal mask: True above the diagonal
    first = m - attention_rows  # the first kept query row
    keys, values, attention = [], [], []
    means: list[np.ndarray] | None = [] if head_mean else None

    for layer in range(cfg.layers):
        needs_out = logits or layer < cfg.layers - 1  # else only kept rows and means are read
        rows = x[..., None, :, :]  # each row's (M, d) block meets every head
        q, k_new, v_new = rows @ model.wq[layer], rows @ model.wk[layer], rows @ model.wv[layer]
        qk = _rotate(np.concatenate([q, k_new], axis=-3), cos, sin)
        q, k_new = qk[..., :h_q, :, :], qk[..., h_q:, :, :]

        held = cache.rows(layer)
        k_held, v_held = cache.keys[layer], cache.values[layer]  # every grid row reads them
        k = np.concatenate([np.broadcast_to(k_held, grid + k_held.shape), k_new], axis=-2)
        v = np.concatenate([np.broadcast_to(v_held, grid + v_held.shape), v_new], axis=-2)

        out = np.empty(grid + (m, h_q * d_h))
        heads_out = out.reshape(*grid, m, h_q, d_h)  # a view: each block's rows copy once
        kept = np.zeros(grid + (h_q, attention_rows, held + m))
        mean = np.zeros(grid + (m, held + m)) if head_mean else None
        for s in range(0, m, block):
            e = min(s + block, m)
            if not (needs_out or head_mean or e > first):
                continue  # blocks start on the same grid either way, so no bit moves
            width = held + e  # held rows and new rows [0, e): every later one is masked
            q_rows = q[..., s:e, :].reshape(*grid, h_kv, -1, d_h)  # each kv head's query rows
            scores = (q_rows @ k[..., :width, :].swapaxes(-1, -2)).reshape(*grid, h_q, e - s, width)
            np.copyto(scores[..., held + s :], -np.inf, where=upper[: e - s, : e - s])
            if head_masks is not None:
                grouped = scores.reshape(*grid, h_kv, -1, width)
                visible = head_masks[:, layer, :, None, :]
                np.copyto(grouped[..., : visible.shape[-1]], -np.inf, where=~visible)
            attn = softmax_rows(scores.reshape(-1, width), scale=scale).reshape(scores.shape)
            if needs_out:
                by_kv = attn.reshape(*grid, h_kv, -1, width) @ v[..., :width, :]  # group*(e-s)
                heads_out[..., s:e, :, :] = by_kv.reshape(*grid, h_q, e - s, d_h).swapaxes(-3, -2)
            if e > first:  # a block wholly before the kept rows writes none of them
                kept[..., max(s - first, 0) : e - first, :width] = attn[..., max(first - s, 0) :, :]
            if head_mean:
                mean[..., s:e, :width] = attn.mean(axis=-3)
        if needs_out:
            x = x + out @ model.wo[layer].reshape(h_q * d_h, -1)
        attention.append(kept)
        if head_mean:
            means.append(mean)
        if not grid:  # a stack's K/V die with their layer
            keys.append(k)
            values.append(v)

    grown = None if grid else KVCache(keys, values, [int(positions[-1]) + 1] * cfg.layers)
    final = x if logits else x[..., :0, :]  # no rows: the last layer added nothing to x
    return ForwardResult(grown, final @ model.embedding.T, attention, means)


def prefill(
    model: Model,
    tokens: list[int],
    attention_rows: int = 0,
    head_mean: bool = False,
    logits: bool = True,
) -> ForwardResult:
    """Causal forward pass over ``tokens`` (at least one) from position 0.

    Its cache holds one K,V row per token per kv head per layer. Of each
    layer's attention it keeps the last ``attention_rows`` query rows (none
    by default) and the head mean when ``head_mean``, and with ``logits`` off
    skips what only the logits read, as ``_forward`` does.
    Rows run in ``ROW_BLOCK`` blocks, so a layer never holds its full
    (H_q, N, N) scores: its peak is O(H_q * ROW_BLOCK * N) and its time
    O(N^2), without computing the masked upper triangle.
    """
    return _forward(
        model, empty_cache(model), np.asarray(tokens),
        attention_rows=attention_rows, head_mean=head_mean, logits=logits,
    )


def decode_step(model: Model, cache: KVCache, token: int) -> ForwardResult:
    """Run ``token`` after ``cache``, at its next position; ``cache`` is read, never written.

    Returns ``_forward``'s result: logits (1, vocab) and the grown cache, a
    plain KVCache, as its new row is no context row. Layers may hold unequal
    row counts; each attends over whatever keys it has (plus the new row).
    """
    return _forward(model, cache, np.asarray([token]))


def greedy_decode(
    model: Model,
    cache: KVCache,
    start: int,
    steps: int,
) -> list[int]:
    """Repeated decode_step with argmax selection (ties take the lowest id),
    each step after the previous one's grown cache; ``cache`` is left as it was."""
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    out = [start]
    for _ in range(steps):
        run = decode_step(model, cache, out[-1])
        out.append(int(np.argmax(run.logits[0])))
        cache = run.cache
    return out[1:]


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
    if num_pairs < 1 or num_pairs > vocab // 2:
        raise ConfigError(
            f"num_pairs must be in [1, {vocab // 2}] for vocab {vocab}, got {num_pairs}"
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
