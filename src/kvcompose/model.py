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


@dataclass
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


@dataclass
class KVCache:
    """Per-layer key/value rows, uniform across heads within a layer."""

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
        return replace(
            self,
            keys=[k.copy() for k in self.keys],
            values=[v.copy() for v in self.values],
            next_positions=list(self.next_positions),
        )


@dataclass
class PrefillResult:
    cache: KVCache
    logits: np.ndarray  # (N, vocab)
    attention: list[np.ndarray]  # per layer (H_q, attention_rows, N), the last query positions
    attention_mean: list[np.ndarray] | None = None  # per layer (N, N), mean over H_q


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

    L, Hq, Hkv, d, dh = (
        config.layers,
        config.query_heads,
        config.kv_heads,
        config.model_dim,
        config.head_dim,
    )
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
    positions: np.ndarray,
    head_masks: np.ndarray | None = None,
    attention_rows: int = 0,
    head_mean: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray] | None]:
    """Append M tokens to every layer of ``cache``; return their logits and attention.

    Each layer may already hold any number of rows R. The new rows attend
    causally to each other and freely to the R held rows, so prefill is
    M=N on an empty cache and a decode step is M=1. ``head_masks``, when
    given, is an (L, H_kv, W) bool keep-mask over the first W held rows:
    False at [l, h, c] hides row c of kv head h in layer l from every new
    query (score forced to -inf). Later rows stay visible, and no memory
    is saved; the mask evaluates per-head eviction on the full cache. A
    (G, L, H_kv, W) stack runs the tokens once per mask against the shared
    held rows: outputs gain a leading G axis, and ``cache`` is left as it
    was. Of each layer's (H_q, M, R+M) attention only the last
    ``attention_rows`` query rows (0 to M, none by default) are kept, cut
    before the next layer runs, followed by the per-layer (M, R+M) means
    over query heads when ``head_mean`` (else None). This is the one check
    that every position lies below ``max_context``.

    Query head h reads kv head h // group. Stacking a kv head's group of
    query rows as one (group*M, d_h) block lets one batched matmul per kv
    head serve the whole group, without copying K or V per query head.
    """
    cfg = model.config
    m = len(tokens)
    if positions.size and positions.max() >= cfg.max_context:
        raise UsageError(f"position {int(positions.max())} is past max_context {cfg.max_context}")
    if not 0 <= attention_rows <= m:
        raise UsageError(f"cannot keep {attention_rows} attention rows of {m}")
    x = _embed(model, tokens, positions)  # (M, d)
    h_q, h_kv, d_h = cfg.query_heads, cfg.kv_heads, cfg.head_dim
    if head_masks is not None:
        shape, fewest = head_masks.shape, min(cache.rows(l) for l in range(cfg.layers))
        if head_masks.dtype != bool or len(shape) > 4 or shape[-3:-1] != (cfg.layers, h_kv):
            raise UsageError(
                f"head_masks must be bool (L={cfg.layers}, H_kv={h_kv}, W) or (G, L, H_kv, W), "
                f"got {head_masks.dtype} {shape}"
            )
        if shape[-1] > fewest:
            raise UsageError(
                f"mask covers {shape[-1]} context rows but a layer holds only {fewest}; "
                "attention patching needs the uncompacted cache"
            )
        x = np.broadcast_to(x, shape[:-3] + x.shape)
    grid = x.shape[:-2]  # () or (G,)
    angles = positions[:, None].astype(np.float64) * model.inv_freq[None, :]  # (M, d_h/2)
    cos, sin = np.cos(angles), np.sin(angles)  # every layer rotates at the same positions
    scale = 1.0 / np.sqrt(d_h)
    upper = np.arange(m)[:, None] < np.arange(m)  # (M, M) causal mask: True above the diagonal
    attention: list[np.ndarray] = []
    means: list[np.ndarray] | None = [] if head_mean else None

    for layer in range(cfg.layers):
        rows = x[:, None] if grid else x  # a grid row's (M, d) block meets every head
        q, k_new, v_new = rows @ model.wq[layer], rows @ model.wk[layer], rows @ model.wv[layer]
        qk = _rotate(np.concatenate([q, k_new], axis=-3), cos, sin)
        q, k_new = qk[..., :h_q, :, :], qk[..., h_q:, :, :]

        held = cache.rows(layer)
        k_held, v_held = cache.keys[layer], cache.values[layer]
        if grid:  # every grid row reads the same held rows
            k_held, v_held = (np.broadcast_to(a, grid + a.shape) for a in (k_held, v_held))
        k = np.concatenate([k_held, k_new], axis=-2)  # (..., H_kv, R+M, d_h)
        v = np.concatenate([v_held, v_new], axis=-2)

        scores = q.reshape(*grid, h_kv, -1, d_h) @ k.swapaxes(-1, -2)
        scores = scores.reshape(*grid, h_q, m, held + m)
        np.copyto(scores[..., held:], -np.inf, where=upper)
        if head_masks is not None:
            width = head_masks.shape[-1]
            grouped = scores.reshape(*grid, h_kv, -1, held + m)  # each kv head's query rows
            visible = head_masks[..., layer, :, None, :]
            np.copyto(grouped[..., :width], -np.inf, where=~visible)
        attn = softmax_rows(scores.reshape(-1, held + m), scale=scale).reshape(scores.shape)
        out = attn.reshape(*grid, h_kv, -1, held + m) @ v  # (..., H_kv, group*M, d_h)
        out = out.reshape(*grid, h_q, m, d_h).swapaxes(-3, -2).reshape(*grid, m, h_q * d_h)
        x = x + out @ model.wo[layer].reshape(h_q * d_h, -1)
        if head_mean:
            means.append(attn.mean(axis=-3))
        attention.append(attn[..., m - attention_rows :, :].copy())
        if not grid:
            cache.keys[layer], cache.values[layer] = k, v
            cache.next_positions[layer] = int(positions[-1]) + 1

    return x @ model.embedding.T, attention, means


def prefill(
    model: Model, tokens: list[int], attention_rows: int = 0, head_mean: bool = False
) -> PrefillResult:
    """Causal forward pass over ``tokens`` from position 0.

    Fills one K,V row per token per kv head per layer. Of each layer's
    attention it keeps the last ``attention_rows`` query rows (none by
    default) and the head mean when ``head_mean``, as ``_forward`` does, so
    no layer's full (H_q, N, N) attention outlives that layer unless asked for.
    """
    n = len(tokens)
    if n == 0:
        raise UsageError("prefill needs at least one token")
    cache = empty_cache(model)
    logits, attention, means = _forward(
        model, cache, np.asarray(tokens), np.arange(n),
        attention_rows=attention_rows, head_mean=head_mean,
    )
    return PrefillResult(cache=cache, logits=logits, attention=attention, attention_mean=means)


def decode_step(
    model: Model,
    cache: KVCache,
    token: int,
    position: int,
    head_masks: np.ndarray | None = None,
) -> np.ndarray:
    """Append ``token`` at ``position`` to every layer cache and return its logits.

    Layers may hold unequal row counts; each attends over whatever keys it
    has (plus the row just appended). ``head_masks``, when given, hides
    masked rows of the original context from attention; appended rows stay
    visible. It must be one (L, H_kv, W) mask, since a stack appends nothing.
    """
    if head_masks is not None and head_masks.ndim != 3:
        raise UsageError(f"decode_step takes one (L, H_kv, W) mask, got shape {head_masks.shape}")
    logits, _, _ = _forward(model, cache, np.asarray([token]), np.asarray([position]), head_masks)
    return logits[0]


def greedy_decode(
    model: Model,
    cache: KVCache,
    start: int,
    steps: int,
) -> list[int]:
    """Repeated decode_step with argmax selection (ties take the lowest id)."""
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    out: list[int] = []
    current = start
    position = cache.next_position
    for _ in range(steps):
        logits = decode_step(model, cache, current, position)
        current = int(np.argmax(logits))
        out.append(current)
        position += 1
    return out


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
