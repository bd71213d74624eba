"""Row softmax, deterministic randomness, and selection primitives.

``SeededRng``, ``stable_floor``, ``argsort_desc`` and ``ranks`` give bit-identical
outputs on every platform; ``exp_rows`` (so ``softmax_rows``) follows numpy's SIMD
dispatch, whose ``np.exp`` differs in the last bits between AVX2 and AVX-512. Matrices
are plain 2-D float64 arrays, and no function writes one but ``exp_rows``, the one home
of attention's exponentials: it works in the matrix it is given and leaves a softmax's
division to it.
"""
from __future__ import annotations

import numpy as np

from .errors import UsageError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SeededRng:
    """Counter-based pseudo-random generator (SplitMix64).

    Update rule, all arithmetic mod 2**64:

        state <- state + 0x9E3779B97F4A7C15
        z <- state
        z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
        z <- (z XOR (z >> 27)) * 0x94D049BB133111EB
        output <- z XOR (z >> 31)

    ``uniform_block`` maps the top 53 bits of each output to [0, 1). The stream
    depends only on the seed, never on platform or numpy version, so
    serialized weights and golden files are reproducible everywhere.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform_block(self, n: int) -> np.ndarray:
        """n draws in [0, 1), vectorized: the next n outputs' top 53 bits, scaled."""
        counters = np.arange(1, n + 1, dtype=np.uint64)
        states = (np.uint64(self._state) + counters * np.uint64(_GAMMA)) & np.uint64(_MASK64)
        self._state = int(states[-1]) if n else self._state
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), n >= 1, rejection-sampled to avoid modulo bias."""
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in draw order (partial Fisher-Yates)."""
        if k > n:
            raise UsageError(f"cannot sample {k} distinct values from range {n}")
        pool = list(range(n))
        out = []
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out


def stable_floor(x: float) -> int:
    """Floor with a hair of upward bias.

    Products like (1 - 0.9) * 40 land at 3.9999999999999996 in binary;
    budget arithmetic must read them as the exact 4 they stand for.
    """
    return int(np.floor(x + 1e-9))


def exp_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``exp(m - row max)`` and its (rows, 1) sums, computed in ``m``, which the
    caller owns and gets back: a 2-D float64 matrix (``_block_weights`` reshapes one, and
    ``softmax_rows`` casts one). -inf is a mask and maps to exactly 0.0; a fully masked row
    gives zeros and a sum of 1, so dividing gives no NaN; NaN or +inf raises ``UsageError``."""
    mx = np.max(m, axis=1, keepdims=True)
    if not np.all(mx < np.inf):
        raise UsageError("exp_rows needs every row free of NaN and +inf")
    mx[mx == -np.inf] = 0.0  # fully masked row: no shift, so it stays -inf
    m -= mx  # finite or -inf entries only, and exp(-inf) is exactly 0
    np.exp(m, out=m)
    sums = m.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return m, sums


def softmax_rows(m: np.ndarray, scale: float) -> np.ndarray:
    """Row-wise softmax of ``m * scale``: ``exp_rows`` of a scaled copy, which reads masks
    and rejects NaN or +inf rows (also where scaling overflows), over its row sums."""
    if scale <= 0:
        raise UsageError(f"softmax scale must be positive, got {scale}")
    with np.errstate(over="ignore"):  # an overflowing row is rejected by exp_rows
        e, sums = exp_rows(np.asarray(m, dtype=np.float64) * scale)
    return np.divide(e, sums, out=e)


def argsort_desc(v: np.ndarray) -> np.ndarray:
    """Indices sorting ``v`` into non-increasing order along its last axis.

    The one ranking sort of the package. Stable: equal values keep their
    original relative order, so ties resolve to the lower index first.
    Every entry must be finite. Empty input gives an empty permutation.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise UsageError("argsort_desc requires finite entries")
    return np.argsort(-v, kind="stable")


def ranks(order: np.ndarray) -> np.ndarray:
    """Each entry's rank: its position in ``order``, a permutation along the last
    axis, so ``ranks(argsort_desc(v)) < k`` marks the top ``k`` of ``v``."""
    out = np.empty_like(order)
    np.put_along_axis(out, order, np.arange(order.shape[-1]), axis=-1)
    return out
