import sys

import numpy as np
import pytest

from kvcompose.model import ModelConfig, init_model
from kvcompose.numerics import SeededRng


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


def random_context(seed: int, length: int, vocab: int = 64) -> list[int]:
    rng = SeededRng(seed)
    return [rng.randint(vocab) for _ in range(length)]


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


def count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to ``module.name``, through each
    kvcompose module that binds it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("kvcompose") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls
