"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kvcompose.baselines import Policy
from kvcompose.cache_io import (
    CacheFormatError,
    cache_from_bytes,
    cache_header_size,
    cache_to_bytes,
)
from kvcompose.cli import main
from kvcompose.composer import (
    allocate_budgets,
    compact_cache,
    composite_indices,
    compress,
    layer_importance,
    retention_budget,
    unstructured_compress,
)
from kvcompose.evaluator import (
    RATIO_GRID,
    CurvePoint,
    auc,
    epsilon,
    kv_entry_count,
    make_recall_tasks,
    max_ratio_under_tolerance,
)
from kvcompose.model import (
    ModelConfig,
    _forward,
    construct_induction_model,
    decode_step,
    empty_cache,
    init_model,
    prefill,
)
from kvcompose.numerics import SeededRng
from kvcompose.scoring import AggregationChoice, TaskSet

from conftest import allocation_oracle, make_cache, reward
from test_model import reference_forward


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL {desc}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[criterion {num:02d}] PASS {desc} ({elapsed:.2f}s)")


def random_model_config(rng: SeededRng) -> ModelConfig:
    kv_heads = 1 + rng.randint(2)
    group = 1 + rng.randint(2)
    head_dim = (1 + rng.randint(2)) * 4
    query_heads = kv_heads * group
    return ModelConfig(
        layers=1 + rng.randint(4),
        query_heads=query_heads,
        kv_heads=kv_heads,
        model_dim=query_heads * head_dim,
        head_dim=head_dim,
        vocab_size=16 + rng.randint(49),
        seed=rng.randint(2**31),
    )


def test_criterion_1_paper_arithmetic():
    with criterion(1, "entry count for L=32 H_kv=8 N=32000 d_h=128", 1.0):
        assert kv_entry_count(32, 8, 32000, 128) == 2_097_152_000


def test_criterion_2_r0_fidelity():
    desc = (
        "full prefill equals dense causal attention, 1e-9; "
        "r=0 decode fidelity over 20 seeds, 16 steps, 1e-5"
    )
    with criterion(2, desc, 30.0):
        agg = AggregationChoice()
        for seed in range(20):
            rng = SeededRng(1000 + seed)
            cfg = random_model_config(rng)
            model = init_model(cfg)
            n = 8 + rng.randint(121)  # N <= 128
            context = [rng.randint(cfg.vocab_size) for _ in range(n)]
            ts = TaskSet(mode="task-agnostic", observation_window=min(32, n))
            compressed, report = compress(
                model, context, ts, agg, 0.0, Policy(name="kvcompose")
            )
            assert report.r_achieved == 0.0
            run = prefill(model, context)
            # the dense causal pass: full scores, the future masked by np.triu(..., k=1)
            tokens, positions = np.asarray(context), np.arange(n)
            dense, _, _ = reference_forward(model, empty_cache(model), tokens, positions)
            assert np.abs(run.logits - dense).max() < 1e-9
            full = run.cache
            token = context[-1]
            for step in range(16):
                a = decode_step(model, full, token)
                b = decode_step(model, compressed, token)
                assert np.abs(a.logits[0] - b.logits[0]).max() < 1e-5
                token = int(np.argmax(a.logits[0]))
                full, compressed = a.cache, b.cache


def test_criterion_3_allocation_oracle():
    with criterion(3, "budget allocation equals brute-force pool sort, 100 cases", 10.0):
        for case in range(100):
            rng = SeededRng(2000 + case)
            layers = 1 + rng.randint(8)
            n = 1 + rng.randint(64)
            rows = np.sort(
                rng.uniform_block(layers * n).reshape(layers, n), axis=1
            )[:, ::-1].copy()
            for r, budgets in zip(RATIO_GRID, allocate_budgets(rows, RATIO_GRID)):
                budget = retention_budget(r, layers, n)
                assert budgets.tolist() == allocation_oracle(rows, budget)
                assert int(budgets.sum()) == budget


def test_criterion_4_nestedness():
    with criterion(4, "retained sets nest across r=0.8/0.5/0.25, 50 seeds", 10.0):
        agg = AggregationChoice()
        for seed in range(50):
            rng = SeededRng(3000 + seed)
            cfg = random_model_config(rng)
            model = init_model(cfg)
            n = 8 + rng.randint(25)
            context = [rng.randint(cfg.vocab_size) for _ in range(n)]
            ts = TaskSet(mode="task-agnostic", observation_window=min(8, n))
            kept, budgets = {}, {}
            for r in (0.8, 0.5, 0.25):
                cache, report = compress(
                    model, context, ts, agg, r, Policy(name="kvcompose")
                )
                kept[r] = [
                    frozenset(int(i) for i in cache.provenance[l][h])
                    for l in range(cfg.layers)
                    for h in range(cfg.kv_heads)
                ]
                budgets[r] = report.layer_budgets
            for tight, loose in ((0.8, 0.5), (0.5, 0.25)):
                assert all(s <= b for s, b in zip(kept[tight], kept[loose]))
                assert all(a <= b for a, b in zip(budgets[tight], budgets[loose]))


def test_criterion_5_gather_oracle():
    with criterion(5, "compressed slots bit-equal provenance rows, 50 seeds", 10.0):
        for seed in range(50):
            rng = SeededRng(4000 + seed)
            cfg = random_model_config(rng)
            model = init_model(cfg)
            n = 4 + rng.randint(29)
            context = [rng.randint(cfg.vocab_size) for _ in range(n)]
            base = prefill(model, context)
            scores = rng.uniform_block(cfg.layers * cfg.kv_heads * n).reshape(
                cfg.layers, cfg.kv_heads, n
            )
            idx = composite_indices(scores)
            r = RATIO_GRID[rng.randint(len(RATIO_GRID))]
            budgets = allocate_budgets(layer_importance(scores, idx, "avg"), (r,))[0]
            compressed = compact_cache(base.cache, idx, budgets)
            for l in range(cfg.layers):
                for h in range(cfg.kv_heads):
                    for slot, src in enumerate(compressed.provenance[l][h]):
                        assert np.array_equal(
                            compressed.keys[l][h, slot], base.cache.keys[l][h, src]
                        )
                        assert np.array_equal(
                            compressed.values[l][h, slot], base.cache.values[l][h, src]
                        )


def test_criterion_6_induction_recall():
    with criterion(6, "full-cache recall 1.0; r=0.5 beats random by >= 0.10", 120.0):
        model = construct_induction_model(8, 32)
        # full cache: 100 random prompts, perfect recall
        tasks = make_recall_tasks(8, 32, 100, seed=5000)
        for task in tasks:
            base = prefill(model, list(task.prompt))
            assert reward(model, base.cache, task) == 1.0

        # r=0.5: mean over 20 seeds, composite selection vs random eviction
        agg = AggregationChoice()
        kv_scores, random_scores = [], []
        for seed in range(20):
            seed_tasks = make_recall_tasks(8, 32, 10, seed=6000 + seed)
            hits_kv = hits_rand = 0
            for t_idx, task in enumerate(seed_tasks):
                ts = TaskSet(mode="task-aware", tasks=(task.query,))
                cache_kv, _ = compress(
                    model, list(task.prompt), ts, agg, 0.5, Policy(name="kvcompose")
                )
                cache_rand, _ = compress(
                    model, list(task.prompt), ts, agg, 0.5,
                    Policy(name="random", seed=seed * 1000 + t_idx),
                )
                hits_kv += reward(model, cache_kv, task)
                hits_rand += reward(model, cache_rand, task)
            kv_scores.append(hits_kv / len(seed_tasks))
            random_scores.append(hits_rand / len(seed_tasks))
        mean_kv = float(np.mean(kv_scores))
        mean_rand = float(np.mean(random_scores))
        print(f"    recall at r=0.5: composite={mean_kv:.3f} random={mean_rand:.3f}")
        assert mean_kv >= mean_rand + 0.10


def test_criterion_7_unstructured_patching():
    with criterion(7, "all-true masks exact; kept sets match global sort, 50 cases", 10.0):
        # exact equality under all-true masks
        rng = SeededRng(7000)
        cfg = random_model_config(rng)
        model = init_model(cfg)
        n = 16
        context = [rng.randint(cfg.vocab_size) for _ in range(n)]
        base = prefill(model, context)
        all_true = unstructured_compress(np.ones((cfg.layers, cfg.kv_heads, n)), (0.0,))
        assert all_true.shape == (1, cfg.layers, cfg.kv_heads, n) and all_true.all()
        a = decode_step(model, base.cache, 1).logits[0]
        b = _forward(model, base.cache, np.asarray([1]), all_true).logits[0, 0]
        assert np.array_equal(a, b)

        # kept set equals the brute-force global sort for 50 random tensors
        for case in range(50):
            rng = SeededRng(7100 + case)
            layers, heads, width = 1 + rng.randint(4), 1 + rng.randint(3), 1 + rng.randint(16)
            values = rng.uniform_block(layers * heads * width).reshape(layers, heads, width)
            r = RATIO_GRID[rng.randint(len(RATIO_GRID))]
            masks = unstructured_compress(values, (r,))[0]
            flat = values.reshape(-1)
            order = sorted(range(flat.size), key=lambda i: (-flat[i], i))
            expected = np.zeros(flat.size, dtype=bool)
            expected[order[: retention_budget(r, layers, heads, width)]] = True
            assert np.array_equal(masks.reshape(-1), expected)


def test_criterion_8_evaluator_identities():
    with criterion(8, "epsilon/auc/tolerance-search identities", 1.0):
        rng = SeededRng(8000)
        x = (rng.uniform_block(16) + 0.1).tolist()
        assert epsilon(x, x) == 0.0

        for constant in (0.0, 0.37, 1.0):
            points = [
                CurvePoint(r, r, constant, 0.0, 0.0, 0.0) for r in RATIO_GRID
            ]
            assert abs(auc(points) - constant) <= 1e-12

        eps = [0.0, 0.05, 0.15, 0.3]
        grid = [0.0, 0.25, 0.5, 0.75]
        points = [CurvePoint(r, r, 1.0, 0.0, e, 0.0) for r, e in zip(grid, eps)]
        assert max_ratio_under_tolerance(points, 0.10).r_grid == 0.25


def test_criterion_9_ablation_plumbing(tmp_path):
    with criterion(9, "48 ablation arms, each byte-identical under cmd_sweep", 300.0):
        config = {
            "model": {
                "kind": "random",
                "layers": 4,
                "query_heads": 4,
                "kv_heads": 2,
                "model_dim": 32,
                "head_dim": 8,
                "vocab": 64,
                "seed": 21,
            },
            "tasks": {
                "kind": "agreement",
                "count": 32,
                "seed": 9000,
                "context_len": 128,
                "teacher_steps": 8,
            },
            "scoring": {"mode": "task-agnostic", "observation_window": 32},
            "policy": {"name": "kvcompose"},
            "out_dir": str(tmp_path / "ablate"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["ablate", "--config", str(cfg_path)]) == 0

        combined = (tmp_path / "ablate" / "combined.csv").read_text()
        rows = combined.strip().split("\n")
        assert len(rows) == 1 + 48 * len(RATIO_GRID)
        labels = {row.split('",')[0].strip('"') for row in rows[1:]}
        assert len(labels) == 48
        assert "Agg(max,avg,avg), mean=on, norm=none" in labels

        arm_dirs = sorted(p for p in (tmp_path / "ablate").iterdir() if p.is_dir())
        assert len(arm_dirs) == 48
        for i, arm in enumerate(arm_dirs):
            redo = tmp_path / "redo" / arm.name
            assert main(
                ["sweep", "--config", str(arm / "config.json"), "--out", str(redo)]
            ) == 0
            assert (arm / "report.json").read_bytes() == (redo / "report.json").read_bytes()
            assert (arm / "report.csv").read_bytes() == (redo / "report.csv").read_bytes()


def test_criterion_10_format_robustness():
    with criterion(10, "write/read identity x100; 1000-corruption header fuzz", 30.0):
        rng = SeededRng(10_000)
        for case in range(100):
            layers = 1 + rng.randint(4)
            rows = tuple(rng.randint(9) for _ in range(layers))
            cache = make_cache(
                11_000 + case,
                layers=layers,
                kv_heads=1 + rng.randint(3),
                head_dim=(1 + rng.randint(4)) * 2,
                rows=rows,
            )
            back = cache_from_bytes(cache_to_bytes(cache))
            for l in range(layers):
                assert np.array_equal(back.keys[l], cache.keys[l])
                assert np.array_equal(back.values[l], cache.values[l])
                assert np.array_equal(back.provenance[l], cache.provenance[l])

        base = cache_to_bytes(make_cache(12_000, layers=3, rows=(4, 0, 2)))
        header = cache_header_size(3)
        fuzz = SeededRng(13_000)
        rejected = 0
        for _ in range(1000):
            pos = fuzz.randint(header)
            delta = 1 + fuzz.randint(255)
            corrupted = bytearray(base)
            corrupted[pos] = (corrupted[pos] + delta) % 256
            with pytest.raises(CacheFormatError):
                cache_from_bytes(bytes(corrupted))
            rejected += 1
        assert rejected == 1000
