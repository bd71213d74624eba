import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from kvcompose import evaluator
from kvcompose.baselines import POLICY_NAMES, POLICY_PARAMS, Policy
from kvcompose.cache_io import read_cache
from kvcompose.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    _slug,
    ablation_grid,
    build_model,
    build_tasks,
    load_config,
    main,
    parse_config,
)
from kvcompose.composer import composite_indices, keep_masks, layer_importance
from kvcompose.errors import ConfigError
from kvcompose.evaluator import DEFAULT_TOLERANCES, RATIO_GRID, prepare_task
from kvcompose.scoring import (
    DEFAULT_MODE,
    OBSERVATION_WINDOW,
    AggregationChoice,
    score_stages,
)

from conftest import count_calls, count_prefills


def write_config(tmp_path, **overrides) -> Path:
    cfg = {
        "model": {"kind": "induction", "num_pairs": 4, "vocab": 16},
        "tasks": {"kind": "recall", "count": 4, "seed": 3},
        "scoring": {"mode": "task-aware"},
        "policy": {"name": "kvcompose"},
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}  # None drops a section
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


RANDOM_MODEL = {
    "kind": "random",
    "layers": 2,
    "query_heads": 2,
    "kv_heads": 1,
    "model_dim": 16,
    "head_dim": 8,
    "vocab": 16,
    "seed": 0,
}

# config overrides that each exit 2 naming the bad value
MALFORMED = [
    ({"tolerances": ["a"]}, "tolerances[0]"),
    ({"r_target": "abc"}, "r_target"),
    ({"grid": ["a", "b"]}, "grid[0]"),
    ({"grid": []}, "grid must be ascending ratios"),
    (
        {
            "model": {**RANDOM_MODEL, "layers": "4"},
            "tasks": {"kind": "agreement", "count": 1, "seed": 1, "context_len": 8},
        },
        "model.layers",
    ),
    ({"tasks": {"kind": "recall", "count": "2", "seed": 3}}, "tasks.count"),
    ({"policy": {"name": "streaming", "sinks": "2"}}, "policy.sinks"),
    (
        {"scoring": {"mode": "task-agnostic", "observation_window": "8"}},
        "scoring.observation_window",
    ),
    ({"model": [1]}, "model must be a JSON object"),
    ({"scoring": {"mode": "task-aware", "mean_augment": "no"}}, "scoring.mean_augment"),
    ({"policy": {"name": "snapkv", "window": 2.5}}, "policy.window"),
    ({"policy": {"name": ["kvcompose"]}}, "policy.name must be a string"),
    (None, "config must be a JSON object"),  # a top-level list
    ({"grid": 0.5}, "grid must be a list"),
    ({"tasks": None}, "missing keys in 'config': ['tasks']"),
    ({"model": {"kind": "cnn"}}, "model.kind must be 'random' or 'induction', got 'cnn'"),
    (
        {"tasks": {"kind": "qa", "count": 1, "seed": 3}},
        "tasks.kind must be 'recall' or 'agreement', got 'qa'",
    ),
]

AGREEMENT_TASKS = {"kind": "agreement", "count": 1, "seed": 2, "context_len": 8}

# a valid value of each Policy parameter, none of them its default
PARAMETER_VALUES = {"sinks": 9, "window": 8, "shape": 3.0, "seed": 4}

# (config overrides, extra flags, text of the error): rules whose breach
# the library would meet only after tasks are prepared, or never
LOAD_RULES = {
    "grid-from-nonzero": ({"grid": [0.5]}, [], "grid must start at 0"),
    "grid-flag-from-nonzero": ({}, ["--grid", "0.5,0.9"], "grid must start at 0"),
    "grid-duplicate": ({"grid": [0, 0, 0.5]}, [], "each once"),
    "grid-flag-duplicate": ({}, ["--grid", "0,0.5,0.5"], "each once"),
    "window-zero-task-agnostic": (
        {"scoring": {"mode": "task-agnostic", "observation_window": 0}},
        [],
        "observation_window must be >= 1",
    ),
    "window-zero-task-aware": (
        {"scoring": {"mode": "task-aware", "observation_window": 0}},
        [],
        "observation_window must be >= 1",
    ),
    "r-target-above-one": ({"r_target": 1.5}, [], "r_target must be in [0, 1]"),
    "tolerance-nan": (
        {"tolerances": [float("nan"), -1, float("inf")]},
        [],
        "tolerances[0] must be a finite number, got nan",
    ),
    "pyramid-shape-infinite": (
        {"policy": {"name": "pyramid", "shape": float("inf")}},
        [],
        "policy.shape must be a finite number, got inf",
    ),
    "task-count-zero": (
        {"tasks": {"kind": "recall", "count": 0, "seed": 3}},
        [],
        "tasks.count must be >= 1, got 0",
    ),
    "context-len-zero": (
        {"model": RANDOM_MODEL, "tasks": {**AGREEMENT_TASKS, "context_len": 0}},
        [],
        "tasks.context_len must be >= 1, got 0",
    ),
    "teacher-steps-zero": (
        {"model": RANDOM_MODEL, "tasks": {**AGREEMENT_TASKS, "teacher_steps": 0}},
        [],
        "tasks.teacher_steps must be >= 1, got 0",
    ),
    "scoring-mode-unknown": ({"scoring": {"mode": "bogus"}}, [], "scoring.mode must be one of"),
    "snapkv-window-zero": (
        {"policy": {"name": "snapkv", "window": 0}}, [], "window must be >= 1, got 0"
    ),
}


def write_context(tmp_path, tokens) -> Path:
    path = tmp_path / "context.txt"
    path.write_text(" ".join(str(t) for t in tokens))
    return path


class TestCompressCommand:
    def test_r0_summary_and_readback(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            scoring={"mode": "task-agnostic", "observation_window": 4},
            r_target=0.0,
        )
        ctx = write_context(tmp_path, [1, 9, 3, 12, 5, 8])
        rc = main(["compress", "--config", str(cfg), "--context", str(ctx)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "r_achieved=0.0" in out
        cache = read_cache(tmp_path / "out" / "cache.kvcf")
        assert [cache.rows(l) for l in range(2)] == [6, 6]

    def test_unstructured_policy_rejected(self, tmp_path, capsys, monkeypatch):
        prefills = count_prefills(monkeypatch)
        cfg = write_config(
            tmp_path,
            scoring={"mode": "task-agnostic", "observation_window": 4},
            policy={"name": "unstructured"},
        )
        ctx = write_context(tmp_path, [1, 9, 3, 12, 5, 8])
        assert main(["compress", "--config", str(cfg), "--context", str(ctx)]) == EXIT_CONFIG
        assert "unstructured" in capsys.readouterr().err
        assert not (tmp_path / "out" / "cache.kvcf").exists()
        assert prefills == []

    def test_budget_arithmetic(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={
                "kind": "random",
                "layers": 4,
                "query_heads": 2,
                "kv_heads": 1,
                "model_dim": 16,
                "head_dim": 8,
                "vocab": 32,
                "seed": 1,
            },
            tasks={"kind": "agreement", "count": 1, "seed": 2, "context_len": 40},
            scoring={"mode": "task-agnostic", "observation_window": 8},
            r_target=0.9,
        )
        ctx = write_context(tmp_path, list(range(32)) + list(range(8)))
        rc = main(["compress", "--config", str(cfg), "--context", str(ctx)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "budget_total=16" in out  # floor(0.1 * 4 * 40)
        cache = read_cache(tmp_path / "out" / "cache.kvcf")
        assert sum(cache.rows(l) for l in range(4)) == 16

    def test_shapes_match_summary(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            scoring={"mode": "task-agnostic", "observation_window": 4},
            r_target=0.5,
        )
        ctx = write_context(tmp_path, [1, 9, 3, 12, 5, 8, 2, 10])
        rc = main(["compress", "--config", str(cfg), "--context", str(ctx)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        budgets = [
            int(b)
            for b in out.split("budgets=")[1].split()[0].split(",")
        ]
        cache = read_cache(tmp_path / "out" / "cache.kvcf")
        assert [cache.rows(l) for l in range(len(budgets))] == budgets


class TestSweepCommand:
    def test_default_grid_nine_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == EXIT_OK
        csv = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        assert len(csv) == 10  # header + 9 grid rows

    def test_policies_share_schema(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path, policy={"name": "kvcompose"})
        main(["sweep", "--config", str(cfg_a), "--out", str(tmp_path / "a"), "--grid", "0,0.5"])
        cfg_b = write_config(tmp_path, policy={"name": "streaming", "sinks": 1})
        main(["sweep", "--config", str(cfg_b), "--out", str(tmp_path / "b"), "--grid", "0,0.5"])
        head_a = (tmp_path / "a" / "report.csv").read_text().split("\n")[0]
        head_b = (tmp_path / "b" / "report.csv").read_text().split("\n")[0]
        assert head_a == head_b

    def test_repeated_runs_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r1"), "--grid", "0,0.5"])
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r2"), "--grid", "0,0.5"])
        assert (tmp_path / "r1" / "report.json").read_bytes() == (
            tmp_path / "r2" / "report.json"
        ).read_bytes()

    def test_seed_override_changes_tasks(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s1"), "--grid", "0,0.5"])
        main(
            [
                "sweep", "--config", str(cfg), "--out", str(tmp_path / "s2"),
                "--grid", "0,0.5", "--seed-override", "77",
            ]
        )
        a = json.loads((tmp_path / "s1" / "report.json").read_text())
        b = json.loads((tmp_path / "s2" / "report.json").read_text())
        assert a["config"]["tasks"]["seed"] == 3
        assert b["config"]["tasks"]["seed"] == 77

    def test_seed_override_reseeds_random_without_a_seed(self, tmp_path, capsys):
        # the override reaches random's draws whether or not the config names a seed
        for out, policy in (("bare", {"name": "random"}), ("named", {"name": "random", "seed": 0})):
            cfg = write_config(tmp_path, policy=policy)
            flags = ["--out", str(tmp_path / out), "--grid", "0,0.5", "--seed-override", "5"]
            assert main(["sweep", "--config", str(cfg), *flags]) == EXIT_OK
        for name in ("report.json", "report.csv"):
            bare, named = (tmp_path / "bare" / name), (tmp_path / "named" / name)
            assert bare.read_bytes() == named.read_bytes()
        report = json.loads((tmp_path / "bare" / "report.json").read_text())
        assert report["config"]["policy"] == {"name": "random", "seed": 5}

    def test_reward_trend_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["sweep", "--config", str(cfg), "--grid", "0,0.5"])
        out = capsys.readouterr().out
        assert "reward_trend=" in out


    def test_tova_sweeps_to_full_compression(self, tmp_path, capsys):
        demo = Path(__file__).parent.parent / "configs" / "demo_agreement.json"
        config = json.loads(demo.read_text())
        config.update(policy={"name": "tova"}, grid=[0, 0.5, 1.0], out_dir=str(tmp_path / "out"))
        path = tmp_path / "tova.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["points"][-1]["r_achieved"] == 1.0


class TestAblateCommand:
    def test_enumerates_48_configs(self, tmp_path, capsys):
        assert len(ablation_grid()) == 48
        cfg = write_config(tmp_path, tasks={"kind": "recall", "count": 2, "seed": 3})
        rc = main(["ablate", "--config", str(cfg), "--grid", "0,0.5"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        # perfbench times ablate in segments cut at these progress lines
        *arm_lines, last = out.splitlines()
        assert [line.split(" auc=")[0] for line in arm_lines] == [
            f"ablate arm={_slug(c)}" for c in ablation_grid()
        ]
        assert last.startswith("ablate configs=48 ")
        combined = (tmp_path / "out" / "combined.csv").read_text()
        assert '"Agg(max,avg,avg), mean=on, norm=none"' in combined
        # one row per (config, grid point) plus header
        assert len(combined.strip().split("\n")) == 1 + 48 * 2

    def test_arm_reproducible_via_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tasks={"kind": "recall", "count": 2, "seed": 3})
        main(["ablate", "--config", str(cfg), "--grid", "0,0.5"])
        arm = tmp_path / "out" / "agg_max_avg_avg_mean_on_norm_none"
        rc = main(
            ["sweep", "--config", str(arm / "config.json"), "--out", str(tmp_path / "redo")]
        )
        assert rc == EXIT_OK
        assert (arm / "report.json").read_bytes() == (
            tmp_path / "redo" / "report.json"
        ).read_bytes()
        assert (arm / "report.csv").read_bytes() == (
            tmp_path / "redo" / "report.csv"
        ).read_bytes()

    def test_every_arm_echoes_its_config(self, tmp_path, capsys):
        # an arm's echo is the run's resolved config with the arm's choice in
        # scoring; a RunConfig built for the arm and resolved is the oracle
        demo = Path(__file__).parent.parent / "configs" / "demo_recall.json"
        path = tmp_path / "recall.json"
        path.write_text(json.dumps({**json.loads(demo.read_text()), "out_dir": str(tmp_path)}))
        assert main(["ablate", "--config", str(path), "--grid", "0,0.5"]) == EXIT_OK
        cfg = replace(load_config(path), grid=[0.0, 0.5])
        for choice in ablation_grid():
            arm = tmp_path / _slug(choice)
            echo = json.loads((arm / "config.json").read_text())
            assert echo == json.loads((arm / "report.json").read_text())["config"]
            assert echo == replace(cfg, scoring={**cfg.scoring, **asdict(choice)}).resolved


    def test_policy_that_reads_no_aggregation_choice_rejected(self, tmp_path, capsys):
        # demo_agreement.json's streaming policy would give 48 identical arms
        demo = Path(__file__).parent.parent / "configs" / "demo_agreement.json"
        config = json.loads(demo.read_text())
        assert not Policy(**config["policy"]).reads_aggregation
        config.update(out_dir=str(tmp_path / "out"))
        path = tmp_path / "agreement.json"
        path.write_text(json.dumps(config))
        assert main(["ablate", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ablate: policy streaming reads no")
        assert not (tmp_path / "out").exists()

    def test_each_distinct_mask_of_a_task_runs_once(self, tmp_path, capsys, monkeypatch):
        demo = Path(__file__).parent.parent / "configs" / "demo_recall.json"
        config = json.loads(demo.read_text())
        config.update(out_dir=str(tmp_path / "out"))
        path = tmp_path / "recall.json"
        path.write_text(json.dumps(config))
        calls = count_calls(monkeypatch, evaluator, "_forward")
        assert main(["ablate", "--config", str(path)]) == EXIT_OK
        stacks = [(args[1], args[3]) for args in calls if len(args) > 3 and args[3] is not None]
        assert stacks and max(len(masks) for _, masks in stacks) <= len(RATIO_GRID)
        by_task = {}  # every cache in ``calls`` stays alive, so no id is reused
        for cache, masks in stacks:
            by_task.setdefault(id(cache), []).extend(m.tobytes() for m in masks)
        assert all(len(rows) == len(set(rows)) for rows in by_task.values())

        cfg = load_config(path)
        mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
        model = build_model(cfg)
        distinct = 0
        for task in build_tasks(cfg, model):
            capture = prepare_task(model, task, mode, window)
            stack = keep_masks(capture, ablation_grid(), RATIO_GRID, cfg.eviction)
            distinct += len({m.tobytes() for arm in stack for m in arm})
        assert len(by_task) == cfg.tasks["count"]
        assert sum(len(rows) for rows in by_task.values()) == distinct

    def test_projected_norms_computed_once_per_task(self, tmp_path, capsys, proj_computations):
        # 16 of the 48 arms read vo-norm; each task's capture computes the norms once
        cfg = write_config(tmp_path)  # 4 recall tasks
        assert main(["ablate", "--config", str(cfg), "--grid", "0,0.5,0.9"]) == EXIT_OK
        assert len({id(c) for c in proj_computations}) == len(proj_computations) == 4

    def test_tasks_prepared_once_for_all_arms(self, tmp_path, capsys, monkeypatch):
        from kvcompose import scoring

        calls = count_calls(monkeypatch, scoring, "collect_attention")
        cfg = write_config(tmp_path)  # 4 recall tasks
        assert main(["ablate", "--config", str(cfg), "--grid", "0,0.5,0.9"]) == EXIT_OK
        assert len(calls) == 4
        arms = sorted(p for p in (tmp_path / "out").iterdir() if p.is_dir())
        assert len(arms) == 48
        for arm in arms:
            redo = tmp_path / "redo" / arm.name
            assert main(["sweep", "--config", str(arm / "config.json"), "--out", str(redo)]) == 0
            assert (arm / "report.json").read_bytes() == (redo / "report.json").read_bytes()


DUMP_NAMES = (
    "scores_task.npy",
    "scores_group.npy",
    "scores_final.npy",
    "composite_idx.npy",
    "layer_importance.npy",
)


class TestDumpScoresCommand:
    def test_shapes_and_invariants(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, scoring={"mode": "task-agnostic", "observation_window": 4}
        )
        rc = main(["dump-scores", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        outdir = tmp_path / "out"
        s_task, _, s_final, idx, imp = (np.load(outdir / name) for name in DUMP_NAMES)
        assert s_task.shape == (2, 2, 8)  # L, H_q, N for the 4-pair prompt
        assert s_final.shape == (2, 1, 8)
        assert idx.shape == (2, 1, 8)
        assert s_final.dtype == imp.dtype == np.float64 and idx.dtype == np.int64
        for layer in range(2):
            assert sorted(idx[layer, 0].tolist()) == list(range(8))
            assert (np.diff(imp[layer]) <= 0).all()  # slot scores never rise
        assert "shape=2x1x8" in out

    def test_rerun_writes_identical_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scoring={"mode": "task-agnostic"})
        runs = [tmp_path / "first", tmp_path / "second"]
        for out in runs:
            assert main(["dump-scores", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name in DUMP_NAMES:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_unwritable_target_is_an_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scoring={"mode": "task-agnostic"})
        (tmp_path / "out" / "scores_task.npy").mkdir(parents=True)
        assert main(["dump-scores", "--config", str(cfg)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("io error: cannot write array to ") and err.count("\n") == 1
        assert "scores_task.npy" in err and "Traceback" not in err

    def test_builds_only_the_first_task(self, tmp_path, capsys, monkeypatch):
        prefills = count_prefills(monkeypatch)
        cfg = write_config(
            tmp_path,
            model=RANDOM_MODEL,
            tasks={"kind": "agreement", "count": 16, "seed": 2, "context_len": 8},
            scoring={"mode": "task-agnostic"},
        )
        assert main(["dump-scores", "--config", str(cfg)]) == EXIT_OK
        assert len(prefills) == 1  # the task's greedy reference run: its capture reruns none

    @staticmethod
    def assert_dump_matches_library(config: Path):
        """Every dumped array equals what the library computes on the first
        task's capture, which sweep scores on, dtype and bits."""
        cfg = load_config(config)
        model = build_model(cfg)
        task = build_tasks(cfg, model)[0]
        capture = prepare_task(model, task, cfg.scoring["mode"], cfg.scoring["observation_window"])
        s_task, s_group, s_final = score_stages(capture, model.config.kv_heads, cfg.agg)
        idx = composite_indices(s_final)
        importance = layer_importance(s_final, idx, cfg.agg.agg_head)
        want = dict(zip(DUMP_NAMES, (s_task, s_group, s_final, idx, importance)))
        outdir = Path(cfg.out_dir)
        assert sorted(p.name for p in outdir.iterdir()) == sorted(want)
        for name, array in want.items():
            got = np.load(outdir / name)
            assert got.dtype == array.dtype and np.array_equal(got, array), name

    def test_task_aware_dump_matches_sweep_scores(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # task-aware recall
        assert main(["dump-scores", "--config", str(cfg)]) == EXIT_OK
        self.assert_dump_matches_library(cfg)

    def test_task_agnostic_dump_matches_sweep_scores(self, tmp_path, capsys):
        # two kv heads of two query heads each, so every reduction has work to do
        cfg = write_config(
            tmp_path,
            model={**RANDOM_MODEL, "query_heads": 4, "kv_heads": 2, "head_dim": 4},
            tasks={"kind": "agreement", "count": 2, "seed": 2, "context_len": 12},
            scoring={
                "mode": "task-agnostic",
                "observation_window": 4,
                **asdict(AggregationChoice(agg_head="max", norm_variant="vo-norm")),
            },
        )
        assert main(["dump-scores", "--config", str(cfg)]) == EXIT_OK
        self.assert_dump_matches_library(cfg)


class TestParseConfig:
    def test_minimal_config_takes_every_default(self, tmp_path):
        cfg = parse_config(
            {
                "model": {"kind": "induction", "num_pairs": 4, "vocab": 16},
                "tasks": {"kind": "recall", "count": 4, "seed": 3},
                "policy": {"name": "snapkv"},
            }
        )
        assert cfg.eviction == Policy(name="snapkv")
        assert cfg.agg == AggregationChoice()
        # the echo: scoring filled in, policy as written
        assert cfg.resolved["scoring"] == {
            "mode": DEFAULT_MODE,
            "observation_window": OBSERVATION_WINDOW,
            **asdict(AggregationChoice()),
        }
        assert cfg.resolved["policy"] == {"name": "snapkv"}
        assert cfg.grid == list(RATIO_GRID) and cfg.tolerances == list(DEFAULT_TOLERANCES)

    @pytest.mark.parametrize(
        "override",
        [
            {"scoring": {"mode": "task-agnostic", "observation_window": 0}},
            {"grid": [0.5]},
            {"policy": {"name": "pyramid", "shape": float("nan")}},
        ],
    )
    def test_load_rules_raise_config_error(self, override):
        data = {
            "model": {"kind": "induction", "num_pairs": 4, "vocab": 16},
            "tasks": {"kind": "recall", "count": 4, "seed": 3},
            "policy": {"name": "snapkv"},
            **override,
        }
        with pytest.raises(ConfigError):
            parse_config(data)


# case -> (command, bytes of the config, or of the context for compress)
UNREADABLE_INPUT = {
    "config-not-utf8": ("sweep", b'{"model": "\xff"}'),
    "context-not-utf8": ("compress", b"1 2 \xff 3"),
    "context-whitespace-only": ("compress", b" \n\t "),
    "config-nested-100000": ("sweep", b"[" * 100_000 + b"]" * 100_000),
}

# models whose weights numpy refuses to allocate before it asks for any memory
OVERSIZED_MODELS = {
    "random-layers-1e30": {**RANDOM_MODEL, "layers": 10**30},
    "random-vocab-1e30": {**RANDOM_MODEL, "vocab": 10**30},
    "induction-vocab-1e30": {"kind": "induction", "num_pairs": 4, "vocab": 10**30},
    "induction-vocab-2e9": {"kind": "induction", "num_pairs": 4, "vocab": 2_000_000_000},
}

# model, tasks and the config key the error names: prompts and scored steps
# that would take positions past max_context (512 random, 128 induction)
PAST_MAX_CONTEXT = {
    "agreement-2000000+8": (
        RANDOM_MODEL, {**AGREEMENT_TASKS, "context_len": 2_000_000, "teacher_steps": 8},
        "context_len + teacher_steps",
    ),
    "agreement-505+8": (
        RANDOM_MODEL, {**AGREEMENT_TASKS, "context_len": 505, "teacher_steps": 8},
        "context_len + teacher_steps",
    ),
    "recall-64-pairs": (
        {"kind": "induction", "num_pairs": 64, "vocab": 128},
        {"kind": "recall", "count": 1, "seed": 3},
        "num_pairs",
    ),
}
AT_MAX_CONTEXT = {
    "agreement-504+8": (RANDOM_MODEL, {**AGREEMENT_TASKS, "context_len": 504, "teacher_steps": 8}),
    "recall-63-pairs": (
        {"kind": "induction", "num_pairs": 63, "vocab": 126},
        {"kind": "recall", "count": 1, "seed": 3},
    ),
}


# (config overrides, extra flags, the key the error names): a seed outside
# [0, 2**64), which the generator would reduce mod 2**64 into another seed
BAD_SEEDS = {
    "model-seed-negative": (
        {"model": {**RANDOM_MODEL, "seed": -1}, "tasks": AGREEMENT_TASKS}, [], "model.seed"
    ),
    "model-seed-2**64": (
        {"model": {**RANDOM_MODEL, "seed": 2**64}, "tasks": AGREEMENT_TASKS}, [], "model.seed"
    ),
    "tasks-seed-negative": ({"tasks": {"kind": "recall", "count": 4, "seed": -1}}, [], "tasks.seed"),
    "policy-seed-2**64": ({"policy": {"name": "random", "seed": 2**64}}, [], "policy.seed"),
    "override-negative": ({}, ["--seed-override", "-1"], "--seed-override"),
    "override-2**64": ({}, ["--seed-override", str(2**64)], "--seed-override"),
}


class Drawn(Exception):
    """Raised in place of a task builder's first draw."""


def forbid_draws(monkeypatch) -> list:
    """Make the task builders' generator record its seed and raise ``Drawn``, so
    no token is ever drawn; the list holds a seed per builder that got that far."""
    seeds = []

    def refuse(seed):
        seeds.append(seed)
        raise Drawn

    monkeypatch.setattr(evaluator, "SeededRng", refuse)
    return seeds


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {}, "tasks": {}, "policy": {}, "bogus": 1}))
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_missing_context_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scoring={"mode": "task-agnostic"}, r_target=0.0)
        rc = main(["compress", "--config", str(cfg), "--context", str(tmp_path / "no.txt")])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("case", UNREADABLE_INPUT)
    def test_undecodable_or_over_nested_input(self, tmp_path, capsys, case):
        # bytes that are not UTF-8, a context of no token, or JSON nested past
        # the parser's recursion limit, are configuration errors that name the file
        command, data = UNREADABLE_INPUT[case]
        bad = tmp_path / "bad"
        bad.write_bytes(data)
        if command == "compress":
            cfg = write_config(tmp_path, scoring={"mode": "task-agnostic"}, r_target=0.0)
            argv = ["compress", "--config", str(cfg), "--context", str(bad)]
        else:
            argv = ["sweep", "--config", str(bad)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert str(bad) in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", OVERSIZED_MODELS)
    def test_oversized_model(self, tmp_path, capsys, case):
        model = OVERSIZED_MODELS[case]
        tasks = {"tasks": AGREEMENT_TASKS} if model["kind"] == "random" else {}  # else recall
        path = write_config(tmp_path, model=model, scoring={"mode": "task-agnostic"}, **tasks)
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: model too large to build: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "ablate", "dump-scores"])
    @pytest.mark.parametrize("case", PAST_MAX_CONTEXT)
    def test_task_length_past_max_context(self, tmp_path, capsys, monkeypatch, case, command):
        # refused, naming the key, before any token is drawn
        model, tasks, key = PAST_MAX_CONTEXT[case]
        drawn = forbid_draws(monkeypatch)
        path = write_config(tmp_path, model=model, tasks=tasks, scoring={"mode": "task-agnostic"})
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and drawn == []
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert key in captured.err and "max_context" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", BAD_SEEDS)
    def test_seed_outside_the_generator_range(self, tmp_path, capsys, monkeypatch, case):
        # refused, naming the key, before any token is drawn: -1 and 2**64 - 1
        # would otherwise give the same report under different echoed seeds
        overrides, flags, key = BAD_SEEDS[case]
        drawn = forbid_draws(monkeypatch)
        path = write_config(tmp_path, scoring={"mode": "task-agnostic"}, **overrides)
        assert main(["sweep", "--config", str(path), *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and drawn == []
        assert captured.err.startswith(f"config error: {key} must be in [0, 2**64)")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        path = write_config(
            tmp_path, model={**RANDOM_MODEL, "seed": 2**64 - 1}, tasks=AGREEMENT_TASKS,
            policy={"name": "random", "seed": 2**64 - 1}, scoring={"mode": "task-agnostic"},
        )
        cfg = load_config(path)
        assert cfg.model["seed"] == cfg.policy["seed"] == 2**64 - 1

    @pytest.mark.parametrize("case", AT_MAX_CONTEXT)
    def test_task_length_at_max_context_is_drawn(self, tmp_path, monkeypatch, case):
        model, tasks = AT_MAX_CONTEXT[case]
        drawn = forbid_draws(monkeypatch)
        path = write_config(tmp_path, model=model, tasks=tasks, scoring={"mode": "task-agnostic"})
        cfg = load_config(path)
        with pytest.raises(Drawn):
            build_tasks(cfg, build_model(cfg))
        assert drawn == [3 if case.startswith("recall") else 2]

    @pytest.mark.parametrize("name", ["tova", "streaming", "kvcompose"])
    @pytest.mark.parametrize("task", [[999], list(range(1, 16)) * 9], ids=["id-999", "135-long"])
    def test_compress_refuses_task_tokens_the_model_cannot_run(self, tmp_path, capsys, name, task):
        # every policy checks its task tokens, whether or not its capture runs them
        cfg = write_config(
            tmp_path, scoring={"mode": "task-aware", "task_tokens": [[1], task]}, policy={"name": name}
        )
        ctx = write_context(tmp_path, [1, 9, 3, 12, 5, 8])
        assert main(["compress", "--config", str(cfg), "--context", str(ctx)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        want = "token ids must lie in [0, 16)" if task == [999] else "leave [0, max_context 128)"
        assert captured.err.startswith("config error: ") and want in captured.err
        assert not (tmp_path / "out").exists()

    def test_task_aware_compress_needs_task_tokens(self, tmp_path, capsys, monkeypatch):
        prefills = count_prefills(monkeypatch)
        cfg = write_config(tmp_path, scoring={"mode": "task-aware"})
        ctx = write_context(tmp_path, [1, 9, 3, 12, 5, 8])
        assert main(["compress", "--config", str(cfg), "--context", str(ctx)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        want = "config error: task-aware compression needs scoring.task_tokens"
        assert captured.err.startswith(want)
        assert prefills == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compress", "sweep"])
    def test_task_tokens_refused_in_task_agnostic_mode(self, tmp_path, capsys, command):
        # the window's own rows are the queries there: no command would read the tokens
        scoring = {"mode": "task-agnostic", "observation_window": 4, "task_tokens": [[1, 2]]}
        cfg = write_config(tmp_path, model=RANDOM_MODEL, tasks=AGREEMENT_TASKS, scoring=scoring)
        ctx = write_context(tmp_path, [1, 9, 3, 12, 5, 8])
        flags = ["--context", str(ctx)] if command == "compress" else []
        assert main([command, "--config", str(cfg), *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: scoring.task_tokens")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "ablate", "dump-scores"])
    def test_task_tokens_refused_where_tasks_bring_their_queries(self, tmp_path, capsys, command):
        # only compress reads the tokens; these commands score each task on its own query
        cfg = write_config(tmp_path, scoring={"mode": "task-aware", "task_tokens": [[1, 2, 3]]})
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: scoring.task_tokens")
        assert not (tmp_path / "out").exists()

    def test_recall_requires_induction_model(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={
                "kind": "random",
                "layers": 2,
                "query_heads": 2,
                "kv_heads": 1,
                "model_dim": 16,
                "head_dim": 8,
                "vocab": 16,
                "seed": 0,
            },
        )
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides, named", MALFORMED, ids=[named for _, named in MALFORMED]
    )
    def test_malformed_value(self, tmp_path, capsys, overrides, named):
        if overrides is None:
            path = tmp_path / "list.json"
            path.write_text(json.dumps([1, 2]))
        else:
            path = write_config(tmp_path, **overrides)
        assert main(["sweep", "--config", str(path), "--grid", "0,0.5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, key",
        [(n, k) for n in POLICY_NAMES for k in PARAMETER_VALUES if k not in POLICY_PARAMS[n]],
    )
    def test_parameter_the_policy_does_not_read_refused(self, tmp_path, capsys, name, key):
        path = write_config(tmp_path, policy={"name": name, key: PARAMETER_VALUES[key]})
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: unknown keys in 'policy': ['{key}']")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_parameters_the_policy_reads_accepted(self, tmp_path, name):
        params = {k: PARAMETER_VALUES[k] for k in POLICY_PARAMS[name]}
        cfg = load_config(write_config(tmp_path, policy={"name": name, **params}))
        assert cfg.eviction == Policy(name=name, **params)

    @pytest.mark.parametrize("case", LOAD_RULES)
    def test_rule_checked_before_any_task_is_prepared(self, tmp_path, capsys, monkeypatch, case):
        overrides, flags, named = LOAD_RULES[case]
        prepared = count_calls(monkeypatch, evaluator, "prepare_task")
        path = write_config(tmp_path, **overrides)
        assert main(["sweep", "--config", str(path), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err
        assert prepared == []

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    def test_task_aware_agreement_rejected(self, tmp_path, capsys, command):
        # task-aware scoring reads a query, and an agreement task has none
        path = write_config(tmp_path, model=RANDOM_MODEL, tasks=AGREEMENT_TASKS)  # task-aware
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: task-aware: an agreement task has no query before its answer\n"
        )
        assert not (tmp_path / "out").exists()

    def test_agreement_steps_beyond_max_context(self, tmp_path, capsys):
        # the reference run would decode at positions 510-517, past max_context 512
        tasks = {"kind": "agreement", "count": 1, "seed": 2, "context_len": 510, "teacher_steps": 8}
        path = write_config(
            tmp_path, model=RANDOM_MODEL, tasks=tasks, scoring={"mode": "task-agnostic"}
        )
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "max_context" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_failed_ablate_leaves_no_directory(self, tmp_path, capsys):
        # the first task's reference run fails before any arm is written
        tasks = {"kind": "agreement", "count": 1, "seed": 2, "context_len": 510, "teacher_steps": 8}
        path = write_config(
            tmp_path, model=RANDOM_MODEL, tasks=tasks, scoring={"mode": "task-agnostic"}
        )
        assert main(["ablate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "max_context" in err
        assert not (tmp_path / "out").exists()

    def test_grid_from_nonzero_without_tolerances_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, grid=[0.5], tolerances=[])
        assert main(["sweep", "--config", str(path)]) == EXIT_OK
        assert json.loads((tmp_path / "out" / "report.json").read_text())["tolerances"] == []
        # no tolerance field, so one space between the AUC and the trend
        out = capsys.readouterr().out
        assert "  " not in out and " reward_trend=" in out

    def test_bad_grid_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--grid", "0.5,0.1"]) == EXIT_CONFIG

    def test_empty_grid_flag_rejected(self, tmp_path, capsys):
        # an empty value is a grid with no ratio, not the default grid
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--grid", ""]) == EXIT_CONFIG
        assert "--grid must be comma-separated floats: ''" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diagnostics_go_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["sweep", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""
        assert "config error" in captured.err
