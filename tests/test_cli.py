import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from kvcompose import evaluator, model as kvmodel
from kvcompose.baselines import Policy
from kvcompose.cache_io import read_cache, read_tensor
from kvcompose.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    ablation_grid,
    build_model,
    build_tasks,
    load_config,
    main,
    parse_config,
)
from kvcompose.composer import composite_indices, layer_importance
from kvcompose.errors import ConfigError
from kvcompose.evaluator import DEFAULT_TOLERANCES, RATIO_GRID, prepare_task
from kvcompose.scoring import (
    DEFAULT_MODE,
    OBSERVATION_WINDOW,
    AggregationChoice,
    score_stages,
)

from conftest import count_calls


def write_config(tmp_path, **overrides) -> Path:
    cfg = {
        "model": {"kind": "induction", "num_pairs": 4, "vocab": 16},
        "tasks": {"kind": "recall", "count": 4, "seed": 3},
        "scoring": {"mode": "task-aware"},
        "policy": {"name": "kvcompose"},
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
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
    (None, "config must be a JSON object"),  # a top-level list
]

AGREEMENT_TASKS = {"kind": "agreement", "count": 1, "seed": 2, "context_len": 8}

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
        prefills = count_calls(monkeypatch, kvmodel, "prefill")
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
        assert "ablate configs=48" in out
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


class TestDumpScoresCommand:
    def test_shapes_and_invariants(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, scoring={"mode": "task-agnostic", "observation_window": 4}
        )
        rc = main(["dump-scores", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        outdir = tmp_path / "out"
        s_task = read_tensor(outdir / "scores_task.kvct")
        s_final = read_tensor(outdir / "scores_final.kvct")
        idx = read_tensor(outdir / "composite_idx.kvct")
        imp = read_tensor(outdir / "layer_importance.kvct")
        assert s_task.shape == (2, 2, 8)  # L, H_q, N for the 4-pair prompt
        assert s_final.shape == (2, 1, 8)
        assert idx.shape == (2, 1, 8)
        for layer in range(2):
            assert sorted(idx[layer, 0].tolist()) == list(range(8))
            row = imp[layer]
            assert all(row[i] >= row[i + 1] - 1e-6 for i in range(7))
        assert "shape=2x1x8" in out

    def test_builds_only_the_first_task(self, tmp_path, capsys, monkeypatch):
        prefills = count_calls(monkeypatch, kvmodel, "prefill")
        cfg = write_config(
            tmp_path,
            model=RANDOM_MODEL,
            tasks={"kind": "agreement", "count": 16, "seed": 2, "context_len": 8},
        )
        assert main(["dump-scores", "--config", str(cfg)]) == EXIT_OK
        assert len(prefills) == 2  # the task's greedy reference run, then its capture

    @staticmethod
    def assert_dump_matches_library(config: Path):
        """Every dumped tensor equals what the library computes on the first
        task's prepared state, which sweep scores on, as float32/uint32."""
        cfg = load_config(config)
        model = build_model(cfg)
        task = build_tasks(cfg, model)[0]
        state = prepare_task(model, task, cfg.scoring["mode"], cfg.scoring["observation_window"])
        s_task, s_group, s_final = score_stages(state.capture, model.config.kv_heads, cfg.agg)
        idx = composite_indices(s_final)
        want = {
            "scores_task.kvct": s_task.astype(np.float32),
            "scores_group.kvct": s_group.astype(np.float32),
            "scores_final.kvct": s_final.astype(np.float32),
            "composite_idx.kvct": idx.astype(np.uint32),
            "layer_importance.kvct": layer_importance(s_final, idx, cfg.agg.agg_head).astype(
                np.float32
            ),
        }
        outdir = Path(cfg.out_dir)
        assert sorted(p.name for p in outdir.iterdir()) == sorted(want)
        for name, array in want.items():
            got = read_tensor(outdir / name)
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
