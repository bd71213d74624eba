"""Command-line surface: compress, sweep, ablate, dump-scores, gen-model.

Configs are strict JSON (unknown keys are rejected) so ablation grids stay
scriptable and diffable. stdout carries machine-readable summary lines;
diagnostics go to stderr. Exit codes: 0 success, 2 configuration error,
3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import cache_io
from .baselines import Policy
from .composer import composite_indices, compress, layer_importance
from .errors import ConfigError, KvcError, UsageError
from .evaluator import (
    DEFAULT_AGREEMENT_STEPS,
    DEFAULT_TOLERANCES,
    RATIO_GRID,
    build_report,
    make_agreement_tasks,
    make_recall_tasks,
    prepare_task,
    sweep_prepared,
)
from .model import Model, construct_induction_model, init_model, ModelConfig
from .scoring import AGG_OPS, NORM_VARIANTS, AggregationChoice, TaskSet, score_stages

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    model: dict
    tasks: dict
    scoring: dict
    policy: dict
    grid: list[float]
    tolerances: list[float]
    r_target: float
    out_dir: str

    @property
    def resolved(self) -> dict:
        return asdict(self)


def _require_keys(section: dict, name: str, required: set[str], optional: set[str]) -> None:
    unknown = set(section) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {name!r}: {sorted(missing)}")


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise cache_io.IoError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def parse_config(data: dict) -> RunConfig:
    _require_keys(
        data,
        "config",
        required={"model", "tasks", "policy"},
        optional={"scoring", "grid", "tolerances", "r_target", "out_dir"},
    )
    model = dict(data["model"])
    kind = model.get("kind")
    if kind == "random":
        _require_keys(
            model,
            "model",
            required={"kind", "layers", "query_heads", "kv_heads", "model_dim", "head_dim", "vocab", "seed"},
            optional={"max_context"},
        )
    elif kind == "induction":
        _require_keys(model, "model", required={"kind", "num_pairs", "vocab"}, optional=set())
    else:
        raise ConfigError(f"model.kind must be 'random' or 'induction', got {kind!r}")

    tasks = dict(data["tasks"])
    tkind = tasks.get("kind")
    if tkind == "recall":
        _require_keys(tasks, "tasks", required={"kind", "count", "seed"}, optional=set())
    elif tkind == "agreement":
        _require_keys(
            tasks,
            "tasks",
            required={"kind", "count", "seed", "context_len"},
            optional={"teacher_steps"},
        )
        tasks.setdefault("teacher_steps", DEFAULT_AGREEMENT_STEPS)
    else:
        raise ConfigError(f"tasks.kind must be 'recall' or 'agreement', got {tkind!r}")

    scoring = dict(data.get("scoring", {}))
    _require_keys(
        scoring,
        "scoring",
        required=set(),
        optional={
            "mode",
            "observation_window",
            "agg_task",
            "agg_group",
            "agg_head",
            "norm_variant",
            "mean_augment",
            "task_tokens",
        },
    )
    scoring.setdefault("mode", "task-agnostic")
    scoring.setdefault("observation_window", 32)
    scoring.setdefault("agg_task", "max")
    scoring.setdefault("agg_group", "avg")
    scoring.setdefault("agg_head", "avg")
    scoring.setdefault("norm_variant", "none")
    scoring.setdefault("mean_augment", True)
    if scoring["mode"] not in ("task-aware", "task-agnostic"):
        raise ConfigError(f"scoring.mode invalid: {scoring['mode']!r}")

    policy = dict(data["policy"])
    _require_keys(
        policy,
        "policy",
        required={"name"},
        optional={"sinks", "window", "shape", "seed"},
    )

    return RunConfig(
        model=model,
        tasks=tasks,
        scoring=scoring,
        policy=policy,
        grid=_check_grid(list(data.get("grid", RATIO_GRID)), "grid"),
        tolerances=list(data.get("tolerances", DEFAULT_TOLERANCES)),
        r_target=float(data.get("r_target", 0.5)),
        out_dir=str(data.get("out_dir", "runs/out")),
    )


def _check_grid(grid: list[float], name: str) -> list[float]:
    if grid != sorted(grid) or any(not 0.0 <= g <= 1.0 for g in grid):
        raise ConfigError(f"{name} must be ascending ratios in [0, 1]")
    return grid


def build_model(cfg: RunConfig) -> Model:
    m = cfg.model
    if m["kind"] == "induction":
        return construct_induction_model(m["num_pairs"], m["vocab"])
    extra = {"max_context": m["max_context"]} if "max_context" in m else {}
    return init_model(
        ModelConfig(
            layers=m["layers"],
            query_heads=m["query_heads"],
            kv_heads=m["kv_heads"],
            model_dim=m["model_dim"],
            head_dim=m["head_dim"],
            vocab_size=m["vocab"],
            seed=m["seed"],
            **extra,
        )
    )


def build_tasks(cfg: RunConfig, model: Model):
    t = cfg.tasks
    if t["kind"] == "recall":
        if cfg.model["kind"] != "induction":
            raise ConfigError("recall tasks need the induction model")
        return make_recall_tasks(
            cfg.model["num_pairs"], cfg.model["vocab"], t["count"], t["seed"]
        )
    return make_agreement_tasks(
        model, t["count"], t["context_len"], t["teacher_steps"], t["seed"]
    )


def build_policy(cfg: RunConfig) -> Policy:
    p = cfg.policy
    return Policy(
        name=p["name"],
        sinks=p.get("sinks", 2),
        window=p.get("window", 4),
        shape=p.get("shape", 1.0),
        seed=p.get("seed", 0),
    )


def build_agg(cfg: RunConfig) -> AggregationChoice:
    s = cfg.scoring
    return AggregationChoice(
        agg_task=s["agg_task"],
        agg_group=s["agg_group"],
        agg_head=s["agg_head"],
        norm_variant=s["norm_variant"],
        mean_augment=bool(s["mean_augment"]),
    )


def _read_context(path: str | Path, vocab: int) -> list[int]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise cache_io.IoError(f"cannot read context {path}: {exc}") from exc
    try:
        tokens = [int(t) for t in text.split()]
    except ValueError as exc:
        raise ConfigError(f"context file {path} must hold whitespace-separated ints") from exc
    if not tokens:
        raise ConfigError(f"context file {path} is empty")
    bad = [t for t in tokens if not 0 <= t < vocab]
    if bad:
        raise ConfigError(f"context tokens outside vocab [0, {vocab}): {bad[:5]}")
    return tokens


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "seed_override", None) is not None:
        seed = args.seed_override
        if cfg.model["kind"] == "random":
            cfg.model["seed"] = seed
        cfg.tasks["seed"] = seed
        if "seed" in cfg.policy:
            cfg.policy["seed"] = seed
    if getattr(args, "grid", None):
        try:
            grid = [float(g) for g in args.grid.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--grid must be comma-separated floats: {args.grid!r}") from exc
        cfg.grid = _check_grid(grid, "--grid")
    return cfg


def _scoring_task_set(cfg: RunConfig, context_len: int) -> TaskSet:
    if cfg.scoring["mode"] == "task-aware":
        raw = cfg.scoring.get("task_tokens")
        if not raw:
            raise ConfigError(
                "task-aware compression needs scoring.task_tokens (lists of token ids)"
            )
        return TaskSet(mode="task-aware", tasks=tuple(tuple(t) for t in raw))
    return TaskSet(
        mode="task-agnostic",
        observation_window=min(cfg.scoring["observation_window"], context_len),
    )


def cmd_compress(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    model = build_model(cfg)
    context = _read_context(args.context, model.config.vocab_size)
    task_set = _scoring_task_set(cfg, len(context))
    cache, report = compress(
        model, context, task_set, build_agg(cfg), cfg.r_target, build_policy(cfg)
    )
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "cache.kvcf"
    n_bytes = cache_io.write_cache(cache, path)
    print(f"compressed {report.summary()} out={path} bytes={n_bytes}")
    return EXIT_OK


def _prepare_tasks(cfg: RunConfig, model: Model):
    """Every task's capture (with its prefill) and reference run."""
    mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
    return [prepare_task(model, t, mode, window) for t in build_tasks(cfg, model)]


def _sweep_report(cfg: RunConfig, model: Model, states):
    policy = build_policy(cfg)
    points = sweep_prepared(model, states, policy, build_agg(cfg), tuple(cfg.grid))
    seeds = [cfg.model.get("seed", 0), cfg.tasks["seed"]]
    return build_report(
        policy,
        points,
        seeds=seeds,
        config=cfg.resolved,
        tolerances=tuple(cfg.tolerances),
    )


def _print_sweep_line(report, paths) -> None:
    tol = " ".join(
        f"max_r@{t.tolerance:g}={t.r_grid:g}/{t.r_interpolated:g}"
        for t in report.tolerance_results
    )
    rewards = [p.reward_mean for p in report.points]
    # reported for the reader, never asserted: noise can bend the curve
    trend = (
        "non-increasing"
        if all(b <= a + 1e-12 for a, b in zip(rewards, rewards[1:]))
        else "non-monotone"
    )
    print(
        f"sweep policy={report.policy} auc={report.auc!r} {tol} "
        f"reward_trend={trend} report={paths['json']} csv={paths['csv']}"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    model = build_model(cfg)
    report = _sweep_report(cfg, model, _prepare_tasks(cfg, model))
    paths = cache_io.write_report(report, Path(args.out or cfg.out_dir))
    _print_sweep_line(report, paths)
    return EXIT_OK


def ablation_grid() -> list[AggregationChoice]:
    combos = []
    for task_op, group_op, head_op, mean_on, norm in product(
        AGG_OPS, AGG_OPS, AGG_OPS, (True, False), NORM_VARIANTS
    ):
        combos.append(
            AggregationChoice(
                agg_task=task_op,
                agg_group=group_op,
                agg_head=head_op,
                norm_variant=norm,
                mean_augment=mean_on,
            )
        )
    return combos


def _slug(choice: AggregationChoice) -> str:
    mean = "on" if choice.mean_augment else "off"
    norm = choice.norm_variant.replace("-", "")
    return f"agg_{choice.agg_task}_{choice.agg_group}_{choice.agg_head}_mean_{mean}_norm_{norm}"


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    model = build_model(cfg)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    states = _prepare_tasks(cfg, model)  # scoring mode and window are the same in every arm
    combined = ["label,r_target,r_achieved,reward_mean,reward_std,epsilon,kl_mean,auc"]
    count = 0
    for choice in ablation_grid():
        arm_cfg = replace(cfg, scoring={**cfg.scoring, **asdict(choice)})
        arm_dir = out / _slug(choice)
        arm_dir.mkdir(parents=True, exist_ok=True)
        (arm_dir / "config.json").write_text(
            json.dumps(arm_cfg.resolved, sort_keys=True, indent=2) + "\n"
        )
        report = _sweep_report(arm_cfg, model, states)
        paths = cache_io.write_report(report, arm_dir)
        for p in report.points:
            combined.append(
                f'"{choice.label()}",{p.r_target!r},{p.r_achieved!r},'
                f"{p.reward_mean!r},{p.reward_std!r},{p.epsilon!r},{p.kl_mean!r},"
                f"{report.auc!r}"
            )
        print(f"ablate arm={_slug(choice)} auc={report.auc!r} report={paths['json']}")
        count += 1

    combined_path = out / "combined.csv"
    combined_path.write_text("\n".join(combined) + "\n")
    print(f"ablate configs={count} combined={combined_path}")
    return EXIT_OK


def _write_tensors(command: str, out: Path, tensors: dict[str, np.ndarray]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, array in tensors.items():
        array = np.asarray(array)
        cache_io.write_tensor(array, out / name)
        shape = "x".join(str(s) for s in array.shape)
        print(f"{command} tensor={name} shape={shape} out={out / name}")


def cmd_dump_scores(args: argparse.Namespace) -> int:
    """Write the score stages, slot order and layer importance that ``sweep``
    computes for the first task."""
    cfg = _apply_overrides(load_config(args.config), args)
    model = build_model(cfg)
    task = build_tasks(cfg, model)[0]
    state = prepare_task(model, task, cfg.scoring["mode"], cfg.scoring["observation_window"])
    agg = build_agg(cfg)
    s_task, s_group, s_final = score_stages(state.capture, model.config.kv_heads, agg)
    ci = composite_indices(s_final)
    tensors = {
        "scores_task.kvct": s_task.values,
        "scores_group.kvct": s_group.values,
        "scores_final.kvct": s_final.values,
        "composite_idx.kvct": ci.idx.astype(np.uint32),
        "layer_importance.kvct": layer_importance(ci, agg.agg_head).values,
    }
    _write_tensors("dump-scores", Path(args.out or cfg.out_dir), tensors)
    return EXIT_OK


def cmd_gen_model(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    model = build_model(cfg)
    tensors = {
        "embedding.kvct": model.embedding,
        "wq.kvct": model.wq,
        "wk.kvct": model.wk,
        "wv.kvct": model.wv,
        "wo.kvct": model.wo,
        "inv_freq.kvct": model.inv_freq,
    }
    if model.pos_embedding is not None:
        tensors["pos_embedding.kvct"] = model.pos_embedding
    _write_tensors("gen-model", Path(args.out or cfg.out_dir), tensors)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvcompose",
        description="Attention-guided KV cache compression with composite tokens",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        p.add_argument("--seed-override", type=int, default=None, dest="seed_override")
        p.add_argument("--grid", default=None, help="comma-separated ratio grid override")

    p_compress = sub.add_parser("compress", help="compress one context to a KVCF file")
    common(p_compress)
    p_compress.add_argument("--context", required=True, help="whitespace-separated token ids")
    p_compress.set_defaults(func=cmd_compress)

    p_sweep = sub.add_parser("sweep", help="ratio-grid evaluation of one policy")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ablate = sub.add_parser("ablate", help="sweep every aggregation/mean/norm combination")
    common(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_dump = sub.add_parser("dump-scores", help="write score tensors for inspection")
    common(p_dump)
    p_dump.set_defaults(func=cmd_dump_scores)

    p_gen = sub.add_parser("gen-model", help="write model weight tensors")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen_model)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (cache_io.IoError, cache_io.CacheFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KvcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
