"""Command-line surface: compress, sweep, ablate, dump-scores.

Configs are strict JSON (unknown keys and values of the wrong type are
rejected) so ablation grids stay scriptable and diffable. stdout carries
machine-readable summary lines; diagnostics go to stderr. Exit codes:
0 success, 2 configuration error, 3 I/O error. ``cache_io`` reads and
writes every file; a config or context that does not decode as UTF-8,
or nests too deep, is a configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import cache_io
from .baselines import POLICY_PARAMS, Policy
from .composer import composite_indices, compress, layer_importance
from .errors import ConfigError, KvcError, UsageError
from .evaluator import (
    DEFAULT_AGREEMENT_STEPS,
    DEFAULT_TOLERANCES,
    RATIO_GRID,
    build_report,
    check_grid,
    make_agreement_tasks,
    make_recall_tasks,
    prepare_task,
    sweep,
    sweep_arms,
)
from .model import Model, construct_induction_model, init_model, ModelConfig
from .scoring import (
    AGG_OPS,
    DEFAULT_MODE,
    NORM_VARIANTS,
    OBSERVATION_WINDOW,
    TASK_MODES,
    AggregationChoice,
    TaskSet,
    check_observation_window,
    score_stages,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

_AGG_DEFAULTS = {f.name: f.default for f in fields(AggregationChoice)}
_SCORING_DEFAULTS = {
    "mode": DEFAULT_MODE,
    "observation_window": OBSERVATION_WINDOW,
    **_AGG_DEFAULTS,
}
_SCORING_TYPES = {
    **{k: t for k, t in get_type_hints(TaskSet).items() if k != "tasks"},
    **get_type_hints(AggregationChoice),
    "task_tokens": list[list[int]],
}
# random-model config key -> ModelConfig field
_RANDOM_MODEL = {
    ("vocab" if f.name == "vocab_size" else f.name): f.name for f in fields(ModelConfig)
}
_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "true or false",
    dict: "a JSON object",
}


@dataclass
class RunConfig:
    """A checked run config: each section as written, with scoring and
    ``teacher_steps`` filled in, which is what ``resolved`` echoes.

    The policy and aggregation choice are built on construction, so every
    RunConfig, the copies ``replace`` makes included, is checked when made."""

    model: dict
    tasks: dict
    policy: dict
    scoring: dict
    grid: list[float] = field(default_factory=lambda: list(RATIO_GRID))
    tolerances: list[float] = field(default_factory=lambda: list(DEFAULT_TOLERANCES))
    r_target: float = 0.5
    out_dir: str = "runs/out"

    def __post_init__(self):
        check_grid(self.grid, ConfigError)
        if self.tolerances and self.grid[0] != 0.0:
            raise ConfigError(f"grid must start at 0 when tolerances are set, got {self.grid}")
        mode = self.scoring["mode"]
        if mode not in TASK_MODES:
            raise ConfigError(f"scoring.mode must be one of {TASK_MODES}, got {mode!r}")
        check_observation_window(self.scoring["observation_window"], ConfigError)
        for key in ("count", "context_len", "teacher_steps"):
            if self.tasks.get(key, 1) < 1:
                raise ConfigError(f"tasks.{key} must be >= 1, got {self.tasks[key]}")
        for name in ("model", "tasks", "policy"):  # SeededRng would reduce a seed mod 2**64
            if not 0 <= (seed := getattr(self, name).get("seed", 0)) < 2**64:
                raise ConfigError(f"{name}.seed must be in [0, 2**64), got {seed}")
        if mode == "task-agnostic" and "task_tokens" in self.scoring:
            raise ConfigError("scoring.task_tokens: task-agnostic scoring reads no task tokens")
        if mode == "task-aware" and self.tasks["kind"] == "agreement":
            raise ConfigError("task-aware: an agreement task has no query before its answer")
        self.r_target = float(self.r_target)
        if not 0.0 <= self.r_target <= 1.0:
            raise ConfigError(f"r_target must be in [0, 1], got {self.r_target}")
        self.eviction = Policy(**self.policy)
        self.agg = AggregationChoice(**{k: self.scoring[k] for k in _AGG_DEFAULTS})

    @property
    def resolved(self) -> dict:
        return asdict(self)


def _check_type(value, kind, where: str) -> None:
    """Reject a JSON value that is not of type ``kind``, or a number that is
    not finite; for a list type, check every item. Numbers and true/false
    are never taken for each other."""
    if get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_type(item, get_args(kind)[0], f"{where}[{i}]")
        return
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):  # json.loads reads NaN, Infinity
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _section(
    data: dict, name: str, types: dict, required: set[str], fill: dict | None = None
) -> dict:
    """One config section checked against ``types`` (key -> type), with
    ``fill``'s defaults added for the keys it leaves out."""
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing keys in {name!r}: {sorted(missing)}")
    for key, value in data.items():
        _check_type(value, types[key], key if name == "config" else f"{name}.{key}")
    return {**(fill or {}), **data}


def load_config(path: str | Path) -> RunConfig:
    raw = cache_io.read_file(path, "config")
    try:
        data = json.loads(raw)  # UTF-8, or UTF-16/32 by json's own detection
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def parse_config(data) -> RunConfig:
    """Check a config's JSON value (unknown or missing keys, wrong types)
    and fill in each left-out default from the place that defines it."""
    _check_type(data, dict, "config")
    top = _section(data, "config", get_type_hints(RunConfig), {"model", "tasks", "policy"})

    model = top["model"]
    if model.get("kind") == "random":
        hints = get_type_hints(ModelConfig)
        types = {"kind": str, **{key: hints[name] for key, name in _RANDOM_MODEL.items()}}
        model = _section(model, "model", types, set(types) - {"max_context"})
    elif model.get("kind") == "induction":
        types = {"kind": str, "num_pairs": int, "vocab": int}
        model = _section(model, "model", types, set(types))
    else:
        raise ConfigError(f"model.kind must be 'random' or 'induction', got {model.get('kind')!r}")

    tasks = top["tasks"]
    types = {"kind": str, "count": int, "seed": int}
    if tasks.get("kind") == "recall":
        tasks = _section(tasks, "tasks", types, set(types))
    elif tasks.get("kind") == "agreement":
        types = {**types, "context_len": int, "teacher_steps": int}
        fill = {"teacher_steps": DEFAULT_AGREEMENT_STEPS}
        tasks = _section(tasks, "tasks", types, set(types) - set(fill), fill)
    else:
        raise ConfigError(f"tasks.kind must be 'recall' or 'agreement', got {tasks.get('kind')!r}")

    policy_types = get_type_hints(Policy)
    name = top["policy"].get("name")
    if isinstance(name, str) and name in POLICY_PARAMS:  # Policy or the type check refuses others
        policy_types = {k: policy_types[k] for k in ("name", *POLICY_PARAMS[name])}
    return RunConfig(
        **{
            **top,
            "model": model,
            "tasks": tasks,
            "policy": _section(top["policy"], "policy", policy_types, {"name"}),
            "scoring": _section(
                top.get("scoring", {}), "scoring", _SCORING_TYPES, set(), _SCORING_DEFAULTS
            ),
        }
    )


def build_model(cfg: RunConfig) -> Model:
    m = cfg.model
    try:  # numpy refuses weights too large to hold with ValueError or MemoryError
        if m["kind"] == "induction":
            return construct_induction_model(m["num_pairs"], m["vocab"])
        return init_model(ModelConfig(**{_RANDOM_MODEL[k]: v for k, v in m.items() if k != "kind"}))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"model too large to build: {exc}") from exc


def build_tasks(cfg: RunConfig, model: Model):
    if "task_tokens" in cfg.scoring:  # only compress, which builds no tasks, reads them
        raise ConfigError("scoring.task_tokens: each task is scored on its own query")
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


def _read_context(path: str | Path) -> list[int]:
    """The context's token ids; the model rejects ids outside its vocabulary."""
    raw = cache_io.read_file(path, "context")
    try:
        tokens = [int(t) for t in raw.decode().split()]  # UnicodeDecodeError is a ValueError
    except ValueError as exc:
        raise ConfigError(f"context file {path} must hold whitespace-separated ints") from exc
    if not tokens:
        raise ConfigError(f"context file {path} is empty")
    return tokens


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed_override is not None:
        seed = args.seed_override
        if not 0 <= seed < 2**64:
            raise ConfigError(f"--seed-override must be in [0, 2**64), got {seed}")
        model = {**cfg.model, "seed": seed} if cfg.model["kind"] == "random" else cfg.model
        reseed = "seed" in POLICY_PARAMS[cfg.eviction.name]
        policy = {**cfg.policy, "seed": seed} if reseed else cfg.policy
        cfg = replace(cfg, model=model, tasks={**cfg.tasks, "seed": seed}, policy=policy)
    if args.grid is not None:
        try:
            grid = [float(g) for g in args.grid.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--grid must be comma-separated floats: {args.grid!r}") from exc
        cfg = replace(cfg, grid=grid)
    return cfg


def cmd_compress(args: argparse.Namespace, cfg: RunConfig, model: Model) -> int:
    context = _read_context(args.context)
    mode, tokens = cfg.scoring["mode"], cfg.scoring.get("task_tokens", [])
    if mode == "task-aware" and not tokens:
        raise ConfigError("task-aware compression needs scoring.task_tokens (lists of token ids)")
    task_set = TaskSet.for_context(mode, len(context), tokens, cfg.scoring["observation_window"])
    cache, report = compress(model, context, task_set, cfg.agg, cfg.r_target, cfg.eviction)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "cache.kvcf"
    n_bytes = cache_io.write_cache(cache, path)
    print(f"compressed {report.summary()} out={path} bytes={n_bytes}")
    return EXIT_OK


def _sweep_report(cfg: RunConfig, model: Model, points, config: dict):
    return build_report(
        cfg.eviction,
        points,
        seeds=[model.config.seed, cfg.tasks["seed"]],
        config=config,
        tolerances=tuple(cfg.tolerances),
    )


def _print_sweep_line(report, paths) -> None:
    tols = [
        f"max_r@{t.tolerance:g}={t.r_grid:g}/{t.r_interpolated:g}" for t in report.tolerances
    ]
    rewards = [p.reward_mean for p in report.points]
    # reported for the reader, never asserted: noise can bend the curve
    trend = (
        "non-increasing"
        if all(b <= a + 1e-12 for a, b in zip(rewards, rewards[1:]))
        else "non-monotone"
    )
    head = f"sweep policy={report.policy} auc={report.auc!r}"
    tail = f"reward_trend={trend} report={paths['json']} csv={paths['csv']}"
    print(" ".join([head, *tols, tail]))


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig, model: Model) -> int:
    mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
    tasks = build_tasks(cfg, model)
    points = sweep(model, tasks, cfg.eviction, cfg.agg, tuple(cfg.grid), mode, window)
    report = _sweep_report(cfg, model, points, cfg.resolved)
    paths = cache_io.write_report(report, Path(args.out or cfg.out_dir))
    _print_sweep_line(report, paths)
    return EXIT_OK


def ablation_grid() -> list[AggregationChoice]:
    return [
        AggregationChoice(agg_task=t, agg_group=g, agg_head=h, norm_variant=norm, mean_augment=mean)
        for t, g, h, mean, norm in product(AGG_OPS, AGG_OPS, AGG_OPS, (True, False), NORM_VARIANTS)
    ]


def _slug(choice: AggregationChoice) -> str:
    mean = "on" if choice.mean_augment else "off"
    norm = choice.norm_variant.replace("-", "")
    return f"agg_{choice.agg_task}_{choice.agg_group}_{choice.agg_head}_mean_{mean}_norm_{norm}"


def cmd_ablate(args: argparse.Namespace, cfg: RunConfig, model: Model) -> int:
    if not cfg.eviction.reads_aggregation:
        raise ConfigError(f"ablate: policy {cfg.eviction.name} reads no aggregation choice")
    mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]  # one for every arm
    tasks = build_tasks(cfg, model)
    captures = (prepare_task(model, t, mode, window) for t in tasks)  # one at a time
    choices = ablation_grid()
    curves = sweep_arms(model, tasks, captures, cfg.eviction, choices, tuple(cfg.grid))
    resolved = cfg.resolved  # each arm's echo differs only in its scoring choice
    out, combined = Path(args.out or cfg.out_dir), []
    for count, (choice, points) in enumerate(zip(choices, curves), 1):
        echo = {**resolved, "scoring": {**resolved["scoring"], **vars(choice)}}
        arm_dir = out / _slug(choice)
        report = _sweep_report(cfg, model, points, echo)
        paths = cache_io.write_report(report, arm_dir)
        echo_text = json.dumps(echo, sort_keys=True, indent=2) + "\n"
        cache_io.write_file(arm_dir / "config.json", echo_text, "config")
        combined += [(choice.label(), *vars(p).values(), report.auc) for p in points]
        print(f"ablate arm={_slug(choice)} auc={report.auc!r} report={paths['json']}")

    combined_path = out / "combined.csv"
    combined_csv = cache_io.csv_text(("label", *cache_io.CSV_COLUMNS, "auc"), combined)
    cache_io.write_file(combined_path, combined_csv, "report")
    print(f"ablate configs={count} combined={combined_path}")
    return EXIT_OK


def cmd_dump_scores(args: argparse.Namespace, cfg: RunConfig, model: Model) -> int:
    """Write the score stages, slot order and layer importance that ``sweep``
    computes for the first task, which is the only one built."""
    task = build_tasks(replace(cfg, tasks={**cfg.tasks, "count": 1}), model)[0]
    capture = prepare_task(model, task, cfg.scoring["mode"], cfg.scoring["observation_window"])
    s_task, s_group, s_final = score_stages(capture, model.config.kv_heads, cfg.agg)
    idx = composite_indices(s_final)
    arrays = {
        "scores_task.npy": s_task,
        "scores_group.npy": s_group,
        "scores_final.npy": s_final,
        "composite_idx.npy": idx,
        "layer_importance.npy": layer_importance(s_final, idx, cfg.agg.agg_head),
    }
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, array in arrays.items():
        cache_io.write_array(array, out / name)
        shape = "x".join(str(s) for s in array.shape)
        print(f"dump-scores tensor={name} shape={shape} out={out / name}")
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
    p_compress.add_argument("--context", required=True, help="file of whitespace-separated ids")
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
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return args.func(args, cfg, build_model(cfg))
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
