"""The three benchmark workloads.

Each workload is one caller in a closed loop: the next operation starts
when the previous one returns. A run makes a fixed number of operations,
sized from ``--seconds`` by the workload's typical op time, so a seed
always gives the same operations and the same attempted and failed
counts, however fast the machine is. Inputs come from the workload seed through
numpy's generator (or through the task generators the program exposes,
given a seed drawn from it), so the program only sees generated inputs.
Program functions are looked up on their modules at call time, so the
tracer's wrappers apply when installed and cost nothing when not.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

import kvcompose.baselines as baselines
import kvcompose.cache_io as cache_io
import kvcompose.cli as cli
import kvcompose.composer as composer
import kvcompose.evaluator as evaluator
import kvcompose.model as kmodel
import kvcompose.scoring as scoring
from stats import Check

RANDOM_SHAPE = dict(layers=4, query_heads=4, kv_heads=2, model_dim=32, head_dim=8, vocab_size=64)


@dataclass
class OpResult:
    segments_ns: list[int]  # raw time of each timed part of the op, in order
    items: int  # contexts compressed, or (task, ratio) points evaluated
    input_rows: int  # context + task rows handed to the program, each counted once
    key: str  # names the op's inputs; equal keys must give equal digests
    digest: str
    checks: list[Check]
    quality: dict[str, float] | None = None

    @property
    def elapsed_ns(self) -> int:
        return sum(self.segments_ns)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], object]
    # run_op(state, i, between): ``between()`` is called, untimed, between
    # the segments of an op, so the timer can re-time its reference kernel
    run_op: Callable[[object, int, Callable[[], object]], OpResult]
    item: str
    latency: str
    reference: str  # calibration kernel that tracks what limits this workload
    setup_repeats: int  # timed set-ups before the warm-up
    setup_every: int  # one more timed set-up after every this many measured ops
    warmup_ops: int
    op_s: float  # typical calibrated seconds per op, which sizes a run
    trace_ops: int  # ops in each half (traced, untraced) of the traced run


def _random_model(rng: np.random.Generator):
    seed = int(rng.integers(2**31))
    return kmodel.init_model(kmodel.ModelConfig(seed=seed, max_context=512, **RANDOM_SHAPE))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- compress-long ------------------------------------------------------------

CONTEXT_LEN = 504  # context plus one 8-token task fills max_context (512)
TASKS_PER_CONTEXT = 4
TASK_LEN = 8
CONTEXTS = 4
RATIOS = (0.5, 0.7, 0.9)  # with 4 contexts, all 12 (context, ratio) pairs recur every 12 ops


@dataclass
class CompressState:
    model: object
    inputs: list  # (context, TaskSet)
    work: Path
    setup_checks: list[Check] = field(default_factory=list)


def setup_compress(seed: int, work: Path) -> CompressState:
    """Random contexts; each task is the model's greedy continuation of its
    context from a random start token, as a downstream query would be."""
    rng = np.random.default_rng(seed)
    model = _random_model(rng)
    inputs = []
    for _ in range(CONTEXTS):
        context = [int(t) for t in rng.integers(0, model.config.vocab_size, CONTEXT_LEN)]
        run = kmodel.prefill(model, context)
        tasks = []
        for _ in range(TASKS_PER_CONTEXT):
            start = int(rng.integers(model.config.vocab_size))
            tasks.append((start, *kmodel.greedy_decode(model, run.cache.clone(), start, TASK_LEN - 1)))
        inputs.append((context, scoring.TaskSet(mode="task-aware", tasks=tuple(tasks))))
    return CompressState(model=model, inputs=inputs, work=work)


def _budget(r: float, layers: int, n: int) -> int:
    """floor((1 - r) * L * N), computed exactly from the decimal ratio."""
    return math.floor((1 - Fraction(str(r))) * layers * n)


def op_compress(state: CompressState, i: int, between) -> OpResult:
    c, r = i % CONTEXTS, RATIOS[i % len(RATIOS)]
    context, task_set = state.inputs[c]
    path = state.work / "op.kvcf"
    t0 = perf_counter_ns()
    cache, _ = composer.compress(
        state.model,
        context,
        task_set,
        scoring.AggregationChoice(),
        r,
        baselines.Policy(name="kvcompose"),
    )
    cache_io.write_cache(cache, path)
    back = cache_io.read_cache(path)
    elapsed = perf_counter_ns() - t0

    def same(a_list, b_list, f32=False):
        return len(a_list) == len(b_list) and all(
            np.array_equal(b, a.astype(np.float32).astype(np.float64) if f32 else a)
            for a, b in zip(a_list, b_list)
        )

    layers = state.model.config.layers
    checks = [
        Check("kvcf_kv_exact", same(cache.keys, back.keys, True) and same(cache.values, back.values, True)),
        Check("kvcf_provenance_exact", same(cache.provenance, back.provenance)),
        Check(
            "kvcf_next_positions",
            back.next_positions == cache.next_positions,
            known_defect=True,
            detail="KVCF v1 does not store next_position; the reader guesses it",
        ),
        Check("slot_total_is_budget", sum(k.shape[1] for k in cache.keys) == _budget(r, layers, len(context))),
    ]
    return OpResult(
        segments_ns=[elapsed],
        items=1,
        input_rows=len(context) + sum(len(t) for t in task_set.tasks),
        key=f"context{c}-r{r}",
        digest=_sha(path.read_bytes()),
        checks=checks,
    )


# --- sweep-agreement ----------------------------------------------------------

SWEEP_POLICIES = ("kvcompose", "streaming", "tova", "snapkv", "unstructured")
SWEEP_TASKS = 16
SWEEP_CONTEXT = 128
SWEEP_STEPS = 8
SWEEP_WINDOW = 32


@dataclass
class SweepState:
    model: object
    tasks: list
    setup_checks: list[Check] = field(default_factory=list)


def setup_sweep(seed: int, work: Path) -> SweepState:
    rng = np.random.default_rng(seed)
    model = _random_model(rng)
    tasks = evaluator.make_agreement_tasks(
        model, SWEEP_TASKS, SWEEP_CONTEXT, SWEEP_STEPS, int(rng.integers(2**31))
    )
    return SweepState(model=model, tasks=tasks)


def op_sweep(state: SweepState, i: int, between) -> OpResult:
    """One sweep per policy; each sweep is a segment of its own."""
    curves, segments = [], []
    for k, name in enumerate(SWEEP_POLICIES):
        if k:
            between()
        t0 = perf_counter_ns()
        curves.append(
            evaluator.sweep(
                state.model,
                state.tasks,
                baselines.Policy(name=name),
                scoring.AggregationChoice(),
                grid=evaluator.RATIO_GRID,
                mode="task-agnostic",
                observation_window=SWEEP_WINDOW,
            )
        )
        segments.append(perf_counter_ns() - t0)
    checks = []
    for name, points in zip(SWEEP_POLICIES, curves):
        p0 = points[0]
        ok = p0.r_target == 0.0 and p0.reward_mean == 1.0 and abs(p0.kl_mean) <= 1e-12
        checks.append(Check(f"r0_reward1_kl0.{name}", ok, detail=f"reward={p0.reward_mean!r} kl={p0.kl_mean!r}"))
    checks.append(Check("curve_length", all(len(p) == len(evaluator.RATIO_GRID) for p in curves)))
    flat = [repr([astuple(p) for p in points]) for points in curves]
    return OpResult(
        segments_ns=segments,
        items=len(SWEEP_POLICIES) * len(state.tasks) * len(evaluator.RATIO_GRID),
        input_rows=sum(len(t.prompt) + len(t.query) for t in state.tasks),
        key="pass",
        digest=_sha("\n".join(flat).encode()),
        checks=checks,
        quality={
            "auc_mean": float(np.mean([evaluator.auc(p) for p in curves])),
            "kl_mean": float(np.mean([pt.kl_mean for p in curves for pt in p])),
        },
    )


# --- ablate-recall ------------------------------------------------------------

RECALL_PAIRS = 24
RECALL_VOCAB = 64
RECALL_TASKS = 8
ABLATE_ARMS = 48


@dataclass
class AblateState:
    config_path: Path
    work: Path
    tasks: list
    setup_checks: list[Check] = field(default_factory=list)


def setup_ablate(seed: int, work: Path) -> AblateState:
    """Writes the ablation config and checks that the full cache answers
    every generated recall task, so cache damage is all that can cost reward."""
    rng = np.random.default_rng(seed)
    task_seed = int(rng.integers(2**31))
    config = {
        "model": {"kind": "induction", "num_pairs": RECALL_PAIRS, "vocab": RECALL_VOCAB},
        "tasks": {"kind": "recall", "count": RECALL_TASKS, "seed": task_seed},
        "scoring": {"mode": "task-aware"},
        "policy": {"name": "kvcompose"},
        "out_dir": "runs/ablate",
    }
    path = work / "ablate.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    model = kmodel.construct_induction_model(RECALL_PAIRS, RECALL_VOCAB)
    tasks = evaluator.make_recall_tasks(RECALL_PAIRS, RECALL_VOCAB, RECALL_TASKS, task_seed)
    answered = sum(
        kmodel.greedy_decode(model, kmodel.prefill(model, list(t.prompt)).cache, t.query[0], 1)
        == list(t.answer)
        for t in tasks
    )
    check = Check("full_cache_recall", answered == len(tasks), detail=f"{answered}/{len(tasks)}")
    return AblateState(config_path=path, work=work, tasks=tasks, setup_checks=[check])


def _parse_report(arm: Path) -> tuple[float, list[float]] | None:
    """(auc, per-point KL) if the arm's report.json and report.csv parse, else None."""
    try:
        report = json.loads((arm / "report.json").read_text())
        rows = list(csv.reader(io.StringIO((arm / "report.csv").read_text())))
        points = report["points"]
        if len(points) != len(evaluator.RATIO_GRID) or len(rows) != len(points) + 1:
            return None
        if tuple(rows[0]) != cache_io.CSV_COLUMNS:
            return None
        [float(v) for row in rows[1:] for v in row]
        return float(report["auc"]), [float(p["kl_mean"]) for p in points]
    except (OSError, ValueError, KeyError, TypeError):
        return None


ARMS_PER_SEGMENT = 8  # about 1 s of arms at the usual speed


class _ArmClock(io.StringIO):
    """Captures the CLI's stdout and cuts the call into timed segments at
    every ``ARMS_PER_SEGMENT``-th per-arm progress line, calling ``between``
    (untimed) at each cut. No program function is wrapped: the cuts come
    from the lines the CLI prints anyway, and if it prints none the whole
    call is one segment."""

    def __init__(self, between):
        super().__init__()
        self.between = between
        self.arms = 0
        self.line = ""
        self.segments: list[int] = []
        self.t0 = perf_counter_ns()

    def write(self, s: str) -> int:
        for part in s.splitlines(keepends=True):
            self.line += part
            if self.line.endswith("\n"):
                if self.line.startswith("ablate arm="):
                    self.arms += 1
                    if self.arms % ARMS_PER_SEGMENT == 0 and self.arms < ABLATE_ARMS:
                        self.cut()
                self.line = ""
        return super().write(s)

    def cut(self) -> None:
        self.segments.append(perf_counter_ns() - self.t0)
        self.between()
        self.t0 = perf_counter_ns()


def op_ablate(state: AblateState, i: int, between) -> OpResult:
    out = state.work / f"ablate-{i}"
    argv = ["ablate", "--config", str(state.config_path), "--out", str(out)]
    clock = _ArmClock(between)
    with contextlib.redirect_stdout(clock):
        code = cli.main(argv)
    segments = clock.segments + [perf_counter_ns() - clock.t0]
    try:
        arms = sorted(d for d in out.iterdir() if d.is_dir()) if out.is_dir() else []
        parsed = [_parse_report(a) for a in arms]
        combined = out / "combined.csv"
        combined_lines = combined.read_text().splitlines() if combined.is_file() else []
        digest = hashlib.sha256()
        files = [f for a in arms for f in (a / "report.json", a / "report.csv")] + [combined]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(out)).encode() + b"\0" + f.read_bytes())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    good = [p for p in parsed if p is not None]
    checks = [
        Check("exit_code_0", code == 0, detail=f"exit code {code}"),
        Check("arm_count", len(arms) == ABLATE_ARMS, detail=f"{len(arms)} arms"),
        Check("reports_parse", len(good) == len(arms) and bool(arms)),
        Check("combined_csv_rows", len(combined_lines) == 1 + ABLATE_ARMS * len(evaluator.RATIO_GRID)),
    ]
    quality = None
    if good:
        quality = {
            "auc_mean": float(np.mean([auc for auc, _ in good])),
            "kl_mean": float(np.mean([kl for _, kls in good for kl in kls])),
        }
    return OpResult(
        segments_ns=segments,
        items=ABLATE_ARMS * len(state.tasks) * len(evaluator.RATIO_GRID),
        input_rows=sum(len(t.prompt) + len(t.query) for t in state.tasks),
        key="ablate",
        digest=digest.hexdigest(),
        checks=checks,
        quality=quality,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compress-long",
            why="one caller compresses N=504 contexts with task-aware scoring; prefill-bound",
            setup=setup_compress,
            run_op=op_compress,
            item="contexts",
            latency="compress_ms",
            reference="array",
            setup_repeats=1,
            setup_every=6,
            warmup_ops=1,
            op_s=0.85,
            trace_ops=12,
        ),
        Workload(
            name="sweep-agreement",
            why="ratio sweeps of five policies over 16 agreement tasks; decode-bound",
            setup=setup_sweep,
            run_op=op_sweep,
            item="points",
            latency="sweep_pass_ms",
            reference="interp",
            setup_repeats=3,
            setup_every=1,
            warmup_ops=1,
            op_s=4.75,
            trace_ops=2,
        ),
        Workload(
            name="ablate-recall",
            why="48-arm ablation through the CLI on the recall model; repeated prefill and scoring",
            setup=setup_ablate,
            run_op=op_ablate,
            item="points",
            latency="ablate_ms",
            reference="interp",
            setup_repeats=5,
            setup_every=1,
            warmup_ops=1,
            op_s=5.0,
            trace_ops=2,
        ),
    )
}
