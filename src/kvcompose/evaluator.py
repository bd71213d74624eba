"""Evaluation protocol: rewards, degradation, sweeps.

Rewards are deterministic proxies in [0, 1]: exact key->value recall on
the constructed lookup model, and teacher-forced top-1 agreement with the
full-cache run for arbitrary models. Degradation epsilon is the mean
relative reward drop versus the full cache; curves sweep the ratio grid
and are summarized by span-normalized AUC and the largest ratio whose
epsilon stays under a tolerance. Every policy is scored the same way: as
``composer.keep_masks``' keep-masks on the task's one full cache, a sweep holding one
capture at a time; a task's distinct masks each run once, in forward calls of at most
one grid's masks. The full-cache reference is one more mask: the all-kept row 0."""
from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .baselines import Policy
from .composer import keep_masks
from .errors import UsageError
from .model import (
    KVCache,
    Model,
    _forward,
    check_positions,
    greedy_decode,
    induction_key_range,
    induction_value_range,
    prefill,
)
from .numerics import SeededRng
from .scoring import (
    DEFAULT_MODE,
    OBSERVATION_WINDOW,
    AggregationChoice,
    AttentionCapture,
    TaskSet,
    collect_attention,
)

RATIO_GRID = (0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_TOLERANCES = (0.10, 0.20)
DEFAULT_AGREEMENT_STEPS = 32
TASK_BLOCK = 16  # agreement tasks whose reference chains decode in lockstep at a time


@dataclass(frozen=True)
class TaskInstance:
    """A prompt to compress, what is scored after it, and the prompt's prefill, if run: its
    ``cache`` and its per-layer ``queries``, which a capture scores instead of rerunning it."""

    id: str
    kind: str  # "recall" | "agreement"
    prompt: tuple[int, ...]  # context to compress
    query: tuple[int, ...]  # tokens fed after compression (recall only)
    answer: tuple[int, ...]  # paired value, or the reference continuation
    cache: KVCache | None = field(default=None, compare=False, repr=False)
    queries: list[np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.prompt:
            raise UsageError("task prompt must be non-empty")
        if self.kind not in ("recall", "agreement"):
            raise UsageError(f"unknown task kind {self.kind!r}")


@dataclass
class CurvePoint:
    r_target: float
    r_achieved: float
    reward_mean: float
    reward_std: float
    epsilon: float
    kl_mean: float


@dataclass
class ToleranceResult:
    tolerance: float
    r_grid: float
    r_interpolated: float


@dataclass
class EvalReport:
    policy: str
    points: list[CurvePoint]
    auc: float
    tolerances: list[ToleranceResult]
    seeds: list[int]
    config: dict = field(default_factory=dict)


# --- cache size arithmetic ----------------------------------------------------


def kv_entry_count(layers: int, kv_heads: int, rows: int, head_dim: int) -> int:
    """Scalar entries of a uniform cache; the factor 2 covers keys and values."""
    return layers * kv_heads * rows * head_dim * 2


# --- task construction --------------------------------------------------------


def make_recall_tasks(
    num_pairs: int, vocab: int, count: int, seed: int
) -> list[TaskInstance]:
    """Key->value lookup prompts: distinct keys, values from the value half."""
    rng = SeededRng(seed)
    keys_range = list(induction_key_range(vocab))
    values_range = list(induction_value_range(vocab))
    tasks = []
    for t in range(count):
        keys = [keys_range[i] for i in rng.sample(len(keys_range), num_pairs)]
        values = [values_range[rng.randint(len(values_range))] for _ in range(num_pairs)]
        j = rng.randint(num_pairs)
        prompt = []
        for a, b in zip(keys, values):
            prompt.extend([a, b])
        tasks.append(
            TaskInstance(
                id=f"recall-{t}",
                kind="recall",
                prompt=tuple(prompt),
                query=(keys[j],),
                answer=(values[j],),
            )
        )
    return tasks


def make_agreement_tasks(
    model: Model,
    count: int,
    context_len: int,
    steps: int,
    seed: int,
) -> list[TaskInstance]:
    """Random contexts whose reference continuation is the full-cache greedy run.

    The answer stores the common start token followed by ``steps`` greedy tokens;
    agreement rewards compare argmax per step under teacher forcing with exactly this
    history. Every prompt is drawn first; each block of ``TASK_BLOCK`` prompts is
    prefilled one by one, and their caches, stacked, run one lockstep ``greedy_decode``,
    which equals each task's own chain; the stack is only its argument, so its first step
    frees it. Each task keeps its prefill cache and queries, uncopied.
    """
    check_positions(model, context_len + steps, "context_len + teacher_steps")  # before any draw
    rng = SeededRng(seed)
    vocab = model.config.vocab_size
    prompts = [tuple(rng.randint(vocab) for _ in range(context_len)) for _ in range(count)]
    answers, prefills = [], []
    for b in range(0, count, TASK_BLOCK):
        starts = []
        for prompt in prompts[b : b + TASK_BLOCK]:
            run = prefill(model, list(prompt))
            prefills.append((run.cache, run.queries))
            starts.append(int(np.argmax(run.logits[-1])))
        answers += zip(starts, greedy_decode(model, KVCache(  # no name holds the stack
            [np.stack(k) for k in zip(*(c.keys for c, _ in prefills[b:]))],  # (T, H_kv, N, d_h)
            [np.stack(v) for v in zip(*(c.values for c, _ in prefills[b:]))],
            prefills[b][0].next_positions,
        ), np.asarray(starts), steps))
    return [
        TaskInstance(f"agreement-{t}", "agreement", prompt, (), (start, *rest), *carried)
        for t, (prompt, (start, rest), carried) in enumerate(zip(prompts, answers, prefills))
    ]


# --- rewards ------------------------------------------------------------------


def _forced_steps(task: TaskInstance) -> tuple[list[int], list[int]]:
    """(inputs, targets) for the teacher-forced comparison."""
    if task.kind == "recall":
        inputs = list(task.query)
        targets = [task.answer[0]]
        # all query tokens but the last are fed without being scored
        return inputs, targets
    start, *continuation = task.answer
    return [start] + list(continuation[:-1]), list(continuation)


def _run_steps(
    model: Model,
    cache: KVCache,
    task: TaskInstance,
    head_masks: np.ndarray,
) -> np.ndarray:
    """Teacher-forced (G, steps, vocab) logits of the scored steps, one row per
    mask of the (G, L, H_kv, N) stack ``head_masks``.

    Every input is known up front, so all of them run after ``cache``, from
    its next position, in one forward pass, which reads the cache and never
    writes it; the scored steps are the last ``len(targets)``.
    """
    inputs, targets = _forced_steps(task)
    logits = _forward(model, cache, np.asarray(inputs), head_masks).logits
    return logits[..., -len(targets) :, :]


def _hit_rate(logits: np.ndarray, task: TaskInstance) -> float | np.ndarray:
    """Fraction of scored steps whose argmax is the target token, per leading index."""
    _, targets = _forced_steps(task)
    return np.count_nonzero(logits.argmax(axis=-1) == targets, axis=-1) / len(targets)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _reward_and_kl(
    logits: np.ndarray, reference_logp: np.ndarray, task: TaskInstance
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Reward and mean KL(full || compressed) of next-token distributions, per
    leading index of the (…, steps, vocab) ``logits``.

    Each step's KL is clamped at 0: a negative value is rounding noise.
    """
    kls = (np.exp(reference_logp) * (reference_logp - _log_softmax(logits))).sum(axis=-1)
    return _hit_rate(logits, task), np.maximum(kls, 0.0).mean(axis=-1)


def epsilon(full_rewards: list[float], comp_rewards: np.ndarray | list) -> float | np.ndarray:
    """Mean relative degradation over the T tasks of the (T,) or (…, T) ``comp_rewards``,
    which ``sweep_arms`` builds from one per-task list with ``full_rewards``; tasks with zero
    full reward are excluded, with a warning, and a point with no task left reads 0."""
    full = np.asarray(full_rewards, dtype=np.float64)
    comp = np.asarray(comp_rewards, dtype=np.float64)
    kept = full != 0.0
    skipped = full.size - int(kept.sum())
    if skipped:
        warnings.warn(f"epsilon skipped {skipped} task(s) with zero full-cache reward")
    # a contiguous task row's sum over its count: the bits of np.mean
    terms = (full[kept] - comp[..., kept]) / full[kept]
    return terms.sum(axis=-1) / max(full.size - skipped, 1)


# --- curve metrics ------------------------------------------------------------


def auc(points: list[CurvePoint]) -> float:
    """Trapezoidal reward-vs-ratio area, normalized by the ratio span."""
    if len(points) < 2:
        raise UsageError("auc needs at least two curve points")
    rs = np.asarray([p.r_target for p in points])
    rewards = np.asarray([p.reward_mean for p in points])
    span = rs.max() - rs.min()
    area = np.sum((rewards[1:] + rewards[:-1]) / 2.0 * np.diff(rs))
    return float(area / span)


def max_ratio_under_tolerance(points: list[CurvePoint], tolerance: float) -> ToleranceResult:
    """Largest grid ratio with epsilon <= tolerance, plus a linear refinement.

    The refined estimate interpolates between the last passing and first
    failing grid points; with no failing point it equals the grid value,
    with no passing point both are 0.
    """
    if not points or points[0].r_target != 0.0:
        raise UsageError("tolerance search expects a curve starting at r=0")
    best = None
    for i, p in enumerate(points):  # largest passing ratio, even on bumpy curves
        if p.epsilon <= tolerance:
            best = i
    if best is None:
        return ToleranceResult(tolerance=tolerance, r_grid=0.0, r_interpolated=0.0)
    r_grid = points[best].r_target
    if best + 1 >= len(points):
        return ToleranceResult(tolerance=tolerance, r_grid=r_grid, r_interpolated=r_grid)
    nxt = points[best + 1]
    # nxt fails the tolerance that points[best] passes, so its epsilon is larger
    frac = (tolerance - points[best].epsilon) / (nxt.epsilon - points[best].epsilon)
    r_interp = r_grid + frac * (nxt.r_target - r_grid)
    return ToleranceResult(tolerance=tolerance, r_grid=r_grid, r_interpolated=r_interp)


# --- sweeps -------------------------------------------------------------------


def check_grid(grid, error: type[Exception] = UsageError) -> None:
    """A ratio grid is non-empty and strictly ascending (each ratio once) in [0, 1]."""
    ascending = all(a < b for a, b in zip(grid, grid[1:]))
    if not grid or not ascending or not 0.0 <= grid[0] <= grid[-1] <= 1.0:
        raise error(f"grid must be ascending ratios in [0, 1], each once, got {list(grid)}")


def prepare_task(
    model: Model, task: TaskInstance, mode: str, observation_window: int
) -> AttentionCapture:
    """The task's capture, on its carried prefill if any: the full cache its masks run on."""
    # task-aware scoring reads the query; an agreement task's empty one is refused
    tset = TaskSet.for_context(mode, len(task.prompt), (task.query,), observation_window)
    return collect_attention(model, list(task.prompt), tset, task.cache, task.queries)


def _evaluate_task(
    model: Model,
    task: TaskInstance,
    capture: AttentionCapture,
    policy: Policy,
    agg_choices: list[AggregationChoice],
    grid: tuple[float, ...],
) -> tuple[float, np.ndarray]:
    """The full-cache reward and (3, A, G): r_achieved, reward and kl of one task per
    choice and ratio. Row 0 of the stack, all kept, is the full-cache reference run;
    each distinct keep-mask runs once, in forward calls of at most G masks."""
    masks = keep_masks(capture, agg_choices, grid, policy)  # (A, G, L, H_kv, N)
    masks = np.concatenate([np.ones((1, *masks.shape[2:]), bool), np.concatenate(masks)])
    r_achieved = 1.0 - np.count_nonzero(masks[1:], axis=(1, 2, 3)) / masks[0].size
    rows = masks.reshape(len(masks), -1).view(np.dtype((np.void, masks[0].size)))[:, 0]
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)  # bytewise
    chunks = [masks[first[i : i + len(grid)]] for i in range(0, len(first), len(grid))]
    logits = np.concatenate([_run_steps(model, capture.cache, task, c) for c in chunks])
    reference_logp = _log_softmax(logits[inverse[0]])  # row 0's: the full cache's
    results = np.stack(_reward_and_kl(logits, reference_logp, task))[:, inverse]
    return results[0, 0], np.stack([r_achieved, *results[:, 1:]]).reshape(3, len(agg_choices), -1)


def sweep_arms(
    model: Model,
    tasks: list[TaskInstance],
    captures: Iterable[AttentionCapture],
    policy: Policy,
    agg_choices: list[AggregationChoice],
    grid: tuple[float, ...],
) -> list[list[CurvePoint]]:
    """One curve per aggregation choice, averaged over the tasks, each scored on its capture
    as it arrives, in task order: a generator is held one capture at a time."""
    needs = "sweep needs tasks, a capture for each and one aggregation choice or more"
    if not tasks or not agg_choices:
        raise UsageError(needs)
    check_grid(grid)
    stream = iter(captures)  # zip pulls a task first: it stops with no capture too many
    pairs = zip(tasks, stream)
    evaluated = [_evaluate_task(model, t, c, policy, agg_choices, grid) for t, c in pairs]
    if len(evaluated) < len(tasks) or next(stream, None) is not None:
        raise UsageError(needs)
    full_rewards, per_task = zip(*evaluated)  # each task's full-cache reward, (3, A, G) block
    # (T, 3, A, G) stacked, then laid out (3, A, G, T) with the task axis contiguous:
    # each point's pairwise sum over its task row gives the bits of a 1-D np.mean
    achieved, rewards, kls = np.ascontiguousarray(np.stack(per_task).transpose(1, 2, 3, 0))
    eps = epsilon(full_rewards, rewards)
    # CurvePoint's fields after r_target, in order, as (A, G, 5) Python floats
    stats = [achieved.mean(-1), rewards.mean(-1), rewards.std(-1), eps, kls.mean(-1)]
    points = np.stack(stats, axis=-1).tolist()
    return [[CurvePoint(float(r), *point) for r, point in zip(grid, arm)] for arm in points]


def sweep(
    model: Model,
    tasks: list[TaskInstance],
    policy: Policy,
    agg_choice: AggregationChoice,
    grid: tuple[float, ...] = RATIO_GRID,
    mode: str = DEFAULT_MODE,
    observation_window: int = OBSERVATION_WINDOW,
) -> list[CurvePoint]:
    """One curve point per grid ratio; each task is prepared as it is evaluated."""
    captures = (prepare_task(model, t, mode, observation_window) for t in tasks)
    return sweep_arms(model, tasks, captures, policy, [agg_choice], grid)[0]


def build_report(
    policy: Policy,
    points: list[CurvePoint],
    seeds: list[int],
    config: dict | None = None,
    tolerances: tuple[float, ...] = DEFAULT_TOLERANCES,
) -> EvalReport:
    # a one-point grid has no span; its AUC is the constant-curve limit
    area = auc(points) if len(points) > 1 else points[0].reward_mean
    return EvalReport(
        policy=policy.name,
        points=points,
        auc=area,
        tolerances=[max_ratio_under_tolerance(points, t) for t in tolerances],
        seeds=list(seeds),
        config=dict(config or {}),
    )
