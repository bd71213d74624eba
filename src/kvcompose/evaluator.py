"""Evaluation protocol: rewards, degradation, sweeps.

Rewards are deterministic proxies in [0, 1]: exact key->value recall on
the constructed lookup model, and teacher-forced top-1 agreement with the
full-cache run for arbitrary models. Degradation epsilon is the mean
relative reward drop versus the full cache; curves sweep the ratio grid
and are summarized by span-normalized AUC and the largest ratio whose
epsilon stays under a tolerance. Every policy is scored the same way:
as ``composer.keep_masks``' keep-mask per grid ratio on the task's one
full cache, with one forward call for the whole grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .baselines import Policy
from .composer import keep_masks
from .errors import ConfigError, UsageError
from .model import (
    KVCache,
    Model,
    _forward,
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


@dataclass(frozen=True)
class TaskInstance:
    id: str
    kind: str  # "recall" | "agreement"
    prompt: tuple[int, ...]  # context to compress
    query: tuple[int, ...]  # tokens fed after compression (recall only)
    answer: tuple[int, ...]  # paired value, or the reference continuation

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
    if num_pairs > len(keys_range):
        raise ConfigError(f"num_pairs {num_pairs} exceeds key range {len(keys_range)}")
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

    The answer stores the common start token followed by ``steps`` greedy
    tokens; agreement rewards compare argmax per step under teacher
    forcing with exactly this history.
    """
    if steps < 1:
        raise UsageError("steps must be >= 1")
    rng = SeededRng(seed)
    vocab = model.config.vocab_size
    tasks = []
    for t in range(count):
        prompt = tuple(rng.randint(vocab) for _ in range(context_len))
        run = prefill(model, list(prompt))
        start = int(np.argmax(run.logits[-1]))
        continuation = greedy_decode(model, run.cache, start, steps)
        tasks.append(
            TaskInstance(
                id=f"agreement-{t}",
                kind="agreement",
                prompt=prompt,
                query=(),
                answer=(start, *continuation),
            )
        )
    return tasks


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
    head_masks: np.ndarray | None,
) -> np.ndarray:
    """Teacher-forced (steps, vocab) logits of the scored steps, or
    (G, steps, vocab) for a (G, L, H_kv, N) mask stack.

    Every input is known up front, so all of them run after ``cache``, from
    its next position, in one forward pass, which reads the cache and never
    writes it; the scored steps are the last ``len(targets)``.
    """
    inputs, targets = _forced_steps(task)
    logits = _forward(model, cache, np.asarray(inputs), head_masks).logits
    return logits[..., -len(targets) :, :]


def _hit_rate(logits: np.ndarray, task: TaskInstance) -> float:
    """Fraction of scored steps whose argmax is the target token, per leading index."""
    _, targets = _forced_steps(task)
    return np.count_nonzero(logits.argmax(axis=-1) == targets, axis=-1) / len(targets)


def reward(model: Model, cache: KVCache, task: TaskInstance) -> float:
    """Score in [0, 1]: exact recall, or per-step argmax agreement."""
    return _hit_rate(_run_steps(model, cache, task, None), task)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _reward_and_kl(
    model: Model,
    cache: KVCache,
    task: TaskInstance,
    reference_logp: np.ndarray,
    head_masks: np.ndarray | None = None,
) -> tuple[float, float]:
    """Reward and mean KL(full || compressed) of next-token distributions, per mask.

    Each step's KL is clamped at 0: a negative value is rounding noise.
    """
    logits = _run_steps(model, cache, task, head_masks)
    kls = (np.exp(reference_logp) * (reference_logp - _log_softmax(logits))).sum(axis=-1)
    return _hit_rate(logits, task), np.maximum(kls, 0.0).mean(axis=-1)


def epsilon(full_rewards: list[float], comp_rewards: list[float]) -> float:
    """Mean relative degradation; tasks with zero full reward are excluded."""
    if len(full_rewards) != len(comp_rewards):
        raise UsageError("reward lists differ in length")
    terms = []
    skipped = 0
    for rf, rc in zip(full_rewards, comp_rewards):
        if rf == 0.0:
            skipped += 1
            continue
        terms.append((rf - rc) / rf)
    if skipped:
        warnings.warn(f"epsilon skipped {skipped} task(s) with zero full-cache reward")
    if not terms:
        return 0.0
    return float(np.mean(terms))


# --- curve metrics ------------------------------------------------------------


def auc(points: list[CurvePoint]) -> float:
    """Trapezoidal reward-vs-ratio area, normalized by the ratio span."""
    if len(points) < 2:
        raise UsageError("auc needs at least two curve points")
    rs = np.asarray([p.r_target for p in points])
    rewards = np.asarray([p.reward_mean for p in points])
    if np.unique(rs).size != rs.size:
        raise UsageError("auc needs distinct ratios")
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


@dataclass
class TaskState:
    """One task prepared for every policy, ratio and aggregation choice:
    its capture (which holds the full prefill cache) and its reference run."""

    task: TaskInstance
    capture: AttentionCapture
    full_reward: float
    reference_logp: np.ndarray  # (steps, vocab) log-probabilities


def prepare_task(
    model: Model, task: TaskInstance, mode: str, observation_window: int, head_mean: bool = False
) -> TaskState:
    """The task's capture, keeping the head mean only if ``head_mean``
    (``Policy.reads_head_mean``), and its full-cache reference run."""
    # task-aware scoring reads the recall query, or an agreement task's reference continuation
    rows = task.query if task.kind == "recall" else task.answer
    tset = TaskSet.for_context(mode, len(task.prompt), (rows,), observation_window)
    capture = collect_attention(model, list(task.prompt), tset, head_mean)
    reference = _run_steps(model, capture.cache, task, head_masks=None)
    # the reward reads the logits: a log-softmax can merge close logits and so change a tie
    return TaskState(
        task=task,
        capture=capture,
        full_reward=_hit_rate(reference, task),
        reference_logp=_log_softmax(reference),
    )


def _evaluate_task(
    model: Model,
    state: TaskState,
    policy: Policy,
    agg_choice: AggregationChoice,
    grid: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r_achieved, reward, kl), each (G,), for one task at every grid ratio,
    from the policy's keep-masks on the full cache in one forward call."""
    masks = keep_masks(state.capture, agg_choice, grid, policy)
    r_achieved = 1.0 - np.count_nonzero(masks, axis=(1, 2, 3)) / masks[0].size
    rewards, kls = _reward_and_kl(
        model, state.capture.cache, state.task, state.reference_logp, masks
    )
    return r_achieved, rewards, kls


def sweep_prepared(
    model: Model,
    states: list[TaskState],
    policy: Policy,
    agg_choice: AggregationChoice,
    grid: tuple[float, ...],
) -> list[CurvePoint]:
    """One curve point per grid ratio, averaged over the prepared tasks."""
    if not states:
        raise UsageError("sweep needs at least one task")
    check_grid(grid)
    full_rewards = [s.full_reward for s in states]
    # (T, 3, G) stacked, then read as (3, G, T): each point averages over tasks
    per_task = np.stack([_evaluate_task(model, s, policy, agg_choice, grid) for s in states])
    return [
        CurvePoint(
            r_target=float(r_target),
            r_achieved=float(np.mean(achieved)),
            reward_mean=float(np.mean(rewards)),
            reward_std=float(np.std(rewards)),
            epsilon=epsilon(full_rewards, list(rewards)),
            kl_mean=float(np.mean(kls)),
        )
        for r_target, achieved, rewards, kls in zip(grid, *per_task.transpose(1, 2, 0))
    ]


def sweep(
    model: Model,
    tasks: list[TaskInstance],
    policy: Policy,
    agg_choice: AggregationChoice,
    grid: tuple[float, ...] = RATIO_GRID,
    mode: str = DEFAULT_MODE,
    observation_window: int = OBSERVATION_WINDOW,
) -> list[CurvePoint]:
    """Prepare every task, then evaluate one curve point per grid ratio."""
    head_mean = policy.reads_head_mean
    states = [prepare_task(model, t, mode, observation_window, head_mean) for t in tasks]
    return sweep_prepared(model, states, policy, agg_choice, grid)


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
