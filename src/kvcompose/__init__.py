"""Attention-guided, layer-adaptive KV-cache compression with composite tokens."""

from .baselines import Policy, pyramid_budgets, snapkv_select, streaming_select, tova_select
from .composer import (
    BudgetAllocation,
    CompositeIndex,
    CompressedCache,
    CompressReport,
    LayerImportance,
    allocate_budgets,
    compact_cache,
    composite_indices,
    compress,
    layer_importance,
    unstructured_compress,
)
from .errors import ConfigError, KvcError, ShapeError, UsageError
from .evaluator import (
    RATIO_GRID,
    CurvePoint,
    EvalReport,
    TaskInstance,
    auc,
    compression_ratio,
    epsilon,
    kv_entry_count,
    make_agreement_tasks,
    make_recall_tasks,
    max_ratio_under_tolerance,
    reward,
    sweep,
)
from .model import (
    HeadMaskSet,
    KVCache,
    Model,
    ModelConfig,
    construct_induction_model,
    decode_step,
    greedy_decode,
    init_model,
    prefill,
)
from .numerics import SeededRng, argsort_desc, softmax_rows
from .scoring import (
    AggregationChoice,
    AttentionCapture,
    ScoreTensor,
    TaskSet,
    aggregate_group,
    aggregate_task,
    augment_mean,
    collect_attention,
)

__version__ = "0.1.0"
