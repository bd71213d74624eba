"""Attention-guided, layer-adaptive KV-cache compression with composite tokens."""

from .baselines import Policy
from .composer import compress
from .model import construct_induction_model, decode_step, prefill
from .scoring import AggregationChoice, TaskSet

__version__ = "0.1.0"
