"""SWOLE core: the §III cost models and the per-decision choosers
built on them."""

from .cost_models import (
    ModelInputs,
    eager_aggregation_cost,
    groupjoin_cost,
    hybrid_cost,
    key_masking_cost,
    planned_ht_bytes,
    price_events,
    value_masking_cost,
)
from .planner import technique_matrix

__all__ = [
    "ModelInputs",
    "eager_aggregation_cost",
    "groupjoin_cost",
    "hybrid_cost",
    "key_masking_cost",
    "planned_ht_bytes",
    "price_events",
    "technique_matrix",
    "value_masking_cost",
]
