"""The SWOLE planner's decisions: one §III cost-model choice at a time.

Given symbolic-execution inputs and a machine model, each ``choose_*``
function decides one thing:

* how to aggregate — ``hybrid`` (pushdown fallback), ``value_masking`` or
  ``key_masking``;
* how to build a semijoin's positional bitmap — unconditional
  (mask-write) or selection-vector;
* whether to replace a groupjoin with eager aggregation.

Every chooser returns ``(choice, estimates)`` — the candidate costs ride
along so the strategy passes (:mod:`repro.plan.passes`, the only caller)
can record them in their pass notes and the ablation bench can compare
planner decisions against measured best choices.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..engine.machine import MachineModel
from . import cost_models as cm

#: Technique identifiers (match paper Fig. 2 rows).
HYBRID = "hybrid"
VALUE_MASKING = "value_masking"
KEY_MASKING = "key_masking"
ACCESS_MERGING = "access_merging"
BITMAP_MASK = "bitmap_mask"
BITMAP_OFFSETS = "bitmap_offsets"
EAGER = "eager_aggregation"
GROUPJOIN = "groupjoin"


def choose_aggregation_scalar(
    machine: MachineModel, inputs: cm.ModelInputs
) -> Tuple[str, Dict[str, float]]:
    """Scalar aggregation: hybrid pushdown vs value masking (§III-A)."""
    estimates = {
        HYBRID: cm.hybrid_cost(machine, inputs),
        VALUE_MASKING: cm.value_masking_cost(machine, inputs),
    }
    return min(estimates, key=estimates.get), estimates


def choose_aggregation_grouped(
    machine: MachineModel, inputs: cm.ModelInputs
) -> Tuple[str, Dict[str, float]]:
    """Grouped aggregation: hybrid vs value masking vs key masking."""
    ht_bytes = cm.planned_ht_bytes(
        inputs.group_cardinality, num_aggs=inputs.num_aggs
    )
    # Value masking needs the paper's extra bookkeeping flag to tell
    # masked entries from real zeros — one more aggregate column in every
    # slot. Key masking does not ("all entries other than the throwaway
    # are guaranteed to be valid"), which is part of why it wins on large
    # tables.
    vm_ht_bytes = cm.planned_ht_bytes(
        inputs.group_cardinality, num_aggs=inputs.num_aggs + 1
    )
    estimates = {
        HYBRID: cm.hybrid_cost(machine, inputs, ht_bytes),
        VALUE_MASKING: cm.value_masking_cost(machine, inputs, vm_ht_bytes),
        KEY_MASKING: cm.key_masking_cost(machine, inputs, ht_bytes),
    }
    return min(estimates, key=estimates.get), estimates


def choose_semijoin_build(
    machine: MachineModel, inputs: cm.ModelInputs
) -> Tuple[str, Dict[str, float]]:
    """Positional-bitmap build flavour (§III-D): mask vs offsets."""
    estimates = {
        f"bitmap_build:{BITMAP_MASK}": cm.bitmap_build_unconditional_cost(
            machine, inputs
        ),
        f"bitmap_build:{BITMAP_OFFSETS}": cm.bitmap_build_selective_cost(
            machine, inputs
        ),
    }
    choice = (
        BITMAP_MASK
        if estimates[f"bitmap_build:{BITMAP_MASK}"]
        <= estimates[f"bitmap_build:{BITMAP_OFFSETS}"]
        else BITMAP_OFFSETS
    )
    return choice, estimates


def choose_groupjoin_mode(
    machine: MachineModel, inputs: cm.ModelInputs
) -> Tuple[str, Dict[str, float]]:
    """Groupjoin execution vs eager aggregation rewrite (§III-E)."""
    num_aggs = inputs.num_aggs + 1
    built_keys = max(
        int(inputs.build_rows * inputs.build_selectivity), 1
    )
    groupjoin_ht = cm.planned_ht_bytes(built_keys, num_aggs=num_aggs)
    eager_ht = cm.planned_ht_bytes(inputs.build_rows, num_aggs=num_aggs)
    estimates = {
        GROUPJOIN: cm.groupjoin_cost(machine, inputs, groupjoin_ht),
        EAGER: cm.eager_aggregation_cost(machine, inputs, eager_ht),
    }
    mode = EAGER if estimates[EAGER] <= estimates[GROUPJOIN] else GROUPJOIN
    return mode, estimates


def technique_matrix() -> Dict[str, Dict[str, str]]:
    """The paper's Figure 2 as data: technique -> operators/heuristics."""
    return {
        "Value Masking": {
            "section": "III-A",
            "operators": "All",
            "heuristics": "Memory-Bound, Small Hash Tables",
        },
        "Key Masking": {
            "section": "III-B",
            "operators": "Group-By Aggregation, Join, Groupjoin",
            "heuristics": "Complex Aggregation, Large Hash Tables",
        },
        "Access Merging": {
            "section": "III-C",
            "operators": "All",
            "heuristics": "Always Better",
        },
        "Positional Bitmaps": {
            "section": "III-D",
            "operators": "Join, Semijoin",
            "heuristics": "Always Better",
        },
        "Eager Aggregation": {
            "section": "III-E",
            "operators": "Join, Groupjoin",
            "heuristics": "Low-Cardinality Group-By Keys",
        },
    }
