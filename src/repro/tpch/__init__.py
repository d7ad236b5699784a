"""TPC-H query programs (the paper's eight-query subset).

All eight are logical operator trees (:func:`logical_plan`, from
:mod:`repro.tpch.plans`) compiled through the staged lowering pipeline
like any other plan. The hand-coded per-query strategy modules
(``q01.py`` ..) are references only: :func:`oracle_tpch` compiles them
for the equivalence tests, :func:`reference_result` is the plain-NumPy
ground truth.
"""

from ..plan.passes import STRATEGIES
from . import base
from . import q01, q03, q04, q05, q06, q13, q14, q19
from .base import oracle_tpch, query_names, reference_result
from .plans import PIPELINE_QUERIES, logical_plan

for _module in (q01, q03, q04, q05, q06, q13, q14, q19):
    base.register_query(_module.NAME, _module)

__all__ = [
    "PIPELINE_QUERIES",
    "STRATEGIES",
    "logical_plan",
    "oracle_tpch",
    "query_names",
    "reference_result",
]
