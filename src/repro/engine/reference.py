"""Reference query evaluator: plain NumPy, no cost accounting.

Ground truth for the test suite: every code-generation strategy must
produce exactly this answer. Deliberately written in the most obvious
way possible (filter, join via membership, group with np.unique) so a
reviewer can audit its correctness at a glance.

It reads the operator tree directly and knows the node kinds the
microbenchmark queries use: ``Scan``, ``Filter``, ``Join`` without
carried columns, under a ``GroupByAgg`` root. Any other node is a
:class:`~repro.errors.PlanError`, never a guess.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from ..errors import PlanError
from ..plan.ops import Filter, GroupByAgg, Join, LogicalPlan, PlanNode, Scan
from ..storage.database import Database


def _stream(
    node: PlanNode, db: Database
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """The base table's columns under ``node`` and its row mask."""
    if isinstance(node, Scan):
        data = db.data(node.table)
        n = int(next(iter(data.values())).shape[0])
        return data, np.ones(n, dtype=bool)
    if isinstance(node, Filter):
        data, mask = _stream(node.child, db)
        keep = np.asarray(node.predicate.evaluate(data), dtype=bool)
        return data, mask & keep
    if isinstance(node, Join) and not node.carry:
        data, mask = _stream(node.probe, db)
        build, bmask = _stream(node.build, db)
        valid_keys = build[node.pk_column][bmask]
        return data, mask & np.isin(data[node.fk_column], valid_keys)
    raise PlanError(
        f"the reference evaluator does not know {node.describe()!r}"
    )


def evaluate(plan: LogicalPlan, db: Database) -> Dict[str, Any]:
    """Evaluate ``plan`` and return the normalised result dict."""
    root = plan.root
    if not isinstance(root, GroupByAgg):
        raise PlanError(
            f"the reference evaluator needs a GroupByAgg root, "
            f"got {root.describe()!r}"
        )
    data, mask = _stream(root.child, db)
    subset = {name: values[mask] for name, values in data.items()}
    k = int(mask.sum())

    if root.key is None:
        result: Dict[str, Any] = {}
        for agg in root.aggregates:
            if agg.func == "count":
                result[agg.name] = k
            else:
                values = agg.expr.evaluate(subset)
                result[agg.name] = int(np.sum(values, dtype=np.int64)) if k else 0
        return result

    keys = np.asarray(root.key.evaluate(subset)).astype(np.int64)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    aggs = np.zeros((unique_keys.shape[0], len(root.aggregates)), dtype=np.int64)
    for i, agg in enumerate(root.aggregates):
        if agg.func == "count":
            deltas = np.ones(keys.shape[0], dtype=np.int64)
        else:
            deltas = np.asarray(agg.expr.evaluate(subset), dtype=np.int64)
        np.add.at(aggs[:, i], inverse, deltas)
    return {"keys": unique_keys, "aggs": aggs}
