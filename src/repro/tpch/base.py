"""Shared scaffolding for the hand-coded TPC-H reference programs.

The paper hand-coded each strategy in C "to eliminate any overheads from
tangential implementation differences"; these modules do the same in
kernel compositions. Every query module exposes:

* ``reference(db)`` — plain-NumPy ground truth;
* ``datacentric(db)`` / ``hybrid(db)`` / ``swole(db)`` — one
  :class:`~repro.engine.program.CompiledQuery` per strategy.

The engine never runs them: it compiles the operator trees of
:mod:`repro.tpch.plans` through the staged pipeline. :func:`oracle_tpch`
resolves (query, strategy) pairs for the tests and benches that pin the
pipeline against these curated programs, adding the ``interpreter``
sanity baseline (data-centric access patterns plus Volcano per-tuple
dispatch) for every query.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

from ..engine import kernels as K
from ..engine.program import CompiledQuery
from ..engine.session import Session
from ..errors import CodegenError
from ..storage.database import Database

#: Filled by the query modules at import time: name -> module.
QUERY_MODULES: Dict[str, Any] = {}


def register_query(name: str, module: Any) -> None:
    QUERY_MODULES[name] = module


def query_names() -> List[str]:
    return sorted(QUERY_MODULES, key=lambda name: int(name[1:]))


def oracle_tpch(name: str, strategy: str, db: Database) -> CompiledQuery:
    """Compile the hand-coded strategy program for ``name``.

    The equivalence oracle: tests compare the staged pipeline's answers
    and costs against these curated kernel compositions.
    """
    try:
        module = QUERY_MODULES[name]
    except KeyError as exc:
        raise CodegenError(
            f"unknown TPC-H query {name!r}; have {query_names()}"
        ) from exc
    if strategy == "interpreter":
        return _interpreter(name, module, db)
    try:
        compiler = getattr(module, strategy)
    except AttributeError as exc:
        raise CodegenError(
            f"{name} has no strategy {strategy!r}"
        ) from exc
    return compiler(db)


def _interpreter(name: str, module: Any, db: Database) -> CompiledQuery:
    """Volcano baseline: data-centric program + per-tuple iterator cost."""
    inner = module.datacentric(db)
    touched = getattr(module, "TABLES", ("lineitem",))

    def run(session: Session) -> Dict[str, Any]:
        for table in touched:
            K.interpreter_overhead(session, db.table(table).num_rows, 2)
        return inner._fn(session)

    return CompiledQuery(
        name=name,
        strategy="interpreter",
        source=f"// Volcano iterator plan for {name}\n" + inner.source,
        _fn=run,
    )


def make(
    name: str,
    strategy: str,
    source: str,
    fn: Callable[[Session], Dict],
) -> CompiledQuery:
    return CompiledQuery(name=name, strategy=strategy, source=source, _fn=fn)


def reference_result(name: str, db: Database) -> Dict[str, Any]:
    """Ground-truth answer for a query (plain NumPy)."""
    return QUERY_MODULES[name].reference(db)


def grouped(keys: np.ndarray, aggs: np.ndarray) -> Dict[str, np.ndarray]:
    """Normalise grouped output (ascending keys)."""
    keys = np.asarray(keys, dtype=np.int64)
    aggs = np.asarray(aggs, dtype=np.int64)
    if aggs.ndim == 1:
        aggs = aggs[:, None]
    order = np.argsort(keys, kind="stable")
    return {"keys": keys[order], "aggs": aggs[order]}
