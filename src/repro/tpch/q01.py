"""TPC-H Q1: the pricing summary report.

A single scan of lineitem with one simple predicate that passes ~98 % of
tuples (``l_shipdate <= 1998-12-01 - 90 days``), grouped by
(returnflag, linestatus) — six groups — with the most compute-intensive
aggregation in TPC-H.

Paper result: hybrid barely helps (1.04x over data-centric); SWOLE adds
1.43x via **key masking** — the cost model prefers masking the single
group key over masking the many aggregate values, and the 98 %
selectivity means almost no wasted work.

Aggregates (fixed-point; divisions deferred to presentation):

* ``sum_qty``, ``sum_base`` (= sum extendedprice, cents)
* ``sum_disc_price`` = sum price * (100 - disc)     [cents * 1e2]
* ``sum_charge``     = sum price * (100 - disc) * (100 + tax)  [cents * 1e4]
* ``sum_disc``, ``count``
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..engine import kernels as K
from ..engine.events import Branch, Compute
from ..engine.hashtable import NULL_KEY, HashTable
from ..engine.session import Session
from ..storage.database import Database
from . import base

NAME = "Q1"
TABLES = ("lineitem",)
CUTOFF = 10471  # 1998-12-01 minus 90 days, as days since 1970-01-01
NUM_GROUPS = 6  # 3 returnflags x 2 linestatus

_SOURCE_DC = """\
// Q1 data-centric: fused loop, per-tuple branch, conditional reads
for (i = 0; i < lineitem; i++) {
    if (l_shipdate[i] <= 10471) {
        e = ht_find(ht, l_returnflag[i] * 2 + l_linestatus[i]);
        e->sum_qty   += l_quantity[i];
        e->sum_base  += l_extendedprice[i];
        e->sum_disc_price += l_extendedprice[i] * (100 - l_discount[i]);
        e->sum_charge += l_extendedprice[i] * (100 - l_discount[i])
                                            * (100 + l_tax[i]);
        e->sum_disc  += l_discount[i];
        e->count     += 1;
    }
}"""

_SOURCE_HY = """\
// Q1 hybrid: SIMD prepass + selection vector + conditional aggregation
for (i = 0; i < lineitem; i += TILE) {
    for (j = 0; j < len; j++) cmp[j] = l_shipdate[i+j] <= 10471;
    for (j = 0; j < len; j++) { idx[k] = i + j; k += cmp[j]; }
    for (j = 0; j < k; j++) { /* six aggregate updates via idx[j] */ }
}"""

_SOURCE_SW = """\
// Q1 SWOLE: key masking — mask the group key, aggregate every tuple
for (i = 0; i < lineitem; i += TILE) {
    for (j = 0; j < len; j++)
        key[j] = (l_shipdate[i+j] <= 10471)
               ? l_returnflag[i+j] * 2 + l_linestatus[i+j] : NULL_KEY;
    for (j = 0; j < len; j++) { /* six SIMD aggregate updates, all rows */ }
}
ht_drop(ht, NULL_KEY);"""


def _columns(db: Database) -> Dict[str, np.ndarray]:
    table = db.table("lineitem")
    return {
        "shipdate": table["l_shipdate"],
        "qty": table["l_quantity"],
        "price": table["l_extendedprice"],
        "disc": table["l_discount"],
        "tax": table["l_tax"],
        "rf": table["l_returnflag"],
        "ls": table["l_linestatus"],
    }


def _group_keys(cols: Dict[str, np.ndarray]) -> np.ndarray:
    return (cols["rf"].astype(np.int64) * 2 + cols["ls"]).astype(np.int64)


def _deltas(cols: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    price = cols["price"].astype(np.int64)
    disc = cols["disc"].astype(np.int64)
    tax = cols["tax"].astype(np.int64)
    disc_price = price * (100 - disc)
    return {
        "sum_qty": cols["qty"].astype(np.int64),
        "sum_base": price,
        "sum_disc_price": disc_price,
        "sum_charge": disc_price * (100 + tax),
        "sum_disc": disc,
        "count": np.ones(price.shape[0], dtype=np.int64),
    }


#: Arithmetic charged per tuple for the six aggregates (subs/mults/adds).
_AGG_OPS = ("sub", "mul", "sub", "mul", "mul") + ("add",) * 6


def reference(db: Database) -> Dict[str, Any]:
    cols = _columns(db)
    mask = cols["shipdate"] <= CUTOFF
    keys = _group_keys(cols)[mask]
    deltas = _deltas(cols)
    unique, inverse = np.unique(keys, return_inverse=True)
    aggs = np.zeros((unique.shape[0], 6), dtype=np.int64)
    for col, (name, values) in enumerate(deltas.items()):
        np.add.at(aggs[:, col], inverse, values[mask])
    return base.grouped(unique, aggs)


def _aggregate_into(
    session: Session,
    table: HashTable,
    keys: np.ndarray,
    deltas: Dict[str, np.ndarray],
    simd: bool,
) -> None:
    """Shared hash-update tail: one lookup, six scatter-adds."""
    n = int(keys.shape[0])
    for op in _AGG_OPS:
        session.tracer.emit(Compute(n=n, op=op, simd=simd, width=8))
    slots = None
    for i, values in enumerate(deltas.values()):
        if slots is None:
            K.ht_aggregate(session, table, keys, values, agg=i)
            slots, _ = table.lookup(keys)
        else:
            K.ht_add_at(session, table, slots, i, values)


def datacentric(db: Database):
    view = _columns(db)

    def run(session: Session) -> Dict[str, Any]:
        with session.tracer.overlap():
            n = int(view["shipdate"].shape[0])
            K.seq_read(session, view["shipdate"], "l_shipdate")
            session.tracer.emit(Compute(n=n, op="cmp", simd=False))
            mask = view["shipdate"] <= CUTOFF
            k = int(mask.sum())
            session.tracer.emit(
                Branch(n=n, taken_fraction=k / n if n else 0.0, site="shipdate")
            )
            K.scalar_loop(session, n)
            for name in ("rf", "ls", "qty", "price", "disc", "tax"):
                K.conditional_read(session, view[name], mask, name)
            sub = {name: values[mask] for name, values in view.items()}
            keys = _group_keys(sub)
            table = HashTable(expected_keys=NUM_GROUPS, num_aggs=6)
            _aggregate_into(session, table, keys, _deltas(sub), simd=False)
            return base.grouped(*table.items())

    return base.make(NAME, "datacentric", _SOURCE_DC, run)


def hybrid(db: Database):
    view = _columns(db)

    def run(session: Session) -> Dict[str, Any]:
        with session.tracer.overlap():
            mask = K.compare(session, view["shipdate"], "<=", CUTOFF, "l_shipdate")
            idx = K.selection_vector(session, mask)
            for name in ("rf", "ls", "qty", "price", "disc", "tax"):
                K.gather(session, view[name], idx, name)
            sub = {name: values[mask] for name, values in view.items()}
            keys = _group_keys(sub)
            table = HashTable(expected_keys=NUM_GROUPS, num_aggs=6)
            _aggregate_into(session, table, keys, _deltas(sub), simd=False)
            return base.grouped(*table.items())

    return base.make(NAME, "hybrid", _SOURCE_HY, run)


def swole(db: Database):
    view = _columns(db)

    def run(session: Session) -> Dict[str, Any]:
        with session.tracer.overlap():
            n = int(view["shipdate"].shape[0])
            mask = K.compare(session, view["shipdate"], "<=", CUTOFF, "l_shipdate")
            # key masking: read the two key columns sequentially, mask
            for name in ("rf", "ls"):
                K.seq_read(session, view[name], name)
            session.tracer.emit(Compute(n=n, op="mul", simd=True, width=8))
            session.tracer.emit(Compute(n=n, op="add", simd=True, width=8))
            raw_keys = _group_keys(view)
            session.tracer.emit(Compute(n=n, op="blend", simd=True, width=8))
            keys = np.where(mask, raw_keys, NULL_KEY)
            K.seq_write(session, keys, "key", resident=True)
            for name in ("qty", "price", "disc", "tax"):
                K.seq_read(session, view[name], name)
            table = HashTable(expected_keys=NUM_GROUPS + 1, num_aggs=6)
            _aggregate_into(session, table, keys, _deltas(view), simd=True)
            result_keys, aggs = table.items()
            keep = result_keys != NULL_KEY
            return base.grouped(result_keys[keep], aggs[keep])

    return base.make(NAME, "swole", _SOURCE_SW, run)
