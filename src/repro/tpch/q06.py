"""TPC-H Q6: the forecasting revenue change query.

A single scan of lineitem with three predicates (five comparisons over
three attributes) selecting ~2 % of tuples; the aggregate
``sum(l_extendedprice * l_discount)`` reuses ``l_discount`` from the
predicate.

Paper result: hybrid gets 2.33x over data-centric (SIMD prepass on the
multi-comparison predicate); SWOLE adds 1.38x via **access merging** on
``l_discount`` plus **value masking** — limited by ~98 % wasted work.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..engine import kernels as K
from ..engine.events import Branch, CondRead, Compute
from ..engine.session import Session
from ..storage.database import Database
from . import base
from ..datagen.tpch import DATE_1994_01_01, DATE_1995_01_01

NAME = "Q6"
TABLES = ("lineitem",)
DISC_LO, DISC_HI = 5, 7  # between 0.05 and 0.07, percent points
QTY_LIMIT = 24

_SOURCE_DC = """\
// Q6 data-centric: short-circuit conjuncts, conditional aggregate reads
for (i = 0; i < lineitem; i++) {
    if (l_shipdate[i] >= d1994 && l_shipdate[i] < d1995
        && l_discount[i] >= 5 && l_discount[i] <= 7
        && l_quantity[i] < 24)
        revenue += l_extendedprice[i] * l_discount[i];
}"""

_SOURCE_HY = """\
// Q6 hybrid: one SIMD prepass per conjunct, selection vector, gather
for (i = 0; i < lineitem; i += TILE) {
    for (j = 0; j < len; j++)
        cmp[j] = (l_shipdate[i+j] >= d1994) & (l_shipdate[i+j] < d1995)
               & (l_discount[i+j] >= 5) & (l_discount[i+j] <= 7)
               & (l_quantity[i+j] < 24);
    for (j = 0; j < len; j++) { idx[k] = i + j; k += cmp[j]; }
    for (j = 0; j < k; j++)
        revenue += l_extendedprice[idx[j]] * l_discount[idx[j]];
}"""

_SOURCE_SW = """\
// Q6 SWOLE: access merging on l_discount + value masking
for (i = 0; i < lineitem; i += TILE) {
    for (j = 0; j < len; j++)
        tmp[j] = l_discount[i+j]
               * ((l_shipdate[i+j] >= d1994) & (l_shipdate[i+j] < d1995)
                & (l_discount[i+j] >= 5) & (l_discount[i+j] <= 7)
                & (l_quantity[i+j] < 24));   // merged access
    for (j = 0; j < len; j++)
        revenue += l_extendedprice[i+j] * tmp[j];
}"""


def _columns(db: Database) -> Dict[str, np.ndarray]:
    table = db.table("lineitem")
    return {
        "shipdate": table["l_shipdate"],
        "disc": table["l_discount"],
        "qty": table["l_quantity"],
        "price": table["l_extendedprice"],
    }


def _mask(cols: Dict[str, np.ndarray]) -> np.ndarray:
    return (
        (cols["shipdate"] >= DATE_1994_01_01)
        & (cols["shipdate"] < DATE_1995_01_01)
        & (cols["disc"] >= DISC_LO)
        & (cols["disc"] <= DISC_HI)
        & (cols["qty"] < QTY_LIMIT)
    )


def reference(db: Database) -> Dict[str, Any]:
    cols = _columns(db)
    mask = _mask(cols)
    revenue = (
        cols["price"][mask].astype(np.int64)
        * cols["disc"][mask].astype(np.int64)
    ).sum()
    return {"revenue": int(revenue)}


#: Conjuncts in short-circuit order: (column, measured term mask builder).
_CONJUNCTS = (
    ("shipdate", lambda c: (c["shipdate"] >= DATE_1994_01_01)
     & (c["shipdate"] < DATE_1995_01_01), 2),
    ("disc", lambda c: (c["disc"] >= DISC_LO) & (c["disc"] <= DISC_HI), 2),
    ("qty", lambda c: c["qty"] < QTY_LIMIT, 1),
)


def datacentric(db: Database):
    view = _columns(db)

    def run(session: Session) -> Dict[str, Any]:
        with session.tracer.overlap():
            n = int(view["shipdate"].shape[0])
            remaining = np.ones(n, dtype=bool)
            survivors = n
            for i, (col, term_of, n_cmps) in enumerate(_CONJUNCTS):
                if i == 0:
                    K.seq_read(session, view[col], col)
                else:
                    session.tracer.emit(
                        CondRead(
                            n_range=n,
                            n_selected=survivors,
                            width=int(view[col].dtype.itemsize),
                            array=col,
                        )
                    )
                session.tracer.emit(
                    Compute(n=survivors * n_cmps, op="cmp", simd=False)
                )
                passed = remaining & term_of(view)
                new_survivors = int(passed.sum())
                taken = new_survivors / survivors if survivors else 0.0
                session.tracer.emit(
                    Branch(n=survivors, taken_fraction=taken, site=col)
                )
                remaining, survivors = passed, new_survivors
            K.scalar_loop(session, n)
            price = K.conditional_read(session, view["price"], remaining, "price")
            disc = K.conditional_read(session, view["disc"], remaining, "disc")
            session.tracer.emit(Compute(n=survivors, op="mul", simd=False))
            session.tracer.emit(Compute(n=survivors, op="add", simd=False))
            revenue = int(
                (price.astype(np.int64) * disc.astype(np.int64)).sum()
            )
            return {"revenue": revenue}

    return base.make(NAME, "datacentric", _SOURCE_DC, run)


def hybrid(db: Database):
    view = _columns(db)

    def run(session: Session) -> Dict[str, Any]:
        with session.tracer.overlap():
            n = int(view["shipdate"].shape[0])
            for col, _, n_cmps in _CONJUNCTS:
                K.seq_read(session, view[col], col)
                session.tracer.emit(
                    Compute(
                        n=n * n_cmps,
                        op="cmp",
                        simd=True,
                        width=int(view[col].dtype.itemsize),
                    )
                )
            session.tracer.emit(Compute(n=2 * n, op="and", simd=True, width=1))
            mask = _mask(view)
            idx = K.selection_vector(session, mask)
            price = K.gather(session, view["price"], idx, "price")
            disc = K.gather(session, view["disc"], idx, "disc")
            k = int(idx.shape[0])
            session.tracer.emit(Compute(n=k, op="mul", simd=False))
            session.tracer.emit(Compute(n=k, op="add", simd=False))
            revenue = int(
                (price.astype(np.int64) * disc.astype(np.int64)).sum()
            )
            return {"revenue": revenue}

    return base.make(NAME, "hybrid", _SOURCE_HY, run)


def swole(db: Database):
    view = _columns(db)

    def run(session: Session) -> Dict[str, Any]:
        with session.tracer.overlap():
            n = int(view["shipdate"].shape[0])
            # prepass; l_discount is read here once (merged with the agg)
            for col, _, n_cmps in _CONJUNCTS:
                K.seq_read(session, view[col], col)
                session.tracer.emit(
                    Compute(
                        n=n * n_cmps,
                        op="cmp",
                        simd=True,
                        width=int(view[col].dtype.itemsize),
                    )
                )
            session.tracer.emit(Compute(n=2 * n, op="and", simd=True, width=1))
            mask = _mask(view)
            # access merging: tmp = l_discount * cmp (no second read)
            session.tracer.emit(Compute(n=n, op="mul", simd=True, width=8))
            tmp = view["disc"].astype(np.int64) * mask
            K.seq_write(session, tmp, "tmp", resident=True)
            # value masking: sequential read of price, SIMD multiply-add
            K.seq_read(session, view["price"], "price")
            session.tracer.emit(Compute(n=n, op="mul", simd=True, width=8))
            session.tracer.emit(Compute(n=n, op="add", simd=True, width=8))
            revenue = int((view["price"].astype(np.int64) * tmp).sum())
            return {"revenue": revenue}

    return base.make(NAME, "swole", _SOURCE_SW, run)
