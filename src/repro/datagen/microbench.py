"""Microbenchmark workload generator (paper Fig. 7).

Table ``R`` (paper: 100M rows) and table ``S`` (paper: 1K or 1M rows),
with every value drawn uniformly — the paper's deliberate worst case for
hash tables ("a lookup in a large hash table with uniformly distributed
values will almost certainly result in a cache miss").

Columns follow the Fig. 7a schema:

=========  ======  ==========================================
column     type    cardinality
=========  ======  ==========================================
``r_a``    int8    100 (values 1..100; never zero, so Q1's
                   division configuration is well defined)
``r_b``    int8    100 (values 1..100)
``r_x``    int8    100 (values 0..99; ``r_x < SEL`` selects
                   exactly SEL %)
``r_y``    int8    1 (constant 1; the second conjunct of every
                   predicate, selectivity-neutral)
``r_c``    int32   configurable (10 .. 10M in the paper)
``r_fk``   int32   |S| (foreign key into ``s_pk``)
``s_pk``   int32   dense 0..|S|-1
``s_x``    int8    100 (values 0..99)
=========  ======  ==========================================

Query factories (:func:`q1` .. :func:`q5`) build the Fig. 7b queries with
their substitution parameters, as operator trees
(:class:`~repro.plan.ops.LogicalPlan`) like every other query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataGenError
from ..plan.expressions import And, Col, Const
from ..plan.builder import PlanBuilder
from ..plan.ops import AggSpec, LogicalPlan
from ..storage.column import Column, LogicalType
from ..storage.database import Database
from ..storage.table import Table

#: Paper-scale row counts, used to derive scale factors for machine
#: scaling (``paper_rows / config.num_rows``).
PAPER_R_ROWS = 100_000_000
PAPER_S_SMALL = 1_000
PAPER_S_LARGE = 1_000_000


@dataclass(frozen=True)
class MicrobenchConfig:
    """Size and shape of the generated microbenchmark database."""

    num_rows: int = 2_000_000
    s_rows: int = 20_000
    c_cardinality: int = 1_000
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_rows <= 0 or self.s_rows <= 0:
            raise DataGenError("row counts must be positive")
        if self.c_cardinality <= 0:
            raise DataGenError("group-by cardinality must be positive")

    @property
    def scale_factor(self) -> float:
        """How much smaller R is than the paper's 100M rows."""
        return PAPER_R_ROWS / self.num_rows


def generate(config: MicrobenchConfig = MicrobenchConfig()) -> Database:
    """Generate the microbenchmark database for ``config``."""
    rng = np.random.default_rng(config.seed)
    n, sn = config.num_rows, config.s_rows

    r = Table(
        name="R",
        columns=(
            Column("r_a", LogicalType.INT8, rng.integers(1, 101, n)),
            Column("r_b", LogicalType.INT8, rng.integers(1, 101, n)),
            Column("r_x", LogicalType.INT8, rng.integers(0, 100, n)),
            Column("r_y", LogicalType.INT8, np.ones(n, dtype=np.int8)),
            Column(
                "r_c",
                LogicalType.INT32,
                rng.integers(0, config.c_cardinality, n),
            ),
            Column("r_fk", LogicalType.INT32, rng.integers(0, sn, n)),
        ),
    )
    s = Table(
        name="S",
        columns=(
            Column("s_pk", LogicalType.INT32, np.arange(sn, dtype=np.int32)),
            Column("s_x", LogicalType.INT8, rng.integers(0, 100, sn)),
        ),
    )
    db = Database()
    db.add_table(r)
    db.add_table(s)
    db.add_foreign_key("R", "r_fk", "S", "s_pk")
    return db


def _r_predicate(sel: int):
    """``r_x < sel and r_y = 1`` — the standard two-conjunct predicate."""
    return And([Col("r_x") < Const(sel), Col("r_y").eq(Const(1))])


def q1(sel: int, op: str = "mul") -> LogicalPlan:
    """µQ1: ``select sum(r_a OP r_b) from R where r_x < SEL and r_y = 1``.

    ``op='mul'`` is the memory-bound configuration (Fig. 8a),
    ``op='div'`` the compute-bound one (Fig. 8b).
    """
    if op not in ("mul", "div"):
        raise DataGenError("Q1's OP parameter is 'mul' or 'div'")
    expr = (
        Col("r_a") * Col("r_b") if op == "mul" else Col("r_a") / Col("r_b")
    )
    return (
        PlanBuilder.scan("R")
        .filter(_r_predicate(sel))
        .group_agg(AggSpec("sum", expr, name="sum"))
        .build(f"uQ1[{op},{sel}]")
    )


def q2(sel: int) -> LogicalPlan:
    """µQ2: Q1's multiplication configuration grouped by ``r_c``
    (Fig. 9; the ``r_c`` cardinality comes from the generator config)."""
    return (
        PlanBuilder.scan("R")
        .filter(_r_predicate(sel))
        .group_agg(AggSpec("sum", Col("r_a") * Col("r_b"), name="sum"),
                   key="r_c")
        .build(f"uQ2[{sel}]")
    )


def q3(sel: int, col: str = "r_b") -> LogicalPlan:
    """µQ3: ``select sum(r_x * COL) ...`` — the access-merging query.

    ``col='r_b'`` reuses one attribute (``r_x``, Fig. 10a);
    ``col='r_x'`` reuses both multiplicands (Fig. 10b).
    """
    if col not in ("r_b", "r_x"):
        raise DataGenError("Q3's COL parameter is 'r_b' or 'r_x'")
    return (
        PlanBuilder.scan("R")
        .filter(_r_predicate(sel))
        .group_agg(AggSpec("sum", Col("r_x") * Col(col), name="sum"))
        .build(f"uQ3[{col},{sel}]")
    )


def _filtered_s(sel: int) -> PlanBuilder:
    """``S where s_x < sel`` — the build side of µQ4 and µQ5."""
    return PlanBuilder.scan("S").filter(Col("s_x") < Const(sel))


def q4(sel1: int, sel2: int) -> LogicalPlan:
    """µQ4: the semijoin — ``R join S on r_fk = s_pk`` with predicates on
    both sides (Fig. 11). ``sel1`` filters the probe side (R), ``sel2``
    the build side (S)."""
    return (
        PlanBuilder.scan("R")
        .filter(Col("r_x") < Const(sel1))
        .join(_filtered_s(sel2), fk_column="r_fk", pk_column="s_pk")
        .group_agg(AggSpec("sum", Col("r_a") * Col("r_b"), name="sum"))
        .build(f"uQ4[{sel1},{sel2}]")
    )


def q5(sel: int) -> LogicalPlan:
    """µQ5: the groupjoin — group by the join key ``r_fk`` with a
    predicate on S only (Fig. 12; the paper's worst case for eager
    aggregation, which must aggregate every R tuple)."""
    return (
        PlanBuilder.scan("R")
        .join(_filtered_s(sel), fk_column="r_fk", pk_column="s_pk")
        .group_agg(AggSpec("sum", Col("r_a") * Col("r_b"), name="sum"),
                   key="r_fk")
        .build(f"uQ5[{sel}]")
    )
