"""TPC-H queries as logical operator trees.

These are the IR inputs to the staged lowering pipeline
(:func:`repro.codegen.pipeline.compile_pipeline`): database-independent
trees using placeholder dictionary predicates (``DictEq`` /
``DictPrefix``) that the binding pass resolves against a concrete
database. The hand-coded strategy modules (``q01.py`` etc.) remain as
equivalence oracles — :func:`repro.tpch.base.oracle_tpch` compiles them
directly, and the test suite asserts byte-identical answers.

Aggregate fixed-point conventions match the oracles: prices in cents,
discounts/taxes in percent points, products carrying the scale factors
(the presentation-time divisions are not part of the query).
"""

from __future__ import annotations

from typing import Dict

from ..datagen.tpch import (
    DATE_1994_01_01,
    DATE_1995_01_01,
    DATE_1995_03_15,
    DATE_1995_09_01,
    DATE_1995_10_01,
)
from ..errors import CodegenError
from ..plan.expressions import (
    And,
    Col,
    Const,
    DictEq,
    DictIn,
    DictPrefix,
    StrMatch,
)
from ..plan.ops import (
    AggSpec,
    DisjunctJoin,
    ExistsJoin,
    Filter,
    GroupByAgg,
    Join,
    LogicalPlan,
    OuterGroupJoin,
    Project,
    Scan,
)

#: The queries that have an operator tree here — all eight of the
#: paper's subset (the Fig. 6 series and the ledger iterate this).
PIPELINE_QUERIES = ("Q1", "Q3", "Q4", "Q5", "Q6", "Q13", "Q14", "Q19")

Q1_CUTOFF = 10471  # 1998-12-01 minus 90 days, days since 1970-01-01
Q6_DISC_LO, Q6_DISC_HI = 5, 7
Q6_QTY_LIMIT = 24
Q3_SEGMENT = "BUILDING"
Q14_PREFIX = "PROMO"
Q4_DATE_LO = 8582  # 1993-07-01
Q4_DATE_HI = 8674  # 1993-10-01
Q5_REGION = "ASIA"
Q13_PATTERN = "%special%requests%"
#: (brand, containers, qty_lo, qty_hi, size_hi) per Q19 disjunct arm.
Q19_DISJUNCTS = (
    ("Brand#12", ("SM CASE", "SM BOX", "SM PACK", "SM PKG"), 1, 11, 5),
    ("Brand#23", ("MED BAG", "MED BOX", "MED PKG", "MED PACK"), 10, 20, 10),
    ("Brand#34", ("LG CASE", "LG BOX", "LG PACK", "LG PKG"), 20, 30, 15),
)
Q19_SHIPMODES = ("AIR", "REG AIR")
Q19_SHIPINSTRUCT = "DELIVER IN PERSON"


def q1_plan() -> LogicalPlan:
    """Q1: one ~98 %-pass predicate, six aggregates, six groups."""
    price = Col("l_extendedprice")
    disc_price = price * (Const(100) - Col("l_discount"))
    charge = disc_price * (Const(100) + Col("l_tax"))
    return LogicalPlan(
        name="Q1",
        root=GroupByAgg(
            child=Filter(
                child=Scan("lineitem"),
                predicate=Col("l_shipdate") <= Q1_CUTOFF,
            ),
            aggregates=(
                AggSpec("sum", Col("l_quantity"), "sum_qty"),
                AggSpec("sum", price, "sum_base"),
                AggSpec("sum", disc_price, "sum_disc_price"),
                AggSpec("sum", charge, "sum_charge"),
                AggSpec("sum", Col("l_discount"), "sum_disc"),
                AggSpec("count", None, "count"),
            ),
            key=Col("l_returnflag") * 2 + Col("l_linestatus"),
            key_name="returnflag_linestatus",
        ),
    )


def q6_plan() -> LogicalPlan:
    """Q6: three conjuncts (five compares), one revenue aggregate."""
    shipdate, disc, qty = (
        Col("l_shipdate"),
        Col("l_discount"),
        Col("l_quantity"),
    )
    return LogicalPlan(
        name="Q6",
        root=GroupByAgg(
            child=Filter(
                child=Scan("lineitem"),
                predicate=And(
                    [
                        And(
                            [
                                shipdate >= DATE_1994_01_01,
                                shipdate < DATE_1995_01_01,
                            ]
                        ),
                        And([disc >= Q6_DISC_LO, disc <= Q6_DISC_HI]),
                        qty < Q6_QTY_LIMIT,
                    ]
                ),
            ),
            aggregates=(
                AggSpec(
                    "sum", Col("l_extendedprice") * disc, "revenue"
                ),
            ),
        ),
    )


def q3_plan() -> LogicalPlan:
    """Q3: customer |X| orders |X| lineitem, revenue per order."""
    revenue = Col("l_extendedprice") * (
        Const(100) - Col("l_discount")
    )
    orders_side = Join(
        probe=Filter(
            child=Scan("orders"),
            predicate=Col("o_orderdate") < DATE_1995_03_15,
        ),
        build=Filter(
            child=Scan("customer"),
            predicate=DictEq("c_mktsegment", Q3_SEGMENT),
        ),
        fk_column="o_custkey",
        pk_column="c_custkey",
    )
    return LogicalPlan(
        name="Q3",
        root=GroupByAgg(
            child=Join(
                probe=Filter(
                    child=Scan("lineitem"),
                    predicate=Col("l_shipdate") > DATE_1995_03_15,
                ),
                build=orders_side,
                fk_column="l_orderkey",
                pk_column="o_orderkey",
            ),
            aggregates=(AggSpec("sum", revenue, "revenue"),),
            key=Col("l_orderkey"),
            key_name="l_orderkey",
        ),
    )


def q14_plan() -> LogicalPlan:
    """Q14: month filter, index join carrying the promo flag from part."""
    shipdate = Col("l_shipdate")
    revenue = Col("l_extendedprice") * (
        Const(100) - Col("l_discount")
    )
    return LogicalPlan(
        name="Q14",
        root=GroupByAgg(
            child=Join(
                probe=Filter(
                    child=Scan("lineitem"),
                    # One conjunct (two compares): the month window is a
                    # single branch site, like the hand-coded programs.
                    predicate=And(
                        [
                            And(
                                [
                                    shipdate >= DATE_1995_09_01,
                                    shipdate < DATE_1995_10_01,
                                ]
                            )
                        ]
                    ),
                ),
                build=Project(
                    child=Scan("part"),
                    outputs=(
                        ("promo", DictPrefix("p_type", Q14_PREFIX)),
                    ),
                ),
                fk_column="l_partkey",
                pk_column="p_partkey",
                carry=("promo",),
            ),
            aggregates=(
                AggSpec("sum", revenue * Col("promo"), "promo_revenue"),
                AggSpec("sum", revenue, "total_revenue"),
            ),
        ),
    )


def q4_plan() -> LogicalPlan:
    """Q4: EXISTS semijoin — late lineitems vote into an orders bitmap."""
    orderdate = Col("o_orderdate")
    return LogicalPlan(
        name="Q4",
        root=GroupByAgg(
            child=ExistsJoin(
                probe=Filter(
                    child=Scan("orders"),
                    # One conjunct (two compares): the quarter window is
                    # a single branch site, like the hand-coded programs.
                    predicate=And(
                        [
                            And(
                                [
                                    orderdate >= Q4_DATE_LO,
                                    orderdate < Q4_DATE_HI,
                                ]
                            )
                        ]
                    ),
                ),
                build=Filter(
                    child=Scan("lineitem"),
                    predicate=Col("l_commitdate") < Col("l_receiptdate"),
                ),
                pk_column="o_orderkey",
                fk_column="l_orderkey",
            ),
            aggregates=(AggSpec("count", None, "order_count"),),
            key=Col("o_orderpriority"),
            key_name="o_orderpriority",
        ),
    )


def q5_plan() -> LogicalPlan:
    """Q5: deep join chain with late-materialized nation keys.

    Region filters nation; nation semijoins customer and supplier;
    orders joins customer carrying ``c_nationkey``; lineitem joins
    orders (still carrying ``c_nationkey``) and supplier (carrying
    ``s_nationkey``); the local-supplier equality is a cross-carry
    filter and revenue groups by the supplier nation.
    """
    orderdate = Col("o_orderdate")
    revenue = Col("l_extendedprice") * (Const(100) - Col("l_discount"))
    nation = Join(
        probe=Scan("nation"),
        build=Filter(
            child=Scan("region"),
            predicate=DictEq("r_name", Q5_REGION),
        ),
        fk_column="n_regionkey",
        pk_column="r_regionkey",
    )
    customer_side = Join(
        probe=Scan("customer"),
        build=nation,
        fk_column="c_nationkey",
        pk_column="n_nationkey",
    )
    supplier_side = Join(
        probe=Scan("supplier"),
        build=nation,
        fk_column="s_nationkey",
        pk_column="n_nationkey",
    )
    orders_side = Join(
        probe=Filter(
            child=Scan("orders"),
            predicate=And(
                [
                    And(
                        [
                            orderdate >= DATE_1994_01_01,
                            orderdate < DATE_1995_01_01,
                        ]
                    )
                ]
            ),
        ),
        build=customer_side,
        fk_column="o_custkey",
        pk_column="c_custkey",
        carry=("c_nationkey",),
    )
    line = Join(
        probe=Join(
            probe=Scan("lineitem"),
            build=orders_side,
            fk_column="l_orderkey",
            pk_column="o_orderkey",
            carry=("c_nationkey",),
        ),
        build=supplier_side,
        fk_column="l_suppkey",
        pk_column="s_suppkey",
        carry=("s_nationkey",),
    )
    return LogicalPlan(
        name="Q5",
        root=GroupByAgg(
            child=Filter(
                child=line,
                predicate=Col("c_nationkey").eq(Col("s_nationkey")),
            ),
            aggregates=(AggSpec("sum", revenue, "revenue"),),
            key=Col("s_nationkey"),
            key_name="s_nationkey",
        ),
    )


def q13_plan() -> LogicalPlan:
    """Q13: outer groupjoin — orders-per-customer, keeping zeros —
    then a distribution over the per-customer counts."""
    return LogicalPlan(
        name="Q13",
        root=GroupByAgg(
            child=OuterGroupJoin(
                probe=Filter(
                    child=Scan("orders"),
                    predicate=StrMatch(
                        "o_comment",
                        Q13_PATTERN,
                        "o_comment_special",
                        negated=True,
                    ),
                ),
                build=Scan("customer"),
                fk_column="o_custkey",
                pk_column="c_custkey",
                count_name="c_count",
            ),
            aggregates=(AggSpec("count", None, "custdist"),),
            key=Col("c_count"),
            key_name="c_count",
        ),
    )


def q19_plan() -> LogicalPlan:
    """Q19: OR-of-conjunctions over an index join into part."""
    qty = Col("l_quantity")
    size = Col("p_size")
    revenue = Col("l_extendedprice") * (Const(100) - Col("l_discount"))
    disjuncts = tuple(
        (
            And(
                [
                    DictEq("p_brand", brand),
                    DictIn("p_container", containers),
                    And([size >= 1, size <= size_hi]),
                ]
            ),
            And([qty >= qty_lo, qty <= qty_hi]),
        )
        for brand, containers, qty_lo, qty_hi, size_hi in Q19_DISJUNCTS
    )
    return LogicalPlan(
        name="Q19",
        root=GroupByAgg(
            child=DisjunctJoin(
                probe=Filter(
                    child=Scan("lineitem"),
                    # One conjunct (three compares): the shipping checks
                    # share a single branch site, like the hand-coded
                    # programs' fused `shipmode_ok && shipinstruct_ok`.
                    predicate=And(
                        [
                            And(
                                [
                                    DictIn("l_shipmode", Q19_SHIPMODES),
                                    DictEq(
                                        "l_shipinstruct", Q19_SHIPINSTRUCT
                                    ),
                                ]
                            )
                        ]
                    ),
                ),
                build=Scan("part"),
                fk_column="l_partkey",
                pk_column="p_partkey",
                disjuncts=disjuncts,
            ),
            aggregates=(AggSpec("sum", revenue, "revenue"),),
        ),
    )


_BUILDERS = {
    "Q1": q1_plan,
    "Q3": q3_plan,
    "Q4": q4_plan,
    "Q5": q5_plan,
    "Q6": q6_plan,
    "Q13": q13_plan,
    "Q14": q14_plan,
    "Q19": q19_plan,
}

_CACHE: Dict[str, LogicalPlan] = {}


def logical_plan(name: str) -> LogicalPlan:
    """The logical operator tree for a pipeline-compiled TPC-H query."""
    try:
        builder = _BUILDERS[name]
    except KeyError as exc:
        raise CodegenError(
            f"no logical plan for {name!r}; have {sorted(_BUILDERS)}"
        ) from exc
    if name not in _CACHE:
        _CACHE[name] = builder()
    return _CACHE[name]


__all__ = [
    "PIPELINE_QUERIES",
    "logical_plan",
    "q1_plan",
    "q3_plan",
    "q4_plan",
    "q5_plan",
    "q6_plan",
    "q13_plan",
    "q14_plan",
    "q19_plan",
]
