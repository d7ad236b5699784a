"""Physical pipelines -> generated Python kernels, for both backends.

This module *generates* one plain-Python function per pipeline of a
:class:`~repro.plan.physical.PhysicalPlan` (NumPy statements over the
columns of one row block, no events, no hash tables), compiles the
text with ``compile``/``exec``, and returns a
:class:`~repro.codegen.npexec.VectorizedProgram` ready to serve.
Compiled with ``counting=True`` (the instrumented backend), each op
also adds what it did — rows seen, survivors per conjunct, probes that
hit, distinct build keys, groups — into the run's counts dict, which
:func:`repro.codegen.price.price` turns into the priced access events;
the serving kernels carry no count statement.

The generated code is the access-aware program the paper's compiler
would emit, minus the simulation harness:

- predicates become boolean-mask expressions honoring the same
  value-mask / key-mask semantics the passes decided;
- hash builds become key sets (``_key_set``) and hash semijoins/joins
  and IN-lists become ``_member`` tests against them (an IN-list's key
  set is built at compile time): a range check plus a presence table
  read for dense keys, a binary search for sparse ones
  (:func:`repro.codegen.npexec.key_set`);
- grouped aggregation becomes argsort + ``np.add.reduceat`` segment
  sums (int64-exact, so results match the hash-table path bit for
  bit);
- FK-index offset arrays, IN-lists' key sets, build-side column
  dicts, and non-inlinable expressions are bound into the kernel's
  globals at compile time (``_FK*`` / ``_C*`` / ``_T*`` / ``_E*``).

Expressions are inlined into the source where the node type maps to a
NumPy operator (Col/Const/Compare/And/Or/Arith/InSet/StrMatch);
anything else (Case, dictionary probes) falls back to the bound
expression object's own vectorized ``evaluate``.

Answers are pinned against the reference evaluators by the backend
sweep in ``tests/test_backend_equivalence.py`` across all TPC-H query
x strategy cells, serial and morsel-parallel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import PlanError
from ..plan import passes as PS
from ..plan.expressions import (
    And,
    Arith,
    Col,
    Compare,
    Const,
    Expr,
    InSet,
    Or,
    StrMatch,
)
from ..plan.physical import (
    BitmapBuild,
    BitmapSemiProbe,
    CarriedGather,
    ColumnMaterialize,
    DisjunctBitmapProbe,
    DisjunctIndexProbe,
    EagerAggregate,
    ExistsBitmapBuild,
    ExistsBitmapProbe,
    FilterStage,
    GroupAgg,
    GroupBuild,
    GroupDistribution,
    GroupJoinAgg,
    HashJoinCarryProbe,
    HashSemiProbe,
    IndexGather,
    JoinBuild,
    MultiBitmapBuild,
    OuterGroupJoinAgg,
    PhysicalPlan,
    Pipeline,
    ScalarAgg,
    SemiHashBuild,
)
from ..storage.database import Database
from .npexec import (
    MEMBER_ROW_BYTES,
    RUNTIME_ENV,
    VectorizedProgram,
    key_set,
    member,
)

_ARITH_SYMBOL = {"add": "+", "sub": "-", "mul": "*"}

#: Where a counting kernel keeps the run's counts: a dict in the run's
#: state, ``(pipeline index, op index, slot) -> int``.
COUNTS = "#counts"


class VectorizeError(PlanError):
    """A physical shape the vectorized backend cannot lower: a broken
    planner invariant, since every physical op has a handler."""


class _Env:
    """Kernel globals: runtime helpers plus compile-time bound values."""

    def __init__(self) -> None:
        self.bindings: Dict[str, object] = dict(RUNTIME_ENV)
        self._counts: Dict[str, int] = {}
        self._fk_cache: Dict[Tuple[str, str], str] = {}

    def bind(self, prefix: str, value: object) -> str:
        i = self._counts.get(prefix, 0)
        self._counts[prefix] = i + 1
        name = f"{prefix}{i}"
        self.bindings[name] = value
        return name

    def fk_offsets(self, db: Database, table: str, fk_column: str) -> str:
        key = (table, fk_column)
        name = self._fk_cache.get(key)
        if name is None:
            name = self.bind("_FK", db.fk_index(table, fk_column).offsets)
            self._fk_cache[key] = name
        return name

    def fk_bound(self, table: str) -> Dict[str, np.ndarray]:
        """FK column -> the offsets bound for gathers out of ``table``."""
        return {
            column: self.bindings[name]
            for (owner, column), name in self._fk_cache.items()
            if owner == table
        }


def compile_expr(expr: Expr, data: str, env: _Env) -> str:
    """Python source for ``expr`` evaluated over the columns of the
    dict variable named ``data``; falls back to a bound expression
    object for node types without an inline form."""
    if isinstance(expr, Col):
        return f"{data}[{expr.name!r}]"
    if isinstance(expr, Const):
        return f"np.int64({expr.value})"
    if isinstance(expr, Compare):
        left = compile_expr(expr.left, data, env)
        right = compile_expr(expr.right, data, env)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, And):
        return "(" + " & ".join(
            compile_expr(term, data, env) for term in expr.terms
        ) + ")"
    if isinstance(expr, Or):
        return "(" + " | ".join(
            compile_expr(term, data, env) for term in expr.terms
        ) + ")"
    if isinstance(expr, Arith):
        left = compile_expr(expr.left, data, env)
        right = compile_expr(expr.right, data, env)
        if expr.op == "div":
            return f"_div({left}, {right})"
        return f"(_i64({left}) {_ARITH_SYMBOL[expr.op]} _i64({right}))"
    if isinstance(expr, InSet):
        child = compile_expr(expr.child, data, env)
        table = env.bind(
            "_C", key_set(np.asarray(expr.values, dtype=np.int64))
        )
        return f"_member({child}, {table})"
    if isinstance(expr, StrMatch):
        term = f"({data}[{expr.flag_column!r}] != 0)"
        return f"(~{term})" if expr.negated else term
    bound = env.bind("_E", expr)
    return f"{bound}.evaluate({data})"


def _temp_bytes(expr: Expr, view: Dict[str, np.ndarray]) -> int:
    """Bytes per row of the full-length temporaries the code
    :func:`compile_expr` emits for ``expr`` allocates: one per boolean
    node, eight per int64 arithmetic result, eight more for each narrow
    (encoded) ``view`` column an ``_i64`` widens on the way in, and
    :data:`~repro.codegen.npexec.MEMBER_ROW_BYTES` per ``_member``."""
    if isinstance(expr, (Col, Const)):
        return 0
    if isinstance(expr, Arith):
        total = 8
        for side in (expr.left, expr.right):
            if isinstance(side, Col):
                column = view.get(side.name)
                if column is not None and column.dtype.itemsize < 8:
                    total += 8
            else:
                total += _temp_bytes(side, view)
        return total
    if isinstance(expr, Compare):
        return 1 + _temp_bytes(expr.left, view) + _temp_bytes(expr.right, view)
    if isinstance(expr, (And, Or)):
        return 1 + sum(_temp_bytes(term, view) for term in expr.terms)
    if isinstance(expr, InSet):
        return MEMBER_ROW_BYTES + _temp_bytes(expr.child, view)
    if isinstance(expr, StrMatch):
        return 1
    return 8  # a bound expression object's result column


def _bool(src: str) -> str:
    return f"np.asarray({src}, dtype=bool)"


class _KernelEmitter:
    """Generates the body of one pipeline's kernel function."""

    def __init__(
        self,
        pipe: Pipeline,
        db: Database,
        env: _Env,
        site: Optional[int] = None,
    ) -> None:
        self.pipe = pipe
        self.db = db
        self.env = env
        #: The pipeline's index when the kernel counts (instrumented
        #: programs): every op then adds its rows into the run's counts
        #: dict under ``(site, op index, slot)``.
        self.site = site
        self._op = 0
        # The scan view the pipeline was planned for: columns the
        # access-encoding pass chose stream as physical codes (narrow
        # dtypes), everything else decoded. The kernels are value safe
        # over codes — keys and aggregate deltas cast through int64 and
        # comparisons promote — so output stays byte-identical.
        self.view = db.scan_view(pipe.table, pipe.encodings)
        self.view_cols = frozenset(self.view)
        #: View columns the kernel reads (all the program binds).
        self.reads: set = set()
        #: Bytes per input row of the temporaries the kernel allocates;
        #: sizes the row blocks of a splittable final pipeline.
        self.row_bytes = 0
        self.lines: List[str] = []
        self.has_mask = False
        self.has_result = False
        self.finalize = None
        self._tmp = 0

    # -- small emission helpers -----------------------------------------

    def out(self, line: str) -> None:
        self.lines.append("    " + line if line else "")

    def name(self, stem: str) -> str:
        self._tmp += 1
        return f"{stem}{self._tmp}"

    def col(self, column: str) -> str:
        """Source for a view column, recorded as read."""
        self.reads.add(column)
        return f"v[{column!r}]"

    def expr(self, expr: Expr, data: str = "v") -> str:
        """:func:`compile_expr` with the kernel's bookkeeping: the view
        columns read and the temporaries allocated."""
        self.reads.update(expr.columns() & self.view_cols)
        self.row_bytes += _temp_bytes(expr, self.view)
        return compile_expr(expr, data, self.env)

    def selected(self, src: str) -> str:
        """``src`` narrowed to the live selection (no-op without one)."""
        return f"{src}[mask]" if self.has_mask else src

    def narrow(self, term: str) -> None:
        """``ctx.narrow``: AND ``term`` into the mask (or adopt it)."""
        self.row_bytes += 1
        if self.has_mask:
            self.out(f"mask = mask & {term}")
        else:
            self.out(f"mask = {term}")
            self.has_mask = True

    def fk_offsets_slice(self, fk_column: str) -> str:
        full = self.env.fk_offsets(self.db, self.pipe.table, fk_column)
        off = self.name("off")
        self.out(f"{off} = {full}[lo:lo + n]")
        return off

    def member(self, fk_column: str, state: str) -> str:
        """Membership of the FK column in a build side's key set."""
        self.row_bytes += MEMBER_ROW_BYTES
        return f"_member({self.col(fk_column)}, state[{state!r}]['keys'])"

    def key_set(self, column: str) -> str:
        """The key set of the selected values of ``column`` (both
        access styles of ``_read_keys`` produce them in row order)."""
        self.row_bytes += 8
        return f"_key_set({self.selected(self.col(column))})"

    def carried_snapshot(self, carry: Tuple[str, ...]) -> str:
        """Full-length payload columns for a build-side state entry."""
        self.reads.update(self.view_cols.intersection(carry))
        items = ", ".join(
            f"{c!r}: carried.get({c!r}, v.get({c!r}))" for c in carry
        )
        return "{" + items + "}"

    def agg_delta(self, agg, data: str, count_len: str) -> str:
        """One int64 delta column per aggregate."""
        self.row_bytes += 8
        if agg.func == "count":
            return f"np.ones({count_len}, dtype=np.int64)"
        return f"np.asarray({self.expr(agg.expr, data)}, dtype=np.int64)"

    # -- counts (instrumented programs only) -----------------------------

    def _key(self, slot: str) -> str:
        return repr((self.site, self._op, slot))

    def count(self, slot: str, src: str) -> None:
        """Add the row count ``src`` into the op's counts record."""
        if self.site is not None:
            key = self._key(slot)
            self.out(f"_counts[{key}] = _counts.get({key}, 0) + int({src})")

    def measure(self, slot: str, src: str) -> None:
        """Record the structure size ``src`` in the op's counts record."""
        if self.site is not None:
            self.out(f"_counts[{self._key(slot)}] = int({src})")

    def live(self) -> str:
        """Source for the number of rows the selection keeps."""
        return "np.count_nonzero(mask)" if self.has_mask else "n"

    def count_distinct(self, state: str) -> None:
        """Distinct keys of a hash build (its entries at completion)."""
        self.count("distinct", f"state[{state!r}]['keys'].keys.shape[0]")

    def count_distinct_of(self, slot: str, src: str) -> None:
        """Distinct values of the int column ``src``."""
        self.count(slot, f"_key_set({src}).keys.shape[0]")

    def count_groups(self) -> None:
        self.count("groups", "result['keys'].shape[0]")

    def count_hits(self, hit: str) -> None:
        """Probes that find their key, among the live rows."""
        live = f"{hit} & mask" if self.has_mask else hit
        self.count("hits", f"np.count_nonzero({live})")

    def narrow_counted(self, term: str) -> None:
        """:meth:`narrow` by ``term``, counting the rows it keeps over
        the whole block (a probe that tests every row)."""
        if self.site is not None:
            held, term = term, self.name("t")
            self.out(f"{term} = {held}")
            self.count("hits", f"np.count_nonzero({term})")
        self.narrow(term)

    # -- operators -------------------------------------------------------

    def emit_op(self, op) -> None:
        handler = _HANDLERS.get(type(op))
        if handler is None:
            raise VectorizeError(
                f"vectorized backend cannot lower {type(op).__name__}"
            )
        self.count("k", self.live())
        handler(self, op)

    def op_filter(self, op: FilterStage) -> None:
        view_conjs = [
            conj
            for conj in op.conjuncts
            if conj.columns() <= self.view_cols
        ]
        carried_conjs = [
            conj for conj in op.conjuncts if conj not in view_conjs
        ]
        prefix = None
        for i, conj in enumerate(view_conjs):
            term = _bool(self.expr(conj))
            if self.site is not None and op.mode == "branch":
                # Tuple-at-a-time code branches on each conjunct over
                # the rows its prefix kept: count those survivors.
                term, held = self.name("t"), term
                self.out(f"{term} = {held}")
                if prefix is not None:
                    held = f"{prefix} & {term}"
                    prefix = self.name("p")
                    self.out(f"{prefix} = {held}")
                else:
                    prefix = term
                self.count(f"s{i}", f"np.count_nonzero({prefix})")
            self.narrow(term)
        if carried_conjs:
            full = self.name("full")
            self.out(f"{full} = dict(v)")
            self.out(f"{full}.update(carried)")
            for j, conj in enumerate(carried_conjs):
                self.count(f"c{j}", self.live())
                self.narrow(_bool(self.expr(conj, full)))

    def op_semihash_build(self, op: SemiHashBuild) -> None:
        self.out(
            f"state[{op.state!r}] = "
            f"{{'keys': {self.key_set(op.key_column)}}}"
        )
        self.count_distinct(op.state)

    def op_join_build(self, op: JoinBuild) -> None:
        self.out(
            f"state[{op.state!r}] = {{"
            f"'keys': {self.key_set(op.key_column)}, "
            f"'carried': {self.carried_snapshot(op.carry)}, 'rows': n}}"
        )
        self.count_distinct(op.state)

    def op_group_build(self, op: GroupBuild) -> None:
        self.out(
            f"state[{op.state!r}] = "
            f"{{'keys': {self.key_set(op.key_column)}}}"
        )
        self.count_distinct(op.state)

    def op_bitmap_build(self, op: BitmapBuild) -> None:
        mask = "mask.copy()" if self.has_mask else "np.ones(n, dtype=bool)"
        self.out(
            f"state[{op.state!r}] = {{'mask': {mask}, 'rows': n, "
            f"'carried': {self.carried_snapshot(op.carry)}}}"
        )

    def op_hash_semi_probe(self, op: HashSemiProbe) -> None:
        hit = self.name("hit")
        self.out(f"{hit} = {self.member(op.fk_column, op.state)}")
        self.count_hits(hit)
        self.narrow(f"~{hit}" if op.negate else hit)

    def op_bitmap_semi_probe(self, op: BitmapSemiProbe) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        self.narrow_counted(f"state[{op.state!r}]['mask'][{off}]")

    def op_column_materialize(self, op: ColumnMaterialize) -> None:
        entry = self.name("entry")
        src = self.expr(op.expr)
        self.out(
            f"{entry} = state.setdefault("
            f"{op.state!r}, {{'columns': {{}}, 'rows': n}})"
        )
        self.out(f"{entry}['columns'][{op.column!r}] = np.asarray({src})")
        self.measure(
            "width", f"{entry}['columns'][{op.column!r}].dtype.itemsize"
        )

    def gather(self, columns, state: str, entry: str, off: str) -> None:
        """Gather build-side payload columns through the FK offsets."""
        for column in columns:
            self.row_bytes += 8
            self.out(
                f"carried[{column!r}] = "
                f"state[{state!r}][{entry!r}][{column!r}][{off}]"
            )

    def op_index_gather(self, op: IndexGather) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        self.gather(op.columns, op.state, "columns", off)

    def op_carried_gather(self, op: CarriedGather) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        self.gather(op.columns, op.state, "carried", off)
        if op.priced:
            for column in op.columns:
                self.measure(
                    f"bytes:{column}",
                    f"state[{op.state!r}]['carried'][{column!r}].nbytes",
                )

    def op_hash_join_carry_probe(self, op: HashJoinCarryProbe) -> None:
        hit = self.name("hit")
        self.out(f"{hit} = {self.member(op.fk_column, op.state)}")
        self.count_hits(hit)
        self.narrow(hit)
        off = self.fk_offsets_slice(op.fk_column)
        self.gather(op.carry, op.state, "carried", off)

    def op_exists_bitmap_build(self, op: ExistsBitmapBuild) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        probe_rows = self.db.table(op.probe_table).num_rows
        exists = self.name("exists")
        self.out(f"{exists} = np.zeros({probe_rows}, dtype=bool)")
        set_at = f"{off}[mask]" if self.has_mask else off
        self.out(f"{exists}[{set_at}] = True")
        self.out(
            f"state[{op.state!r}] = "
            f"{{'exists': {exists}, 'rows': {probe_rows}}}"
        )

    def op_exists_bitmap_probe(self, op: ExistsBitmapProbe) -> None:
        bit = self.name("bit")
        self.out(
            f"{bit} = state[{op.state!r}]['exists'][lo:lo + n]"
        )
        self.narrow_counted(f"~{bit}" if op.anti else bit)

    def op_multi_bitmap_build(self, op: MultiBitmapBuild) -> None:
        masks = ", ".join(
            _bool(self.expr(bp)) for bp in op.disjuncts
        )
        self.out(
            f"state[{op.state!r}] = {{'masks': [{masks}], 'rows': n}}"
        )

    def op_disjunct_index_probe(self, op: DisjunctIndexProbe) -> None:
        build_cols = sorted(
            set().union(*(bp.columns() for bp, _ in op.disjuncts))
        )
        build_data = self.db.data(op.state)
        table = self.env.bind(
            "_T", {c: build_data[c] for c in build_cols}
        )
        off = self.fk_offsets_slice(op.fk_column)
        rows = self.name("brows")
        items = ", ".join(f"{c!r}: {table}[{c!r}][{off}]" for c in build_cols)
        self.out(f"{rows} = {{{items}}}")
        arms = " | ".join(
            f"({_bool(self.expr(bp, rows))} & {_bool(self.expr(pp))})"
            for bp, pp in op.disjuncts
        )
        self.narrow_counted(f"({arms})")
        self.count("final", self.live())

    def op_disjunct_bitmap_probe(self, op: DisjunctBitmapProbe) -> None:
        off = self.fk_offsets_slice(op.fk_column)
        bitmaps = self.name("bitmaps")
        self.out(f"{bitmaps} = state[{op.state!r}]['masks']")
        arms = " | ".join(
            f"({bitmaps}[{i}][{off}] & {_bool(self.expr(pp))})"
            for i, (_, pp) in enumerate(op.disjuncts)
        )
        self.narrow_counted(f"({arms})")

    def op_outer_groupjoin_agg(self, op: OuterGroupJoinAgg) -> None:
        # All four aggregation modes reduce to "count the selected
        # probe rows per FK value": key masking sends unselected rows
        # to the throwaway entry and value masking adds zero deltas,
        # and the distribution tail folds absent and zero-count keys
        # into the same bucket either way.
        build_rows = self.db.table(op.build_table).num_rows
        uk, cnt = self.name("uk"), self.name("cnt")
        fks = self.selected(self.col(op.fk_column))
        self.out(
            f"{uk}, {cnt} = _count_by({fks}.astype(np.int64))"
        )
        self.count("distinct", f"{uk}.shape[0]")
        if op.mode == PS.VALUE_MASK:
            # Value masking inserts every row's key, selected or not.
            self.count_distinct_of("distinct_all", self.col(op.fk_column))
        self.out(
            f"state[{op.state!r}] = {{'keys': {uk}, 'counts': {cnt}, "
            f"'rows': {build_rows}}}"
        )

    def op_group_distribution(self, op: GroupDistribution) -> None:
        built = self.name("built")
        self.out(f"{built} = state[{op.state!r}]")
        self.out(
            f"result = _distribution({built}['counts'], "
            f"{built}['rows'] - {built}['keys'].shape[0])"
        )
        self.count_groups()
        self.has_result = True

    def op_groupjoin_agg(self, op: GroupJoinAgg) -> None:
        base_cols = [
            c
            for c in sorted(
                set().union(
                    *(
                        a.expr.columns()
                        for a in op.aggregates
                        if a.expr is not None
                    ),
                    frozenset(),
                )
            )
            if c in self.view_cols
        ]
        hit, smask, keys, sub = (
            self.name("hit"),
            self.name("smask"),
            self.name("keys"),
            self.name("sub"),
        )
        self.out(f"{hit} = {self.member(op.fk_column, op.state)}")
        self.out(
            f"{smask} = mask & {hit}" if self.has_mask else f"{smask} = {hit}"
        )
        self.count("hits", f"np.count_nonzero({smask})")
        self.out(
            f"{keys} = {self.col(op.fk_column)}[{smask}].astype(np.int64)"
        )
        items = ", ".join(
            f"{c!r}: {self.col(c)}[{smask}]" for c in base_cols
        )
        self.out(f"{sub} = {{{items}}}")
        deltas = ", ".join(
            self.agg_delta(agg, sub, f"{keys}.shape[0]")
            for agg in op.aggregates
        )
        self.out(f"result = _group({keys}, [{deltas}])")
        self.count_groups()
        self.has_result = True

    def _subset_inputs(self, cols: List[str]) -> str:
        """``sub`` dict of selected base columns plus selected carried
        values (the conditional/gathered aggregation input)."""
        sub = self.name("sub")
        items = ", ".join(
            f"{c!r}: {self.selected(self.col(c))}" for c in cols
        )
        self.out(f"{sub} = {{{items}}}")
        if self.has_mask:
            self.out(f"for _nm, _vv in carried.items(): {sub}[_nm] = _vv[mask]")
        else:
            self.out(f"for _nm, _vv in carried.items(): {sub}[_nm] = _vv")
        return sub

    def op_scalar_agg(self, op: ScalarAgg) -> None:
        base_cols = [
            c
            for c in sorted(
                set().union(
                    *(
                        a.expr.columns()
                        for a in op.aggregates
                        if a.expr is not None
                    ),
                    frozenset(),
                )
            )
            if c in self.view_cols
        ]
        self.out("result = {}")
        if op.mode == PS.VALUE_MASK:
            # §III-A: evaluate over the whole column, mask the deltas.
            # A where-reduction skips the unmasked rows without ever
            # materialising a 0/1 multiplier column; int64 addition is
            # commutative mod 2**64, so the answer is still exact.
            for agg in op.aggregates:
                if agg.func == "count":
                    count = "int(mask.sum())" if self.has_mask else "n"
                    self.out(f"result[{agg.name!r}] = {count}")
                    continue
                values = (
                    f"np.asarray({self.expr(agg.expr)}, dtype=np.int64)"
                )
                total = f"np.sum({values}, dtype=np.int64)"
                if self.has_mask:
                    total = (
                        f"np.sum({values}, dtype=np.int64, "
                        "where=mask, initial=np.int64(0))"
                    )
                self.out(f"result[{agg.name!r}] = int({total})")
        elif op.mode in (PS.CONDITIONAL, PS.GATHERED):
            sub = self._subset_inputs(base_cols)
            count = "int(mask.sum())" if self.has_mask else "n"
            k = self.name("k")
            self.out(f"{k} = {count}")
            for agg in op.aggregates:
                if agg.func == "count":
                    self.out(f"result[{agg.name!r}] = {k}")
                    continue
                self.out(
                    f"result[{agg.name!r}] = int(np.sum("
                    f"{self.agg_delta(agg, sub, k)}, dtype=np.int64))"
                )
        else:
            raise VectorizeError(
                f"unknown scalar aggregation mode {op.mode!r}"
            )
        self.has_result = True

    def op_group_agg(self, op: GroupAgg) -> None:
        base_cols = [
            c
            for c in sorted(
                set().union(
                    *(
                        a.expr.columns()
                        for a in op.aggregates
                        if a.expr is not None
                    ),
                    frozenset(),
                )
            )
            if c in self.view_cols
        ]
        if op.mode in (PS.KEY_MASK, PS.VALUE_MASK):
            # Masked modes evaluate keys and deltas over the whole
            # column (matching the instrumented error semantics), then
            # drop the masked rows: key masking blends them into the
            # throwaway entry (removed from the result) and value
            # masking zeroes their deltas and drops never-hit groups —
            # both equal to grouping only the selected rows.
            keys = self.name("keys")
            key_src = self.expr(op.key)
            self.out(f"{keys} = np.asarray({key_src}, dtype=np.int64)")
            delta_names = []
            for agg in op.aggregates:
                d = self.name("d")
                self.out(f"{d} = {self.agg_delta(agg, 'v', 'n')}")
                delta_names.append(d)
            deltas = ", ".join(delta_names)
            if self.has_mask:
                # The runtime folds the mask into the grouping itself
                # (sentinel bucket) — no per-delta subset copies.
                self.out(f"result = _group({keys}, [{deltas}], mask)")
            else:
                self.out(f"result = _group({keys}, [{deltas}])")
            if op.mode == PS.VALUE_MASK:
                # Value masking inserts every row's key, selected or not.
                self.count_distinct_of("distinct", keys)
        elif op.mode in (PS.CONDITIONAL, PS.GATHERED):
            cols = sorted(
                (set(op.key.columns()) & self.view_cols) | set(base_cols)
            )
            sub = self._subset_inputs(cols)
            count = "int(mask.sum())" if self.has_mask else "n"
            k = self.name("k")
            self.out(f"{k} = {count}")
            keys = self.name("keys")
            key_src = self.expr(op.key, sub)
            self.out(f"{keys} = np.asarray({key_src}, dtype=np.int64)")
            deltas = ", ".join(
                self.agg_delta(agg, sub, k) for agg in op.aggregates
            )
            self.out(f"result = _group({keys}, [{deltas}])")
        else:
            raise VectorizeError(
                f"unknown grouped aggregation mode {op.mode!r}"
            )
        self.count_groups()
        self.has_result = True

    def op_eager_aggregate(self, op: EagerAggregate) -> None:
        # §III-E vectorized: group the probe rows that pass the main
        # predicate by FK (unselected rows belong to the throwaway
        # entry, i.e. are dropped), then delete the keys whose build
        # row fails the build predicate. The victim set is static per
        # database, so it is computed here at compile time; the
        # deletion itself runs as the program's finalize step so morsel
        # partials stay mergeable (filter once, after the merge).
        if op.table != self.pipe.table:
            raise VectorizeError(
                "eager aggregation pipeline scans an unexpected table"
            )
        build_data = self.db.data(op.build_table)
        if op.build_conjuncts:
            keep = np.ones(
                int(next(iter(build_data.values())).shape[0]), dtype=bool
            )
            for conj in op.build_conjuncts:
                keep = keep & np.asarray(conj.evaluate(build_data), bool)
            victims = build_data[op.pk_column][~keep].astype(np.int64)
        else:
            victims = np.empty(0, dtype=np.int64)
        victim_set = key_set(victims)

        def cleanup(merged: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            keep_keys = ~member(merged["keys"], victim_set)
            return {
                "keys": merged["keys"][keep_keys],
                "aggs": merged["aggs"][keep_keys],
            }

        self.finalize = cleanup
        self.measure("deleted", str(victims.size))
        for conj in op.probe_conjuncts:
            self.narrow(_bool(self.expr(conj)))
        self.count("selected", self.live())
        keys = self.name("keys")
        self.out(f"{keys} = {self.col(op.fk_column)}.astype(np.int64)")
        delta_names = []
        for agg in op.aggregates:
            d = self.name("d")
            self.out(f"{d} = {self.agg_delta(agg, 'v', 'n')}")
            delta_names.append(d)
        deltas = ", ".join(delta_names)
        if self.has_mask:
            self.out(f"result = _group({keys}, [{deltas}], mask)")
        else:
            self.out(f"result = _group({keys}, [{deltas}])")
        self.count_groups()
        self.has_result = True

    # -- assembly --------------------------------------------------------

    def bound_view(self) -> Dict[str, np.ndarray]:
        """The view columns the emitted kernel reads — what a row block
        slices, a handful of arrays instead of the whole table. One
        column at least: the kernel takes its row count from the view.
        """
        keep = self.reads or {next(iter(self.view))}
        return {
            column: values
            for column, values in self.view.items()
            if column in keep
        }

    def emit(self, fn_name: str) -> str:
        for index, op in enumerate(self.pipe.ops):
            self._op = index
            self.emit_op(op)
        header = [
            f"def {fn_name}(v, state, lo):",
            f"    # pipeline {self.pipe.label!r} over {self.pipe.table}",
            "    n = _rows(v)",
            "    carried = {}",
        ]
        if self.site is not None:
            header.append(f"    _counts = state.setdefault({COUNTS!r}, {{}})")
        footer = ["    return result" if self.has_result else "    return None"]
        return "\n".join(header + self.lines + footer)


_HANDLERS = {
    FilterStage: _KernelEmitter.op_filter,
    SemiHashBuild: _KernelEmitter.op_semihash_build,
    JoinBuild: _KernelEmitter.op_join_build,
    GroupBuild: _KernelEmitter.op_group_build,
    BitmapBuild: _KernelEmitter.op_bitmap_build,
    MultiBitmapBuild: _KernelEmitter.op_multi_bitmap_build,
    ExistsBitmapBuild: _KernelEmitter.op_exists_bitmap_build,
    HashSemiProbe: _KernelEmitter.op_hash_semi_probe,
    HashJoinCarryProbe: _KernelEmitter.op_hash_join_carry_probe,
    BitmapSemiProbe: _KernelEmitter.op_bitmap_semi_probe,
    ExistsBitmapProbe: _KernelEmitter.op_exists_bitmap_probe,
    CarriedGather: _KernelEmitter.op_carried_gather,
    DisjunctIndexProbe: _KernelEmitter.op_disjunct_index_probe,
    DisjunctBitmapProbe: _KernelEmitter.op_disjunct_bitmap_probe,
    ColumnMaterialize: _KernelEmitter.op_column_materialize,
    IndexGather: _KernelEmitter.op_index_gather,
    GroupJoinAgg: _KernelEmitter.op_groupjoin_agg,
    OuterGroupJoinAgg: _KernelEmitter.op_outer_groupjoin_agg,
    GroupDistribution: _KernelEmitter.op_group_distribution,
    ScalarAgg: _KernelEmitter.op_scalar_agg,
    GroupAgg: _KernelEmitter.op_group_agg,
    EagerAggregate: _KernelEmitter.op_eager_aggregate,
}


#: Final-pipeline ops safe to run over a row-range morsel: they only
#: *read* shared build state (hash tables, bitmaps, carried columns) and
#: slice FK-index offsets to their row range. Excluded on purpose:
#: GroupJoinAgg and OuterGroupJoinAgg mutate the shared build hash
#: table, IndexGather predates morsel state threading (Q14 stays serial,
#: as seeded), and GroupDistribution is a whole-table pass by
#: construction (a lone EagerAggregate splits; see :func:`splittable`).
_SPLITTABLE_OPS = (
    FilterStage,
    ScalarAgg,
    GroupAgg,
    HashSemiProbe,
    BitmapSemiProbe,
    ExistsBitmapProbe,
    HashJoinCarryProbe,
    CarriedGather,
    DisjunctIndexProbe,
    DisjunctBitmapProbe,
)


def splittable(physical: PhysicalPlan) -> bool:
    """Whether the final pipeline's kernel may run over row ranges —
    the one morsel predicate.

    Build pipelines run once in the program's setup; the final pipeline
    splits when every op is in :data:`_SPLITTABLE_OPS`, or when it is a
    lone eager aggregation: partials are plain grouped dicts (no
    hash-table state), and the victim-key cleanup runs once as the
    program's finalize step. Interpreted plans stay serial, matching
    the Volcano baseline.
    """
    if physical.interpreted:
        return False
    final_ops = physical.pipelines[-1].ops
    if len(final_ops) == 1 and isinstance(final_ops[0], EagerAggregate):
        return True
    return all(isinstance(op, _SPLITTABLE_OPS) for op in final_ops)


def compile_physical(
    physical: PhysicalPlan,
    db: Database,
    name: str = "query",
    registry=None,
    counting: bool = False,
) -> VectorizedProgram:
    """Generate, ``exec``, and wrap one kernel per pipeline.

    ``registry`` is where a later native build of the program reports
    (default: the process-wide registry). ``counting`` is the
    instrumented backend's program: the kernels also count what they
    do into ``state[COUNTS]`` (what :func:`repro.codegen.price.price`
    turns into events), run each pipeline as one block and stay on
    NumPy."""
    env = _Env()
    sources: List[str] = [
        f"# vectorized kernels for {name} [{physical.strategy}]",
    ]
    emitters: List[_KernelEmitter] = []
    finalize = None
    for idx, pipe in enumerate(physical.pipelines):
        emitter = _KernelEmitter(pipe, db, env, idx if counting else None)
        sources.append(emitter.emit(f"_kernel_{idx}"))
        emitters.append(emitter)
        if emitter.finalize is not None:
            finalize = emitter.finalize
    source = "\n\n".join(sources) + "\n"
    code = compile(source, f"<vectorized:{name}>", "exec")
    namespace = env.bindings
    exec(code, namespace)  # noqa: S102 - the source is generated above
    kernels = [
        (emitter.pipe, namespace[f"_kernel_{idx}"])
        for idx, emitter in enumerate(emitters)
    ]
    split = splittable(physical) and not counting
    return VectorizedProgram(
        kernels,
        [emitter.bound_view() for emitter in emitters],
        source,
        finalize=finalize,
        row_bytes=emitters[-1].row_bytes if split else None,
        fk_offsets=env.fk_bound(physical.pipelines[-1].table),
        cache_dir=getattr(db, "dataset_cache_dir", None),
        registry=registry,
        label=f"{name}[{physical.strategy}]",
        tier="counting" if counting else "numpy",
    )


__all__ = [
    "COUNTS",
    "VectorizeError",
    "compile_expr",
    "compile_physical",
    "splittable",
]
