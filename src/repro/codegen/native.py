"""Native tier: C kernels for hot programs, built out of band.

A second emitter over the *same* :class:`~repro.plan.physical.Pipeline`
the NumPy emitter (:mod:`repro.codegen.vectorize`) lowers: the final
pipeline of a program becomes one C function, a fused loop over the
bound view with no temporaries. This is the first backend on which the
strategies execute different instruction streams —

=======================================  ================================
physical op                              C
=======================================  ================================
``FilterStage[branch]``                  one nested ``if`` per conjunct
                                         (``&&`` inside a conjunct)
``FilterStage[prepass]``                 a 0/1 mask ``m``, ANDed with ``&``
``BitmapSemiProbe``/``ExistsBitmapProbe``  ``m &= bits[off[i]]`` / ``bits[i]``
``IndexGather``/``CarriedGather``        a positional read ``s[off[i]]``
                                         wherever the column is used
``ScalarAgg``/``GroupAgg`` conditional,  ``if (m) { acc += expr; }``
gathered
... ``value_mask``                       ``acc += -m & expr`` (no branch)
... ``key_mask``                         ``k = m ? key : G`` — unselected
                                         rows add into a throwaway row
=======================================  ================================

— specialised on the dtypes of the arrays it will be handed (narrow
codes are widened in registers, never in memory), with every sum in
``uint64_t`` so it wraps exactly like the int64 NumPy path. Grouping is
dense only: one call finds the key range, a second accumulates into a
``(spread + 2) x (aggregates + 1)`` table the caller allocated (the last
column counts selected rows, the last row is the throwaway one), so C
allocates nothing. The result is shaped exactly like the NumPy kernel's
partial; merging, finalize, morsel threads and shard workers never see
the difference.

Whatever the emitter does not cover raises :class:`NativeDecline` and
the program stays on its NumPy kernel for good. So does every failure —
no compiler, a non-zero exit, a deadline, an unloadable ``.so`` — with
one :class:`~repro.obs.ErrorLog` entry and no second attempt for that
source in this process.

Safety the NumPy path has for free is kept by hand: identifiers in the
C text are positional (``c0``, ``off0``, ``s0``) and constants integer
literals, so no column or table name is ever pasted into C; every array
is checked C-contiguous and of the dtype the source was specialised on
before its pointer is taken; gathers are bounds-checked against the FK
offsets' range before the call. A check that fails sends *that call* to
the NumPy kernel, which raises what it always raised.

Builds follow a ski-rental rule (:class:`NativeBuilder`): a program is
handed to the one builder thread only once it has spent as long in its
NumPy kernel as a build is estimated to take, so compiling never costs
more CPU than the program has already spent running.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import numpy.ctypeslib as npct

from ..errors import PlanError
from ..obs import MetricsRegistry, metrics_registry
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
    BitmapSemiProbe,
    CarriedGather,
    ExistsBitmapProbe,
    FilterStage,
    GroupAgg,
    IndexGather,
    Pipeline,
    ScalarAgg,
)
from .common import dense_spread_limit, table_rows

#: Flags every kernel is built with (part of the cache key). No
#: ``-march=native``: the cache directory may outlive the host.
CC_FLAGS = ("-O3", "-shared", "-fPIC")

#: The builder's estimate of one build before it has observed any.
BUILD_SEED_SECONDS = 0.05

#: A compiler still running after this long is killed.
BUILD_DEADLINE_SECONDS = 30.0

#: A build's private temp directory: ``.<first 16 hex digits of the
#: key>-<random suffix>`` (see :meth:`NativeBuilder._compile`).
_BUILD_TEMP_DIR = re.compile(r"\.[0-9a-f]{16}-")


class NativeDecline(PlanError):
    """The C emitter does not cover this pipeline (the program stays on
    its NumPy kernel; the message is the recorded reason)."""


def find_compiler() -> Optional[str]:
    """Path of the C compiler, ``None`` when the host has none."""
    return shutil.which("cc")


# -- emitter ---------------------------------------------------------------

_C_TYPES = {
    np.dtype(np.int8): "int8_t",
    np.dtype(np.int16): "int16_t",
    np.dtype(np.int32): "int32_t",
    np.dtype(np.int64): "int64_t",
    np.dtype(np.bool_): "uint8_t",
}
_ARITH_SYMBOL = {"add": "+", "sub": "-", "mul": "*"}
_BOOL = np.dtype(np.bool_)
_INT64 = np.dtype(np.int64)

#: Column scopes, mirroring the NumPy emitter: its ``v`` (the view
#: alone) and its ``sub`` / ``full`` dicts (gathered columns shadow the
#: view's).
_VIEW, _FULL = "view", "full"

_MASKED = (PS.KEY_MASK, PS.VALUE_MASK)
_SELECTED = (PS.CONDITIONAL, PS.GATHERED)


@dataclass(frozen=True)
class _Arg:
    """One pointer parameter: which array to pass and what it must be."""

    kind: str  # "col" | "off" | "gather" | "positional"
    key: Any  # view column | FK column | path into the state dict
    dtype: np.dtype
    via: str = ""  # gather: the FK column whose offsets index it


@dataclass(frozen=True)
class NativeSource:
    """The C text of one kernel and how to call it."""

    text: str
    args: Tuple[_Arg, ...]
    #: Scalar kernels: the aggregate names, in output order.
    scalar_names: Optional[Tuple[str, ...]]
    #: Grouped kernels: the number of aggregates per group.
    group_aggs: int = 0


def _unsigned(value: int) -> str:
    """``value`` as the ``uint64_t`` literal of its two's complement."""
    if not -(2**63) <= value < 2**63:
        raise NativeDecline("constant outside int64")
    return f"UINT64_C({value % 2**64})"


def _signed(value: int) -> str:
    if not -(2**63) <= value < 2**63:
        raise NativeDecline("constant outside int64")
    if value == -(2**63):
        return "(-INT64_C(9223372036854775807) - 1)"
    return f"INT64_C({value})"


def _is_truth(expr: Expr) -> bool:
    """Whether the NumPy form of ``expr`` is a boolean array."""
    if isinstance(expr, (Compare, InSet, StrMatch)):
        return True
    if isinstance(expr, (And, Or)):
        return all(_is_truth(term) for term in expr.terms)
    return False


def _walk(state: Dict[str, Any], path: Tuple[str, ...]) -> Any:
    """``state[path[0]][path[1]]...``, ``None`` where it ends early."""
    node: Any = state
    for step in path:
        if not isinstance(node, dict):
            return None
        node = node.get(step)
    return node


class _CEmitter:
    """Writes the C function for one final pipeline."""

    def __init__(
        self,
        pipe: Pipeline,
        view: Dict[str, np.ndarray],
        fk_offsets: Dict[str, np.ndarray],
        state: Dict[str, Any],
    ) -> None:
        self.pipe = pipe
        self.view = view
        self.fk_offsets = fk_offsets
        self.state = state
        self.args: List[_Arg] = []
        self.params: List[str] = []
        self._idents: Dict[Tuple[str, Any, str], str] = {}
        self._counts: Dict[str, int] = {}
        #: Gathered column -> (C rvalue at row ``i``, dtype).
        self.carried: Dict[str, Tuple[str, np.dtype]] = {}
        self.body: List[str] = []
        self.depth = 0
        self.has_mask = False

    # -- parameters ------------------------------------------------------

    def param(
        self, kind: str, key: Any, array: Any, via: str = ""
    ) -> str:
        """The positional C identifier of one input array."""
        # A gathered array is one parameter per FK column it is read
        # through: each carries its own bounds check.
        ident = self._idents.get((kind, key, via))
        if ident is not None:
            return ident
        if not isinstance(array, np.ndarray) or array.ndim != 1:
            raise NativeDecline(f"{kind} input is not a 1-D array")
        ctype = _C_TYPES.get(array.dtype)
        if ctype is None or (kind == "off" and array.dtype != _INT64):
            raise NativeDecline(f"dtype {array.dtype} of a {kind} input")
        stem = {"col": "c", "off": "off"}.get(kind, "s")
        index = self._counts.get(stem, 0)
        self._counts[stem] = index + 1
        ident = self._idents[(kind, key, via)] = f"{stem}{index}"
        self.args.append(_Arg(kind, key, array.dtype, via))
        self.params.append(f"const {ctype} *{ident}")
        return ident

    def offsets(self, fk_column: str) -> str:
        array = self.fk_offsets.get(fk_column)
        if array is None:
            raise NativeDecline("no FK offsets bound for a gather")
        return self.param("off", fk_column, array)

    def gathered(self, path: Tuple[str, ...], fk_column: str):
        """``(C rvalue, dtype)`` of ``state[path]`` read through the FK
        offsets of ``fk_column``."""
        off = self.offsets(fk_column)
        array = _walk(self.state, path)
        ident = self.param("gather", path, array, via=fk_column)
        return f"{ident}[{off}[i]]", array.dtype

    def read(self, column: str, scope: str) -> Tuple[str, np.dtype]:
        if scope == _FULL and column in self.carried:
            return self.carried[column]
        array = self.view.get(column)
        if array is None:
            raise NativeDecline(f"column {column!r} not bound in scope")
        return f"{self.param('col', column, array)}[i]", array.dtype

    # -- expressions -----------------------------------------------------

    def value(self, expr: Expr, scope: str) -> str:
        """``expr`` as a ``uint64_t`` (int64 bits, wrapping) rvalue."""
        if isinstance(expr, Col):
            rvalue, dtype = self.read(expr.name, scope)
            widen = "" if dtype == _BOOL else "(int64_t)"
            return f"(uint64_t){widen}{rvalue}"
        if isinstance(expr, Const):
            return _unsigned(expr.value)
        if isinstance(expr, Arith):
            if expr.op == "div":
                raise NativeDecline("Arith div")
            for side in (expr.left, expr.right):
                # NumPy adds two boolean *scalars* as a logical or.
                if _is_truth(side) and not side.columns():
                    raise NativeDecline("constant boolean operand")
            left = self.value(expr.left, scope)
            right = self.value(expr.right, scope)
            return f"({left} {_ARITH_SYMBOL[expr.op]} {right})"
        if _is_truth(expr):
            return f"(uint64_t){self.truth(expr, scope)}"
        raise NativeDecline(f"bound expression {type(expr).__name__}")

    def signed(self, expr: Expr, scope: str) -> str:
        """``expr`` as an ``int64_t`` rvalue (comparison operand)."""
        if isinstance(expr, Col):
            return f"(int64_t){self.read(expr.name, scope)[0]}"
        if isinstance(expr, Const):
            return _signed(expr.value)
        return f"(int64_t){self.value(expr, scope)}"

    def truth(self, expr: Expr, scope: str, branch: bool = False) -> str:
        """``expr`` as a 0/1 ``int`` rvalue; ``branch`` joins boolean
        terms with short-circuit operators (a branch each) instead of
        bitwise ones."""
        if isinstance(expr, Compare):
            left = self.signed(expr.left, scope)
            right = self.signed(expr.right, scope)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, (And, Or)):
            if not _is_truth(expr):
                raise NativeDecline("bitwise and/or of integers")
            symbol = "&" if isinstance(expr, And) else "|"
            return "(" + f" {symbol * (1 + branch)} ".join(
                self.truth(term, scope, branch) for term in expr.terms
            ) + ")"
        if isinstance(expr, InSet):
            if not expr.values:
                return "0"
            child = self.signed(expr.child, scope)
            return "(" + (" || " if branch else " | ").join(
                f"({child} == {_signed(member)})" for member in expr.values
            ) + ")"
        if isinstance(expr, StrMatch):
            rvalue, _ = self.read(expr.flag_column, scope)
            return f"({rvalue} {'==' if expr.negated else '!='} 0)"
        return f"({self.signed(expr, scope)} != 0)"

    # -- per-row statements ----------------------------------------------

    def line(self, text: str) -> None:
        self.body.append("    " * (2 + self.depth) + text)

    def open_if(self, condition: str) -> None:
        self.line(f"if ({condition}) {{")
        self.depth += 1

    def narrow(self, term: str) -> None:
        if self.has_mask:
            self.line(f"m &= (uint64_t){term};")
        else:
            self.line(f"uint64_t m = (uint64_t){term};")
            self.has_mask = True

    def close(self) -> str:
        while self.depth:
            self.depth -= 1
            self.line("}")
        return "\n".join(self.body)

    # -- operators -------------------------------------------------------

    def op_filter(self, op: FilterStage) -> None:
        if op.mode not in ("branch", "prepass"):
            raise NativeDecline("unknown filter mode")
        view_cols = frozenset(self.view)
        for conj in op.conjuncts:
            scope = _VIEW if conj.columns() <= view_cols else _FULL
            if op.mode == "branch":
                self.open_if(self.truth(conj, scope, branch=True))
            else:
                self.narrow(self.truth(conj, scope))

    def op_bitmap_semi_probe(self, op: BitmapSemiProbe) -> None:
        rvalue, dtype = self.gathered((op.state, "mask"), op.fk_column)
        if dtype != _BOOL:
            raise NativeDecline(f"dtype {dtype} of a bitmap")
        self.narrow(rvalue)

    def op_exists_bitmap_probe(self, op: ExistsBitmapProbe) -> None:
        path = (op.state, "exists")
        array = _walk(self.state, path)
        ident = self.param("positional", path, array)
        if array.dtype != _BOOL:
            raise NativeDecline(f"dtype {array.dtype} of a bitmap")
        self.narrow(f"!{ident}[i]" if op.anti else f"{ident}[i]")

    def op_index_gather(self, op: IndexGather) -> None:
        for column in op.columns:
            self.carried[column] = self.gathered(
                (op.state, "columns", column), op.fk_column
            )

    def op_carried_gather(self, op: CarriedGather) -> None:
        for column in op.columns:
            self.carried[column] = self.gathered(
                (op.state, "carried", column), op.fk_column
            )

    def deltas(self, aggregates, scope: str) -> List[Optional[str]]:
        """One ``uint64_t`` rvalue per aggregate; ``None`` for a count."""
        if not aggregates:
            raise NativeDecline("no aggregates")
        return [
            None if agg.func == "count" else self.value(agg.expr, scope)
            for agg in aggregates
        ]

    def op_scalar_agg(self, op: ScalarAgg) -> str:
        if op.mode == PS.VALUE_MASK:
            deltas = self.deltas(op.aggregates, _VIEW)
            one = "m" if self.has_mask else "1"
            keep = "-m & " if self.has_mask else ""
            for j, delta in enumerate(deltas):
                self.line(
                    f"a{j} += {one};" if delta is None
                    else f"a{j} += {keep}{delta};"
                )
        elif op.mode in _SELECTED:
            deltas = self.deltas(op.aggregates, _FULL)
            if self.has_mask:
                self.open_if("m")
            for j, delta in enumerate(deltas):
                self.line(f"a{j} += {'1' if delta is None else delta};")
        else:
            raise NativeDecline("unknown scalar aggregation mode")
        n_aggs = len(deltas)
        accumulators = ", ".join(f"a{j} = 0" for j in range(n_aggs))
        stores = "\n".join(
            f"    out[{j}] = (int64_t)a{j};" for j in range(n_aggs)
        )
        return (
            f"int64_t kernel({self.signature('int64_t *out')})\n"
            "{\n"
            f"    uint64_t {accumulators};\n"
            "    for (int64_t i = 0; i < n; i++) {\n"
            f"{self.close()}\n"
            "    }\n"
            f"{stores}\n"
            "    return 0;\n"
            "}\n"
        )

    def op_group_agg(self, op: GroupAgg) -> str:
        if op.mode in _MASKED:
            scope = _VIEW
        elif op.mode in _SELECTED:
            scope = _FULL
        else:
            raise NativeDecline("unknown grouped aggregation mode")
        key = self.value(op.key, scope)
        deltas = self.deltas(op.aggregates, scope)
        width = len(deltas) + 1  # the last column counts selected rows
        masked = self.has_mask
        if op.mode in _SELECTED and masked:
            self.open_if("m")
        if op.mode == PS.KEY_MASK and masked:
            # §III-B: unselected rows add into the throwaway row.
            self.line(f"const uint64_t k = m ? {key} - base : spread + 1;")
            self.line("if (k > spread + 1) return 2;")
        else:
            self.line(f"const uint64_t k = {key} - base;")
            self.line("if (k > spread) return 2;")
        self.line(f"uint64_t *t = table + k * {width};")
        keep = "-m & " if op.mode == PS.VALUE_MASK and masked else ""
        one = "m" if keep else "1"
        for j, delta in enumerate(deltas):
            self.line(
                f"t[{j}] += {one};" if delta is None
                else f"t[{j}] += {keep}{delta};"
            )
        self.line(f"t[{width - 1}] += {one};")
        return (
            "int64_t kernel("
            f"{self.signature('int64_t *range', 'uint64_t *table')})\n"
            "{\n"
            "    if (table == NULL) {\n"
            "        int64_t lo = INT64_MAX, hi = INT64_MIN;\n"
            "        for (int64_t i = 0; i < n; i++) {\n"
            f"            const int64_t k = (int64_t){key};\n"
            "            if (k < lo) lo = k;\n"
            "            if (k > hi) hi = k;\n"
            "        }\n"
            "        range[0] = lo;\n"
            "        range[1] = hi;\n"
            "        return 0;\n"
            "    }\n"
            "    const uint64_t base = (uint64_t)range[0];\n"
            "    const uint64_t spread = (uint64_t)range[1] - base;\n"
            "    for (int64_t i = 0; i < n; i++) {\n"
            f"{self.close()}\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )

    # -- assembly --------------------------------------------------------

    def signature(self, *outputs: str) -> str:
        return ", ".join(["int64_t n", *self.params, *outputs])

    def emit(self) -> NativeSource:
        *stream, terminal = self.pipe.ops
        for op in stream:
            handler = _STREAM_OPS.get(type(op))
            if handler is None:
                raise NativeDecline(f"op {type(op).__name__}")
            handler(self, op)
        if isinstance(terminal, ScalarAgg):
            function = self.op_scalar_agg(terminal)
            names = tuple(agg.name for agg in terminal.aggregates)
            group_aggs = 0
        elif isinstance(terminal, GroupAgg):
            function = self.op_group_agg(terminal)
            names = None
            group_aggs = len(terminal.aggregates)
        else:
            raise NativeDecline(f"op {type(terminal).__name__}")
        ops = " ".join(type(op).__name__ for op in self.pipe.ops)
        text = (
            f"/* native kernel: {ops} */\n"
            "#include <stddef.h>\n"
            "#include <stdint.h>\n\n"
            f"{function}"
        )
        return NativeSource(text, tuple(self.args), names, group_aggs)


_STREAM_OPS = {
    FilterStage: _CEmitter.op_filter,
    BitmapSemiProbe: _CEmitter.op_bitmap_semi_probe,
    ExistsBitmapProbe: _CEmitter.op_exists_bitmap_probe,
    IndexGather: _CEmitter.op_index_gather,
    CarriedGather: _CEmitter.op_carried_gather,
}


def emit_native(
    pipe: Pipeline,
    view: Dict[str, np.ndarray],
    fk_offsets: Dict[str, np.ndarray],
    state: Dict[str, Any],
) -> NativeSource:
    """The C kernel for final pipeline ``pipe``, specialised on the
    dtypes of ``view`` and of the ``state`` its build pipelines left;
    raises :class:`NativeDecline` for anything it does not cover."""
    return _CEmitter(pipe, view, fk_offsets, state).emit()


# -- the loaded kernel -----------------------------------------------------


def _usable(array: Any, dtype: np.dtype) -> bool:
    return (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.ndim == 1
        and array.flags.c_contiguous
    )


class NativeKernel:
    """A loaded C kernel behind the checks that make calling it safe.

    ``kernel(view, state, lo)`` returns what the NumPy kernel returns
    for the same arguments, or ``None`` when this call must take the
    NumPy kernel instead (counted by reason in ``fallbacks``): an array
    of another dtype or layout than the source was specialised on
    (``"layout"``), a gather whose offsets could leave its array
    (``"bounds"``), a key spread past the dense-grouping bound
    (``"spread"``).
    """

    def __init__(
        self,
        function: Any,
        source: NativeSource,
        fk_offsets: Dict[str, np.ndarray],
    ) -> None:
        self.source = source
        self._function = function
        function.restype = ctypes.c_int64
        outputs = 1 if source.scalar_names is not None else 2
        function.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * (
            len(source.args) + outputs
        )
        #: FK column -> (offsets, address, least, greatest): the bounds
        #: are checked once here, against each gathered array's length
        #: on every call.
        self._offsets: Dict[str, Tuple[np.ndarray, int, int, int]] = {}
        for arg in source.args:
            if arg.kind != "off":
                continue
            offsets = fk_offsets[arg.key]
            if not _usable(offsets, _INT64):
                raise NativeDecline("FK offsets are not contiguous int64")
            least, greatest = (
                (int(offsets.min()), int(offsets.max()))
                if offsets.size
                else (0, -1)
            )
            self._offsets[arg.key] = (
                offsets, offsets.ctypes.data, least, greatest
            )
        self.fallbacks: Dict[str, int] = {}
        self._fallbacks_lock = threading.Lock()

    def _decline_call(self, reason: str) -> None:
        with self._fallbacks_lock:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        return None

    def __call__(
        self, view: Dict[str, np.ndarray], state: Dict[str, Any], lo: int
    ) -> Optional[Dict[str, Any]]:
        n = table_rows(view)
        call: List[Any] = [n]
        for arg in self.source.args:
            if arg.kind == "col":
                array = view.get(arg.key)
                if not _usable(array, arg.dtype) or array.shape[0] != n:
                    return self._decline_call("layout")
                call.append(array.ctypes.data)
            elif arg.kind == "off":
                offsets, address, _, _ = self._offsets[arg.key]
                if lo < 0 or lo + n > offsets.shape[0]:
                    return self._decline_call("bounds")
                call.append(address + lo * 8)
            else:
                array = _walk(state, arg.key)
                if not _usable(array, arg.dtype):
                    return self._decline_call("layout")
                if arg.kind == "gather":
                    _, _, least, greatest = self._offsets[arg.via]
                    if least < 0 or greatest >= array.shape[0]:
                        return self._decline_call("bounds")
                    call.append(array.ctypes.data)
                else:
                    if lo < 0 or lo + n > array.shape[0]:
                        return self._decline_call("bounds")
                    call.append(array.ctypes.data + lo * arg.dtype.itemsize)
        if self.source.scalar_names is not None:
            return self._scalar(call)
        return self._grouped(call, n)

    def _scalar(self, call: List[Any]) -> Dict[str, Any]:
        names = self.source.scalar_names
        out = np.empty(len(names), dtype=np.int64)
        self._function(*call, out.ctypes.data)
        return {name: int(total) for name, total in zip(names, out)}

    def _grouped(
        self, call: List[Any], n: int
    ) -> Optional[Dict[str, Any]]:
        n_aggs = self.source.group_aggs
        if n == 0:
            return {
                "keys": np.empty(0, dtype=np.int64),
                "aggs": np.zeros((0, n_aggs), dtype=np.int64),
            }
        key_range = np.empty(2, dtype=np.int64)
        self._function(*call, key_range.ctypes.data, None)
        base = int(key_range[0])
        spread = int(key_range[1]) - base
        if spread > dense_spread_limit(n):
            return self._decline_call("spread")
        table = np.zeros((spread + 2, n_aggs + 1), dtype=np.int64)
        status = self._function(
            *call, key_range.ctypes.data, table.ctypes.data
        )
        if status:
            return self._decline_call("spread")
        present = np.flatnonzero(table[: spread + 1, n_aggs])
        return {
            "keys": present + np.int64(base),
            "aggs": np.ascontiguousarray(table[present, :n_aggs]),
        }


# -- the builder -----------------------------------------------------------


class NativeBuilder:
    """The process's one builder: source -> ``.so`` -> loaded kernel.

    Programs arrive through :meth:`submit` once they have earned a
    build and are served by a one-thread executor (its thread starts on
    the first submit), so at most one compiler runs at a time; queued
    builds finish before the interpreter exits. ``estimate`` is
    the ski-rental threshold: :data:`BUILD_SEED_SECONDS` until a build
    has been observed, then the mean of the observed ones.

    A kernel lives at ``<cache dir>/native/<key>.so`` beside the kept
    ``<key>.c`` and ``<key>.log``, where ``key`` digests the source, the
    compiler's ``--version`` and the flags; it only ever appears there
    by atomic rename of a file compiled in a private temp directory, so
    two processes building the same key cannot hand each other half a
    file. What became of each source — a loaded library or a failure —
    is remembered for the life of the process: a source is built, or
    fails, once.

    A process killed mid-compile leaves its temp directory behind; the
    first build into a directory removes the ones older than
    :data:`BUILD_DEADLINE_SECONDS` (a live build's is younger: its
    compiler is killed by then).

    ``parked`` keeps :meth:`submit` from accepting work (programs stay
    on NumPy); :meth:`build` still runs synchronously when called.
    """

    def __init__(self) -> None:
        self.parked = False
        self._lock = threading.Lock()
        #: Held for the whole of :meth:`build`: one compiler at a time,
        #: whoever asks.
        self._build_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            1, thread_name_prefix="native-builder"
        )
        #: Submitted builds not yet started.
        self._queued = 0
        self._compiler_ids: Dict[str, str] = {}
        #: sha256(source) -> (tier, loaded function or None).
        self._outcomes: Dict[str, Tuple[str, Any]] = {}
        self._build_seconds = 0.0
        self._builds = 0
        self._programs: "weakref.WeakSet" = weakref.WeakSet()
        #: Directories built into, whose stale temp directories are gone.
        self._swept: set = set()

    @property
    def estimate(self) -> float:
        """Seconds one build is expected to cost."""
        if not self._builds:
            return BUILD_SEED_SECONDS
        return self._build_seconds / self._builds

    def track(self, program: Any) -> None:
        """List ``program``'s tier in :meth:`snapshot` while it lives."""
        with self._lock:
            self._programs.add(program)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view for the ``stats`` op: the estimate and every
        live program's tier."""
        with self._lock:
            programs = list(self._programs)
            builds = self._builds
            queued = self._queued
        return {
            "estimate_seconds": self.estimate,
            "builds": builds,
            "queued": queued,
            "programs": sorted(
                f"{program.label}: {program.tier}" for program in programs
            ),
            "call_fallbacks": sum(
                sum(program.native.fallbacks.values())
                for program in programs
                if program.native is not None
            ),
        }

    # -- hand-off --------------------------------------------------------

    def submit(self, program: Any, state: Dict[str, Any]) -> bool:
        """Queue ``program`` for the builder thread; ``False`` (and
        nothing queued) while the builder is parked."""
        if self.parked:
            return False
        with self._lock:
            self._queued += 1
        self._executor.submit(self._serve, program, state)
        return True

    def _serve(self, program: Any, state: Dict[str, Any]) -> None:
        with self._lock:
            self._queued -= 1
        try:
            self.build(program, state)
        except Exception as exc:
            # build() turns every expected failure into a tier; this is
            # a bug. The executor would keep it in a future nobody
            # reads, so log it and leave the program on NumPy.
            (program.registry or metrics_registry()).error_log.record(
                "native.build", f"unexpected: {exc!r}"
            )
            program.publish(f"failed: {exc!r}", None)

    # -- one build -------------------------------------------------------

    def build(self, program: Any, state: Dict[str, Any]) -> str:
        """Emit, build (or find) and load ``program``'s kernel, publish
        it on the program, and return the program's new tier. Every
        expected failure ends here: the program stays on NumPy with the
        reason as its tier."""
        registry = program.registry or metrics_registry()
        with self._build_lock:
            outcome, tier, kernel = self._resolve(program, state, registry)
        registry.counter("native_builds_total", outcome=outcome).inc()
        program.publish(tier, kernel)
        return tier

    def _resolve(
        self, program: Any, state: Dict[str, Any], registry: MetricsRegistry
    ) -> Tuple[str, str, Optional[NativeKernel]]:
        """``(outcome, tier, kernel)`` of one build."""
        try:
            source = emit_native(
                program.final_pipe, program.data[-1],
                program.fk_offsets, state,
            )
            digest = hashlib.sha256(source.text.encode()).hexdigest()
            known = self._outcomes.get(digest)
            if known is not None:
                outcome, (tier, function) = "reused", known
            else:
                outcome, tier, function = self._materialise(
                    source.text, digest, program.cache_dir, registry
                )
                self._outcomes[digest] = (tier, function)
            kernel = (
                None if function is None
                else NativeKernel(function, source, program.fk_offsets)
            )
        except NativeDecline as exc:
            return "declined", f"declined: {exc}", None
        return outcome, tier, kernel

    def _materialise(
        self,
        text: str,
        digest: str,
        cache_dir: Optional[str],
        registry: MetricsRegistry,
    ) -> Tuple[str, str, Any]:
        """``(outcome, tier, function)`` for a source not seen before
        in this process."""

        def failed(outcome: str, detail: str, **fields: Any):
            registry.error_log.record(
                "native.build", f"{outcome}: {detail}",
                source_sha256=digest, **fields,
            )
            return outcome, f"failed: {detail}", None

        compiler = find_compiler()
        if compiler is None:
            return failed("no_compiler", "no C compiler on PATH")
        log: Optional[Path] = None
        try:
            identity = self._compiler_id(compiler)
            key = hashlib.sha256(
                "\0".join((text, identity, *CC_FLAGS)).encode()
            ).hexdigest()
            directory = _native_dir(cache_dir)
            directory.mkdir(parents=True, exist_ok=True)
            if directory not in self._swept:
                self._swept.add(directory)
                _sweep_stale_builds(directory)
            library = directory / f"{key}.so"
            log = directory / f"{key}.log"
            outcome = "cached"
            if not library.exists():
                outcome = "built"
                if self._compile(compiler, text, directory, key) != 0:
                    return failed("compile_failed", str(log), log=str(log))
        except subprocess.TimeoutExpired:
            return failed(
                "timeout",
                f"compiler killed after {BUILD_DEADLINE_SECONDS:g} s ({log})",
                log=str(log),  # None: it was ``--version`` that hung
            )
        except (OSError, subprocess.SubprocessError) as exc:
            return failed("os_error", f"{type(exc).__name__}: {exc}")
        try:
            function = npct.load_library(library.name, str(directory)).kernel
        except (OSError, AttributeError) as exc:
            # Truncated, foreign, or for another platform.
            return failed(
                "unloadable", f"{library}: {exc}", library=str(library)
            )
        return outcome, "native", function

    def _compiler_id(self, compiler: str) -> str:
        identity = self._compiler_ids.get(compiler)
        if identity is None:
            identity = self._compiler_ids[compiler] = subprocess.run(
                [compiler, "--version"],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=BUILD_DEADLINE_SECONDS, check=True,
            ).stdout
        return identity

    def _compile(
        self, compiler: str, text: str, directory: Path, key: str
    ) -> int:
        """Compile ``text`` in a private temp directory and rename the
        ``.so`` into ``directory`` on success; the ``.c`` and the
        compiler's ``.log`` are kept there whatever happens. Returns
        the compiler's exit status."""
        work = Path(tempfile.mkdtemp(prefix=f".{key[:16]}-", dir=directory))
        try:
            source = directory / f"{key}.c"
            (work / "kernel.c").write_text(text)
            os.replace(work / "kernel.c", source)
            started = perf_counter()
            try:
                with open(work / "kernel.log", "w") as log_file:
                    status = subprocess.run(
                        [compiler, *CC_FLAGS,
                         "-o", str(work / "kernel.so"), str(source)],
                        stdin=subprocess.DEVNULL, stdout=log_file,
                        stderr=subprocess.STDOUT,
                        timeout=BUILD_DEADLINE_SECONDS,
                    ).returncode
            finally:
                os.replace(work / "kernel.log", directory / f"{key}.log")
            with self._lock:
                self._build_seconds += perf_counter() - started
                self._builds += 1
            if status == 0:
                os.replace(work / "kernel.so", directory / f"{key}.so")
            return status
        finally:
            shutil.rmtree(work, ignore_errors=True)


def _sweep_stale_builds(directory: Path) -> None:
    """Remove the build temp directories in ``directory`` last touched
    more than :data:`BUILD_DEADLINE_SECONDS` ago."""
    cutoff = time() - BUILD_DEADLINE_SECONDS
    for entry in directory.iterdir():
        if not _BUILD_TEMP_DIR.match(entry.name):
            continue
        try:
            stale = entry.is_dir() and entry.stat().st_mtime < cutoff
        except OSError:  # gone already: another process swept it
            continue
        if stale:
            shutil.rmtree(entry, ignore_errors=True)


def _native_dir(cache_dir: Optional[str]) -> Path:
    """``native/`` under the dataset cache the database came from (the
    default cache directory for a database built in memory)."""
    if cache_dir is None:
        from ..datagen.cache import default_cache_dir

        return default_cache_dir() / "native"
    return Path(cache_dir) / "native"


_BUILDER = NativeBuilder()


def builder() -> NativeBuilder:
    """The process-wide builder."""
    return _BUILDER


__all__ = [
    "BUILD_DEADLINE_SECONDS",
    "BUILD_SEED_SECONDS",
    "CC_FLAGS",
    "NativeBuilder",
    "NativeDecline",
    "NativeKernel",
    "NativeSource",
    "builder",
    "emit_native",
    "find_compiler",
]
