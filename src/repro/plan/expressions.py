"""Scalar expression IR for logical plans.

Expressions are built over the columns of a single stream (a join that
needs build-side columns carries them into the probe stream first).
Every node can:

* report the columns it touches (``columns()``) — the input to access
  merging, which fires when a column is referenced by both the predicate
  and an aggregate;
* evaluate itself over raw NumPy arrays (``evaluate``) — used by the
  reference interpreter and by strategies after they have accounted the
  reads themselves;
* pretty-print as C (``to_c``) — used by the code emitters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Sequence, Tuple, Union

import numpy as np

from ..errors import PlanError

#: Comparison operators accepted by :class:`Compare`.
COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")
#: Arithmetic operators accepted by :class:`Arith`.
ARITH_OPS = ("add", "sub", "mul", "div")
_ARITH_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


class Expr:
    """Base class for expression nodes."""

    def columns(self) -> FrozenSet[str]:
        raise NotImplementedError

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def to_c(self) -> str:
        raise NotImplementedError

    # Sugar for building expressions fluently in examples/tests.
    def __lt__(self, other) -> "Compare":
        return Compare(self, "<", _lift(other))

    def __le__(self, other) -> "Compare":
        return Compare(self, "<=", _lift(other))

    def __gt__(self, other) -> "Compare":
        return Compare(self, ">", _lift(other))

    def __ge__(self, other) -> "Compare":
        return Compare(self, ">=", _lift(other))

    def eq(self, other) -> "Compare":
        """Equality predicate (named method: ``__eq__`` stays identity)."""
        return Compare(self, "==", _lift(other))

    def ne(self, other) -> "Compare":
        return Compare(self, "!=", _lift(other))

    def __add__(self, other) -> "Arith":
        return Arith("add", self, _lift(other))

    def __sub__(self, other) -> "Arith":
        return Arith("sub", self, _lift(other))

    def __mul__(self, other) -> "Arith":
        return Arith("mul", self, _lift(other))

    def __truediv__(self, other) -> "Arith":
        return Arith("div", self, _lift(other))


def _lift(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, np.integer)):
        return Const(int(value))
    raise PlanError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True)
class Col(Expr):
    """Reference to a column of the plan's table."""

    name: str

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.name])

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        try:
            return data[self.name]
        except KeyError as exc:
            raise PlanError(f"column {self.name!r} not bound") from exc

    def to_c(self) -> str:
        return f"{self.name}[i]"


@dataclass(frozen=True)
class Const(Expr):
    """Integer literal (all stored data is integer-typed; see storage)."""

    value: int

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        return np.int64(self.value)

    def to_c(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Compare(Expr):
    """``left <op> right`` producing a boolean vector."""

    left: Expr
    op: str
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise PlanError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        lhs = self.left.evaluate(data)
        rhs = self.right.evaluate(data)
        ufunc = {
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
            "==": np.equal,
            "!=": np.not_equal,
        }[self.op]
        return ufunc(lhs, rhs)

    def to_c(self) -> str:
        return f"{self.left.to_c()} {self.op} {self.right.to_c()}"


@dataclass(frozen=True)
class And(Expr):
    """Conjunction of boolean terms."""

    terms: Tuple[Expr, ...]

    def __init__(self, terms: Sequence[Expr]) -> None:
        if not terms:
            raise PlanError("And requires at least one term")
        object.__setattr__(self, "terms", tuple(terms))

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.columns()
        return result

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        result = self.terms[0].evaluate(data)
        for term in self.terms[1:]:
            result = result & term.evaluate(data)
        return result

    def to_c(self) -> str:
        return " && ".join(term.to_c() for term in self.terms)


@dataclass(frozen=True)
class Or(Expr):
    """Disjunction of boolean terms."""

    terms: Tuple[Expr, ...]

    def __init__(self, terms: Sequence[Expr]) -> None:
        if not terms:
            raise PlanError("Or requires at least one term")
        object.__setattr__(self, "terms", tuple(terms))

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for term in self.terms:
            result |= term.columns()
        return result

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        result = self.terms[0].evaluate(data)
        for term in self.terms[1:]:
            result = result | term.evaluate(data)
        return result

    def to_c(self) -> str:
        return " || ".join(f"({term.to_c()})" for term in self.terms)


@dataclass(frozen=True)
class Arith(Expr):
    """Arithmetic expression; ``div`` truncates (integer semantics)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise PlanError(f"unknown arithmetic operator {self.op!r}")

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        lhs = self.left.evaluate(data)
        rhs = self.right.evaluate(data)
        # Arithmetic is computed at aggregate width (int64) regardless of
        # the narrow compressed storage width, matching the paper's
        # "all aggregates are stored as 64-bit integers".
        if isinstance(lhs, np.ndarray):
            lhs = lhs.astype(np.int64, copy=False)
        if isinstance(rhs, np.ndarray):
            rhs = rhs.astype(np.int64, copy=False)
        if self.op == "add":
            return lhs + rhs
        if self.op == "sub":
            return lhs - rhs
        if self.op == "mul":
            return lhs * rhs
        rhs_array = np.asarray(rhs)
        if rhs_array.size and (rhs_array == 0).any():
            raise PlanError("division by zero in expression")
        return np.floor_divide(lhs, rhs)

    def to_c(self) -> str:
        return (
            f"({self.left.to_c()} {_ARITH_SYMBOL[self.op]} {self.right.to_c()})"
        )

    def op_sequence(self) -> Tuple[str, ...]:
        """Flattened arithmetic ops, used by compute-cost estimation."""
        ops: Tuple[str, ...] = ()
        for side in (self.left, self.right):
            if isinstance(side, Arith):
                ops += side.op_sequence()
        return ops + (self.op,)


@dataclass(frozen=True)
class Case(Expr):
    """SQL ``CASE WHEN cond THEN value ... ELSE default END``.

    The paper (§III-A) points out that CASE normally compiles to a chain
    of branching if-else expressions, but value masking can instead
    evaluate *every* arm unconditionally and mask the non-qualifying
    results — see :mod:`repro.core.case_masking` for the two compiled
    forms and the cost check.
    """

    branches: Tuple[Tuple[Expr, Expr], ...]
    default: Expr

    def __init__(self, branches, default: Expr) -> None:
        branches = tuple((cond, value) for cond, value in branches)
        if not branches:
            raise PlanError("Case requires at least one WHEN branch")
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "default", default)

    def columns(self) -> FrozenSet[str]:
        result = self.default.columns()
        for cond, value in self.branches:
            result |= cond.columns() | value.columns()
        return result

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        conditions = [
            np.asarray(cond.evaluate(data), dtype=bool)
            for cond, _ in self.branches
        ]
        values = [
            np.asarray(value.evaluate(data), dtype=np.int64) + np.int64(0)
            for _, value in self.branches
        ]
        default = np.asarray(self.default.evaluate(data), dtype=np.int64)
        return np.select(conditions, values, default=default)

    def to_c(self) -> str:
        parts = []
        for cond, value in self.branches:
            parts.append(f"({cond.to_c()}) ? {value.to_c()} : ")
        return "".join(parts) + self.default.to_c()

    def branch_ops(self) -> Tuple[Tuple[str, ...], ...]:
        """Arithmetic per arm (condition + value), for cost models."""
        return tuple(
            arith_ops(cond) + arith_ops(value)
            for cond, value in self.branches
        )


@dataclass(frozen=True)
class InSet(Expr):
    """``child IN (v1, v2, ...)`` — an OR of equality comparisons.

    Evaluated with one SIMD comparison per member (the
    :func:`repro.engine.kernels.isin` cost convention). The generated
    kernels probe a key set of the constants built at compile time
    (:func:`repro.codegen.npexec.key_set`), which answers as
    :meth:`evaluate` does.
    """

    child: Expr
    values: Tuple[int, ...]

    def __init__(self, child: Expr, values: Sequence[int]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(
            self, "values", tuple(int(v) for v in values)
        )

    def columns(self) -> FrozenSet[str]:
        return self.child.columns()

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        values = np.asarray(self.child.evaluate(data))
        return np.isin(values, np.asarray(self.values, dtype=np.int64))

    def to_c(self) -> str:
        members = ", ".join(str(v) for v in self.values)
        return f"in_set({self.child.to_c()}, {{{members}}})"


@dataclass(frozen=True)
class DictEq(Expr):
    """``column = 'literal'`` over a dictionary-encoded string column.

    A *placeholder* node: the logical plan stays database-independent,
    and the binding pass resolves the literal to its dictionary code
    (producing a plain :class:`Compare`) at compile time. Evaluating an
    unbound node is an error.
    """

    column: str
    value: str

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.column])

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        raise PlanError(
            f"dictionary literal {self.column} == {self.value!r} must be "
            "bound to a code before evaluation (run the binding pass)"
        )

    def to_c(self) -> str:
        return f"{self.column}[i] == dict({self.value!r})"


@dataclass(frozen=True)
class DictPrefix(Expr):
    """``column LIKE 'prefix%'`` over a dictionary-encoded column.

    Binds to an :class:`InSet` of every dictionary code whose decoded
    text starts with ``prefix`` (the paper's Q14 ``PROMO%`` pattern
    becomes a tiny code -> flag lookup table).
    """

    column: str
    prefix: str

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.column])

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        raise PlanError(
            f"dictionary prefix {self.column} LIKE {self.prefix!r}% must "
            "be bound to codes before evaluation (run the binding pass)"
        )

    def to_c(self) -> str:
        return f"starts_with(dict[{self.column}[i]], {self.prefix!r})"


@dataclass(frozen=True)
class DictIn(Expr):
    """``column IN ('v1', 'v2', ...)`` over a dictionary-encoded column.

    A placeholder like :class:`DictEq`: the binding pass resolves each
    literal to its dictionary code, producing an :class:`InSet` over the
    raw codes.
    """

    column: str
    values: Tuple[str, ...]

    def __init__(self, column: str, values: Sequence[str]) -> None:
        object.__setattr__(self, "column", str(column))
        object.__setattr__(
            self, "values", tuple(str(v) for v in values)
        )

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.column])

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        raise PlanError(
            f"dictionary set {self.column} IN {self.values!r} must be "
            "bound to codes before evaluation (run the binding pass)"
        )

    def to_c(self) -> str:
        members = ", ".join(repr(v) for v in self.values)
        return f"in_set(dict[{self.column}[i]], {{{members}}})"


@dataclass(frozen=True)
class StrMatch(Expr):
    """``column [NOT] LIKE '%pattern%'`` backed by a precomputed flag.

    Complex substring patterns (Q13's ``%special%requests%``) cannot be
    dictionary-bound; the storage layer precomputes a per-row match flag
    (``flag_column``, nonzero = the text matches). The node evaluates
    against that flag, but the executor prices it as a per-tuple
    ``strcmp`` over the *display* column — the paper's point is exactly
    that this predicate stays scalar under every strategy.
    """

    column: str  #: display column holding the text, e.g. ``o_comment``
    pattern: str
    flag_column: str  #: precomputed match flag, e.g. ``o_comment_special``
    negated: bool = False

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.flag_column])

    def evaluate(self, data: Dict[str, np.ndarray]) -> np.ndarray:
        try:
            flags = data[self.flag_column]
        except KeyError as exc:
            raise PlanError(
                f"match flag column {self.flag_column!r} not bound"
            ) from exc
        matched = flags != 0
        return ~matched if self.negated else matched

    def to_c(self) -> str:
        bang = "!" if self.negated else ""
        return f"{bang}like({self.column}[i], {self.pattern!r})"


def conjuncts(predicate: Union[Expr, None]) -> Tuple[Expr, ...]:
    """Split a predicate into top-level AND terms (one per prepass loop)."""
    if predicate is None:
        return ()
    if isinstance(predicate, And):
        return predicate.terms
    return (predicate,)


def col_refs(expr: Union[Expr, None]) -> Tuple[str, ...]:
    """Every column *reference* in an expression (with repetitions).

    Unlike ``columns()`` (a set), repeated references are repeated here —
    cost models charge one read per reference unless merging removes it.
    """
    if expr is None:
        return ()
    if isinstance(expr, Col):
        return (expr.name,)
    if isinstance(expr, Const):
        return ()
    if isinstance(expr, (Compare, Arith)):
        return col_refs(expr.left) + col_refs(expr.right)
    if isinstance(expr, (And, Or)):
        result: Tuple[str, ...] = ()
        for term in expr.terms:
            result += col_refs(term)
        return result
    if isinstance(expr, Case):
        result = ()
        for cond, value in expr.branches:
            result += col_refs(cond) + col_refs(value)
        return result + col_refs(expr.default)
    if isinstance(expr, InSet):
        return col_refs(expr.child)
    if isinstance(expr, (DictEq, DictPrefix, DictIn)):
        return (expr.column,)
    if isinstance(expr, StrMatch):
        return (expr.flag_column,)
    raise PlanError(f"cannot walk expression {expr!r}")


def arith_ops(expr: Expr) -> Tuple[str, ...]:
    """All arithmetic ops in an expression (compute-bound detection)."""
    if isinstance(expr, Arith):
        return expr.op_sequence()
    if isinstance(expr, (Compare,)):
        return arith_ops(expr.left) + arith_ops(expr.right)
    if isinstance(expr, (And, Or)):
        result: Tuple[str, ...] = ()
        for term in expr.terms:
            result += arith_ops(term)
        return result
    if isinstance(expr, Case):
        # value masking evaluates every arm, so all ops count (plus one
        # comparison per arm, charged by the caller as cmp events)
        result = ()
        for ops in expr.branch_ops():
            result += ops
        return result + arith_ops(expr.default)
    if isinstance(expr, InSet):
        return arith_ops(expr.child)
    return ()


def compare_count(expr: Expr) -> int:
    """Number of elementwise comparisons one evaluation of ``expr`` costs.

    An :class:`InSet` counts one comparison per member (the OR-of-
    equalities form); unbound dictionary placeholders count one.
    """
    if isinstance(expr, Compare):
        return 1 + compare_count(expr.left) + compare_count(expr.right)
    if isinstance(expr, (And, Or)):
        return sum(compare_count(term) for term in expr.terms)
    if isinstance(expr, InSet):
        return max(len(expr.values), 1) + compare_count(expr.child)
    if isinstance(expr, DictIn):
        return max(len(expr.values), 1)
    if isinstance(expr, (DictEq, DictPrefix, StrMatch)):
        return 1
    if isinstance(expr, Case):
        return sum(
            compare_count(cond) + compare_count(value)
            for cond, value in expr.branches
        ) + compare_count(expr.default)
    if isinstance(expr, Arith):
        return compare_count(expr.left) + compare_count(expr.right)
    return 0
