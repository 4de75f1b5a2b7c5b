"""Automatic kernel synthesis: compile a scalar loop body into a block kernel.

The batched fast path (:mod:`repro.runtime.kernels`) runs one
``kernel(block, kctx)`` call per dispatch unit — a block, or a whole
schedule step's blocks when the kernel is ``fusable`` — where ``block``
is a columnar :class:`~repro.runtime.partition.Block`; the NumPy kernels
read ``block.keys`` / ``block.values`` and never walk its ``(key,
value)`` tuples (a plain list is converted on entry).  The serial loop
body is the only source of truth: from its AST, the ``ArrayRef`` /
``IndexBinding`` records and the subscript classification that
:mod:`repro.analysis.loop_info` extracted, this module *generates* the
kernel source, compiles it against the body's own environment, and
hands the callable to the executor.

The body is lowered **once** (:class:`_LoopNest`) into a loop-nest
record: index bindings, the entry value's scalar and ragged fields,
gather sites, direct writes, buffer folds, reductions, the generated
expression lines, shared scalars and replay statements.  Two emitters
read that record, and the statement-preserving block-loop tier backs
them:

* **vector** (:func:`_emit_vector`) — straight-line affine bodies whose
  every DistArray subscript is a whole column, a whole row, or a point
  addressed by loop indices (SGD MF, GloVe).  Each block is scheduled
  once as a wavefront over its conflict DAG
  (:func:`~repro.runtime.kernels.level_schedule`) and each level runs as
  one gather → NumPy expression → scatter; single-entry levels replay
  the scalar body.  Reductions keep the scalar form (strided ``vecdot``),
  ``**`` goes through :func:`~repro.runtime.kernels.scalar_pow`, and
  scalar subexpressions are evaluated once, so results are bit-identical.
* **segmented** (:func:`_emit_segmented`) — bodies whose inner loops walk
  a ragged field of the entry value and whose every shared write is
  buffered (SLR).  The block is flattened to CSR form once
  (:func:`~repro.runtime.kernels.segment_block`); an epoch is then one
  gather per read site, each ``r = r + e`` reduction position-major in
  the scalar loop's left-to-right order, and one ``np.add.at`` fold per
  buffer — no per-entry Python.  What the kernel assumes about the
  *data* is guarded per block; a block that fails runs the block-loop
  kernel of the same body.
* **block-loop** (:class:`_BlockLoop`, its own walker) — everything else
  with direct dense access (GBT, ...): the body's statements are kept,
  DistArray subscripts become dense-array accesses with per-site
  accounting lists, and buffered writes collect into one ordered
  :meth:`~repro.runtime.kernels.KernelContext.buffer_add` per buffer.

Bodies no tier can prove safe fall back to the scalar interpreter and
the reason surfaces as a lint diagnostic: **W501** (unsupported construct)
or **W502** (state-dependent access pattern).  **W503** marks a successful
synthesis the *plan* refuses to batch.
"""

from __future__ import annotations

import ast
import copy
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
    Tuple,
)

import numpy as np

from repro.analysis import ast_utils
from repro.analysis.lint import Diagnostic, location_of
from repro.analysis.loop_info import (
    LoopInfo, _axes_for_ref, analyze_loop_body,
)
from repro.analysis.strategy import Plan, Strategy, choose_plan
from repro.analysis.subscript import SubscriptKind
from repro.errors import AnalysisError
from repro.runtime import kernels as _kernels
from repro.runtime.partition import Block as _Block

__all__ = [
    "SynthResult",
    "kernel_batching_legal",
    "level_schedule_counts",
    "level_schedule_stats",
    "plan_refusal",
    "synthesize_kernel",
    "synth_report",
]


#: Names the generated source reserves for itself (injected helpers and the
#: kernel's own parameters).  A body using any of them cannot be compiled.
_RESERVED_NAMES = {
    "_snp", "_vecdot", "_scalar_pow", "_level_schedule", "_FULL", "block",
    "kctx", "_synth_kernel", "_lo", "_hi", "_vals", "_prep", "_groups",
    "_order", "_n", "_as_block", "_segment", "_block_loop", "_alive", "_pos",
    "_unused_value",
}
#: Prefixes of generated temporaries; body names must not collide.
_RESERVED_PREFIXES = (
    "_s_", "_nd_", "_ix", "_rd", "_wr", "_bi_", "_bv_", "_v_", "_vv", "_pt",
    "_inv", "_cse", "_f_", "_seg_", "_lv_", "_bk_", "_bs_",
)
#: Numbered temporaries: ``_k{d}`` / ``_g{d}`` / ``_a{d}`` per loop-index
#: dimension, ``_t{n}`` / ``_v{n}`` per site.
_RESERVED_NUMBERED = re.compile(r"_[kgatv]\d")

#: NumPy functions whose vectorized form is bit-identical to applying the
#: scalar form per element (same libm call per lane).
_NP_UNARY = {"sqrt", "exp", "log", "log1p", "abs", "tanh", "square", "negative"}
_NP_BINARY = {"minimum", "maximum"}
#: Builtins, by arity, that lower to those NumPy functions.
_BUILTINS = {("min", 2): "minimum", ("max", 2): "maximum", ("abs", 1): "abs"}
#: The unary ones that hand an integer argument back as an integer.
_INT_KEEPING = {"abs", "square", "negative"}
_NO_INTS: FrozenSet[str] = frozenset()
#: ``_Val.ints`` marker of an integer no data guard can change: a literal,
#: a closed-over ``int``, a loop index.
_INT: FrozenSet[str] = frozenset({"<int>"})

#: What the block-loop tier's read hoisting may not look inside.
_OPAQUE = {
    ast.BoolOp: "a short-circuit boolean", ast.IfExp: "a conditional expression",
    ast.Lambda: "a lambda", ast.ListComp: "a comprehension",
    ast.SetComp: "a comprehension", ast.DictComp: "a comprehension",
    ast.GeneratorExp: "a comprehension",
}
#: Builtins considered pure for the block-loop tier's taint analysis.
_PURE_BUILTINS = {
    "int", "float", "bool", "len", "abs", "min", "max", "round", "range",
    "zip", "enumerate", "tuple", "list", "sum", "divmod", "pow",
}

try:  # numpy < 2 lacks vecdot; keep the strided row-wise reduction exact
    _vecdot = np.vecdot
except AttributeError:  # pragma: no cover - depends on installed numpy

    def _vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.array([x @ y for x, y in zip(a, b)])


class _Fallback(Exception):
    """Internal: a tier cannot compile this body.

    ``code`` is the lint code the failure maps to when no later tier
    succeeds (W501 unsupported construct / W502 state-dependent access).
    """

    def __init__(self, code: str, message: str, node: Optional[ast.AST] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.node = node


@dataclass
class SynthResult:
    """Outcome of one synthesis attempt.

    ``kernel`` is ``None`` when every tier fell back; then ``diagnostics``
    holds the W50x explaining why.  ``notes`` records non-fatal detail (why
    an earlier tier was skipped when a later one succeeded; a block the
    segmented tier's data guard demoted at run time).
    """

    kernel: Optional[Callable[..., Any]] = None
    source: Optional[str] = None
    tier: Optional[str] = None  # "vector" | "segmented" | "block-loop" | None
    #: Segmented tier: the block-loop kernel of the same body, which runs
    #: the blocks whose data fails the kernel's guard.
    fallback_source: Optional[str] = None
    #: The kernel keeps no per-worker state (no buffers, no accumulators)
    #: and declares one access per entry per site, so the blocks one
    #: process runs in a schedule step may be concatenated into one call.
    fusable: bool = False
    diagnostics: List[Diagnostic] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def engaged(self) -> bool:
        """Whether synthesis produced a runnable kernel."""
        return self.kernel is not None

    def describe(self) -> str:
        """Human-readable report: tier, notes, diagnostics, source."""
        lines: List[str] = []
        if self.engaged:
            lines.append(f"synthesized kernel (tier: {self.tier})")
        else:
            lines.append("synthesis fell back to the scalar interpreter")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for diag in self.diagnostics:
            lines.append(f"  {diag.describe()}")
        for title, source in (
            ("generated source:", self.source),
            ("guard fallback (block-loop tier):", self.fallback_source),
        ):
            if source:
                lines.append(title)
                lines.extend(
                    "    " + line for line in source.rstrip().splitlines()
                )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #


def _pattern_of(axes: Sequence[Any]) -> Tuple[Tuple[Any, ...], ...]:
    """Canonical, hashable form of a subscript classification."""
    return tuple((a.kind, a.dim_idx, a.const) for a in axes)


def _binding_names(target: ast.expr) -> Set[str]:
    """Names *bound* by an assignment/loop target (``x``, ``a, b``) —
    subscript and attribute stores mutate, they do not rebind."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: Set[str] = set()
        for element in target.elts:
            out |= _binding_names(element)
        return out
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return set()


def _assigned_names(tree: ast.AST) -> Set[str]:
    """Every name the body binds (assignments, loop targets, defs)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= _binding_names(target)
        elif isinstance(node, ast.For):
            names |= _binding_names(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _is_reserved(name: str) -> bool:
    """Whether a body name could collide with one the generator emits."""
    return name in _RESERVED_NAMES or name.startswith(_RESERVED_PREFIXES) \
        or _RESERVED_NUMBERED.match(name) is not None


def _check_common(info: LoopInfo) -> None:
    """Preconditions every tier shares; raises :class:`_Fallback` (W501)."""
    if info.tree is None:
        raise _Fallback("W501", "loop body source is not recoverable")
    for name, array in info.arrays.items():
        if getattr(array, "sparse", False):
            raise _Fallback(
                "W501", f"array {name!r} is sparse (no dense backing to batch over)"
            )
        if not getattr(array, "is_materialized", False):
            raise _Fallback("W501", f"array {name!r} is not materialized")
    used = {n.id for n in ast.walk(info.tree) if isinstance(n, ast.Name)}
    bad = sorted(n for n in used if _is_reserved(n))
    if bad:
        raise _Fallback(
            "W501", f"body uses names reserved by the generator: {', '.join(bad)}"
        )
    assigned = _assigned_names(info.tree)
    shadowed = sorted(
        assigned & (set(info.arrays) | set(info.buffers) | set(info.accumulators))
    )
    if shadowed:
        raise _Fallback(
            "W501",
            f"body reassigns DistArray/buffer names: {', '.join(shadowed)}",
        )
    if info.accumulators:
        raise _Fallback(
            "W501",
            "accumulator update inside the body (not batchable)",
        )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and \
        not isinstance(value, bool)


def _base_of(node: ast.AST, names: Any) -> Optional[str]:
    """``A`` when ``node`` is a subscript ``A[...]`` and ``A`` is in
    ``names``."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
            and node.value.id in names:
        return node.value.id
    return None


def _subscript_elements(node: ast.Subscript) -> Tuple[ast.expr, ...]:
    if isinstance(node.slice, ast.Tuple):
        return tuple(node.slice.elts)
    return (node.slice,)


# --------------------------------------------------------------------------- #
# the lowering: one walk of the body into a loop-nest record
# --------------------------------------------------------------------------- #

# Orientation of a lowered value over the n entries of a vector group or a
# segmented block:
#   "pure" - scalar, same for every entry        (env constants, literals)
#   "lane" - shape (n,), one value per entry     (point reads, reductions)
#   "col"  - shape (K, n), lanes along axis 1    (whole-column gathers)
#   "row"  - shape (n, K), lanes along axis 0    (whole-row gathers)
#   "elem" - shape (m,), one value per element of the ragged field an inner
#            loop walks, all entries' elements flattened in entry order.
_RANK = {"pure": 0, "lane": 1, "col": 2, "row": 2, "elem": 2}

#: The two emitters a lowered body may be refused by.
_VECTOR, _SEGMENTED = "vector", "segmented"


@dataclass
class _Val:
    code: str
    orient: str
    view_of: Optional[Tuple[str, Tuple]] = None  # (array, pattern) for views
    #: What would make this value a Python ``int`` at run time (prep
    #: columns, ``_INT`` for literals and loop indices); empty for a value
    #: that is a float whatever the data.  Only the segmented emitter reads
    #: it.
    ints: FrozenSet[str] = frozenset()


@dataclass
class _Col:
    """One array the segmented prep step hands the kernel: a loop-index
    dimension, a scalar field of the entry value, or one tuple position of
    a ragged field.  How the body uses it is what the data guard demands
    of it."""

    name: str   # the generated local holding the array
    level: str  # "lane" (one per entry) | "elem" (one per ragged element)
    #: Used as a subscript: the smallest extent it indexes.
    extent: Optional[int] = None
    #: Used as an arithmetic operand.
    operand: bool = False

    def role(self, floats_only: Set[str]) -> Optional[Tuple[str, Any]]:
        """The guard's spec (see ``kernels.segment_block``)."""
        if self.extent is not None:
            return ("id", self.extent)
        if self.operand:
            return ("value", self.name in floats_only)
        return None


class _LoopNest:
    """Walk a loop body once into the record both NumPy emitters read.

    The walk accepts the union of the two emitters' grammars (see the
    module docstring).  A construct only one of them lowers records the
    other's refusal — its first, in statement order — in ``refused``, and
    the walk goes on until both have refused.  While both accept, a
    statement's generated ``lines`` are the same for either.
    """

    def __init__(self, info: LoopInfo, env: Dict[str, Any]):
        self.info = info
        self.env = env
        self.bindings: Dict[str, ast_utils.IndexBinding] = {
            info.index_param: ast_utils.IndexBinding(dim_idx=None)
        }
        self.locals: Dict[str, _Val] = {}
        #: Emitter -> why it cannot lower this body.
        self.refused: Dict[str, _Fallback] = {}
        self.lines: List[str] = []
        self.patterns: Dict[str, Tuple] = {}
        self.written: Dict[str, Tuple] = {}
        self.replay_stmts: List[ast.stmt] = []
        #: Loop-invariant scalar subexpressions, source -> hoisted name.
        self.invariants: Dict[str, str] = {}
        #: Per-entry scalar subexpressions the body evaluates more than
        #: once, ``ast.dump`` -> the local that now holds the value.
        self.shared: Dict[str, str] = {}
        #: Names ``a, b = value`` unpacks the entry value into, in order.
        self.fields: List[str] = []
        self.scalars: Dict[str, _Col] = {}
        #: Iterated field -> one column per tuple position.
        self.ragged: Dict[str, List[_Col]] = {}
        self.key_cols: Dict[int, _Col] = {}
        #: Columns whose integers would take part in integer arithmetic.
        self.floats_only: Set[str] = set()
        #: ``(array, index code)`` per segmented read site, in site order.
        self.reads: List[Tuple[str, str]] = []
        #: Buffer -> (subscript column, values local) of its write site.
        self.folds: Dict[str, Tuple[_Col, str]] = {}
        # State of the inner loop being walked.
        self.loop: Optional[str] = None      # the ragged field it walks
        self.scope: Dict[str, _Col] = {}     # its tuple names
        self.temps: Set[str] = set()         # element-level locals
        self.reducing: Set[str] = set()      # entry-level reduction targets
        self.level_lines: List[str] = []
        self._temp = 0
        assert info.tree is not None
        if info.buffers:
            self._refuse(_VECTOR, "buffered writes (vector tier)")
        try:
            values = info.iteration_space.columns()[1]
        except Exception:
            values = ()
        if len(values) and not isinstance(
            values[0], (int, float, np.integer, np.floating)
        ):
            self._refuse(_VECTOR, "non-scalar entry values (vector tier)")
        self._repeats = Counter(
            ast.dump(n) for n in ast.walk(info.tree) if isinstance(n, ast.BinOp)
        )
        for stmt in info.tree.body:
            for piece in self._share_scalars(stmt):
                try:
                    self._stmt(piece)
                except _Fallback as exc:  # no emitter still accepting lowers it
                    self.refused.setdefault(_VECTOR, exc)
                    self.refused.setdefault(_SEGMENTED, exc)
                if len(self.refused) == 2:
                    return

    # -------- refusals and small utilities -------------------------------- #

    def _refuse(self, emitter: str, message: str) -> None:
        """``emitter`` cannot lower the body; the walk ends once neither
        emitter can."""
        self.refused.setdefault(emitter, _Fallback("W501", message))
        if len(self.refused) == 2:
            raise _Fallback("W501", message)

    @staticmethod
    def _fail(message: str) -> None:
        raise _Fallback("W501", message)

    def _temp_name(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def _gidx(self, dim: int, const: int) -> str:
        """Group-relative index-array expression for ``key[dim] + const``."""
        self.key_cols.setdefault(dim, _Col(f"_g{dim}", "lane"))
        return f"_g{dim}" if const == 0 else f"(_g{dim} + {const})"

    def _taken(self, name: str) -> bool:
        return name in self.bindings or name in self.fields or \
            name in self.scope or name in self.locals

    def _column(self, name: str) -> Optional[_Col]:
        """The prep column a body name stands for, if it stands for one."""
        if name in self.scope:
            return self.scope[name]
        if name not in self.fields:
            return None
        if name in self.ragged:
            self._fail(f"ragged field {name!r} used as a value")
        return self.scalars.setdefault(name, _Col(f"_f_{name}", "lane"))

    def _classify(self, node: ast.Subscript) -> Tuple[str, str, Tuple, str]:
        """Classify a vector DistArray subscript; returns (array name,
        kind, pattern, group-relative index code).

        ``kind`` is ``"col"`` / ``"row"`` / ``"pt"``; anything else falls
        back.  Enforces one subscript pattern per array.
        """
        name = node.value.id
        try:
            axes = _axes_for_ref(
                self.info.arrays[name], name, _subscript_elements(node),
                self.bindings, self.info.num_iter_dims, None,
            )
        except AnalysisError as exc:
            raise _Fallback("W501", str(exc), node)
        kinds = tuple(a.kind for a in axes)
        if len(axes) == 2 and kinds == (SubscriptKind.SLICE_ALL, SubscriptKind.INDEX):
            kind, indexed = "col", axes[1:]
        elif len(axes) == 2 and kinds == (SubscriptKind.INDEX, SubscriptKind.SLICE_ALL):
            kind, indexed = "row", axes[:1]
        elif all(k is SubscriptKind.INDEX for k in kinds):
            kind, indexed = "pt", axes
        else:
            self._fail(f"unsupported subscript shape on {name!r}")
        pattern = _pattern_of(axes)
        known = self.patterns.get(name)
        if known is None:
            self.patterns[name] = pattern
        elif known != pattern:
            self._fail(f"array {name!r} accessed through multiple patterns")
        index = ", ".join(self._gidx(a.dim_idx, a.const) for a in indexed)
        return name, kind, pattern, index

    def _subscript_col(self, node: ast.Subscript, shape: Tuple[int, ...]) -> _Col:
        """The column subscripting a 1-D array or buffer target."""
        (sub, *rest) = _subscript_elements(node)
        if rest or len(shape) != 1 or isinstance(sub, ast.Slice):
            self._fail("not a point subscript of a 1-D array")
        indexed = ast_utils._index_expr(sub, self.bindings)
        col: Optional[_Col] = None
        if indexed is not None and not indexed[1]:
            self._gidx(*indexed)
            col = self.key_cols[indexed[0]]
        elif isinstance(sub, ast.Name):
            col = self._column(sub.id)
        if col is None:
            self._fail("subscript is not an entry field or a loop index")
        if col.operand:
            self._fail(f"{ast.unparse(sub)!r} is both a subscript and an operand")
        col.extent = shape[0] if col.extent is None \
            else min(col.extent, shape[0])
        return col

    def _per_element(self, value: _Val) -> str:
        """``value`` as one float per element of the loop's ragged field."""
        if value.orient == "elem":
            return value.code
        if value.orient == "pure":
            return (f"_snp.full(len(_seg_{self.loop}), {value.code}, "
                    "_snp.float64)")
        return f"({value.code})[_seg_{self.loop}]"

    # -------- expression translation -------------------------------------- #

    def _combine(self, left: _Val, right: _Val, template: str,
                 node: ast.AST) -> _Val:
        """Elementwise combination with orientation broadcasting."""
        lo, ro = left.orient, right.orient
        lc, rc = left.code, right.code
        if {lo, ro} == {"col", "row"}:
            self._fail("mixing column- and row-oriented values")
        if lo == "row" and ro == "lane":
            rc = f"({rc})[:, None]"
        elif ro == "row" and lo == "lane":
            lc = f"({lc})[:, None]"
        elif lo == "elem" and ro == "lane":
            rc = self._per_element(right)
        elif ro == "elem" and lo == "lane":
            lc = self._per_element(left)
        orient = lo if _RANK[lo] >= _RANK[ro] else ro
        division = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        return _Val(
            template.format(l=lc, r=rc), orient,
            ints=self._merged_ints(left, right, division),
        )

    def _merged_ints(self, left: _Val, right: _Val,
                     division: bool = False) -> FrozenSet[str]:
        """``_Val.ints`` of a binary operation.  Were both operands
        integers Python would compute in exact integers, which float64
        cannot follow: the guard then asks those columns for floats."""
        if not (left.ints and right.ints):
            return _NO_INTS
        self.floats_only |= left.ints | right.ints
        return _NO_INTS if division else left.ints | right.ints

    def _expr(self, node: ast.expr) -> _Val:
        # A loop-index expression (key[d] ± c or an alias) is a lane of ints.
        indexed = ast_utils._index_expr(node, self.bindings)
        if indexed is not None:
            return _Val(self._gidx(*indexed), "lane", ints=_INT)
        if isinstance(node, ast.Constant):
            if not _is_number(node.value):
                self._fail("non-numeric constant")
            return _Val(
                repr(node.value), "pure",
                ints=_INT if isinstance(node.value, int) else _NO_INTS,
            )
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            v = self._expr(node.operand)
            return _Val(f"(-{v.code})", v.orient, ints=v.ints)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return self._expr(node.operand)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            return self._gather(node)
        self._fail(f"unsupported expression ({type(node).__name__})")

    def _name(self, name: str) -> _Val:
        if name in self.reducing:
            self._fail(f"{name!r} is read inside the loop that reduces into it")
        if name == self.info.value_param:
            self._refuse(_SEGMENTED, "the entry value is used whole (only "
                                     "`a, b = value` unpacking is supported)")
        else:
            col = self._column(name)
            if col is not None:
                if col.extent is not None:
                    self._fail(f"{name!r} is both a subscript and an operand")
                col.operand = True
                return _Val(col.name, col.level, ints=frozenset({col.name}))
        if name in self.locals:
            return self.locals[name]
        if name in self.invariants.values():
            return _Val(name, "pure")
        if name in self.bindings:
            self._fail("whole loop-index tuple used as a value")
        if name == self.info.value_param:
            return _Val("_vv", "lane")
        if name in self.info.arrays or name in self.info.buffers:
            self._fail(f"bare DistArray reference {name!r}")
        value = self.env.get(name)
        if _is_number(value):
            integer = isinstance(value, (int, np.integer))
            return _Val(name, "pure", ints=_INT if integer else _NO_INTS)
        self._fail(f"unsupported name {name!r}")

    def _binop(self, node: ast.BinOp) -> _Val:
        op = node.op
        if isinstance(op, ast.MatMult):
            left, right = self._expr(node.left), self._expr(node.right)
            # Keep the reduction in the scalar body's exact sequential form:
            # row-wise vecdot over strided operands (see kernels contract).
            if left.orient == "col" and right.orient == "col":
                return _Val(f"_vecdot(({left.code}).T, ({right.code}).T)", "lane")
            if left.orient == "row" and right.orient == "row":
                return _Val(f"_vecdot({left.code}, {right.code})", "lane")
            self._fail("matmul on non-gather operands")
        if isinstance(op, ast.Pow):
            left, right = self._expr(node.left), self._expr(node.right)
            if left.orient == "pure" and right.orient == "pure":
                return _Val(
                    f"({left.code} ** {right.code})", "pure",
                    ints=left.ints and right.ints,
                )
            # Vectorized ** is not bit-identical to scalar pow; use the
            # python-level elementwise helper.
            return self._combine(left, right, "_scalar_pow({l}, {r})", node)
        ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
        sym = ops.get(type(op))
        if sym is None:
            self._fail(f"unsupported operator {type(op).__name__}")
        left, right = self._expr(node.left), self._expr(node.right)
        return self._combine(left, right, f"({{l}} {sym} {{r}})", node)

    def _call(self, node: ast.Call) -> _Val:
        if node.keywords:
            self._fail("call with keyword arguments")
        func = node.func
        builtin = isinstance(func, ast.Name) and func.id not in self.env \
            and (func.id, len(node.args)) in _BUILTINS
        if builtin:
            name = _BUILTINS[func.id, len(node.args)]
        elif isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                self.env.get(func.value.id) is np:
            name = func.attr
        else:
            self._fail("unsupported call")
        args = [self._expr(a) for a in node.args]
        if builtin and all(a.orient == "pure" for a in args):
            return _Val(
                f"{func.id}({', '.join(a.code for a in args)})", "pure",
                ints=args[0].ints if name == "abs" else _NO_INTS,
            )
        if name in _NP_UNARY and len(args) == 1:
            (a,) = args
            return _Val(
                f"_snp.{name}({a.code})", a.orient,
                ints=a.ints if name in _INT_KEEPING else _NO_INTS,
            )
        if len(args) == 2 and (name in _NP_BINARY or name == "power"):
            template = "_scalar_pow({l}, {r})" if name == "power" \
                else f"_snp.{name}({{l}}, {{r}})"
            return self._combine(args[0], args[1], template, node)
        self._fail(f"unsupported numpy call np.{name}")

    def _gather(self, node: ast.Subscript) -> _Val:
        """A DistArray read.  Where both emitters lower it (a 1-D point
        read by a loop index) their code is the same."""
        base = node.value
        if not isinstance(base, ast.Name) or base.id not in self.info.arrays:
            self._fail("subscript on a non-DistArray value")
        lowered = []
        for emitter, lower in ((_VECTOR, self._vector_gather),
                               (_SEGMENTED, self._segmented_gather)):
            if emitter not in self.refused:
                try:
                    lowered.append(lower(node))
                except _Fallback as exc:
                    self._refuse(emitter, exc.message)
        return lowered[0]

    def _vector_gather(self, node: ast.Subscript) -> _Val:
        name, kind, pattern, index = self._classify(node)
        if kind == "pt":
            return _Val(f"_nd_{name}[{index}]", "lane")
        axis = 1 if kind == "col" else 0
        return _Val(f"_nd_{name}.take({index}, axis={axis})", kind,
                    view_of=(name, pattern))

    def _segmented_gather(self, node: ast.Subscript) -> _Val:
        name = node.value.id
        col = self._subscript_col(node, self.info.arrays[name].shape)
        index = col.name
        if self.loop is not None and col.level == "lane":
            # The scalar body repeats the read once per element.
            index = f"{index}[_seg_{self.loop}]"
        self.reads.append((name, index))
        return _Val(f"_nd_{name}[{col.name}]", col.level)

    # -------- scalar sharing (for the vector emitter) ---------------------- #

    def _scalar_kind(self, node: ast.expr) -> Optional[str]:
        """``"pure"`` (loop-invariant) / ``"lane"`` (per-entry) when
        ``node`` is ``+ - * /`` arithmetic over numeric constants,
        closed-over numbers and scalar locals — values no DistArray write
        can change — else ``None``."""
        if isinstance(node, ast.Constant):
            return "pure" if _is_number(node.value) else None
        if isinstance(node, ast.Name):
            local = self.locals.get(node.id)
            if local is not None:
                # A local lives inside the group loop, whatever it holds.
                scalar = local.orient in ("pure", "lane") and \
                    local.view_of is None
                return "lane" if scalar else None
            if node.id in self.bindings or node.id in self.info.arrays:
                return None
            if node.id == self.info.value_param:
                return "lane"
            return "pure" if _is_number(self.env.get(node.id)) else None
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._scalar_kind(node.operand)
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            kinds = (self._scalar_kind(node.left), self._scalar_kind(node.right))
            if None in kinds:
                return None
            return "lane" if "lane" in kinds else "pure"
        return None

    def _share_scalars(self, node: ast.stmt) -> List[ast.stmt]:
        """Evaluate each scalar subexpression of an assignment once, while
        the vector emitter, whose group loop it serves, still accepts.

        Loop-invariant arithmetic (``step_size * 2.0``) moves in front of
        the group loop, and a per-entry scalar the body spells out more
        than once (the ``c * diff`` its left-associated products share) is
        bound to a local before its first use.  Same operands, same
        operation, fewer evaluations — the results cannot differ.
        Returns the bindings to translate first, then the statement.
        """
        if _VECTOR in self.refused or not isinstance(node, ast.Assign):
            return [node]
        pre: List[ast.stmt] = []
        outer = self

        class _Share(ast.NodeTransformer):
            def visit_BinOp(self, expr: ast.BinOp) -> ast.expr:
                kind = outer._scalar_kind(expr)
                if kind == "pure" and any(
                    isinstance(leaf, ast.Name) for leaf in ast.walk(expr)
                ):
                    name = outer.invariants.setdefault(
                        ast.unparse(expr), f"_inv{len(outer.invariants)}"
                    )
                    return ast.Name(id=name, ctx=ast.Load())
                key = ast.dump(expr)
                if kind == "lane" and outer._repeats.get(key, 0) > 1:
                    name = outer.shared.get(key)
                    if name is None:
                        value = self.generic_visit(expr)
                        name = outer.shared[key] = f"_cse{len(outer.shared)}"
                        pre.append(ast.Assign(
                            targets=[ast.Name(id=name, ctx=ast.Store())],
                            value=value,
                        ))
                    return ast.Name(id=name, ctx=ast.Load())
                return self.generic_visit(expr)

        shared = copy.copy(node)
        shared.value = _Share().visit(copy.deepcopy(node.value))
        return [ast.fix_missing_locations(ast.copy_location(s, node))
                for s in pre + [shared]]

    # -------- statement translation --------------------------------------- #

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # docstring / bare constant
        if not isinstance(node, ast.Assign):  # the vector grammar's only one
            self._refuse(
                _VECTOR, f"unsupported statement ({type(node).__name__})"
            )
        if isinstance(node, ast.Pass):
            return
        where = " inside an inner loop" if self.loop else ""
        node = self._normalized(node)
        if isinstance(node, ast.For) and self.loop is None:
            self._for(node)
            return
        if isinstance(node, ast.If):
            self._fail(f"branch{where}")
        if not isinstance(node, ast.Assign):
            self._fail(f"unsupported statement ({type(node).__name__}){where}")
        if len(node.targets) != 1:
            self._refuse(_VECTOR, "chained assignment")
            self._fail(f"unsupported statement (Assign){where}")
        target = node.targets[0]
        if isinstance(target, ast.Tuple):
            self._unpack(node, target)
        elif isinstance(target, ast.Name):
            self._assign_name(node, target)
        elif isinstance(target, ast.Subscript):
            base = target.value
            name = base.id if isinstance(base, ast.Name) else None
            if name in self.info.arrays:
                self._refuse(_SEGMENTED, f"direct write to DistArray {name!r}")
                self._scatter(node, target)
            else:
                self._refuse(_VECTOR, "subscript on a non-DistArray value")
                self._buffered_write(node, target, name)
        else:
            self._fail("unsupported assignment target")

    @staticmethod
    def _normalized(node: ast.stmt) -> ast.stmt:
        """``x += e`` as ``x = x + e`` — scalars are immutable, so the
        two are one statement."""
        if not (isinstance(node, ast.AugAssign) and
                isinstance(node.target, ast.Name) and
                isinstance(node.op, ast.Add)):
            return node
        read = ast.Name(id=node.target.id, ctx=ast.Load())
        assign = ast.Assign(targets=[node.target],
                            value=ast.BinOp(read, node.op, node.value))
        return ast.fix_missing_locations(ast.copy_location(assign, node))

    def _unpack(self, node: ast.Assign, target: ast.Tuple) -> None:
        """``a, b = value`` names the entry value's fields; ``i, j = key``
        binds per-dimension index aliases."""
        value = node.value
        if isinstance(value, ast.Name) and value.id == self.info.value_param:
            self._refuse(
                _VECTOR, "tuple assignment (only `i, j = key` is supported)"
            )
            names = [e.id for e in target.elts if isinstance(e, ast.Name)]
            if self.fields or self.loop is not None or \
                    len(names) != len(target.elts) or \
                    any(self._taken(name) for name in names):
                self._fail("the entry value is unpacked more than once, "
                           "inside a loop, or into taken names")
            self.fields = names
            return
        if self.loop is not None:
            self._fail("tuple assignment inside an inner loop")
        if self._whole_key(value) and \
                len(target.elts) == self.info.num_iter_dims and \
                all(isinstance(e, ast.Name) for e in target.elts):
            for dim, elt in enumerate(target.elts):
                self._bind(elt.id, ast_utils.IndexBinding(dim_idx=dim))
            return
        self._fail("tuple assignment (only `i, j = key` is supported)")

    def _whole_key(self, node: ast.expr) -> bool:
        """Whether ``node`` names the whole loop-index tuple."""
        binding = self.bindings.get(node.id) \
            if isinstance(node, ast.Name) else None
        return binding is not None and binding.is_whole_key

    def _bind(self, name: str, binding: ast_utils.IndexBinding) -> None:
        if name in self.bindings or name in self.locals:
            self._fail(f"reassignment of {name!r}")
        self.bindings[name] = binding

    def _assign_name(self, node: ast.Assign, target: ast.Name) -> None:
        name = target.id
        if self.loop is None:
            # Pure index aliases produce no code: both emitters read the
            # indices through ``self.bindings``.
            indexed = ast_utils._index_expr(node.value, self.bindings)
            if indexed is not None:
                self._bind(name, ast_utils.IndexBinding(*indexed))
                return
            if self._whole_key(node.value):
                self._refuse(_SEGMENTED, "whole loop-index tuple used as a value")
                self._bind(name, ast_utils.IndexBinding(dim_idx=None))
                return
        elif name in self.reducing and self._is_reduction(node):
            self._reduce(node, name)
            return
        if name in self.locals or name in self.bindings:
            self._refuse(_VECTOR, f"reassignment of {name!r}")
        rebindable = self.temps if self.loop is not None else self.locals
        if self._taken(name) and name not in rebindable:
            self._fail(f"assignment to {name!r}" + (
                " inside an inner loop is not a `+` reduction"
                if name in self.locals else " rebinds an index or a field"
            ))
        value = self._expr(node.value)
        view = value.view_of if isinstance(node.value, ast.Subscript) else None
        self.lines.append(f"_v_{name} = {value.code}")
        self.locals[name] = _Val(
            f"_v_{name}", value.orient, view_of=view, ints=value.ints
        )
        self.replay_stmts.append(node)
        if self.loop is not None:
            self.temps.add(name)

    def _scatter(self, node: ast.Assign, target: ast.Subscript) -> None:
        """A direct DistArray store (vector emitter only)."""
        name, kind, pattern, index = self._classify(target)
        value = self._expr(node.value)
        temp = self._temp_name()
        code = value.code
        if kind == "col":
            if value.orient == "row":
                self._fail("row-oriented value stored into a column")
            dest = f"_nd_{name}[:, {index}]"
        elif kind == "row":
            if value.orient == "col":
                self._fail("column-oriented value stored into a row")
            if value.orient == "lane":
                code = f"({code})[:, None]"
            dest = f"_nd_{name}[{index}, :]"
        else:  # pt
            if value.orient in ("col", "row"):
                self._fail("matrix-oriented value stored into a point")
            dest = f"_nd_{name}[{index}]"
        self.lines.append(f"{temp} = {code}")
        self.lines.append(f"{dest} = {temp}")
        self.written[name] = pattern
        # The scalar body sees writes through earlier captured *views*;
        # rebind any view-local of this array to the freshly stored values
        # (within a conflict-free group the scatter is exactly the update).
        for local in self.locals.values():
            if local.view_of == (name, pattern):
                local.code = temp
        self.replay_stmts.append(node)

    @staticmethod
    def _is_reduction(node: ast.stmt) -> bool:
        """``r = r + e`` (what ``r += e`` was rewritten to)."""
        return (
            isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.Add)
            and isinstance(node.value.left, ast.Name)
            and node.value.left.id == node.targets[0].id
        )

    def _for(self, node: ast.For) -> None:
        field_node, target = node.iter, node.target
        if node.orelse:
            self._fail("for/else")
        if not (isinstance(field_node, ast.Name)
                and field_node.id in self.fields
                and field_node.id not in self.scalars):
            self._fail(
                f"inner loop over {ast.unparse(field_node)!r}, which is not "
                "a ragged field of the entry value"
            )
        names = [e.id for e in target.elts if isinstance(e, ast.Name)] \
            if isinstance(target, ast.Tuple) else []
        if not names or len(names) != len(target.elts) or \
                len(set(names)) != len(names) or \
                any(self._taken(name) for name in names):
            self._fail("inner loop target is not a tuple of fresh names")
        field_name = field_node.id
        cols = self.ragged.setdefault(field_name, [
            _Col(f"_f_{field_name}_{position}", "elem")
            for position in range(len(names))
        ])
        if len(cols) != len(names):
            self._fail(f"loops unpack {field_name!r} into different arities")
        self.loop, self.scope = field_name, dict(zip(names, cols))
        self.temps, self.level_lines = set(), []
        # A `+` reduction target is an entry-level local the loop updates
        # only through `r = r + e`; any other use of it in the loop fails.
        # It becomes one float64 per entry, a fresh array the level loop
        # below updates in place (an alias taken earlier keeps its value).
        self.reducing = {
            stmt.targets[0].id for stmt in map(self._normalized, node.body)
            if self._is_reduction(stmt) and stmt.targets[0].id in self.locals
        }
        for name in sorted(self.reducing):
            start = self.locals[name]
            self.lines.append(f"_v_{name} = " + (
                f"_snp.full(_n, {start.code}, _snp.float64)"
                if start.orient == "pure"
                else f"_snp.array({start.code}, _snp.float64)"
            ))
        for stmt in node.body:
            self._stmt(stmt)
        if self.level_lines:
            self.lines.append(f"for _alive, _pos in _lv_{field_name}:")
            self.lines.extend(self.level_lines)
        for name in self.temps:
            del self.locals[name]
        self.loop, self.scope, self.reducing = None, {}, set()

    def _reduce(self, node: ast.Assign, name: str) -> None:
        """``r = r + e`` over a ragged field: each inner position adds its
        elements' terms to the entries that have one — the scalar loop's
        own left-to-right order."""
        current = self.locals[name]
        term = self._expr(node.value.right)
        var = f"_v_{name}"
        temp = self._temp_name()
        self.lines.append(f"{temp} = {self._per_element(term)}")
        self.level_lines.append(
            f"    {var}[_alive] = {var}[_alive] + {temp}[_pos]"
        )
        self.locals[name] = _Val(
            var, "lane", ints=self._merged_ints(current, term)
        )

    def _buffered_write(self, node: ast.Assign, target: ast.Subscript,
                        name: Optional[str]) -> None:
        """A buffered point write (segmented emitter only)."""
        if name not in self.info.buffers:
            self._fail("store into something that is not a buffer")
        buffer = self.info.buffers[name]
        if not buffer.combines_by_addition:
            self._fail(f"buffer {name!r} has a custom combiner")
        if name in self.folds:
            self._fail(f"several write sites into buffer {name!r}")
        col = self._subscript_col(target, buffer.target.shape)
        if col.level != "elem":
            self._fail("buffered write not subscripted by a field of an "
                       "inner loop's element")
        temp = self._temp_name()
        self.lines.append(
            f"{temp} = {self._per_element(self._expr(node.value))}"
        )
        self.folds[name] = (col, temp)


# --------------------------------------------------------------------------- #
# vector emitter: gather/compute/scatter over level-scheduled groups
# --------------------------------------------------------------------------- #


def _emit_vector(nest: _LoopNest) -> str:
    if _VECTOR in nest.refused:
        raise nest.refused[_VECTOR]
    if not nest.written:
        raise _Fallback("W501", "no vectorizable DistArray writes")
    conflict_dims = _index_dims(nest.written)
    if not conflict_dims:
        raise _Fallback("W501", "writes are not addressed by loop indices")
    dims = list(range(nest.info.num_iter_dims))
    acct_args: Dict[str, str] = {}
    acct_lines = _vector_accounting(nest, acct_args)

    lines: List[str] = []
    out = lines.append
    # ``_a{d}`` / ``_pt{n}`` are the block's indices in entry order:
    # they exist only on the first call, where the accounting
    # declarations at the end memoize what they derive from them.
    # What the cache keeps — ``_k{d}`` / ``_vals`` — is permuted into
    # level order, ``_groups`` being the level boundaries.  It is
    # stored last, after those declarations: a first call that raises
    # in the body leaves no half-filled cache and can be run again.
    acct_names = [f"_a{d}" for d in dims] + list(acct_args.values())
    prep_names = [f"_k{d}" for d in dims] + ["_vals", "_groups"]
    out("def _synth_kernel(block, kctx):")
    out("    _prep = kctx.cache.get('_synth')")
    out("    if _prep is None:")
    out("        block = _as_block(block)")
    lines.extend(f"        _a{d} = block.keys[:, {d}]" for d in dims)
    out("        _vals = _snp.asarray(block.values, dtype=_snp.float64)")
    group_args = ", ".join(f"_a{d}.tolist()" for d in conflict_dims)
    out(f"        _order, _groups = _level_schedule([{group_args}])")
    lines.extend(f"        {name} = {source}" for source, name in acct_args.items())
    permuted = [f"_a{d}[_order]" for d in dims] + ["_vals[_order]", "_groups"]
    out(f"        _prep = ({', '.join(permuted)})")
    out("    else:")
    out(f"        {' = '.join(acct_names)} = None")
    out(f"    ({', '.join(prep_names)}) = _prep")
    lines.extend(_prologue(nest, nest.patterns))
    out("    for _lo, _hi in _groups:")
    out("        if _hi - _lo == 1:")
    lines.extend("            " + line for line in _replay_lines(nest))
    out("            continue")
    lines.extend(f"        _g{d} = _k{d}[_lo:_hi]" for d in _index_dims(nest.patterns))
    out("        _vv = _vals[_lo:_hi]")
    lines.extend("        " + line for line in nest.lines)
    lines.extend(acct_lines)
    out("    kctx.cache['_synth'] = _prep")
    return "\n".join(lines) + "\n"


def _prologue(nest: _LoopNest, arrays: Iterable[str]) -> List[str]:
    """Dense views of the arrays a kernel reads, then hoisted invariants."""
    return [f"    _nd_{name} = {name}.values" for name in arrays] + \
        [f"    {name} = {source}" for source, name in nest.invariants.items()]


def _index_dims(patterns: Dict[str, Tuple]) -> List[int]:
    """The loop-index dimensions some subscript pattern indexes by."""
    return sorted({
        axis[1] for pattern in patterns.values()
        for axis in pattern if axis[0] is SubscriptKind.INDEX
    })


def _vector_accounting(nest: _LoopNest, args: Dict[str, str]) -> List[str]:
    """One ``account_*`` declaration per static reference site, over the
    block's indices in entry order (``_a{d}``).  ``args`` collects the
    derived index lists the prep block must build, source -> name.
    """
    out: List[str] = []

    def shifted(axis: Tuple[Any, ...]) -> str:
        dim, const = axis[1], axis[2]
        if not const:
            return f"_a{dim}"
        return args.setdefault(f"_a{dim} + {const}", f"_pt{len(args)}")

    for name, refs in nest.info.refs.items():
        for ref in refs:
            pattern = _pattern_of(ref.axes)
            if nest.patterns.get(name) != pattern:
                raise _Fallback(
                    "W501",
                    f"accounting mismatch for {name!r} (untranslated site)",
                )
            kinds = tuple(a[0] for a in pattern)
            verb = "writes" if ref.is_write else "reads"
            if kinds == (SubscriptKind.SLICE_ALL, SubscriptKind.INDEX):
                method, idx = f"account_col_{verb}", shifted(pattern[1])
            elif kinds == (SubscriptKind.INDEX, SubscriptKind.SLICE_ALL):
                method, idx = f"account_row_{verb}", shifted(pattern[0])
            elif len(pattern) == 1:
                method, idx = f"account_point_{verb}", shifted(pattern[0])
            else:
                columns = ", ".join(f"({shifted(a)}).tolist()" for a in pattern)
                idx = args.setdefault(
                    f"list(zip({columns}))", f"_pt{len(args)}"
                )
                method = f"account_{verb}"
            out.append(f"    kctx.{method}({name}, {idx})")
    return out


def _replay_lines(nest: _LoopNest) -> List[str]:
    """The original scalar statements, renamed for single-entry groups.

    Scalar NumPy indexing gives the replay branch the body's exact view
    semantics, so heavy-conflict blocks stay bit-identical without any
    orientation machinery.  Every spelling of a loop index (``key[d]``,
    an alias, either ± a constant) reads one scalar bound per entry.
    """
    assigned = set(nest.locals)
    arrays = set(nest.patterns)
    bindings, value_param = nest.bindings, nest.info.value_param
    used_dims: Set[int] = set()

    class _Rename(ast.NodeTransformer):
        def visit(self, node: ast.AST) -> ast.AST:
            indexed = ast_utils._index_expr(node, bindings) \
                if isinstance(node, ast.expr) else None
            if indexed is None:
                return super().visit(node)
            dim, const = indexed
            used_dims.add(dim)
            source = f"_s_i{dim} + {const}" if const else f"_s_i{dim}"
            return ast.parse(source, mode="eval").body

        def visit_Name(self, node: ast.Name) -> ast.Name:
            if node.id == value_param or node.id in assigned:
                return ast.Name(id=f"_s_{node.id}", ctx=node.ctx)
            if node.id in arrays:
                return ast.Name(id=f"_nd_{node.id}", ctx=node.ctx)
            return node

    renamer = _Rename()
    body: List[str] = []
    for stmt in nest.replay_stmts:
        new = ast.fix_missing_locations(renamer.visit(copy.deepcopy(stmt)))
        body.extend(ast.unparse(new).splitlines())
    lines = [f"_s_i{d} = _k{d}[_lo]" for d in sorted(used_dims)]
    if value_param is not None:
        lines.append(f"_s_{value_param} = _vals[_lo]")
    return lines + body


def level_schedule_counts(
    caches: Iterable[Dict[Any, Any]],
) -> Tuple[int, int, int]:
    """``(entries, groups, single-entry groups)`` of the level schedules a
    vector-tier kernel has memoized in the given per-dispatch-unit caches
    (units it has not run yet, and other kernels' caches, count
    nothing)."""
    entries = groups = singles = 0
    for cache in caches:
        prep = cache.get("_synth")
        if prep is None:
            continue
        bounds = prep[-1]  # ``_groups``: see _emit_vector
        groups += len(bounds)
        for lo, hi in bounds:
            entries += hi - lo
            singles += hi - lo == 1
    return entries, groups, singles


def level_schedule_stats(
    counts: Tuple[int, int, int],
) -> Optional[Dict[str, float]]:
    """The report form of :func:`level_schedule_counts` (``None`` before
    any block was scheduled): how wide the vector kernel's groups are.  A
    mean near 1 means the kernel is replaying entries one at a time."""
    entries, groups, singles = counts
    if not groups:
        return None
    return {
        "entries": entries,
        "groups": groups,
        "mean_group_size": entries / groups,
        "single_entry_share": singles / groups,
    }


# --------------------------------------------------------------------------- #
# segmented emitter: ragged inner loops over a CSR flattening of the block
# --------------------------------------------------------------------------- #


def _emit_segmented(
    nest: _LoopNest, notes: List[str]
) -> Tuple[str, Callable[[Sequence[Any]], Any]]:
    """Gather / position-major reduce / folded scatter over a CSR
    flattening of the block.  Returns the source and its ``_segment``:
    CSR-flatten a block and lay out its buffers' fold slots, or — when the
    data is not what the body's shape promised — hand back the reason and
    add the demotion to ``notes``."""
    if _SEGMENTED in nest.refused:
        raise nest.refused[_SEGMENTED]
    if not nest.ragged:
        raise _Fallback("W501", "no inner loop over a ragged entry field")
    # The order of `names` is the order `kernels.segment_block` (then
    # one `fold_slots` per buffer) lays the prep tuple out in.
    key_dims = [(dim, col.extent) for dim, col in sorted(nest.key_cols.items())]
    names = ["_n"] + [nest.key_cols[dim].name for dim, _extent in key_dims]
    fields: List[Any] = []
    for name in nest.fields:
        spec = None
        if name in nest.ragged:
            roles = [c.role(nest.floats_only) for c in nest.ragged[name]]
            names += [f"_seg_{name}", f"_lv_{name}"]
            names += [c.name for c, role in zip(nest.ragged[name], roles)
                      if role is not None]
            spec = ("ragged", tuple(roles))
        elif name in nest.scalars:
            names.append(nest.scalars[name].name)
            spec = ("scalar", nest.scalars[name].role(nest.floats_only))
        fields.append(spec)
    fold_columns = []
    for buffer_name, (col, _values) in nest.folds.items():
        fold_columns.append(names.index(col.name))
        names += [f"_bk_{buffer_name}", f"_bs_{buffer_name}"]

    lines = ["def _synth_kernel(block, kctx):"]
    out = lines.append
    out("    _prep = kctx.cache.get('_seg')")
    out("    if _prep is None:")
    out("        _prep = kctx.cache['_seg'] = _segment(block)")
    out("    if _prep.__class__ is str:  # the data guard said no")
    out("        return _block_loop(block, kctx)")
    out(f"    ({', '.join(names)},) = _prep")
    lines.extend(_prologue(nest, sorted({array for array, _ in nest.reads})))
    lines.extend("    " + line for line in nest.lines)
    for array, index in nest.reads:
        out(f"    kctx.account_reads({array}, {index})")
    for buffer_name, (_col, values) in nest.folds.items():
        out(f"    kctx.buffer_fold({buffer_name}, _bk_{buffer_name}, "
            f"_bs_{buffer_name}, {values})")

    def segment(block: Sequence[Any]) -> Any:
        block = _Block.of(block)
        prep = _kernels.segment_block(
            block.keys, block.values, tuple(key_dims), tuple(fields)
        )
        if isinstance(prep, str):
            note = f"segmented tier demoted a block to block-loop: {prep}"
            if note not in notes:
                notes.append(note)
            return prep
        for column in fold_columns:
            prep += _kernels.fold_slots(prep[column])
        return prep

    return "\n".join(lines) + "\n", segment


# --------------------------------------------------------------------------- #
# block-loop: the body's statements with direct dense access + bulk accounting
# --------------------------------------------------------------------------- #


class _BlockLoop:
    """Keep the body's statements; replace broker dispatch with direct
    dense-array access, per-site accounting lists, and one ordered
    ``buffer_add`` per buffer."""

    def __init__(self, info: LoopInfo, env: Dict[str, Any]):
        self.info = info
        self.env = env
        self.tainted: Set[str] = set()
        #: DistArray and buffer names: what only a rewritten subscript may touch.
        self.dist_names = set(info.arrays) | set(info.buffers)
        self.sites: List[Tuple[str, str, bool]] = []  # (list name, array, write)
        self._counter = 0
        self._loops = 0  # inner loops around the statement being rewritten

    # -------- taint analysis ---------------------------------------------- #

    def _expr_tainted(self, node: ast.expr) -> bool:
        """Whether an expression may depend on mutable array state (or other
        per-epoch-varying state such as RNG draws)."""
        for sub_node in ast.walk(node):
            if isinstance(sub_node, ast.Name) and sub_node.id in self.tainted:
                return True
            if _base_of(sub_node, self.dist_names):
                return True
            if isinstance(sub_node, ast.Call):
                func = sub_node.func
                if not (
                    isinstance(func, ast.Name)
                    and func.id in _PURE_BUILTINS
                    and func.id not in self.env
                ) and not (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and self.env.get(func.value.id) is np
                ):
                    return True
            if isinstance(sub_node, (ast.Lambda, ast.NamedExpr)):
                return True
        return False

    def _compute_taints(self, tree: ast.FunctionDef) -> None:
        """Fixpoint over the whole body (handles backward flow in loops)."""
        changed = True
        while changed:
            changed = False
            for node in ast.walk(tree):
                names: List[str] = []
                tainted = False
                if isinstance(node, ast.Assign):
                    tainted = self._expr_tainted(node.value)
                    for target in node.targets:
                        names.extend(_binding_names(target))
                elif isinstance(node, ast.AugAssign) and \
                        isinstance(node.target, ast.Name):
                    tainted = self._expr_tainted(node.value)
                    names.append(node.target.id)
                elif isinstance(node, ast.For):
                    tainted = self._expr_tainted(node.iter)
                    names.extend(_binding_names(node.target))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    tainted = True
                    names.append(node.name)
                if tainted:
                    for name in names:
                        if name not in self.tainted:
                            self.tainted.add(name)
                            changed = True

    # -------- expression rewriting ---------------------------------------- #

    def _new_id(self) -> int:
        self._counter += 1
        return self._counter

    def _index_source(self, node: ast.Subscript) -> str:
        """Runtime index value of a subscript, as source (slices become
        ``slice()`` objects so the value can be recorded for accounting)."""
        def convert(element: ast.expr) -> str:
            if isinstance(element, ast.Slice):
                if element.step is not None:
                    raise _Fallback("W501", "stepped slice subscript", element)
                if element.lower is None and element.upper is None:
                    return "_FULL"
                lo = "None" if element.lower is None else ast.unparse(element.lower)
                hi = "None" if element.upper is None else ast.unparse(element.upper)
                return f"slice({lo}, {hi})"
            return ast.unparse(element)

        if isinstance(node.slice, ast.Tuple):
            return "(" + ", ".join(convert(e) for e in node.slice.elts) + ")"
        return convert(node.slice)

    def _contains_array_read(self, node: ast.AST) -> bool:
        return any(_base_of(sub, self.dist_names) for sub in ast.walk(node))

    def _rewrite_reads(self, node: ast.expr) -> Tuple[ast.expr, List[str]]:
        """Hoist every DistArray read in an expression into pre-lines.

        Returns the rewritten expression and the hoisted source lines, in
        left-to-right evaluation order.
        """
        pre: List[str] = []
        outer = self

        class _Reads(ast.NodeTransformer):
            def visit(self, node_: ast.AST) -> ast.AST:
                # Constructs that may skip or repeat what they contain.
                what = _OPAQUE.get(type(node_))
                if isinstance(node_, ast.Compare) and len(node_.ops) > 1:
                    what = "a chained comparison"
                if what is None:
                    return super().visit(node_)
                if outer._contains_array_read(node_):
                    raise _Fallback(
                        "W501", f"DistArray access inside {what}", node_
                    )
                return node_

            def visit_NamedExpr(self, node_: ast.NamedExpr) -> ast.AST:
                raise _Fallback("W501", "assignment expression (:=)", node_)

            def visit_Name(self, node_: ast.Name) -> ast.AST:
                # Any array subscript was already replaced, so a surviving
                # bare DistArray name escapes the batching contract (for
                # example handed whole to a helper function).
                if node_.id in outer.dist_names:
                    raise _Fallback(
                        "W501",
                        f"bare DistArray reference {node_.id!r}",
                        node_,
                    )
                return node_

            def visit_Attribute(self, node_: ast.Attribute) -> ast.AST:
                if isinstance(node_.value, ast.Name) and \
                        node_.value.id in outer.dist_names:
                    raise _Fallback(
                        "W501",
                        f"method/attribute access on DistArray "
                        f"{node_.value.id!r}",
                        node_,
                    )
                return self.generic_visit(node_)

            def visit_Subscript(self, node_: ast.Subscript) -> ast.AST:
                buffer_name = _base_of(node_, outer.info.buffers)
                if buffer_name is not None:
                    raise _Fallback(
                        "W501", f"read of buffer {buffer_name!r}", node_
                    )
                array_name = _base_of(node_, outer.info.arrays)
                if array_name is None:
                    return self.generic_visit(node_)
                for element in ast.walk(node_.slice):
                    if isinstance(element, ast.Name) and \
                            element.id in outer.tainted:
                        raise _Fallback(
                            "W502",
                            f"read of {array_name!r} through a "
                            f"state-dependent subscript",
                            node_,
                        )
                if outer._contains_array_read(node_.slice):
                    raise _Fallback(
                        "W502",
                        f"read of {array_name!r} subscripted by another "
                        f"DistArray read",
                        node_,
                    )
                site = outer._new_id()
                list_name = f"_rd{site}"
                outer.sites.append((list_name, array_name, False))
                pre.append(f"_ix{site} = {outer._index_source(node_)}")
                pre.append(f"{list_name}.append(_ix{site})")
                return ast.copy_location(
                    ast.parse(f"_nd_{array_name}[_ix{site}]", mode="eval").body,
                    node_,
                )

        new = _Reads().visit(copy.deepcopy(node))
        ast.fix_missing_locations(new)
        return new, pre

    # -------- statement rewriting ----------------------------------------- #

    def _stmt(self, node: ast.stmt, indent: str, out: List[str]) -> None:
        if isinstance(node, ast.Expr):
            if isinstance(node.value, (ast.Constant, ast.Name)):
                return  # docstring or no-op
            new, pre = self._rewrite_reads(node.value)
            out.extend(indent + line for line in pre)
            out.append(indent + ast.unparse(new))
            return
        if isinstance(node, ast.Assign):
            self._assign(node, indent, out)
            return
        if isinstance(node, ast.AugAssign):
            self._augassign(node, indent, out)
            return
        if isinstance(node, ast.If):
            if self._expr_tainted(node.test):
                raise _Fallback(
                    "W502", "branch on a state-dependent condition", node
                )
            test, pre = self._rewrite_reads(node.test)
            out.extend(indent + line for line in pre)
            out.append(indent + f"if {ast.unparse(test)}:")
            self._block(node.body, indent + "    ", out)
            if node.orelse:
                out.append(indent + "else:")
                self._block(node.orelse, indent + "    ", out)
            return
        if isinstance(node, ast.For):
            if node.orelse:
                raise _Fallback("W501", "for/else", node)
            if self._expr_tainted(node.iter):
                raise _Fallback(
                    "W502", "loop over a state-dependent iterable", node
                )
            iter_new, pre = self._rewrite_reads(node.iter)
            out.extend(indent + line for line in pre)
            out.append(
                indent
                + f"for {ast.unparse(node.target)} in {ast.unparse(iter_new)}:"
            )
            self._loops += 1
            self._block(node.body, indent + "    ", out)
            self._loops -= 1
            return
        if isinstance(node, ast.Return):
            # At body level a bare return ends the entry: the next one.
            if self._loops:
                raise _Fallback("W501", "return inside an inner loop", node)
            if node.value is None or (
                isinstance(node.value, ast.Constant) and node.value.value is None
            ):
                out.append(indent + "continue")
                return
            raise _Fallback("W501", "return with a value", node)
        if isinstance(node, (ast.Pass, ast.Break, ast.Continue)):
            out.append(indent + ast.unparse(node))
            return
        if isinstance(node, ast.FunctionDef):
            if self._contains_array_read(node):
                raise _Fallback(
                    "W501", "nested function touching a DistArray", node
                )
            out.extend(indent + line for line in ast.unparse(node).splitlines())
            return
        raise _Fallback(
            "W501", f"unsupported statement ({type(node).__name__})", node
        )

    def _block(self, stmts: Sequence[ast.stmt], indent: str,
               out: List[str]) -> None:
        before = len(out)
        for stmt in stmts:
            self._stmt(stmt, indent, out)
        if len(out) == before:
            out.append(indent + "pass")

    def _assign(self, node: ast.Assign, indent: str, out: List[str]) -> None:
        if len(node.targets) != 1:
            raise _Fallback("W501", "chained assignment", node)
        target = node.targets[0]
        array_name = _base_of(target, self.info.arrays)
        buffer_name = _base_of(target, self.info.buffers)
        value, pre = self._rewrite_reads(node.value)
        value_src = ast.unparse(value)
        if array_name is None and buffer_name is None:
            if isinstance(target, ast.Tuple) and not all(
                isinstance(e, ast.Name) for e in target.elts
            ):
                raise _Fallback("W501", "complex unpacking target", node)
            if isinstance(target, ast.Subscript):
                # Local-container store; its index may still read an array.
                target, target_pre = self._rewrite_reads(target)
                pre = pre + target_pre
            out.extend(indent + line for line in pre)
            out.append(indent + f"{ast.unparse(target)} = {value_src}")
            return
        assert isinstance(target, ast.Subscript)
        if array_name is not None and self._expr_tainted(target.slice):
            raise _Fallback(
                "W502",
                f"write to {array_name!r} through a state-dependent subscript",
                target,
            )
        n = self._new_id()
        out.extend(indent + line for line in pre)
        out.append(indent + f"_v{n} = {value_src}")
        out.append(indent + f"_ix{n} = {self._index_source(target)}")
        if array_name is not None:
            list_name = f"_wr{n}"
            self.sites.append((list_name, array_name, True))
            out.append(indent + f"{list_name}.append(_ix{n})")
            out.append(indent + f"_nd_{array_name}[_ix{n}] = _v{n}")
        else:
            out.append(indent + f"_bi_{buffer_name}.append(_ix{n})")
            out.append(indent + f"_bv_{buffer_name}.append(_v{n})")

    def _augassign(self, node: ast.AugAssign, indent: str,
                   out: List[str]) -> None:
        target = node.target
        array_name = _base_of(target, self.info.arrays)
        if _base_of(target, self.info.buffers) is not None:
            raise _Fallback("W501", "augmented assignment to a buffer", node)
        value, pre = self._rewrite_reads(node.value)
        value_src = ast.unparse(value)
        op_map = {
            ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
        }
        if array_name is None:
            sym = op_map.get(type(node.op))
            if not isinstance(target, (ast.Name, ast.Subscript)) or sym is None:
                raise _Fallback("W501", "unsupported augmented assignment", node)
            if isinstance(target, ast.Subscript):
                target, target_pre = self._rewrite_reads(target)
                pre = pre + target_pre
            out.extend(indent + line for line in pre)
            out.append(indent + f"{ast.unparse(target)} {sym}= {value_src}")
            return
        assert isinstance(target, ast.Subscript)
        sym = op_map.get(type(node.op))
        if sym is None:
            raise _Fallback("W501", "unsupported augmented operator", node)
        if self._expr_tainted(target.slice):
            raise _Fallback(
                "W502",
                f"update of {array_name!r} through a state-dependent "
                f"subscript",
                target,
            )
        n = self._new_id()
        read_list, write_list = f"_rd{n}", f"_wr{n}"
        self.sites.append((read_list, array_name, False))
        self.sites.append((write_list, array_name, True))
        out.append(indent + f"_ix{n} = {self._index_source(target)}")
        out.append(indent + f"{read_list}.append(_ix{n})")
        out.append(indent + f"{write_list}.append(_ix{n})")
        out.extend(indent + line for line in pre)
        out.append(indent + f"_nd_{array_name}[_ix{n}] {sym}= {value_src}")

    # -------- assembly ----------------------------------------------------- #

    def build(self) -> str:
        info = self.info
        assert info.tree is not None
        self._compute_taints(info.tree)
        body_lines: List[str] = []
        for stmt in info.tree.body:
            self._stmt(stmt, "        ", body_lines)
        if not body_lines:
            body_lines.append("        pass")

        lines: List[str] = ["def _synth_kernel(block, kctx):"]
        touched = sorted({array for _lst, array, _w in self.sites})
        for name in touched:
            lines.append(f"    _nd_{name} = {name}.values")
        for list_name, _array, _write in self.sites:
            lines.append(f"    {list_name} = []")
        for buffer_name in info.buffers:
            lines.append(f"    _bi_{buffer_name} = []")
            lines.append(f"    _bv_{buffer_name} = []")
        value_param = info.value_param if info.value_param else "_unused_value"
        lines.append(f"    for {info.index_param}, {value_param} in block:")
        lines.extend(body_lines)
        for list_name, array, write in self.sites:
            method = "account_writes" if write else "account_reads"
            lines.append(f"    kctx.{method}({array}, {list_name})")
        for buffer_name in info.buffers:
            lines.append(
                f"    kctx.buffer_add({buffer_name}, "
                f"_bi_{buffer_name}, _bv_{buffer_name})"
            )
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #


def _compile_kernel(source: str, env: Dict[str, Any], info: LoopInfo,
                    **helpers: Any) -> Callable[..., Any]:
    glb = dict(env)
    glb.update(
        _snp=np,
        _vecdot=_vecdot,
        _scalar_pow=_kernels.scalar_pow,
        _level_schedule=_kernels.level_schedule,
        _as_block=_Block.of,
        _FULL=slice(None),
        **helpers,
    )
    code = compile(source, f"<synth:{info.source_file or 'loop body'}>", "exec")
    exec(code, glb)
    return glb["_synth_kernel"]


def synthesize_kernel(body: Callable[..., Any], info: LoopInfo) -> SynthResult:
    """Synthesize a block kernel for an analyzed loop body.

    Lowers the body once (:class:`_LoopNest`) and emits the vector kernel
    from it, else the block-loop kernel, with the segmented kernel on top
    of block-loop when the lowering admits one.  On success the result's
    ``kernel`` satisfies the contract in :mod:`repro.runtime.kernels`
    (bit-identical state, identical accounting, deterministic
    declarations).  On failure the result carries a W501/W502 diagnostic
    naming the first construct the block-loop tier could not handle (the
    NumPy emitters' reasons are kept as notes).

    A segmented kernel is emitted *with its guard*: what it assumes about
    the data (arity of the ragged items, integer in-range subscripts, real
    values) is checked once per block, and a block that fails runs the
    block-loop kernel of the same body — so the tier needs that one to
    compile too.
    """
    env = ast_utils.resolve_free_variables(body)
    result = SynthResult()
    helpers: Dict[str, Any] = {}
    try:
        _check_common(info)
        nest = _LoopNest(info, env)
        try:
            source = _emit_vector(nest)
            result.tier = "vector"
            # The lowering refused buffers, _check_common accumulators, and
            # every declaration is over the per-entry index arrays.
            result.fusable = True
        except _Fallback as vector_reason:
            result.notes.append(
                f"vector tier unavailable: {vector_reason.message}"
            )
            source = _BlockLoop(info, env).build()
            result.tier = "block-loop"
            try:
                segmented, segment = _emit_segmented(nest, result.notes)
            except _Fallback as segmented_reason:
                result.notes.append(
                    f"segmented tier unavailable: {segmented_reason.message}"
                )
            else:
                source, result.fallback_source = segmented, source
                result.tier = "segmented"
                helpers = dict(
                    _segment=segment,
                    _block_loop=_compile_kernel(
                        result.fallback_source, env, info
                    ),
                )
    except _Fallback as failure:
        result.diagnostics.append(
            Diagnostic(
                code=failure.code,
                message=f"synthesis fell back: {failure.message}",
                location=location_of(
                    info.tree if failure.node is None else failure.node,
                    info.source_file,
                ),
                hint="the scalar interpreter runs this loop; pass a "
                     "kernel callable or simplify the body to batch it",
            )
        )
        if result.notes == [f"vector tier unavailable: {failure.message}"]:
            result.notes.clear()
        return result
    try:
        result.kernel = _compile_kernel(source, env, info, **helpers)
        result.source = source
    except Exception as exc:  # defensive: emitted code must always compile
        result.tier = None
        result.diagnostics.append(
            Diagnostic(
                code="W501",
                message=f"synthesis fell back: generated kernel failed to "
                        f"compile ({exc})",
                location=location_of(info.tree, info.source_file),
            )
        )
    return result


def kernel_batching_legal(info: LoopInfo, plan: Plan) -> Tuple[bool, str]:
    """Whether a plan permits batched (whole-block) kernel execution.

    A kernel replaces the per-entry body loop with one call per block, so
    it is legal exactly when the schedule already treats the block as one
    sequential unit whose relaxed dependences all flow through buffers:

    * 2D plans (ordered or unordered): each block owns disjoint rotated
      partitions, so intra-block entries are free to batch.
    * 1D / data-parallel plans: legal only when the body's shared writes
      go through DistArray Buffers (otherwise direct writes may carry
      loop-ordered dependences the analysis preserved by other means).
    * Unimodular-transformed plans: blocks follow skewed wavefronts; the
      scalar path keeps the transformed order, so no batching.
    * ``max_delay`` buffers flush mid-block on the scalar path; a batched
      kernel cannot reproduce that timing, so fall back.

    Returns ``(legal, reason)``; ``reason`` explains a ``False`` verdict.
    """
    if any(
        buffer.max_delay is not None for buffer in info.buffers.values()
    ):
        return False, "max_delay buffers flush mid-block on the scalar path"
    if plan.strategy is Strategy.TWO_D:
        return True, ""
    if plan.strategy in (Strategy.ONE_D, Strategy.DATA_PARALLEL):
        if info.buffers:
            return True, ""
        return False, (
            "1D/data-parallel plans only batch bodies whose shared writes "
            "go through buffers"
        )
    return False, f"{plan.strategy.name} blocks are not batchable"


def plan_refusal(info: LoopInfo, plan: Plan) -> List[Diagnostic]:
    """W503 when ``plan`` refuses batched execution of a successfully
    synthesized kernel (e.g. a parameter-server loop without buffered
    writes); empty when it batches."""
    legal, reason = kernel_batching_legal(info, plan)
    if legal:
        return []
    return [
        Diagnostic(
            code="W503",
            message=f"synthesized kernel is unused: {reason}",
            location=location_of(info.tree, info.source_file),
        )
    ]


def synth_report(
    body: Callable[..., Any],
    iteration_space: Any,
    ordered: bool = False,
) -> Tuple[SynthResult, List[Diagnostic]]:
    """Analyze + synthesize without executing (CLI/demo helper).

    Returns the synthesis result plus the loop's full diagnostic list
    (analysis warnings, the W50x fallback codes, and W503 when the chosen
    plan refuses batched execution of a successfully synthesized kernel).
    """
    info = analyze_loop_body(body, iteration_space, ordered=ordered)
    plan = choose_plan(info)
    result = synthesize_kernel(body, info)
    diagnostics = list(info.diagnostics) + list(result.diagnostics)
    if result.engaged:
        diagnostics += plan_refusal(info, plan)
    return result, diagnostics
