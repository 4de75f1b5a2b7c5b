"""Bulk-prefetch function synthesis (paper Sec. 4.4).

When a DistArray is served by parameter servers, per-element random access
pays a network round trip.  Orion synthesizes, from the loop body, a
*prefetch function* that executes only the statements the DistArray read
subscripts depend on (data and control dependences, kept with proper
control flow) and, instead of reading elements and computing, records the
subscript values to fetch in bulk.  Subscripts that depend on values read
from DistArrays are not recorded (fetching them would itself need remote
access).  The construction is in spirit dead-code elimination run backward
from the subscript expressions.

The synthesis here is a static backward slice over the body function's AST:

1. *Taint pass* — local names (transitively) derived from server-array
   reads are tainted; tainted subscripts are not recorded.
2. *Site pass* — untainted read subscripts of server arrays become record
   sites.
3. *Slice pass* — names appearing in recorded subscripts, pulled backward
   through assignments and loop/branch headers, form the needed set.
4. *Emit pass* — a new function is generated containing only needed
   assignments, the control-flow shells around them, and
   ``__record__(array, index)`` calls; it returns the recorded index list.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import ast_utils
from repro.analysis.loop_info import LoopInfo
from repro.errors import AnalysisError

__all__ = ["PrefetchFunction", "synthesize_prefetch"]

_RECORD = "__record__"
_OUT = "__prefetch_out__"


@dataclass
class PrefetchFunction:
    """A synthesized prefetch function plus metadata.

    Calling ``fn(key, value)`` returns a list of ``(array_name, index)``
    pairs naming the server-array elements the loop body will read for this
    iteration.  ``source`` keeps the generated code for inspection/tests.
    ``constant`` says no recorded subscript names a variable (LDA's
    ``topic_sum[:]``): every iteration records the same indices.
    """

    fn: Callable[..., List[Tuple[str, Tuple[Any, ...]]]]
    arrays: Tuple[str, ...]
    source: str
    constant: bool = False

    def __call__(self, key: Any, value: Any = None) -> List[Tuple[str, Tuple[Any, ...]]]:
        return self.fn(key, value)


def _load_names(node: ast.AST) -> Set[str]:
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    }


def _target_names(target: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for child in ast.walk(target):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
    return names


def _server_reads(node: ast.AST, server_arrays: Set[str]) -> List[ast.Subscript]:
    """All Load-context subscripts of server arrays inside ``node``."""
    out = []
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Subscript)
            and isinstance(child.ctx, ast.Load)
            and isinstance(child.value, ast.Name)
            and child.value.id in server_arrays
        ):
            out.append(child)
    return out


def _contains_server_read(node: ast.AST, server_arrays: Set[str]) -> bool:
    return bool(_server_reads(node, server_arrays))


class _TaintPass:
    """Flow-insensitive fixpoint marking names derived from server reads.

    Both data taint (assigned from a server read or a tainted name) and
    control taint (assigned under a branch/loop whose header is tainted)
    propagate — a control-tainted variable's value cannot be computed by
    the prefetch function, so subscripts using it must not be recorded.
    """

    def __init__(self, server_arrays: Set[str]) -> None:
        self.server_arrays = server_arrays
        self.tainted: Set[str] = set()

    def run(self, body: Sequence[ast.stmt]) -> Set[str]:
        changed = True
        while changed:
            changed = False
            for stmt in body:
                changed |= self._visit(stmt, control_tainted=False)
        return self.tainted

    def _taint_targets(
        self, targets: Set[str], value: ast.AST, control_tainted: bool
    ) -> bool:
        dirty = (
            control_tainted
            or _contains_server_read(value, self.server_arrays)
            or bool(_load_names(value) & self.tainted)
        )
        if dirty and not targets <= self.tainted:
            self.tainted |= targets
            return True
        return False

    def _visit(self, stmt: ast.stmt, control_tainted: bool) -> bool:
        changed = False
        if isinstance(stmt, ast.Assign):
            targets: Set[str] = set()
            for target in stmt.targets:
                targets |= _target_names(target)
            changed |= self._taint_targets(targets, stmt.value, control_tainted)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                changed |= self._taint_targets(
                    {stmt.target.id}, stmt.value, control_tainted
                )
        elif isinstance(stmt, (ast.For, ast.While, ast.If)):
            header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
            header_tainted = control_tainted or _expr_is_tainted(
                header, self.tainted, self.server_arrays
            )
            if isinstance(stmt, ast.For):
                targets = _target_names(stmt.target)
                changed |= self._taint_targets(targets, header, header_tainted)
            for child in list(stmt.body) + list(getattr(stmt, "orelse", [])):
                changed |= self._visit(child, header_tainted)
        return changed


def _expr_is_tainted(node: ast.AST, tainted: Set[str], server_arrays: Set[str]) -> bool:
    if _load_names(node) & tainted:
        return True
    return _contains_server_read(node, server_arrays)


def _subscript_elements(node: ast.Subscript) -> List[ast.expr]:
    if isinstance(node.slice, ast.Tuple):
        return list(node.slice.elts)
    return [node.slice]


def _record_call(array_name: str, node: ast.Subscript) -> ast.stmt:
    """Build ``__prefetch_out__.append((name, (e1, e2, ...)))``."""
    elements: List[ast.expr] = []
    for element in _subscript_elements(node):
        if isinstance(element, ast.Slice):
            lower = element.lower or ast.Constant(value=None)
            upper = element.upper or ast.Constant(value=None)
            elements.append(
                ast.Call(
                    func=ast.Name(id="slice", ctx=ast.Load()),
                    args=[copy.deepcopy(lower), copy.deepcopy(upper)],
                    keywords=[],
                )
            )
        else:
            elements.append(copy.deepcopy(element))
    index_tuple = ast.Tuple(elts=elements, ctx=ast.Load())
    payload = ast.Tuple(
        elts=[ast.Constant(value=array_name), index_tuple], ctx=ast.Load()
    )
    call = ast.Call(
        func=ast.Attribute(
            value=ast.Name(id=_OUT, ctx=ast.Load()), attr="append", ctx=ast.Load()
        ),
        args=[payload],
        keywords=[],
    )
    return ast.Expr(value=call)


class _Slicer:
    """Backward slice + emit: produce the pruned statement list."""

    def __init__(
        self,
        server_arrays: Set[str],
        tainted: Set[str],
        index_param: str,
        value_param: Optional[str],
    ) -> None:
        self.server_arrays = server_arrays
        self.tainted = tainted
        self.available = {index_param}
        if value_param:
            self.available.add(value_param)
        self.needed: Set[str] = set()
        self.recorded_arrays: Set[str] = set()

    # ---- pass 3: compute the needed-name set ------------------------- #

    def compute_needed(self, body: Sequence[ast.stmt]) -> None:
        changed = True
        while changed:
            changed = False
            changed |= self._need_walk(body, control_tainted=False)

    def _record_sites(self, stmt: ast.AST) -> List[ast.Subscript]:
        sites = []
        for node in _server_reads(stmt, self.server_arrays):
            if any(
                _expr_is_tainted(element, self.tainted, self.server_arrays)
                for element in _subscript_elements(node)
            ):
                continue
            sites.append(node)
        return sites

    def _need_walk(self, body: Sequence[ast.stmt], control_tainted: bool) -> bool:
        changed = False
        for stmt in body:
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                if not control_tainted:
                    for site in self._record_sites(stmt):
                        for element in _subscript_elements(site):
                            before = len(self.needed)
                            self.needed |= _load_names(element)
                            changed |= len(self.needed) != before
                targets: Set[str] = set()
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        targets |= _target_names(target)
                elif isinstance(stmt.target, ast.Name):
                    targets = {stmt.target.id}
                if targets & self.needed:
                    source = stmt.value
                    if not _contains_server_read(source, self.server_arrays):
                        before = len(self.needed)
                        self.needed |= _load_names(source)
                        changed |= len(self.needed) != before
            elif isinstance(stmt, (ast.For, ast.While, ast.If)):
                header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
                header_tainted = control_tainted or _expr_is_tainted(
                    header, self.tainted, self.server_arrays
                )
                # The header's own server reads are recordable (their
                # subscripts are statically evaluable even when the header
                # *value* taints everything underneath it).
                if not control_tainted:
                    for site in self._record_sites(header):
                        for element in _subscript_elements(site):
                            before = len(self.needed)
                            self.needed |= _load_names(element)
                            changed |= len(self.needed) != before
                changed |= self._need_walk(stmt.body, header_tainted)
                changed |= self._need_walk(
                    getattr(stmt, "orelse", []), header_tainted
                )
                # If anything inside is needed or recordable, the header's
                # names become needed (control dependence).
                if not header_tainted and self._subtree_is_live(stmt):
                    before = len(self.needed)
                    self.needed |= _load_names(header)
                    if isinstance(stmt, ast.For):
                        self.needed |= _target_names(stmt.target)
                    changed |= len(self.needed) != before
            elif isinstance(stmt, ast.Expr) and not control_tainted:
                for site in self._record_sites(stmt):
                    for element in _subscript_elements(site):
                        before = len(self.needed)
                        self.needed |= _load_names(element)
                        changed |= len(self.needed) != before
        return changed

    def _subtree_is_live(self, stmt: ast.stmt) -> bool:
        for child in ast.walk(stmt):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.Expr)):
                if self._record_sites(child):
                    return True
                if isinstance(child, ast.Assign):
                    targets: Set[str] = set()
                    for target in child.targets:
                        targets |= _target_names(target)
                    if targets & self.needed:
                        return True
                elif isinstance(child, ast.AugAssign) and isinstance(
                    child.target, ast.Name
                ):
                    if child.target.id in self.needed:
                        return True
        return False

    # ---- pass 4: emit the pruned body --------------------------------- #

    def emit(self, body: Sequence[ast.stmt], control_tainted: bool) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for stmt in body:
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                if not control_tainted:
                    for site in self._record_sites(stmt):
                        name = site.value.id  # type: ignore[union-attr]
                        self.recorded_arrays.add(name)
                        out.append(_record_call(name, site))
                targets: Set[str] = set()
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        targets |= _target_names(target)
                elif isinstance(stmt.target, ast.Name):
                    targets = {stmt.target.id}
                if targets & self.needed and not _contains_server_read(
                    stmt.value, self.server_arrays
                ):
                    out.append(copy.deepcopy(stmt))
            elif isinstance(stmt, (ast.For, ast.While, ast.If)):
                header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
                header_tainted = control_tainted or _expr_is_tainted(
                    header, self.tainted, self.server_arrays
                )
                if not control_tainted:
                    for site in self._record_sites(header):
                        name = site.value.id  # type: ignore[union-attr]
                        self.recorded_arrays.add(name)
                        out.append(_record_call(name, site))
                inner = self.emit(stmt.body, header_tainted)
                inner_else = self.emit(getattr(stmt, "orelse", []), header_tainted)
                if not inner and not inner_else:
                    continue
                if header_tainted:
                    # The branch/loop condition needs remote values the
                    # prefetch function must not fetch: drop the subtree.
                    continue
                shell = copy.deepcopy(stmt)
                shell.body = inner or [ast.Pass()]
                if hasattr(shell, "orelse"):
                    shell.orelse = inner_else
                out.append(shell)
            elif isinstance(stmt, ast.Expr) and not control_tainted:
                for site in self._record_sites(stmt):
                    name = site.value.id  # type: ignore[union-attr]
                    self.recorded_arrays.add(name)
                    out.append(_record_call(name, site))
        return out


def synthesize_prefetch(
    body_fn: Callable[..., Any],
    info: LoopInfo,
    server_arrays: Sequence[str],
) -> Optional[PrefetchFunction]:
    """Generate the bulk-prefetch function for a loop body.

    Args:
        body_fn: the original loop-body function (for its environment).
        info: the loop's static analysis (provides the parsed tree).
        server_arrays: names of arrays served by parameter servers whose
            reads should be prefetched.

    Returns:
        A :class:`PrefetchFunction`, or ``None`` when nothing is recordable
        (every read subscript is value-dependent on other DistArray reads).
    """
    if info.tree is None:
        raise AnalysisError("loop info carries no AST; re-run analysis")
    servers = set(server_arrays)
    if not servers:
        return None
    body = info.tree.body
    tainted = _TaintPass(servers).run(body)
    slicer = _Slicer(servers, tainted, info.index_param, info.value_param)
    slicer.compute_needed(body)
    pruned = slicer.emit(body, control_tainted=False)
    if not slicer.recorded_arrays:
        return None

    args = [ast.arg(arg=info.index_param)]
    args.append(ast.arg(arg=info.value_param or "__unused_value__"))
    new_fn = ast.FunctionDef(
        name="__prefetch__",
        args=ast.arguments(
            posonlyargs=[], args=args, kwonlyargs=[], kw_defaults=[],
            defaults=[], vararg=None, kwarg=None,
        ),
        body=(
            [
                ast.Assign(
                    targets=[ast.Name(id=_OUT, ctx=ast.Store())],
                    value=ast.List(elts=[], ctx=ast.Load()),
                )
            ]
            + pruned
            + [ast.Return(value=ast.Name(id=_OUT, ctx=ast.Load()))]
        ),
        decorator_list=[],
    )
    module = ast.Module(body=[new_fn], type_ignores=[])
    ast.fix_missing_locations(module)
    source = ast.unparse(module)
    env = dict(ast_utils.resolve_free_variables(body_fn))
    exec_globals: Dict[str, Any] = dict(env)
    code = compile(module, filename="<orion-prefetch>", mode="exec")
    exec(code, exec_globals)
    return PrefetchFunction(
        fn=exec_globals["__prefetch__"],
        arrays=tuple(sorted(slicer.recorded_arrays)),
        source=source,
        constant=not slicer.needed,
    )
