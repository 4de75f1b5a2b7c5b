"""Static extraction of loop information from a loop-body function.

This is the first stage of the paper's Fig. 6 pipeline: given the loop body
and the iteration-space DistArray, recover

* the loop index vector and its per-dimension aliases,
* every static DistArray reference with its subscript pattern,
* writes routed to DistArray Buffers (exempt from dependence analysis),
* accumulator updates,
* inherited driver-program variables (captured and, on a real cluster,
  broadcast read-only to workers).
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis import ast_utils
from repro.analysis.depvec import ArrayRef
from repro.analysis.lint import Diagnostic, SourceLocation, location_of
from repro.analysis.subscript import Axis, SubscriptKind, index
from repro.core.accumulator import Accumulator
from repro.core.buffers import DistArrayBuffer
from repro.core.distarray import DistArray
from repro.errors import AnalysisError

__all__ = ["LoopInfo", "analyze_loop_body"]


@dataclass
class LoopInfo:
    """Everything static analysis learned about one parallel for-loop."""

    iteration_space: DistArray
    num_iter_dims: int
    index_param: str
    value_param: Optional[str]
    ordered: bool
    #: Static references per DistArray name (dependence-relevant ones).
    refs: Dict[str, List[ArrayRef]] = field(default_factory=dict)
    #: Name -> DistArray for every array referenced in the body.
    arrays: Dict[str, DistArray] = field(default_factory=dict)
    #: Name -> DistArrayBuffer for every buffer written in the body.
    buffers: Dict[str, DistArrayBuffer] = field(default_factory=dict)
    #: Buffered writes (exempt from dependence analysis), per buffer name.
    buffer_refs: Dict[str, List[ArrayRef]] = field(default_factory=dict)
    #: Names of accumulators updated by the body.
    accumulators: Set[str] = field(default_factory=set)
    #: Name -> Accumulator object for accumulators updated by the body.
    accumulator_refs: Dict[str, Accumulator] = field(default_factory=dict)
    #: Inherited driver variables (name -> current value at analysis time).
    inherited: Dict[str, Any] = field(default_factory=dict)
    #: The body's FunctionDef, kept for prefetch-function synthesis.
    tree: Optional[ast.FunctionDef] = None
    #: Loop-index aliases discovered in the body (for prefetch synthesis).
    index_bindings: Dict[str, ast_utils.IndexBinding] = field(default_factory=dict)
    #: The file the body was defined in, for diagnostic locations.
    source_file: Optional[str] = None
    #: Lint warnings collected during analysis (W-codes; hard failures
    #: raise instead, carrying their E-code diagnostic on the exception).
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def arrays_with_unknown_subscripts(self) -> Set[str]:
        """Array names read or written through a data-dependent subscript."""
        out = set()
        for name, refs in self.refs.items():
            for ref in refs:
                if any(a.kind is SubscriptKind.UNKNOWN for a in ref.axes):
                    out.add(name)
        return out

    def written_arrays(self) -> Set[str]:
        """Array names with at least one non-buffered write."""
        return {
            name
            for name, refs in self.refs.items()
            if any(ref.is_write for ref in refs)
        }

    def pinned_array_dim(self, name: str, iter_dim: int) -> Optional[int]:
        """The array dimension consistently indexed by ``iter_dim``.

        Returns the array dimension ``a`` such that *every* static reference
        to the array subscripts position ``a`` with ``key[iter_dim] ± c``,
        or ``None`` when some reference does not (then partitioning the
        array on ``a`` would not make all of the loop's accesses local).
        """
        pinned: Optional[int] = None
        for ref in self.refs.get(name, []):
            ref_dim: Optional[int] = None
            for array_dim, axis in enumerate(ref.axes):
                if axis.kind is SubscriptKind.INDEX and axis.dim_idx == iter_dim:
                    ref_dim = array_dim
                    break
            if ref_dim is None:
                return None
            if pinned is None:
                pinned = ref_dim
            elif pinned != ref_dim:
                return None
        return pinned


class _BodyVisitor(ast.NodeVisitor):
    """AST walk collecting references, bindings and inherited names."""

    def __init__(
        self,
        env: Dict[str, Any],
        index_param: str,
        value_param: Optional[str],
        source_file: Optional[str] = None,
    ) -> None:
        self.env = env
        self.index_param = index_param
        self.value_param = value_param
        self.source_file = source_file
        self.bindings: Dict[str, ast_utils.IndexBinding] = {
            index_param: ast_utils.IndexBinding(dim_idx=None)
        }
        self._assign_counts: Dict[str, int] = {}
        self.array_refs: List[
            Tuple[str, Tuple[ast.expr, ...], bool, ast.Subscript]
        ] = []
        self.buffer_writes: List[
            Tuple[str, Tuple[ast.expr, ...], ast.Subscript]
        ] = []
        self.accumulators: Set[str] = set()
        self.loaded_names: Set[str] = set()
        self.local_names: Set[str] = set()
        self.diagnostics: List[Diagnostic] = []
        if value_param:
            self.local_names.add(value_param)
        self.local_names.add(index_param)

    def _warn(
        self, code: str, message: str, node: ast.AST, hint: Optional[str] = None
    ) -> None:
        diag = Diagnostic(
            code=code,
            message=message,
            location=location_of(node, self.source_file),
            hint=hint,
        )
        if diag not in self.diagnostics:
            self.diagnostics.append(diag)

    # -- bindings ------------------------------------------------------- #

    def _record_binding(self, name: str, binding: ast_utils.IndexBinding) -> None:
        count = self._assign_counts.get(name, 0)
        self._assign_counts[name] = count + 1
        if count == 0:
            self.bindings[name] = binding
        else:
            # Reassigned: no longer a reliable loop-index alias.
            self.bindings.pop(name, None)

    def _invalidate(self, name: str) -> None:
        self._assign_counts[name] = self._assign_counts.get(name, 0) + 1
        self.bindings.pop(name, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        # `i, j = key` gives one binding per position.
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.bindings
            and self.bindings[node.value.id].is_whole_key
        ):
            for position, element in enumerate(node.targets[0].elts):
                if isinstance(element, ast.Name):
                    self._record_binding(
                        element.id,
                        ast_utils.IndexBinding(
                            dim_idx=position,
                            location=location_of(element, self.source_file),
                        ),
                    )
                    self.local_names.add(element.id)
            self.generic_visit(node.value)
            return
        # `u = key[0] + 1` style single-name bindings.
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.local_names.add(target.id)
                indexed = ast_utils._index_expr(node.value, self.bindings)
                if indexed is not None:
                    self._record_binding(
                        target.id,
                        ast_utils.IndexBinding(
                            dim_idx=indexed[0],
                            const=indexed[1],
                            location=location_of(target, self.source_file),
                        ),
                    )
                else:
                    self._invalidate(target.id)
            elif isinstance(target, ast.Tuple):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.local_names.add(element.id)
                        self._invalidate(element.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            name = node.target.id
            # Augmenting a name that is not (yet) a body local but resolves
            # in the inherited environment mutates driver state the runtime
            # never ships back — per-iteration effects are silently lost.
            if (
                name not in self.local_names
                and name in self.env
                and self._is_inherited_data(self.env[name])
            ):
                self._warn(
                    "W301",
                    f"augmented assignment to inherited variable {name!r}; "
                    "workers mutate a private copy that is never merged",
                    node,
                    hint="use an Accumulator or a DistArray for cross-"
                    "iteration state",
                )
            self.local_names.add(name)
            self._invalidate(name)
        # An augmented subscript write reads and writes the element; the
        # Store-context Subscript is recorded by visit_Subscript, and we add
        # the implied read here.
        if isinstance(node.target, ast.Subscript):
            self._handle_subscript(node.target, is_write=False)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            self.local_names.add(node.target.id)
            self._invalidate(node.target.id)
        self.generic_visit(node)

    # -- references ----------------------------------------------------- #

    @staticmethod
    def _subscript_elements(node: ast.Subscript) -> Tuple[ast.expr, ...]:
        if isinstance(node.slice, ast.Tuple):
            return tuple(node.slice.elts)
        return (node.slice,)

    @staticmethod
    def _is_inherited_data(value: Any) -> bool:
        """Whether an env value counts as inherited driver *data* (the same
        filter ``analyze_loop_body`` applies when building ``inherited``)."""
        if isinstance(value, (DistArray, DistArrayBuffer, Accumulator)):
            return False
        if inspect.ismodule(value):
            return False
        if callable(value) and getattr(value, "__module__", "").startswith(
            ("numpy", "math", "builtins")
        ):
            return False
        return True

    def _handle_subscript(self, node: ast.Subscript, is_write: bool) -> None:
        if not isinstance(node.value, ast.Name):
            return
        name = node.value.id
        if name in self.local_names:
            return  # body-local containers are private per iteration
        bound = self.env.get(name)
        elements = self._subscript_elements(node)
        if isinstance(bound, DistArray):
            self.array_refs.append((name, elements, is_write, node))
        elif isinstance(bound, DistArrayBuffer) and is_write:
            self.buffer_writes.append((name, elements, node))
        elif is_write and name in self.env and self._is_inherited_data(bound):
            # Storing into an inherited plain container (list/dict/ndarray):
            # each worker mutates its own broadcast copy.
            self._warn(
                "W301",
                f"subscript store into inherited variable {name!r}; workers "
                "mutate a private copy that is never merged",
                node,
                hint="use a DistArray (or DistArrayBuffer) for shared state",
            )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        self._handle_subscript(node, is_write=isinstance(node.ctx, ast.Store))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # Accumulator updates: `err.add(value)`.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "add"
            and isinstance(node.func.value, ast.Name)
            and isinstance(self.env.get(node.func.value.id), Accumulator)
        ):
            self.accumulators.add(node.func.value.id)
        self._check_global_randomness(node)
        self.generic_visit(node)

    def _check_global_randomness(self, node: ast.Call) -> None:
        """W401: a draw through module-level RNG state (``random.random()``
        or ``np.random.uniform()``) is neither seeded per worker nor
        replayable — results differ run to run and across schedules.
        Calls on an explicit Generator object (``rng.integers(...)``) are
        fine and do not fire."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # `random.<fn>(...)` with `random` resolving to the stdlib module.
        if isinstance(base, ast.Name) and base.id not in self.local_names:
            value = self.env.get(base.id)
            if inspect.ismodule(value) and getattr(value, "__name__", "") in (
                "random",
                "numpy.random",
            ):
                self._warn(
                    "W401",
                    f"call to {base.id}.{func.attr}() draws from module-level "
                    "RNG state shared across workers",
                    node,
                    hint="create a seeded np.random.default_rng(...) in the "
                    "driver and call methods on it",
                )
            return
        # `np.random.<fn>(...)` attribute chains rooted at the numpy module.
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id not in self.local_names
        ):
            value = self.env.get(base.value.id)
            if inspect.ismodule(value) and getattr(value, "__name__", "") == "numpy":
                self._warn(
                    "W401",
                    f"call to {base.value.id}.random.{func.attr}() draws from "
                    "numpy's global RNG state shared across workers",
                    node,
                    hint="create a seeded np.random.default_rng(...) in the "
                    "driver and call methods on it",
                )

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loaded_names.add(node.id)
        self.generic_visit(node)


def _axes_for_ref(
    array: DistArray,
    name: str,
    elements: Tuple[ast.expr, ...],
    bindings: Dict[str, ast_utils.IndexBinding],
    num_iter_dims: int,
    location: Optional[SourceLocation] = None,
) -> Tuple[Axis, ...]:
    """Turn subscript AST elements into per-array-dimension axes."""
    at = f" at {location.describe()}" if location is not None else ""
    # Whole-key subscript, e.g. `zs[key]`: one index axis per iteration dim.
    if len(elements) == 1 and isinstance(elements[0], ast.Name):
        binding = bindings.get(elements[0].id)
        if binding is not None and binding.is_whole_key:
            if array.ndim != num_iter_dims:
                message = (
                    f"{name}[<key>] used but array has {array.ndim} dims while "
                    f"the iteration space has {num_iter_dims}"
                )
                raise AnalysisError(
                    message + at,
                    diagnostic=Diagnostic(
                        code="E102", message=message, location=location
                    ),
                )
            return tuple(index(d, 0) for d in range(num_iter_dims))
    axes = tuple(ast_utils.parse_axis(element, bindings) for element in elements)
    if len(axes) != array.ndim:
        message = (
            f"{name} subscript has {len(axes)} positions but the array has "
            f"{array.ndim} dimensions"
        )
        raise AnalysisError(
            message + at,
            diagnostic=Diagnostic(code="E102", message=message, location=location),
        )
    return axes


def analyze_loop_body(
    body: Callable[..., Any],
    iteration_space: DistArray,
    ordered: bool = False,
) -> LoopInfo:
    """Statically analyze a loop-body function (paper Fig. 6, stage 1).

    Args:
        body: a plain function ``body(key, value)`` (value optional) whose
            free variables may include DistArrays, DistArrayBuffers,
            Accumulators and ordinary driver variables.
        iteration_space: the materialized DistArray being iterated.
        ordered: whether the application requires lexicographic iteration
            order (the paper's ``ordered`` argument; default relaxed).
    """
    if not iteration_space.is_materialized:
        message = (
            "the iteration-space DistArray must be materialized before a "
            "parallel for-loop over it is compiled (JIT-style, paper Sec. 4.1)"
        )
        raise AnalysisError(
            message, diagnostic=Diagnostic(code="E103", message=message)
        )
    tree, source_file = ast_utils.get_function_source(body)
    params = [arg.arg for arg in tree.args.args]
    if not params:
        message = "loop body must take (key, value) or (key,)"
        raise AnalysisError(
            message,
            diagnostic=Diagnostic(
                code="E103",
                message=message,
                location=location_of(tree, source_file),
            ),
        )
    index_param = params[0]
    value_param = params[1] if len(params) > 1 else None
    env = ast_utils.resolve_free_variables(body)

    visitor = _BodyVisitor(env, index_param, value_param, source_file)
    visitor.visit(tree)

    num_iter_dims = iteration_space.ndim
    info = LoopInfo(
        iteration_space=iteration_space,
        num_iter_dims=num_iter_dims,
        index_param=index_param,
        value_param=value_param,
        ordered=ordered,
        tree=tree,
        index_bindings=dict(visitor.bindings),
        source_file=source_file,
    )
    info.diagnostics.extend(visitor.diagnostics)
    info.accumulators = set(visitor.accumulators)
    info.accumulator_refs = {
        name: env[name] for name in visitor.accumulators if name in env
    }

    for name, elements, is_write, node in visitor.array_refs:
        array = env[name]
        location = location_of(node, source_file)
        axes = _axes_for_ref(
            array, name, elements, visitor.bindings, num_iter_dims, location
        )
        info.arrays[name] = array
        info.refs.setdefault(name, []).append(
            ArrayRef(
                array_name=name, axes=axes, is_write=is_write, location=location
            )
        )
    for name, elements, node in visitor.buffer_writes:
        buffer = env[name]
        location = location_of(node, source_file)
        info.buffers[name] = buffer
        target_ndim = buffer.target.ndim
        axes = tuple(
            ast_utils.parse_axis(element, visitor.bindings) for element in elements
        )
        if len(axes) != target_ndim:
            message = (
                f"buffer {name} subscript arity {len(axes)} does not match "
                f"target array dimensionality {target_ndim}"
            )
            at = f" at {location.describe()}" if location is not None else ""
            raise AnalysisError(
                message + at,
                diagnostic=Diagnostic(
                    code="E102", message=message, location=location
                ),
            )
        info.buffer_refs.setdefault(name, []).append(
            ArrayRef(
                array_name=name,
                axes=axes,
                is_write=True,
                buffered=True,
                location=location,
            )
        )

    # W201: data-dependent subscripts force the paper's conservative
    # any-value treatment; worth surfacing even though the loop still
    # parallelizes (often as DATA_PARALLEL or via server placement).
    for name, refs in info.refs.items():
        for ref in refs:
            if any(a.kind is SubscriptKind.UNKNOWN for a in ref.axes):
                diag = Diagnostic(
                    code="W201",
                    message=f"data-dependent subscript on {name!r}: analysis "
                    "assumes the access may touch any element",
                    location=ref.location,
                    hint="index with the loop key (key[d] ± const) when "
                    "possible to enable tighter dependence vectors",
                )
                if diag not in info.diagnostics:
                    info.diagnostics.append(diag)

    # W202: two body names bound to the same DistArray object are analyzed
    # as independent arrays, hiding any dependence between their accesses.
    by_identity: Dict[int, List[str]] = {}
    for name, array in info.arrays.items():
        by_identity.setdefault(id(array), []).append(name)
    for names in by_identity.values():
        if len(names) > 1:
            alias_list = ", ".join(sorted(names))
            info.diagnostics.append(
                Diagnostic(
                    code="W202",
                    message=f"names {alias_list} are bound to the same "
                    "DistArray; dependence analysis treats them as distinct "
                    "arrays and may miss conflicts between them",
                    location=location_of(tree, source_file),
                    hint="reference the array through a single name inside "
                    "the loop body",
                )
            )

    # Inherited driver variables: loaded free names that resolve in the
    # environment and are not arrays/buffers/accumulators or locals.
    special = set(info.arrays) | set(info.buffers) | info.accumulators
    for name in sorted(visitor.loaded_names):
        if name in visitor.local_names or name in special:
            continue
        if name not in env:
            continue  # builtins and genuinely unresolved names
        value = env[name]
        if isinstance(value, (DistArray, DistArrayBuffer, Accumulator)):
            # Reachable but only via non-subscript use (e.g. accumulator obj).
            continue
        if inspect.ismodule(value):
            continue  # imported modules (np, math) are code, not data
        if callable(value) and getattr(value, "__module__", "").startswith(
            ("numpy", "math", "builtins")
        ):
            continue  # library helpers are not data to broadcast
        info.inherited[name] = value
    return info
