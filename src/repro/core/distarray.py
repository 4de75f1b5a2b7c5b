"""DistArrays: the distributed shared memory abstraction (paper Sec. 3.1).

A DistArray is an N-dimensional array, dense or sparse, addressed by integer
tuples (point queries) and ranges (set queries).  In the paper it is
partitioned across the memory of distributed machines; here the storage is
process-local while the runtime (:mod:`repro.runtime`) models partitioning,
placement and communication.  The semantics visible to application code are
the paper's:

* creation from text files or random initialization is *lazy* — recorded and
  fused, evaluated only at :func:`DistArray.materialize` (like RDDs),
* ``map`` is lazy and fuses with the source; ``group_by`` is eager,
* point and set queries (``A[1, 3]``, ``A[:, 3]``, ``A[1:3, 2]``) with
  in-place updates,
* ``randomize`` permutes coordinates along chosen dimensions to smooth a
  skewed data distribution (paper Sec. 4.3),
* ``checkpoint`` eagerly writes the array to disk (fault tolerance).

Sparse storage has two forms, exactly one live at a time.  An array
materializes *columnar* (:data:`Columns`) — what a parallel for-loop
partitions and its kernels read — and the first point access or write
goes through ``_entries``, which builds the ``key -> value`` dict from
the columns and drops them.  Every reader (``entries()``, ``columns()``,
``num_entries``) answers from the live form, so nothing cached goes stale.
"""

from __future__ import annotations

import itertools
import math
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import access
from repro.errors import CheckpointError, MaterializationError, SubscriptError

__all__ = [
    "DistArray", "Recipe", "parse_dense_line", "key_value_entries", "MISSING",
    "Columns", "column_items", "value_column",
]

_name_counter = itertools.count()

#: Sentinel distinguishing "no default" from ``default=None`` in the fast
#: sparse read path (:meth:`DistArray.bulk_get`).
MISSING = object()


def _fresh_name(prefix: str) -> str:
    return f"{prefix}_{next(_name_counter)}"


def _copy_value(value: Any) -> Any:
    return value.copy() if isinstance(value, np.ndarray) else value


#: Columnar sparse storage: ``keys`` an ``(n, d)`` ``intp`` matrix and the
#: values column — ``float64`` when every value is exactly a Python
#: ``float`` (``.tolist()`` gives back the same type and bits), else the
#: value objects in a list.
Columns = Tuple[np.ndarray, Any]

#: Serializes the columns -> dict switch (threaded workers may make the
#: first point access to one array together).
_SWITCH_LOCK = threading.Lock()


def _columns_of(data: Dict[Any, Any]) -> Optional[Columns]:
    """``data`` as columns, or ``None`` unless its keys are tuples of plain
    ``int`` of one arity (C-level passes, never a per-entry loop)."""
    keys = list(data)
    flat = itertools.chain.from_iterable
    if (
        not keys
        or set(map(type, keys)) != {tuple}
        or len(set(map(len, keys))) != 1
        or set(map(type, flat(keys))) - {int}
    ):
        return None
    try:
        matrix = np.fromiter(flat(keys), np.intp, len(keys) * len(keys[0]))
    except OverflowError:
        return None
    return matrix.reshape(len(keys), -1), value_column(list(data.values()))


def value_column(values: List[Any]) -> Any:
    """The values column (see :data:`Columns`) of a list of values."""
    return np.array(values) if set(map(type, values)) == {float} else values


def column_items(
    keys: np.ndarray, values: Any
) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """The ``(key, value)`` tuples the columns stand for: keys as tuples
    of plain ``int``, values with their original types."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return zip(map(tuple, keys.tolist()), values)


@dataclass
class Recipe:
    """One recorded (not yet evaluated) step of a DistArray's derivation.

    Attributes:
        kind: the operation — one of ``text_file``, ``entries``, ``randn``,
            ``rand``, ``zeros``, ``full``, ``map``.
        args: operation-specific payload (path+parser, the entries list, the
            fill value, or the mapping function).
    """

    kind: str
    args: Dict[str, Any] = field(default_factory=dict)


def parse_dense_line(line: str) -> Tuple[Tuple[int, ...], float]:
    """Default text parser: whitespace-separated ``i j ... value`` records."""
    parts = line.split()
    if len(parts) < 2:
        raise MaterializationError(f"cannot parse line: {line!r}")
    coords = tuple(int(p) for p in parts[:-1])
    return coords, float(parts[-1])


def key_value_entries(
    mapping: Dict[Tuple[int, ...], Any]
) -> List[Tuple[Tuple[int, ...], Any]]:
    """Helper turning a coordinate→value dict into a sorted entry list."""
    return sorted(mapping.items())


def _infer_shape(keys: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """Smallest bounding-box shape containing every key."""
    if not keys:
        raise MaterializationError("cannot infer the shape of an empty array")
    if len(set(map(len, keys))) != 1:
        raise MaterializationError("entries have inconsistent coordinate arity")
    return tuple(max(column) + 1 for column in zip(*keys))


class DistArray:
    """An N-dimensional dense or sparse distributed array.

    Construct via the classmethod factories (or through
    :class:`repro.api.OrionContext`, which also registers the array with its
    runtime), then call :meth:`materialize` before element access.
    """

    def __init__(
        self,
        name: Optional[str] = None,
        shape: Optional[Tuple[int, ...]] = None,
        sparse: bool = False,
        recipes: Optional[List[Recipe]] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name or _fresh_name("distarray")
        self._shape = tuple(int(s) for s in shape) if shape is not None else None
        self.sparse = bool(sparse)
        self._recipes: List[Recipe] = list(recipes or [])
        self._seed = seed
        self._dense: Optional[np.ndarray] = None
        # Sparse storage: at most one of the two is not ``None``.
        self._dict: Optional[Dict[Tuple[int, ...], Any]] = None
        self._columns: Optional[Columns] = None
        #: Optional coordinate permutations from :meth:`randomize`, by dim.
        self.permutations: Dict[int, np.ndarray] = {}

    @property
    def _entries(self) -> Optional[Dict[Tuple[int, ...], Any]]:
        """The ``key -> value`` dict every point access and write goes
        through: built from the columns on first use, which are then
        dropped."""
        if self._columns is not None:
            with _SWITCH_LOCK:
                columns = self._columns
                if columns is not None:
                    # Publish before dropping: a racing reader must find
                    # one of the two.
                    self._dict = dict(column_items(*columns))
                    self._columns = None
        return self._dict

    # ------------------------------------------------------------------ #
    # Creation (lazy)                                                     #
    # ------------------------------------------------------------------ #

    @classmethod
    def text_file(
        cls,
        path: str,
        parser: Callable[[str], Tuple[Tuple[int, ...], Any]] = parse_dense_line,
        name: Optional[str] = None,
        shape: Optional[Tuple[int, ...]] = None,
    ) -> "DistArray":
        """Lazily create a sparse DistArray by parsing a text file, one entry
        per line via ``parser(line) -> (key_tuple, value)``."""
        recipe = Recipe("text_file", {"path": path, "parser": parser})
        return cls(name=name, shape=shape, sparse=True, recipes=[recipe])

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[Tuple[Tuple[int, ...], Any]],
        name: Optional[str] = None,
        shape: Optional[Tuple[int, ...]] = None,
    ) -> "DistArray":
        """Lazily create a sparse DistArray from ``(key, value)`` pairs."""
        recipe = Recipe("entries", {"entries": list(entries)})
        return cls(name=name, shape=shape, sparse=True, recipes=[recipe])

    @classmethod
    def randn(
        cls,
        *shape: int,
        name: Optional[str] = None,
        seed: Optional[int] = None,
        scale: float = 1.0,
    ) -> "DistArray":
        """Lazily create a dense DistArray of i.i.d. normal values."""
        recipe = Recipe("randn", {"scale": float(scale)})
        return cls(name=name, shape=tuple(shape), sparse=False,
                   recipes=[recipe], seed=seed)

    @classmethod
    def rand(
        cls, *shape: int, name: Optional[str] = None, seed: Optional[int] = None
    ) -> "DistArray":
        """Lazily create a dense DistArray of uniform ``[0, 1)`` values."""
        recipe = Recipe("rand", {})
        return cls(name=name, shape=tuple(shape), sparse=False,
                   recipes=[recipe], seed=seed)

    @classmethod
    def zeros(cls, *shape: int, name: Optional[str] = None) -> "DistArray":
        """Lazily create a dense all-zero DistArray."""
        recipe = Recipe("zeros", {})
        return cls(name=name, shape=tuple(shape), sparse=False, recipes=[recipe])

    @classmethod
    def full(
        cls, shape: Tuple[int, ...], value: float, name: Optional[str] = None
    ) -> "DistArray":
        """Lazily create a dense DistArray filled with ``value``."""
        recipe = Recipe("full", {"value": value})
        return cls(name=name, shape=tuple(shape), sparse=False, recipes=[recipe])

    # ------------------------------------------------------------------ #
    # Lazy transforms                                                     #
    # ------------------------------------------------------------------ #

    def map(self, fn: Callable[..., Any], map_values: bool = False) -> "DistArray":
        """Record (lazily) an elementwise transformation.

        With ``map_values=True``, ``fn(value) -> value``; otherwise
        ``fn(key, value) -> (key, value)`` for sparse arrays.  Dense arrays
        support only ``map_values=True``.  The transform fuses with the
        source at materialization: no intermediate array is allocated.
        """
        if not self.sparse and not map_values:
            raise MaterializationError(
                "dense DistArrays support only map(..., map_values=True)"
            )
        recipe = Recipe("map", {"fn": fn, "map_values": bool(map_values)})
        child = DistArray(
            name=_fresh_name(self.name + "_map"),
            shape=self._shape,
            sparse=self.sparse,
            recipes=self._recipes + [recipe],
            seed=self._seed,
        )
        return child

    # ------------------------------------------------------------------ #
    # Materialization                                                     #
    # ------------------------------------------------------------------ #

    @property
    def is_materialized(self) -> bool:
        """Whether storage has been evaluated and element access is legal."""
        return (
            self._dense is not None
            or self._columns is not None
            or self._dict is not None
        )

    def materialize(self) -> "DistArray":
        """Evaluate the recorded recipe chain, fusing ``map`` steps.

        Idempotent: a second call returns immediately.
        """
        if self.is_materialized:
            return self
        if not self._recipes:
            raise MaterializationError(
                f"DistArray {self.name!r} has no recipe and no storage"
            )
        source, *rest = self._recipes
        maps = [r for r in rest if r.kind == "map"]
        if len(maps) != len(rest):
            raise MaterializationError("recipe chain may only append map steps")
        if self.sparse:
            self._materialize_sparse(source, maps)
        else:
            self._materialize_dense(source, maps)
        return self

    def _materialize_sparse(self, source: Recipe, maps: List[Recipe]) -> None:
        if source.kind == "text_file":
            parser = source.args["parser"]
            raw: List[Tuple[Tuple[int, ...], Any]] = []
            with open(source.args["path"]) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    raw.append(parser(line))
        elif source.kind == "entries":
            raw = list(source.args["entries"])
        else:
            raise MaterializationError(
                f"unsupported sparse source recipe {source.kind!r}"
            )
        columns = None
        if not maps:
            # Keys that are already plain-int tuples need no per-entry
            # pass: ``dict`` dedups (first position, last value) in C.
            try:
                columns = _columns_of(dict(raw))
            except (TypeError, ValueError):
                pass  # the general path below names what is wrong
        if columns is None:
            data: Dict[Tuple[int, ...], Any] = {}
            for key, value in raw:
                key = tuple(int(c) for c in key)
                # Fused user-defined maps: applied per entry, no intermediates.
                dropped = False
                for step in maps:
                    fn = step.args["fn"]
                    if step.args["map_values"]:
                        value = fn(value)
                    else:
                        mapped = fn(key, value)
                        if mapped is None:
                            dropped = True
                            break
                        key, value = mapped
                        key = tuple(int(c) for c in key)
                if not dropped:
                    data[key] = value
            columns = _columns_of(data)
            if columns is None:  # empty, or mixed arity under a given shape
                self._dict = data
        self._columns = columns
        if self._shape is None:
            if columns is None:
                self._shape = _infer_shape(list(data))
            else:
                self._shape = tuple((columns[0].max(axis=0) + 1).tolist())

    def _materialize_dense(self, source: Recipe, maps: List[Recipe]) -> None:
        if self._shape is None:
            raise MaterializationError("dense DistArrays require a shape")
        rng = np.random.default_rng(self._seed)
        if source.kind == "randn":
            dense = rng.standard_normal(self._shape) * source.args["scale"]
        elif source.kind == "rand":
            dense = rng.random(self._shape)
        elif source.kind == "zeros":
            dense = np.zeros(self._shape)
        elif source.kind == "full":
            dense = np.full(self._shape, float(source.args["value"]))
        else:
            raise MaterializationError(
                f"unsupported dense source recipe {source.kind!r}"
            )
        for step in maps:
            dense = np.vectorize(step.args["fn"])(dense).astype(float)
        self._dense = np.ascontiguousarray(dense, dtype=float)

    def _require_materialized(self) -> None:
        if not self.is_materialized:
            raise MaterializationError(
                f"DistArray {self.name!r} must be materialized before access"
            )

    # ------------------------------------------------------------------ #
    # Shape / size                                                        #
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> Tuple[int, ...]:
        """The array's dimension sizes (requires a known/inferred shape)."""
        if self._shape is None:
            raise MaterializationError(
                f"shape of {self.name!r} unknown before materialization"
            )
        return self._shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return len(self.shape)

    @property
    def num_entries(self) -> int:
        """Number of stored entries (nnz for sparse, product of shape dense)."""
        if self.sparse:
            self._require_materialized()
            columns = self._columns
            return len(self._dict if columns is None else columns[1])
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        """Approximate in-memory payload size, used by the network model."""
        self._require_materialized()
        if self.sparse:
            return 8 * (self.ndim + 1) * self.num_entries
        return int(self._dense.nbytes)

    # ------------------------------------------------------------------ #
    # Element access                                                      #
    # ------------------------------------------------------------------ #

    def __getitem__(self, index: Any) -> Any:
        broker = access.current_broker()
        if broker is not None:
            return broker.read(self, index)
        return self.direct_get(index)

    def __setitem__(self, index: Any, value: Any) -> None:
        broker = access.current_broker()
        if broker is not None:
            broker.write(self, index, value)
            return
        self.direct_set(index, value)

    def direct_get(self, index: Any) -> Any:
        """Serve a point/set read from local storage, bypassing brokers."""
        self._require_materialized()
        if self.sparse:
            key = self._point_key(index)
            try:
                return self._entries[key]
            except KeyError:
                raise SubscriptError(
                    f"{self.name}[{key}] is not a stored entry"
                ) from None
        return self._dense[index]

    def direct_set(self, index: Any, value: Any) -> None:
        """Apply a point/set write to local storage, bypassing brokers."""
        self._require_materialized()
        if self.sparse:
            key = self._point_key(index)
            self._entries[key] = value
            return
        self._dense[index] = value

    def get(self, index: Any, default: Any = None) -> Any:
        """Sparse point read returning ``default`` for absent entries."""
        self._require_materialized()
        if not self.sparse:
            return self.direct_get(index)
        return self._entries.get(self._point_key(index), default)

    def contains(self, index: Any) -> bool:
        """Whether a sparse entry exists at ``index``."""
        self._require_materialized()
        if not self.sparse:
            raise SubscriptError("contains() applies to sparse DistArrays")
        return self._point_key(index) in self._entries

    # ------------------------------------------------------------------ #
    # Bulk element access (the executor's batched-kernel fast path)       #
    # ------------------------------------------------------------------ #

    def bulk_get(self, keys: Sequence[Any], default: Any = MISSING) -> List[Any]:
        """Read many point subscripts in one call.

        Sparse arrays use a single dict lookup per key with no per-element
        exception handling (``try/except KeyError`` in :meth:`direct_get`
        dominates hot loops); a missing key returns ``default`` when one is
        given and raises :class:`SubscriptError` otherwise.  Dense arrays
        serve each key from the backing ndarray.  Accounting is the
        caller's job (``KernelContext.account_point_reads``).
        """
        self._require_materialized()
        if not self.sparse:
            dense = self._dense
            return [dense[key] for key in keys]
        entries = self._entries
        getter = entries.get
        out: List[Any] = []
        for key in keys:
            if not isinstance(key, tuple):
                key = (key,)
            value = getter(key, MISSING)
            if value is MISSING:
                value = getter(self._point_key(key), MISSING)
            if value is MISSING:
                if default is MISSING:
                    raise SubscriptError(
                        f"{self.name}[{key}] is not a stored entry"
                    )
                value = default
            out.append(value)
        return out

    def bulk_set(self, keys: Sequence[Any], values: Sequence[Any]) -> None:
        """Write many point subscripts in one call (see :meth:`bulk_get`)."""
        self._require_materialized()
        if len(keys) != len(values):
            raise SubscriptError(
                f"bulk_set on {self.name}: {len(keys)} keys vs "
                f"{len(values)} values"
            )
        if not self.sparse:
            dense = self._dense
            for key, value in zip(keys, values):
                dense[key] = value
            return
        entries = self._entries
        for key, value in zip(keys, values):
            if not isinstance(key, tuple):
                key = (key,)
            entries[self._point_key(key)] = value

    def _point_key(self, index: Any) -> Tuple[int, ...]:
        if not isinstance(index, tuple):
            index = (index,)
        if self._shape is not None and len(index) != len(self._shape):
            raise SubscriptError(
                f"{self.name} expects {len(self._shape)} subscripts, "
                f"got {len(index)}"
            )
        try:
            return tuple(int(c) for c in index)
        except (TypeError, ValueError):
            raise SubscriptError(
                f"sparse DistArray {self.name} supports only integer point "
                f"queries, got {index!r}"
            ) from None

    # ------------------------------------------------------------------ #
    # Iteration                                                           #
    # ------------------------------------------------------------------ #

    def entries(self) -> Iterator[Tuple[Tuple[int, ...], Any]]:
        """Iterate ``(key, value)`` over stored entries.

        For sparse arrays this is the nonzero set (the natural iteration
        space of a parallel for-loop); for dense arrays, every cell.
        """
        self._require_materialized()
        if not self.sparse:
            for key in np.ndindex(*self._dense.shape):
                yield key, self._dense[key]
            return
        columns = self._columns
        yield from (
            self._dict.items() if columns is None else column_items(*columns)
        )

    def columns(self) -> Columns:
        """The stored entries as :data:`Columns`, in :meth:`entries`
        order — what a parallel for-loop partitions.  Read-only: while the
        array is columnar they are its storage."""
        self._require_materialized()
        if not self.sparse:
            keys = np.indices(self._dense.shape, dtype=np.intp)
            # A list of the ``np.float64`` cells ``entries()`` yields.
            return keys.reshape(self.ndim, -1).T, list(self._dense.reshape(-1))
        columns = self._columns or _columns_of(self._dict)
        if columns is None and self._dict:
            raise MaterializationError(
                f"{self.name} has keys of inconsistent coordinate arity"
            )
        return columns or (np.empty((0, self.ndim), dtype=np.intp), [])

    @property
    def values(self) -> np.ndarray:
        """The dense backing ndarray (dense arrays only)."""
        self._require_materialized()
        if self.sparse:
            raise SubscriptError(
                f"{self.name} is sparse; use entries() instead of .values"
            )
        return self._dense

    def set_dense(self, values: np.ndarray) -> None:
        """Replace the dense backing store (used by engines syncing replicas)."""
        if self.sparse:
            raise SubscriptError(f"{self.name} is sparse")
        self._dense = np.ascontiguousarray(values, dtype=float)
        self._shape = self._dense.shape

    def snapshot(self) -> Any:
        """An independent copy of the stored contents, for :meth:`restore`
        — an ndarray for dense arrays, a ``key -> value`` dict (ndarray
        values copied) for sparse ones."""
        self._require_materialized()
        if self.sparse:
            return {key: _copy_value(value) for key, value in self.entries()}
        return self._dense.copy()

    def restore(self, snapshot: Any) -> None:
        """Rewind the contents to a :meth:`snapshot`, in place: the dense
        backing array (possibly a shared-memory view) keeps its identity,
        and the snapshot stays reusable."""
        self._require_materialized()
        if self.sparse:
            self._entries.clear()
            self._entries.update(
                (key, _copy_value(value)) for key, value in snapshot.items()
            )
        else:
            self._dense[...] = snapshot

    # ------------------------------------------------------------------ #
    # Eager set operations                                                #
    # ------------------------------------------------------------------ #

    def group_by(self, dim: int) -> "DistArray":
        """Eagerly group sparse entries by one coordinate dimension.

        Returns a 1-D sparse DistArray keyed by that coordinate whose values
        are lists of the original ``(key, value)`` pairs.  Eager because it
        shuffles data (paper Sec. 3.1).
        """
        self._require_materialized()
        if not self.sparse:
            raise SubscriptError("group_by applies to sparse DistArrays")
        if not 0 <= dim < self.ndim:
            raise SubscriptError(f"group_by dimension {dim} out of range")
        groups: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], Any]]] = {}
        for key, value in self.entries():
            groups.setdefault((key[dim],), []).append((key, value))
        out = DistArray(
            name=_fresh_name(self.name + "_by"),
            shape=(self.shape[dim],),
            sparse=True,
        )
        out._dict = groups
        return out

    def randomize(
        self, dims: Optional[Sequence[int]] = None, seed: Optional[int] = None
    ) -> "DistArray":
        """Eagerly permute coordinates along ``dims`` (default: all).

        Smooths skewed data distributions so equal-width iteration-space
        partitions are balanced (paper Sec. 4.3).  The applied permutations
        are kept on the result's :attr:`permutations` so parameter arrays
        indexed by the permuted dimensions can be re-indexed consistently.
        """
        self._require_materialized()
        if not self.sparse:
            raise SubscriptError("randomize applies to sparse DistArrays")
        rng = np.random.default_rng(seed)
        target_dims = list(range(self.ndim)) if dims is None else list(dims)
        perms: Dict[int, np.ndarray] = {}
        for dim in target_dims:
            if not 0 <= dim < self.ndim:
                raise SubscriptError(f"randomize dimension {dim} out of range")
            perms[dim] = rng.permutation(self.shape[dim])
        keys, values = self.columns()
        keys = keys.copy()
        for dim, perm in perms.items():
            keys[:, dim] = perm[keys[:, dim]]
        out = DistArray(
            name=_fresh_name(self.name + "_rand"),
            shape=self.shape,
            sparse=True,
        )
        out._columns = keys, values
        out.permutations = perms
        return out

    def histogram(self, dim: int, num_bins: Optional[int] = None) -> np.ndarray:
        """Entry counts along one dimension, used for balanced partitioning.

        With ``num_bins=None`` returns one bin per coordinate value.
        """
        self._require_materialized()
        if not self.sparse:
            raise SubscriptError("histogram applies to sparse DistArrays")
        if not 0 <= dim < self.ndim:
            raise SubscriptError(f"histogram dimension {dim} out of range")
        extent = self.shape[dim]
        bins = extent if num_bins is None else int(num_bins)
        coords = self.columns()[0][:, dim]
        return np.bincount(coords * bins // extent, minlength=bins).astype(
            np.int64
        )

    # ------------------------------------------------------------------ #
    # Checkpointing                                                       #
    # ------------------------------------------------------------------ #

    def checkpoint(self, path: str) -> None:
        """Eagerly write the array to disk (paper Sec. 4.3, fault tolerance)."""
        self._require_materialized()
        payload = {
            "name": self.name,
            "shape": self._shape,
            "sparse": self.sparse,
            "dense": self._dense,
            "entries": dict(self.entries()) if self.sparse else None,
        }
        try:
            with open(path, "wb") as handle:
                pickle.dump(payload, handle)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}")

    @classmethod
    def load_checkpoint(cls, path: str) -> "DistArray":
        """Restore a DistArray previously written by :meth:`checkpoint`."""
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}")
        array = cls(
            name=payload["name"], shape=payload["shape"], sparse=payload["sparse"]
        )
        array._dense = payload["dense"]
        array._dict = payload["entries"]
        return array

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "sparse" if self.sparse else "dense"
        state = "materialized" if self.is_materialized else "lazy"
        shape = self._shape if self._shape is not None else "?"
        return f"<DistArray {self.name} {kind} shape={shape} {state}>"
