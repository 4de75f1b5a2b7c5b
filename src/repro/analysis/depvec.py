"""Dependence vectors and the paper's Alg. 2.

A *dependence vector* ``d`` for an ``n``-deep loop nest asserts that
iteration ``p + d`` may depend on iteration ``p`` (they touch the same
DistArray element and at least one access is a write).  Entries are either
exact integers or one of three extended values:

* :data:`ANY` — the paper's ``∞``: the distance may be any integer,
* :data:`POS` — ``+∞``: any strictly positive integer,
* :data:`NEG` — ``-∞``: any strictly negative integer.

:func:`compute_dependence_vectors` implements the paper's Alg. 2: for every
pair of static DistArray references it either proves independence or refines
an all-:data:`ANY` vector with one exact distance per constrained
iteration-space dimension, then corrects the result for lexicographic
positivity.  Read-read pairs are always skipped; write-write pairs are
skipped when the loop is *unordered* (the paper's ordering relaxation,
Sec. 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.errors import DependenceError
from repro.analysis.lint import SourceLocation
from repro.analysis.subscript import Axis, axes_may_overlap, index_distance

__all__ = [
    "ANY",
    "POS",
    "NEG",
    "Entry",
    "DepVector",
    "ArrayRef",
    "entry_negate",
    "entry_mul",
    "entry_add",
    "entry_is_zero",
    "entry_is_positive",
    "entry_is_exact",
    "compute_dependence_vectors",
]


class _Extended:
    """Sentinel for a non-exact dependence distance (``∞``-style values)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


ANY = _Extended("ANY")
POS = _Extended("POS")
NEG = _Extended("NEG")

Entry = Union[int, _Extended]


def entry_is_exact(value: Entry) -> bool:
    """True when the entry is an exact integer distance."""
    return not isinstance(value, _Extended)


def entry_is_zero(value: Entry) -> bool:
    """True when the distance is *definitely* zero."""
    return entry_is_exact(value) and value == 0


def entry_is_positive(value: Entry) -> bool:
    """True when the distance is *definitely* strictly positive."""
    if value is POS:
        return True
    return entry_is_exact(value) and value > 0


def entry_negate(value: Entry) -> Entry:
    """Negate an entry (used when flipping a vector's direction)."""
    if value is ANY:
        return ANY
    if value is POS:
        return NEG
    if value is NEG:
        return POS
    return -value


def entry_mul(coefficient: int, value: Entry) -> Entry:
    """Multiply an entry by an exact integer coefficient.

    Used when applying a unimodular transformation matrix to a vector.
    """
    if coefficient == 0:
        return 0
    if entry_is_exact(value):
        return coefficient * value
    if value is ANY:
        return ANY
    positive = (value is POS) == (coefficient > 0)
    return POS if positive else NEG


def entry_add(a: Entry, b: Entry) -> Entry:
    """Add two entries, conservatively widening when signs are uncertain."""
    if entry_is_exact(a) and entry_is_exact(b):
        return a + b
    if a is ANY or b is ANY:
        return ANY
    # Exactly one or both are POS/NEG here.
    if entry_is_exact(a):
        a, b = b, a
    # a is POS or NEG, b is exact or the same/opposite sentinel.
    if entry_is_exact(b):
        if a is POS:
            return POS if b >= 0 else ANY
        return NEG if b <= 0 else ANY
    if a is b:
        return a
    return ANY


@dataclass(frozen=True)
class DepVector:
    """An immutable dependence vector over the iteration space."""

    entries: Tuple[Entry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Entry:
        return self.entries[i]

    def is_zero_at(self, dim: int) -> bool:
        """Whether this vector's distance at ``dim`` is definitely zero."""
        return entry_is_zero(self.entries[dim])

    def negate(self) -> "DepVector":
        """Return the direction-flipped vector."""
        return DepVector(tuple(entry_negate(e) for e in self.entries))

    def lexico_positive(self) -> Optional["DepVector"]:
        """The primary lexicographically-positive representative.

        Returns ``None`` when the vector is all-zero, i.e. a dependence of an
        iteration on itself, which is not a loop-carried dependence at all.
        A vector whose leading non-zero entry is negative is flipped (the
        same conflict read with source/sink roles swapped); a leading
        :data:`ANY` entry's positive-direction half leads with :data:`POS`.

        Note: a leading ``ANY`` also admits dependences whose distance is
        *zero* at that position and positive later — use
        :meth:`lexico_positive_set` for the complete cover (what Alg. 2
        stores); this method returns only the head representative.
        """
        cover = self.lexico_positive_set()
        return cover[0] if cover else None

    def lexico_positive_set(self) -> Tuple["DepVector", ...]:
        """The complete lexicographically-positive cover of this vector.

        A raw pair-test vector describes a *symmetric* conflict set; its
        loop-carried half is every lexicographically positive distance it
        matches.  Exact or :data:`POS`/:data:`NEG` leads normalize to a
        single vector, but an :data:`ANY` lead splits: distances with a
        strictly positive lead (``POS`` head) *and* distances with a zero
        lead whose tail is itself lexicographically positive.  Dropping the
        second half would let the scheduler run genuinely dependent
        iterations concurrently.
        """
        entries = self.entries

        def normalize(tail: Tuple[Entry, ...]) -> List[Tuple[Entry, ...]]:
            if not tail:
                return []
            head, rest = tail[0], tail[1:]
            if entry_is_zero(head):
                return [(0,) + sub for sub in normalize(rest)]
            if entry_is_exact(head):
                if head > 0:
                    return [tail]
                return [tuple(entry_negate(e) for e in tail)]
            if head is POS:
                return [tail]
            if head is NEG:
                return [tuple(entry_negate(e) for e in tail)]
            # ANY lead: strictly-positive half plus the zero-lead half.
            out = [(POS,) + rest]
            out.extend((0,) + sub for sub in normalize(rest))
            return out

        return tuple(DepVector(v) for v in normalize(entries))

    def transform(self, matrix: Sequence[Sequence[int]]) -> "DepVector":
        """Apply an integer matrix to this vector (``matrix @ d``)."""
        n = len(self.entries)
        if any(len(row) != n for row in matrix) or len(matrix) != n:
            raise DependenceError(
                f"transform matrix shape does not match vector length {n}"
            )
        out: List[Entry] = []
        for row in matrix:
            acc: Entry = 0
            for coefficient, value in zip(row, self.entries):
                acc = entry_add(acc, entry_mul(coefficient, value))
            out.append(acc)
        return DepVector(tuple(out))

    def describe(self) -> str:
        """Render like the paper, e.g. ``(0, inf)``."""
        parts = []
        for value in self.entries:
            if value is ANY:
                parts.append("inf")
            elif value is POS:
                parts.append("+inf")
            elif value is NEG:
                parts.append("-inf")
            else:
                parts.append(str(value))
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class ArrayRef:
    """One static DistArray reference found in a loop body.

    Attributes:
        array_name: the variable name the DistArray is bound to.
        axes: one :class:`~repro.analysis.subscript.Axis` per array dimension.
        is_write: whether this reference stores to the array.
        buffered: whether the write goes to a DistArray *Buffer* and is
            therefore exempt from dependence analysis (paper Sec. 3.3).
        location: where the reference appears in the user's source, when
            known.  Excluded from equality/hashing so duplicate references
            on different lines still deduplicate for analysis.
    """

    array_name: str
    axes: Tuple[Axis, ...]
    is_write: bool
    buffered: bool = False
    location: Optional["SourceLocation"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_read(self) -> bool:
        """Whether this reference loads from the array."""
        return not self.is_write

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``W[:, key[0]] (write)``.

        Appends the ``file:line`` source location when one is attached.
        """
        subs = ", ".join(axis.describe() for axis in self.axes)
        mode = "write" if self.is_write else "read"
        out = f"{self.array_name}[{subs}] ({mode})"
        if self.location is not None:
            out += f" at {self.location.describe()}"
        return out


def _pair_dependence(
    ref_a: ArrayRef,
    ref_b: ArrayRef,
    num_iter_dims: int,
) -> Optional[DepVector]:
    """Dependence test for one pair of references to the same array.

    Returns the (uncorrected) dependence vector, or ``None`` when the pair
    is proven independent.  This is the inner loop of the paper's Alg. 2.
    """
    entries: List[Entry] = [ANY] * num_iter_dims
    for axis_a, axis_b in zip(ref_a.axes, ref_b.axes):
        constrained = index_distance(axis_a, axis_b)
        if constrained is not None:
            dim, dist = constrained
            if dim >= num_iter_dims:
                raise DependenceError(
                    f"subscript references iteration dimension {dim} but the "
                    f"iteration space has only {num_iter_dims} dimensions"
                )
            current = entries[dim]
            if entry_is_exact(current) and current != dist:
                # The same iteration-space dimension would need two different
                # distances at once: the references can never conflict.
                return None
            entries[dim] = dist
        elif not axes_may_overlap(axis_a, axis_b):
            return None
    return DepVector(tuple(entries))


def compute_dependence_vectors(
    refs: Sequence[ArrayRef],
    num_iter_dims: int,
    unordered_loop: bool = False,
) -> FrozenSet[DepVector]:
    """Compute the set of dependence vectors for one DistArray (Alg. 2).

    Args:
        refs: every static reference to a single DistArray in the loop body.
            References marked ``buffered`` are exempt and ignored here.
        num_iter_dims: dimensionality of the loop's iteration space.
        unordered_loop: when true, write-write pairs are skipped — under
            relaxed ordering any interleaving of pure overwrites is an
            acceptable serial order (paper Sec. 4.3).

    Returns:
        The frozen set of lexicographically positive dependence vectors.
    """
    live = [ref for ref in refs if not ref.buffered]
    vectors = set()
    for position, ref_a in enumerate(live):
        # Self-pairs matter for writes: two *different* iterations may both
        # write through the same static reference.
        for ref_b in live[position:]:
            if ref_a.is_read and ref_b.is_read:
                continue
            if unordered_loop and ref_a.is_write and ref_b.is_write:
                continue
            raw = _pair_dependence(ref_a, ref_b, num_iter_dims)
            if raw is None:
                continue
            # The pair test fixes an (a-at-p, b-at-p') role assignment;
            # swapping roles negates the exact distances while ANY entries
            # stay symmetric.  With an ANY lead and exact tail the two
            # directions have *different* lexicographically positive
            # covers (e.g. (ANY,-1) -> {(+inf,-1),(0,1)} but the mirror
            # (ANY,1) also admits (+inf,1)), so both must be unioned.
            vectors.update(raw.lexico_positive_set())
            vectors.update(raw.negate().lexico_positive_set())
    return frozenset(vectors)
