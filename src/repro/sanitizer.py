"""Shadow-access race detector: dynamically verify the analyzer's claims.

The static parallelizer (Sec. 4 of the paper) makes four falsifiable
claims about every loop it accepts:

1. the reported dependence vectors are *complete* — every actual
   cross-iteration write/read (and, for ordered loops, write/write)
   conflict is covered by some reported vector;
2. a batched kernel's level schedule is legal — no group holds two
   iterations touching the same row or column, and iterations that do
   share one keep their original relative order;
3. buffered writes — exempt from dependence analysis — never alias an
   element the loop also writes directly;
4. the access footprint stays inside what the prefetch oracle predicts
   for server-placed arrays.

Sanitize mode (``LoopOptions.sanitize`` / CLI ``--sanitize``) records the
actual DistArray elements each iteration reads and writes during
interpreted execution and cross-checks all four claims at every epoch
boundary, reporting violations as :class:`~repro.analysis.lint.Diagnostic`
objects (codes ``S601``–``S604``) with the offending iteration pair.

A record is the 4-tuple ``(iteration_key, storage_array_name,
normalized_index, kind)`` with ``kind`` one of ``"r"`` (read), ``"w"``
(direct write), ``"b"`` (buffered write).  Records use the *storage*
array name (``DistArray.name``) rather than the body's variable name so
that two variables aliasing one array collide here even though static
analysis treats them as distinct (the ``W202`` blind spot).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.lint import Diagnostic
from repro.core import access
from repro.errors import ExecutionError
from repro.runtime.kernels import normalize_index

__all__ = [
    "AccessRecord",
    "RecordingBroker",
    "SanitizerError",
    "check_epoch",
    "indices_overlap",
    "verify_conflict_groups",
]

#: (iteration_key, storage_array_name, normalized_index, kind)
AccessRecord = Tuple[Any, str, Tuple[Any, ...], str]


class SanitizerError(ExecutionError):
    """Sanitize mode found actual accesses contradicting the static plan."""

    def __init__(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        lines = [d.describe() for d in self.diagnostics]
        super().__init__(
            "sanitizer detected "
            f"{len(self.diagnostics)} violation(s):\n" + "\n".join(lines)
        )


class RecordingBroker(access.AccessBroker):
    """Wraps a broker and logs every element access per iteration.

    The block runner sets :attr:`iteration` to the current loop key
    before each body call; every read/write the body performs while that
    key is current is appended to ``records``, then served by ``inner``
    (the accounting broker, on every backend), so recording never changes
    what the loop computes or counts.
    """

    def __init__(
        self, inner: access.AccessBroker, records: List[AccessRecord]
    ) -> None:
        self.inner = inner
        self.records = records
        self.iteration: Any = None

    def read(self, array: Any, index: Any) -> Any:
        self.records.append(
            (self.iteration, array.name, normalize_index(index), "r")
        )
        return self.inner.read(array, index)

    def write(self, array: Any, index: Any, value: Any) -> None:
        self.records.append(
            (self.iteration, array.name, normalize_index(index), "w")
        )
        self.inner.write(array, index, value)

    def buffer_write(self, buffer: Any, index: Any, value: Any) -> None:
        self.records.append(
            (self.iteration, buffer.target.name, normalize_index(index), "b")
        )
        self.inner.buffer_write(buffer, index, value)


# --------------------------------------------------------------------- #
# Normalized-form geometry                                              #
# --------------------------------------------------------------------- #


def _axis_overlap(a: Tuple[Any, ...], b: Tuple[Any, ...]) -> bool:
    if a[0] == "pt" and b[0] == "pt":
        return a[1] == b[1]
    if a[0] == "pt":
        a, b = b, a
    if b[0] == "pt":
        lo, hi = a[1], a[2]
        return (lo is None or b[1] >= lo) and (hi is None or b[1] < hi)
    lo = max(x for x in (a[1], b[1]) if x is not None) \
        if (a[1] is not None or b[1] is not None) else None
    hi = min(x for x in (a[2], b[2]) if x is not None) \
        if (a[2] is not None or b[2] is not None) else None
    return lo is None or hi is None or lo < hi


def indices_overlap(a: Tuple[Any, ...], b: Tuple[Any, ...]) -> bool:
    """Whether two normalized subscripts can touch a common element —
    the one overlap geometry, shared with the executor's serializability
    validator."""
    if len(a) != len(b):
        # A shorter subscript addresses whole sub-arrays: stay conservative.
        return True
    return all(_axis_overlap(x, y) for x, y in zip(a, b))


def _axis_contains(outer: Tuple[Any, ...], inner: Tuple[Any, ...]) -> bool:
    if outer[0] == "pt":
        return inner[0] == "pt" and inner[1] == outer[1]
    lo, hi = outer[1], outer[2]
    if inner[0] == "pt":
        return (lo is None or inner[1] >= lo) and (hi is None or inner[1] < hi)
    ilo, ihi = inner[1], inner[2]
    lo_ok = lo is None or (ilo is not None and ilo >= lo)
    hi_ok = hi is None or (ihi is not None and ihi <= hi)
    return lo_ok and hi_ok


def _form_contains(outer: Tuple[Any, ...], inner: Tuple[Any, ...]) -> bool:
    """Whether ``outer`` covers every element ``inner`` can touch."""
    if len(outer) != len(inner):
        return False
    return all(_axis_contains(o, i) for o, i in zip(outer, inner))


def _iter_vec(key: Any) -> Tuple[int, ...]:
    if isinstance(key, tuple):
        return tuple(int(k) for k in key)
    return (int(key),)


def _lexico_positive(delta: Tuple[int, ...]) -> Tuple[int, ...]:
    for entry in delta:
        if entry > 0:
            return delta
        if entry < 0:
            return tuple(-e for e in delta)
    return delta  # all-zero (caller skips these)


# --------------------------------------------------------------------- #
# Dependence-vector coverage                                            #
# --------------------------------------------------------------------- #


def _entry_covers(entry: Any, distance: int) -> bool:
    from repro.analysis.depvec import ANY, NEG, POS

    if entry is ANY:
        return True
    if entry is POS:
        return distance > 0
    if entry is NEG:
        return distance < 0
    return entry == distance


def _vector_covers(vector: Any, delta: Tuple[int, ...]) -> bool:
    if len(vector.entries) != len(delta):
        return False
    return all(_entry_covers(e, d) for e, d in zip(vector.entries, delta))


def _dvecs_by_storage_name(info: Any, plan: Any) -> Dict[str, Set[Any]]:
    """Reported dependence vectors, re-keyed by storage array name.

    ``plan.dvecs_by_array`` is keyed by the body's variable names; two
    variables aliasing one array each contribute their vectors to the
    shared storage-name entry."""
    out: Dict[str, Set[Any]] = {}
    for var_name, vectors in plan.dvecs_by_array.items():
        array = info.arrays.get(var_name)
        storage = array.name if array is not None else var_name
        out.setdefault(storage, set()).update(vectors)
    return out


# --------------------------------------------------------------------- #
# Epoch-boundary checks                                                 #
# --------------------------------------------------------------------- #


def _bucket_records(
    records: Iterable[AccessRecord],
) -> Dict[str, Dict[Tuple[Any, ...], Dict[str, Set[Any]]]]:
    """array -> normalized form -> kind -> set of iteration keys."""
    out: Dict[str, Dict[Tuple[Any, ...], Dict[str, Set[Any]]]] = {}
    for iteration, array_name, form, kind in records:
        forms = out.setdefault(array_name, {})
        kinds = forms.setdefault(form, {})
        kinds.setdefault(kind, set()).add(iteration)
    return out


def _conflict_deltas(
    iters_a: Set[Any], iters_b: Set[Any]
) -> Dict[Tuple[int, ...], Tuple[Any, Any]]:
    """Distinct lexicographically-positive deltas with one witness pair."""
    out: Dict[Tuple[int, ...], Tuple[Any, Any]] = {}
    for it_a in iters_a:
        vec_a = _iter_vec(it_a)
        for it_b in iters_b:
            if it_a == it_b:
                continue
            delta = tuple(b - a for a, b in zip(vec_a, _iter_vec(it_b)))
            if all(d == 0 for d in delta):
                continue  # same iteration point re-accessed: no dependence
            canonical = _lexico_positive(delta)
            out.setdefault(canonical, (it_a, it_b))
    return out


def check_epoch(
    info: Any,
    plan: Any,
    records: Sequence[AccessRecord],
    server_names: FrozenSet[str] = frozenset(),
    prefetch_fn: Optional[Any] = None,
    values: Optional[Dict[Any, Any]] = None,
) -> List[Diagnostic]:
    """Cross-check one epoch of recorded accesses against the static plan.

    Args:
        info: the loop's :class:`~repro.analysis.loop_info.LoopInfo`.
        plan: the chosen :class:`~repro.analysis.strategy.Plan`.
        records: every access recorded this epoch.
        server_names: storage names of server-placed arrays.  Like the
            serializability checker, cross-iteration conflicts on these
            are exempt from S601: the parameter server linearizes them by
            construction (the paper's Sec. 3.3 relaxation).
        prefetch_fn: the synthesized prefetch oracle, when one exists;
            enables the S604 footprint check for server-array reads.
        values: iteration key -> value map for oracles that use the loop
            value (built lazily from the iteration space when omitted).

    Returns the violations found (empty list when the epoch is clean).
    """
    diagnostics: List[Diagnostic] = []
    buckets = _bucket_records(records)
    reported = _dvecs_by_storage_name(info, plan)

    for array_name, forms in sorted(buckets.items()):
        if array_name not in server_names:
            diagnostics.extend(
                _check_dependence_completeness(
                    array_name, forms, reported.get(array_name, set()),
                    ordered=info.ordered,
                )
            )
        diagnostics.extend(_check_buffer_aliasing(array_name, forms))

    if prefetch_fn is not None and server_names:
        diagnostics.extend(
            _check_prefetch_footprint(
                info, records, server_names, prefetch_fn, values
            )
        )
    return diagnostics


def _check_dependence_completeness(
    array_name: str,
    forms: Dict[Tuple[Any, ...], Dict[str, Set[Any]]],
    reported: Set[Any],
    ordered: bool,
) -> List[Diagnostic]:
    """S601: every actual cross-iteration conflict must be covered.

    Mirrors Alg. 2's exemptions: read/read pairs never conflict, and
    write/write pairs are exempt when the loop is unordered (the paper
    reorders them freely).  Buffered writes (kind ``"b"``) are exempt
    here — S603 polices them separately."""
    diagnostics: List[Diagnostic] = []
    seen_deltas: Set[Tuple[int, ...]] = set()
    form_list = list(forms.items())
    for i, (form_a, kinds_a) in enumerate(form_list):
        for form_b, kinds_b in form_list[i:]:
            if not indices_overlap(form_a, form_b):
                continue
            pairs = [("w", "r"), ("r", "w")]
            if ordered:
                pairs.append(("w", "w"))
            for kind_a, kind_b in pairs:
                iters_a = kinds_a.get(kind_a, set())
                iters_b = kinds_b.get(kind_b, set())
                if not iters_a or not iters_b:
                    continue
                for delta, witness in _conflict_deltas(iters_a, iters_b).items():
                    if delta in seen_deltas:
                        continue
                    seen_deltas.add(delta)
                    if any(_vector_covers(v, delta) for v in reported):
                        continue
                    it_a, it_b = witness
                    conflict = (
                        "write/write" if kind_a == kind_b else "write/read"
                    )
                    diagnostics.append(
                        Diagnostic(
                            code="S601",
                            message=(
                                f"iterations {it_a} and {it_b} have a "
                                f"{conflict} conflict on array "
                                f"{array_name!r} (distance {delta}) not "
                                "covered by any reported dependence vector"
                            ),
                            details=(
                                ("array", array_name),
                                ("iterations", witness),
                                ("delta", delta),
                            ),
                            hint="the static analyzer missed a loop-carried "
                            "dependence; check for aliased arrays (W202) or "
                            "data-dependent subscripts (W201)",
                        )
                    )
    return diagnostics


def _check_buffer_aliasing(
    array_name: str,
    forms: Dict[Tuple[Any, ...], Dict[str, Set[Any]]],
) -> List[Diagnostic]:
    """S603: a buffered write overlapping a *direct* write voids the
    buffered-write exemption — flush order vs. direct-store order is
    undefined for the shared element."""
    diagnostics: List[Diagnostic] = []
    buffered = [
        (form, kinds["b"]) for form, kinds in forms.items() if "b" in kinds
    ]
    direct = [
        (form, kinds["w"]) for form, kinds in forms.items() if "w" in kinds
    ]
    if not buffered or not direct:
        return diagnostics
    for form_b, iters_b in buffered:
        for form_w, iters_w in direct:
            if not indices_overlap(form_b, form_w):
                continue
            it_b = next(iter(iters_b))
            it_w = next(iter(iters_w))
            diagnostics.append(
                Diagnostic(
                    code="S603",
                    message=(
                        f"buffered write {form_b} (iteration {it_b}) aliases "
                        f"direct write {form_w} (iteration {it_w}) on array "
                        f"{array_name!r}; the buffered-write exemption does "
                        "not hold for elements also written directly"
                    ),
                    details=(
                        ("array", array_name),
                        ("iterations", (it_b, it_w)),
                    ),
                    hint="route all writes to this array through the buffer, "
                    "or none",
                )
            )
            break  # one witness per buffered form is enough
    return diagnostics


def _check_prefetch_footprint(
    info: Any,
    records: Sequence[AccessRecord],
    server_names: FrozenSet[str],
    prefetch_fn: Any,
    values: Optional[Dict[Any, Any]],
) -> List[Diagnostic]:
    """S604: server-array reads must stay inside the prefetch oracle's
    predicted footprint — a miss means the oracle under-predicts and the
    runtime's admission/costing of server traffic is wrong."""
    diagnostics: List[Diagnostic] = []
    # Map body variable names to storage names once; the oracle predicts
    # in variable names, records are in storage names.
    storage_of = {var: arr.name for var, arr in info.arrays.items()}
    predicted_cache: Dict[Any, List[Tuple[str, Tuple[Any, ...]]]] = {}
    flagged: Set[Tuple[Any, str]] = set()

    def predicted_for(key: Any) -> List[Tuple[str, Tuple[Any, ...]]]:
        if key not in predicted_cache:
            value = None
            if values is not None:
                value = values.get(key)
            try:
                raw = prefetch_fn(key, value)
            except Exception:
                raw = None
            if raw is None:
                predicted_cache[key] = []
            else:
                predicted_cache[key] = [
                    (storage_of.get(name, name), normalize_index(index))
                    for name, index in raw
                ]
        return predicted_cache[key]

    for iteration, array_name, form, kind in records:
        if kind != "r" or array_name not in server_names:
            continue
        if (iteration, array_name) in flagged:
            continue
        predicted = predicted_for(iteration)
        covered = any(
            name == array_name and _form_contains(pform, form)
            for name, pform in predicted
        )
        if not covered:
            flagged.add((iteration, array_name))
            diagnostics.append(
                Diagnostic(
                    code="S604",
                    message=(
                        f"iteration {iteration} read {form} of server array "
                        f"{array_name!r} outside the prefetch oracle's "
                        "predicted footprint"
                    ),
                    details=(
                        ("array", array_name),
                        ("iteration", iteration),
                        ("form", form),
                    ),
                    hint="the synthesized prefetch function under-predicts; "
                    "check for data-dependent subscripts it cannot model",
                )
            )
    return diagnostics


def verify_conflict_groups(
    seqs: Sequence[Sequence[int]],
    order: Sequence[int],
    groups: Iterable[Tuple[int, int]],
) -> List[Diagnostic]:
    """S602: check a claimed level schedule against both halves of its
    legality argument.

    ``seqs`` holds, per conflict dimension, the coordinate each entry of a
    block updates (entry order); ``order`` is the claimed execution
    permutation of the entries and ``groups`` the half-open ``(lo, hi)``
    ranges of ``order`` a batched kernel executes as one vector step (the
    output of :func:`repro.runtime.kernels.level_schedule`).  Legal means:
    no two entries of a group share a coordinate on any dimension (the
    vector step is then exactly their sequential execution), *and* every
    pair of entries that does share one executes in its original relative
    order (the guarantee a reordering scheduler could break).  Sanitize
    mode forces scalar execution, so this check runs on the *claimed*
    schedule rather than live kernel traffic — tests also call it
    directly with planted bad schedules."""
    diagnostics: List[Diagnostic] = []
    #: Per dimension: coordinate -> (entry, group) that last updated it.
    last: List[Dict[int, Tuple[int, Tuple[int, int]]]] = [{} for _ in seqs]
    for group in groups:
        flagged = False  # one witness per group
        for position in range(*group):
            entry = int(order[position])
            for dim, seq in enumerate(seqs):
                coord = seq[entry]
                other, other_group = last[dim].get(coord, (None, None))
                last[dim][coord] = (entry, group)
                if other is None or flagged:
                    continue
                if other_group == group:
                    message = (
                        f"group {group} claimed conflict-free but entries "
                        f"{other} and {entry} share coordinate {coord} on "
                        f"conflict dim {dim}"
                    )
                    hint = ("the batched kernel would apply these updates "
                            "with undefined relative order")
                elif other > entry:
                    message = (
                        f"entries {entry} and {other} share coordinate "
                        f"{coord} on conflict dim {dim} but execute in "
                        f"reversed order (groups {other_group} then {group})"
                    )
                    hint = ("the schedule reorders two updates of one "
                            "parameter; only non-conflicting entries may "
                            "move")
                else:
                    continue
                flagged = True
                diagnostics.append(
                    Diagnostic(
                        code="S602",
                        message=message,
                        details=(
                            ("group", group),
                            ("entries", tuple(sorted((other, entry)))),
                            ("dim", dim),
                        ),
                        hint=hint,
                    )
                )
    return diagnostics
