"""Structured diagnostics for the static analyzer and the sanitizer.

The paper's parallelizer either accepts a loop or rejects it with a bare
exception string; neither the acceptance nor the refusal is explained in a
machine-checkable way.  This module gives both sides a common currency:

* :class:`Diagnostic` — one finding with a stable code, severity, message
  and the user's ``file:line`` source location;
* the :data:`CODES` registry — every stable code with its one-line title
  (documented with examples in ``docs/analysis.md``);
* :func:`run_lint` — run the full static pipeline (analysis + strategy
  selection) over a loop body *without executing it*, converting hard
  failures into diagnostics instead of exceptions.  This powers the
  ``repro lint`` CLI subcommand and ``ParallelLoop.diagnostics()``.

Code space:

* ``E1xx`` — errors: the loop cannot be parallelized (analysis fails or
  no dependence-preserving plan exists).
* ``W2xx`` — subscript warnings: the loop parallelizes, but analysis had
  to be conservative or rests on an assumption worth knowing about.
* ``W3xx`` / ``W4xx`` — loop-body hygiene warnings (inherited-state
  mutation, global-state randomness).
* ``S6xx`` — sanitizer violations: the *dynamic* shadow-access check
  (:mod:`repro.sanitizer`) found actual behavior contradicting the
  static claims.  These are emitted at run time, never by ``run_lint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "SourceLocation",
    "run_lint",
]


#: Every stable diagnostic code with its short title.  Codes are part of
#: the public interface: tests assert on them and docs catalogue them, so
#: a code is never renumbered once released.
CODES = {
    "E100": "loop analysis failed",
    "E101": "unsupported construct in loop body",
    "E102": "subscript arity mismatch",
    "E103": "invalid loop signature or iteration space",
    "E110": "no dependence-preserving parallelization",
    "W201": "data-dependent subscript",
    "W202": "aliased DistArray references",
    "W301": "mutation of inherited variable",
    "W401": "unseeded global-state randomness",
    "W501": "kernel synthesis fell back: unsupported construct",
    "W502": "kernel synthesis fell back: state-dependent access pattern",
    "W503": "kernel synthesis skipped: plan does not permit batching",
    "S601": "unreported loop-carried dependence",
    "S602": "kernel level schedule is not legal",
    "S603": "buffered write aliases a directly-written element",
    "S604": "access outside the prefetch footprint",
}


@dataclass(frozen=True)
class SourceLocation:
    """A position in the *user's* source file (1-based line)."""

    file: str
    line: int
    col: int = 0

    def describe(self) -> str:
        """Clickable ``file:line`` (``file:line:col`` when the column is
        known)."""
        if self.col:
            return f"{self.file}:{self.line}:{self.col}"
        return f"{self.file}:{self.line}"


def _severity_for(code: str) -> str:
    if code.startswith("E"):
        return "error"
    if code.startswith("S"):
        return "violation"
    return "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer or sanitizer finding with a stable code.

    Attributes:
        code: a key of :data:`CODES` (e.g. ``"W201"``).
        message: what was found, specific to this occurrence.
        location: where in the user's source, when attributable.
        hint: optional remediation advice.
        details: structured extras (e.g. the offending iteration pair a
            sanitizer violation reports) — kept hashable-free-form.
    """

    code: str
    message: str
    location: Optional[SourceLocation] = None
    hint: Optional[str] = None
    details: Tuple[Tuple[str, Any], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> str:
        """``"error"`` (E), ``"warning"`` (W) or ``"violation"`` (S)."""
        return _severity_for(self.code)

    @property
    def title(self) -> str:
        """The code's registry title."""
        return CODES[self.code]

    def describe(self) -> str:
        """One-line rendering: ``file:line: W201 <title>: <message>``."""
        prefix = self.location.describe() + ": " if self.location else ""
        out = f"{prefix}{self.code} {self.title}: {self.message}"
        if self.hint:
            out += f" (hint: {self.hint})"
        return out


@dataclass
class LintReport:
    """The diagnostics of one linted loop, with formatting helpers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: One-line plan summary when strategy selection succeeded.
    plan_summary: Optional[str] = None

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity != "error"]

    @property
    def ok(self) -> bool:
        """Whether the loop parallelizes (warnings do not fail a lint)."""
        return not self.errors

    def codes(self) -> List[str]:
        """The distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def describe(self) -> str:
        lines = [d.describe() for d in self.diagnostics]
        if self.plan_summary is not None:
            lines.append(f"plan: {self.plan_summary}")
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)


def location_of(node: Any, file: Optional[str]) -> Optional[SourceLocation]:
    """Build a :class:`SourceLocation` from an AST node, if possible."""
    line = getattr(node, "lineno", None)
    if line is None or file is None:
        return None
    return SourceLocation(file=file, line=line, col=getattr(node, "col_offset", 0))


def run_lint(
    body: Any,
    iteration_space: Any,
    ordered: bool = False,
    force_dims: Optional[Tuple[int, ...]] = None,
) -> LintReport:
    """Statically lint one loop body without executing it.

    Runs the same pipeline ``parallel_for`` runs (analysis + strategy
    selection) but converts exceptions into E-code diagnostics instead of
    propagating, and collects the analyzer's W-code warnings either way.
    """
    # Lazy imports: loop_info/strategy import this module for Diagnostic.
    from repro.analysis.loop_info import analyze_loop_body
    from repro.analysis.strategy import choose_plan
    from repro.errors import ReproError

    report = LintReport()
    try:
        info = analyze_loop_body(body, iteration_space, ordered=ordered)
    except ReproError as exc:
        report.diagnostics.append(_diagnostic_from(exc))
        return report
    report.diagnostics.extend(info.diagnostics)
    try:
        plan = choose_plan(info, force_dims=force_dims)
    except ReproError as exc:
        report.diagnostics.append(_diagnostic_from(exc))
        return report
    report.plan_summary = plan.describe()
    return report


def _diagnostic_from(exc: Any) -> Diagnostic:
    """The exception's structured diagnostic, or a generic E100."""
    diagnostic = getattr(exc, "diagnostic", None)
    if diagnostic is not None:
        return diagnostic
    return Diagnostic(code="E100", message=str(exc))
