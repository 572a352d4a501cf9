"""Lint findings, severities, and per-line suppression.

Shared by the analyzers in :mod:`repro.analysis` — detlint (the
determinism sanitizer) and protolint (the protocol-conformance checker)
use the same :class:`Rule`/:class:`Finding` model and the same output
formatters, so CI and editors only need one grammar.

A :class:`Finding` is one rule violation at one source location.  detlint
findings can be suppressed in source with a ``# detlint: ignore`` comment
on the flagged line (or on a comment-only line directly above it, for
flagged statements that are already long)::

    for pid in state.participants:        # detlint: ignore[values-fanout]
        ...

The bracket form suppresses only the named rules (codes like ``DL001`` or
slugs like ``set-iter-send``); the bare form suppresses every rule on that
line.  Suppressions are deliberate, grep-able exemptions: the CI gate
fails on any finding that is *not* suppressed.  protolint has none: its
findings are about declared tables and observed runs, not source lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``# detlint: ignore`` / ``# detlint: ignore[rule, rule]``
_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*ignore(?:\[(?P<names>[A-Za-z0-9_\-, ]*)\])?")


@dataclass(frozen=True)
class Rule:
    """One lint rule: a stable code, a readable slug, and a severity.

    ``severity`` is informational — the CI gate fails on warnings too —
    but tells a reader whether a site is wrong per se (error) or correct
    only under an argument that should be stated (warning).
    """

    code: str
    slug: str
    severity: str
    summary: str

    def __str__(self) -> str:
        return f"{self.code}[{self.slug}]"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: Rule
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """Render as ``path:line:col: CODE[slug] severity: message``."""
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"{self.rule.severity}: {self.message}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the ``--format json`` schema)."""
        return {
            "code": self.rule.code,
            "slug": self.rule.slug,
            "severity": self.rule.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line number -> suppressed rule names on that line.

    ``None`` means "suppress every rule" (the bare ``ignore`` form); a
    set holds the codes/slugs named in the bracket form.  A suppression
    on a comment-only line also covers the next line, so long statements
    can carry their annotation above themselves.
    """
    result: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in _SUPPRESS_RE.finditer(text):
            names = {part.strip() for part in
                     (match.group("names") or "").split(",")
                     if part.strip()} or None
            # A comment-only line's annotation covers the statement below.
            covered = (lineno, lineno + 1) \
                if text.lstrip().startswith("#") else (lineno,)
            for line in covered:
                existing = result.get(line, set())
                result[line] = None if names is None or existing is None \
                    else existing | names
    return result


def is_suppressed(finding: Finding,
                  suppressions: Dict[int, Optional[Set[str]]]) -> bool:
    """Whether ``finding`` is covered by a source suppression."""
    if finding.line not in suppressions:
        return False
    names = suppressions[finding.line]
    return (names is None or finding.rule.code in names
            or finding.rule.slug in names)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable location order shared by every output format."""
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.col, f.rule.code))


def format_findings(findings: Iterable[Finding],
                    clean_message: str = "clean: no determinism findings",
                    ) -> str:
    """One line per finding, sorted by location, plus a summary line."""
    ordered = sort_findings(findings)
    lines = [f.format() for f in ordered]
    errors = sum(1 for f in ordered
                 if f.rule.severity == SEVERITY_ERROR)
    warnings = len(ordered) - errors
    if ordered:
        lines.append(f"{len(ordered)} finding(s): {errors} error(s), "
                     f"{warnings} warning(s)")
    else:
        lines.append(clean_message)
    return "\n".join(lines)


def format_github(findings: Iterable[Finding]) -> str:
    """GitHub Actions workflow-annotation lines (``--format github``).

    One ``::error``/``::warning`` command per finding; an empty string
    when clean (workflow commands for zero findings would be noise).
    """
    lines = []
    for f in sort_findings(findings):
        kind = ("error" if f.rule.severity == SEVERITY_ERROR
                else "warning")
        lines.append(f"::{kind} file={f.path},line={f.line},"
                     f"col={f.col},title={f.rule}::{f.message}")
    return "\n".join(lines)
