"""Findings: the common currency of the static and dynamic checkers.

Both halves of :mod:`repro.analysis` — the AST-based SPMD linter and
the runtime checkers wired into :mod:`repro.simmpi` — report problems
as :class:`Finding` records carrying a rule id, a severity, a
``file:line`` location, and a human message.  The ``repro check`` CLI
renders them as a human table or JSON (the CI artifact format), and
tests assert on them directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "Finding",
    "findings_to_json",
    "format_findings",
]

#: Severity levels, most severe first.  ``repro check`` exits nonzero
#: on any finding regardless of severity — the gate is zero findings —
#: but severities order the report and let downstream tooling filter.
ERROR = "error"
WARNING = "warning"
INFO = "info"
SEVERITIES = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Finding:
    """One problem reported by a checker.

    Attributes
    ----------
    rule:
        Rule id (``SPMD001``, ``DYN203``, ...) — see
        :mod:`repro.analysis.rules`.
    severity:
        One of :data:`SEVERITIES`.
    message:
        One-line human description of the specific violation.
    file:
        Path of the offending source file (repo-relative when the
        linter was given relative paths; absolute otherwise).  Dynamic
        findings carry the call site that performed the offending
        operation.
    line:
        1-based line number, or 0 when no source position applies.
    source:
        ``"lint"`` for static findings, ``"dynamic"`` for runtime ones.
    context:
        Free-form JSON-serializable details (ranks involved, the
        conflicting keys, the mismatched shapes, ...).
    """

    rule: str
    severity: str
    message: str
    file: str
    line: int = 0
    source: str = "lint"
    context: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity {self.severity!r} not in {SEVERITIES}"
            )

    @property
    def location(self) -> str:
        """``file:line`` (just ``file`` when no line is known)."""
        return f"{self.file}:{self.line}" if self.line else self.file

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "source": self.source,
            "context": dict(self.context),
        }


def _severity_key(f: Finding) -> tuple:
    return (SEVERITIES.index(f.severity), f.file, f.line, f.rule)


def findings_to_json(findings: list[Finding], *, indent: int | None = 2) -> str:
    """Serialize findings (schema 1) — the CI artifact format."""
    doc = {
        "schema": 1,
        "count": len(findings),
        "findings": [f.to_dict() for f in sorted(findings, key=_severity_key)],
    }
    return json.dumps(doc, indent=indent, sort_keys=False)


def format_findings(findings: list[Finding], *, title: str = "findings") -> str:
    """Human report: one ``location  RULE  severity  message`` line each."""
    if not findings:
        return f"{title}: none"
    ordered = sorted(findings, key=_severity_key)
    loc_w = max(len(f.location) for f in ordered)
    rule_w = max(len(f.rule) for f in ordered)
    sev_w = max(len(f.severity) for f in ordered)
    lines = [f"{title}: {len(ordered)}"]
    for f in ordered:
        lines.append(
            f"  {f.location:<{loc_w}}  {f.rule:<{rule_w}}  "
            f"{f.severity:<{sev_w}}  {f.message}"
        )
    return "\n".join(lines)
