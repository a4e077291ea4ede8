"""Findings: the common currency of the static and dynamic checkers.

Every checker reports a :class:`Finding` (rule id, severity,
``file:line``, message, context); ``repro check`` renders them as a
human table, JSON (the CI artifact) or SARIF.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

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

    ``rule`` is a rule id (``SPMD001``, ``DYN203``, ... — see
    :mod:`repro.analysis.rules`); ``severity`` one of
    :data:`SEVERITIES`; ``file`` the offending source file as the
    checker was given it (dynamic findings: the offending call site)
    and ``line`` its 1-based line, 0 when none applies; ``source`` is
    ``"lint"``, ``"dynamic"`` or ``"plan"``; ``context`` holds
    JSON-serializable details (ranks, keys, shapes, ...).
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
        return asdict(self)


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
