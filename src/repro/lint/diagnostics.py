"""Structured lint diagnostics.

A :class:`Diagnostic` records one design-rule finding: the rule that
fired, its severity, the hierarchical path of the offending object, a
human-readable message and (where the rule can tell) a fix hint. A
:class:`LintReport` collects the diagnostics of one analysis run and
renders them compiler-style::

    error[MOD002] top.valid: single-writer signal is written by 2 processes: top.drain, top.fill
        hint: drive the signal from one process, or mux the sources explicitly
"""

from __future__ import annotations

import enum
import typing


class Severity(enum.IntEnum):
    """Diagnostic severities, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return {
            Severity.INFO: "info",
            Severity.WARNING: "warning",
            Severity.ERROR: "error",
        }[self]


class Diagnostic:
    """One design-rule finding.

    :param rule_id: stable identifier (e.g. ``"MOD002"``).
    :param severity: effective severity after engine adjustments.
    :param path: hierarchical path of the offending design object.
    :param message: what is wrong.
    :param hint: how to fix it (optional).
    :param rule_name: the rule's symbolic name (e.g. ``"multiple-writers"``).
    :param extra: machine-readable facts about the finding (e.g. the
        raced signal name) for downstream tooling; JSON-serializable.
    """

    def __init__(
        self,
        rule_id: str,
        severity: Severity,
        path: str,
        message: str,
        hint: str = "",
        rule_name: str = "",
        extra: typing.Mapping[str, typing.Any] | None = None,
    ) -> None:
        self.rule_id = rule_id
        self.severity = severity
        self.path = path
        self.message = message
        self.hint = hint
        self.rule_name = rule_name
        self.extra: dict[str, typing.Any] = dict(extra or {})

    def to_dict(self) -> dict[str, typing.Any]:
        """JSON-ready form (used by ``--format json`` and SARIF)."""
        payload: dict[str, typing.Any] = {
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "severity": self.severity.label(),
            "path": self.path,
            "message": self.message,
            "hint": self.hint,
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload

    def render(self) -> str:
        lines = [f"{self.severity.label()}[{self.rule_id}] {self.path}: {self.message}"]
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Diagnostic({self.rule_id}, {self.severity.label()}, "
            f"{self.path!r}, {self.message!r})"
        )


class LintReport:
    """The outcome of one lint run: kept diagnostics plus suppression stats."""

    def __init__(self, subject: str = "design") -> None:
        self.subject = subject
        self.diagnostics: list[Diagnostic] = []
        self.suppressed = 0
        #: Rule ids the engine actually evaluated (for --list-rules style output).
        self.rules_run: list[str] = []

    # -- collection ---------------------------------------------------------

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "LintReport") -> None:
        """Merge *other*'s findings into this report."""
        self.diagnostics.extend(other.diagnostics)
        self.suppressed += other.suppressed
        for rule_id in other.rules_run:
            if rule_id not in self.rules_run:
                self.rules_run.append(rule_id)

    # -- queries ------------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def clean(self) -> bool:
        """No diagnostics of any severity survived."""
        return not self.diagnostics

    def by_rule(self, rule_id: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    def counts(self) -> dict[str, int]:
        """``{"error": n, "warning": n, "info": n}`` over kept diagnostics."""
        counts = {"error": 0, "warning": 0, "info": 0}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.label()] += 1
        return counts

    # -- rendering ----------------------------------------------------------

    def summary_line(self) -> str:
        counts = self.counts()
        parts = [f"{n} {label}{'s' if n != 1 else ''}"
                 for label, n in (("error", counts["error"]),
                                  ("warning", counts["warning"]),
                                  ("info", counts["info"]))
                 if n]
        body = ", ".join(parts) if parts else "clean"
        if self.suppressed:
            body += f" ({self.suppressed} suppressed)"
        return f"lint {self.subject}: {body}"

    def render(self) -> str:
        lines = [self.summary_line()]
        for diagnostic in sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.rule_id, d.path),
        ):
            lines.append(diagnostic.render())
        return "\n".join(lines)

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            f"LintReport({self.subject}: {counts['error']}E "
            f"{counts['warning']}W {counts['info']}I)"
        )

