"""The rule engine: registry, suppression and severity policy.

Rules are small classes with a ``check(target)`` generator; the engine
decides which apply to a given target kind, filters findings through the
suppression list and applies ``--strict`` (warnings become errors).

Suppression syntax (one entry per rule, comma-separable on the CLI):

* ``MOD003`` — drop every finding of that rule;
* ``MOD003@top.iface.*`` — drop findings whose hierarchical path matches
  the ``fnmatch`` pattern after ``@``;
* the rule's symbolic name works everywhere its id does
  (``dead-event-wait@top.*``).
"""

from __future__ import annotations

import fnmatch
import typing

from ..errors import ReproError
from .diagnostics import Diagnostic, LintReport, Severity

#: Target kinds a rule can apply to.
DESIGN = "design"     # an elaboratable Simulator + module hierarchy
IR = "ir"             # the ModuleAnalysis of a synthesis RtlModule
CAMPAIGN = "campaign"  # a fault CampaignSpec against a probe platform


class LintRuleError(ReproError):
    """A lint rule or configuration is itself invalid."""


class LintRule:
    """Base class for all design rules.

    Subclasses set :attr:`rule_id`, :attr:`name`, :attr:`target`,
    :attr:`default_severity` and :attr:`description`, and implement
    :meth:`check` yielding :class:`Diagnostic` objects.
    """

    rule_id: str = ""
    name: str = ""
    target: str = DESIGN
    default_severity: Severity = Severity.WARNING
    description: str = ""

    def check(self, subject: typing.Any) -> typing.Iterator[Diagnostic]:
        raise NotImplementedError

    def emit(
        self,
        path: str,
        message: str,
        hint: str = "",
        extra: typing.Mapping[str, typing.Any] | None = None,
    ) -> Diagnostic:
        """Build a diagnostic pre-filled with this rule's identity."""
        return Diagnostic(
            self.rule_id, self.default_severity, path, message, hint,
            rule_name=self.name, extra=extra,
        )


class Suppression:
    """One parsed suppression entry."""

    def __init__(self, rule: str, path_pattern: str | None = None) -> None:
        self.rule = rule
        self.path_pattern = path_pattern

    @classmethod
    def parse(cls, text: str) -> "Suppression":
        text = text.strip()
        if not text:
            raise LintRuleError("empty suppression entry")
        if "@" in text:
            rule, __, pattern = text.partition("@")
            if not rule or not pattern:
                raise LintRuleError(
                    f"bad suppression {text!r}; expected RULE or RULE@glob"
                )
            return cls(rule, pattern)
        return cls(text)

    def matches(self, diagnostic: Diagnostic) -> bool:
        if self.rule not in (diagnostic.rule_id, diagnostic.rule_name):
            return False
        if self.path_pattern is None:
            return True
        return fnmatch.fnmatchcase(diagnostic.path, self.path_pattern)

    def __repr__(self) -> str:
        suffix = f"@{self.path_pattern}" if self.path_pattern else ""
        return f"Suppression({self.rule}{suffix})"


class LintConfig:
    """Per-run policy: suppressions, strictness, severity overrides.

    :param suppress: iterable of suppression strings (see module doc).
    :param strict: promote warnings to errors.
    :param severity_overrides: ``{rule_id: Severity}`` forced severities.
    """

    def __init__(
        self,
        suppress: typing.Iterable[str] = (),
        strict: bool = False,
        severity_overrides: typing.Mapping[str, Severity] | None = None,
    ) -> None:
        self.suppressions = [Suppression.parse(s) for s in suppress]
        self.strict = strict
        self.severity_overrides = dict(severity_overrides or {})

    def effective(self, diagnostic: Diagnostic) -> Diagnostic | None:
        """Apply policy; ``None`` means the finding is suppressed."""
        for suppression in self.suppressions:
            if suppression.matches(diagnostic):
                return None
        severity = self.severity_overrides.get(
            diagnostic.rule_id, diagnostic.severity
        )
        if self.strict and severity is Severity.WARNING:
            severity = Severity.ERROR
        diagnostic.severity = severity
        return diagnostic


class RuleRegistry:
    """Ordered collection of rule instances, unique by rule id."""

    def __init__(self) -> None:
        self._rules: dict[str, LintRule] = {}

    def register(self, rule: LintRule) -> LintRule:
        if not rule.rule_id or not rule.name:
            raise LintRuleError(f"rule {rule!r} must define rule_id and name")
        if rule.rule_id in self._rules:
            raise LintRuleError(f"duplicate rule id {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule
        return rule

    def rules(self, target: str | None = None) -> list[LintRule]:
        items = list(self._rules.values())
        if target is not None:
            items = [rule for rule in items if rule.target == target]
        return items

    def get(self, rule_id: str) -> LintRule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise LintRuleError(f"unknown lint rule {rule_id!r}") from None

    def __len__(self) -> int:
        return len(self._rules)


#: The process-wide default registry; rule modules register into it at
#: import time (see :mod:`repro.lint.runner`).
default_registry = RuleRegistry()


def validate_suppressions(
    entries: typing.Iterable[str],
    registry: RuleRegistry | None = None,
) -> list[str]:
    """Suppression entries naming rules the registry does not know.

    :class:`LintConfig` itself accepts any well-formed entry (tests run
    against ad-hoc registries); the CLIs call this to turn a typo'd
    rule id into an error instead of a silently-useless suppression.
    Both rule ids and symbolic rule names are accepted.
    """
    registry = registry if registry is not None else default_registry
    known: set[str] = set()
    for rule in registry.rules():
        known.add(rule.rule_id)
        known.add(rule.name)
    unknown: list[str] = []
    for entry in entries:
        suppression = Suppression.parse(entry)
        if suppression.rule not in known:
            unknown.append(entry.strip())
    return unknown


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and add the rule to the default registry."""
    default_registry.register(rule_cls())
    return rule_cls


class LintEngine:
    """Runs registered rules over a target and applies the config policy."""

    def __init__(
        self,
        config: LintConfig | None = None,
        registry: RuleRegistry | None = None,
    ) -> None:
        self.config = config or LintConfig()
        self.registry = registry if registry is not None else default_registry

    def run(self, subject: typing.Any, target: str, label: str) -> LintReport:
        report = LintReport(label)
        for rule in self.registry.rules(target):
            report.rules_run.append(rule.rule_id)
            for diagnostic in rule.check(subject):
                kept = self.config.effective(diagnostic)
                if kept is None:
                    report.suppressed += 1
                else:
                    report.add(kept)
        return report
