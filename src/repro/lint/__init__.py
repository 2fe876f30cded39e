"""Static design-rule checking (``repro.lint``).

A rule-based analyzer over the artefacts of the flow:

* the elaborated **module hierarchy** (MOD0xx rules — unbound ports,
  write conflicts, dead event waits, combinational loops);
* the **OSSS global objects** (GRD0xx rules — impure guards, statically
  dead guards, cross-object wait cycles, non-bool guards; RES001
  unprotected guarded calls; RACE001 shared-state races), all reading
  one :class:`~repro.lint.context.GroupView` per connection group;
* the **synthesis IR** (IR0xx, NET0xx and FSM0xx rules — unreachable
  FSM states, width mismatches, undriven storage and wires, driver
  conflicts, combinational loops, X-propagation, FSM liveness), each
  reading the netlist's :class:`~repro.analyze.passes.ModuleAnalysis`;
* **fault campaign specs** (FLT0xx rules).

Entry points: :func:`lint_design` (a built design),
:func:`lint_rtl_module` (one bare netlist), :func:`lint_campaign` (a
fault campaign spec) and ``python -m repro lint`` on the CLI. The
netlists of a synthesis run are linted through
:func:`repro.analyze.analyze_design`, over the analyses synthesis built
for them.
"""

from .diagnostics import Diagnostic, LintReport, Severity, worst_severity
from .engine import (
    CAMPAIGN,
    DESIGN,
    IR,
    LintConfig,
    LintEngine,
    LintRule,
    LintRuleError,
    RuleRegistry,
    Suppression,
    default_registry,
    register,
)
from .context import DesignContext
from .runner import lint_campaign, lint_design, lint_rtl_module

__all__ = [
    "CAMPAIGN",
    "DESIGN",
    "IR",
    "DesignContext",
    "Diagnostic",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "LintRule",
    "LintRuleError",
    "RuleRegistry",
    "Severity",
    "Suppression",
    "default_registry",
    "lint_campaign",
    "lint_design",
    "lint_rtl_module",
    "register",
    "worst_severity",
]
