"""Analysis pass driver and the :class:`AnalysisReport` artifact.

:class:`ModuleAnalysis` runs the per-netlist structural passes (graph,
levelization, FSM, X-propagation) over one
:class:`~repro.synthesis.ir.RtlModule`; it is what every IR lint rule
reads. The synthesizer builds one per netlist when it first derives a
group shape and keeps it with the netlists
(:attr:`~repro.synthesis.tool.SynthesizedGroup.analyses`).
:func:`analyze_design` lints each of those analyses with the IR rules
(including ``NET001``–``NET004`` / ``FSM001``–``FSM003``), adds the
design-level ``RACE001`` race check, and returns one
:class:`AnalysisReport` — what the ``python -m repro analyze`` CLI
prints and the :class:`~repro.flow.design_flow.DesignFlow`
post-synthesis gate checks.
"""

from __future__ import annotations

import typing

from ..synthesis import ir
from .fsm import FsmFinding, analyze_fsms
from .graph import NetGraph
from .schedule import EvalSchedule, LevelizationResult, levelize
from .xprop import XPropFinding, find_x_propagation

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.simulator import Simulator
    from ..lint.diagnostics import LintReport
    from ..lint.engine import LintConfig
    from ..synthesis.tool import SynthesisResult


class ModuleAnalysis:
    """Structural analysis artifacts of one netlist."""

    def __init__(self, module: ir.RtlModule) -> None:
        self.module = module
        self.graph = NetGraph(module)
        self.levelization: LevelizationResult = levelize(self.graph)
        self.fsm_findings: list[FsmFinding] = analyze_fsms(module)
        self.xprop_findings: list[XPropFinding] = find_x_propagation(
            self.graph
        )

    @property
    def schedule(self) -> EvalSchedule | None:
        return self.levelization.schedule

    def stats(self) -> dict[str, int]:
        schedule = self.schedule
        return {
            "nets": len(self.module.nets),
            "registers": len(self.module.registers),
            "ports": len(self.module.ports),
            "fsms": len(self.module.fsms),
            "comb_steps": len(schedule.steps) if schedule else 0,
            "comb_depth": schedule.depth if schedule else 0,
            "comb_loops": len(self.levelization.loops),
        }

    def to_dict(self) -> dict:
        payload: dict = {"module": self.module.name, **self.stats()}
        payload["loops"] = [
            loop.describe() for loop in self.levelization.loops
        ]
        payload["fsm_findings"] = [
            {"kind": f.kind, "fsm": f.fsm.name, "subject": f.subject,
             "message": f.message}
            for f in self.fsm_findings
        ]
        payload["x_propagation"] = [
            {"port": f.port.name, "source": f.source.name,
             "path": f.describe_path()}
            for f in self.xprop_findings
        ]
        return payload


class AnalysisReport:
    """Whole-design analysis outcome: artifacts plus lint findings."""

    def __init__(self, label: str = "analysis") -> None:
        self.label = label
        self.modules: list[ModuleAnalysis] = []
        from ..lint.diagnostics import LintReport as _LintReport

        self.lint: "LintReport" = _LintReport(label)

    @property
    def has_errors(self) -> bool:
        return self.lint.has_errors

    def schedules(self) -> dict[str, EvalSchedule]:
        """``{module name: schedule}`` for every levelizable netlist."""
        return {
            analysis.module.name: analysis.schedule
            for analysis in self.modules
            if analysis.schedule is not None
        }

    def summary_line(self) -> str:
        counts = self.lint.counts()
        parts = [f"{n} {label}{'s' if n != 1 else ''}"
                 for label, n in (("error", counts["error"]),
                                  ("warning", counts["warning"]),
                                  ("info", counts["info"]))
                 if n]
        body = ", ".join(parts) if parts else "clean"
        if self.lint.suppressed:
            body += f" ({self.lint.suppressed} suppressed)"
        return (
            f"analyze {self.label}: {len(self.modules)} module(s), {body}"
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "modules": [analysis.to_dict() for analysis in self.modules],
            "diagnostics": [d.to_dict() for d in self.lint.diagnostics],
            "suppressed": self.lint.suppressed,
            "rules_run": list(self.lint.rules_run),
        }


def analyze_design(
    result: "SynthesisResult",
    sim: "Simulator | None" = None,
    config: "LintConfig | None" = None,
    label: str = "design",
) -> AnalysisReport:
    """Lint the analysis of every netlist of a synthesis run.

    The analyses are the ones synthesis built (one per netlist, shared
    by every group of the same shape); none is rebuilt here.

    :param sim: the built simulator; when given, the design-level
        ``RACE001`` shared-state race check runs too.
    :param config: lint policy (suppressions / strict) applied to every
        finding, same semantics as ``python -m repro lint``.
    """
    # Importing the runner registers every rule module (NET/FSM/RACE
    # included) into the default registry.
    from ..lint import runner  # noqa: F401
    from ..lint.context import DesignContext
    from ..lint.engine import (
        DESIGN, IR, LintEngine, RuleRegistry, default_registry,
    )

    report = AnalysisReport(label)
    engine = LintEngine(config)
    for group in result.groups:
        for analysis in group.analyses:
            report.modules.append(analysis)
            report.lint.extend(engine.run(analysis, IR, analysis.module.name))
    if sim is not None:
        race_registry = RuleRegistry()
        race_registry.register(type(default_registry.get("RACE001"))())
        engine = LintEngine(config, race_registry)
        report.lint.extend(
            engine.run(DesignContext(sim), DESIGN, f"{label} races")
        )
    return report
