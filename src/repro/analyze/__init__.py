"""Netlist dataflow analysis over the synthesis IR.

The synthesizer's output is only trustworthy if the structural netlist
is free of the classic hazards that break guarded-method semantics:
multiple drivers fighting over a wire, combinational cycles, FSM states
the protocol can never leave, X values leaking from unreset registers
to the module boundary, and shared object state mutated behind the
arbiter's back. This package builds a whole-design driver/reader graph
(:mod:`~repro.analyze.graph`), levelizes the combinational netlist into
a reusable :class:`~repro.analyze.schedule.EvalSchedule`
(:mod:`~repro.analyze.schedule` — the seed of the compiled fast-sim
backend), analyses FSM reachability (:mod:`~repro.analyze.fsm`), tracks
X-propagation (:mod:`~repro.analyze.xprop`) and cross-references shared
state writers (:mod:`~repro.analyze.races`). The findings surface as
lint rules ``NET001``–``NET004``, ``FSM001``–``FSM003`` and ``RACE001``
(:mod:`repro.lint`), and :mod:`~repro.analyze.passes` bundles everything
into one :class:`~repro.analyze.passes.AnalysisReport` for the
``python -m repro analyze`` CLI and the
:class:`~repro.flow.design_flow.DesignFlow` post-synthesis gate.
:func:`~repro.analyze.graph.find_cycles` is the one strongly connected
component search behind both cycle checks (``GRD003``, ``FSM003``).
"""

from .graph import Driver, NetGraph, find_cycles
from .passes import AnalysisReport, ModuleAnalysis, analyze_design
from .schedule import (
    CombLoop,
    EvalSchedule,
    EvaluationError,
    LevelizationResult,
    ScheduleStep,
    evaluate_expr,
    levelize,
)

__all__ = [
    "AnalysisReport",
    "CombLoop",
    "Driver",
    "EvalSchedule",
    "EvaluationError",
    "LevelizationResult",
    "ModuleAnalysis",
    "NetGraph",
    "ScheduleStep",
    "analyze_design",
    "evaluate_expr",
    "find_cycles",
    "levelize",
]
