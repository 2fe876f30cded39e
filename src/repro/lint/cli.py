"""``python -m repro lint`` — lint the canonical example platforms.

Builds each platform of :data:`TARGETS` (functional, PCI pin-accurate,
PCI post-synthesis, Wishbone, AXI4-Lite, TLM generic payload), runs
the design-level rules over the built models and the IR-level rules
over every synthesized netlist, and exits non-zero when any
error-severity finding survives the suppression list. This is the
command CI runs to keep the examples lint-clean.
"""

from __future__ import annotations

import argparse
import typing

from ..analyze.passes import analyze_design
from .diagnostics import LintReport
from .engine import (
    LintConfig,
    LintRuleError,
    default_registry,
    validate_suppressions,
)
from .runner import lint_design
from .sarif import render_json, render_sarif

#: Canonical platform labels, in lint order.
TARGETS = ("functional", "pci", "pci-synth", "wishbone", "axi4lite", "tlmgp")


def _workloads(seed: int, n_commands: int):
    from ..core import generate_workload

    return [generate_workload(seed=seed, n_commands=n_commands,
                              address_span=0x400, max_burst=4)]


def _lint_target(
    target: str, config: LintConfig, seed: int, n_commands: int
) -> list[LintReport]:
    from ..flow import build_platform

    workloads = _workloads(seed, n_commands)
    if target == "pci-synth":
        bundle = build_platform(workloads, bus="pci", synthesize=True)
        return [
            lint_design(bundle.handle.sim, config, label=target),
            analyze_design(
                bundle.synthesis, config=config, label=f"{target} netlists"
            ).lint,
        ]
    if target in ("functional", "pci", "wishbone", "axi4lite", "tlmgp"):
        bundle = build_platform(workloads, bus=target)
        return [lint_design(bundle.handle.sim, config, label=target)]
    raise ValueError(f"unknown lint target {target!r}")


def _split_suppressions(entries: typing.Iterable[str]) -> list[str]:
    result: list[str] = []
    for entry in entries:
        result.extend(part for part in entry.split(",") if part.strip())
    return result


def add_suppression_arguments(parser: argparse.ArgumentParser) -> None:
    """Add ``--strict`` and ``--suppress``, read by :func:`config_from_args`."""
    parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors",
    )
    parser.add_argument(
        "--suppress", action="append", default=[], metavar="RULE[@GLOB]",
        help="suppress a rule, optionally limited to paths matching the "
             "glob (repeatable, comma-separable)",
    )


def config_from_args(args: argparse.Namespace) -> LintConfig | None:
    """The :class:`LintConfig` that ``--strict``/``--suppress`` ask for.

    Prints the error and returns None when a suppression names an
    unknown rule or is malformed (the caller exits with status 2).
    """
    entries = _split_suppressions(args.suppress)
    try:
        unknown = validate_suppressions(entries)
        if unknown:
            known = sorted(r.rule_id for r in default_registry.rules())
            print(
                "error: unknown rule in --suppress: "
                + ", ".join(repr(u) for u in unknown)
                + f" (known ids: {', '.join(known)})"
            )
            return None
        return LintConfig(suppress=entries, strict=args.strict)
    except LintRuleError as exc:
        print(f"error: {exc}")
        return None


def emit_report(text: str, output: str | None, reports) -> None:
    """Print *text*, or write it to *output* and print one summary line
    per report."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        for report in reports:
            print(report.summary_line())
    else:
        print(text)


def list_rules() -> str:
    """Human-readable rule catalogue (``--list-rules``)."""
    lines = []
    for rule in default_registry.rules():
        lines.append(
            f"{rule.rule_id}  {rule.default_severity.label():7s} "
            f"{rule.name:22s} [{rule.target}] {rule.description}"
        )
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_suppression_arguments(parser)
    parser.add_argument(
        "--target", action="append", choices=TARGETS, default=None,
        help="platform(s) to lint (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--format", choices=("table", "json", "sarif"), default="table",
        help="output format: human-readable table (default), plain "
             "JSON, or SARIF 2.1.0 for code-scanning upload",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report to FILE instead of stdout",
    )


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(list_rules())
        return 0
    config = config_from_args(args)
    if config is None:
        return 2
    targets = args.target or list(TARGETS)
    failed = False
    reports: list[LintReport] = []
    for target in targets:
        for report in _lint_target(target, config, args.seed, args.commands):
            reports.append(report)
            if report.has_errors:
                failed = True
    if args.format == "sarif":
        text = render_sarif(reports)
    elif args.format == "json":
        text = render_json(reports)
    else:
        text = "\n".join(report.render() for report in reports)
    emit_report(text, args.output, reports)
    return 1 if failed else 0
