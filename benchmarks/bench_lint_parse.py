"""Micro-benchmark: the lint engine parses each source body once.

The GRD/RES rules all reason over the same guarded-method ASTs. Before
the context cache they each rebuilt the group views (re-walking the
module AST per guard, per rule); now the views are shared through
:meth:`DesignContext.cached` and :func:`astutils.callable_ast` memoizes
per code object, so the whole design-rule pass performs exactly one
whole-module AST walk per distinct function — and a second pass over
the same design performs none.

This script asserts both properties via the :data:`astutils.parse_stats`
counters and reports cold/warm wall time. It needs no baseline file:
the invariants are host-independent.

Usage::

    python benchmarks/bench_lint_parse.py
"""

from __future__ import annotations

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.core import generate_workload  # noqa: E402
from repro.flow import build_platform  # noqa: E402
from repro.lint import astutils  # noqa: E402
from repro.lint.context import DesignContext  # noqa: E402
from repro.lint.engine import DESIGN, LintEngine  # noqa: E402
import repro.lint.runner  # noqa: E402,F401  (rule registration)


def _build_sim():
    workloads = [generate_workload(seed=11, n_commands=20,
                                   address_span=0x400, max_burst=4)]
    return build_platform(workloads, bus="pci").handle.sim


def main() -> int:
    sim = _build_sim()
    engine = LintEngine()

    # Cold pass: every distinct function body is resolved exactly once,
    # shared across GRD001-4, RES001 and RACE001.
    before = astutils.parse_counters()
    context = DesignContext(sim)
    started = time.perf_counter()
    engine.run(context, DESIGN, "cold")
    cold_seconds = time.perf_counter() - started
    after_cold = astutils.parse_counters()
    cold_walks = after_cold["ast_walks"] - before["ast_walks"]
    cold_parses = after_cold["module_parses"] - before["module_parses"]

    # Same context, second engine pass: the rules must find everything
    # (group views, call sites, guard ASTs) already computed.
    engine.run(context, DESIGN, "warm-context")
    after_same = astutils.parse_counters()
    same_walks = after_same["ast_walks"] - after_cold["ast_walks"]

    # Fresh context over the same design: the per-code-object memo makes
    # the AST side free; only the live-object scan repeats.
    fresh = DesignContext(sim)
    started = time.perf_counter()
    engine.run(fresh, DESIGN, "warm-fresh")
    warm_seconds = time.perf_counter() - started
    after_fresh = astutils.parse_counters()
    fresh_walks = after_fresh["ast_walks"] - after_same["ast_walks"]
    fresh_parses = after_fresh["module_parses"] - after_same["module_parses"]

    print(f"cold pass:  {cold_seconds * 1e3:7.2f} ms, "
          f"{cold_parses} file parse(s), {cold_walks} AST walk(s)")
    print(f"warm pass:  {warm_seconds * 1e3:7.2f} ms, "
          f"{fresh_parses} file parse(s), {fresh_walks} AST walk(s), "
          f"{after_fresh['cache_hits'] - after_same['cache_hits']} "
          f"memo hit(s)")

    failures = []
    if cold_walks == 0:
        failures.append("cold pass resolved no function bodies "
                        "(nothing was analyzed?)")
    if same_walks != 0:
        failures.append(f"re-running rules on one context re-walked "
                        f"{same_walks} bodies (context cache broken)")
    if fresh_walks != 0:
        failures.append(f"a fresh context re-walked {fresh_walks} bodies "
                        "(callable_ast memo broken)")
    if fresh_parses != 0:
        failures.append(f"a fresh context re-parsed {fresh_parses} files "
                        "(module AST cache broken)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: one AST walk per function body, zero on re-run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
