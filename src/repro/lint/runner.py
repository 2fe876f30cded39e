"""High-level lint entry points.

These are what the flow, the synthesis tool and the CLI call:

* :func:`lint_design` — run the module- and guard-level rules over a
  built :class:`~repro.kernel.simulator.Simulator`;
* :func:`lint_campaign` — run the FLT rules over a fault
  :class:`~repro.fault.spec.CampaignSpec` before spending runs on it.

The IR rules run through :func:`~repro.analyze.passes.analyze_design`,
over the :class:`~repro.analyze.passes.ModuleAnalysis` that synthesis
built for each netlist.

Importing this module pulls in the rule modules, which register into the
default registry as a side effect.
"""

from __future__ import annotations

import typing

from ..kernel.simulator import Simulator
from .context import DesignContext
from .diagnostics import LintReport
from .engine import CAMPAIGN, DESIGN, LintConfig, LintEngine, RuleRegistry
from . import fault_rules as _fault_rules    # noqa: F401  (rule registration)
from . import fsm_rules as _fsm_rules        # noqa: F401
from . import guard_rules as _guard_rules    # noqa: F401
from . import ir_rules as _ir_rules          # noqa: F401
from . import module_rules as _module_rules  # noqa: F401
from . import net_rules as _net_rules        # noqa: F401
from . import race_rules as _race_rules      # noqa: F401
from . import resilience_rules as _resilience_rules  # noqa: F401

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fault.spec import CampaignSpec


def lint_design(
    sim: Simulator,
    config: LintConfig | None = None,
    registry: RuleRegistry | None = None,
    label: str = "design",
) -> LintReport:
    """Run every design-level rule over a built simulator."""
    engine = LintEngine(config, registry)
    return engine.run(DesignContext(sim), DESIGN, label)


def lint_campaign(
    spec: "CampaignSpec",
    config: LintConfig | None = None,
    registry: RuleRegistry | None = None,
) -> LintReport:
    """Run the campaign rules (FLT0xx) over a fault campaign spec.

    Builds one probe instance of the campaign's platform to resolve the
    target globs and enumerate the observers; nothing is simulated.
    """
    from ..fault.campaign import build_campaign_platform
    from .fault_rules import CampaignContext

    bundle = build_campaign_platform(spec)
    engine = LintEngine(config, registry)
    return engine.run(CampaignContext(spec, bundle), CAMPAIGN, spec.name)
