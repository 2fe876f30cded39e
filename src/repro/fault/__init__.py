"""repro.fault — fault-injection campaigns over the executable platforms.

The subsystem answers the verification-closure question the paper's
methodology raises but cannot answer statically: *would the platform's
runtime checkers actually notice if the synthesized communication
hardware misbehaved?* It injects kernel-level faults (pin, scheduling
and transaction layer) into unmodified application models, runs each
faulty platform against a golden reference, and reports detection
coverage.
"""

from ..errors import JournalError
from .campaign import (
    BENIGN,
    CLASSIFICATIONS,
    DETECTED,
    ERROR,
    RECOVERED,
    SILENT,
    TIMEOUT,
    WORKER_ERROR,
    GoldenReference,
    RunOutcome,
    build_campaign_platform,
    classify_counts,
    detection_coverage,
    execute_run,
    injectable_targets,
    plan_campaign,
)
from .models import (
    FAULT_KINDS,
    BitFlipFault,
    CommandCorruptionFault,
    DelayedGrantFault,
    DroppedRequestFault,
    FaultInjectionError,
    FaultModel,
    StuckAtFault,
    TransientGlitchFault,
    make_fault,
)
from .durable import (
    CampaignJournal,
    campaign_content_hash,
    campaign_fingerprint,
)
from .report import (
    per_kind_breakdown,
    recovery_rate,
    recovery_stats,
    render_report,
    report_as_dict,
    report_as_json,
)
from .runner import (
    CampaignResult,
    default_workers,
    resolve_workers,
    run_campaign,
)
from .spec import (
    PLATFORMS,
    CampaignSpec,
    FaultSpec,
    RunSpec,
    demo_campaign_spec,
    expand_campaign,
    match_targets,
)

__all__ = [
    "BENIGN",
    "CLASSIFICATIONS",
    "DETECTED",
    "ERROR",
    "FAULT_KINDS",
    "PLATFORMS",
    "RECOVERED",
    "SILENT",
    "TIMEOUT",
    "WORKER_ERROR",
    "BitFlipFault",
    "CampaignJournal",
    "CampaignResult",
    "CampaignSpec",
    "CommandCorruptionFault",
    "DelayedGrantFault",
    "DroppedRequestFault",
    "FaultInjectionError",
    "FaultModel",
    "FaultSpec",
    "GoldenReference",
    "JournalError",
    "RunOutcome",
    "RunSpec",
    "StuckAtFault",
    "TransientGlitchFault",
    "build_campaign_platform",
    "campaign_content_hash",
    "campaign_fingerprint",
    "classify_counts",
    "default_workers",
    "demo_campaign_spec",
    "detection_coverage",
    "execute_run",
    "expand_campaign",
    "injectable_targets",
    "make_fault",
    "match_targets",
    "per_kind_breakdown",
    "plan_campaign",
    "recovery_rate",
    "recovery_stats",
    "render_report",
    "report_as_dict",
    "report_as_json",
    "resolve_workers",
    "run_campaign",
]
