"""repro.telemetry — the campaign/matrix-scale observability plane.

Three pieces, all riding the existing probe bus behind the null-bus
zero-cost-off discipline:

* **Scorecards** (:mod:`~repro.telemetry.scorecard`): per-run
  communication gauges — utilization, throughput, fairness, queue
  pressure, latency quantiles — aggregated into the
  ``bus × refinement-level`` comparison table of
  ``python -m repro report --matrix``.
* **Flight recorder** (:mod:`~repro.telemetry.recorder`): a bounded
  ring of structured events dumped to JSONL on completion or crash,
  replayable through ``python -m repro telemetry``.
* **Live progress** (:mod:`~repro.telemetry.progress`): outcome
  counters the campaign parent folds into a
  :class:`~repro.telemetry.progress.CampaignProgress` aggregator,
  rendered by ``python -m repro fault --live``.

The one latency distribution, :class:`~repro.telemetry.digest.LatencyDigest`,
lives in :mod:`~repro.telemetry.digest`; ``MetricsCollector`` time
histograms are digests too, so every p95 in the repo means the same
thing.
"""

from .digest import STANDARD_QUANTILES, LatencyDigest, quantile_from_pow2_buckets
from .progress import CampaignProgress
from .recorder import (
    DEFAULT_RECORD_KINDS,
    FlightRecorder,
    flight_record_chrome_trace,
    load_flight_record,
    render_flight_record,
)
from .scorecard import CellScore, MatrixScorecard, ScorecardProbe, beats_of

__all__ = [
    "STANDARD_QUANTILES",
    "LatencyDigest",
    "quantile_from_pow2_buckets",
    "CampaignProgress",
    "DEFAULT_RECORD_KINDS",
    "FlightRecorder",
    "flight_record_chrome_trace",
    "load_flight_record",
    "render_flight_record",
    "CellScore",
    "MatrixScorecard",
    "ScorecardProbe",
    "beats_of",
]
