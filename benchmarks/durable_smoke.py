"""CI smoke: durable campaigns survive crashes and reproduce their records.

Exercises the full durability story on the seed-55 demo campaign:

1. **Kill leg** — a child process runs the campaign with worker crashes
   injected and a journal attached; this process SIGKILLs it once the
   journal holds a couple of fsync'd outcomes, then resumes from the
   journal and asserts the canonical report is byte-identical to an
   uninterrupted run of the same spec.
2. **Flight-record leg** — the campaign dumps its flight records
   serially, with two workers, and interrupted after half its runs then
   resumed from its journal with two workers, all in this one process;
   every record must be byte-identical across the three.

Exit status is nonzero on any mismatch, so CI can gate on it directly.

Usage::

    python benchmarks/durable_smoke.py [--runs N]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.fault import (  # noqa: E402
    demo_campaign_spec,
    report_as_json,
    run_campaign,
)
from repro.telemetry.progress import CampaignProgress  # noqa: E402

SEED = 55
CRASH_RUN_IDS = (1, 3)

_CHILD_SCRIPT = r"""
import sys
from repro.fault import demo_campaign_spec, run_campaign
spec = demo_campaign_spec(platform="pci", seed=int(sys.argv[2]),
                          runs=int(sys.argv[3]))
spec.wall_timeout = 30.0
spec.crash_run_ids = (1, 3)
run_campaign(spec, workers=2, max_runs=int(sys.argv[3]),
             journal_dir=sys.argv[1])
print("COMPLETE")
"""


def _spec(runs: int):
    spec = demo_campaign_spec(platform="pci", seed=SEED, runs=runs)
    spec.wall_timeout = 30.0
    spec.crash_run_ids = CRASH_RUN_IDS
    return spec


def _canonical(result) -> str:
    return report_as_json(result, canonical=True)


def _kill_leg(scratch: str, runs: int) -> None:
    journal_dir = os.path.join(scratch, "journal")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, journal_dir, str(SEED),
         str(runs)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    journal_file = os.path.join(journal_dir, "journal.jsonl")
    deadline = time.time() + 120
    killed = False
    while time.time() < deadline:
        if child.poll() is not None:
            break  # finished first — resuming a complete journal is fine
        try:
            with open(journal_file, "rb") as stream:
                lines = stream.read().count(b"\n")
        except OSError:
            lines = 0
        if lines >= 3:  # header + at least two fsync'd outcomes
            child.kill()
            killed = True
            break
        time.sleep(0.02)
    child.wait(timeout=120)

    resumed = run_campaign(_spec(runs), workers=2, max_runs=runs,
                           resume_from=journal_dir)
    uninterrupted = run_campaign(_spec(runs), workers=2, max_runs=runs)
    assert len(resumed.outcomes) == runs, (
        f"resume completed {len(resumed.outcomes)}/{runs} runs"
    )
    assert _canonical(resumed) == _canonical(uninterrupted), (
        "resumed report differs from an uninterrupted run"
    )
    print(f"kill leg OK: child {'killed' if killed else 'finished'}, "
          f"resume kept {resumed.resumed} journaled outcome(s), "
          f"report byte-identical across {runs} runs")


class _InterruptAfter(CampaignProgress):
    """Stops a campaign the way Ctrl-C does once *count* runs landed."""

    def __init__(self, count: int) -> None:
        super().__init__()
        self.count = count

    def record_outcome(self, outcome) -> None:
        super().record_outcome(outcome)
        if self.completed == self.count:
            raise KeyboardInterrupt


def _records(directory: str) -> dict[str, bytes]:
    records = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as stream:
            records[name] = stream.read()
    return records


def _flight_record_leg(scratch: str, runs: int) -> None:
    def spec(name: str):
        spec = demo_campaign_spec(platform="pci", seed=SEED, runs=runs)
        spec.wall_timeout = 30.0
        spec.flight_record_dir = os.path.join(scratch, name)
        return spec

    serial = run_campaign(spec("serial"), workers=1, max_runs=runs)
    run_campaign(spec("parallel"), workers=2, max_runs=runs)
    journal_dir = os.path.join(scratch, "records_journal")
    half = len(serial.outcomes) // 2
    cut = run_campaign(spec("resumed"), workers=1, max_runs=runs,
                       monitor=_InterruptAfter(half), journal_dir=journal_dir)
    assert cut.interrupted and len(cut.outcomes) == half, (
        f"interrupt kept {len(cut.outcomes)} of {half} outcomes"
    )
    run_campaign(spec("resumed"), workers=2, max_runs=runs,
                 resume_from=journal_dir)
    reference = _records(os.path.join(scratch, "serial"))
    assert len(reference) == len(serial.outcomes), (
        f"{len(reference)} flight records for {len(serial.outcomes)} runs"
    )
    for mode in ("parallel", "resumed"):
        records = _records(os.path.join(scratch, mode))
        differing = sorted(
            name for name in set(reference) | set(records)
            if reference.get(name) != records.get(name)
        )
        assert not differing, (
            f"{mode} flight records differ from the serial ones: {differing}"
        )
    print(f"flight-record leg OK: {len(reference)} records byte-identical "
          f"serial, with 2 workers and resumed after {half} runs")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=12,
                        help="campaign size (default 12)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="durable_smoke_") as scratch:
        _kill_leg(scratch, args.runs)
        _flight_record_leg(scratch, args.runs)
    print("durable smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
