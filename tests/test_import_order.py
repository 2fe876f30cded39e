"""Every ``repro`` package imports as the first import of a fresh interpreter.

An import cycle breaks only the entry points that enter it at the wrong
member, and the rest of the suite imports packages in an order that can
hide one. For example, ``repro.core.command`` importing ``repro.pci``
closes a cycle through ``repro.pci.master`` and ``repro.iface`` that
breaks ``import repro.core`` but not ``import repro.pci``. So each
package gets its own interpreter.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
PACKAGES = sorted(
    module.name for module in pkgutil.iter_modules(repro.__path__)
    if module.ispkg
)


def test_packages_found():
    assert {"core", "iface", "pci", "wishbone", "axi"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import repro.{package}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


#: The repro modules the benchmark harness imports.
BENCHMARK_IMPORTS = (
    "repro.compile.channel", "repro.instrument.profiler",
    "repro.synthesis.tool", "repro.telemetry.scorecard",
    "repro.trace.correlate", "repro.trace.spans", "repro.fault",
    "repro.fault.runner", "repro.flow.platforms", "repro.iface.matrix",
)


def test_process_pool_modules_load_on_demand():
    """Serial campaigns, sweeps and matrices never start a pool, so
    importing what they use must not load the pool machinery."""
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    script = "\n".join(
        [f"import {name}" for name in BENCHMARK_IMPORTS] + [
            "import sys",
            "loaded = sorted(name for name in sys.modules if name in "
            "('multiprocessing', 'concurrent.futures'))",
            "assert not loaded, loaded",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
