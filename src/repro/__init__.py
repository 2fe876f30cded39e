"""repro — a reproduction of "A Design Methodology for the Exploitation of
High Level Communication Synthesis" (Bruschi & Bombana, DATE 2004).

The package provides:

* :mod:`repro.kernel` — a SystemC-like discrete-event simulation kernel;
* :mod:`repro.hdl` — four-valued logic, signals, tri-state buses, modules;
* :mod:`repro.osss` — SystemC+ global objects with guarded methods and
  pluggable arbitration (the ODETTE language extension);
* :mod:`repro.tlm` — transaction-level channels and functional IP models;
* :mod:`repro.pci` — a pin-level simplified PCI bus substrate;
* :mod:`repro.core` — the paper's bus-interface design pattern and the
  PCI library element;
* :mod:`repro.synthesis` — the communication-synthesis tool (global-object
  channels lowered to RT-level protocols and arbiter FSMs, with Verilog/
  VHDL emission);
* :mod:`repro.verify` — pre/post-synthesis consistency checking;
* :mod:`repro.flow` — the end-to-end design flow of the paper's Figure 2;
* :mod:`repro.trace` — VCD dumping and ASCII waveform rendering;
* :mod:`repro.instrument` — the probe bus shared by every observer, with
  metrics aggregation and wall-clock profiling (zero cost when off);
* :mod:`repro.compile` — the compiled fast-sim backend: synthesized
  netlists lowered to generated Python, selected with
  ``backend="compiled"`` and equivalence-gated against the
  interpreted channel.
"""

from ._version import __version__
from .errors import (
    ArbitrationError,
    ConsistencyError,
    ElaborationError,
    GuardTimeoutError,
    LogicValueError,
    MultipleDriverError,
    ProtocolError,
    RefinementError,
    ReproError,
    SimulationError,
    SynthesisError,
    WidthError,
)
from .kernel import FS, MS, NS, PS, SEC, US, Simulator, Timeout

__all__ = [
    "ArbitrationError",
    "ConsistencyError",
    "ElaborationError",
    "FS",
    "GuardTimeoutError",
    "LogicValueError",
    "MS",
    "MultipleDriverError",
    "NS",
    "PS",
    "ProtocolError",
    "RefinementError",
    "ReproError",
    "SEC",
    "SimulationError",
    "Simulator",
    "SynthesisError",
    "Timeout",
    "US",
    "WidthError",
    "__version__",
]
