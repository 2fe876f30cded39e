"""The compiled RT-level method channel.

:class:`CompiledChannel` is the shared channel core of
:class:`~repro.synthesis.rtl_channel.RtlMethodChannel` — same
constructor, signal tree, client, call log, statistics and edge loop —
with one difference: its next-state step runs the *generated* netlist
code from :mod:`repro.compile.codegen` instead of the hand-written FSM.

The step is the netlist's positional ``_step`` function: the register
file is a tuple of slots, and the sampled ``req`` bits, the method codes
and the per-port eligibility go in as positional arguments, so no dict
is on the path. The core derives every effect from the state transition
the step returns (IDLE→EXEC takes the grant, EXEC→DONE runs the method
body, DONE→IDLE releases the port), exactly as it does for the
hand-written FSM.

Two cones stay behavioural, as the core supplies them for both
backends:

* arbiter *selection* is the executable policy object (the emitted
  arbiter IR is a structural model whose tick timing differs from the
  policy; compiling it verbatim would diverge from the interpreted
  backend). Its pick enters the netlist through the ``arb_grant_index``
  input and the arbiter-internal registers are sliced out;
* eligibility (request AND guard true on the shared state) is evaluated
  by the core per client, with the same ``space.descriptor`` call
  pattern on both backends, and enters through the ``eligible_i``
  inputs.
"""

from __future__ import annotations

from ..analyze.passes import ModuleAnalysis
from ..errors import SynthesisError
from ..synthesis.rtl_channel import (
    ST_DONE,
    ST_EXEC,
    ST_IDLE,
    STATE_NAMES,
    RtlMethodChannel,
)
from .codegen import CompiledNetlist, compile_module


def compile_channel_ir(
    analysis: ModuleAnalysis, n_clients: int
) -> CompiledNetlist:
    """Lower an analyzed channel IR to the step a :class:`CompiledChannel`
    drives.

    Grant selection and per-client eligibility stay external inputs (the
    shared arbiter policy and the behavioural guards supply them), and
    the arbiter-internal registers are sliced out.
    """
    external = ["arb_grant_index"] + [f"eligible_{i}" for i in range(n_clients)]
    return compile_module(
        analysis, external=external, skip_register_prefixes=("arb_",)
    )


class CompiledChannel(RtlMethodChannel):
    """Compiled-backend implementation of one connection group.

    Constructor contract is identical to ``RtlMethodChannel``; the
    synthesizer must call :meth:`bind_netlist` with the group's compiled
    channel IR before the simulation starts.
    """

    _netlist: CompiledNetlist | None = None

    # -- netlist binding -------------------------------------------------------

    def bind_netlist(self, netlist: CompiledNetlist) -> None:
        """Bind the group's compiled channel IR as this channel's step.

        *netlist* comes from :func:`compile_channel_ir` and may be shared
        with other channels of the same shape: its code is stateless and
        this channel keeps its own register slots.
        """
        n = len(self.clients)
        module = netlist.module
        expected = (
            [f"req_{i}" for i in range(n)]
            + [f"method_{i}" for i in range(n)]
            + ["arg_data", "arb_grant_index"]
            + [f"eligible_{i}" for i in range(n)]
        )
        if netlist.step_inputs != expected:
            raise SynthesisError(
                f"channel IR {module.name!r} steps on {netlist.step_inputs}, "
                f"not the {n}-client channel slots {expected}"
            )
        state_key = f"{module.name}_server_state"
        if state_key not in netlist.register_names:
            raise SynthesisError(
                f"channel IR {module.name!r} has no server state register"
            )
        fsm = next(f for f in module.fsms if f.state_register.name == state_key)
        if any(
            fsm.encode(STATE_NAMES[code]) != code
            for code in (ST_IDLE, ST_EXEC, ST_DONE)
        ):
            raise SynthesisError(
                f"channel IR {module.name!r} encodes its server states "
                "differently from the channel core"
            )
        self._netlist = netlist
        self._step = netlist.step
        self._regs = tuple(netlist.reset_registers().values())
        self._state_slot = netlist.register_names.index(state_key)
        self._none_eligible = (0,) * n

    @property
    def netlist(self) -> CompiledNetlist:
        if self._netlist is None:
            raise SynthesisError(
                f"channel {self.path} has no compiled netlist bound"
            )
        return self._netlist

    # -- the next-state step -------------------------------------------------------

    def _next_state(
        self,
        state: int,
        requests: list[int],
        eligible: list[int],
        grant: int | None,
    ) -> int:
        """One edge of the generated netlist on this channel's slots."""
        if grant is None and state == ST_IDLE:
            # Nothing eligible: every register of the channel IR holds
            # (no grant taken, no body counted down, no result latched).
            return ST_IDLE
        if eligible:
            flags = [0] * len(requests)
            for index in eligible:
                flags[index] = 1
            regs = self._step(
                *self._regs, *requests, *self._method_codes, 0, grant, *flags
            )
        else:
            regs = self._step(
                *self._regs, *requests, *self._method_codes, 0, 0,
                *self._none_eligible,
            )
        self._regs = regs
        return regs[self._state_slot]
