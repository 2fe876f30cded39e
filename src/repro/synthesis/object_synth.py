"""Shared-object server synthesis.

The ODETTE tool synthesizes the object's state into registers and each
guarded-method body into an FSM fragment; the guards become
combinational predicates over the state registers. Our reproduction
keeps the bodies behavioural (the "mixed RT-behavioural" output) but
still produces the structural wrapper: state-register estimation from a
live object instance, guard output ports and the execute handshake the
channel drives.
"""

from __future__ import annotations

import typing

from ..errors import SynthesisError
from ..osss.guarded_method import GuardedMethodDescriptor
from .ir import BinOp, Const, RtlModule, clog2


#: Heuristic widths for estimating object-state registers, by Python type.
_TYPE_BITS: list[tuple[type, int]] = [
    (bool, 1),
    (int, 32),
]


def estimate_state_bits(state: object) -> dict[str, int]:
    """Per-attribute register-width estimate for a shared object.

    Public data attributes only; containers are charged 32 bits per
    current element (a capacity-style estimate a real flow would take
    from declared array bounds).
    """
    estimate: dict[str, int] = {}
    attributes = vars(state) if hasattr(state, "__dict__") else {}
    for name, value in attributes.items():
        clean = name.lstrip("_")
        if isinstance(value, bool):
            estimate[clean] = 1
        elif isinstance(value, int):
            estimate[clean] = 32
        elif isinstance(value, str):
            estimate[clean] = 8 * max(1, len(value))
        elif isinstance(value, (list, tuple, set, frozenset)):
            estimate[clean] = 32 * max(1, len(value))
        elif isinstance(value, dict):
            estimate[clean] = 32 * max(1, len(value))
        elif value is None:
            estimate[clean] = 1
        elif hasattr(value, "__len__"):
            estimate[clean] = 32 * max(1, len(value))  # type: ignore[arg-type]
        else:
            estimate[clean] = 32
    return estimate


def build_object_ir(
    name: str,
    state: object,
    methods: typing.Mapping[str, GuardedMethodDescriptor],
    method_order: typing.Sequence[str],
) -> RtlModule:
    """Generate the object-server wrapper netlist.

    :param state: a live instance (used only for state-size estimation).
    :param method_order: fixed method indexing shared with the channel.
    """
    return object_server_ir(
        name,
        type(state).__name__,
        estimate_state_bits(state),
        [(method, methods[method].guard is not None) for method in method_order],
    )


def object_server_ir(
    name: str,
    class_name: str,
    state_bits: typing.Mapping[str, int],
    methods: typing.Sequence[tuple[str, bool]],
) -> RtlModule:
    """The object-server wrapper netlist from exactly what it depends on.

    :param class_name: name of the shared object's class.
    :param state_bits: per-attribute register widths, as
        :func:`estimate_state_bits` returns them.
    :param methods: ``(method name, has a guard)`` pairs in the fixed
        method indexing shared with the channel.
    """
    if not methods:
        raise SynthesisError("object has no methods to synthesize")
    module = RtlModule(
        name,
        comment=(
            f"shared object server: {class_name} "
            f"({len(methods)} guarded methods; bodies behavioural)"
        ),
    )
    method_bits = clog2(max(2, len(methods)))
    module.add_port("clk", "in", 1)
    module.add_port("rst_n", "in", 1)
    exec_go = module.add_port("exec_go", "in", 1, "from channel: run the body")
    exec_method = module.add_port("exec_method", "in", method_bits,
                                  "from channel: which body")

    # Estimated state registers. The bodies stay behavioural, so the
    # update logic is modelled as a self-hold gated by the execute
    # strobe (the real datapath would replace the hold expression).
    for attr, bits in sorted(state_bits.items()):
        register = module.add_register(
            f"state_{attr}", bits, 0,
            f"object attribute {attr!r} (estimated width)")
        module.add_clocked_assign(
            register, register.ref(), enable=exec_go.ref(),
            comment="updated behaviourally by the method bodies")

    # One guard output per method: combinational over the state registers.
    for index, (method_name, guarded) in enumerate(methods):
        guard_port = module.add_port(
            f"guard_{index}", "out", 1,
            f"guard of {method_name!r}"
            + ("" if guarded else " (unguarded: constant 1)"),
        )
        if not guarded:
            module.add_assign(guard_port, Const(1, 1), "always callable")
        else:
            # The predicate itself stays behavioural; structurally it is a
            # function of the state registers, modelled as a named net.
            predicate = module.add_net(
                f"guard_expr_{index}", 1,
                f"behavioural predicate of {method_name!r} over the state",
            )
            module.add_assign(predicate, Const(1, 1),
                              "placeholder: evaluated behaviourally")
            module.add_assign(guard_port, predicate.ref())

    # Body-dispatch strobes: exec_go qualified by the method index.
    for index, (method_name, __) in enumerate(methods):
        strobe = module.add_port(f"run_{index}", "out", 1,
                                 f"execute body of {method_name!r}")
        selected = BinOp("==", exec_method.ref(), Const(index, method_bits))
        module.add_assign(strobe, BinOp("&", exec_go.ref(), selected),
                          "behavioural body fires on this strobe")
    return module
