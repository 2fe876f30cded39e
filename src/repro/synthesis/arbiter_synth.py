"""Arbiter synthesis.

Each behavioural scheduling algorithm (:mod:`repro.osss.arbiter`) has two
lowered forms, kept consistent with each other:

* an **executable cycle-accurate policy** (:class:`RtlArbiterPolicy`
  subclasses) used by the executable RT-level channel — registered state
  updated once per clock, exactly what the emitted netlist does (a
  channel may defer runs of identical clocks; the policy replays them
  before its state is read);
* an **IR fragment** (:func:`emit_arbiter_ir`) — the priority encoder /
  rotating encoder / age-compare tree / LFSR structure written into the
  synthesized module for the HDL backends and the area report.

Tie-breaking note: the behavioural kernel breaks simultaneous-arrival
ties by global submission order; hardware breaks them by client index.
Traces remain per-client consistent; the global interleaving may differ,
as the paper's "consistency with respect to the test set" allows.
"""

from __future__ import annotations

import typing

from ..errors import SynthesisError
from ..osss.arbiter import Arbiter, StaticPriorityArbiter
from .ir import (
    BinOp,
    Const,
    Expr,
    Mux,
    Net,
    RtlModule,
    clog2,
    mux_chain,
)

#: Width of the per-client age counters in the FCFS arbiter.
FCFS_AGE_BITS = 8
#: Width of the LFSR in the random arbiter.
LFSR_BITS = 16
#: x^16 + x^15 + x^13 + x^4 + 1 (Fibonacci taps, maximal length).
LFSR_TAPS = (15, 14, 12, 3)


# ---------------------------------------------------------------------------
# Executable cycle-accurate policies
# ---------------------------------------------------------------------------

class RtlArbiterPolicy:
    """Clock-synchronous arbitration policy (registered state).

    The per-clock register update may be deferred: a channel whose
    request vector has not moved since the last :meth:`tick` adds the
    clocks it skips to :attr:`lag`, and the policy replays them with
    that vector, exactly, before its state is next read.
    """

    kind = "base"

    def __init__(self, n_clients: int) -> None:
        if n_clients < 1:
            raise SynthesisError("arbiter needs at least one client")
        self.n_clients = n_clients
        #: Clocks deferred since the last tick, all with its request vector.
        self.lag = 0
        self._requesting: typing.Sequence[bool] = [False] * n_clients

    def tick(self, requesting: typing.Sequence[bool]) -> None:
        """Called once per clock with the sampled request vector."""
        if self.lag:
            self.catch_up()
        self._requesting = requesting
        self.advance(requesting, 1)

    def catch_up(self) -> None:
        """Replay the :attr:`lag` deferred clocks."""
        lag, self.lag = self.lag, 0
        self.advance(self._requesting, lag)

    def advance(self, requesting: typing.Sequence[bool], cycles: int) -> None:
        """Apply *cycles* (>= 1) clocks that all sample *requesting*.

        Stateless policies have no per-clock update.
        """

    def select(self, eligible: typing.Sequence[int]) -> int:
        """Pick a client index from the non-empty eligible set."""
        raise NotImplementedError


class RtlFcfsPolicy(RtlArbiterPolicy):
    """Oldest-requester-first via per-client age counters (saturating)."""

    kind = "fcfs"

    def __init__(self, n_clients: int) -> None:
        super().__init__(n_clients)
        self._ages = [0] * n_clients

    @property
    def ages(self) -> list[int]:
        if self.lag:
            self.catch_up()
        return self._ages

    def advance(self, requesting: typing.Sequence[bool], cycles: int) -> None:
        limit = (1 << FCFS_AGE_BITS) - 1
        self._ages = [
            min(limit, age + cycles) if bit else 0
            for age, bit in zip(self._ages, requesting)
        ]

    def select(self, eligible: typing.Sequence[int]) -> int:
        ages = self.ages
        chosen = max(eligible, key=lambda i: (ages[i], -i))
        ages[chosen] = 0
        return chosen


class RtlRoundRobinPolicy(RtlArbiterPolicy):
    """Rotating-priority encoder with a grant pointer register."""

    kind = "round_robin"

    def __init__(self, n_clients: int) -> None:
        super().__init__(n_clients)
        self.pointer = 0

    def select(self, eligible: typing.Sequence[int]) -> int:
        eligible_set = set(eligible)
        for step in range(self.n_clients):
            candidate = (self.pointer + step) % self.n_clients
            if candidate in eligible_set:
                self.pointer = (candidate + 1) % self.n_clients
                return candidate
        raise SynthesisError("select() called with empty eligible set")


class RtlStaticPriorityPolicy(RtlArbiterPolicy):
    """Fixed priority encoder; *priorities* indexed by client."""

    kind = "static_priority"

    def __init__(self, n_clients: int, priorities: typing.Sequence[int]) -> None:
        super().__init__(n_clients)
        if len(priorities) != n_clients:
            raise SynthesisError(
                f"got {len(priorities)} priorities for {n_clients} clients"
            )
        self.priorities = list(priorities)

    def select(self, eligible: typing.Sequence[int]) -> int:
        return min(eligible, key=lambda i: (self.priorities[i], i))


class RtlRandomPolicy(RtlArbiterPolicy):
    """LFSR-rotated priority encoder."""

    kind = "random"

    def __init__(self, n_clients: int, seed: int = 0xACE1) -> None:
        super().__init__(n_clients)
        self._lfsr = seed & ((1 << LFSR_BITS) - 1) or 0xACE1

    @property
    def lfsr(self) -> int:
        if self.lag:
            self.catch_up()
        return self._lfsr

    def advance(self, requesting: typing.Sequence[bool], cycles: int) -> None:
        lfsr = self._lfsr
        mask = (1 << LFSR_BITS) - 1
        for __ in range(cycles):
            feedback = 0
            for tap in LFSR_TAPS:
                feedback ^= (lfsr >> tap) & 1
            lfsr = ((lfsr << 1) | feedback) & mask
        self._lfsr = lfsr

    def select(self, eligible: typing.Sequence[int]) -> int:
        start = self.lfsr % self.n_clients
        eligible_set = set(eligible)
        for step in range(self.n_clients):
            candidate = (start + step) % self.n_clients
            if candidate in eligible_set:
                return candidate
        raise SynthesisError("select() called with empty eligible set")


def lower_arbiter(
    arbiter: Arbiter, n_clients: int, client_paths: typing.Sequence[str]
) -> RtlArbiterPolicy:
    """Build the cycle-accurate policy matching a behavioural arbiter."""
    kind = arbiter.kind
    if kind == "fcfs":
        return RtlFcfsPolicy(n_clients)
    if kind == "round_robin":
        return RtlRoundRobinPolicy(n_clients)
    if kind == "static_priority":
        static = typing.cast(StaticPriorityArbiter, arbiter)
        priorities = [static.priority_of(path) for path in client_paths]
        return RtlStaticPriorityPolicy(n_clients, priorities)
    if kind == "random":
        return RtlRandomPolicy(n_clients)
    raise SynthesisError(
        f"no RTL lowering for arbiter kind {kind!r}; synthesizable kinds: "
        "fcfs, round_robin, static_priority, random"
    )


# ---------------------------------------------------------------------------
# IR emission
# ---------------------------------------------------------------------------

def _rotated_priority(
    eligible_bits: typing.Sequence[Expr],
    start_expr: Expr,
    n: int,
    idx_width: int,
) -> Expr:
    """Grant index = first eligible client at/after *start* (barrel encoder)."""
    cases = []
    for start in range(n):
        inner_cases = []
        for step in range(n):
            candidate = (start + step) % n
            inner_cases.append(
                (eligible_bits[candidate], Const(candidate, idx_width))
            )
        chain = mux_chain(Const(0, idx_width), inner_cases)
        cases.append((BinOp("==", start_expr, Const(start, start_expr.width)), chain))
    return mux_chain(Const(0, idx_width), cases)


def emit_arbiter_ir(
    module: RtlModule,
    kind: str,
    n_clients: int,
    eligible_bits: typing.Sequence[Expr],
    grant_enable: Expr,
    priorities: typing.Sequence[int] | None = None,
) -> tuple[Net, Net]:
    """Write the arbiter structure for *kind* into *module*.

    :param eligible_bits: per-client 1-bit "requesting and guard true".
    :param grant_enable: 1 bit, high when the server accepts a grant this
        cycle (gates the policy-state updates).
    :returns: ``(grant_valid, grant_index)`` nets.
    """
    if len(eligible_bits) != n_clients:
        raise SynthesisError("eligible vector length != n_clients")
    idx_width = clog2(max(2, n_clients))
    any_eligible = module.add_net(f"arb_{kind}_any", 1, "someone is eligible")
    or_tree: Expr = eligible_bits[0]
    for bit in eligible_bits[1:]:
        or_tree = BinOp("|", or_tree, bit)
    module.add_assign(any_eligible, or_tree)
    grant_index = module.add_net("arb_grant_index", idx_width, "selected client")

    if kind == "static_priority":
        order = sorted(
            range(n_clients),
            key=lambda i: ((priorities or [0] * n_clients)[i], i),
        )
        cases = [(eligible_bits[i], Const(i, idx_width)) for i in order]
        module.add_assign(grant_index, mux_chain(Const(0, idx_width), cases),
                          "fixed priority encoder")
    elif kind == "round_robin":
        pointer = module.add_register("arb_rr_pointer", idx_width, 0,
                                      "next client to favour")
        module.add_assign(
            grant_index,
            _rotated_priority(eligible_bits, pointer.ref(), n_clients, idx_width),
            "rotating priority encoder",
        )
        next_pointer = BinOp(
            "+", grant_index.ref(),
            Const(1, idx_width),
        )
        wrap = BinOp("==", grant_index.ref(), Const(n_clients - 1, idx_width))
        module.add_clocked_assign(
            pointer,
            Mux(wrap, Const(0, idx_width), next_pointer),
            enable=BinOp("&", grant_enable, any_eligible.ref()),
            comment="advance past the granted client",
        )
    elif kind == "fcfs":
        ages = [
            module.add_register(f"arb_age_{i}", FCFS_AGE_BITS, 0,
                                f"wait age of client {i}")
            for i in range(n_clients)
        ]
        # Oldest-first compare/mux tree.
        best_idx: Expr = Const(0, idx_width)
        best_age: Expr = Mux(
            eligible_bits[0], ages[0].ref(), Const(0, FCFS_AGE_BITS)
        )
        for i in range(1, n_clients):
            age_i: Expr = Mux(eligible_bits[i], ages[i].ref(), Const(0, FCFS_AGE_BITS))
            take = BinOp("<", best_age, age_i)
            best_idx = Mux(take, Const(i, idx_width), best_idx)
            best_age = Mux(take, age_i, best_age)
        module.add_assign(grant_index, best_idx, "oldest eligible requester")
        for i in range(n_clients):
            max_age = Const((1 << FCFS_AGE_BITS) - 1, FCFS_AGE_BITS)
            saturated = BinOp("==", ages[i].ref(), max_age)
            incremented = Mux(
                saturated, max_age,
                BinOp("+", ages[i].ref(), Const(1, FCFS_AGE_BITS)),
            )
            granted_i = BinOp(
                "&",
                BinOp("&", grant_enable, any_eligible.ref()),
                BinOp("==", grant_index.ref(), Const(i, idx_width)),
            )
            hold = Mux(eligible_bits[i], incremented, Const(0, FCFS_AGE_BITS))
            module.add_clocked_assign(
                ages[i],
                Mux(granted_i, Const(0, FCFS_AGE_BITS), hold),
                comment=f"age counter, client {i}",
            )
    elif kind == "random":
        lfsr = module.add_register("arb_lfsr", LFSR_BITS, 0xACE1,
                                   "pseudo-random source")
        feedback: Expr = BitSelect_safe(lfsr.ref(), LFSR_TAPS[0])
        for tap in LFSR_TAPS[1:]:
            feedback = BinOp("^", feedback, BitSelect_safe(lfsr.ref(), tap))
        shifted = Concat_safe(lfsr.ref(), feedback, LFSR_BITS)
        module.add_clocked_assign(lfsr, shifted, comment="LFSR advance")
        start = module.add_net("arb_rand_start", idx_width)
        raw = module.add_net("arb_rand_raw", idx_width)
        module.add_assign(raw, Slice_low(lfsr.ref(), idx_width))
        if n_clients == (1 << idx_width):
            # The raw slice already covers exactly the client range.
            module.add_assign(start, raw.ref())
        else:
            in_range = BinOp("<", raw.ref(), Const(n_clients, idx_width))
            module.add_assign(start, Mux(in_range, raw.ref(), Const(0, idx_width)))
        module.add_assign(
            grant_index,
            _rotated_priority(eligible_bits, start.ref(), n_clients, idx_width),
            "LFSR-rotated priority encoder",
        )
    else:
        raise SynthesisError(f"no IR emission for arbiter kind {kind!r}")

    return any_eligible, grant_index


# Small IR helpers kept local to arbiter construction.

def BitSelect_safe(expr: Expr, index: int) -> Expr:
    from .ir import BitSelect

    return BitSelect(expr, index)


def Concat_safe(value: Expr, lsb: Expr, width: int) -> Expr:
    """``{value[width-2:0], lsb}`` — shift left by one, insert new LSB."""
    from .ir import BitSelect, Concat

    bits = [BitSelect(value, i) for i in range(width - 2, -1, -1)]
    return Concat(*bits, lsb)


def Slice_low(expr: Expr, width: int) -> Expr:
    from .ir import BitSelect, Concat

    bits = [BitSelect(expr, i) for i in range(width - 1, -1, -1)]
    return Concat(*bits)
