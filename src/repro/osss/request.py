"""Method-call requests queued at a shared object.

When a process invokes a guarded method of a global object, the call is
reified as a :class:`MethodRequest` and queued at the shared state space.
The arbiter sees requests (never raw processes), which is also the unit
the synthesis tool lowers to a request/grant signal pair.
"""

from __future__ import annotations

import itertools

from ..kernel.event import Event

_sequence = itertools.count()


class MethodRequest:
    """One pending (or completed) guarded-method invocation."""

    __slots__ = (
        "client", "method", "args", "kwargs", "arrival_time", "priority",
        "seq", "done_event", "result", "error", "completed", "cancelled",
        "grant_time", "complete_time",
    )

    def __init__(
        self,
        client: str,
        method: str,
        args: tuple,
        kwargs: dict,
        arrival_time: int,
        done_event: Event,
        priority: int = 0,
    ) -> None:
        self.client = client
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.arrival_time = arrival_time
        self.priority = priority
        self.seq = next(_sequence)
        self.done_event = done_event
        self.result: object = None
        self.error: BaseException | None = None
        self.completed = False
        #: Set when the caller abandoned the request (timeout/retry); a
        #: cancelled request that was already granted is *not* executed,
        #: so an abandoned-then-retried call cannot take effect twice.
        self.cancelled = False
        self.grant_time: int | None = None
        self.complete_time: int | None = None

    def __repr__(self) -> str:
        state = (
            "done" if self.completed
            else "cancelled" if self.cancelled
            else "pending"
        )
        return f"MethodRequest({self.client}->{self.method}, {state})"

    @property
    def wait_time(self) -> int:
        """Femtoseconds between arrival and grant (0 if never granted)."""
        if self.grant_time is None:
            return 0
        return self.grant_time - self.arrival_time


def correlation_id_of(request: MethodRequest) -> str | None:
    """Correlation id carried by a method request, if any.

    Guarded-method calls themselves are not correlated; the id rides on
    the application payloads they move (a ``CommandType`` argument on
    ``put_command``, a ``DataType`` result from ``app_data_get``, or the
    ``(epoch, command)`` tuple ``get_command`` returns). This scans the
    arguments and the result for the first object exposing a non-None
    ``corr_id``.
    """
    candidates = list(request.args)
    result = request.result
    if isinstance(result, tuple):
        candidates.extend(result)
    elif result is not None:
        candidates.append(result)
    for value in candidates:
        corr_id = getattr(value, "corr_id", None)
        if corr_id is not None:
            return corr_id
    return None


class RequestStats:
    """Aggregated servicing statistics of one shared state space.

    Constant-size: waits are kept as a running sum and maximum over the
    :attr:`total_completed` calls, and grants as one count per client,
    so a finished run holds no per-call entry here (a synthesized
    channel's ``call_log`` keeps the per-call record).
    """

    def __init__(self) -> None:
        self.total_requests = 0
        self.total_completed = 0
        self.grants_by_client: dict[str, int] = {}
        self._wait_sum = 0
        self._wait_max = 0

    def record_grant(self, request: MethodRequest) -> None:
        self.grants_by_client[request.client] = (
            self.grants_by_client.get(request.client, 0) + 1
        )

    def record_completion(self, request: MethodRequest) -> None:
        self.total_completed += 1
        wait = request.wait_time
        self._wait_sum += wait
        if wait > self._wait_max:
            self._wait_max = wait

    @property
    def mean_wait_time(self) -> float:
        if not self.total_completed:
            return 0.0
        return self._wait_sum / self.total_completed

    @property
    def max_wait_time(self) -> int:
        return self._wait_max

    def fairness_index(self) -> float:
        """Jain's fairness index over per-client grant counts (1.0 = fair)."""
        counts = list(self.grants_by_client.values())
        if not counts:
            return 1.0
        numerator = sum(counts) ** 2
        denominator = len(counts) * sum(c * c for c in counts)
        return numerator / denominator if denominator else 1.0
