"""Guarded methods — the SystemC+ ``GUARDED_METHOD`` macro as a decorator.

The paper declares, e.g.::

    GUARDED_METHOD(void, putCommand(CommandType& command), !isPendingCommand)

Here that becomes::

    class BusChannel:
        def __init__(self):
            self.pending_command = None

        @guarded_method(lambda self: self.pending_command is None)
        def put_command(self, command):
            self.pending_command = command

The guard is a predicate over the shared object's state. A caller whose
guard evaluates false is suspended until the state changes and the guard
becomes true (the *blocking* semantics the paper exploits).
"""

from __future__ import annotations

import typing

from ..errors import SimulationError

GuardPredicate = typing.Callable[[typing.Any], bool]


class GuardedMethodDescriptor:
    """Marks a shared-object method as guarded and stores its guard."""

    def __init__(self, func: typing.Callable, guard: GuardPredicate | None) -> None:
        self.func = func
        self.guard = guard
        self.__name__ = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.__name__ = name

    def __get__(self, instance: object, owner: type | None = None):
        if instance is None:
            return self
        # Direct invocation (outside a channel) behaves like the plain
        # method — convenient in unit tests of the object's functionality.
        return self.func.__get__(instance, owner)

    def guard_true(self, state: object) -> bool:
        """Evaluate the guard against *state* (unguarded methods are open).

        Guards should return ``bool``, but 0/1-like results (``0``,
        ``1``, numpy-ish scalars, single-bit ints) are coerced — the
        SystemC+ macro takes any expression convertible to ``bool``.
        Anything that is not clearly a truth value still raises: a guard
        returning, say, a list or a signal object is a bug, and
        ``bool()`` on it would silently hide that. The lint rule GRD004
        flags coercible guards statically instead of at runtime.
        """
        if self.guard is None:
            return True
        result = self.guard(state)
        if isinstance(result, bool):
            return result
        try:
            as_int = int(result)
        except (TypeError, ValueError):
            as_int = None
        if as_int is not None and as_int in (0, 1) and result == as_int:
            return bool(as_int)
        raise SimulationError(
            f"guard of {self.__name__!r} returned {result!r}, expected bool"
        )

    def invoke(self, state: object, *args: object, **kwargs: object) -> object:
        return self.func(state, *args, **kwargs)


def guarded_method(guard: GuardPredicate | None = None):
    """Decorator factory: mark a method as a guarded method.

    :param guard: predicate over ``self`` (the shared state); ``None``
        means always callable (guard ``true`` in the paper's ``reset``).
    """

    def decorate(func: typing.Callable) -> GuardedMethodDescriptor:
        return GuardedMethodDescriptor(func, guard)

    return decorate


def guarded_methods_of(cls: type) -> dict[str, GuardedMethodDescriptor]:
    """All guarded methods declared on *cls* (including inherited ones)."""
    found: dict[str, GuardedMethodDescriptor] = {}
    for klass in reversed(cls.__mro__):
        for name, attr in vars(klass).items():
            if isinstance(attr, GuardedMethodDescriptor):
                found[name] = attr
    return found
