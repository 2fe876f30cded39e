"""Hardware-oriented polymorphism (the SystemC+ late-binding feature).

Software polymorphism over an open class set cannot be synthesized; the
ODETTE flow therefore bounds the set of concrete classes a polymorphic
variable may hold. Storage becomes a tagged union (tag register + the
union of the variants' state) and a late-bound call becomes a multiplexer
over the variants' method implementations.

:class:`PolymorphicVar` gives the behavioural semantics;
:func:`repro.synthesis.poly_synth.synthesize_dispatch` lowers the
dispatch to RTL.
"""

from __future__ import annotations

import math
import typing

from ..errors import SimulationError


class PolymorphicVar:
    """A variable restricted to a closed set of classes under one base.

    :param base: the common base class declaring the callable interface.
    :param variants: the complete, ordered set of concrete classes this
        variable may hold. Order fixes the hardware tag encoding.
    """

    def __init__(
        self,
        base: type,
        variants: typing.Sequence[type],
        name: str = "poly",
    ) -> None:
        if not variants:
            raise SimulationError(f"{name}: a polymorphic var needs >= 1 variant")
        seen: list[type] = []
        for variant in variants:
            if not issubclass(variant, base):
                raise SimulationError(
                    f"{name}: {variant.__name__} is not a subclass of "
                    f"{base.__name__}"
                )
            if variant in seen:
                raise SimulationError(
                    f"{name}: duplicate variant {variant.__name__}"
                )
            seen.append(variant)
        self.base = base
        self.variants: tuple[type, ...] = tuple(variants)
        self.name = name
        self._value: object | None = None

    def __repr__(self) -> str:
        held = type(self._value).__name__ if self._value is not None else "<empty>"
        return f"PolymorphicVar({self.name}, holds {held})"

    # -- storage ------------------------------------------------------------

    @property
    def value(self) -> object:
        if self._value is None:
            raise SimulationError(f"{self.name}: read of an unassigned variable")
        return self._value

    @property
    def tag(self) -> int:
        """Hardware tag: index of the held class in the variant order."""
        return self.variants.index(type(self.value))

    @property
    def tag_bits(self) -> int:
        """Register width needed for the tag."""
        return max(1, math.ceil(math.log2(len(self.variants))))

    def assign(self, obj: object) -> None:
        """Store *obj*; its exact class must be one of the variants."""
        if type(obj) not in self.variants:
            raise SimulationError(
                f"{self.name}: cannot hold a {type(obj).__name__}; the "
                f"bounded set is {[v.__name__ for v in self.variants]}"
            )
        self._value = obj

    def clear(self) -> None:
        self._value = None

    # -- dispatch -------------------------------------------------------------

    def call(self, method: str, *args: object, **kwargs: object) -> object:
        """Late-bound method call on the held object.

        The method must be declared on the *base* class: the synthesized
        dispatcher only knows the common interface.
        """
        if not hasattr(self.base, method):
            raise SimulationError(
                f"{self.name}: {method!r} is not part of the "
                f"{self.base.__name__} interface"
            )
        target = getattr(self.value, method)
        return target(*args, **kwargs)

    def dispatch_table(self, method: str) -> dict[int, typing.Callable]:
        """tag -> unbound implementation, i.e. the multiplexer contents."""
        if not hasattr(self.base, method):
            raise SimulationError(
                f"{self.name}: {method!r} is not part of the "
                f"{self.base.__name__} interface"
            )
        table: dict[int, typing.Callable] = {}
        for index, variant in enumerate(self.variants):
            implementation = getattr(variant, method)
            table[index] = implementation
        return table

    def interface_methods(self) -> tuple[str, ...]:
        """Public callables of the base class (the synthesizable interface)."""
        names = []
        for name in dir(self.base):
            if name.startswith("_"):
                continue
            if callable(getattr(self.base, name)):
                names.append(name)
        return tuple(sorted(names))
