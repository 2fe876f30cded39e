"""Unit tests for the guarded-method decorator."""

import pytest

from repro.errors import SimulationError
from repro.osss import (
    GuardedMethodDescriptor,
    guarded_method,
    guarded_methods_of,
)


class Counter:
    def __init__(self):
        self.value = 0
        self.limit = 3

    @guarded_method(lambda self: self.value < self.limit)
    def increment(self):
        self.value += 1
        return self.value

    @guarded_method()
    def read(self):
        return self.value

    def plain(self):
        return "plain"


class SaturatingCounter(Counter):
    @guarded_method(lambda self: self.value > 0)
    def decrement(self):
        self.value -= 1
        return self.value


class TestDescriptor:
    def test_discovery(self):
        methods = guarded_methods_of(Counter)
        assert set(methods) == {"increment", "read"}
        assert "plain" not in methods

    def test_inheritance_adds_methods(self):
        methods = guarded_methods_of(SaturatingCounter)
        assert set(methods) == {"increment", "read", "decrement"}

    def test_direct_invocation_behaves_like_method(self):
        counter = Counter()
        assert counter.increment() == 1
        assert counter.value == 1

    def test_class_access_returns_descriptor(self):
        assert isinstance(Counter.increment, GuardedMethodDescriptor)

    def test_guard_evaluation(self):
        counter = Counter()
        descriptor = guarded_methods_of(Counter)["increment"]
        assert descriptor.guard_true(counter)
        counter.value = 3
        assert not descriptor.guard_true(counter)

    def test_unguarded_is_always_true(self):
        descriptor = guarded_methods_of(Counter)["read"]
        assert descriptor.guard_true(Counter())

    def test_non_bool_guard_rejected(self):
        class Bad:
            @guarded_method(lambda self: 42)
            def method(self):
                pass

        descriptor = guarded_methods_of(Bad)["method"]
        with pytest.raises(SimulationError):
            descriptor.guard_true(Bad())

    def test_invoke_passes_arguments(self):
        class Adder:
            @guarded_method()
            def add(self, a, b=10):
                return a + b

        descriptor = guarded_methods_of(Adder)["add"]
        assert descriptor.invoke(Adder(), 1) == 11
        assert descriptor.invoke(Adder(), 1, b=2) == 3

    def test_docstring_preserved(self):
        class Documented:
            @guarded_method()
            def method(self):
                """The docs."""

        assert guarded_methods_of(Documented)["method"].__doc__ == "The docs."
