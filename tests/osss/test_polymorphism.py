"""Unit tests for hardware-oriented polymorphism."""

import pytest

from repro.errors import SimulationError
from repro.osss import PolymorphicVar


class Shape:
    def area(self):
        raise NotImplementedError

    def sides(self):
        raise NotImplementedError


class Square(Shape):
    def __init__(self, edge=2):
        self.edge = edge

    def area(self):
        return self.edge * self.edge

    def sides(self):
        return 4


class Triangle(Shape):
    def __init__(self, base=3, height=4):
        self.base = base
        self.height = height

    def area(self):
        return self.base * self.height // 2

    def sides(self):
        return 3


class Pentagon(Shape):
    def area(self):
        return 10

    def sides(self):
        return 5


class TestBoundedSet:
    def test_variants_must_subclass_base(self):
        with pytest.raises(SimulationError):
            PolymorphicVar(Shape, [Square, int])

    def test_duplicates_rejected(self):
        with pytest.raises(SimulationError):
            PolymorphicVar(Shape, [Square, Square])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            PolymorphicVar(Shape, [])

    def test_assignment_outside_set_rejected(self):
        var = PolymorphicVar(Shape, [Square, Triangle])
        with pytest.raises(SimulationError):
            var.assign(Pentagon())

    def test_exact_class_required(self):
        class FancySquare(Square):
            pass

        var = PolymorphicVar(Shape, [Square])
        with pytest.raises(SimulationError):
            var.assign(FancySquare())


class TestDispatch:
    def test_late_binding(self):
        var = PolymorphicVar(Shape, [Square, Triangle])
        var.assign(Square(3))
        assert var.call("area") == 9
        var.assign(Triangle(6, 2))
        assert var.call("area") == 6

    def test_tag_follows_variant_order(self):
        var = PolymorphicVar(Shape, [Square, Triangle, Pentagon])
        var.assign(Triangle())
        assert var.tag == 1
        var.assign(Pentagon())
        assert var.tag == 2

    def test_tag_bits(self):
        assert PolymorphicVar(Shape, [Square]).tag_bits == 1
        assert PolymorphicVar(Shape, [Square, Triangle]).tag_bits == 1
        assert PolymorphicVar(Shape, [Square, Triangle, Pentagon]).tag_bits == 2

    def test_method_must_be_on_base(self):
        class Labelled(Square):
            def label(self):
                return "sq"

        var = PolymorphicVar(Shape, [Labelled])
        var.assign(Labelled())
        with pytest.raises(SimulationError):
            var.call("label")

    def test_unassigned_read_rejected(self):
        var = PolymorphicVar(Shape, [Square])
        with pytest.raises(SimulationError):
            var.call("area")
        with pytest.raises(SimulationError):
            var.value

    def test_clear(self):
        var = PolymorphicVar(Shape, [Square])
        var.assign(Square())
        var.clear()
        with pytest.raises(SimulationError):
            var.value

    def test_dispatch_table(self):
        var = PolymorphicVar(Shape, [Square, Triangle])
        table = var.dispatch_table("area")
        assert set(table) == {0, 1}
        assert table[0](Square(4)) == 16
        assert table[1](Triangle(2, 2)) == 2

    def test_interface_methods(self):
        var = PolymorphicVar(Shape, [Square])
        assert var.interface_methods() == ("area", "sides")
