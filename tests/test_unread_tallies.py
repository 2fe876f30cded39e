"""No model keeps a tally that nothing reads.

A class in the model packages that updates an attribute in place
(``self.<name> += ...``) pays for it on a per-cycle, per-access or
per-transaction path; on shared state that communication synthesis
lowers, the attribute also becomes a register. So every such attribute
must be loaded somewhere in ``src/repro``. A count that only a test or
a report wants comes from what the run records instead: operation and
response status, the monitors' records, the probe bus.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
#: The packages of the simulated models: agents, targets, interface
#: elements, the bus-interface channel and the TLM models.
MODEL_PACKAGES = {"axi", "wishbone", "pci", "iface", "core", "tlm"}


def _modules():
    return {
        path.relative_to(SRC).as_posix():
            ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }


def _loaded_names(modules):
    """Every attribute name some module reads: ``x.<name>`` in a load,
    or ``getattr(x, "<name>", ...)``."""
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(node.args[1].value)
    return names


def _in_place_updates(modules):
    """``(module, class, name)`` of every ``self.<name> op= ...`` in a
    class of a model package."""
    found = []
    for module, tree in modules.items():
        if module.split("/")[0] not in MODEL_PACKAGES:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                ):
                    found.append((module, cls.name, node.target.attr))
    return found


def test_every_in_place_update_is_read():
    modules = _modules()
    updates = _in_place_updates(modules)
    assert ("core/bus_interface.py", "BusInterfaceChannel",
            "commands_put") in updates
    loaded = _loaded_names(modules)
    unread = [update for update in updates if update[2] not in loaded]
    assert not unread, (
        f"tallies nothing in src/repro reads: {unread}; delete them and "
        f"assert the fact through what the run records"
    )
