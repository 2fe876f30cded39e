"""No model keeps a tally, and no constructor a parameter, that nothing
reads.

A class in the model packages that updates an attribute in place
(``self.<name> += ...``) pays for it on a per-cycle, per-access or
per-transaction path; on shared state that communication synthesis
lowers, the attribute also becomes a register. So every such attribute
must be loaded somewhere in ``src/repro``. A count that only a test or
a report wants comes from what the run records instead: operation and
response status, the monitors' records, the probe bus.

Likewise a constructor that keeps one of its parameters on ``self``
under the parameter's name keeps it for a reader: a stored option that
nothing in ``src/repro`` loads is a setting with no effect.
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


def _stored_parameters(modules):
    """``(module, class, name)`` of every ``self.<name> = <name>`` (plain
    or annotated) in a class's ``__init__`` whose *name* is one of the
    constructor's parameters."""
    found = []
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef)
                        and init.name == "__init__"):
                    continue
                params = {arg.arg for arg in (*init.args.args,
                                              *init.args.kwonlyargs)}
                for node in ast.walk(init):
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, ast.AnnAssign):
                        targets = [node.target]
                    else:
                        continue
                    value = node.value
                    if not (isinstance(value, ast.Name)
                            and value.id in params):
                        continue
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr == value.id
                        ):
                            found.append((module, cls.name, target.attr))
    return found


def test_every_stored_constructor_parameter_is_read():
    modules = _modules()
    stores = _stored_parameters(modules)
    assert ("flow/platforms.py", "PciPlatformConfig", "backend") in stores
    assert ("hdl/module.py", "Module", "name") in stores
    loaded = _loaded_names(modules)
    unread = [store for store in stores if store[2] not in loaded]
    assert not unread, (
        f"constructor parameters stored on self that nothing in src/repro "
        f"reads: {unread}; delete the store (and the parameter if nothing "
        f"else uses it)"
    )
