"""No model keeps a tally, no constructor a parameter, and no module a
public definition, that nothing reads.

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

And a public function, class or method under ``src/repro`` is there for
a run, a CLI, an example or a benchmark: one that only the tests reach
is code to maintain that the system never executes.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
#: The packages of the simulated models: agents, targets, interface
#: elements, the bus-interface channel and the TLM models, plus the
#: per-call layers under them: guarded-method objects and the kernel.
MODEL_PACKAGES = {
    "axi", "wishbone", "pci", "iface", "core", "tlm", "osss", "kernel",
}


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


# -- public definitions -------------------------------------------------------

REPO = SRC.parent.parent
#: The code whose names count as readers of a definition.
READERS = ("src", "examples", "benchmarks", "perfbench")
#: Lazy name tables: a package's ``__getattr__`` resolves these strings,
#: so they re-export like an import and read nothing.
LAZY_TABLES = {
    ("core/__init__.py", "_ELEMENT_NAMES"),
    ("tlm/__init__.py", "_GENERIC_PAYLOAD_NAMES"),
}
#: Definitions kept with no reader in the code, with the reason. A class
#: entry also covers the class's methods.
KEPT = {
    "repro.trace.vcd_reader.parse_vcd":
        "the round-trip oracle the VcdTracer tests read dumps back with",
    "repro.instrument.sanitizer.RaceSanitizer":
        "the dynamic oracle the RACE001 tests check the static rule against",
    "repro.core.nonblocking.PollingApplication":
        "the paper's non-blocking interface variant (DESIGN.md)",
    "repro.lint.diagnostics.LintReport.by_rule":
        "a read-only query of a lint report that tests assert through",
    "repro.instrument.probes.ProbeBus.subscribers":
        "a read-only query of the bus that tests assert through",
    "repro.tlm.memory.Memory.words_written":
        "a read-only query of the memory that tests assert through",
}


def _definitions():
    """``(qualified name, name, path, first line, last line)`` of every
    public function, class and method under ``src/repro``; lint rules,
    which ``@register`` puts in the registry, are left out."""
    found = []

    def visit(body, path, prefix):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_") or any(
                isinstance(d, ast.Name) and d.id == "register"
                for d in node.decorator_list
            ):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            qualified = f"{prefix}{node.name}"
            found.append((qualified, node.name, path, first, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{qualified}.")

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        visit(ast.parse(path.read_text(encoding="utf-8")).body, path,
              f"{module}.")
    return found


def _reexports(tree, module, package_init):
    """Ids of the nodes that re-export names rather than read them: the
    imports of a package ``__init__``, ``__all__`` and the lazy name
    tables."""
    skipped = set()
    for node in ast.walk(tree):
        if package_init and isinstance(node, ast.ImportFrom):
            skipped.update(map(id, ast.walk(node)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and (
                    t.id == "__all__" or (module, t.id) in LAZY_TABLES)
                   for t in targets):
                skipped.update(map(id, ast.walk(node)))
    return skipped


def _name_read(node):
    """The name *node* reads: a load, an import, or a string equal to an
    identifier; None for anything else."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()):
        return node.value
    return None


def _reads():
    """Name -> ``(path, line)`` of every place the reader code names it."""
    reads = {}
    for directory in READERS:
        for path in sorted((REPO / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            in_src = path.is_relative_to(SRC)
            skipped = _reexports(
                tree,
                path.relative_to(SRC).as_posix() if in_src else None,
                in_src and path.name == "__init__.py",
            )
            for node in ast.walk(tree):
                name = _name_read(node)
                if name is not None and id(node) not in skipped:
                    reads.setdefault(name, []).append(
                        (path, getattr(node, "lineno", None)))
    return reads


def _unread(definitions, reads):
    """Qualified names of the definitions nothing names outside their
    own body."""
    return [
        qualified
        for qualified, name, path, first, last in definitions
        if not any(
            where != path or line is None or not first <= line <= last
            for where, line in reads.get(name, ())
        )
    ]


def _kept(qualified):
    return any(qualified == entry or qualified.startswith(entry + ".")
               for entry in KEPT)


def test_every_public_definition_has_a_reader():
    definitions = _definitions()
    assert any(d[0] == "repro.kernel.simulator.Simulator.run"
               for d in definitions)
    unread = _unread(definitions, _reads())
    assert "repro.trace.vcd_reader.parse_vcd" in unread
    stray = [qualified for qualified in unread if not _kept(qualified)]
    assert not stray, (
        f"public definitions only the tests reach: {stray}; delete them "
        f"(and their tests), or give a run, CLI, example or benchmark a "
        f"use for them"
    )
    stale = [entry for entry in KEPT if entry not in unread]
    assert not stale, f"KEPT entries that have a reader or are gone: {stale}"

