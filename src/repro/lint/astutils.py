"""Source-level introspection helpers shared by the lint rules.

The static rules reason about *Python functions as hardware
descriptions*: process bodies, guard lambdas and shared-class methods.
This module turns live callables back into ``ast`` nodes (parsing each
source file once) and extracts the facts the rules need — attribute
reads/writes, ``self.<chain>`` resolution against a live instance,
mutation heuristics for purity checking.

Everything here is best-effort: builtins, C extensions and exec'd code
have no retrievable source, in which case helpers return ``None`` /
empty results and the rules silently skip the object (a lint pass must
never crash on code it cannot see).
"""

from __future__ import annotations

import ast
import inspect
import typing

#: Sentinel for "the attribute chain could not be resolved".
UNRESOLVED = object()

#: Method names treated as mutating their receiver (purity heuristic).
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "remove", "discard", "pop", "popleft", "clear", "update",
    "setdefault", "sort", "reverse", "write", "force",
    "notify", "notify_delta", "notify_after", "push", "put", "submit",
})

#: Builtins a guard may call and remain pure.
PURE_BUILTINS = frozenset({
    "len", "bool", "int", "float", "abs", "min", "max", "sum", "all",
    "any", "isinstance", "issubclass", "getattr", "hasattr", "tuple",
    "sorted", "repr", "str", "id", "type", "round", "divmod", "ord",
})

_module_ast_cache: dict[str, "ast.Module | None"] = {}

#: Counters behind ``benchmarks/bench_lint_parse.py``: how many source
#: files were actually parsed and how many whole-module AST walks
#: ``callable_ast`` performed (vs. answered from its memo). Snapshot
#: with :func:`parse_counters` before/after a run and diff.
parse_stats = {"module_parses": 0, "ast_walks": 0, "cache_hits": 0}


def parse_counters() -> dict[str, int]:
    """A snapshot copy of :data:`parse_stats`."""
    return dict(parse_stats)


def _module_ast(filename: str) -> "ast.Module | None":
    if filename not in _module_ast_cache:
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                _module_ast_cache[filename] = ast.parse(handle.read())
            parse_stats["module_parses"] += 1
        except (OSError, SyntaxError, ValueError):
            _module_ast_cache[filename] = None
    return _module_ast_cache[filename]


FunctionNode = typing.Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]

#: ``code object -> resolved AST node``: one whole-module walk per
#: distinct function, ever, no matter how many rules ask. Keyed by the
#: code object (not the callable) so every bound method of a class and
#: each re-wrapped descriptor of the same function hit one entry.
_callable_ast_cache: dict[typing.Any, "FunctionNode | None"] = {}


def callable_ast(func: typing.Callable) -> FunctionNode | None:
    """The AST node defining *func* (function, method or lambda).

    Works for lambdas buried in decorator expressions by parsing the
    whole source file and matching on name/line instead of relying on
    ``inspect.getsource`` (which returns unparseable fragments there).
    Results are memoized per code object.
    """
    func = inspect.unwrap(func)
    func = getattr(func, "__func__", func)
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    if code in _callable_ast_cache:
        parse_stats["cache_hits"] += 1
        return _callable_ast_cache[code]
    filename = code.co_filename
    tree = _module_ast(filename)
    if tree is None:
        _callable_ast_cache[code] = None
        return None
    parse_stats["ast_walks"] += 1
    lineno = code.co_firstlineno
    is_lambda = func.__name__ == "<lambda>"
    best: FunctionNode | None = None
    best_distance = 1 << 30
    for node in ast.walk(tree):
        if is_lambda:
            if not isinstance(node, ast.Lambda):
                continue
        else:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name != func.__name__:
                continue
        anchor_lines = [node.lineno]
        if not isinstance(node, ast.Lambda):
            anchor_lines += [d.lineno for d in node.decorator_list]
        distance = min(abs(line - lineno) for line in anchor_lines)
        if distance < best_distance:
            best, best_distance = node, distance
    # Only accept a close match; distant same-named functions are not it.
    result = best if best is not None and best_distance <= 2 else None
    _callable_ast_cache[code] = result
    return result


def first_arg_name(node: FunctionNode) -> str | None:
    """Name of the function's first positional argument (its ``self``)."""
    args = node.args.posonlyargs + node.args.args
    return args[0].arg if args else None


def attr_chain(node: ast.AST) -> list[str] | None:
    """``self.a.b`` -> ``["self", "a", "b"]``; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def resolve_chain(instance: object, chain: typing.Sequence[str]) -> object:
    """Walk ``chain[1:]`` attribute accesses on *instance*.

    The first element is the function's self-name and is skipped. Returns
    :data:`UNRESOLVED` when any step fails (including raising properties).
    """
    target = instance
    for name in chain[1:]:
        try:
            target = getattr(target, name)
        except Exception:
            return UNRESOLVED
    return target


def self_attr_reads(node: FunctionNode, self_name: str | None = None) -> set[str]:
    """First-level attribute names read off the self argument."""
    if self_name is None:
        self_name = first_arg_name(node)
    if self_name is None:
        return set()
    reads: set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == self_name
        ):
            reads.add(sub.attr)
    return reads


def self_attr_writes(node: FunctionNode, self_name: str | None = None) -> set[str]:
    """Attributes assigned, aug-assigned, deleted or mutated-in-place.

    ``self.x = ...``, ``self.x += ...`` and ``self.x.append(...)`` all
    count as writes of ``x`` (the last via the mutating-call heuristic).
    """
    if self_name is None:
        self_name = first_arg_name(node)
    if self_name is None:
        return set()

    def direct_attr(target: ast.AST) -> str | None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == self_name
        ):
            return target.attr
        return None

    writes: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                for leaf in ast.walk(target):
                    attr = direct_attr(leaf)
                    if attr:
                        writes.add(attr)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            attr = direct_attr(sub.target)
            if attr:
                writes.add(attr)
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                attr = direct_attr(target)
                if attr:
                    writes.add(attr)
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in MUTATING_METHODS:
                chain = attr_chain(sub.func.value)
                if chain and chain[0] == self_name and len(chain) >= 2:
                    writes.add(chain[1])
    return writes


class MutationFinding:
    """One impurity detected inside a guard expression."""

    def __init__(self, kind: str, detail: str) -> None:
        self.kind = kind       # "assignment" | "mutating-call" | "call"
        self.detail = detail

    def __repr__(self) -> str:
        return f"MutationFinding({self.kind}: {self.detail})"


def find_impurities(node: FunctionNode) -> list[MutationFinding]:
    """Constructs that make a guard expression impure.

    Guards must be pure predicates over the shared state: no assignments
    (walrus included), no calls to mutating methods, no calls to
    functions outside a small pure-builtin whitelist.
    """
    findings: list[MutationFinding] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.NamedExpr):
            findings.append(MutationFinding(
                "assignment", ast.unparse(sub.target)
            ))
        elif isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Attribute):
                if sub.func.attr in MUTATING_METHODS:
                    findings.append(MutationFinding(
                        "mutating-call", ast.unparse(sub.func)
                    ))
            elif isinstance(sub.func, ast.Name):
                if sub.func.id not in PURE_BUILTINS:
                    findings.append(MutationFinding(
                        "call", sub.func.id
                    ))
    return findings


def class_method_asts(cls: type) -> dict[str, FunctionNode]:
    """ASTs of every plain method and guarded-method body of *cls*."""
    from ..osss.guarded_method import GuardedMethodDescriptor

    result: dict[str, FunctionNode] = {}
    for klass in reversed(cls.__mro__):
        if klass is object:
            continue
        for name, attr in vars(klass).items():
            func: typing.Callable | None = None
            if isinstance(attr, GuardedMethodDescriptor):
                func = attr.func
            elif inspect.isfunction(attr):
                func = attr
            if func is None:
                continue
            node = callable_ast(func)
            if node is not None:
                result[name] = node
    return result


def class_property_asts(cls: type) -> dict[str, FunctionNode]:
    """ASTs of every property getter of *cls* (guards read these)."""
    result: dict[str, FunctionNode] = {}
    for klass in reversed(cls.__mro__):
        for name, attr in vars(klass).items():
            if isinstance(attr, property) and attr.fget is not None:
                node = callable_ast(attr.fget)
                if node is not None:
                    result[name] = node
    return result


def expand_guard_reads(cls: type, reads: set[str]) -> set[str]:
    """Close *reads* over property getters: a guard reading a property
    really depends on the data attributes the getter reads."""
    properties = class_property_asts(cls)
    expanded = set(reads)
    frontier = list(reads)
    while frontier:
        name = frontier.pop()
        getter = properties.get(name)
        if getter is None:
            continue
        for dependency in self_attr_reads(getter):
            if dependency not in expanded:
                expanded.add(dependency)
                frontier.append(dependency)
    return expanded
