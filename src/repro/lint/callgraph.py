"""Layer 4, part 1 — the whole-program call graph.

The parallel-safety pass (:mod:`repro.lint.purity`) needs to reason from a
*registered task operation* (``repro.runtime.task.register_op``) down
through everything the operation can reach: helper functions, methods
resolved through ``self``, ``Anonymizer`` subclasses dispatched through an
``.anonymize(...)`` call on an unknown receiver, and the string-keyed
dispatch tables (``SCALAR_MEASURES[metric](...)``) that make task specs
picklable in the first place.  This module builds that graph statically.

Resolution is *conservative*: a call that cannot be pinned to one
definition is linked to every plausible definition (all indexed methods of
the called name for attribute calls on unknown receivers; every value of a
dispatch table for subscript calls), and a call that resolves to nothing
in the indexed program (builtins, stdlib) produces no edge.  Effects are
therefore over-approximated, never silently missed, which is the right
polarity for certifying operations as safe to ship to remote workers.

The index is purely syntactic — nothing is imported or executed — so it
can run on any tree, including test fixtures that would not import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .engine import iter_python_files, parse_cached

#: Attribute names that register a task operation; matched on the final
#: component so ``task.register_op`` and a bare imported name both count.
_REGISTER_OP = "register_op"

#: The base class whose concrete subclasses are parallel entry points.
_ANONYMIZER_BASE = "Anonymizer"

#: Ubiquitous builtin-collection / str / Path method names for which
#: name-based dynamic dispatch is suppressed.  Without this, every
#: ``d.get(k)`` would link to every indexed ``get`` method in the program
#: and drown the effect analysis in spurious edges.  A project method that
#: shadows one of these names is still resolved through ``self`` or an
#: explicit ``Class.method`` reference — only the *unknown-receiver*
#: fallback is muted.
_UBIQUITOUS_METHODS = frozenset(
    {
        "add", "append", "as_posix", "capitalize", "casefold", "clear",
        "copy", "count", "decode", "difference", "discard", "encode",
        "endswith", "exists", "extend", "find", "format", "format_map",
        "fromkeys", "get", "index", "insert", "intersection", "isalpha",
        "isdigit", "issubset", "issuperset", "items", "join", "keys",
        "lower", "lstrip", "partition", "pop", "popitem", "remove",
        "replace", "reverse", "rfind", "rpartition", "rsplit", "rstrip",
        "setdefault", "sort", "split", "splitlines", "startswith", "strip",
        "symmetric_difference", "title", "union", "update", "upper",
        "values", "zfill",
    }
)


def _module_name(file_path: Path, root: Path) -> str:
    """Dotted module name of ``file_path`` relative to the scanned root.

    A leading ``src`` component is dropped so ``src/repro/runtime/task.py``
    indexes as ``repro.runtime.task``; ``__init__.py`` names the package.
    """
    base = root if root.is_dir() else root.parent
    try:
        parts = list(file_path.relative_to(base).parts)
    except ValueError:
        parts = [file_path.name]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else file_path.stem


@dataclass
class FunctionInfo:
    """One function, method, nested function or dispatch-table lambda."""

    qualname: str
    module: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    line: int
    class_name: str | None = None
    parent: str | None = None  # enclosing function qualname for nested defs

    @property
    def short(self) -> str:
        """Module-free display name (``Class.method`` or ``name``)."""
        prefix = f"{self.module}."
        return (
            self.qualname[len(prefix):]
            if self.qualname.startswith(prefix)
            else self.qualname
        )


@dataclass
class ClassInfo:
    """One indexed class definition."""

    qualname: str
    module: str
    name: str
    bases: tuple[str, ...]  # dotted base names as written, import-resolved
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    line: int = 0


@dataclass(frozen=True)
class OpRegistration:
    """One ``register_op`` registration resolved to its definition."""

    name: str
    function: str  # qualname of the registered callable
    inline_only: bool
    path: str
    line: int


@dataclass(frozen=True)
class CallSite:
    """Aggregated caller -> callee link."""

    line: int
    to_return: bool  # some call site's result may flow into the return value


@dataclass
class ModuleInfo:
    """Per-module symbol tables the resolver needs."""

    name: str
    path: str
    tree: ast.Module
    source: str
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    module_globals: set[str] = field(default_factory=set)
    # dispatch table name -> resolvable callee qualnames (functions, lambdas
    # indexed synthetically, or classes recorded as "class:<qualname>").
    dispatch_tables: dict[str, tuple[str, ...]] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)  # name = other_name


class ProgramIndex:
    """Whole-program symbol tables plus the resolved call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        self.ops: dict[str, OpRegistration] = {}
        self.edges: dict[str, dict[str, CallSite]] = {}

    # -- queries -------------------------------------------------------------

    def callees(self, qualname: str) -> Mapping[str, CallSite]:
        """Direct callees of one function (empty mapping if leaf/unknown)."""
        return self.edges.get(qualname, {})

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                callee for callee in self.callees(current) if callee not in seen
            )
        return seen

    def call_path(self, origin: str, target: str) -> list[str] | None:
        """A shortest call chain ``origin -> ... -> target``, or ``None``.

        BFS over the edge relation with deterministic (sorted) neighbor
        order, so diagnostics render the same chain on every run.
        """
        if origin == target:
            return [origin]
        previous: dict[str, str] = {}
        frontier = [origin]
        seen = {origin}
        while frontier:
            next_frontier: list[str] = []
            for node in frontier:
                for callee in sorted(self.callees(node)):
                    if callee in seen:
                        continue
                    seen.add(callee)
                    previous[callee] = node
                    if callee == target:
                        chain = [callee]
                        while chain[-1] != origin:
                            chain.append(previous[chain[-1]])
                        return list(reversed(chain))
                    next_frontier.append(callee)
            frontier = next_frontier
        return None

    def anonymizer_classes(self) -> list[ClassInfo]:
        """Concrete classes whose base chain reaches ``Anonymizer``."""
        found: list[ClassInfo] = []
        for info in self.classes.values():
            if self._subclasses_anonymizer(info, set()):
                found.append(info)
        return sorted(found, key=lambda c: c.qualname)

    def _subclasses_anonymizer(self, info: ClassInfo, seen: set[str]) -> bool:
        if info.qualname in seen:
            return False
        seen.add(info.qualname)
        for base in info.bases:
            tail = base.rsplit(".", 1)[-1]
            if tail == _ANONYMIZER_BASE:
                return True
            resolved = self._class_by_dotted(info.module, base)
            if resolved is not None and self._subclasses_anonymizer(resolved, seen):
                return True
        return False

    def _class_by_dotted(self, module: str, dotted: str) -> ClassInfo | None:
        """Resolve a dotted class reference as written in ``module``."""
        candidate = self.classes.get(dotted)
        if candidate is not None:
            return candidate
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        target = info.imports.get(head)
        if target is None:
            return self.classes.get(f"{module}.{dotted}")
        full = f"{target}.{rest}" if rest else target
        return self.classes.get(full)


# -- module indexing ---------------------------------------------------------

def _collect_imports(module: str, tree: ast.Module, is_package: bool) -> dict[str, str]:
    imports: dict[str, str] = {}
    package = module if is_package else module.rsplit(".", 1)[0]
    if "." not in module and not is_package:
        package = ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                # `import a.b` binds `a`; `import a.b as x` binds the module.
                imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".") if package else []
                anchor = anchor[: len(anchor) - (node.level - 1)] if node.level > 1 else anchor
                base_parts = [p for p in anchor if p]
                if node.module:
                    base_parts.append(node.module)
                base = ".".join(base_parts)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _function_ref(node: ast.AST) -> str | None:
    """The referenced name of a function-valued expression, if simple."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _index_module(index: ProgramIndex, file_path: Path, root: Path) -> None:
    source, tree = parse_cached(file_path)
    if tree is None:
        return  # the engine reports REP000 for unparsable files
    module = _module_name(file_path, root)
    is_package = file_path.name == "__init__.py"
    info = ModuleInfo(
        name=module,
        path=str(file_path),
        tree=tree,
        source=source,
        imports=_collect_imports(module, tree, is_package),
    )
    index.modules[module] = info

    def add_function(
        node: ast.AST,
        qualname: str,
        class_name: str | None = None,
        parent: str | None = None,
    ) -> FunctionInfo:
        record = FunctionInfo(
            qualname=qualname,
            module=module,
            path=str(file_path),
            node=node,
            line=getattr(node, "lineno", 0),
            class_name=class_name,
            parent=parent,
        )
        index.functions[qualname] = record
        return record

    def index_nested(owner: ast.AST, owner_qualname: str) -> None:
        for child in ast.iter_child_nodes(owner):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = f"{owner_qualname}.<locals>.{child.name}"
                add_function(child, nested, parent=owner_qualname)
                index_nested(child, nested)
            elif not isinstance(child, ast.ClassDef):
                index_nested(child, owner_qualname)

    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{module}.{statement.name}"
            info.functions[statement.name] = qualname
            add_function(statement, qualname)
            index_nested(statement, qualname)
        elif isinstance(statement, ast.ClassDef):
            class_qual = f"{module}.{statement.name}"
            bases = tuple(
                ref for ref in (_function_ref(base) for base in statement.bases) if ref
            )
            class_info = ClassInfo(
                qualname=class_qual,
                module=module,
                name=statement.name,
                bases=bases,
                line=statement.lineno,
            )
            for member in statement.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_qual = f"{class_qual}.{member.name}"
                    class_info.methods[member.name] = method_qual
                    add_function(member, method_qual, class_name=statement.name)
                    index_nested(member, method_qual)
                    index.methods_by_name.setdefault(member.name, []).append(
                        method_qual
                    )
            info.classes[statement.name] = class_info
            index.classes[class_qual] = class_info
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = (
                statement.targets
                if isinstance(statement, ast.Assign)
                else [statement.target]
            )
            value = statement.value
            for target in targets:
                if isinstance(target, ast.Name):
                    info.module_globals.add(target.id)
                    if isinstance(value, ast.Name):
                        info.aliases[target.id] = value.id
        elif isinstance(statement, ast.AugAssign) and isinstance(
            statement.target, ast.Name
        ):
            info.module_globals.add(statement.target.id)

    # Dispatch tables need the functions table complete, so second pass.
    for statement in tree.body:
        if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
            continue
        value = statement.value
        targets = (
            statement.targets
            if isinstance(statement, ast.Assign)
            else [statement.target]
        )
        if not isinstance(value, ast.Dict):
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            entries: list[str] = []
            for key, item in zip(value.keys, value.values):
                if isinstance(item, ast.Lambda):
                    key_repr = (
                        repr(key.value)
                        if isinstance(key, ast.Constant)
                        else f"@{item.lineno}"
                    )
                    qualname = f"{module}.{target.id}[{key_repr}]"
                    add_function(item, qualname)
                    entries.append(qualname)
                else:
                    ref = _function_ref(item)
                    if ref is None:
                        continue
                    resolved = _resolve_dotted(index, info, ref)
                    if resolved is not None:
                        entries.append(resolved)
            if entries:
                info.dispatch_tables[target.id] = tuple(entries)


def _resolve_dotted(
    index: ProgramIndex, module: ModuleInfo, dotted: str, _depth: int = 0
) -> str | None:
    """Resolve a dotted reference to a function/class qualname, if indexed.

    Returns a function qualname, or ``class:<qualname>`` for classes.
    Follows import aliases and simple module-level ``name = other`` aliases
    (bounded depth, so alias cycles terminate).
    """
    if _depth > 8:
        return None
    head, _, rest = dotted.partition(".")
    # Local module symbols first.
    if not rest:
        if head in module.functions:
            return module.functions[head]
        if head in module.classes:
            return f"class:{module.classes[head].qualname}"
        if head in module.aliases:
            return _resolve_dotted(index, module, module.aliases[head], _depth + 1)
    target = module.imports.get(head)
    if target is None:
        return None
    full = f"{target}.{rest}" if rest else target
    if full in index.functions:
        return full
    if full in index.classes:
        return f"class:{full}"
    # The import may name a module whose attribute is the symbol.
    owner, _, symbol = full.rpartition(".")
    owner_info = index.modules.get(owner)
    if owner_info is not None:
        if symbol in owner_info.functions:
            return owner_info.functions[symbol]
        if symbol in owner_info.classes:
            return f"class:{owner_info.classes[symbol].qualname}"
        if symbol in owner_info.aliases:
            return _resolve_dotted(
                index, owner_info, owner_info.aliases[symbol], _depth + 1
            )
    return None


# -- return-flow analysis ----------------------------------------------------

def returned_name_closure(node: ast.AST) -> set[str]:
    """Names whose values may flow into the function's return value.

    Seeded with every name in a ``return`` expression (a lambda's body is
    its return), then closed backwards over simple assignments: if ``x`` is
    in the closure and ``x = <expr>``, every name in ``<expr>`` joins.
    Purely local and syntactic — no aliasing, no attribute tracking — which
    is enough for the flows task operations actually use.
    """
    if isinstance(node, ast.Lambda):
        return_exprs: list[ast.AST] = [node.body]
        body: list[ast.stmt] = []
    else:
        body = list(getattr(node, "body", []))
        return_exprs = [
            child.value
            for child in _walk_same_function(node)
            if isinstance(child, ast.Return) and child.value is not None
        ]
    closure: set[str] = set()
    for expr in return_exprs:
        closure.update(
            child.id for child in ast.walk(expr) if isinstance(child, ast.Name)
        )
    assignments: list[tuple[set[str], ast.AST]] = []
    for child in _walk_same_function(node):
        if isinstance(child, ast.Assign):
            names = {
                target.id
                for target in child.targets
                if isinstance(target, ast.Name)
            }
            names.update(
                element.id
                for target in child.targets
                if isinstance(target, (ast.Tuple, ast.List))
                for element in target.elts
                if isinstance(element, ast.Name)
            )
            if names:
                assignments.append((names, child.value))
        elif isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Name):
            assignments.append(({child.target.id}, child.value))
        elif isinstance(child, (ast.For, ast.AsyncFor)) and isinstance(
            child.target, ast.Name
        ):
            assignments.append(({child.target.id}, child.iter))
    changed = True
    while changed:
        changed = False
        for names, value in assignments:
            if names & closure:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name) and sub.id not in closure:
                        closure.add(sub.id)
                        changed = True
    return closure


def _walk_same_function(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


def _binds_name(node: ast.AST, name: str) -> bool:
    """Whether a function binds ``name`` itself (parameter or local store)."""
    arguments = node.args  # type: ignore[attr-defined]
    parameters = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
    parameters += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
    if any(arg.arg == name for arg in parameters):
        return True
    return any(
        isinstance(child, ast.Name)
        and child.id == name
        and isinstance(child.ctx, ast.Store)
        for child in _walk_same_function(node)
    )


def return_flow_calls(node: ast.AST) -> set[int]:
    """Ids (``id()``) of Call nodes whose result may reach the return value."""
    closure = returned_name_closure(node)
    flows: set[int] = set()
    if isinstance(node, ast.Lambda):
        statements: list[ast.AST] = [node.body]
        for child in ast.walk(node.body):
            if isinstance(child, ast.Call):
                flows.add(id(child))
        return flows
    for child in _walk_same_function(node):
        value: ast.AST | None = None
        if isinstance(child, ast.Return) and child.value is not None:
            value = child.value
        elif isinstance(child, ast.Assign):
            targets = {
                t.id for t in child.targets if isinstance(t, ast.Name)
            }
            targets.update(
                e.id
                for t in child.targets
                if isinstance(t, (ast.Tuple, ast.List))
                for e in t.elts
                if isinstance(e, ast.Name)
            )
            if targets & closure:
                value = child.value
        elif isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Name):
            if child.target.id in closure:
                value = child.value
        if value is None:
            continue
        for sub in ast.walk(value):
            if isinstance(sub, ast.Call):
                flows.add(id(sub))
    return flows


# -- call resolution ---------------------------------------------------------

class _CallResolver:
    """Resolves the calls of one function body to indexed definitions."""

    def __init__(self, index: ProgramIndex, module: ModuleInfo, fn: FunctionInfo):
        self.index = index
        self.module = module
        self.fn = fn
        # name -> candidate callee qualnames bound by local assignment
        self.local_bindings: dict[str, tuple[str, ...]] = {}
        self._collect_local_bindings()

    def _collect_local_bindings(self) -> None:
        for child in _walk_same_function(self.fn.node):
            if not isinstance(child, ast.Assign):
                continue
            names = [t.id for t in child.targets if isinstance(t, ast.Name)]
            if not names:
                continue
            candidates = self._value_candidates(child.value)
            if candidates:
                for name in names:
                    self.local_bindings[name] = tuple(candidates)

    def _value_candidates(self, value: ast.AST) -> list[str]:
        """Function qualnames an expression may evaluate to."""
        ref = _function_ref(value)
        if ref is not None:
            resolved = _resolve_dotted(self.index, self.module, ref)
            if resolved is not None:
                return [resolved]
        if isinstance(value, ast.Subscript):
            table = self._dispatch_table(value.value)
            if table is not None:
                return list(table)
        return []

    def _dispatch_table(self, node: ast.AST) -> tuple[str, ...] | None:
        """Dispatch-table entries for ``NAME[...]`` / ``mod.NAME[...]``."""
        if isinstance(node, ast.Name):
            table = self.module.dispatch_tables.get(node.id)
            if table is not None:
                return table
            target = self.module.imports.get(node.id)
            if target is not None:
                owner, _, symbol = target.rpartition(".")
                owner_info = self.index.modules.get(owner)
                if owner_info is not None:
                    return owner_info.dispatch_tables.get(symbol)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = self.module.imports.get(node.value.id)
            owner_info = self.index.modules.get(target) if target else None
            if owner_info is not None:
                return owner_info.dispatch_tables.get(node.attr)
        return None

    def resolve_call(self, call: ast.Call) -> list[str]:
        """Candidate callee qualnames for one call (may be empty)."""
        func = call.func
        out: list[str] = []
        if isinstance(func, ast.Name):
            out.extend(self._resolve_name_call(func.id))
        elif isinstance(func, ast.Attribute):
            out.extend(self._resolve_attribute_call(func))
        elif isinstance(func, ast.Subscript):
            table = self._dispatch_table(func.value)
            if table:
                out.extend(table)
        resolved: list[str] = []
        for candidate in out:
            materialized = self._materialize(candidate)
            if materialized is not None and materialized not in resolved:
                resolved.append(materialized)
        return resolved

    def _materialize(self, candidate: str) -> str | None:
        """Map ``class:X`` to its constructor; pass functions through."""
        if candidate.startswith("class:"):
            qualname = candidate[len("class:"):]
            info = self.index.classes.get(qualname)
            if info is None:
                return None
            init = info.methods.get("__init__")
            return init
        return candidate if candidate in self.index.functions else None

    def _resolve_name_call(self, name: str) -> list[str]:
        # Nested function defined in this (or an enclosing) function body.
        scope: str | None = self.fn.qualname
        while scope is not None:
            nested = f"{scope}.<locals>.{name}"
            if nested in self.index.functions:
                return [nested]
            scope = self.index.functions[scope].parent if scope in self.index.functions else None
        if name in self.local_bindings:
            return list(self.local_bindings[name])
        resolved = _resolve_dotted(self.index, self.module, name)
        return [resolved] if resolved else []

    def _resolve_attribute_call(self, func: ast.Attribute) -> list[str]:
        owner = func.value
        attr = func.attr
        if isinstance(owner, ast.Name):
            # Imported module / class attribute: mod.fn(...), Class.method(...)
            resolved = _resolve_dotted(self.index, self.module, f"{owner.id}.{attr}")
            if resolved is not None:
                return [resolved]
            if owner.id in {"self", "cls"}:
                found = self._resolve_self_method(owner.id, attr)
                if found is not None:
                    return [found]
        # Dynamic dispatch: every indexed method of that name is a
        # candidate — except dunders and builtin-collection names, whose
        # unknown receivers are overwhelmingly dicts/lists/strs.
        if attr.startswith("__") or attr in _UBIQUITOUS_METHODS:
            return []
        return list(self.index.methods_by_name.get(attr, ()))

    def _receiver_class(self, name: str) -> str | None:
        """The class whose instance ``self``/``cls`` denotes in this body.

        A function nested in a method sees the method's ``self``/``cls`` as
        a free variable — unless it binds the name itself, or no method
        encloses it.
        """
        fn: FunctionInfo | None = self.fn
        while fn is not None:
            if fn.class_name is not None:
                return fn.class_name
            if fn.parent is None or _binds_name(fn.node, name):
                return None
            fn = self.index.functions.get(fn.parent)
        return None

    def _resolve_self_method(self, receiver: str, attr: str) -> str | None:
        class_name = self._receiver_class(receiver)
        if class_name is None:
            return None
        class_info = self.module.classes.get(class_name)
        if class_info is None:
            # method of a class defined in another scanned module? fall back
            class_info = self.index.classes.get(f"{self.fn.module}.{class_name}")
        seen: set[str] = set()
        while class_info is not None and class_info.qualname not in seen:
            seen.add(class_info.qualname)
            if attr in class_info.methods:
                return class_info.methods[attr]
            parent: ClassInfo | None = None
            for base in class_info.bases:
                parent = self.index._class_by_dotted(class_info.module, base)
                if parent is not None:
                    break
            class_info = parent
        return None


# -- op registration ---------------------------------------------------------

def _op_from_decorator(
    index: ProgramIndex,
    module: ModuleInfo,
    fn_node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
) -> OpRegistration | None:
    for decorator in fn_node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if not _is_register_op(index, module, decorator.func):
            continue
        name = _constant_str(decorator.args[0]) if decorator.args else None
        if name is None:
            continue
        inline_only = any(
            keyword.arg == "inline_only"
            and isinstance(keyword.value, ast.Constant)
            and bool(keyword.value.value)
            for keyword in decorator.keywords
        )
        return OpRegistration(
            name=name,
            function=qualname,
            inline_only=inline_only,
            path=module.path,
            line=decorator.lineno,
        )
    return None


def _is_register_op(index: ProgramIndex, module: ModuleInfo, func: ast.AST) -> bool:
    """Whether an expression names ``register_op`` (directly or aliased)."""
    if isinstance(func, ast.Attribute):
        return func.attr == _REGISTER_OP
    if isinstance(func, ast.Name):
        if func.id == _REGISTER_OP:
            return True
        seen: set[str] = set()
        name = func.id
        while name in module.aliases and name not in seen:
            seen.add(name)
            name = module.aliases[name]
            if name == _REGISTER_OP:
                return True
        target = module.imports.get(name)
        return bool(target and target.rsplit(".", 1)[-1] == _REGISTER_OP)
    return False


def _constant_str(node: ast.AST) -> str | None:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _collect_ops(index: ProgramIndex) -> None:
    for module in index.modules.values():
        for statement in module.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = module.functions[statement.name]
                registration = _op_from_decorator(index, module, statement, qualname)
                if registration is not None:
                    index.ops[registration.name] = registration
                continue
            # Call-form registration: register_op("x")(fn) — possibly
            # through a wrapper call, possibly assigned.
            value: ast.AST | None = None
            if isinstance(statement, ast.Expr):
                value = statement.value
            elif isinstance(statement, ast.Assign):
                value = statement.value
            if not isinstance(value, ast.Call):
                continue
            inner = value.func
            if not isinstance(inner, ast.Call):
                continue
            if not _is_register_op(index, module, inner.func):
                continue
            name = _constant_str(inner.args[0]) if inner.args else None
            if name is None or not value.args:
                continue
            target_qual = _registered_target(index, module, value.args[0])
            if target_qual is None:
                continue
            inline_only = any(
                keyword.arg == "inline_only"
                and isinstance(keyword.value, ast.Constant)
                and bool(keyword.value.value)
                for keyword in inner.keywords
            )
            index.ops[name] = OpRegistration(
                name=name,
                function=target_qual,
                inline_only=inline_only,
                path=module.path,
                line=value.lineno,
            )


def _registered_target(
    index: ProgramIndex, module: ModuleInfo, node: ast.AST
) -> str | None:
    """The function a call-form registration registers.

    Sees through one wrapper call (``register_op("x")(traced(fn))``) by
    taking the first resolvable Name argument.
    """
    ref = _function_ref(node)
    if ref is not None:
        resolved = _resolve_dotted(index, module, ref)
        if resolved and not resolved.startswith("class:"):
            return resolved
    if isinstance(node, ast.Call):
        for argument in node.args:
            inner = _registered_target(index, module, argument)
            if inner is not None:
                return inner
    return None


# -- graph assembly ----------------------------------------------------------

def build_program_index(paths: Sequence[str | Path]) -> ProgramIndex:
    """Index every Python file under ``paths`` and resolve the call graph."""
    index = ProgramIndex()
    for entry in paths:
        root = Path(entry)
        for file_path in iter_python_files([root]):
            _index_module(index, file_path, root)
    for methods in index.methods_by_name.values():
        methods.sort()
    _collect_ops(index)
    for fn in list(index.functions.values()):
        module = index.modules.get(fn.module)
        if module is None:
            continue
        resolver = _CallResolver(index, module, fn)
        flows = return_flow_calls(fn.node)
        for call in _calls_of(fn.node):
            for callee in resolver.resolve_call(call):
                existing = index.edges.setdefault(fn.qualname, {}).get(callee)
                to_return = id(call) in flows
                if existing is None:
                    index.edges[fn.qualname][callee] = CallSite(
                        line=call.lineno, to_return=to_return
                    )
                elif to_return and not existing.to_return:
                    index.edges[fn.qualname][callee] = CallSite(
                        line=existing.line, to_return=True
                    )
    return index


def _calls_of(node: ast.AST) -> Iterator[ast.Call]:
    """Call nodes of one function body, excluding nested def/class scopes.

    Lambdas defined inline are *included*: they execute with the function's
    bindings and typically run within the same task.
    """
    if isinstance(node, ast.Lambda):
        for child in ast.walk(node.body):
            if isinstance(child, ast.Call):
                yield child
        return
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))
