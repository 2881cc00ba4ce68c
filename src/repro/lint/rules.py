"""Repo-specific codebase rules (``REP001``–``REP005``, ``REP008``,
``REP302``, ``REP303``).

Each rule targets a defect class that has historically invalidated
anonymization reproductions: hidden non-determinism, tolerance-free float
comparison inside comparators, Python's mutable-default trap, persisted
set ordering, algorithm classes that silently miss the
:class:`~repro.anonymize.algorithms.base.Anonymizer` contract, per-row
generalization loops that bypass the columnar measurement plane, and
durable writes that a crash can tear (non-atomic writes, temp files
outside the replace target's filesystem).

The rules are registered with :func:`repro.lint.engine.register`; run them
through :func:`repro.lint.engine.lint_paths` or ``repro lint``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .diagnostics import Diagnostic, Severity
from .engine import LintContext, Rule, RuleVisitor, register

#: Seeded bit-generator constructors that are fine to call unseeded-looking.
_NUMPY_SAFE = {
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: ``random`` module members that sample from (or reseed) the global state.
_RANDOM_GLOBAL = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gammavariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}


def _call_args_seeded(node: ast.Call) -> bool:
    """Whether a constructor call passes a non-``None`` seed argument."""
    if node.keywords and any(keyword.arg == "seed" for keyword in node.keywords):
        seeds = [k.value for k in node.keywords if k.arg == "seed"]
        return not any(
            isinstance(s, ast.Constant) and s.value is None for s in seeds
        )
    if not node.args:
        return False
    first = node.args[0]
    return not (isinstance(first, ast.Constant) and first.value is None)


class _AliasTracker(ast.NodeVisitor):
    """Collects the import aliases of one file.

    ``imports`` maps every absolute import binding to its dotted target
    (``import numpy as np`` binds ``np -> numpy``, ``from os import
    replace`` binds ``replace -> os.replace``); ``modules`` holds the names
    bound by plain ``import`` statements.  The ``random``/``numpy`` sets
    serve REP001.
    """

    def __init__(self) -> None:
        self.imports: dict[str, str] = {}
        self.modules: set[str] = set()
        self.random_aliases: set[str] = set()
        self.numpy_aliases: set[str] = set()
        self.numpy_random_aliases: set[str] = set()
        self.from_random: set[str] = set()
        self.from_numpy_random: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        """Track ``import x [as y]`` bindings (``random``/``numpy`` too)."""
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            # `import a.b` binds `a`; `import a.b as x` binds the module.
            self.imports[bound] = alias.name if alias.asname else bound
            self.modules.add(bound)
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                # `import numpy.random as npr` binds the submodule; plain
                # `import numpy.random` binds `numpy`.
                if alias.asname:
                    self.numpy_random_aliases.add(alias.asname)
                else:
                    self.numpy_aliases.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Track ``from x import y`` bindings (``random``/``numpy`` too)."""
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module and not node.level:
                self.imports[bound] = f"{node.module}.{alias.name}"
            if node.module == "random":
                self.from_random.add(bound)
            elif node.module == "numpy.random":
                self.from_numpy_random.add(bound)
            elif node.module == "numpy" and alias.name == "random":
                self.numpy_random_aliases.add(bound)
        self.generic_visit(node)


@register
class UnseededRandomRule(Rule):
    """``REP001`` — unseeded ``random`` / ``numpy.random`` use.

    Sampling through the module-global state (``random.shuffle``,
    ``np.random.rand``) or constructing an unseeded generator
    (``np.random.default_rng()``, ``random.Random()``) makes runs
    irreproducible: property vectors, and hence every ▶-better verdict,
    change between invocations.  ``datasets/synthetic.py`` is exempt as the
    designated noise source.
    """

    id = "REP001"
    title = "unseeded random / numpy.random call breaks determinism"
    severity = Severity.ERROR
    hint = "use numpy.random.default_rng(seed) / random.Random(seed)"
    exempt_suffixes = ("datasets/synthetic.py",)

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Flag global-state sampling and unseeded generator construction."""
        aliases = _AliasTracker()
        aliases.visit(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                yield from self._check_attribute_call(context, node, func, aliases)
            elif isinstance(func, ast.Name):
                yield from self._check_name_call(context, node, func, aliases)

    def _check_attribute_call(
        self,
        context: LintContext,
        node: ast.Call,
        func: ast.Attribute,
        aliases: _AliasTracker,
    ) -> Iterator[Diagnostic]:
        owner = func.value
        # random.<member>(...)
        if isinstance(owner, ast.Name) and owner.id in aliases.random_aliases:
            if func.attr in _RANDOM_GLOBAL or func.attr == "seed":
                yield self.diagnostic(
                    context,
                    node,
                    f"call to random.{func.attr}() uses the process-global "
                    "random state",
                )
            elif func.attr == "Random" and not _call_args_seeded(node):
                yield self.diagnostic(
                    context, node, "random.Random() constructed without a seed"
                )
            return
        # np.random.<member>(...) or npr.<member>(...)
        is_numpy_random = (
            isinstance(owner, ast.Attribute)
            and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in aliases.numpy_aliases
        ) or (
            isinstance(owner, ast.Name)
            and owner.id in aliases.numpy_random_aliases
        )
        if is_numpy_random:
            if func.attr == "default_rng":
                if not _call_args_seeded(node):
                    yield self.diagnostic(
                        context,
                        node,
                        "numpy.random.default_rng() constructed without a seed",
                    )
            elif func.attr not in _NUMPY_SAFE:
                yield self.diagnostic(
                    context,
                    node,
                    f"call to numpy.random.{func.attr}() uses the legacy "
                    "global random state",
                )

    def _check_name_call(
        self,
        context: LintContext,
        node: ast.Call,
        func: ast.Name,
        aliases: _AliasTracker,
    ) -> Iterator[Diagnostic]:
        if func.id in aliases.from_random and func.id in _RANDOM_GLOBAL:
            yield self.diagnostic(
                context,
                node,
                f"call to random.{func.id}() uses the process-global random state",
            )
        elif func.id in aliases.from_numpy_random:
            if func.id == "default_rng" and not _call_args_seeded(node):
                yield self.diagnostic(
                    context,
                    node,
                    "numpy.random.default_rng() constructed without a seed",
                )
            elif func.id not in _NUMPY_SAFE and func.id != "default_rng":
                yield self.diagnostic(
                    context,
                    node,
                    f"call to numpy.random.{func.id}() uses the legacy "
                    "global random state",
                )


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return _is_float_literal(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_float_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


class _FloatScope(ast.NodeVisitor):
    """Names bound to obviously-float values within one function scope."""

    def __init__(self) -> None:
        self.float_names: set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Do not descend into nested scopes."""

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track ``name = <float literal | float(...)>`` bindings."""
        if _is_float_literal(node.value) or _is_float_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.float_names.add(target.id)
        self.generic_visit(node)


@register
class FloatEqualityRule(Rule):
    """``REP002`` — tolerance-free float equality in comparator code.

    Dominance and ▶-better verdicts in ``core/`` and ``moo/`` must not
    hinge on exact float identity: two releases whose index values differ
    by one ulp would flip between BETTER and EQUIVALENT across platforms.
    Flags ``==``/``!=`` where a comparand is a float literal, a ``float()``
    call, or a local name bound to one.
    """

    id = "REP002"
    title = "float == / != in comparator code; use a tolerance"
    severity = Severity.ERROR
    hint = "compare with math.isclose() / repro.core.vector._isclose() and a tolerance"
    require_parts = ("core", "moo")

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Flag exact float equality per function scope."""
        yield from self._check_scope(context, context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(context, node)

    def _check_scope(
        self, context: LintContext, scope: ast.AST
    ) -> Iterator[Diagnostic]:
        tracker = _FloatScope()
        body = getattr(scope, "body", [])
        for statement in body:
            tracker.visit(statement)

        def floatish(node: ast.AST) -> bool:
            return (
                _is_float_literal(node)
                or _is_float_call(node)
                or (isinstance(node, ast.Name) and node.id in tracker.float_names)
            )

        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # checked as its own scope
            for node in self._walk_same_scope(statement):
                if not isinstance(node, ast.Compare):
                    continue
                comparands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, comparands, comparands[1:]):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    if floatish(left) or floatish(right):
                        yield self.diagnostic(
                            context,
                            node,
                            "exact float equality in comparator code; "
                            "one ulp of drift flips the verdict",
                        )
                        break

    @staticmethod
    def _walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield from FloatEqualityRule._walk_same_scope(child)


@register
class MutableDefaultRule(Rule):
    """``REP003`` — mutable default argument.

    A ``def f(x, acc=[])`` default is created once and shared across
    calls; appending to it leaks state between anonymization runs — the
    classic source of "works the first time" bugs.
    """

    id = "REP003"
    title = "mutable default argument"
    severity = Severity.ERROR
    hint = "default to None and construct the container inside the function"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter"}

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Flag list/dict/set (literal or constructor) defaults."""
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.diagnostic(
                        context,
                        default,
                        f"function {node.name!r} has a mutable default argument",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )


def _is_set_expression(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    ):
        return True
    return isinstance(node, ast.Name) and node.id in set_names


class _SetScope(ast.NodeVisitor):
    """Names bound to set expressions within one function scope."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Do not descend into nested scopes."""

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track ``name = {…} | set(…) | frozenset(…)`` bindings."""
        if _is_set_expression(node.value, set()):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        self.generic_visit(node)


@register
class UnorderedIterationRule(Rule):
    """``REP004`` — iteration order of a set reaches the output.

    Set iteration order depends on insertion history and hash seeding;
    looping over a set (or materializing one with ``list``/``tuple``)
    bakes that order into whatever gets persisted — released tables,
    reports, cached columns.  Iterate ``sorted(...)`` instead.
    """

    id = "REP004"
    title = "iteration over an unordered set"
    severity = Severity.WARNING
    hint = "iterate sorted(the_set) to pin a deterministic order"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Flag for-loops, comprehensions and list()/tuple() over sets."""
        yield from self._check_scope(context, context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(context, node)

    def _check_scope(
        self, context: LintContext, scope: ast.AST
    ) -> Iterator[Diagnostic]:
        tracker = _SetScope()
        body = getattr(scope, "body", [])
        for statement in body:
            tracker.visit(statement)
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # checked as its own scope
            for node in FloatEqualityRule._walk_same_scope(statement):
                if isinstance(node, ast.For) and _is_set_expression(
                    node.iter, tracker.set_names
                ):
                    yield self.diagnostic(
                        context, node, "for-loop iterates a set in hash order"
                    )
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    for generator in node.generators:
                        if isinstance(node, ast.SetComp):
                            continue  # building a set: order cannot escape
                        if _is_set_expression(generator.iter, tracker.set_names):
                            yield self.diagnostic(
                                context,
                                node,
                                "comprehension iterates a set in hash order",
                            )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in {"list", "tuple"}
                    and len(node.args) == 1
                    and _is_set_expression(node.args[0], tracker.set_names)
                ):
                    yield self.diagnostic(
                        context,
                        node,
                        f"{node.func.id}() materializes a set in hash order",
                    )


@register
class AnonymizerContractRule(Rule):
    """``REP005`` — ``Anonymizer`` subclass misses the required interface.

    Every concrete subclass of
    :class:`repro.anonymize.algorithms.base.Anonymizer` must define
    ``anonymize(self, dataset, hierarchies)``; a subclass without it (or
    with the wrong arity) only fails at run time, deep inside a
    comparative study.
    """

    id = "REP005"
    title = "Anonymizer subclass missing required interface methods"
    severity = Severity.ERROR
    hint = "define anonymize(self, dataset, hierarchies) on the subclass"

    _REQUIRED_ARITY = 3  # self, dataset, hierarchies

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Flag direct Anonymizer subclasses lacking ``anonymize``."""
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(self._is_anonymizer_base(base) for base in node.bases):
                continue
            if self._is_abstract(node):
                continue
            method = self._find_method(node, "anonymize")
            if method is None:
                yield self.diagnostic(
                    context,
                    node,
                    f"class {node.name!r} subclasses Anonymizer but does not "
                    "define anonymize()",
                )
            elif len(method.args.args) < self._REQUIRED_ARITY:
                yield self.diagnostic(
                    context,
                    method,
                    f"{node.name}.anonymize() takes {len(method.args.args)} "
                    f"positional parameter(s); the contract is "
                    "(self, dataset, hierarchies)",
                )

    @staticmethod
    def _is_anonymizer_base(base: ast.AST) -> bool:
        if isinstance(base, ast.Name):
            return base.id == "Anonymizer"
        return isinstance(base, ast.Attribute) and base.attr == "Anonymizer"

    @staticmethod
    def _is_abstract(node: ast.ClassDef) -> bool:
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in statement.decorator_list:
                    name = (
                        decorator.attr
                        if isinstance(decorator, ast.Attribute)
                        else getattr(decorator, "id", "")
                    )
                    if name in {"abstractmethod", "abstractproperty"}:
                        return True
        return False

    @staticmethod
    def _find_method(node: ast.ClassDef, name: str) -> ast.FunctionDef | None:
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef) and statement.name == name:
                return statement
        return None


#: Names that conventionally bind a dataset or its row/column material.
_ROW_SOURCE_NAMES = {"dataset", "rows", "raw"}


def _is_row_iterable(node: ast.AST) -> bool:
    """Whether an iterable expression walks dataset rows or a column."""
    if isinstance(node, ast.Name):
        return node.id in _ROW_SOURCE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr == "rows"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "column":
            return True
        if isinstance(func, ast.Name) and func.id in {"enumerate", "zip"}:
            return any(_is_row_iterable(argument) for argument in node.args)
    return False


def _calls_generalize(node: ast.AST) -> ast.Call | None:
    """The first ``<hierarchy>.generalize(...)`` call under ``node``."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "generalize"
        ):
            return child
    return None


@register
class RowwiseGeneralizationRule(Rule):
    """``REP008`` — per-row generalization loop outside the columnar plane.

    Calling ``hierarchy.generalize`` once per dataset row rediscovers the
    same few distinct values thousands of times; the columnar measurement
    plane (``datasets/columnar.py`` interning + ``hierarchy/codes.py``
    level tables) computes each distinct generalization once and recodes a
    column with a single gather.  Only the plane's own builders are
    sanctioned to loop rows.
    """

    id = "REP008"
    title = "per-row hierarchy.generalize loop bypasses the columnar plane"
    severity = Severity.WARNING
    hint = (
        "intern the column (dataset.columns().column(name)) and gather "
        "through hierarchy.codes.level_table(...) instead"
    )
    exempt_suffixes = (
        "datasets/columnar.py",
        "hierarchy/codes.py",
    )

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Flag row-iterating for-loops/comprehensions calling generalize."""
        for node in ast.walk(context.tree):
            if isinstance(node, ast.For) and _is_row_iterable(node.iter):
                call = None
                for statement in node.body:
                    call = _calls_generalize(statement)
                    if call is not None:
                        break
                if call is not None:
                    yield self.diagnostic(
                        context,
                        call,
                        "hierarchy.generalize called once per row in a "
                        "dataset loop",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                if not any(
                    _is_row_iterable(generator.iter) for generator in node.generators
                ):
                    continue
                if isinstance(node, ast.DictComp):
                    call = _calls_generalize(node.key) or _calls_generalize(
                        node.value
                    )
                else:
                    call = _calls_generalize(node.elt)
                if call is not None:
                    yield self.diagnostic(
                        context,
                        call,
                        "hierarchy.generalize called once per row in a "
                        "comprehension over dataset rows",
                    )


def _dotted_name(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Import-resolved dotted text of a simple name/attribute chain."""
    if isinstance(node, ast.Name):
        return imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value, imports)
        return None if base is None else f"{base}.{node.attr}"
    return None


#: Open functions taking the mode as their second positional argument.
_OPEN_FUNCTIONS = frozenset({"open", "io.open", "os.fdopen"})


def _open_mode(call: ast.Call, aliases: _AliasTracker) -> str | None:
    """The constant mode string of an ``open``-family call, if any.

    ``open``, ``io.open``, ``os.fdopen`` and module-level ``*.open``
    functions (``gzip.open``) take the mode second; the ``.open`` method of
    any other receiver (``Path.open``) takes it first.
    """
    func = call.func
    dotted = _dotted_name(func, aliases.imports) or ""
    receiver = func.value if isinstance(func, ast.Attribute) else None
    if dotted in _OPEN_FUNCTIONS or (
        dotted.endswith(".open")
        and (receiver is None or getattr(receiver, "id", None) in aliases.modules)
    ):
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return None
    mode = call.args[position] if len(call.args) > position else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _is_durable_write_mode(mode: str) -> bool:
    return ("w" in mode or "x" in mode) and "a" not in mode and "r" not in mode


@register
class NonAtomicWriteRule(Rule):
    """``REP302`` — non-atomic durable write.

    A write-mode ``open`` (``open(p, "w")``, ``p.open("w")``) or
    ``write_text``/``write_bytes`` truncates the target before writing, so
    a crash mid-write leaves a torn cache entry, manifest or release.
    Durable writes go through :mod:`repro.utility.atomic` (tmp file in the
    target's directory + ``os.replace``), the one module exempt here.
    """

    id = "REP302"
    title = "non-atomic durable write"
    severity = Severity.ERROR
    hint = (
        "write through repro.utility.atomic (tmp in the target's "
        "directory + os.replace)"
    )
    exempt_suffixes = ("repro/utility/atomic.py",)

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Flag write-mode opens and ``write_text``/``write_bytes`` calls."""
        aliases = _AliasTracker()
        aliases.visit(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in {
                "write_text",
                "write_bytes",
            }:
                yield self.diagnostic(
                    context,
                    node,
                    f"non-atomic durable write: .{func.attr}(...) replaces "
                    "the target in place — a crash mid-write tears the file",
                )
                continue
            mode = _open_mode(node, aliases)
            if mode is not None and _is_durable_write_mode(mode):
                yield self.diagnostic(
                    context,
                    node,
                    f"non-atomic durable write: open mode {mode!r} truncates "
                    "the target before writing — a crash mid-write tears "
                    "the file",
                )


@register
class TempFilePlacementRule(Rule):
    """``REP303`` — temp file created outside the replace target's directory.

    ``os.replace`` is atomic only within one filesystem.  In a module that
    replaces files, a ``tempfile.mkstemp``/``NamedTemporaryFile``/
    ``mkdtemp`` without ``dir=`` lands in the default temp directory,
    which may sit on another mount, where the "atomic" replace silently
    degrades to a copy.
    """

    id = "REP303"
    title = "temp file created outside the replace target's directory"
    severity = Severity.ERROR
    hint = "create the tmp with dir=<target's directory>"
    exempt_suffixes = ("repro/utility/atomic.py",)

    _FACTORIES = frozenset(
        {"tempfile.mkstemp", "tempfile.NamedTemporaryFile", "tempfile.mkdtemp"}
    )

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Flag ``dir=``-less temp files in modules that ``os.replace``."""
        aliases = _AliasTracker()
        aliases.visit(context.tree)
        calls = [
            (node, _dotted_name(node.func, aliases.imports))
            for node in ast.walk(context.tree)
            if isinstance(node, ast.Call)
        ]
        if not any(dotted in {"os.replace", "os.rename"} for _, dotted in calls):
            return
        for node, dotted in calls:
            if dotted in self._FACTORIES and not any(
                keyword.arg == "dir" for keyword in node.keywords
            ):
                yield self.diagnostic(
                    context,
                    node,
                    "temp file created without dir= in a module that "
                    "os.replace()s: the default temp dir may sit on "
                    "another filesystem, where replace is not atomic",
                )
