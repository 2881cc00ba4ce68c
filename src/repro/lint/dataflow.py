"""Layer 3 dataflow machinery: per-function CFGs and taint fixpoints.

This module is the *mechanism* half of the taint analysis: it builds a
statement-level control-flow graph for one function, runs a forward
may-taint dataflow to a fixpoint over it, and evaluates expression taint
with strong updates on assignment.  The *policy* half — what counts as a
source, a sanitizer or a sink for the anonymizer boundary — lives in
:mod:`repro.lint.taint` and is injected through :class:`TaintPolicy`.

The abstract state maps variable names to frozensets of taint tags; the
join at CFG merge points is key-wise union, so the analysis computes the
standard MFP solution of a monotone framework over a finite lattice and
always terminates.  Transfer functions cover plain and annotated
assignment, augmented assignment, tuple/list unpacking (arity-precise
when the right-hand side is a matching literal), walrus bindings
(including their PEP 572 escape from comprehension scopes), ``for``
targets, ``with`` aliases and comprehension generator variables.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

Taint = frozenset[str]
Env = dict[str, Taint]

EMPTY: Taint = frozenset()


@dataclass
class Block:
    """One basic block: straight-line statements plus successor edges.

    Compound statements appear as *header* entries — the transfer function
    of an ``ast.If`` evaluates only its test, the bodies live in successor
    blocks.
    """

    id: int
    statements: list[ast.AST] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    blocks: dict[int, Block]
    entry: int

    def successors(self, block_id: int) -> list[int]:
        """Successor block ids of ``block_id``."""
        return self.blocks[block_id].successors


class _CFGBuilder:
    """Builds a :class:`CFG` from a statement list.

    ``break``/``continue`` targets are kept on explicit stacks; ``try``
    bodies get conservative edges into every handler (any statement of the
    body may raise), which is sound for a may-taint analysis.
    """

    def __init__(self) -> None:
        self.blocks: dict[int, Block] = {}
        self._next_id = 0

    def new_block(self) -> Block:
        block = Block(self._next_id)
        self._next_id += 1
        self.blocks[block.id] = block
        return block

    def edge(self, source: Block, target: Block) -> None:
        if target.id not in source.successors:
            source.successors.append(target.id)

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        entry = self.new_block()
        exit_block = self.visit_body(body, entry, [], [])
        # The trailing block may be empty; that is fine — it is the
        # function's implicit fall-through exit.
        del exit_block
        return CFG(self.blocks, entry.id)

    def visit_body(
        self,
        body: Sequence[ast.stmt],
        current: Block,
        break_targets: list[Block],
        continue_targets: list[Block],
    ) -> Block:
        """Thread ``body`` onto ``current``; return the live tail block."""
        for statement in body:
            current = self.visit_statement(
                statement, current, break_targets, continue_targets
            )
        return current

    def visit_statement(
        self,
        statement: ast.stmt,
        current: Block,
        break_targets: list[Block],
        continue_targets: list[Block],
    ) -> Block:
        if isinstance(statement, ast.If):
            current.statements.append(statement)
            join = self.new_block()
            then_entry = self.new_block()
            self.edge(current, then_entry)
            then_tail = self.visit_body(
                statement.body, then_entry, break_targets, continue_targets
            )
            self.edge(then_tail, join)
            if statement.orelse:
                else_entry = self.new_block()
                self.edge(current, else_entry)
                else_tail = self.visit_body(
                    statement.orelse, else_entry, break_targets, continue_targets
                )
                self.edge(else_tail, join)
            else:
                self.edge(current, join)
            return join
        if isinstance(statement, (ast.While, ast.For, ast.AsyncFor)):
            header = self.new_block()
            header.statements.append(statement)
            self.edge(current, header)
            after = self.new_block()
            body_entry = self.new_block()
            self.edge(header, body_entry)
            self.edge(header, after)
            body_tail = self.visit_body(
                statement.body,
                body_entry,
                break_targets + [after],
                continue_targets + [header],
            )
            self.edge(body_tail, header)
            if statement.orelse:
                else_entry = self.new_block()
                self.edge(header, else_entry)
                else_tail = self.visit_body(
                    statement.orelse, else_entry, break_targets, continue_targets
                )
                self.edge(else_tail, after)
            return after
        if isinstance(statement, ast.Try):
            after = self.new_block()
            body_entry = self.new_block()
            self.edge(current, body_entry)
            before_ids = set(self.blocks)
            body_tail = self.visit_body(
                statement.body, body_entry, break_targets, continue_targets
            )
            orelse_tail = self.visit_body(
                statement.orelse, body_tail, break_targets, continue_targets
            )
            body_block_ids = (set(self.blocks) - before_ids) | {body_entry.id}
            handler_tails = []
            for handler in statement.handlers:
                handler_entry = self.new_block()
                if handler.name:
                    # Bind `except E as name` — modeled as an opaque
                    # (untainted) binding by the transfer function.
                    handler_entry.statements.append(handler)
                for block_id in body_block_ids:
                    self.edge(self.blocks[block_id], handler_entry)
                handler_tails.append(
                    self.visit_body(
                        handler.body, handler_entry, break_targets, continue_targets
                    )
                )
            if statement.finalbody:
                final_entry = self.new_block()
                self.edge(orelse_tail, final_entry)
                for tail in handler_tails:
                    self.edge(tail, final_entry)
                final_tail = self.visit_body(
                    statement.finalbody, final_entry, break_targets, continue_targets
                )
                self.edge(final_tail, after)
            else:
                self.edge(orelse_tail, after)
                for tail in handler_tails:
                    self.edge(tail, after)
            return after
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            current.statements.append(statement)
            return self.visit_body(
                statement.body, current, break_targets, continue_targets
            )
        if isinstance(statement, ast.Match):
            current.statements.append(statement)
            join = self.new_block()
            self.edge(current, join)  # no case may match
            for case in statement.cases:
                case_entry = self.new_block()
                self.edge(current, case_entry)
                case_tail = self.visit_body(
                    case.body, case_entry, break_targets, continue_targets
                )
                self.edge(case_tail, join)
            return join
        if isinstance(statement, (ast.Break, ast.Continue)):
            targets = break_targets if isinstance(statement, ast.Break) else (
                continue_targets
            )
            if targets:
                self.edge(current, targets[-1])
            return self.new_block()  # unreachable continuation
        if isinstance(statement, (ast.Return, ast.Raise)):
            current.statements.append(statement)
            return self.new_block()  # unreachable continuation
        current.statements.append(statement)
        return current


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """The statement-level CFG of one function body."""
    return _CFGBuilder().build(body)


@dataclass(frozen=True)
class SinkHit:
    """Tainted data reached a sink call."""

    node: ast.AST
    kind: str
    tags: Taint


@dataclass(frozen=True)
class LocalCallArg:
    """A call to a module-local function passed a tainted argument."""

    callee: str
    param: str
    tags: Taint
    node: ast.AST


@dataclass
class FunctionDataflow:
    """Everything one fixpoint run learned about a function."""

    return_taint: Taint = EMPTY
    sink_hits: list[SinkHit] = field(default_factory=list)
    call_args: list[LocalCallArg] = field(default_factory=list)


class TaintPolicy:
    """Policy hooks the evaluator consults; override in the taint layer.

    The defaults make every hook a no-op, yielding a pure propagation
    analysis with no sources, sanitizers or sinks.
    """

    def source_call(self, node: ast.Call) -> Taint | None:
        """Taint introduced by a call (``None`` when not a source)."""
        return None

    def source_attribute(self, node: ast.Attribute) -> Taint | None:
        """Taint introduced by an attribute read (``None`` when not)."""
        return None

    def iteration_taint(self, node: ast.expr, env: Env) -> Taint:
        """Extra taint of *elements* when iterating ``node``."""
        return EMPTY

    def is_sanitizer(self, node: ast.Call) -> bool:
        """Whether the call is part of the sanctioned recoding surface."""
        return False

    def is_safe_call(self, node: ast.Call) -> bool:
        """Whether the call's result is value-free (``len`` and friends)."""
        return False

    def sink_kind(self, node: ast.Call) -> str | None:
        """The sink category of a call, or ``None``."""
        return None

    def local_call(
        self, node: ast.Call, arg_taints: Mapping[str, Taint]
    ) -> Taint | None:
        """Result taint via a module-local summary (``None`` = unresolved).

        ``arg_taints`` maps callee parameter names to the taint of the
        argument bound to them at this site.
        """
        return None

    def local_params(self, node: ast.Call) -> list[str] | None:
        """Callee parameter names for binding, or ``None`` if unresolved."""
        return None


def join_envs(envs: Iterable[Env]) -> Env:
    """Key-wise union of several abstract states."""
    joined: Env = {}
    for env in envs:
        for name, tags in env.items():
            if tags:
                joined[name] = joined.get(name, EMPTY) | tags
    return joined


def _env_le(small: Env, big: Env) -> bool:
    return all(tags <= big.get(name, EMPTY) for name, tags in small.items())


class TaintInterpreter:
    """Evaluates expression taint and applies statement transfers.

    One interpreter instance is shared across a whole fixpoint run so it
    can accumulate :class:`SinkHit` / :class:`LocalCallArg` records; the
    per-block environment is passed in explicitly.
    """

    def __init__(self, policy: TaintPolicy, result: FunctionDataflow):
        self.policy = policy
        self.result = result

    # -- expressions --------------------------------------------------------

    def eval(self, node: ast.expr | None, env: Env) -> Taint:
        """The taint of ``node`` under ``env`` (records sink hits)."""
        if node is None:
            return EMPTY
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, env)
        # Unknown expression kind: union of child expression taints.
        tags = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                tags |= self.eval(child, env)
        return tags

    def _eval_Name(self, node: ast.Name, env: Env) -> Taint:
        return env.get(node.id, EMPTY)

    def _eval_Constant(self, node: ast.Constant, env: Env) -> Taint:
        return EMPTY

    def _eval_JoinedStr(self, node: ast.JoinedStr, env: Env) -> Taint:
        tags = EMPTY
        for value in node.values:
            tags |= self.eval(value, env)
        return tags

    def _eval_FormattedValue(self, node: ast.FormattedValue, env: Env) -> Taint:
        return self.eval(node.value, env)

    def _eval_BinOp(self, node: ast.BinOp, env: Env) -> Taint:
        return self.eval(node.left, env) | self.eval(node.right, env)

    def _eval_UnaryOp(self, node: ast.UnaryOp, env: Env) -> Taint:
        return self.eval(node.operand, env)

    def _eval_BoolOp(self, node: ast.BoolOp, env: Env) -> Taint:
        tags = EMPTY
        for value in node.values:
            tags |= self.eval(value, env)
        return tags

    def _eval_Compare(self, node: ast.Compare, env: Env) -> Taint:
        # Evaluate operands for their side effects (walrus bindings, sink
        # calls) but treat the boolean result as value-free.
        self.eval(node.left, env)
        for comparator in node.comparators:
            self.eval(comparator, env)
        return EMPTY

    def _eval_IfExp(self, node: ast.IfExp, env: Env) -> Taint:
        self.eval(node.test, env)
        return self.eval(node.body, env) | self.eval(node.orelse, env)

    def _eval_Tuple(self, node: ast.Tuple, env: Env) -> Taint:
        return self._eval_elements(node.elts, env)

    def _eval_List(self, node: ast.List, env: Env) -> Taint:
        return self._eval_elements(node.elts, env)

    def _eval_Set(self, node: ast.Set, env: Env) -> Taint:
        return self._eval_elements(node.elts, env)

    def _eval_elements(self, elements: Sequence[ast.expr], env: Env) -> Taint:
        tags = EMPTY
        for element in elements:
            tags |= self.eval(element, env)
        return tags

    def _eval_Dict(self, node: ast.Dict, env: Env) -> Taint:
        tags = EMPTY
        for key in node.keys:
            if key is not None:
                tags |= self.eval(key, env)
        for value in node.values:
            tags |= self.eval(value, env)
        return tags

    def _eval_Starred(self, node: ast.Starred, env: Env) -> Taint:
        return self.eval(node.value, env)

    def _eval_Subscript(self, node: ast.Subscript, env: Env) -> Taint:
        base = self.eval(node.value, env)
        self.eval(node.slice, env)  # indices are value-free, but may bind
        return base | self.policy.iteration_taint(node.value, env)

    def _eval_Slice(self, node: ast.Slice, env: Env) -> Taint:
        self.eval(node.lower, env)
        self.eval(node.upper, env)
        self.eval(node.step, env)
        return EMPTY

    def _eval_Attribute(self, node: ast.Attribute, env: Env) -> Taint:
        source = self.policy.source_attribute(node)
        base = self.eval(node.value, env)
        return base | (source or EMPTY)

    def _eval_Await(self, node: ast.Await, env: Env) -> Taint:
        return self.eval(node.value, env)

    def _eval_Yield(self, node: ast.Yield, env: Env) -> Taint:
        return self.eval(node.value, env)

    def _eval_YieldFrom(self, node: ast.YieldFrom, env: Env) -> Taint:
        return self.eval(node.value, env)

    def _eval_Lambda(self, node: ast.Lambda, env: Env) -> Taint:
        return EMPTY  # a function object; its body runs elsewhere

    def _eval_NamedExpr(self, node: ast.NamedExpr, env: Env) -> Taint:
        tags = self.eval(node.value, env)
        self.bind(node.target, tags, env, value_node=node.value)
        return tags

    def _eval_Call(self, node: ast.Call, env: Env) -> Taint:
        positional = [self.eval(arg, env) for arg in node.args]
        keyword = {
            kw.arg: self.eval(kw.value, env)
            for kw in node.keywords
        }
        arg_union = EMPTY
        for tags in positional:
            arg_union |= tags
        for tags in keyword.values():
            arg_union |= tags

        kind = self.policy.sink_kind(node)
        if kind is not None and arg_union:
            self.result.sink_hits.append(SinkHit(node, kind, arg_union))

        # Seed module-local callees even when the call is a sanitizer: a
        # sanitizer cleans its *return* value, but the raw argument still
        # flows into the callee's own body and may leak from there.
        params = self.policy.local_params(node)
        summary = None
        if params is not None:
            bound = self._bind_arguments(params, node, positional, keyword)
            for param, tags in bound.items():
                if tags:
                    callee = _call_name(node)
                    self.result.call_args.append(
                        LocalCallArg(callee or "?", param, tags, node)
                    )
            summary = self.policy.local_call(node, bound)

        if self.policy.is_sanitizer(node):
            return EMPTY
        source = self.policy.source_call(node)
        if source is not None:
            return source
        if self.policy.is_safe_call(node):
            return EMPTY
        if summary is not None:
            return summary

        receiver = EMPTY
        if isinstance(node.func, ast.Attribute):
            receiver = self.eval(node.func, env)
        return arg_union | receiver

    @staticmethod
    def _bind_arguments(
        params: Sequence[str],
        node: ast.Call,
        positional: Sequence[Taint],
        keyword: Mapping[str | None, Taint],
    ) -> dict[str, Taint]:
        names = list(params)
        if names and names[0] in ("self", "cls") and isinstance(
            node.func, ast.Attribute
        ):
            names = names[1:]
        bound: dict[str, Taint] = {}
        for name, tags in zip(names, positional):
            bound[name] = tags
        for name, tags in keyword.items():
            if name is not None and name in params:
                bound[name] = bound.get(name, EMPTY) | tags
        return bound

    def _bind_loop_target(
        self, target: ast.expr, iter_node: ast.expr, env: Env
    ) -> None:
        """Bind a loop target to the element taint of ``iter_node``.

        ``enumerate``/``zip`` over a tuple target are unpacked precisely so
        a clean loop index never inherits the taint of the rows it counts.
        """
        if isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name):
            elements = (
                target.elts if isinstance(target, (ast.Tuple, ast.List)) else None
            )
            clean = elements is not None and not any(
                isinstance(e, ast.Starred) for e in elements
            )
            if (
                iter_node.func.id == "enumerate"
                and clean
                and len(elements) == 2
                and iter_node.args
            ):
                self.bind(elements[0], EMPTY, env)
                self._bind_loop_target(elements[1], iter_node.args[0], env)
                return
            if (
                iter_node.func.id == "zip"
                and clean
                and len(elements) == len(iter_node.args)
                and iter_node.args
                and not any(isinstance(a, ast.Starred) for a in iter_node.args)
            ):
                for element, arg in zip(elements, iter_node.args):
                    self._bind_loop_target(element, arg, env)
                return
        tags = self.eval(iter_node, env) | self.policy.iteration_taint(
            iter_node, env
        )
        self.bind(target, tags, env)

    def _eval_comprehension(
        self, generators: Sequence[ast.comprehension], env: Env
    ) -> Env:
        """A child scope with generator targets bound (PEP 572 aware)."""
        scoped = dict(env)
        for generator in generators:
            self._bind_loop_target(generator.target, generator.iter, scoped)
            for condition in generator.ifs:
                self.eval(condition, scoped)
        return scoped

    def _comp_targets(self, generators: Sequence[ast.comprehension]) -> set[str]:
        names: set[str] = set()
        for generator in generators:
            for node in ast.walk(generator.target):
                if isinstance(node, ast.Name):
                    names.add(node.id)
        return names

    def _finish_comprehension(
        self,
        node: ast.expr,
        generators: Sequence[ast.comprehension],
        scoped: Env,
        env: Env,
    ) -> None:
        """Propagate walrus bindings out of the comprehension scope."""
        targets = self._comp_targets(generators)
        for name, tags in scoped.items():
            if name not in targets and env.get(name, EMPTY) != tags:
                env[name] = tags

    def _eval_ListComp(self, node: ast.ListComp, env: Env) -> Taint:
        scoped = self._eval_comprehension(node.generators, env)
        tags = self.eval(node.elt, scoped)
        self._finish_comprehension(node, node.generators, scoped, env)
        return tags

    _eval_SetComp = _eval_ListComp
    _eval_GeneratorExp = _eval_ListComp

    def _eval_DictComp(self, node: ast.DictComp, env: Env) -> Taint:
        scoped = self._eval_comprehension(node.generators, env)
        tags = self.eval(node.key, scoped) | self.eval(node.value, scoped)
        self._finish_comprehension(node, node.generators, scoped, env)
        return tags

    # -- bindings -----------------------------------------------------------

    def bind(
        self,
        target: ast.expr,
        tags: Taint,
        env: Env,
        value_node: ast.expr | None = None,
    ) -> None:
        """Strong-update ``target`` with ``tags`` (weak for containers)."""
        if isinstance(target, ast.Name):
            env[target.id] = tags
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = target.elts
            values: Sequence[ast.expr] | None = None
            if (
                isinstance(value_node, (ast.Tuple, ast.List))
                and len(value_node.elts) == len(elements)
                and not any(isinstance(e, ast.Starred) for e in elements)
                and not any(isinstance(e, ast.Starred) for e in value_node.elts)
            ):
                values = value_node.elts
            for position, element in enumerate(elements):
                if isinstance(element, ast.Starred):
                    element = element.value
                if values is not None:
                    self.bind(element, self.eval(values[position], env), env)
                else:
                    self.bind(element, tags, env)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            # Writing into a container/attribute poisons the container.
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name) and tags:
                env[base.id] = env.get(base.id, EMPTY) | tags
            self.eval(target, env)  # slices may contain walrus bindings
            return
        # Starred at top level or exotic targets: fall back to name walk.
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                env[node.id] = env.get(node.id, EMPTY) | tags

    # -- statements ---------------------------------------------------------

    def transfer(self, statement: ast.AST, env: Env) -> None:
        """Apply one statement's effect to ``env`` in place."""
        if isinstance(statement, ast.Assign):
            tags = self.eval(statement.value, env)
            for target in statement.targets:
                self.bind(target, tags, env, value_node=statement.value)
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                tags = self.eval(statement.value, env)
                self.bind(statement.target, tags, env, value_node=statement.value)
        elif isinstance(statement, ast.AugAssign):
            tags = self.eval(statement.value, env)
            if isinstance(statement.target, ast.Name):
                previous = env.get(statement.target.id, EMPTY)
                env[statement.target.id] = previous | tags
            else:
                self.bind(statement.target, tags, env)
        elif isinstance(statement, ast.Expr):
            self.eval(statement.value, env)
        elif isinstance(statement, ast.Return):
            self.result.return_taint |= self.eval(statement.value, env)
        elif isinstance(statement, ast.Raise):
            self.eval(statement.exc, env)
            self.eval(statement.cause, env)
        elif isinstance(statement, ast.Assert):
            self.eval(statement.test, env)
            if statement.msg is not None:
                tags = self.eval(statement.msg, env)
                if tags:
                    # assert messages feed AssertionError: an exception sink.
                    self.result.sink_hits.append(
                        SinkHit(statement, "exception", tags)
                    )
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(statement, (ast.If, ast.While)):
            self.eval(statement.test, env)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(statement.target, statement.iter, env)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                tags = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, tags, env)
        elif isinstance(statement, ast.Match):
            tags = self.eval(statement.subject, env)
            for case in statement.cases:
                for node in ast.walk(case.pattern):
                    name = getattr(node, "name", None)
                    if isinstance(name, str):
                        env[name] = env.get(name, EMPTY) | tags
        elif isinstance(statement, ast.ExceptHandler):
            if statement.name:
                env[statement.name] = EMPTY
        elif isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                bound = alias.asname or alias.name.split(".")[0]
                env[bound] = EMPTY
        elif isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            env[statement.name] = EMPTY  # analyzed as its own function
        # Pass/Global/Nonlocal/Break/Continue: no dataflow effect.


def _call_name(node: ast.Call) -> str | None:
    """The bare callee name of a call (``f`` or ``obj.f``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


#: Hard cap on fixpoint sweeps; the monotone lattice converges far sooner,
#: this only guards against a transfer-function bug looping forever.
_MAX_SWEEPS = 64


def analyze_function(
    body: Sequence[ast.stmt],
    policy: TaintPolicy,
    initial_env: Mapping[str, Taint] | None = None,
) -> FunctionDataflow:
    """Run the taint dataflow over one function body to a fixpoint.

    ``initial_env`` seeds the entry state (parameter taints).  Sink hits
    and local-call argument records are deduplicated across fixpoint
    sweeps by (location, kind/param): later sweeps see monotonically
    larger tag sets, and the final sweep's records win.
    """
    cfg = build_cfg(body)
    result = FunctionDataflow()
    interpreter = TaintInterpreter(policy, result)
    entry_env: Env = dict(initial_env or {})
    in_states: dict[int, Env] = {cfg.entry: entry_env}
    out_states: dict[int, Env] = {}

    for _sweep in range(_MAX_SWEEPS):
        changed = False
        # Re-collect per-sweep records so only the final (largest) states
        # contribute; return taint only grows, so it is left cumulative.
        result.sink_hits.clear()
        result.call_args.clear()
        for block_id in sorted(cfg.blocks):
            block = cfg.blocks[block_id]
            env = dict(in_states.get(block_id, {}))
            if block_id == cfg.entry:
                for name, tags in entry_env.items():
                    env[name] = env.get(name, EMPTY) | tags
            for statement in block.statements:
                interpreter.transfer(statement, env)
            out_states[block_id] = env
            for successor in block.successors:
                merged = join_envs([in_states.get(successor, {}), env])
                if not _env_le(merged, in_states.get(successor, {})):
                    in_states[successor] = merged
                    changed = True
        if not changed:
            break

    result.sink_hits = _dedupe_hits(result.sink_hits)
    return result


def _dedupe_hits(hits: list[SinkHit]) -> list[SinkHit]:
    merged: dict[tuple[int, int, str], SinkHit] = {}
    for hit in hits:
        key = (
            getattr(hit.node, "lineno", 0),
            getattr(hit.node, "col_offset", -1),
            hit.kind,
        )
        previous = merged.get(key)
        if previous is None:
            merged[key] = hit
        else:
            merged[key] = SinkHit(hit.node, hit.kind, previous.tags | hit.tags)
    return list(merged.values())
