"""Tests for the Layer 4 call-graph builder (:mod:`repro.lint.callgraph`).

Edge cases the parallel-safety pass depends on: methods resolved through
``self``, ops registered under aliased names and in call form, dispatch
tables, recursion, and the agreement between static op discovery and the
dynamic :func:`repro.runtime.registered_ops` registry.
"""

import textwrap
from pathlib import Path

from repro.lint.callgraph import build_program_index, returned_name_closure
import ast

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def tree(tmp_path, files):
    """Materialize ``{relative path: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


class TestCallResolution:
    def test_self_method_calls_resolve_to_the_class(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/mod.py": """
                class Worker:
                    def run(self):
                        return self.step()

                    def step(self):
                        return 1
                """,
            },
        )
        index = build_program_index([root])
        assert "app.mod.Worker.step" in index.callees("app.mod.Worker.run")

    def test_self_in_a_closure_resolves_to_the_enclosing_class(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/mod.py": """
                class Other:
                    def step(self):
                        return 2

                class Worker:
                    def run(self):
                        def inner():
                            return self.step()
                        def rebinds(self):
                            return self.step()
                        return inner() + rebinds(Other())

                    def step(self):
                        return 1
                """,
            },
        )
        index = build_program_index([root])
        inner = "app.mod.Worker.run.<locals>.inner"
        assert set(index.callees(inner)) == {"app.mod.Worker.step"}
        # A closure that binds its own ``self`` keeps name-based dispatch.
        rebinds = "app.mod.Worker.run.<locals>.rebinds"
        assert set(index.callees(rebinds)) == {
            "app.mod.Other.step",
            "app.mod.Worker.step",
        }

    def test_imported_function_call_resolves_across_modules(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/helpers.py": """
                def leak():
                    return 1
                """,
                "app/mod.py": """
                from app.helpers import leak

                def outer():
                    return leak()
                """,
            },
        )
        index = build_program_index([root])
        assert "app.helpers.leak" in index.callees("app.mod.outer")

    def test_relative_import_resolves_inside_package(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/helpers.py": """
                def leak():
                    return 1
                """,
                "app/mod.py": """
                from .helpers import leak

                def outer():
                    return leak()
                """,
            },
        )
        index = build_program_index([root])
        assert "app.helpers.leak" in index.callees("app.mod.outer")

    def test_dispatch_table_expands_to_every_entry(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/mod.py": """
                def alpha():
                    return 1

                def beta():
                    return 2

                TABLE = {"a": alpha, "b": beta}

                def dispatch(kind):
                    return TABLE[kind]()
                """,
            },
        )
        index = build_program_index([root])
        callees = set(index.callees("app.mod.dispatch"))
        assert {"app.mod.alpha", "app.mod.beta"} <= callees

    def test_recursion_terminates_and_is_reachable(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/mod.py": """
                def walk(node):
                    if node:
                        return walk(node[1:])
                    return node

                def mutual_a(n):
                    return mutual_b(n - 1) if n else 0

                def mutual_b(n):
                    return mutual_a(n - 1) if n else 0
                """,
            },
        )
        index = build_program_index([root])
        assert "app.mod.walk" in index.callees("app.mod.walk")
        reached = index.reachable(["app.mod.mutual_a"])
        assert {"app.mod.mutual_a", "app.mod.mutual_b"} <= reached

    def test_call_path_is_shortest_and_deterministic(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/mod.py": """
                def leaf():
                    return 0

                def mid():
                    return leaf()

                def top():
                    mid()
                    leaf()
                """,
            },
        )
        index = build_program_index([root])
        assert index.call_path("app.mod.top", "app.mod.leaf") == [
            "app.mod.top",
            "app.mod.leaf",
        ]
        assert index.call_path("app.mod.leaf", "app.mod.top") is None


class TestOpDiscovery:
    def test_decorator_registration(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/ops.py": """
                from repro.runtime.task import register_op

                @register_op("app.plain")
                def plain(params, deps, seed):
                    return dict(params)

                @register_op("app.inline", inline_only=True)
                def inline(params, deps, seed):
                    return dict(params)
                """,
            },
        )
        index = build_program_index([root])
        assert index.ops["app.plain"].function == "app.ops.plain"
        assert index.ops["app.plain"].inline_only is False
        assert index.ops["app.inline"].inline_only is True

    def test_aliased_registration(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/ops.py": """
                from repro.runtime.task import register_op as reg

                @reg("app.aliased")
                def aliased(params, deps, seed):
                    return dict(params)
                """,
            },
        )
        index = build_program_index([root])
        assert index.ops["app.aliased"].function == "app.ops.aliased"

    def test_call_form_registration(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/ops.py": """
                from repro.runtime.task import register_op

                def impl(params, deps, seed):
                    return dict(params)

                register_op("app.callform")(impl)
                """,
            },
        )
        index = build_program_index([root])
        assert index.ops["app.callform"].function == "app.ops.impl"

    def test_module_attribute_registration(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/ops.py": """
                from repro.runtime import task

                @task.register_op("app.attr")
                def attr_op(params, deps, seed):
                    return dict(params)
                """,
            },
        )
        index = build_program_index([root])
        assert "app.attr" in index.ops

    def test_static_discovery_agrees_with_dynamic_registry(self):
        # Importing the op-bearing modules populates the runtime registry;
        # static discovery over src/ must find the same names and flags, so
        # the certifier can never silently miss an operation.  Other test
        # files register throwaway ops in the process-global registry, so
        # the dynamic side is filtered to ops defined inside the package.
        import repro.analysis.matrix  # noqa: F401
        import repro.analysis.sweep  # noqa: F401
        import repro.analysis.tournament  # noqa: F401
        import repro.runtime.study  # noqa: F401
        import repro.serve.query  # noqa: F401
        from repro.runtime import registered_ops, resolve_op

        index = build_program_index([REPO_SRC])
        static = {name: reg.inline_only for name, reg in index.ops.items()}
        dynamic = {
            name: inline
            for name, inline in registered_ops().items()
            if resolve_op(name).__module__.startswith("repro.")
        }
        assert static == dynamic


class TestReturnedNameClosure:
    def _closure(self, source):
        fn = ast.parse(textwrap.dedent(source)).body[0]
        return returned_name_closure(fn)

    def test_direct_and_aliased_returns(self):
        closure = self._closure(
            """
            def fn(a, b, c):
                x = a
                y = x
                return {"k": y, "j": b}
            """
        )
        assert {"a", "b", "x", "y"} <= closure
        assert "c" not in closure

    def test_unrelated_locals_excluded(self):
        closure = self._closure(
            """
            def fn(seed):
                unused = seed
                return 42
            """
        )
        assert "seed" not in closure
