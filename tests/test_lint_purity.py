"""Tests for Layer 4 of repro.lint: parallel-safety analysis (REP200-REP206).

Every rule gets a positive fixture (the violation fires) and a negative
fixture (the safe idiom stays quiet), plus the acceptance-critical cases:
a planted global-state write inside a task op is caught by REP201, REP202
stays quiet on seed-threaded randomness but fires on a planted
``random.random()`` two calls deep, the repo itself is clean under
``--select REP2 --strict``, and ``op_certificates.json`` regenerates
byte-identically.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import api
from repro.lint.diagnostics import Severity
from repro.lint.engine import expand_selection
from repro.lint.purity import (
    CERTIFICATE_SCHEMA,
    PROGRAM_RULES,
    _ANALYSIS_MEMO,
    check_parallel_safety,
    op_certificates,
    render_certificates,
    write_op_certificates,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"

OPS_PRELUDE = "from repro.runtime.task import register_op\n"


def tree(tmp_path, files):
    """Materialize ``{relative path: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def findings_for(tmp_path, source, select=None):
    root = tree(
        tmp_path,
        {
            "app/__init__.py": "",
            "app/ops.py": OPS_PRELUDE + textwrap.dedent(source),
        },
    )
    return check_parallel_safety([root], select=select)


def rules_of(findings):
    return sorted({finding.rule for finding in findings})


class TestRep201GlobalState:
    def test_planted_global_write_in_task_op_is_caught(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            CACHE = {}

            @register_op("app.bad")
            def bad(params, deps, seed):
                CACHE[seed] = dict(params)
                return dict(params)
            """,
        )
        assert rules_of(findings) == ["REP201"]
        assert "'app.bad'" in findings[0].message

    def test_write_two_calls_deep_is_caught_with_chain(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            STATE = []

            def inner(value):
                STATE.append(value)

            def middle(value):
                inner(value)

            @register_op("app.deep")
            def deep(params, deps, seed):
                middle(seed)
                return dict(params)
            """,
        )
        assert rules_of(findings) == ["REP201"]
        assert "via" in findings[0].message

    def test_local_mutation_is_quiet(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            @register_op("app.pure")
            def pure(params, deps, seed):
                scratch = {}
                scratch["n"] = len(params)
                rows = list(params)
                rows.append("x")
                return {"n": scratch["n"]}
            """,
        )
        assert findings == []

    def test_global_write_outside_op_reach_is_quiet(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            STATE = []

            def untethered():
                STATE.append(1)

            @register_op("app.ok")
            def ok(params, deps, seed):
                return dict(params)
            """,
        )
        assert findings == []


class TestSelfInNestedFunctions:
    """``self`` inside a closure is the enclosing method's instance."""

    def test_closure_self_call_reaches_the_classs_own_write(self, tmp_path):
        # ``update`` is a builtin-collection name, so only resolution
        # through the enclosing class links the closure to the write.
        findings = findings_for(
            tmp_path,
            """
            LOG = []

            class Ledger:
                def update(self, value):
                    LOG.append(value)

                def record(self, values):
                    def each(value):
                        self.update(value)
                    for value in values:
                        each(value)

            @register_op("app.ledger")
            def ledger(params, deps, seed):
                Ledger().record([seed])
                return dict(params)
            """,
        )
        assert rules_of(findings) == ["REP201"]

    def test_closure_self_call_ignores_same_named_methods_elsewhere(
        self, tmp_path
    ):
        findings = findings_for(
            tmp_path,
            """
            import random

            REGISTRY = {}

            class Transport:
                def _table(self, key):
                    REGISTRY[key] = random.random()
                    return REGISTRY[key]

            class Workspace:
                def _table(self, key):
                    return len(key)

                def widths(self, names):
                    def width(name):
                        return self._table(name)
                    for name in names:
                        width(name)
                    return len(names)

            @register_op("app.widths")
            def widths(params, deps, seed):
                return {"widths": Workspace().widths(["a", "bb"])}
            """,
        )
        assert findings == []


class TestRep202AmbientNondeterminism:
    def test_planted_random_random_two_calls_deep_fires(self, tmp_path):
        # The kill-test: process-global RNG reached through two layers of
        # helpers must still be attributed to the op.
        findings = findings_for(
            tmp_path,
            """
            import random

            def inner():
                return random.random()

            def middle():
                return inner()

            @register_op("app.noisy")
            def noisy(params, deps, seed):
                return {"v": middle()}
            """,
        )
        assert rules_of(findings) == ["REP202"]
        assert "'app.noisy'" in findings[0].message

    def test_seed_threaded_randomness_is_quiet(self, tmp_path):
        # The sanctioned idiom: the derive_seed-split seed arrives through
        # params (with_seed), so it is part of the cache key, and seeds a
        # local random.Random.  Neither REP202 nor REP204 may fire.
        findings = findings_for(
            tmp_path,
            """
            import random

            def draw(rng):
                return rng.random()

            @register_op("app.seeded")
            def seeded(params, deps, seed):
                rng = random.Random(params["seed"])
                return {"v": draw(rng)}
            """,
        )
        assert findings == []

    def test_clock_read_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            import time

            @register_op("app.clocked")
            def clocked(params, deps, seed):
                return {"t": time.time()}
            """,
        )
        assert rules_of(findings) == ["REP202"]

    def test_environment_read_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            import os

            @register_op("app.envy")
            def envy(params, deps, seed):
                return {"home": os.environ.get("HOME", "")}
            """,
        )
        assert rules_of(findings) == ["REP202"]


class TestRep203Picklability:
    def test_taskspec_lambda_payload_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            from repro.runtime.task import TaskSpec

            @register_op("app.ship")
            def ship(params, deps, seed):
                return dict(params)

            def build():
                return TaskSpec("t1", "app.ship", {"fn": lambda x: x})
            """,
        )
        assert rules_of(findings) == ["REP203"]
        assert "lambda" in findings[0].message

    def test_taskspec_lambda_for_inline_op_is_quiet(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            from repro.runtime.task import TaskSpec

            @register_op("app.local", inline_only=True)
            def local(params, deps, seed):
                return dict(params)

            def build():
                return TaskSpec("t1", "app.local", {"fn": lambda x: x})
            """,
        )
        assert findings == []

    def test_returned_lambda_through_helper_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            def make():
                return lambda x: x

            @register_op("app.factory")
            def factory(params, deps, seed):
                return make()
            """,
        )
        assert rules_of(findings) == ["REP203"]

    def test_plain_json_payload_is_quiet(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            from repro.runtime.task import TaskSpec

            @register_op("app.plain")
            def plain(params, deps, seed):
                return dict(params)

            def build():
                return TaskSpec("t1", "app.plain", {"k": 5})
            """,
        )
        assert findings == []


class TestRep204CacheKeyCompleteness:
    def test_seed_reaching_return_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            @register_op("app.seedy")
            def seedy(params, deps, seed):
                return {"seed": seed}
            """,
        )
        assert rules_of(findings) == ["REP204"]
        assert "with_seed" in findings[0].message

    def test_unused_seed_is_quiet(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            @register_op("app.pure")
            def pure(params, deps, seed):
                return dict(params)
            """,
        )
        assert findings == []

    def test_literal_epoch_cache_key_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            from repro.runtime.task import CacheKey

            def key():
                return CacheKey(dataset="d", algorithm="a", epoch="1")
            """,
        )
        assert rules_of(findings) == ["REP204"]
        assert "epoch" in findings[0].message

    def test_default_epoch_cache_key_is_quiet(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            from repro.runtime.task import CacheKey

            def key():
                return CacheKey(dataset="d", algorithm="a")
            """,
        )
        assert findings == []


class TestRep205IterationOrder:
    def test_list_over_set_reaching_return_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            @register_op("app.drift")
            def drift(params, deps, seed):
                return list({"a", "b", "c"})
            """,
        )
        assert rules_of(findings) == ["REP205"]
        assert findings[0].severity is Severity.WARNING

    def test_sorted_set_is_quiet(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            @register_op("app.stable")
            def stable(params, deps, seed):
                return sorted({"a", "b", "c"})
            """,
        )
        assert findings == []


class TestRep206InlineReachability:
    def test_parallel_op_reaching_inline_op_fires(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            @register_op("app.inline", inline_only=True)
            def inline_impl(params, deps, seed):
                return dict(params)

            @register_op("app.outer")
            def outer(params, deps, seed):
                inner = inline_impl(params, deps, 0)
                return dict(params)
            """,
        )
        assert rules_of(findings) == ["REP206"]
        assert "'app.outer'" in findings[0].message
        assert "'app.inline'" in findings[0].message

    def test_disjoint_ops_are_quiet(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            @register_op("app.inline", inline_only=True)
            def inline_impl(params, deps, seed):
                return dict(params)

            @register_op("app.outer")
            def outer(params, deps, seed):
                return dict(params)
            """,
        )
        assert findings == []


class TestRep200WaiverAudit:
    def test_unjustified_waiver_surfaces_as_warning(self, tmp_path):
        findings = findings_for(
            tmp_path,
            """
            CACHE = {}

            @register_op("app.waived")
            def waived(params, deps, seed):
                CACHE[seed] = 1  # lint: disable=REP201
                return dict(params)
            """,
        )
        assert rules_of(findings) == ["REP200"]
        assert findings[0].severity is Severity.WARNING

    def test_justified_waiver_is_silent_and_audited(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/ops.py": OPS_PRELUDE
                + textwrap.dedent(
                    """
                    CACHE = {}

                    @register_op("app.waived")
                    def waived(params, deps, seed):
                        CACHE[seed] = 1  # lint: disable=REP201 -- idempotent memo
                        return dict(params)
                    """
                ),
            },
        )
        assert check_parallel_safety([root]) == []
        certs = op_certificates([root])
        assert certs["unaudited_waivers"] == 0
        waivers = certs["ops"]["app.waived"]["waivers"]
        assert waivers and waivers[0]["justification"] == "idempotent memo"
        assert certs["ops"]["app.waived"]["verdict"] == "certified"


class TestSelection:
    def test_select_narrows_to_requested_rules(self, tmp_path):
        source = """
        import random

        CACHE = {}

        @register_op("app.messy")
        def messy(params, deps, seed):
            CACHE[seed] = 1
            return {"v": random.random()}
        """
        both = findings_for(tmp_path / "a", source)
        assert rules_of(both) == ["REP201", "REP202"]
        only = findings_for(tmp_path / "b", source, select=["REP202"])
        assert rules_of(only) == ["REP202"]

    def test_rep2_prefix_expands_over_program_rules(self):
        universe = set(api.registered_rules()) | set(PROGRAM_RULES)
        expanded = expand_selection(["REP2"], universe=universe)
        assert expanded == sorted(PROGRAM_RULES)

    def test_unknown_prefix_still_rejected(self):
        with pytest.raises(ValueError):
            expand_selection(["REP9"], universe=set(PROGRAM_RULES))


class TestRepoIsClean:
    def test_repo_passes_strict_rep2(self):
        assert main(["lint", str(REPO_SRC), "--select", "REP2", "--strict"]) == 0

    def test_no_unaudited_waivers_in_repo(self):
        certs = op_certificates([REPO_SRC])
        assert certs["unaudited_waivers"] == 0
        assert all(
            op["verdict"] in ("certified", "inline-only")
            for op in certs["ops"].values()
        )


class TestCertificates:
    def test_generation_is_byte_deterministic(self, tmp_path):
        first = write_op_certificates([REPO_SRC], tmp_path / "a.json")
        _ANALYSIS_MEMO.clear()  # force a cold re-analysis, not a memo hit
        second = write_op_certificates([REPO_SRC], tmp_path / "b.json")
        assert render_certificates(first) == render_certificates(second)
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_committed_certificates_are_current(self):
        committed = REPO_ROOT / "lint" / "op_certificates.json"
        regenerated = render_certificates(op_certificates([REPO_SRC]))
        assert committed.read_text(encoding="utf-8") == regenerated, (
            "lint/op_certificates.json is stale; regenerate with "
            "`repro lint src --select REP2 --certify-ops "
            "lint/op_certificates.json`"
        )

    def test_contract_of_certificate_payload(self, tmp_path):
        root = tree(
            tmp_path,
            {
                "app/__init__.py": "",
                "app/ops.py": OPS_PRELUDE
                + textwrap.dedent(
                    """
                    STATE = {}

                    @register_op("app.dirty")
                    def dirty(params, deps, seed):
                        STATE[seed] = 1
                        return dict(params)

                    @register_op("app.clean")
                    def clean(params, deps, seed):
                        return dict(params)

                    @register_op("app.pinned", inline_only=True)
                    def pinned(params, deps, seed):
                        return dict(params)
                    """
                ),
            },
        )
        certs = op_certificates([root])
        assert certs["schema"] == CERTIFICATE_SCHEMA
        assert certs["ops"]["app.dirty"]["verdict"] == "uncertified"
        assert certs["ops"]["app.dirty"]["findings"]
        assert certs["ops"]["app.dirty"]["effects"]["writes-global"]
        assert certs["ops"]["app.clean"]["verdict"] == "certified"
        assert certs["ops"]["app.clean"]["findings"] == []
        assert certs["ops"]["app.pinned"]["verdict"] == "inline-only"
        for op in certs["ops"].values():
            assert "\\" not in op["path"], "certificate paths must be POSIX"
        # The payload must round-trip through its canonical rendering.
        assert json.loads(render_certificates(certs)) == certs

    def test_cli_certify_ops_writes_file_and_reports(self, tmp_path, capsys):
        target = tmp_path / "certs.json"
        code = main(
            [
                "lint",
                str(REPO_SRC),
                "--select",
                "REP2",
                "--certify-ops",
                str(target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "op certificate(s)" in out
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["schema"] == CERTIFICATE_SCHEMA
        assert payload["ops"]
